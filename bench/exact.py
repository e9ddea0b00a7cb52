"""Reference values the benchmark checks `noninv` output against.

Nothing here imports `noninv`: every value is derived along a route that
shares no code with the package, so a defect in the package cannot make
its own check pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod


def chain_expectation(sizes) -> Fraction:
    """E[deg(f_t o ... o f_1)] = (prod n_s - prod (n_s - 1)) / prod_{s>=2} n_s."""
    return Fraction(prod(sizes) - prod(n - 1 for n in sizes), prod(sizes[1:]))


def expected_degree_q(n: int, m: int, q: int) -> Fraction:
    """E[deg(f, q)] for a uniform f: [n] -> [m], as a binomial moment.

    Each fiber size is Binomial(n, 1/m), so the expectation is
    (m/n) * sum_k C(n, k) k^q (m-1)^(n-k) / m^n.
    """
    total = sum(comb(n, k) * k**q * (m - 1) ** (n - k) for k in range(n + 1))
    return Fraction(m * total, n * m**n)


def bell_numbers(count: int) -> list[int]:
    """B_0 .. B_{count-1} from the Bell (Aitken) triangle."""
    bells = [1]
    row = [1]
    while len(bells) < count:
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


def factorials(count: int) -> list[int]:
    """0! .. (count-1)!."""
    out = [1]
    for k in range(1, count):
        out.append(out[-1] * k)
    return out


def decimal_string(x: Fraction, places: int) -> str:
    """``places``-digit decimal of a nonnegative rational, half rounded up."""
    scaled = (2 * x.numerator * 10**places + x.denominator) // (2 * x.denominator)
    if places == 0:
        return str(scaled)
    whole, frac = divmod(scaled, 10**places)
    return f"{whole}.{frac:0{places}d}"


def fiber_counts(images, codomain: int) -> list[int]:
    counts = [0] * codomain
    for y in images:
        counts[y] += 1
    return counts


def degree_q(counts, domain: int, q: int) -> Fraction:
    return Fraction(sum(c**q for c in counts), domain)


def _max_fiber_at_most(n: int, k: int) -> float:
    """P(max fiber <= k) for a uniform random endofunction of an n-set.

    The count of such functions is n! [x^n] P(x)^n with P the exponential
    series cut after x^k / k!.  The coefficients q_m of P^n satisfy
    m q_m = sum_j ((n+1) j - m) q_{m-j} / j! (J. C. P. Miller's power
    recurrence); with u_m = q_m m! / n^m every term is nonnegative for
    m <= n and u_n is the probability, so floats stay stable.
    """
    u = [1.0] + [0.0] * n
    for m in range(1, n + 1):
        acc = 0.0
        weight = 1.0 / n  # prod_{i<j} (m - i) / (j! n^j) at j = 1
        for j in range(1, min(k, m) + 1):
            acc += ((n + 1) * j - m) * weight * u[m - j]
            weight *= (m - j) / ((j + 1) * n)
        u[m] = acc
    return u[n]


def max_fiber_expectation(n: int) -> float:
    """E[max fiber] of a uniform random endofunction of an n-set."""
    total = 0.0
    for k in range(n):
        tail = 1.0 - _max_fiber_at_most(n, k)
        if tail < 1e-17:
            break
        total += tail
    return total
