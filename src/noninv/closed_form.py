"""Closed-form expressions for expected degrees and fiber power sums.

Everything here is evaluated in exact integer/rational arithmetic.  Each
closed form has at least one independent computation path in
``noninv.oracle`` (full enumeration or direct multinomial summation),
and the test suite asserts exact agreement between the paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul
from typing import Iterable, Sequence

from ._frozen import Frozen
from .combinatorics import (
    _stirling_sum,
    binomial,
    stirling1_rows,
    stirling1_signed_sums,
)
from .errors import InvalidExponentError, InvalidSizeError

__all__ = [
    "ChainSpec",
    "expected_degree_chain",
    "expected_degree_iterate",
    "convergence_table",
    "power_difference_coeffs",
    "expected_degree_q",
    "closed_multinomial_power_sum",
    "stirling_identity_sum",
    "power_sum_stirling_form",
    "stirling_power_sum",
]


class ChainSpec(Frozen):
    """Sizes (n_1, ..., n_{t+1}) of the sets in a composition chain.

    A chain of t >= 1 functions f_s: X_s -> X_{s+1} needs t+1 sets, so
    the size vector has length >= 2.
    """

    __slots__ = _fields = ("sizes",)

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(sizes)
        if len(sizes) < 2:
            raise InvalidSizeError(
                f"a chain needs at least 2 set sizes, got {len(sizes)}"
            )
        if any(n < 1 for n in sizes):
            raise InvalidSizeError(f"set sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def t(self) -> int:
        """Number of functions in the chain."""
        return len(self.sizes) - 1

    def tuple_count(self) -> int:
        """Number of t-tuples of functions: prod_s n_{s+1}^{n_s}."""
        return prod(
            self.sizes[s + 1] ** self.sizes[s] for s in range(self.t)
        )


def expected_degree_chain(spec: ChainSpec) -> Fraction:
    """Expected degree of a uniformly random composition chain.

    Equals (prod_s n_s - prod_s (n_s - 1)) / prod_{s>=2} n_s, always a
    rational in [1, n_1].
    """
    sizes = spec.sizes
    numerator = prod(sizes) - prod(n - 1 for n in sizes)
    return Fraction(numerator, prod(sizes[1:]))


def expected_degree_iterate(n: int, t: int) -> Fraction:
    """Equal-sets special case: (n^(t+1) - (n-1)^(t+1)) / n^t."""
    if n < 1:
        raise InvalidSizeError(f"n must be >= 1, got {n}")
    if t < 1:
        raise InvalidSizeError(f"t must be >= 1, got {t}")
    return Fraction(n ** (t + 1) - (n - 1) ** (t + 1), n**t)


def convergence_table(
    t: int, n_values: Sequence[int]
) -> list[tuple[int, Fraction, Fraction]]:
    """Rows (n, exact chain expectation for equal sets, gap to t+1).

    The gaps are exact rationals; they are positive and strictly
    decreasing in n once n > t.
    """
    rows = []
    for n in n_values:
        value = expected_degree_iterate(n, t)
        rows.append((n, value, Fraction(t + 1) - value))
    return rows


def power_difference_coeffs(t: int) -> list[int]:
    """Coefficients of n^(t+1) - (n-1)^(t+1) as a polynomial in n.

    Entry s is (-1)^s * C(t+1, s+1), the coefficient of n^(t-s): a
    beheaded row of Pascal's triangle with alternating signs.  As n grows
    the normalized difference tends to t+1.
    """
    if t < 1:
        raise InvalidSizeError(f"t must be >= 1, got {t}")
    return [
        (-binomial(t + 1, s + 1) if s % 2 else binomial(t + 1, s + 1))
        for s in range(t + 1)
    ]


def _inner_sums(x: int, q: int) -> Iterable[int]:
    """Yield the paper's inner sums w_i = sum_{j=1..i} s(i, j) x^(j-1),
    i = 0..q, from the first-kind rows: (-1)^(i-1) times
    sum_j [i brack j] (-x)^(j-1), by Horner from j = i down to 1."""
    y = -x
    for i, row in enumerate(stirling1_rows(q)):
        inner = 0
        for c in row[i:0:-1]:
            inner = inner * y + c
        yield inner if i % 2 else -inner


def _power_sum_kernel(n: int, m: int, q: int) -> int:
    """The paper's double sum

        sum_{k=1..q} {q brace k}
            (sum_{j=1..k} (-1)^(k-j) [k brack j] n^(j-1)) m^(q-k),

    ``_stirling_sum`` at m over the inner sums w_k(n), taken as read.
    """
    return _stirling_sum(q, m, _inner_sums(n, q))


def expected_degree_q(n: int, m: int, q: int) -> Fraction:
    """Average of deg(f, q) over all m^n functions from an n-set to an m-set.

    Evaluates the Stirling-number closed form

        (1/m^(q-1)) * sum_{k=1..q} {q brace k}
            (sum_{j=1..k} (-1)^(k-j) [k brack j] n^(j-1)) m^(q-k)

    exactly, term for term as the paper's double sum, reading whole
    Stirling rows and nesting both sums by Horner (``_power_sum_kernel``).
    ``noninv.oracle.brute_expected_degree_q`` is the enumeration path the
    tests compare against.  q is capped by ``MAX_STIRLING_ROWS``.
    """
    if n < 1 or m < 1:
        raise InvalidSizeError(f"set sizes must be >= 1, got ({n}, {m})")
    if q < 1:
        raise InvalidExponentError(f"exponent must be >= 1, got {q}")
    return Fraction(_power_sum_kernel(n, m, q), m ** (q - 1))


def closed_multinomial_power_sum(n: int, m: int, q: int) -> int:
    """Closed form for sum over weak compositions k of n into m parts of
    multinomial(n; k) * sum_i k_i^q  (with 0^0 = 1 when q = 0).

    For q >= 1 this is n * m^(n-(q-1)) times the Stirling kernel used by
    ``expected_degree_q``; for q = 0 it is m^(n+1).  The m power can have
    a negative exponent (q > n+1), so the product is carried in exact
    rationals and checked to be integral before returning.
    """
    if n < 1 or m < 1:
        raise InvalidSizeError(f"parameters must be >= 1, got ({n}, {m})")
    if q < 0:
        raise InvalidExponentError(f"exponent must be >= 0, got {q}")
    if q == 0:
        return m ** (n + 1)
    value = n * Fraction(m) ** (n - (q - 1)) * _power_sum_kernel(n, m, q)
    if value.denominator != 1:
        raise ArithmeticError(
            f"power sum for ({n}, {m}, {q}) is not integral: {value}"
        )
    return value.numerator


def stirling_identity_sum(q: int) -> int:
    """sum_{k=0..q-1} (-1)^k sum_{j=1..q-k} {q brace k+j} [k+j brack j].

    An alternating double sum of products of Stirling numbers of both
    kinds; its value is 1 for every q >= 1 (the test suite asserts this,
    the function just computes the sum).

    Evaluated in another order of the same finite sum: with i = k + j
    the sign (-1)^k is (-1)^(i-j), so the sum is

        sum_{i=1..q} {q brace i} a_i,  a_i = sum_{j=1..i} s(i, j),

    the Stirling transform of a_1, a_2, ... at q (``_stirling_sum`` at
    m = 1), where s(i, j) = (-1)^(i-j) [i brack j] and a_i depends on i
    alone.  The a_i are summed once per process
    (``stirling1_signed_sums``), so a call costs q products, one per
    entry of the second-kind row q, where the k-then-j order costs
    q(q+1)/2.
    """
    if q < 1:
        raise InvalidExponentError(f"q must be >= 1, got {q}")
    return _stirling_sum(q, 1, stirling1_signed_sums(q))


def power_sum_stirling_form(n: int, q: int) -> int:
    """Alternative closed form for the m = n multinomial power sum.

    n^(n-(q-2)) * sum_{k=0..q-1} (-1)^k
    (sum_{j=1..q-k} {q brace k+j} [k+j brack j]) n^(q-k-1) is, with
    i = k + j as in ``stirling_identity_sum`` and n^(q-k-1) =
    n^(q-i) n^(j-1), the E[deg(f, q)] kernel at m = n: it is evaluated
    as ``closed_multinomial_power_sum(n, n, q)``.
    """
    if n < 1:
        raise InvalidSizeError(f"n must be >= 1, got {n}")
    if q < 1:
        raise InvalidExponentError(f"q must be >= 1, got {q}")
    return closed_multinomial_power_sum(n, n, q)


def stirling_power_sum(q: int) -> int:
    """sum_{i=1..q} {q brace i} q(q-1)...(q-i+1), which is q^q.

    The one Stirling sum (``_stirling_sum``) at m = 1 over the falling
    factorials (q)_i, each formed as a direct product from (q)_(i-1):
    x^q = sum_i {q brace i} x(x-1)...(x-i+1) (Graham, Knuth & Patashnik,
    *Concrete Mathematics*, eq. 6.10) at x = q.  No (q)_i with i <= q
    is zero, so every entry of the second-kind row q counts, where the
    identity sum weighs all but {q brace 1} by a_i = (1)_i = 0.
    """
    if q < 1:
        raise InvalidExponentError(f"q must be >= 1, got {q}")
    return _stirling_sum(q, 1, accumulate(range(q, 0, -1), mul, initial=1))
