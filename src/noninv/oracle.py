"""Independent computation paths for every closed form in the package.

Two kinds of oracle live here: enumeration over all function tuples,
memoized on fiber profiles (exponential, budgeted by the full count),
and direct evaluation of nested multinomial sums over weak compositions
(polynomial per level, also budget-guarded).
Each closed form in ``noninv.closed_form`` must agree exactly with at
least one of these paths; the chain expectation has all three.

0^0 = 1 throughout: the composition sums count functions with prescribed
(possibly empty) fibers, which forces the convention.  Python's integer
``0 ** 0`` already evaluates to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import comb
from typing import (
    Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union
)

from .closed_form import ChainSpec
from .combinatorics import multinomial
from .errors import BudgetExceededError, InvalidExponentError, InvalidSizeError
from .functions import FiniteFunction, _square_sum

__all__ = [
    "EnumerationBudget",
    "DEFAULT_BUDGET",
    "VerificationReport",
    "enumerate_functions",
    "weak_compositions",
    "count_weak_compositions",
    "brute_expected_degree_chain",
    "multinomial_expected_degree_chain",
    "brute_expected_degree_q",
    "multinomial_power_sum",
    "check_square_moment_identity",
]

# Counts of objects are formed exactly only up to this value (or up to
# the budget, if that is larger): a count can have millions of digits,
# which costs time to form and makes str() raise past 4300 digits.
_EXACT_COUNT_CEILING = 10**100


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on the number of objects an oracle may enumerate."""

    max_states: int = 10**6

    def __post_init__(self):
        if self.max_states < 1:
            raise InvalidSizeError(
                f"budget must be >= 1, got {self.max_states}"
            )

    @property
    def _ceiling(self) -> int:
        """Largest count that is formed exactly; at least the budget."""
        return max(_EXACT_COUNT_CEILING, self.max_states)

    def check(self, states: Optional[int], what: str) -> None:
        """Refuse more than ``max_states`` objects.

        ``states`` is None for a count known only to exceed the budget,
        such as one that was not formed past ``_ceiling``.
        """
        if states is not None and states <= self.max_states:
            return
        needs = (
            str(states)
            if states is not None and states <= self._ceiling
            else f"more than {self.max_states}"
        )
        raise BudgetExceededError(
            f"{what} needs {needs} enumerated objects, "
            f"budget is {self.max_states}"
        )

    def check_powers(
        self, powers: Iterable[tuple[int, int]], what: str
    ) -> None:
        """``check`` on the product of base**exponent over ``powers``
        (bases >= 1), never forming a number much past ``_ceiling``."""
        ceiling = self._ceiling
        bits = ceiling.bit_length()
        count: Optional[int] = 1
        for base, exponent in powers:
            # base^e >= 2^(e * (bit_length - 1)); below that cut-off the
            # power has at most about 2 * bits bits
            if base > 1 and exponent * (base.bit_length() - 1) >= bits:
                count = None
                break
            count *= base**exponent
            if count > ceiling:
                count = None
                break
        self.check(count, what)


DEFAULT_BUDGET = EnumerationBudget()

ExactValue = Union[int, Fraction]


def _count_weak_compositions(
    total: int, parts: int, limit: int
) -> Optional[int]:
    """``count_weak_compositions(total, parts)``, or None once it exceeds
    ``limit``.

    It is comb(total + parts - 1, k) with k = min(total, parts - 1); the
    i-th partial product is comb(total + parts - 1 - k + i, i) >= 2^i, so
    the loop stops within bit_length(limit) + 1 steps for any sizes.
    """
    n = total + parts - 1
    k = min(total, parts - 1)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > limit:
            return None
    return value


@dataclass(frozen=True)
class VerificationReport:
    """Paired (oracle value, closed-form value) for one parameter point."""

    parameters: Mapping[str, int]
    oracle_value: Fraction
    closed_value: Fraction
    match: bool

    @staticmethod
    def compare(
        parameters: Mapping[str, int],
        oracle_value: ExactValue,
        closed_value: ExactValue,
    ) -> "VerificationReport":
        oracle = Fraction(oracle_value)
        closed = Fraction(closed_value)
        return VerificationReport(
            parameters=dict(parameters),
            oracle_value=oracle,
            closed_value=closed,
            match=oracle == closed,
        )


def enumerate_functions(
    domain_size: int, codomain_size: int
) -> Iterator[FiniteFunction]:
    """All codomain_size^domain_size functions, in lexicographic order of
    the image tuple."""
    for images in product(range(codomain_size), repeat=domain_size):
        yield FiniteFunction(domain_size, codomain_size, images)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` nonnegative parts.

    Colexicographic order (last coordinate varies slowest); the order is
    fixed only so that streamed output is reproducible.  Iterative, so
    any number of parts works: the successor of k moves one unit from
    its first nonzero part k_i to k_{i+1} and the rest of k_i to k_1.
    """
    if parts < 1:
        raise InvalidSizeError(f"parts must be >= 1, got {parts}")
    k = [total] + [0] * (parts - 1)
    while True:
        yield tuple(k)
        i = 0
        while i < parts - 1 and k[i] == 0:
            i += 1
        if i == parts - 1:
            return
        rest = k[i] - 1
        k[i] = 0
        k[i + 1] += 1
        k[0] = rest


def count_weak_compositions(total: int, parts: int) -> int:
    return comb(total + parts - 1, parts - 1)


def _weighted_composition_sum(
    total: int,
    bases: Sequence[int],
    term: Callable[[tuple[int, ...]], int],
) -> int:
    """sum over weak compositions k of ``total`` into len(bases) parts of
    multinomial(total; k) * prod_i bases_i^k_i * term(k), with 0^0 = 1.

    multinomial(total; k) prod_i b_i^k_i counts the functions from a
    ``total``-set into blocks of sizes b_i with k_i points in block i.
    """
    acc = 0
    for k in weak_compositions(total, len(bases)):
        weight = multinomial(total, k)
        for b, ki in zip(bases, k):
            weight *= b**ki
        acc += weight * term(k)
    return acc


def _set_partitions(
    points: int, max_blocks: int
) -> Iterator[tuple[int, ...]]:
    """Set partitions of range(points) into at most ``max_blocks``
    blocks, as restricted growth strings: point i gets the label of its
    block, and labels are numbered in order of first use, so a partition
    with k blocks uses exactly the labels 0..k-1.

    Lexicographic order.  Iterative and lazy, so any number of points
    works and a caller that stops early never holds the rest: the
    successor raises the last label that is below both the number of
    blocks opened before it and ``max_blocks`` - 1, and resets every
    label after it to 0.  Bell(points) strings when max_blocks >= points;
    max_blocks must be at least 1.
    """
    labels = [0] * points
    # opened[i]: number of blocks among points 0..i-1
    opened = [1] * points
    while True:
        yield tuple(labels)
        i = points - 1
        while i > 0 and (
            labels[i] == opened[i] or labels[i] == max_blocks - 1
        ):
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        top = max(opened[i], labels[i] + 1)
        for j in range(i + 1, points):
            labels[j] = 0
            opened[j] = top


@lru_cache(maxsize=4)
def _fiber_profiles(
    sizes: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(sorted fiber sizes, number of tuples) of f_t o ... o f_1 over all
    function tuples on the chain ``sizes`` = (n_1, ..., n_{t+1}).

    Steps level by level from the identity of X_1, counting the tuples
    that reach each sorted fiber profile of g: X_1 -> X_{s+1}.  Exact:
    for bijections pi of X_{s+1} and sigma of X_1, g and pi o g o sigma
    reach the same profiles (f -> f o pi permutes the next level), and
    f o g depends on f only on the image of g, so a profile with b
    nonzero fibers needs only the maps on those b points, each standing
    for cod^(dom - b) maps f.  The profile of f o g depends on such a
    map only through the partition of the b points into its nonempty
    fibers: relabelling the codomain permutes the fibers.  So each set
    partition with k <= cod blocks (``_set_partitions``) stands for the
    perm(cod, k) maps that send its blocks to distinct points, and
    carries weight tuples * cod^(dom - b) * perm(cod, k): Bell(b)
    partitions at most in place of cod^b maps.  At most one entry per
    partition of n_1.
    """
    profiles: dict[tuple[int, ...], int] = {(1,) * sizes[0]: 1}
    for dom, cod in zip(sizes, sizes[1:]):
        reached: dict[tuple[int, ...], int] = {}
        get = reached.get
        for profile, tuples in profiles.items():
            blocks = profile[profile.count(0):]
            # weights[k]: tuples * cod^(dom - b) * perm(cod, k)
            weights = [tuples * cod ** (dom - len(blocks))]
            for k in range(min(cod, len(blocks))):
                weights.append(weights[-1] * (cod - k))
            for labels in _set_partitions(len(blocks), cod):
                counts = [0] * cod
                for y, c in zip(labels, blocks):
                    counts[y] += c
                counts.sort()
                key = tuple(counts)
                reached[key] = get(key, 0) + weights[max(labels) + 1]
        profiles = reached
    return tuple(profiles.items())


def brute_expected_degree_chain(
    spec: ChainSpec, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Fraction:
    """Exact average of deg(f_t o ... o f_1) over all function tuples,
    read from ``_fiber_profiles``.  The budget counts the tuples a
    memo-free enumeration would visit, ``spec.tuple_count()``.
    """
    sizes = spec.sizes
    budget.check_powers(
        [(sizes[s + 1], sizes[s]) for s in range(spec.t)],
        f"chain enumeration for {sizes}",
    )
    total = sum(
        tuples * _square_sum(fibers)
        for fibers, tuples in _fiber_profiles(sizes)
    )
    return Fraction(total, sizes[0] * spec.tuple_count())


def _profile(k: Sequence[int]) -> tuple[int, ...]:
    """Nonzero parts of a weak composition, as a partition."""
    return tuple(sorted((p for p in k if p), reverse=True))


def _partitions(
    total: int, max_len: int, max_part: int
) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into at most ``max_len`` parts of size at
    most ``max_part``, largest part first.

    A first part below ceil(total / max_len) leaves too much for the
    other parts, so it is never tried: when max_part * max_len >= total
    every branch yields, and a partition costs O(max_len).
    """
    if total == 0:
        yield ()
        return
    smallest = -(-total // max_len)
    for first in range(min(total, max_part), smallest - 1, -1):
        for rest in _partitions(total - first, max_len - 1, first):
            yield (first,) + rest


def _nested_sum_work(sizes: Sequence[int], limit: int) -> Optional[int]:
    """Compositions the memoized nested sum visits at most, or None once
    the count exceeds ``limit``.

    The top level visits the weak compositions of n_t into n_{t+1} parts.
    Level s < t visits, per memo key, the compositions of n_s supported
    on the key's parts.  Its keys are partitions of n_{s+1} with at most
    min(n_{s+1}, ..., n_{t+1}) parts, since a profile never has more
    nonzero parts than the one above it.
    """
    t = len(sizes) - 1
    levels = chain(
        [(sizes[t - 1], sizes[t])],
        (
            (sizes[s - 1], len(key))
            for s in range(1, t)
            for key in _partitions(sizes[s], min(sizes[s:]), sizes[s])
        ),
    )
    work = 0
    for total, parts in levels:
        count = _count_weak_compositions(total, parts, limit)
        if count is None or work + count > limit:
            return None
        work += count
    return work


def multinomial_expected_degree_chain(
    spec: ChainSpec, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Fraction:
    """Chain expectation via nested sums over fiber-size profiles.

    Level s sums over weak compositions k_s of n_s, the fiber sizes of
    f_s o ... o f_1 over X_{s+1}; the weight linking level s to level s+1
    is multinomial(n_s; k_s) * prod_i k_{s+1,i}^{k_{s,i}} (the count of
    functions realizing those nested fiber sizes), and the innermost
    level carries sum_i k_{1,i}^2.  The top level sums over all weak
    compositions of n_t into n_{t+1} parts.

    Each lower level is summed once per key, the sorted nonzero parts of
    k_{s+1}: the level sum is symmetric in k_{s+1}, and a zero part
    forces k_{s,i} = 0 (0^k = 0 for k >= 1), so only compositions
    supported on the nonzero parts are visited.  The levels are summed
    bottom-up.  The keys of level s are the partitions of n_{s+1} with
    at most min(n_{s+1}, ..., n_{t+1}) parts, and the level above reaches
    every one of them; ``_nested_sum_work`` counts the same compositions
    up front for the budget.
    """
    sizes = spec.sizes
    t = spec.t
    budget.check(
        _nested_sum_work(sizes, budget.max_states),
        f"nested-sum oracle for {sizes}",
    )
    term: Callable[[tuple[int, ...]], int] = _square_sum
    for s in range(1, t):
        sums = {
            key: _weighted_composition_sum(sizes[s - 1], key, term)
            for key in _partitions(sizes[s], min(sizes[s:]), sizes[s])
        }
        term = lambda k, sums=sums: sums[_profile(k)]
    total = _weighted_composition_sum(sizes[t - 1], (1,) * sizes[t], term)
    return Fraction(total, sizes[0] * spec.tuple_count())


def brute_expected_degree_q(
    n: int, m: int, q: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Fraction:
    """Exact average of deg(f, q) over all m^n functions.

    The functions are enumerated once per (n, m) into the fiber profiles
    of the chain (n, m) (``_fiber_profiles``), which every q then reads;
    the budget counts the m^n functions on every call, before the cache.
    """
    if n < 1 or m < 1:
        raise InvalidSizeError(f"set sizes must be >= 1, got ({n}, {m})")
    if q < 1:
        raise InvalidExponentError(f"exponent must be >= 1, got {q}")
    budget.check_powers([(m, n)], f"enumeration of all functions ({n}, {m})")
    total = sum(
        count * sum(c**q for c in fibers)
        for fibers, count in _fiber_profiles((n, m))
    )
    return Fraction(total, n * m**n)


def multinomial_power_sum(
    n: int, m: int, q: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> int:
    """sum over weak compositions k of n into m parts of
    multinomial(n; k) * sum_i k_i^q, with 0^0 = 1 when q = 0.

    Direct summation; the closed-form counterpart is
    ``noninv.closed_form.closed_multinomial_power_sum``.
    """
    if n < 1 or m < 1:
        raise InvalidSizeError(f"parameters must be >= 1, got ({n}, {m})")
    if q < 0:
        raise InvalidExponentError(f"exponent must be >= 0, got {q}")
    budget.check(
        _count_weak_compositions(n, m, budget._ceiling),
        f"weak compositions of {n} into {m} parts",
    )
    return _weighted_composition_sum(
        n, (1,) * m, lambda k: sum(ki**q for ki in k)
    )


def check_square_moment_identity(
    m: int, k_parts: Sequence[int]
) -> VerificationReport:
    """Check the second-moment expansion of a weighted multinomial sum.

    Left side: sum over weak compositions (l_1..l_n) of m of
    multinomial(m; l) * prod_i k_i^(l_i) * sum_i l_i^2.  Right side:
    m(m-1) r^(m-2) sum_i k_i^2 + m r^m with r = sum_i k_i.  The scalar
    m(m-1) is evaluated first and short-circuits the first term, so
    r^(m-2) is never formed with a negative exponent when m = 1.

    The left side's compositions are counted against ``DEFAULT_BUDGET``
    before any is summed.
    """
    if m < 1:
        raise InvalidSizeError(f"m must be >= 1, got {m}")
    parts = tuple(k_parts)
    if len(parts) < 1:
        raise InvalidSizeError("k_parts must have length >= 1")
    if any(k < 0 for k in parts):
        raise InvalidSizeError(f"k_parts must be >= 0, got {parts}")
    n = len(parts)
    r = sum(parts)
    DEFAULT_BUDGET.check(
        _count_weak_compositions(m, n, DEFAULT_BUDGET._ceiling),
        f"weak compositions of {m} into {n} parts",
    )
    lhs = _weighted_composition_sum(m, parts, _square_sum)

    lead = m * (m - 1)
    first = lead * r ** (m - 2) * _square_sum(parts) if lead else 0
    rhs = first + m * r**m

    return VerificationReport.compare(
        {"m": m, "n": n, "r": r}, lhs, rhs
    )
