"""Independent computation paths for every closed form in the package.

Two kinds of oracle live here: enumeration over all function tuples,
memoized on fiber profiles (exponential, budgeted by the full count),
and direct evaluation of nested multinomial sums over weak compositions
(polynomial per level, also budget-guarded).  Where a sum's summand is
symmetric in the composition (every base 1), it is summed over the
partitions of the total instead, each weighted by the compositions that
sort to it; the other sums walk every composition, with the multinomial
weight built as a running product along the walk.  Budgets still count
the weak compositions of the sum as written.
Each closed form in ``noninv.closed_form`` must agree exactly with at
least one of these paths; the chain expectation has all three.

0^0 = 1 throughout: the composition sums count functions with prescribed
(possibly empty) fibers, which forces the convention.  Python's integer
``0 ** 0`` already evaluates to 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, product
from math import comb, factorial, perm
from typing import (
    Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union
)

from ._frozen import Frozen, FrozenMapping
from .closed_form import ChainSpec
from .combinatorics import multinomial
from .errors import BudgetExceededError, InvalidExponentError, InvalidSizeError
from .functions import FiniteFunction, _block_sums, _square_sum

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


class EnumerationBudget(Frozen):
    """Cap on the number of objects an oracle may enumerate."""

    __slots__ = _fields = ("max_states",)

    def __init__(self, max_states: int = 10**6):
        if max_states < 1:
            raise InvalidSizeError(f"budget must be >= 1, got {max_states}")
        object.__setattr__(self, "max_states", max_states)

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


class VerificationReport(Frozen):
    """Paired (oracle value, closed-form value) for one parameter point.

    ``parameters`` is kept as a read-only copy (``FrozenMapping``), so
    a report is hashable."""

    __slots__ = _fields = (
        "parameters", "oracle_value", "closed_value", "match"
    )

    def __init__(
        self,
        parameters: Mapping[str, int],
        oracle_value: Fraction,
        closed_value: Fraction,
        match: bool,
    ):
        object.__setattr__(self, "parameters", FrozenMapping(parameters))
        object.__setattr__(self, "oracle_value", oracle_value)
        object.__setattr__(self, "closed_value", closed_value)
        object.__setattr__(self, "match", match)

    @staticmethod
    def compare(
        parameters: Mapping[str, int],
        oracle_value: ExactValue,
        closed_value: ExactValue,
    ) -> "VerificationReport":
        oracle = Fraction(oracle_value)
        closed = Fraction(closed_value)
        return VerificationReport(
            parameters=parameters,
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
    term: Callable[[Sequence[int]], int],
) -> int:
    """sum over weak compositions k of ``total`` into len(bases) parts of
    multinomial(total; k) * prod_i bases_i^k_i * term(k), with 0^0 = 1.

    multinomial(total; k) prod_i b_i^k_i counts the functions from a
    ``total``-set into blocks of sizes b_i with k_i points in block i.

    An iterative depth-first walk, so any number of parts works.  The
    weight is a running product over the prefix of k: with rems[i] =
    total - sum(k[:i]), weights[i] = prod_{j<i} C(rems[j], k_j) b_j^k_j,
    and the last part takes what is left.  A part on a zero base stays
    0, since any other value weighs 0.  ``term`` gets k as a list that
    the walk reuses, so it must not keep it.
    """
    parts = len(bases)
    last = parts - 1
    top = bases[last]
    k = [0] * parts
    rems = [total] * parts
    weights = [1] * parts
    acc = 0
    while True:
        rem = rems[last]
        k[last] = rem
        weight = weights[last] * top**rem
        if weight:
            acc += weight * term(k)
        # the deepest part before the last that can take one more unit
        j = last - 1
        while j >= 0 and (k[j] == rems[j] or not bases[j]):
            j -= 1
        if j < 0:
            return acc
        kj = k[j] + 1
        k[j] = kj
        rem = rems[j] - kj
        weight = weights[j] * comb(rems[j], kj) * bases[j] ** kj
        for i in range(j + 1, parts):
            k[i] = 0
            rems[i] = rem
            weights[i] = weight


def _symmetric_composition_sum(
    total: int, parts: int, term: Callable[[tuple[int, ...]], int]
) -> int:
    """sum over weak compositions k of ``total`` into ``parts`` parts of
    multinomial(total; k) * term(k), for a ``term`` that depends on k only
    through its sorted nonzero parts.

    ``term`` is called once per partition lambda of ``total`` into at
    most ``parts`` parts (largest part first, ``_partitions``), which
    stands for the perm(parts, len(lambda)) / prod_j (mult_j)!
    compositions that sort to it, mult_j running over the multiplicities
    of lambda's distinct parts.  A term that counts zero parts too (such
    as sum_i k_i^0) must add them itself: there are parts - len(lambda).
    """
    acc = 0
    for lam in _partitions(total, min(total, parts), total):
        count = perm(parts, len(lam))
        for _, run in groupby(lam):
            count //= factorial(sum(1 for _ in run))
        acc += count * multinomial(total, lam) * term(lam)
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


def _budgeted_profiles(
    sizes: tuple[int, ...], budget: EnumerationBudget, what: str
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``_fiber_profiles(sizes)``, checked against ``budget`` first on
    every call, cached or not: the tuples a memo-free enumeration would
    visit, prod n_{s+1}^{n_s}, then the n_1 points of the start profile,
    which the walk holds (with lists of the same length) before it
    visits anything.  Only the second check refuses (10^8, 1), one
    tuple of 10^8 points.  A later profile holds only its nonzero fiber
    sizes, at most min(n_1, ..., n_{s+1}) of them, so the first check
    bounds it too."""
    budget.check_powers(
        [(cod, dom) for dom, cod in zip(sizes, sizes[1:])], what
    )
    budget.check(sizes[0], f"start profile of {what}")
    return _fiber_profiles(sizes)


@lru_cache(maxsize=4)
def _fiber_profiles(
    sizes: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(sorted nonzero fiber sizes, number of tuples) of f_t o ... o f_1
    over all function tuples on the chain ``sizes`` = (n_1, ..., n_{t+1}).

    Steps level by level from the identity of X_1, counting the tuples
    that reach each sorted fiber profile of g: X_1 -> X_{s+1}.  Exact:
    for bijections pi of X_{s+1} and sigma of X_1, g and pi o g o sigma
    reach the same profiles (f -> f o pi permutes the next level), and
    f o g depends on f only on the image of g, so a profile with b
    fibers needs only the maps on those b points, each standing for
    cod^(dom - b) maps f.  The profile of f o g depends on such a
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
            # weights[k]: tuples * cod^(dom - b) * perm(cod, k)
            weights = [tuples * cod ** (dom - len(profile))]
            for k in range(min(cod, len(profile))):
                weights.append(weights[-1] * (cod - k))
            for labels in _set_partitions(len(profile), cod):
                blocks = max(labels) + 1
                key = tuple(_block_sums(labels, profile, blocks))
                reached[key] = get(key, 0) + weights[blocks]
        profiles = reached
    return tuple(profiles.items())


def brute_expected_degree_chain(
    spec: ChainSpec, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Fraction:
    """Exact average of deg(f_t o ... o f_1) over all function tuples,
    read from ``_fiber_profiles`` under the budget of
    ``_budgeted_profiles``.
    """
    sizes = spec.sizes
    total = sum(
        tuples * _square_sum(fibers)
        for fibers, tuples in _budgeted_profiles(
            sizes, budget, f"chain enumeration for {sizes}"
        )
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

    The top level counts the weak compositions of n_t into n_{t+1} parts:
    it is summed over their partitions, but the budget counts the sum as
    written.  Level s < t visits, per memo key, the compositions of n_s
    supported on the key's parts.  Its keys are partitions of n_{s+1}
    with at most min(n_{s+1}, ..., n_{t+1}) parts, since a profile never
    has more nonzero parts than the one above it.
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
    supported on the nonzero parts are visited, each weighted by a
    running product along the walk (``_weighted_composition_sum``).  The
    levels are summed bottom-up.  The keys of level s are the partitions
    of n_{s+1} with at most min(n_{s+1}, ..., n_{t+1}) parts, and the
    level above reaches every one of them.  The top level's bases are
    all 1, so its summand depends on k_t only through its key, and it
    is summed over those partitions of n_t instead, each weighted by the
    compositions that sort to it (``_symmetric_composition_sum``): one
    partition for (1, 10^6) in place of 10^6 compositions.
    ``_nested_sum_work`` counts the compositions of the sum as written,
    top level included, up front for the budget.
    """
    sizes = spec.sizes
    t = spec.t
    budget.check(
        _nested_sum_work(sizes, budget.max_states),
        f"nested-sum oracle for {sizes}",
    )
    term: Callable[[Sequence[int]], int] = _square_sum
    for s in range(1, t):
        sums = {
            key: _weighted_composition_sum(sizes[s - 1], key, term)
            for key in _partitions(sizes[s], min(sizes[s:]), sizes[s])
        }
        term = lambda k, sums=sums: sums[_profile(k)]
    total = _symmetric_composition_sum(sizes[t - 1], sizes[t], term)
    return Fraction(total, sizes[0] * spec.tuple_count())


def brute_expected_degree_q(
    n: int, m: int, q: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Fraction:
    """Exact average of deg(f, q) over all m^n functions.

    The functions are enumerated once per (n, m) into the fiber profiles
    of the chain (n, m) (``_fiber_profiles``), which every q then reads;
    ``_budgeted_profiles`` counts the m^n functions, then the n points,
    on every call, before the cache.
    """
    if n < 1 or m < 1:
        raise InvalidSizeError(f"set sizes must be >= 1, got ({n}, {m})")
    if q < 1:
        raise InvalidExponentError(f"exponent must be >= 1, got {q}")
    total = sum(
        count * sum(c**q for c in fibers)
        for fibers, count in _budgeted_profiles(
            (n, m), budget, f"enumeration of all functions ({n}, {m})"
        )
    )
    return Fraction(total, n * m**n)


def _check_power_sum_budget(
    n: int, m: int, budget: EnumerationBudget
) -> None:
    """Refuse ``multinomial_power_sum(n, m, q, budget)``, at any q, when
    the weak compositions of n into m parts exceed the budget."""
    budget.check(
        _count_weak_compositions(n, m, budget._ceiling),
        f"weak compositions of {n} into {m} parts",
    )


def multinomial_power_sum(
    n: int, m: int, q: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> int:
    """sum over weak compositions k of n into m parts of
    multinomial(n; k) * sum_i k_i^q, with 0^0 = 1 when q = 0.

    Direct summation, over the partitions lambda of n into at most m
    parts, since the summand is symmetric in k
    (``_symmetric_composition_sum``); the m - len(lambda) zero parts add
    0^q each.  The budget counts the weak compositions of the sum as
    written.  The closed-form counterpart is
    ``noninv.closed_form.closed_multinomial_power_sum``.
    """
    if n < 1 or m < 1:
        raise InvalidSizeError(f"parameters must be >= 1, got ({n}, {m})")
    if q < 0:
        raise InvalidExponentError(f"exponent must be >= 0, got {q}")
    _check_power_sum_budget(n, m, budget)
    zero = 0**q
    return _symmetric_composition_sum(
        n, m, lambda lam: sum(p**q for p in lam) + (m - len(lam)) * zero
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

    The numbers both sides form (r^m, the walk's weights and binomials)
    have at most about m * bit_length(r) bits, which ``DEFAULT_BUDGET``
    caps, so a large m is refused even when few compositions are
    walked.  Then the left side's walk is weighed against the budget
    before any composition is summed: the compositions it visits (those
    with nothing on a zero part before the last) times the parts, since
    each costs O(parts) in the walk and in ``_square_sum``, times the
    64-bit words of the largest number formed, since each composition
    multiplies numbers of up to that size.
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
    # every weight and binomial of the walk is at most
    # (r + 1)^m <= 2^bits; r^m itself is formed on the right
    bits = m * r.bit_length()
    if bits > DEFAULT_BUDGET.max_states:
        raise BudgetExceededError(
            f"the powers up to r^m with m = {m} and r = sum(parts) need "
            f"{bits} bits, budget is {DEFAULT_BUDGET.max_states}"
        )
    # at least one word, so that zero parts (r = 0) still weigh
    words = max(1, -(-bits // 64))
    visited = _count_weak_compositions(
        m, 1 + sum(map(bool, parts[:-1])), DEFAULT_BUDGET._ceiling
    )
    DEFAULT_BUDGET.check(
        None if visited is None else visited * n * words,
        f"weak compositions of {m} into {n} parts, weighed by their {n} "
        f"parts and the {words} words of their numbers,",
    )
    lhs = _weighted_composition_sum(m, parts, _square_sum)

    lead = m * (m - 1)
    first = lead * r ** (m - 2) * _square_sum(parts) if lead else 0
    rhs = first + m * r**m

    return VerificationReport.compare(
        {"m": m, "n": n, "r": r}, lhs, rhs
    )
