"""Exact checks of the composition bounds.

Every comparison that would involve a square root is done on squares in
exact rationals instead: max_fiber(f) <= sqrt(n) sqrt(deg(f)) becomes
max_fiber(f)^2 <= n * deg(f).  No floating point anywhere.

Both bound inequalities reduce to integer comparisons of fiber
statistics: S = sum of squared fiber sizes and M = the largest fiber
size (see ``_bounds_hold``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

from ._frozen import Frozen
from .errors import SizeMismatchError
from .functions import (
    FiniteFunction, _block_sums, _square_sum, compose, fiber_sizes
)

__all__ = [
    "BoundReport",
    "check_composition_bound",
    "check_max_fiber_degree_bound",
    "compare_bounds",
    "sweep_endofunction_pairs",
]


class BoundReport(Frozen):
    """Both sides of the composition bounds for one pair (f, g).

    ``new_bound`` is max_fiber(f) * deg(g).  The squared pair compares
    new_bound^2 against n * deg(f) * deg(g)^2 with n the domain size of
    f, which is how the older sqrt(n) sqrt(deg(f)) deg(g) bound is
    reached without evaluating a square root.  ``chain_holds`` records
    both links: composition <= new bound and new bound (squared) <= old
    bound (squared).
    """

    __slots__ = _fields = (
        "deg_composition",
        "new_bound",
        "old_bound_squared_scaled",
        "new_holds",
        "chain_holds",
    )

    def __init__(
        self,
        deg_composition: Fraction,
        new_bound: Fraction,
        old_bound_squared_scaled: tuple[Fraction, Fraction],
        new_holds: bool,
        chain_holds: bool,
    ):
        object.__setattr__(self, "deg_composition", deg_composition)
        object.__setattr__(self, "new_bound", new_bound)
        object.__setattr__(
            self, "old_bound_squared_scaled", old_bound_squared_scaled
        )
        object.__setattr__(self, "new_holds", new_holds)
        object.__setattr__(self, "chain_holds", chain_holds)


def _bounds_hold(
    s_comp: int, s_outer: int, m_outer: int, s_inner: int
) -> tuple[bool, bool]:
    """(new_holds, chain_holds) for f: Y -> Z after g: X -> Y.

    From S_fg, S_f, M_f and S_g, with n = |X| and |Y|:
    deg(f o g) <= M_f deg(g) is S_fg / n <= M_f S_g / n, and
    (M_f deg(g))^2 <= |Y| deg(f) deg(g)^2 is
    M_f^2 S_g^2 / n^2 <= S_f S_g^2 / n^2.  Cancelling the positive
    factors n and S_g leaves S_fg <= M_f S_g and M_f^2 <= S_f.
    """
    new_holds = s_comp <= m_outer * s_inner
    return new_holds, new_holds and m_outer * m_outer <= s_outer


def _build_report(f: FiniteFunction, g: FiniteFunction) -> BoundReport:
    s_comp = compose(f, g)._power_sum(2)
    s_outer, m_outer = f._power_sum(2), f.max_fiber()
    s_inner = g._power_sum(2)
    n = g.domain_size
    deg_g = Fraction(s_inner, n)
    new_bound = m_outer * deg_g
    new_holds, chain_holds = _bounds_hold(s_comp, s_outer, m_outer, s_inner)
    return BoundReport(
        deg_composition=Fraction(s_comp, n),
        new_bound=new_bound,
        # |Y| deg(f) deg(g)^2 with |Y| deg(f) = S_f
        old_bound_squared_scaled=(new_bound * new_bound, s_outer * deg_g**2),
        new_holds=new_holds,
        chain_holds=chain_holds,
    )


def _pair_report(
    f: FiniteFunction, g: FiniteFunction, same_set: bool
) -> BoundReport:
    """Check the sizes of f after g, then build their report.

    Without ``same_set`` g's codomain must be f's domain; with it, f and
    g must be endofunctions of one set.
    """
    if same_set:
        if not (
            f.domain_size == f.codomain_size == g.domain_size == g.codomain_size
        ):
            raise SizeMismatchError(
                "bound comparison needs two endofunctions on the same set, "
                f"got ({g.domain_size}->{g.codomain_size}) and "
                f"({f.domain_size}->{f.codomain_size})"
            )
    elif g.codomain_size != f.domain_size:
        raise SizeMismatchError(
            f"inner codomain {g.codomain_size} != outer domain "
            f"{f.domain_size}"
        )
    return _build_report(f, g)


def check_composition_bound(
    f: FiniteFunction, g: FiniteFunction
) -> BoundReport:
    """Compare deg(f o g) against max_fiber(f) * deg(g), exactly.

    Valid for any f: Y -> Z, g: X -> Y; ``new_holds`` is true for every
    such pair (the test suite sweeps sizes exhaustively).
    """
    return _pair_report(f, g, same_set=False)


def check_max_fiber_degree_bound(f: FiniteFunction) -> bool:
    """Whether max_fiber(f)^2 <= |X| * deg(f); true for every f."""
    mf = f.max_fiber()
    # |X| deg(f) is the sum of the squared fiber sizes
    return mf * mf <= f._power_sum(2)


def compare_bounds(f: FiniteFunction, g: FiniteFunction) -> BoundReport:
    """Endofunction comparison of the max-fiber bound with the older
    sqrt(n)-scaled bound.

    Requires f and g on the same n-set; establishes (squared, exact)
    deg(f o g) <= max_fiber(f) deg(g) and
    (max_fiber(f) deg(g))^2 <= n deg(f) deg(g)^2.
    """
    return _pair_report(f, g, same_set=True)


def _kernel(images: Sequence[int]) -> tuple[int, ...]:
    """The partition of the domain into nonempty fibers, as the images
    relabelled in order of first appearance."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(y, len(labels)) for y in images)


def sweep_endofunction_pairs(
    functions: Sequence[FiniteFunction],
) -> tuple[int, int, int]:
    """Check both bounds on every pair (f, g) of the given endofunctions
    of one n-set, as ``compare_bounds`` would.

    Returns (pairs, new_violations, chain_violations), counting each
    pair of list entries once (repeats included).  Exact by classes:
    the fibers of f o g are the unions of g's fibers over the blocks B
    of ker f, the partition of the n-set into f's nonempty fibers, so

        S_fg = sum over B in ker f of (sum over y in B of |g^-1(y)|)^2,

    while S_f and M_f are the squares and the largest of the block
    sizes of ker f, and S_g is read from g's fiber vector.  Every
    statistic ``_bounds_hold`` needs is therefore a function of
    (ker f, fiber vector of g).  The functions are counted by kernel
    (images relabelled by first appearance) and by fiber vector, each
    class pair is checked once, and its outcome counts f_count * g_count
    times: at n = 4 that is 15 * 35 checks for 65,536 pairs.
    """
    kernels: Counter[tuple[int, ...]] = Counter()
    fiber_vectors: Counter[tuple[int, ...]] = Counter()
    for f in functions:
        if not f.domain_size == f.codomain_size == functions[0].domain_size:
            raise SizeMismatchError(
                "the sweep needs endofunctions of one set, got "
                f"({f.domain_size}->{f.codomain_size})"
            )
        kernels[_kernel(f.images)] += 1
        fiber_vectors[f.fiber_sizes()] += 1
    inner = [
        (fibers, _square_sum(fibers), count)
        for fibers, count in fiber_vectors.items()
    ]
    pairs = new_violations = chain_violations = 0
    for kernel, f_count in kernels.items():
        blocks = fiber_sizes(kernel, max(kernel) + 1)
        s_outer, m_outer = _square_sum(blocks), max(blocks)
        for g_fibers, s_inner, g_count in inner:
            s_comp = _square_sum(_block_sums(kernel, g_fibers, len(blocks)))
            new_holds, chain_holds = _bounds_hold(
                s_comp, s_outer, m_outer, s_inner
            )
            weight = f_count * g_count
            pairs += weight
            if not new_holds:
                new_violations += weight
            if not chain_holds:
                chain_violations += weight
    return pairs, new_violations, chain_violations
