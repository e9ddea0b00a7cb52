"""Composition bounds, checked exactly over exhaustive small sweeps."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from noninv import (
    SizeMismatchError,
    check_composition_bound,
    check_max_fiber_degree_bound,
    compare_bounds,
    constant_function,
    enumerate_functions,
    identity_function,
    make_function,
    sweep_endofunction_pairs,
)
from noninv import bounds
from noninv.bounds import _bounds_hold
from noninv.functions import fiber_sizes


class TestCompositionBound:
    def test_constants(self):
        f = constant_function(3, 3, 0)
        g = constant_function(3, 3, 1)
        report = check_composition_bound(f, g)
        assert report.deg_composition == 3
        assert report.new_bound == 9
        assert report.new_holds

    def test_bijective_inner(self):
        f = make_function(3, 3, [0, 0, 1])
        g = identity_function(3)
        report = check_composition_bound(f, g)
        assert report.deg_composition == f.degree()
        assert report.new_bound == f.max_fiber()
        assert report.new_holds

    def test_spec_pair(self):
        f = make_function(3, 3, [0, 0, 1])
        g = make_function(3, 3, [0, 1, 1])
        report = check_composition_bound(f, g)
        # f(g(.)) = (0, 0, 0), a constant
        assert report.deg_composition == 3
        assert report.new_bound == 2 * Fraction(5, 3)
        assert report.new_holds

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            check_composition_bound(
                make_function(2, 2, [0, 1]), make_function(3, 3, [0, 1, 2])
            )

    def test_exhaustive_all_triples_to_three(self):
        # every f: Y -> Z, g: X -> Y with |X|, |Y|, |Z| <= 3
        for nx, ny, nz in product((1, 2, 3), repeat=3):
            fs = list(enumerate_functions(ny, nz))
            gs = list(enumerate_functions(nx, ny))
            for f in fs:
                for g in gs:
                    assert check_composition_bound(f, g).new_holds


class TestMaxFiberDegreeBound:
    def test_bijection(self):
        assert check_max_fiber_degree_bound(identity_function(5))

    def test_constant_tight(self):
        # n^2 <= n * n with equality
        f = constant_function(4, 4, 0)
        assert check_max_fiber_degree_bound(f)
        assert f.max_fiber() ** 2 == f.domain_size * f.degree()

    def test_spec_example(self):
        f = make_function(4, 2, [0, 0, 0, 1])
        # 9 <= 4 * (10/4) = 10
        assert f.max_fiber() ** 2 == 9
        assert f.domain_size * f.degree() == 10
        assert check_max_fiber_degree_bound(f)

    def test_exhaustive_sizes_to_four(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for f in enumerate_functions(n, m):
                    assert check_max_fiber_degree_bound(f)


class TestCompareBounds:
    def test_identities(self):
        report = compare_bounds(identity_function(3), identity_function(3))
        assert report.deg_composition == 1
        assert report.new_bound == 1
        assert report.old_bound_squared_scaled == (Fraction(1), Fraction(3))
        assert report.new_holds and report.chain_holds

    def test_constants_tight(self):
        n = 4
        f = constant_function(n, n, 0)
        report = compare_bounds(f, f)
        # deg = n <= n * n, and (n*n)^2 == n * n * n^2 exactly
        assert report.deg_composition == n
        assert report.new_bound == n * n
        new_sq, old_sq = report.old_bound_squared_scaled
        assert new_sq == old_sq == n**4
        assert report.new_holds and report.chain_holds

    def test_requires_endofunctions(self):
        with pytest.raises(SizeMismatchError):
            compare_bounds(
                make_function(2, 3, [0, 1]), make_function(2, 2, [0, 1])
            )

    def test_exhaustive_endofunctions(self):
        for n in (1, 2, 3):
            fns = list(enumerate_functions(n, n))
            for f in fns:
                for g in fns:
                    report = compare_bounds(f, g)
                    assert report.new_holds
                    assert report.chain_holds
                    new_sq, old_sq = report.old_bound_squared_scaled
                    assert new_sq <= old_sq

    @given(st.integers(1, 4), st.data())
    def test_random_endofunction_pairs(self, n, data):
        imgs = st.lists(
            st.integers(0, n - 1), min_size=n, max_size=n
        )
        f = make_function(n, n, data.draw(imgs))
        g = make_function(n, n, data.draw(imgs))
        report = compare_bounds(f, g)
        assert report.new_holds and report.chain_holds


def square_sum(f):
    """sum_y |f^-1(y)|^2, from the dense fiber kernel."""
    return sum(c * c for c in fiber_sizes(f.images, f.codomain_size))


def reference_sweep(functions):
    """(pairs, new_violations, chain_violations) over every ordered pair
    of list entries, composing each pair in full; reads
    ``bounds._bounds_hold`` at call time, so a patched predicate applies."""
    pairs = new_violations = chain_violations = 0
    for f in functions:
        for g in functions:
            counts = [0] * f.codomain_size
            for y in g.images:
                counts[f.images[y]] += 1
            new_holds, chain_holds = bounds._bounds_hold(
                sum(c * c for c in counts),
                square_sum(f),
                f.max_fiber(),
                square_sum(g),
            )
            pairs += 1
            new_violations += not new_holds
            chain_violations += not chain_holds
    return pairs, new_violations, chain_violations


def failing_bounds_hold(s_comp, s_outer, m_outer, s_inner):
    """A stand-in predicate that fails on some statistics of each
    kind, so a sweep's violation counts are nonzero."""
    return (s_comp + s_inner) % 3 != 0, (s_outer + m_outer + s_comp) % 2 == 0


class TestSweepPredicate:
    def test_matches_compare_bounds_on_every_pair(self):
        for n in (1, 2, 3):
            fns = list(enumerate_functions(n, n))
            for f in fns:
                for g in fns:
                    report = compare_bounds(f, g)
                    comp = [0] * n
                    for y in g.images:
                        comp[f.images[y]] += 1
                    got = _bounds_hold(
                        sum(c * c for c in comp),
                        square_sum(f),
                        f.max_fiber(),
                        square_sum(g),
                    )
                    assert got == (report.new_holds, report.chain_holds)

    def test_matches_rational_inequalities(self):
        # any statistics, including ones no function pair has, so both
        # outcomes of each inequality are reached
        for n, size_y in [(1, 1), (2, 3), (3, 2)]:
            for s_comp, s_outer, m_outer, s_inner in product(
                range(1, 7), range(1, 7), range(1, 4), range(1, 7)
            ):
                deg_g = Fraction(s_inner, n)
                new_bound = m_outer * deg_g
                old_sq = size_y * Fraction(s_outer, size_y) * deg_g**2
                new_holds = Fraction(s_comp, n) <= new_bound
                want = (new_holds, new_holds and new_bound**2 <= old_sq)
                assert _bounds_hold(s_comp, s_outer, m_outer, s_inner) == want

    def test_sweep_counts(self):
        for n in (1, 2, 3):
            fns = list(enumerate_functions(n, n))
            assert sweep_endofunction_pairs(fns) == (n ** (2 * n), 0, 0)

    def test_sweep_matches_pairwise_reference(self):
        for n in (1, 2, 3, 4):
            fns = list(enumerate_functions(n, n))
            assert sweep_endofunction_pairs(fns) == reference_sweep(fns)

    @given(st.integers(1, 5), st.data())
    def test_sweep_matches_reference_on_lists(self, n, data):
        images = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        fns = [
            make_function(n, n, f)
            for f in data.draw(st.lists(images, max_size=12))
        ]
        assert sweep_endofunction_pairs(fns) == reference_sweep(fns)
        # with a predicate that fails, repeats must count with multiplicity
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_bounds_hold", failing_bounds_hold)
            assert sweep_endofunction_pairs(fns) == reference_sweep(fns)

    def test_sweep_empty(self):
        assert sweep_endofunction_pairs([]) == (0, 0, 0)

    def test_sweep_counts_violations_with_multiplicity(self, monkeypatch):
        monkeypatch.setattr(bounds, "_bounds_hold", failing_bounds_hold)
        for n in (1, 2, 3):
            fns = list(enumerate_functions(n, n))
            # repeats: the first functions appear two and three times
            fns += fns[:5] + fns[:2]
            got = sweep_endofunction_pairs(fns)
            assert got == reference_sweep(fns)
            if n > 1:
                assert 0 < got[1] < got[0] and 0 < got[2] < got[0]

    def test_sweep_requires_endofunctions(self):
        with pytest.raises(SizeMismatchError):
            sweep_endofunction_pairs(
                [identity_function(2), make_function(2, 3, [0, 2])]
            )
