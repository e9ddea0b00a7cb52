"""Enumeration and multinomial-sum oracles: counts, order, agreement."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from noninv import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ChainSpec,
    EnumerationBudget,
    InvalidSizeError,
    VerificationReport,
    brute_expected_degree_chain,
    brute_expected_degree_q,
    check_square_moment_identity,
    closed_multinomial_power_sum,
    count_weak_compositions,
    enumerate_functions,
    expected_degree_chain,
    expected_degree_q,
    multinomial_expected_degree_chain,
    multinomial_power_sum,
    weak_compositions,
)
from noninv import oracle
from noninv.combinatorics import multinomial
from noninv.functions import _square_sum
from noninv.oracle import (
    _count_weak_compositions,
    _fiber_profiles,
    _nested_sum_work,
    _partitions,
    _profile,
    _set_partitions,
    _symmetric_composition_sum,
    _weighted_composition_sum,
)


class TestEnumerateFunctions:
    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 2), (2, 4)])
    def test_count(self, n, m):
        assert sum(1 for _ in enumerate_functions(n, m)) == m**n

    def test_lexicographic_start(self):
        first = next(enumerate_functions(2, 2))
        assert first.images == (0, 0)

    def test_full_order(self):
        images = [f.images for f in enumerate_functions(2, 3)]
        assert images == sorted(images)
        assert images[0] == (0, 0) and images[-1] == (2, 2)

    def test_distinct(self):
        for n, m in [(3, 3), (4, 2), (2, 5)]:
            seen = {f.images for f in enumerate_functions(n, m)}
            assert len(seen) == m**n


class TestWeakCompositions:
    def test_count(self):
        for total in range(7):
            for parts in range(1, 5):
                comps = list(weak_compositions(total, parts))
                assert len(comps) == count_weak_compositions(total, parts)
                assert len(set(comps)) == len(comps)
                assert all(sum(c) == total for c in comps)
                assert all(len(c) == parts for c in comps)

    def test_colex_order(self):
        comps = list(weak_compositions(2, 2))
        assert comps == [(2, 0), (1, 1), (0, 2)]
        comps = list(weak_compositions(3, 3))
        assert comps == sorted(comps, key=lambda c: c[::-1])

    def test_parts_guard(self):
        with pytest.raises(InvalidSizeError):
            list(weak_compositions(2, 0))

    def test_matches_recursive_reference(self):
        def reference(total, parts):
            if parts == 1:
                yield (total,)
                return
            for last in range(total + 1):
                for rest in reference(total - last, parts - 1):
                    yield rest + (last,)

        for total in range(7):
            for parts in range(1, 6):
                assert list(weak_compositions(total, parts)) == list(
                    reference(total, parts)
                )

    def test_more_parts_than_the_recursion_limit(self):
        comps = list(weak_compositions(1, 2000))
        assert len(comps) == 2000
        assert comps[0] == (1,) + (0,) * 1999
        assert comps[-1] == (0,) * 1999 + (1,)


class TestBruteChain:
    def test_frozen(self):
        assert brute_expected_degree_chain(ChainSpec((2, 2))) == Fraction(3, 2)
        assert brute_expected_degree_chain(ChainSpec((2, 2, 2))) == Fraction(7, 4)

    def test_singleton_domain(self):
        for k in range(1, 5):
            assert brute_expected_degree_chain(ChainSpec((1, k))) == 1

    def test_singleton_into_a_million(self, deadline):
        # one image point: one partition, however large the codomain
        assert brute_expected_degree_chain(ChainSpec((1, 10**6))) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_expected_degree_chain(
                ChainSpec((4, 4, 4)), EnumerationBudget(100)
            )

    def test_budget_boundary(self):
        # exactly at the budget is allowed
        spec = ChainSpec((2, 2))
        assert brute_expected_degree_chain(
            spec, EnumerationBudget(4)
        ) == Fraction(3, 2)
        with pytest.raises(BudgetExceededError):
            brute_expected_degree_chain(spec, EnumerationBudget(3))


def reference_fiber_profiles(sizes):
    """Histogram of the sorted fiber sizes of f_t o ... o f_1 over every
    function tuple on the chain, composing each tuple in full."""
    histogram = Counter()
    levels = [
        product(range(cod), repeat=dom) for dom, cod in zip(sizes, sizes[1:])
    ]
    for maps in product(*levels):
        g = range(sizes[0])
        for f in maps:
            g = [f[x] for x in g]
        fibers = [0] * sizes[-1]
        for y in g:
            fibers[y] += 1
        histogram[tuple(sorted(fibers))] += 1
    return histogram


class TestFiberProfiles:
    SIZES = [
        sizes
        for length in (2, 3, 4)
        for sizes in product((1, 2, 3), repeat=length)
    ] + [
        (4, 1, 4), (1, 4, 2, 4), (2, 4, 3), (4, 4, 4),
        # more points than codomain, fewer, and as many
        (6, 6), (7, 3), (3, 6), (2, 5, 3), (5, 2, 5), (3, 2, 6),
    ]

    @pytest.mark.parametrize("sizes", SIZES, ids=str)
    def test_matches_full_enumeration(self, sizes):
        profiles = _fiber_profiles(sizes)
        assert dict(profiles) == reference_fiber_profiles(sizes)
        assert sum(count for _, count in profiles) == ChainSpec(
            sizes
        ).tuple_count()

    def test_immutable(self):
        profiles = _fiber_profiles((2, 3))
        assert isinstance(profiles, tuple)
        assert all(isinstance(fibers, tuple) for fibers, _ in profiles)

    def test_long_level(self, deadline):
        # 1,200 image points into one: a single partition, no recursion
        assert _fiber_profiles((1200, 1)) == (((1200,), 1),)


def relabelled(labels):
    """The restricted growth string of the partition into the fibers
    of ``labels``: each label renamed in order of first appearance."""
    names = {}
    return tuple(names.setdefault(y, len(names)) for y in labels)


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestSetPartitions:
    @pytest.mark.parametrize("points", range(9))
    def test_bell_numbers(self, points):
        for max_blocks in {max(points, 1), points + 1, 2 * points + 3}:
            found = list(_set_partitions(points, max_blocks))
            assert len(found) == BELL[points]
            assert len(set(found)) == len(found)

    @pytest.mark.parametrize("points", range(1, 7))
    @pytest.mark.parametrize("max_blocks", range(1, 8))
    def test_matches_relabelled_maps(self, points, max_blocks):
        # every partition into at most max_blocks blocks is the kernel
        # of some map into max_blocks points, and conversely
        found = list(_set_partitions(points, max_blocks))
        assert found == sorted(set(found))
        assert set(found) == {
            relabelled(f)
            for f in product(range(max_blocks), repeat=points)
        }

    def test_lazy(self, deadline):
        # Bell(10^5) strings exist; the first is drawn without the rest
        first = next(_set_partitions(10**5, 10**5))
        assert first == (0,) * 10**5

    def test_many_points_one_block(self, deadline):
        assert list(_set_partitions(1200, 1)) == [(0,) * 1200]


class TestMultinomialChain:
    def test_frozen(self):
        assert multinomial_expected_degree_chain(
            ChainSpec((2, 2))
        ) == Fraction(3, 2)
        assert multinomial_expected_degree_chain(
            ChainSpec((2, 2, 2))
        ) == Fraction(7, 4)

    def test_all_singletons(self):
        assert multinomial_expected_degree_chain(ChainSpec((1, 1, 1))) == 1

    def test_scales_past_enumeration(self):
        # feasible where full enumeration would need 10^10 tuples
        spec = ChainSpec((10, 10))
        assert multinomial_expected_degree_chain(spec) == expected_degree_chain(
            spec
        )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            multinomial_expected_degree_chain(
                ChainSpec((30, 30, 30)), EnumerationBudget(1000)
            )


class TestThreePathAgreement:
    def test_small_sweep(self):
        # every chain with tuple count <= 1e5 over lengths 2-3, sizes <= 3
        for length in (2, 3):
            for sizes in product(range(1, 4), repeat=length):
                spec = ChainSpec(sizes)
                if spec.tuple_count() > 10**5:
                    continue
                closed = expected_degree_chain(spec)
                assert brute_expected_degree_chain(spec) == closed
                assert multinomial_expected_degree_chain(spec) == closed

    def test_mixed_sizes(self):
        for sizes in [(2, 3, 2), (3, 2, 3), (1, 4, 2), (4, 2, 3, 2)]:
            spec = ChainSpec(sizes)
            closed = expected_degree_chain(spec)
            assert brute_expected_degree_chain(spec) == closed
            assert multinomial_expected_degree_chain(spec) == closed


def reference_chain_expectation(sizes):
    """Plain enumeration of every function tuple, with no memo: the
    reference the memoized and pruned paths must match exactly."""
    levels = [
        list(product(range(sizes[s + 1]), repeat=sizes[s]))
        for s in range(len(sizes) - 1)
    ]
    total = 0
    tuples = 0
    for fs in product(*levels):
        g = range(sizes[0])
        for f in fs:
            g = [f[x] for x in g]
        total += sum(c * c for c in Counter(g).values())
        tuples += 1
    return Fraction(total, sizes[0] * tuples)


class TestDifferentialGrid:
    GRID = [
        sizes
        for length in (2, 3, 4)
        for sizes in product(range(1, 4), repeat=length)
    ] + [(4, 4, 4), (2, 4, 3), (4, 3, 2), (3, 4, 4), (4, 1, 4), (1, 4, 2, 4)]

    def test_all_paths_match_reference(self):
        for sizes in self.GRID:
            spec = ChainSpec(sizes)
            want = reference_chain_expectation(sizes)
            assert brute_expected_degree_chain(spec) == want, sizes
            assert multinomial_expected_degree_chain(spec) == want, sizes
            assert expected_degree_chain(spec) == want, sizes


class TestBudgetCounts:
    """Refusals come from counting, never from running the large case."""

    def test_huge_count_message_is_bounded(self):
        for call in (
            lambda: brute_expected_degree_chain(
                ChainSpec((100000, 100000, 2))
            ),
            lambda: brute_expected_degree_q(100000, 100000, 1),
            lambda: multinomial_power_sum(100000, 100000, 1),
            lambda: DEFAULT_BUDGET.check(10**5000, "a huge count"),
        ):
            with pytest.raises(BudgetExceededError) as info:
                call()
            assert "needs more than 1000000 enumerated objects" in str(
                info.value
            )
            assert len(str(info.value)) < 200

    def test_moderate_count_message_is_exact(self):
        with pytest.raises(BudgetExceededError) as info:
            brute_expected_degree_chain(ChainSpec((8, 8, 8)))
        assert "needs 281474976710656 enumerated objects" in str(info.value)

    def test_budget_past_the_exact_ceiling(self):
        budget = EnumerationBudget(10**120)
        budget.check_powers([(10, 60), (10, 60)], "x")
        with pytest.raises(BudgetExceededError):
            budget.check_powers([(10, 60), (10, 61)], "x")

    def test_nested_sum_counts_supported_compositions(self):
        # top level C(15, 7) = 6435 plus, per partition of 8, the
        # compositions of 8 supported on its parts
        assert _nested_sum_work((8, 8, 8), 10**6) == 21019
        assert _nested_sum_work((10, 10, 10), 10**6) == 316614
        for sizes in [(11, 11, 11), (12, 12, 12), (1000, 1000, 3)]:
            assert _nested_sum_work(sizes, 10**6) is None

    def test_nested_sum_budget_boundary(self):
        spec = ChainSpec((8, 8, 8))
        assert multinomial_expected_degree_chain(
            spec, EnumerationBudget(21019)
        ) == Fraction(169, 64)
        with pytest.raises(BudgetExceededError):
            multinomial_expected_degree_chain(spec, EnumerationBudget(21018))

    def test_nested_sum_refusals(self):
        for sizes in [(11, 11, 11), (12, 12, 12), (1000, 1000, 3)]:
            with pytest.raises(BudgetExceededError):
                multinomial_expected_degree_chain(ChainSpec(sizes))

    def test_key_length_bound_uses_every_later_size(self):
        # a 1-set in the middle leaves one nonzero fiber below it
        assert _nested_sum_work((8, 8, 1, 8), 10**6) == 8 + 1 + 1

    def test_weak_composition_count_stops_at_the_limit(self):
        for total in range(6):
            for parts in range(1, 6):
                want = count_weak_compositions(total, parts)
                assert _count_weak_compositions(total, parts, want) == want
                if want > 1:
                    assert (
                        _count_weak_compositions(total, parts, want - 1)
                        is None
                    )
        assert _count_weak_compositions(10**9, 10**9, 10**6) is None


class TestBruteDegreeQ:
    def test_frozen(self):
        assert brute_expected_degree_q(2, 2, 3) == Fraction(5, 2)
        assert brute_expected_degree_q(2, 3, 2) == Fraction(4, 3)

    def test_q1(self):
        for n in range(1, 4):
            for m in range(1, 4):
                assert brute_expected_degree_q(n, m, 1) == 1

    def test_singleton_into_a_million(self, deadline):
        assert brute_expected_degree_q(1, 10**6, 1) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_expected_degree_q(10, 10, 2, EnumerationBudget(10**4))

    def test_matches_closed_form(self):
        for n in range(1, 6):
            for m in range(1, 6):
                for q in range(1, 9):
                    assert brute_expected_degree_q(n, m, q) == (
                        expected_degree_q(n, m, q)
                    )

    def test_budget_checked_on_every_call(self):
        # the first call fills the histogram cache; a later call with a
        # smaller budget is still refused
        brute_expected_degree_q(3, 4, 2)
        with pytest.raises(BudgetExceededError):
            brute_expected_degree_q(3, 4, 3, EnumerationBudget(63))


class TestMultinomialPowerSum:
    def test_frozen(self):
        assert multinomial_power_sum(2, 2, 2) == 12
        assert multinomial_power_sum(3, 3, 3) == 261

    def test_base_case(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert multinomial_power_sum(n, m, 0) == m ** (n + 1)

    def test_matches_closed_form(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for q in range(0, 7):
                    assert multinomial_power_sum(n, m, q) == (
                        closed_multinomial_power_sum(n, m, q)
                    )

    def test_relation_to_expected_degree(self):
        # power sum = n * m^n * E[deg(f, q)], exactly
        for n in range(1, 5):
            for m in range(1, 5):
                for q in range(1, 7):
                    assert multinomial_power_sum(n, m, q) == (
                        n * m**n * expected_degree_q(n, m, q)
                    )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            multinomial_power_sum(100, 100, 2, EnumerationBudget(10**4))


class TestSquareMomentIdentity:
    def test_example(self):
        report = check_square_moment_identity(2, (1, 1))
        assert report.match
        assert report.oracle_value == 12
        assert report.closed_value == 12

    def test_m_equals_one(self):
        # LHS collapses to sum of the weights, RHS to m * r^m = r
        for parts in [(0,), (3,), (1, 2), (0, 0, 4)]:
            report = check_square_moment_identity(1, parts)
            assert report.match
            assert report.oracle_value == sum(parts)

    def test_single_part(self):
        # one part r: LHS = m^2 r^m, RHS = m(m-1) r^m + m r^m
        for m in range(1, 6):
            for r in range(0, 5):
                report = check_square_moment_identity(m, (r,))
                assert report.match
                assert report.oracle_value == m * m * r**m

    def test_exhaustive(self):
        for m in range(1, 6):
            for n in range(1, 5):
                for parts in product(range(4), repeat=n):
                    assert check_square_moment_identity(m, parts).match

    def test_parameters_recorded(self):
        report = check_square_moment_identity(3, (1, 0, 2))
        assert report.parameters == {"m": 3, "n": 3, "r": 3}

    def test_budget(self):
        # C(59, 29) ~ 5.9e16 compositions: refused by counting, not run
        with pytest.raises(BudgetExceededError, match="59132290782430712"):
            check_square_moment_identity(30, (1,) * 30)

    def test_guards(self):
        with pytest.raises(InvalidSizeError):
            check_square_moment_identity(0, (1,))
        with pytest.raises(InvalidSizeError):
            check_square_moment_identity(2, ())
        with pytest.raises(InvalidSizeError):
            check_square_moment_identity(2, (-1, 2))


def reference_composition_sum(total, bases, term):
    """The composition sum walked term for term: every weak composition,
    one ``multinomial`` and one power loop each."""
    acc = 0
    for k in weak_compositions(total, len(bases)):
        weight = multinomial(total, k)
        for b, ki in zip(bases, k):
            weight *= b**ki
        acc += weight * term(k)
    return acc


def reference_nested_sum(sizes):
    """The nested chain sum with every level, the top one included,
    summed by ``reference_composition_sum``."""
    t = len(sizes) - 1
    term = _square_sum
    for s in range(1, t):
        sums = {
            key: reference_composition_sum(sizes[s - 1], key, term)
            for key in _partitions(sizes[s], min(sizes[s:]), sizes[s])
        }
        term = lambda k, sums=sums: sums[_profile(k)]
    total = reference_composition_sum(sizes[t - 1], (1,) * sizes[t], term)
    return Fraction(total, sizes[0] * ChainSpec(sizes).tuple_count())


def power_term(q):
    """sum_i k_i^q over every part of a composition, zeros included."""
    return lambda k: sum(ki**q for ki in k)


def partition_power_term(q, parts):
    """``power_term(q)`` read from the nonzero parts of a composition
    into ``parts`` parts: each zero part adds 0^q."""
    return lambda lam: sum(p**q for p in lam) + (parts - len(lam)) * 0**q


class TestCompositionKernels:
    """The walk and the partition sum against the term-for-term sum."""

    @given(
        total=st.integers(0, 6),
        bases=st.lists(st.integers(0, 4), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_match_reference(self, total, bases, data):
        parts = len(bases)
        table = {
            lam: data.draw(st.integers(-100, 100), label=str(lam))
            for lam in _partitions(total, parts, total)
        }
        lookup = lambda k: table[_profile(k)]  # noqa: E731
        terms = [
            (_square_sum, _square_sum),
            *((power_term(q), partition_power_term(q, parts))
              for q in range(6)),
            (lookup, lookup),
        ]
        ones = (1,) * parts
        for term, symmetric in terms:
            assert _weighted_composition_sum(total, bases, term) == (
                reference_composition_sum(total, bases, term)
            )
            assert _symmetric_composition_sum(total, parts, symmetric) == (
                reference_composition_sum(total, ones, term)
            )

    def test_nested_sum_grid(self):
        for length in (2, 3, 4):
            for sizes in product(range(1, 5), repeat=length):
                assert multinomial_expected_degree_chain(
                    ChainSpec(sizes)
                ) == reference_nested_sum(sizes), sizes

    @pytest.mark.parametrize(
        "sizes", [(8, 8, 8), (5, 5, 5, 5), (6, 3, 7, 2)], ids=str
    )
    def test_nested_sum_larger(self, sizes):
        assert multinomial_expected_degree_chain(
            ChainSpec(sizes)
        ) == reference_nested_sum(sizes)

    def test_power_sum_grid(self):
        for n in range(1, 7):
            for m in range(1, 7):
                for q in range(7):
                    assert multinomial_power_sum(n, m, q) == (
                        reference_composition_sum(n, (1,) * m, power_term(q))
                    ), (n, m, q)

    def test_one_point_into_a_million(self, deadline):
        # 10^6 compositions of length 10^6 as written, one partition
        assert multinomial_power_sum(1, 10**6, 1) == 10**6
        assert multinomial_power_sum(1, 10**6, 0) == 10**12
        assert multinomial_expected_degree_chain(ChainSpec((1, 10**6))) == 1

    def test_walk_is_not_recursive(self, deadline):
        # the walk goes 10^4 parts deep; only the first and last weigh
        bases = (1,) + (0,) * 9998 + (1,)
        assert _weighted_composition_sum(1, bases, _square_sum) == 2
        report = check_square_moment_identity(1, bases)
        assert report.match and report.oracle_value == 2


class TestStartProfileBudget:
    """The enumeration refuses more start points than the budget before
    it builds the start profile."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walked(*_args):
            raise AssertionError("enumerated before refusing")

        monkeypatch.setattr(oracle, "_set_partitions", walked)
        _fiber_profiles.cache_clear()

    def test_chain_refused(self, no_walk):
        with pytest.raises(BudgetExceededError) as info:
            brute_expected_degree_chain(
                ChainSpec((1001, 1)), EnumerationBudget(1000)
            )
        assert str(info.value) == (
            "start profile of chain enumeration for (1001, 1) needs 1001 "
            "enumerated objects, budget is 1000"
        )

    def test_degq_refused(self, no_walk):
        with pytest.raises(BudgetExceededError) as info:
            brute_expected_degree_q(1001, 1, 1, EnumerationBudget(1000))
        assert str(info.value) == (
            "start profile of enumeration of all functions (1001, 1) needs "
            "1001 enumerated objects, budget is 1000"
        )

    def test_tuples_checked_first(self, no_walk):
        with pytest.raises(BudgetExceededError, match="^chain enumeration"):
            brute_expected_degree_chain(
                ChainSpec((1001, 2)), EnumerationBudget(1000)
            )

    def test_at_the_budget(self):
        # a constant map on 1000 points: deg = 1000
        budget = EnumerationBudget(1000)
        assert brute_expected_degree_chain(
            ChainSpec((1000, 1)), budget
        ) == 1000
        assert brute_expected_degree_q(1000, 1, 2, budget) == 1000


class TestVerificationReport:
    def test_match_flag(self):
        ok = VerificationReport.compare({"n": 1}, Fraction(1, 2), Fraction(1, 2))
        assert ok.match
        bad = VerificationReport.compare({"n": 1}, Fraction(1, 2), Fraction(1, 3))
        assert not bad.match

    def test_int_inputs_normalized(self):
        report = VerificationReport.compare({}, 12, Fraction(12))
        assert report.match
        assert report.oracle_value == Fraction(12)
