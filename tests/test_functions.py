"""Finite-function core: construction, fibers, degrees, composition."""

import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from noninv import (
    BudgetExceededError,
    EmptySetError,
    FiniteFunction,
    InvalidExponentError,
    LengthMismatchError,
    OutOfRangeImageError,
    SizeMismatchError,
    compose,
    constant_function,
    identity_function,
    make_function,
)
from noninv.functions import fiber_sizes


def random_function(draw_sizes=(1, 6)):
    """Hypothesis strategy for an arbitrary small FiniteFunction."""
    lo, hi = draw_sizes
    return st.integers(lo, hi).flatmap(
        lambda m: st.integers(lo, hi).flatmap(
            lambda n: st.lists(
                st.integers(0, m - 1), min_size=n, max_size=n
            ).map(lambda imgs: make_function(n, m, imgs))
        )
    )


class TestConstruction:
    def test_valid(self):
        f = make_function(3, 3, [0, 0, 1])
        assert f.images == (0, 0, 1)
        assert (f.domain_size, f.codomain_size) == (3, 3)

    def test_non_square_valid(self):
        f = make_function(2, 3, [0, 2])
        assert f(0) == 0 and f(1) == 2

    def test_out_of_range_image(self):
        with pytest.raises(OutOfRangeImageError):
            make_function(2, 2, [0, 2])
        with pytest.raises(OutOfRangeImageError):
            make_function(2, 2, [0, -1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            make_function(3, 2, [0, 1])

    def test_empty_sets_rejected(self):
        with pytest.raises(EmptySetError):
            make_function(0, 1, [])
        with pytest.raises(EmptySetError):
            make_function(1, 0, [0])

    def test_immutable(self):
        f = make_function(2, 2, [0, 1])
        with pytest.raises(AttributeError):
            f.images = (1, 1)

    @pytest.mark.parametrize("images", [[0, 5, 1], [7, 0, 1], [0, 1, 6, 9]])
    def test_out_of_range_names_first_index(self, images):
        with pytest.raises(OutOfRangeImageError) as exc:
            make_function(len(images), 5, images)
        x = next(i for i, y in enumerate(images) if y >= 5)
        assert str(exc.value) == (
            f"image of {x} is {images[x]}, outside [0, 5)"
        )

    @pytest.mark.parametrize("images", [[0, -1, 1], [-2, 0, 1], [0, 1, 4, -3]])
    def test_negative_image_names_first_index(self, images):
        with pytest.raises(OutOfRangeImageError) as exc:
            make_function(len(images), 5, images)
        x = next(i for i, y in enumerate(images) if y < 0)
        assert str(exc.value) == (
            f"image of {x} is {images[x]}, outside [0, 5)"
        )

    @pytest.mark.parametrize("images,bad", [
        ([0, 0.5], 1), ([float("nan"), 0], 0), ([0, True], 1),
        ([1, 0, 1.0], 2), (["0", 1], 0),
    ])
    def test_non_integer_image_names_first_index(self, images, bad):
        with pytest.raises(OutOfRangeImageError) as exc:
            make_function(len(images), 2, images)
        assert str(exc.value) == (
            f"image of {bad} is {images[bad]!r}, not an integer"
        )


class TestFibers:
    def test_basic(self):
        assert make_function(3, 3, [0, 0, 1]).fiber_sizes() == (2, 1, 0)

    def test_identity(self):
        assert identity_function(3).fiber_sizes() == (1, 1, 1)

    def test_constant(self):
        assert constant_function(4, 2, 0).fiber_sizes() == (4, 0)

    @given(random_function())
    def test_fibers_sum_to_domain(self, f):
        assert sum(f.fiber_sizes()) == f.domain_size

    def test_labels_capped(self):
        # max(|X|, 2^20) labels are listed, one more is refused
        cap = 1 << 20
        assert len(constant_function(1, cap, 0).fiber_sizes()) == cap
        with pytest.raises(BudgetExceededError, match="cap is"):
            constant_function(1, cap + 1, 0).fiber_sizes()
        f = constant_function(cap + 1, cap + 1, 0)
        assert f.fiber_sizes()[:2] == (cap + 1, 0)
        with pytest.raises(BudgetExceededError):
            constant_function(cap + 1, cap + 2, 0).fiber_sizes()

    def test_huge_codomain_refused(self, capped_python):
        # one point and 10^9 labels: the degree and the largest fiber
        # are counted by image, and the list of 10^9 fiber sizes (8 GB)
        # is refused before it is allocated, in a child capped at 1 GiB
        code, out, err = capped_python("-c", "\n".join([
            "from noninv import BudgetExceededError, parse_function_text",
            "f = parse_function_text('1 1000000000 : 1')",
            "print(f.degree(), f.max_fiber())",
            "try:",
            "    f.fiber_sizes()",
            "except BudgetExceededError as exc:",
            "    print(exc)",
        ]))
        assert (code, err) == (0, "")
        assert out == (
            "1 1\nfiber_sizes() would list 1000000000 fiber sizes, "
            "cap is max(domain size, 1048576) = 1048576\n"
        )


def plain_fibers(f):
    counts = [0] * f.codomain_size
    for x in range(f.domain_size):
        counts[f(x)] += 1
    return counts


class TestFiberCache:
    # codomain equal to, larger than and smaller than the domain
    SIZES = [(1, 1), (6, 6), (5, 40), (40, 5), (300, 1000), (1000, 30)]

    @pytest.mark.parametrize("n,m", SIZES)
    def test_every_statistic_matches_plain_loop(self, n, m):
        rng = random.Random(n * 1000 + m)
        for _ in range(5):
            f = make_function(n, m, rng.choices(range(m), k=n))
            fibers = plain_fibers(f)
            assert f.fiber_sizes() == tuple(fibers)
            assert f.degree() == Fraction(sum(c * c for c in fibers), n)
            for q in range(1, 6):
                assert f.degree_q(q) == Fraction(sum(c**q for c in fibers), n)
            assert f.max_fiber() == max(fibers)
            assert f.fiber_sizes() == tuple(fibers)

    @pytest.mark.parametrize("n,m", SIZES)
    def test_max_fiber_first_then_degrees(self, n, m):
        # max_fiber builds the histogram that degree_q then reads
        rng = random.Random(n * 1000 + m + 1)
        f = make_function(n, m, rng.choices(range(m), k=n))
        fibers = plain_fibers(f)
        assert f.max_fiber() == max(fibers)
        for q in range(1, 6):
            assert f.degree_q(q) == Fraction(sum(c**q for c in fibers), n)
        assert f.degree() == Fraction(sum(c * c for c in fibers), n)
        assert f.max_fiber() == max(fibers)

    def test_histogram_is_not_part_of_the_value(self):
        f = make_function(6, 4, [3, 0, 3, 3, 1, 0])
        fresh = make_function(6, 4, [3, 0, 3, 3, 1, 0])
        assert f.max_fiber() == 3
        assert f._histogram == {3: 1, 2: 1, 1: 1, 0: 1}
        assert fresh._histogram is None
        assert f == fresh and fresh == f
        assert (hash(f), repr(f)) == (hash(fresh), repr(fresh))
        g = pickle.loads(pickle.dumps(f))
        assert g._histogram is None
        assert pickle.dumps(f) == pickle.dumps(fresh)
        assert g == f and g.degree_q(3) == Fraction(3**3 + 2**3 + 1, 6)
        with pytest.raises(AttributeError):
            f._histogram = {6: 1}
        with pytest.raises(AttributeError):
            del f._histogram
        assert f.max_fiber() == 3

    @pytest.mark.parametrize("n,m,images,histogram", [
        # more labels than points: counted by image
        (3, 10, [7, 7, 2], {2: 1, 1: 1, 0: 8}),
        (1, 2, [1], {1: 1, 0: 1}),
        # as many labels as points, and fewer: counted densely
        (3, 3, [2, 2, 2], {3: 1, 0: 2}),
        (4, 2, [0, 1, 1, 0], {2: 2}),
    ])
    def test_histogram_counts_empty_fibers(self, n, m, images, histogram):
        f = make_function(n, m, images)
        assert f._fiber_histogram() == histogram
        assert sum(f._histogram.values()) == m

    @pytest.mark.parametrize("images", [
        # one fiber of 300 points: bytes() refuses it
        [0] * 300,
        # a fiber reaches 256 points only at the last image
        [0] * 255 + list(range(1, 100)) + [0],
        # every fiber has 255 points, the most a byte holds
        [y for y in range(4) for _ in range(255)],
        # a few large fibers among many of at most one point, counted
        # one by one after the passes over the small sizes
        list(range(2000)) + [0] * 200 + [1] * 60 + [2] * 9,
    ], ids=["constant-300", "256-at-last", "all-255", "few-large"])
    def test_histogram_equals_counter_of_fiber_sizes(self, images):
        n = len(images)
        # as many labels as the images use (dense), and more labels
        # than points (by image)
        for m in (max(images) + 1, n + 7):
            f = make_function(n, m, images)
            want = Counter(fiber_sizes(images, m))
            assert sorted(f._fiber_histogram().items()) == sorted(want.items())

    @pytest.mark.parametrize("images", [
        [float("nan")], [False], [True],
    ])
    def test_constructor_still_checks_types(self, images):
        with pytest.raises(OutOfRangeImageError, match="not an integer"):
            FiniteFunction(1, 1, images)

    def test_cache_is_not_part_of_the_value(self):
        f = make_function(4, 3, [0, 2, 2, 1])
        fresh = make_function(4, 3, [0, 2, 2, 1])
        before = (hash(f), repr(f))
        f.degree()
        assert f == fresh and fresh == f
        assert (hash(f), repr(f)) == before == (hash(fresh), repr(fresh))
        assert f != make_function(4, 3, [0, 2, 2, 2])

    def test_pickle_round_trip(self):
        f = make_function(5, 4, [3, 0, 3, 3, 1])
        for counted in (False, True):
            if counted:
                f.max_fiber()
            g = pickle.loads(pickle.dumps(f))
            assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
            assert g.fiber_sizes() == (1, 1, 0, 3)
            assert g.degree_q(3) == Fraction(29, 5)

    def test_counted_function_stays_immutable(self):
        f = make_function(2, 2, [0, 0])
        f.max_fiber()
        with pytest.raises(AttributeError):
            f.images = (1, 1)
        with pytest.raises(AttributeError):
            f.codomain_size = 3
        with pytest.raises(AttributeError):
            f._histogram = {1: 2}
        assert f.fiber_sizes() == (2, 0) and f.max_fiber() == 2


class TestDegree:
    def test_bijection_is_one(self):
        for n in range(1, 6):
            assert identity_function(n).degree() == 1

    def test_constant_is_domain_size(self):
        assert constant_function(3, 3, 0).degree() == 3

    def test_example(self):
        # fibers (2, 1, 0): (4 + 1 + 0) / 3
        assert make_function(3, 3, [0, 0, 1]).degree() == Fraction(5, 3)

    @given(random_function())
    def test_both_definitions_agree(self, f):
        # sum over domain of |f^-1(f(x))| must equal sum over codomain of
        # |f^-1(y)|^2, point for point
        per_x = sum(f.images.count(f(x)) for x in range(f.domain_size))
        assert f.degree() == Fraction(per_x, f.domain_size)

    @given(random_function())
    def test_range_and_extremes(self, f):
        d = f.degree()
        assert 1 <= d <= f.domain_size
        injective = len(set(f.images)) == f.domain_size
        constant = len(set(f.images)) == 1
        assert (d == 1) == injective
        assert (d == f.domain_size) == constant


class TestDegreeQ:
    def test_q1_is_always_one(self):
        for images in product(range(3), repeat=3):
            assert make_function(3, 3, images).degree_q(1) == 1

    def test_q2_is_degree(self):
        for images in product(range(2), repeat=3):
            f = make_function(3, 2, images)
            assert f.degree_q(2) == f.degree()

    def test_constant_power(self):
        # single fiber of size n: n^q / n
        for n in (2, 3, 5):
            for q in (1, 2, 3, 4):
                f = constant_function(n, 2, 1)
                assert f.degree_q(q) == n ** (q - 1)

    def test_example_q3(self):
        assert make_function(3, 3, [0, 0, 1]).degree_q(3) == 3

    def test_many_equal_fibers_large_q(self, deadline):
        # 10^4 two-point fibers, one triple, one singleton and an empty
        # fiber, at a q where each power of 2 has 17,001 bits
        images = [i // 2 for i in range(20000)] + [10000] * 3 + [10001]
        f = make_function(20004, 10003, images)
        q = 17000
        assert f.degree_q(q) == Fraction(10000 * 2**q + 3**q + 1, 20004)

    def test_invalid_exponent(self):
        f = identity_function(2)
        with pytest.raises(InvalidExponentError):
            f.degree_q(0)
        with pytest.raises(InvalidExponentError):
            f.degree_q(-1)


class TestMaxFiber:
    def test_examples(self):
        assert identity_function(4).max_fiber() == 1
        assert constant_function(5, 5, 2).max_fiber() == 5
        assert make_function(4, 2, [0, 0, 0, 1]).max_fiber() == 3

    @given(random_function())
    def test_pigeonhole_lower_bound(self, f):
        assert f.max_fiber() >= math.ceil(f.domain_size / f.codomain_size)


class TestCompose:
    def test_identity_neutral(self):
        f = make_function(3, 3, [0, 0, 1])
        assert compose(identity_function(3), f) == f
        assert compose(f, identity_function(3)) == f

    def test_constant_absorbs(self):
        f = make_function(3, 2, [0, 1, 1])
        c = constant_function(2, 4, 3)
        assert compose(c, f) == constant_function(3, 4, 3)

    def test_involution(self):
        swap = make_function(2, 2, [1, 0])
        assert compose(swap, swap) == identity_function(2)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            compose(make_function(3, 3, [0, 1, 2]), make_function(2, 2, [0, 1]))

    def test_associative_exhaustive_small(self):
        # all triples h: A->B, g: B->C, f: C->D with sizes <= 3
        sizes = (1, 2, 3)
        for a, b, c, d in product(sizes, repeat=4):
            hs = [make_function(a, b, i) for i in product(range(b), repeat=a)]
            gs = [make_function(b, c, i) for i in product(range(c), repeat=b)]
            fs = [make_function(c, d, i) for i in product(range(d), repeat=c)]
            for h in hs:
                for g in gs:
                    gh = compose(g, h)
                    for f in fs:
                        assert compose(f, gh) == compose(compose(f, g), h)
