"""Closed forms against values frozen from independent enumeration.

The brute-force helpers here are deliberately written from scratch with
itertools (no shared code with noninv.oracle), so that closed form,
package oracle and test oracle are three separate computations.
"""

from fractions import Fraction
from itertools import product
from math import comb, perm

import pytest
from hypothesis import given, strategies as st

from noninv import (
    BudgetExceededError,
    ChainSpec,
    InvalidExponentError,
    InvalidSizeError,
    closed_multinomial_power_sum,
    expected_degree_chain,
    expected_degree_iterate,
    expected_degree_q,
    power_difference_coeffs,
    power_sum_stirling_form,
    stirling1_unsigned,
    stirling2,
    stirling_identity_sum,
    stirling_power_sum,
    stirling_transform,
)
from noninv.closed_form import _power_sum_kernel
from noninv.combinatorics import MAX_STIRLING_ROWS, stirling1_signed_sums


def naive_chain_average(sizes) -> Fraction:
    """Average composition degree over all tuples, via itertools.product
    on fully materialized tuples of functions."""
    t = len(sizes) - 1
    spaces = [
        list(product(range(sizes[s + 1]), repeat=sizes[s])) for s in range(t)
    ]
    total = Fraction(0)
    count = 0
    for chain in product(*spaces):
        g = list(range(sizes[0]))
        for f in chain:
            g = [f[x] for x in g]
        counts = [0] * sizes[-1]
        for y in g:
            counts[y] += 1
        total += Fraction(sum(c * c for c in counts), sizes[0])
        count += 1
    return total / count


class TestChainSpec:
    def test_too_short(self):
        with pytest.raises(InvalidSizeError):
            ChainSpec((3,))

    def test_zero_size(self):
        with pytest.raises(InvalidSizeError):
            ChainSpec((2, 0, 2))

    def test_tuple_count(self):
        assert ChainSpec((2, 3, 2)).tuple_count() == 3**2 * 2**3


class TestExpectedDegreeChain:
    # frozen from the enumeration oracle below (and re-checked live)
    FROZEN = {
        (2, 2): Fraction(3, 2),
        (2, 2, 2): Fraction(7, 4),
        (3, 3): Fraction(5, 3),
        (2, 2, 2, 2): Fraction(15, 8),
        (3, 3, 3): Fraction(19, 9),
        (3, 1, 3): Fraction(3),
        (2, 3, 2): Fraction(5, 3),
    }

    @pytest.mark.parametrize("sizes,expected", sorted(FROZEN.items()))
    def test_frozen_values(self, sizes, expected):
        assert expected_degree_chain(ChainSpec(sizes)) == expected

    @pytest.mark.parametrize("sizes", sorted(FROZEN))
    def test_against_naive_enumeration(self, sizes):
        assert expected_degree_chain(ChainSpec(sizes)) == naive_chain_average(
            sizes
        )

    def test_all_singletons(self):
        assert expected_degree_chain(ChainSpec((1, 1, 1, 1))) == 1

    def test_value_in_range_sweep(self):
        # exact rational bound 1 <= D <= n1 over all sizes <= 6
        for length in (2, 3, 4):
            for sizes in product(range(1, 7), repeat=length):
                value = expected_degree_chain(ChainSpec(sizes))
                assert 1 <= value <= sizes[0]

    def test_singleton_after_first_forces_constant(self):
        # a 1 anywhere past position 1 makes every composition constant
        for sizes in product(range(1, 5), repeat=3):
            if 1 in sizes[1:]:
                assert expected_degree_chain(ChainSpec(sizes)) == sizes[0]


class TestExpectedDegreeIterate:
    def test_matches_chain_formula(self):
        for n in range(1, 9):
            for t in range(1, 7):
                assert expected_degree_iterate(n, t) == expected_degree_chain(
                    ChainSpec((n,) * (t + 1))
                )

    def test_degenerate(self):
        for t in range(1, 5):
            assert expected_degree_iterate(1, t) == 1

    def test_small_values(self):
        assert expected_degree_iterate(2, 1) == Fraction(3, 2)
        assert expected_degree_iterate(2, 2) == Fraction(7, 4)

    def test_guards(self):
        with pytest.raises(InvalidSizeError):
            expected_degree_iterate(0, 1)
        with pytest.raises(InvalidSizeError):
            expected_degree_iterate(3, 0)

    def test_large_n_limit_bound(self):
        n = 10**6
        for t in range(1, 7):
            gap = abs(expected_degree_iterate(n, t) - (t + 1))
            assert gap <= Fraction(comb(t + 1, 2), n)


class TestPowerDifferenceCoeffs:
    def test_published_rows(self):
        assert power_difference_coeffs(1) == [2, -1]
        assert power_difference_coeffs(2) == [3, -3, 1]
        assert power_difference_coeffs(3) == [4, -6, 4, -1]

    def test_polynomial_identity(self):
        # sum_s coeff_s n^(t-s) = n^(t+1) - (n-1)^(t+1)
        for t in range(1, 11):
            coeffs = power_difference_coeffs(t)
            for n in range(1, 11):
                value = sum(
                    c * n ** (t - s) for s, c in enumerate(coeffs)
                )
                assert value == n ** (t + 1) - (n - 1) ** (t + 1)


class TestExpectedDegreeQ:
    def test_q1_is_one(self):
        for n in range(1, 6):
            for m in range(1, 6):
                assert expected_degree_q(n, m, 1) == 1

    def test_q2_closed_form(self):
        # (n + m - 1) / m, matching the chain formula when m = n
        for n in range(1, 8):
            for m in range(1, 8):
                assert expected_degree_q(n, m, 2) == Fraction(n + m - 1, m)
        for n in range(1, 51):
            assert expected_degree_q(n, n, 2) == expected_degree_iterate(n, 1)

    def test_against_naive_enumeration(self):
        def naive(n, m, q):
            total = 0
            for f in product(range(m), repeat=n):
                counts = [0] * m
                for y in f:
                    counts[y] += 1
                total += sum(c**q for c in counts)
            return Fraction(total, n * m**n)

        for n in range(1, 4):
            for m in range(1, 4):
                for q in range(1, 6):
                    assert expected_degree_q(n, m, q) == naive(n, m, q)

    def test_frozen_value(self):
        assert expected_degree_q(2, 2, 3) == Fraction(5, 2)

    def test_guards(self):
        with pytest.raises(InvalidExponentError):
            expected_degree_q(2, 2, 0)
        with pytest.raises(InvalidSizeError):
            expected_degree_q(0, 2, 2)


class TestClosedMultinomialPowerSum:
    def naive(self, n, m, q):
        def comps(total, parts):
            if parts == 1:
                yield (total,)
                return
            for last in range(total + 1):
                for rest in comps(total - last, parts - 1):
                    yield rest + (last,)

        from math import factorial

        total = 0
        for k in comps(n, m):
            mult = factorial(n)
            for p in k:
                mult //= factorial(p)
            total += mult * sum(p**q for p in k)  # int 0**0 == 1
        return total

    def test_frozen_values(self):
        assert closed_multinomial_power_sum(2, 2, 2) == 12
        assert closed_multinomial_power_sum(1, 3, 5) == 3

    def test_base_case(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert closed_multinomial_power_sum(n, m, 0) == m ** (n + 1)

    def test_against_naive(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for q in range(0, 7):
                    assert closed_multinomial_power_sum(n, m, q) == self.naive(
                        n, m, q
                    )

    def test_negative_power_of_m_path(self):
        # q > n + 1 sends m^(n-(q-1)) through the rational path
        assert closed_multinomial_power_sum(1, 2, 5) == self.naive(1, 2, 5)
        assert closed_multinomial_power_sum(2, 3, 6) == self.naive(2, 3, 6)


def k_then_j(second, first, x):
    """sum_{k=0..q-1} (-1)^k sum_{j=1..q-k} second[k+j] first[k+j][j]
    x^(q-k-1), the paper's order, for any row ``second`` of length
    q + 1 and any triangle ``first`` whose row i has length i + 1.
    x = 1 is the identity sum, x = n the corollary's power-sum form."""
    q = len(second) - 1
    return sum(
        (-1) ** k * sum(second[k + j] * first[k + j][j]
                        for j in range(1, q - k + 1)) * x ** (q - k - 1)
        for k in range(q)
    )


def i_then_j(second, first, x):
    """The same terms summed over i = k + j first:
    sum_{i=1..q} second[i] sum_{j=1..i} (-1)^(i-j) first[i][j]
    x^(q-i+j-1), the order of the E[deg(f, q)] kernel at m = n = x."""
    q = len(second) - 1
    return sum(
        second[i] * sum((-1) ** (i - j) * first[i][j] * x ** (q - i + j - 1)
                        for j in range(1, i + 1))
        for i in range(1, q + 1)
    )


class TestStirlingIdentitySum:
    def test_is_one(self):
        for q in range(1, MAX_STIRLING_ROWS + 1):
            assert stirling_identity_sum(q) == 1, q

    def test_is_stirling_transform_of_row_sums(self):
        # the sweep is the Stirling transform of a_i = sum_j s(i, j)
        sums = stirling1_signed_sums(MAX_STIRLING_ROWS)
        assert stirling_transform(sums[1:]) == [
            stirling_identity_sum(q) for q in range(1, MAX_STIRLING_ROWS + 1)
        ]

    @given(data=st.data(), q=st.integers(1, 8),
           x=st.integers(-10**6, 10**6))
    def test_reindexing_holds_for_any_rows(self, data, q, x):
        # plain algebra: no property of Stirling numbers is used
        entries = st.integers(-10**30, 10**30)
        second = data.draw(st.lists(entries, min_size=q + 1, max_size=q + 1))
        first = [
            data.draw(st.lists(entries, min_size=i + 1, max_size=i + 1))
            for i in range(q + 1)
        ]
        assert k_then_j(second, first, x) == i_then_j(second, first, x)

    def test_guard(self):
        with pytest.raises(InvalidExponentError):
            stirling_identity_sum(0)


class TestPowerSumStirlingForm:
    def test_agrees_with_direct_closed_form(self):
        for n in range(1, 6):
            for q in range(1, 7):
                assert power_sum_stirling_form(n, q) == closed_multinomial_power_sum(
                    n, n, q
                )

    def test_frozen_values(self):
        assert power_sum_stirling_form(2, 2) == 12
        assert power_sum_stirling_form(3, 1) == 81
        for q in range(1, 8):
            assert power_sum_stirling_form(1, q) == 1


# --- whole-row Horner evaluation against the per-entry loops it replaced ----
#
# The three loops below are verbatim copies of the per-entry evaluation
# (one ``stirling1_unsigned``/``stirling2`` call and one fresh power per
# term) that the Horner kernels replaced.

def per_entry_power_sum_kernel(n, m, q):
    total = 0
    for k in range(1, q + 1):
        inner = sum(
            (-1) ** (k - j) * stirling1_unsigned(k, j) * n ** (j - 1)
            for j in range(1, k + 1)
        )
        total += stirling2(q, k) * inner * m ** (q - k)
    return total


def per_entry_inner_sum(q, k):
    return sum(
        stirling2(q, k + j) * stirling1_unsigned(k + j, j)
        for j in range(1, q - k + 1)
    )


def per_entry_power_sum_form(n, q):
    total = sum(
        (-1) ** k * per_entry_inner_sum(q, k) * n ** (q - k - 1)
        for k in range(q)
    )
    value = Fraction(n) ** (n - (q - 2)) * total
    return value.numerator


def falling_factorial_kernel(n, m, q):
    """The kernel with no first-kind numbers: the signed first kind
    generates the falling factorial, so sum_j s(k, j) n^(j-1) =
    (n-1)(n-2)...(n-k+1) = perm(n-1, k-1), zero once k > n."""
    return sum(
        stirling2(q, k) * perm(n - 1, k - 1) * m ** (q - k)
        for k in range(1, q + 1)
    )


SIZES = (1, 2, 3, 7, 1000)


class TestPowerSumKernel:
    @pytest.mark.parametrize("n,m", list(product(SIZES, repeat=2)))
    def test_matches_per_entry_loop(self, n, m):
        for q in range(1, 61):
            assert _power_sum_kernel(n, m, q) == per_entry_power_sum_kernel(
                n, m, q
            ), q

    @pytest.mark.parametrize("n,m", list(product(SIZES, repeat=2)))
    def test_matches_falling_factorial_form(self, n, m):
        for q in range(1, 61):
            assert _power_sum_kernel(n, m, q) == falling_factorial_kernel(
                n, m, q
            ), q

    @pytest.mark.parametrize("n,m", [(1000, 1000), (1000, 7), (3, 1000)])
    def test_falling_factorial_form_at_q_400(self, n, m):
        assert _power_sum_kernel(n, m, 400) == falling_factorial_kernel(
            n, m, 400
        )

    def test_pinned_large_value(self):
        # the benchmark's expected-q call; pinned by its digit count, its
        # leading digits and its residue modulo the prime 2^61 - 1
        value = _power_sum_kernel(1000, 1000, 400)
        assert value == per_entry_power_sum_kernel(1000, 1000, 400)
        digits = str(value)
        assert len(digits) == 1840
        assert digits[:30] == "258151763204998854739933171147"
        assert value % (2**61 - 1) == 1297833523516113877


class TestStirlingInnerSums:
    def test_identity_sum_matches_per_entry_loop(self):
        for q in range(1, 61):
            assert stirling_identity_sum(q) == sum(
                (-1) ** k * per_entry_inner_sum(q, k) for k in range(q)
            ) == 1

    def test_power_sum_form_matches_per_entry_loop(self):
        for n in range(1, 7):
            for q in range(1, 61):
                assert power_sum_stirling_form(
                    n, q
                ) == per_entry_power_sum_form(n, q), (n, q)


class TestStirlingPowerSum:
    def test_matches_per_entry_loop_and_q_to_the_q(self):
        # perm(q, i) = q(q-1)...(q-i+1), from math, not the package
        for q in range(1, 61):
            assert stirling_power_sum(q) == sum(
                stirling2(q, i) * perm(q, i) for i in range(1, q + 1)
            ) == q**q, q

    def test_guard(self):
        with pytest.raises(InvalidExponentError):
            stirling_power_sum(0)


class TestStirlingRowCap:
    """Closed forms past the Stirling row cap are refused before any row
    is built; ``refuse_growth`` makes building a row fail the test."""

    def test_expected_degree_q(self, refuse_growth):
        with pytest.raises(BudgetExceededError, match="cap of"):
            expected_degree_q(5, 5, 5000)

    def test_identity_sum(self, refuse_growth):
        with pytest.raises(BudgetExceededError, match="cap of"):
            stirling_identity_sum(MAX_STIRLING_ROWS + 1)

    def test_power_sum_form(self, refuse_growth):
        with pytest.raises(BudgetExceededError, match="cap of"):
            power_sum_stirling_form(2, MAX_STIRLING_ROWS + 1)

    def test_power_sum(self, refuse_growth):
        with pytest.raises(BudgetExceededError, match="cap of"):
            stirling_power_sum(MAX_STIRLING_ROWS + 1)
