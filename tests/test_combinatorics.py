"""Combinatorial primitives against brute-force counting oracles."""

import math
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from noninv import (
    BudgetExceededError,
    NegativePartError,
    StirlingTable,
    binomial,
    multinomial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    stirling_transform,
)
from noninv.combinatorics import (
    MAX_STIRLING_ROWS,
    _stirling_sum,
    check_stirling_rows,
    stirling1_signed_sums,
)


# --- independent counting oracles ----------------------------------------

def partitions_into_k_blocks(n: int, k: int) -> int:
    """Count set partitions of range(n) into k nonempty blocks by
    enumerating restricted growth strings."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0

    def rec(i, used):
        nonlocal count
        if i == n:
            count += used == k
            return
        for b in range(used + 1):
            rec(i + 1, used + (b == used))
    rec(0, 0)
    return count


def permutations_with_k_cycles(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for p in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
        count += cycles == k
    return count


def bell_numbers(limit: int) -> list[int]:
    """Bell triangle, independent of the Stirling tables."""
    bell = [1]
    row = [1]
    for _ in range(limit):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bell.append(row[0])
    return bell


def entry_recurrence_rows(limit: int):
    """Both triangles to row ``limit``, built by a verbatim copy of the
    per-entry ``entry()`` loop that grew ``StirlingTable`` rows before
    the whole-row ``map`` recurrence."""
    second = [(1,)]
    first = [(1,)]
    while len(second) <= limit:
        row_n = len(second) - 1
        prev2 = second[row_n]
        prev1 = first[row_n]

        def entry(row: tuple[int, ...], k: int) -> int:
            return row[k] if 0 <= k <= row_n else 0

        # {n+1, k} = k*{n, k} + {n, k-1}
        second.append(
            tuple(
                k * entry(prev2, k) + entry(prev2, k - 1)
                for k in range(row_n + 2)
            )
        )
        # [n+1, k] = n*[n, k] + [n, k-1]
        first.append(
            tuple(
                row_n * entry(prev1, k) + entry(prev1, k - 1)
                for k in range(row_n + 2)
            )
        )
    return second, first


# --- binomial / multinomial ------------------------------------------------

class TestBinomial:
    def test_pascal_row(self):
        assert binomial(4, 2) == 6

    def test_edges(self):
        assert binomial(7, 0) == 1
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestMultinomial:
    def test_examples(self):
        assert multinomial(2, [1, 1]) == 2
        assert multinomial(4, [2, 1, 1]) == 12

    def test_sum_mismatch_is_zero(self):
        assert multinomial(3, [1, 1, 2]) == 0

    def test_negative_part(self):
        with pytest.raises(NegativePartError):
            multinomial(2, [3, -1])

    def test_equals_binomial_product(self):
        # multinomial(n; p) = C(n,p1) C(n-p1,p2) ... for all small splits
        def splits(n, parts):
            if parts == 1:
                yield (n,)
                return
            for first in range(n + 1):
                for rest in splits(n - first, parts - 1):
                    yield (first,) + rest

        for n in range(11):
            for parts in (1, 2, 3):
                for p in splits(n, parts):
                    expected = 1
                    remaining = n
                    for v in p:
                        expected *= binomial(remaining, v)
                        remaining -= v
                    assert multinomial(n, p) == expected


# --- Stirling numbers -------------------------------------------------------

class TestStirlingSecond:
    def test_against_partition_oracle(self):
        for n in range(7):
            for k in range(8):
                assert stirling2(n, k) == partitions_into_k_blocks(n, k)

    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 1) == 1
        for n in range(10):
            assert stirling2(n, n) == 1

    def test_out_of_range(self):
        assert stirling2(3, 4) == 0
        assert stirling2(3, -1) == 0
        assert stirling2(0, 0) == 1


class TestStirlingFirst:
    def test_against_cycle_oracle(self):
        for n in range(7):
            for k in range(8):
                assert stirling1_unsigned(n, k) == permutations_with_k_cycles(n, k)

    def test_known_values(self):
        assert stirling1_unsigned(4, 2) == 11
        assert stirling1_unsigned(3, 1) == 2
        for n in range(10):
            assert stirling1_unsigned(n, n) == 1

    def test_signed(self):
        assert stirling1_signed(4, 2) == 11
        assert stirling1_signed(3, 2) == -3
        assert stirling1_signed(5, 5) == 1

    def test_signed_generates_falling_factorial(self):
        # sum_k s(n,k) x^k = x (x-1) ... (x-n+1), checked by evaluation
        for n in range(9):
            for x in range(-3, 7):
                poly = sum(
                    stirling1_signed(n, k) * x**k for k in range(n + 1)
                )
                falling = 1
                for i in range(n):
                    falling *= x - i
                assert poly == falling


class TestInversePair:
    def test_exhaustive(self):
        for n in range(13):
            for k in range(13):
                total = sum(
                    stirling1_signed(n, j) * stirling2(j, k)
                    for j in range(13)
                )
                assert total == (1 if n == k else 0)


class TestStirlingTable:
    def test_row_sums(self):
        table = StirlingTable(15)
        bell = bell_numbers(15)
        for n in range(16):
            assert sum(table.second_row(n)) == bell[n]
            assert sum(table.first_row(n)) == math.factorial(n)

    def test_recurrences(self):
        table = StirlingTable(12)
        for n in range(12):
            for k in range(1, n + 2):
                assert table.second(n + 1, k) == k * table.second(
                    n, k
                ) + table.second(n, k - 1)
                assert table.first_unsigned(n + 1, k) == n * table.first_unsigned(
                    n, k
                ) + table.first_unsigned(n, k - 1)

    def test_boundary_entries(self):
        table = StirlingTable(8)
        assert table.second(0, 0) == 1
        assert table.first_unsigned(0, 0) == 1
        for n in range(1, 9):
            assert table.second(n, 0) == 0
            assert table.first_unsigned(n, 0) == 0

    def test_lazy_growth(self):
        table = StirlingTable()
        assert table.max_n == 0
        assert table.second(9, 3) == 3025
        assert table.max_n == 9

    def test_rows_match_per_entry_recurrence(self):
        second, first = entry_recurrence_rows(200)
        table = StirlingTable(200)
        assert [table.second_row(n) for n in range(201)] == second
        assert table.first_rows(200) == first
        assert [table.first_row(n) for n in range(201)] == first

    def test_rows_grown_in_steps_match(self):
        # growth resumes from the last built row, whatever the steps
        second, first = entry_recurrence_rows(60)
        table = StirlingTable()
        for n in (1, 2, 7, 8, 31, 60):
            table.ensure(n)
            assert table.first_rows(n) == first[: n + 1]
            assert table.second_row(n) == second[n]

    def test_each_kind_grows_on_demand(self):
        # rows held by (second kind, first kind), row 0 included: a read
        # of one kind builds no row of the other; once both are in use,
        # growing one to row n grows the other with it
        second, first = entry_recurrence_rows(40)
        table = StirlingTable()

        def held():
            return len(table._second), len(table._first)

        assert table.first_rows(30) == first[:31]
        assert held() == (1, 31) and table.max_n == 30
        assert table.first_signed_sums(30)[-1] == 0
        assert table.first_unsigned(12, 5) == first[12][5]
        assert held() == (1, 31)
        assert table.second(9, 3) == 3025
        assert held() == (10, 31) and table.max_n == 9
        assert table.second_row(35) == second[35]
        assert held() == (36, 36) and table.max_n == 35
        table.ensure(40)
        assert held() == (41, 41)
        assert [table.first_row(n) for n in range(41)] == first
        assert [table.second_row(n) for n in range(41)] == second

    def test_read_of_a_held_row_builds_no_row_of_the_other_kind(self):
        # first-kind row 20 is held past the rows both kinds hold (9):
        # its read goes through one ensure, which builds nothing
        second, first = entry_recurrence_rows(30)
        table = StirlingTable()
        table.first_rows(30)
        table.second_row(9)
        calls = []
        ensure = table.ensure
        table.ensure = lambda n: (calls.append((n, table.max_n)), ensure(n))
        assert table.first_row(20) == first[20]
        assert table.first_rows(25) == first[:26]
        assert table.second_row(9) == second[9]
        assert (len(table._second), len(table._first)) == (10, 31)
        assert len(calls) == 3 and all(n <= held for n, held in calls)

    def test_ensure_grows_both_kinds_before_any_read(self):
        table = StirlingTable()
        table.ensure(6)
        assert (len(table._second), len(table._first)) == (7, 7)
        assert StirlingTable(4).max_n == 4
        assert len(StirlingTable(4)._first) == 5

    def test_first_rows_is_a_copy(self):
        table = StirlingTable(5)
        rows = table.first_rows(3)
        rows.append(())
        assert table.first_rows(5)[4] == (0, 6, 11, 6, 1)

    def test_first_signed_sums_grown_in_steps(self):
        # each read sums only the rows past the memo, whatever the steps
        table = StirlingTable()
        for n in (0, 1, 2, 7, 3, 31, 60, 5):
            assert table.first_signed_sums(n) == [
                sum(table.first_signed(i, j) for j in range(1, i + 1))
                for i in range(n + 1)
            ]

    def test_first_signed_sums_are_the_falling_factorial_at_1(self):
        # sum_j s(i, j) = 1 (1 - 1) ... (1 - i + 1): 1 at i = 1, else 0
        sums = stirling1_signed_sums(MAX_STIRLING_ROWS)
        assert sums == [0, 1] + [0] * (MAX_STIRLING_ROWS - 1)

    def test_first_signed_sums_is_a_copy(self):
        table = StirlingTable()
        table.first_signed_sums(3).append(7)
        assert table.first_signed_sums(4) == [0, 1, 0, 0, 0]


class TestRowCap:
    """Rows past ``MAX_STIRLING_ROWS`` are refused before any row is
    built; ``refuse_growth`` makes building a row fail the test."""

    def test_check(self):
        check_stirling_rows(MAX_STIRLING_ROWS)
        with pytest.raises(BudgetExceededError, match="up to 601 exceed"):
            check_stirling_rows(MAX_STIRLING_ROWS + 1)

    def test_ensure_refuses_before_growing(self, refuse_growth):
        table = StirlingTable()
        with pytest.raises(BudgetExceededError):
            table.ensure(MAX_STIRLING_ROWS + 1)
        assert table.max_n == 0

    def test_constructor(self, refuse_growth):
        with pytest.raises(BudgetExceededError):
            StirlingTable(10**9)

    @pytest.mark.parametrize(
        "read",
        [
            lambda n: stirling2(n, 1),
            lambda n: stirling1_unsigned(n, 1),
            lambda n: stirling1_signed(n, 1),
            lambda n: stirling_transform([1] * n),
            stirling1_signed_sums,
        ],
        ids=["stirling2", "stirling1_unsigned", "stirling1_signed",
             "transform", "stirling1_signed_sums"],
    )
    def test_shared_table_readers(self, refuse_growth, read):
        with pytest.raises(BudgetExceededError):
            read(MAX_STIRLING_ROWS + 1)

    def test_refused_growth_leaves_table_usable(self):
        table = StirlingTable(3)
        with pytest.raises(BudgetExceededError):
            table.ensure(MAX_STIRLING_ROWS + 1)
        assert table.max_n == 3
        assert table.second(5, 2) == 15


class TestStirlingTransform:
    def test_ones_gives_bell_tail(self):
        assert stirling_transform([1, 1, 1]) == [1, 2, 5]

    def test_unit_vector(self):
        assert stirling_transform([1, 0, 0, 0, 0]) == [1, 1, 1, 1, 1]

    def test_zero_sequence(self):
        assert stirling_transform([0] * 6) == [0] * 6

    def test_linearity(self):
        a = [3, -1, 4, 1, -5]
        b = [2, 7, 1, -8, 2]
        combined = stirling_transform([x + y for x, y in zip(a, b)])
        split = [
            x + y
            for x, y in zip(stirling_transform(a), stirling_transform(b))
        ]
        assert combined == split

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stirling_transform([])

    def test_matches_per_entry_sum(self):
        a = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 0, 8]
        assert stirling_transform(a) == [
            sum(stirling2(l, i) * a[i - 1] for i in range(1, l + 1))
            for l in range(1, len(a) + 1)
        ]


class TestStirlingSum:
    """``_stirling_sum`` is sum_{i=0..q} {q brace i} m^(q-i) w_i, the
    one sum behind the closed forms and the transform."""

    @given(data=st.data(), q=st.integers(0, 12), m=st.integers(-5, 5))
    def test_matches_per_entry_sum(self, data, q, m):
        w = data.draw(st.lists(st.integers(-10**20, 10**20),
                               min_size=q + 1, max_size=q + 1))
        assert _stirling_sum(q, m, w) == sum(
            stirling2(q, i) * m ** (q - i) * w[i] for i in range(q + 1)
        )

    def test_refused_past_row_cap(self, refuse_growth):
        with pytest.raises(BudgetExceededError):
            _stirling_sum(MAX_STIRLING_ROWS + 1, 2, [])
