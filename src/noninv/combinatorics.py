"""Exact combinatorial primitives over arbitrary-precision integers.

Binomial and multinomial coefficients, Stirling numbers of both kinds,
and the Stirling transform.  Out-of-range (n, k) pairs return 0 rather
than raising, which is the convention every summation in this package
relies on.
"""

from __future__ import annotations

import math
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, NegativePartError

__all__ = [
    "binomial",
    "multinomial",
    "MAX_STIRLING_ROWS",
    "StirlingTable",
    "check_stirling_rows",
    "stirling2",
    "stirling1_unsigned",
    "stirling1_signed",
    "stirling2_row",
    "stirling1_rows",
    "stirling1_signed_sums",
    "stirling_transform",
]


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts_1! * ... * parts_m!) if the parts sum to n, else 0.

    This is the number of functions from an n-set onto m indexed blocks
    with prescribed block sizes.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for p in parts:
        if p < 0:
            raise NegativePartError(f"parts must be >= 0, got {p}")
    if sum(parts) != n:
        return 0
    result = 1
    remaining = n
    for p in parts:
        result *= math.comb(remaining, p)
        remaining -= p
    return result


# Row n of either kind holds n + 1 integers of up to log2(n!) bits, so a
# table of both kinds to row N holds about N^2 of them: to row 600 it
# takes about 0.2 s and 100 MiB (CPython 3.11, one core).
MAX_STIRLING_ROWS = 600


def check_stirling_rows(n: int) -> None:
    """Refuse a Stirling table past row ``MAX_STIRLING_ROWS``."""
    if n > MAX_STIRLING_ROWS:
        raise BudgetExceededError(
            f"Stirling rows up to {n} exceed the cap of "
            f"{MAX_STIRLING_ROWS} rows"
        )


class StirlingTable:
    """Memoized triangles of Stirling numbers of both kinds.

    Rows are grown lazily, whole rows at a time, and each kind only once
    it is read: reading entry (n, k) or row n of one kind materializes
    that kind's rows up to n and builds no row of the other.  Row n+1
    of each kind is built from row n in one ``map`` over the row and its
    shift, by the recurrences {n+1, k} = k{n, k} + {n, k-1} and
    [n+1, k] = n[n, k] + [n, k-1].  ``ensure`` is the only place rows
    grow: it grows every kind in use, those read past the rows they
    hold, and both kinds of a table no read has used yet (such as one
    built with ``max_n`` > 0), in row order, one row of each kind in
    use per turn.  It refuses rows past
    ``MAX_STIRLING_ROWS`` before building any.  Growth takes no lock,
    so threads may share a table only for rows that ``ensure`` has
    already built.  Hot loops read whole rows (``second_row``,
    ``first_rows``) and index the tuples, so they pay one ``ensure`` per
    row or per triangle, not per entry.  ``first_signed_sums`` keeps the
    sum of each signed first-kind row, taken the first time it is read.
    """

    def __init__(self, max_n: int = 0):
        # row n holds entries k = 0..n
        self._second: list[tuple[int, ...]] = [(1,)]
        self._first: list[tuple[int, ...]] = [(1,)]
        # entry i is sum_{j=1..i} s(i, j), an empty sum at i = 0
        self._first_sums: list[int] = [0]
        # the kinds ensure grows, and the last row all of them hold
        self._grows_second = self._grows_first = False
        self._rows = 0
        self.ensure(max_n)

    @property
    def max_n(self) -> int:
        """The last row that every kind in use holds."""
        return self._rows

    def ensure(self, n: int) -> None:
        """Materialize every kind in use up to row n: both kinds if no
        read has used either yet."""
        if n <= self._rows:
            return
        check_stirling_rows(n)
        if not (self._grows_second or self._grows_first):
            self._grows_second = self._grows_first = True
        second, first = self._second, self._first
        # each turn adds row row_n + 1 to every kind in use that lacks it
        start = min(len(second) if self._grows_second else n + 1,
                    len(first) if self._grows_first else n + 1)
        for row_n in range(start - 1, n):
            if self._grows_second and len(second) == row_n + 1:
                prev = second[row_n]
                # entry k pairs row n at k (padded with a trailing 0)
                # with row n at k - 1 (shifted by a leading 0)
                second.append(tuple(map(
                    add,
                    map(mul, range(row_n + 2), prev + (0,)),
                    (0,) + prev,
                )))
            if self._grows_first and len(first) == row_n + 1:
                prev = first[row_n]
                first.append(tuple(map(
                    add, map(row_n.__mul__, prev + (0,)), (0,) + prev
                )))
        self._rows = n

    def _grown(self, second: bool, n: int) -> list[tuple[int, ...]]:
        """One kind's rows, grown to row n through ``ensure``: a kind
        that lacks row n comes into use, so that ``ensure`` grows it."""
        rows = self._second if second else self._first
        if n < len(rows):
            # a held row: ensure sees only rows every kind in use holds,
            # so the read builds no row of the other kind
            n = min(n, self._rows)
        else:
            if second:
                self._grows_second = True
            else:
                self._grows_first = True
            self._rows = min(self._rows, len(rows) - 1)
        self.ensure(n)
        return rows

    def second(self, n: int, k: int) -> int:
        """{n brace k}: partitions of an n-set into k nonempty blocks."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if k < 0 or k > n:
            return 0
        return self.second_row(n)[k]

    def first_unsigned(self, n: int, k: int) -> int:
        """[n brack k]: permutations of n elements with k cycles."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if k < 0 or k > n:
            return 0
        return self.first_row(n)[k]

    def first_signed(self, n: int, k: int) -> int:
        """s(n, k) = (-1)^(n-k) * [n brack k]."""
        value = self.first_unsigned(n, k)
        return -value if (n - k) % 2 else value

    def second_row(self, n: int) -> tuple[int, ...]:
        """({n brace 0}, ..., {n brace n})."""
        return self._grown(True, n)[n]

    def first_row(self, n: int) -> tuple[int, ...]:
        """([n brack 0], ..., [n brack n])."""
        return self._grown(False, n)[n]

    def first_rows(self, n: int) -> list[tuple[int, ...]]:
        """Rows 0..n of the unsigned first kind, through one ``ensure``."""
        return self._grown(False, n)[: n + 1]

    def first_signed_sums(self, n: int) -> list[int]:
        """(a_0, ..., a_n), a_i = sum_{j=1..i} s(i, j): the signed first
        kind summed along row i, with a_0 = 0 (an empty sum).

        Each a_i is summed once per table from row i; later calls copy
        the memo.  Growth takes no lock, as in ``ensure``.
        """
        sums = self._first_sums
        if n >= len(sums):
            rows = self._grown(False, n)
            for i in range(len(sums), n + 1):
                row = rows[i]
                # s(i, j) has the sign of (-1)^(i-j); [i brack 0] = 0
                sums.append(sum(row[i::-2]) - sum(row[i - 1::-2]))
        return sums[: n + 1]


_SHARED = StirlingTable()


def stirling2(n: int, k: int) -> int:
    return _SHARED.second(n, k)


def stirling1_unsigned(n: int, k: int) -> int:
    return _SHARED.first_unsigned(n, k)


def stirling1_signed(n: int, k: int) -> int:
    return _SHARED.first_signed(n, k)


def stirling2_row(n: int) -> tuple[int, ...]:
    return _SHARED.second_row(n)


def stirling1_rows(n: int) -> list[tuple[int, ...]]:
    return _SHARED.first_rows(n)


def stirling1_signed_sums(n: int) -> list[int]:
    return _SHARED.first_signed_sums(n)


def _stirling_sum(q: int, m: int, w: Optional[Iterable[int]] = None) -> int:
    """sum_{i=0..q} {q brace i} m^(q-i) w_i, w = (w_0, w_1, ...): the
    Stirling double sum of every closed form, given its inner sums w_i
    ({q brace 0} = 0 for q >= 1, so w_0 only aligns the indices).
    Without w, the falling-factorial mode: sum_{i=0..q} {q brace i}
    (m)_i, where (m)_i = m(m-1)...(m-i+1).

    One ``ensure`` for row q and one product per entry: Horner in m, or
    at m = 1 a dot product, which stops at the shorter of row and w.
    The falling-factorial mode is nested Horner from the last entry,
    m({q brace 1} + (m-1)({q brace 2} + ...)) plus {q brace 0}: each
    step multiplies the running sum by the small m - i, where the
    (m)_i themselves grow to q log q bits.
    """
    row = _SHARED.second_row(q)
    if w is None:
        total = 0
        for i in range(q, -1, -1):
            total = total * (m - i) + row[i]
        return total
    if m == 1:
        return sum(map(mul, row, w))
    total = 0
    for s, w_i in zip(row, w):
        total = total * m + s * w_i
    return total


def stirling_transform(a: Sequence[int]) -> list[int]:
    """b_l = sum_{i=1..l} {l brace i} * a_i, one-indexed, same length as a."""
    if len(a) == 0:
        raise ValueError("sequence must have length >= 1")
    # the last row first: one ensure, which refuses before any growth
    _SHARED.second_row(len(a))
    w = (0, *a)
    return [_stirling_sum(l, 1, w) for l in range(1, len(a) + 1)]
