"""Seeded sampling: stream contract, determinism, statistical sanity."""

import functools
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from fractions import Fraction
from math import comb
from itertools import islice, product

import pytest

from noninv import (
    BLOCK_SAMPLES,
    MAX_DRAWS,
    BudgetExceededError,
    ChainSpec,
    EmptySetError,
    InvalidSizeError,
    SamplerConfig,
    SplitMix64,
    convergence_table,
    derived_stream,
    enumerate_functions,
    estimate_expected_degree_chain,
    estimate_max_fiber_mean,
    sample_function,
)
from noninv import montecarlo
from noninv.montecarlo import _chain_block, _maxfiber_block, _mean_and_error

_GAMMA_INVERSE = pow(0x9E3779B97F4A7C15, -1, 1 << 64)


def words_between(start: int, end: int) -> int:
    """SplitMix64 words consumed between two states of one stream: each
    word adds the golden gamma to the state."""
    return ((end - start) * _GAMMA_INVERSE) % (1 << 64)


def reference_rule(bound):
    """Unit width and threshold of stream contract 5: the smallest w of
    8, 16, 32 and 64 with bound <= 2^w, and 2^w - (2^w mod bound)."""
    width = next(w for w in (8, 16, 32, 64) if bound <= 2**w)
    return width, 2**width - 2**width % bound


def units_per_word(bound):
    return 64 // reference_rule(bound)[0]


def reference_units(stream, width):
    """Endless ``width``-bit units of ``stream``, from ``next_word``,
    shifts and masks alone: each word's units, low bits first."""
    while True:
        word = stream.next_word()
        for shift in range(0, 64, width):
            yield word >> shift & (1 << width) - 1


def reference_draws(stream, bound):
    """Endless draws below ``bound`` under stream contract 5: u mod
    bound for every unit u of ``reference_units`` below the threshold.
    The stream is left after the word of the last draw taken."""
    width, threshold = reference_rule(bound)
    for unit in reference_units(stream, width):
        if unit < threshold:
            yield unit % bound


def reference_draw(stream, bound, count):
    """``count`` draws below ``bound`` in one call (as ``randbelow`` and
    ``sample_function`` make them): the units of the last word past the
    last draw are dropped."""
    return list(islice(reference_draws(stream, bound), count))


def reference_streams(seed, block, bounds):
    """Block ``block``'s SplitMix64 stream for each bound: the stream
    derived with index b from the block's stream."""
    start = derived_stream(seed, block)._state
    return {b: derived_stream(start, b) for b in bounds}


def reference_chain_block(sizes, seed, block, count):
    """Stream contract 5 through ``reference_draws``: f_1 on all of X_1,
    each later map only on the image points of the partial composition,
    in order of first appearance, every draw below a bound from that
    bound's stream.  Returns the block's (total, total_sq) and each
    bound's SplitMix64 stream after its last draw."""
    streams = reference_streams(seed, block, sizes[1:])
    draws = {b: reference_draws(s, b) for b, s in streams.items()}
    total = total_sq = 0
    for _ in range(count):
        g = [next(draws[sizes[1]]) for _ in range(sizes[0])]
        for m in sizes[2:]:
            image_of = {y: next(draws[m]) for y in dict.fromkeys(g)}
            g = [image_of[y] for y in g]
        s_val = sum(c * c for c in Counter(g).values())
        total += s_val
        total_sq += s_val * s_val
    return (total, total_sq), streams


def reference_maxfiber_block(n, seed, block, count):
    """Max-fiber samples under stream contract 5: n draws below n each,
    from the one stream of the block."""
    draws = reference_draws(reference_streams(seed, block, [n])[n], n)
    total = total_sq = 0
    for _ in range(count):
        m_val = max(Counter(next(draws) for _ in range(n)).values())
        total += m_val
        total_sq += m_val * m_val
    return total, total_sq


def record_rounds(monkeypatch):
    """Record every ``_accepted`` call, the one rejection every draw
    passes through, as (bound, words, state in, state out)."""
    calls = []
    accepted = montecarlo._accepted

    def recording(state, bound, words):
        end = (state + words * montecarlo._GAMMA) % (1 << 64)
        calls.append((bound, words, state, end))
        return accepted(state, bound, words)

    monkeypatch.setattr(montecarlo, "_accepted", recording)
    return calls


def words_per_bound(calls):
    """SplitMix64 words the recorded rounds read, per bound."""
    words = Counter()
    for bound, count, _, _ in calls:
        words[bound] += count
    return words


def batches_of(monkeypatch, words):
    """Make every stream draw ``words`` words per batch."""
    monkeypatch.setattr(
        montecarlo, "_batch_sizes", lambda draws: dict.fromkeys(draws, words)
    )


LANES = montecarlo._LANES


def image_only_pmf(sizes):
    """Exact pmf of S = sum of squared fiber sizes of the composition
    under the image-only draw order, by enumerating every draw sequence:
    n_1 values below n_2, then one value per image point."""
    pmf = Counter()

    def level(g, s, p):
        if s == len(sizes) - 1:
            pmf[sum(c * c for c in Counter(g).values())] += p
            return
        pts = list(dict.fromkeys(g))
        q = p / sizes[s + 1] ** len(pts)
        for values in product(range(sizes[s + 1]), repeat=len(pts)):
            image_of = dict(zip(pts, values))
            level([image_of[y] for y in g], s + 1, q)

    for g in product(range(sizes[1]), repeat=sizes[0]):
        level(list(g), 1, Fraction(1, sizes[1] ** sizes[0]))
    return pmf


def all_chains_pmf(sizes):
    """Exact pmf of S over every chain of functions, uniformly."""
    levels = [
        [f.images for f in enumerate_functions(n, m)]
        for n, m in zip(sizes, sizes[1:])
    ]
    counts = Counter()
    for chain in product(*levels):
        g = chain[0]
        for f in chain[1:]:
            g = [f[y] for y in g]
        counts[sum(c * c for c in Counter(g).values())] += 1
    chains = sum(counts.values())
    return {s: Fraction(c, chains) for s, c in counts.items()}


class TestBatches:
    # each stream is drawn in batches of all accepted units of whole
    # words; the batch size must not change a single draw, so one-word
    # and 500-word batches give the same reports as the default sizes
    CASES = [
        (estimate_expected_degree_chain, (30, 20, 10)),
        (estimate_expected_degree_chain, (7, 5)),
        (estimate_expected_degree_chain, (50, 3, 50, 2)),
        (estimate_expected_degree_chain, (20,) * 20),
        (estimate_expected_degree_chain, (9, 300, 70000, 2**33)),
        (estimate_max_fiber_mean, 30),
        (estimate_max_fiber_mean, 7),
        (estimate_max_fiber_mean, 6),
        (estimate_max_fiber_mean, 257),
    ]

    @staticmethod
    def report(estimate, size):
        # two blocks, the second one partly filled
        if estimate is estimate_max_fiber_mean:
            return estimate(size, SamplerConfig(seed=11, samples=1500))
        return estimate(
            SamplerConfig(seed=11, samples=1500, sizes=ChainSpec(size))
        )

    @pytest.mark.parametrize("estimate,size", CASES)
    def test_batch_size_changes_nothing(self, monkeypatch, estimate, size):
        default = self.report(estimate, size)
        for words in (1, 3, 500):
            with monkeypatch.context() as patch:
                batches_of(patch, words)
                assert self.report(estimate, size) == default, words

    @pytest.mark.parametrize("n", [7, 30, 6, 257, 10**4])
    def test_maxfiber_matches_reference(self, monkeypatch, n):
        # 8 bytes a word below 257, rejected below 7 and 30 (256 mod 7
        # = 4 and 256 mod 30 = 16), so samples start inside words; below
        # 257 and 10^4 four 16-bit units a word; 10^4 takes about 2,731
        # words a sample
        count = 3 if n == 10**4 else 40
        expected = reference_maxfiber_block(n, 11, 2, count)
        assert _maxfiber_block(n, 11, 2, count) == expected
        batches_of(monkeypatch, 1)
        assert _maxfiber_block(n, 11, 2, count) == expected

    @pytest.mark.parametrize("n", [3, 7, 1001])
    def test_maxfiber_pieces_add_up(self, monkeypatch, n):
        # samples first..first+count-1 of a block, for a partition of
        # the block into pieces that start at sample 0 and inside the
        # block, most of them inside a word
        whole = reference_maxfiber_block(n, 11, 2, 40)
        for cuts in ([0, 40], [0, 1, 2, 6, 7, 23, 39, 40], [0, 20, 40]):
            pieces = [
                _maxfiber_block(n, 11, 2, end - first, first)
                for first, end in zip(cuts, cuts[1:])
            ]
            assert tuple(map(sum, zip(*pieces))) == whole, cuts
        assert _maxfiber_block(n, 11, 2, 0, 17) == (0, 0)
        head = reference_maxfiber_block(n, 11, 2, 30)
        batches_of(monkeypatch, 1)
        assert _maxfiber_block(n, 11, 2, 10, 30) == (
            whole[0] - head[0], whole[1] - head[1]
        )

    @pytest.mark.parametrize("sizes, batches", [
        # one bound: a whole round, 1,024 words
        ((30, 20), {20: LANES}),
        # below 3 at most 50 draws a sample, below 50 at most 3, below
        # 2 at most 50, of 103: shares of 2^16 units of 8 a word, 3,976
        # words for 3 and 2, cut to one round, and 238 for 50
        ((50, 3, 50, 2), {3: LANES, 50: 238, 2: LANES}),
        ((30,), {30: LANES}),
    ])
    def test_batch_words(self, monkeypatch, sizes, batches):
        calls = record_rounds(monkeypatch)
        if len(sizes) == 1:
            _maxfiber_block(sizes[0], 1, 0, 3)
        else:
            _chain_block(sizes, 1, 0, 3)
        assert {bound: words for bound, words, _, _ in calls} == batches
        assert all(words == batches[bound] for bound, words, _, _ in calls)


class TestBatchCap:
    # all batches of a block together hold at most _DRAW_CHUNK units
    # beyond one word per bound, and every batch at least one word and
    # at most one round
    @staticmethod
    def check_batches(calls):
        words = {}
        for bound, count, _, _ in calls:
            assert 1 <= count <= LANES, (bound, count)
            assert words.setdefault(bound, count) == count, bound
        assert sum(
            count * units_per_word(b) for b, count in words.items()
        ) <= montecarlo._DRAW_CHUNK + sum(map(units_per_word, words))
        return words

    def test_many_distinct_bounds(self, monkeypatch):
        # 2, 3, ..., 401: 399 bounds, at most two draws each a sample,
        # so each stream's share is 2^16 * 2 / 798 = 164 units: 20
        # words of bytes up to 256, 41 of 16-bit units above
        calls = record_rounds(monkeypatch)
        _chain_block(tuple(range(2, 402)), 1, 0, 2)
        words = self.check_batches(calls)
        assert words == {b: 164 // units_per_word(b) for b in range(3, 402)}

    def test_byte_tables_once_per_bound(self):
        # 3, 4, ..., 1501: each bound up to 256 builds its translate
        # tables once, however many blocks read them, and no wider bound
        # holds any
        montecarlo._byte_rule.cache_clear()
        for block in (0, 1):
            _chain_block(tuple(range(2, 1502)), 1, block, 2)
        info = montecarlo._byte_rule.cache_info()
        assert info.misses == info.currsize == 254 and info.hits >= 254

    @pytest.mark.parametrize("sizes", [
        (10**6, 2), (10**6, 3, 10**6, 7), (300_000, 10**4, 5),
    ])
    def test_large_first_set(self, monkeypatch, sizes):
        # the first map's stream takes a whole round, and the others
        # their share of the cap
        calls = record_rounds(monkeypatch)
        _chain_block(sizes, 1, 0, 1)
        batches = self.check_batches(calls)
        assert batches[sizes[1]] == LANES

    def test_large_max_fiber(self, monkeypatch):
        calls = record_rounds(monkeypatch)
        _maxfiber_block(10**6, 1, 0, 1)
        assert self.check_batches(calls) == {10**6: LANES}


class TestSplitMix64:
    def test_reference_vectors(self):
        # first outputs of the public-domain reference with seed 0
        stream = SplitMix64(0)
        assert [stream.next_word() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_word() == SplitMix64(0).next_word()

    def test_randbelow_range(self):
        stream = SplitMix64(123)
        for bound in (1, 2, 7, 50, 10**9):
            for _ in range(200):
                assert 0 <= stream.randbelow(bound) < bound

    @pytest.mark.parametrize("bound", [
        1, 2, 7, 255, 257, 2**16 + 1, 10**9, 2**63 + 1, 2**63 + 5, 2**64,
    ])
    def test_randbelow_matches_reference_rejection(self, bound):
        # one draw per call, each from a fresh word, the rest of which
        # is dropped: same values, same state as the reference
        stream, reference = SplitMix64(77), SplitMix64(77)
        for _ in range(50):
            assert [stream.randbelow(bound)] == reference_draw(
                reference, bound, 1
            )
            assert stream._state == reference._state

    def test_randbelow_guard(self):
        with pytest.raises(InvalidSizeError):
            SplitMix64(0).randbelow(0)

    @pytest.mark.parametrize("bound", [2**64 + 1, 2**65, 10**30])
    def test_bound_above_one_word_refused(self, deadline, bound):
        # no 64-bit unit is below 2^64 - (2^64 mod bound) <= 0: refused,
        # not drawn for ever, and the stream does not move
        stream = SplitMix64(1)
        with pytest.raises(InvalidSizeError, match="must be <= 2\\^64"):
            stream.randbelow(bound)
        assert stream._state == 1

    def test_derived_streams_differ(self):
        words = {derived_stream(42, i).next_word() for i in range(100)}
        assert len(words) == 100

    def test_derived_stream_is_master_output(self):
        master = SplitMix64(42)
        outputs = [master.next_word() for _ in range(3)]
        for i, word in enumerate(outputs):
            assert derived_stream(42, i)._state == word


# every bound at an edge of a unit width, and some between
CONTRACT_BOUNDS = [
    1, 2, 3, 7, 20, 50, 255, 256, 257, 10**4, 2**16 - 1, 2**16, 2**16 + 1,
    2**32 - 1, 2**32, 2**32 + 1, 2**63 + 5, 2**64,
]


class TestDrawContract:
    @pytest.mark.parametrize("bound", CONTRACT_BOUNDS)
    def test_unit_rule(self, bound):
        width, threshold = montecarlo._unit_rule(bound)
        assert (width, threshold) == reference_rule(bound)
        assert bound <= 2**width and (width == 8 or bound > 2 ** (width // 2))
        # the largest multiple of the bound that fits in w bits
        assert threshold % bound == 0 and 2**width - threshold < bound

    @pytest.mark.parametrize("bound", CONTRACT_BOUNDS)
    def test_draw_matches_reference(self, deadline, bound):
        # values and end state, for counts around one word's units and
        # of 40 words less one unit (rounds of many words), from seeds
        # enough that rejected units come up for the bounds that reject
        # often (7, 50, 257 and 2^16 + 1 reject 2-50% of units)
        k = units_per_word(bound)
        for seed in (0, 1, 5, 2**64 - 1):
            for count in {1, k - 1, k, k + 1, 3 * k + 2, 40 * k - 1} - {0}:
                reference = SplitMix64(seed)
                expected = reference_draw(reference, bound, count)
                state, draws = montecarlo._draw(
                    SplitMix64(seed)._state, bound, count
                )
                assert draws == expected, (seed, count)
                assert state == reference._state, (seed, count)

    def test_calls_start_on_a_fresh_word(self):
        # two calls of 3 draws below 50 read two words, one call of 6
        # reads one (no unit of the first word is rejected at this seed)
        state = SplitMix64(5)._state
        state_a, first = montecarlo._draw(state, 50, 3)
        state_b, second = montecarlo._draw(state_a, 50, 3)
        state_c, both = montecarlo._draw(state, 50, 6)
        assert both[:3] == first and both[3:] != second
        assert words_between(state, state_b) == 2
        assert words_between(state, state_c) == 1

    @pytest.mark.parametrize("bound, cell", [
        # 8 units a word, 1 in 256 rejected; 4 units, 64 in 2^16; 2
        # units, none rejected: a draw d is in cell d // cell of three
        (3, 1), (300, 100), (3 << 20, 1 << 20),
    ])
    def test_units_independent_at_every_offset(self, bound, cell):
        # pairs (c_i, c_{i+1}) of the cells of units i and i + 1, for
        # the units at each offset in a word in turn; the last offset
        # pairs a word's last unit with the next word's first.  Pairs at
        # one offset come from disjoint units, so each offset gives a
        # chi-square on 8 degrees of freedom, below 26.12 (p = 0.001) at
        # this seed.  The draws are the reference's accepted units
        width, threshold = reference_rule(bound)
        k, words = 64 // width, 3000
        units = list(islice(reference_units(SplitMix64(31), width), k * words))
        draws = [u % bound for u in units if u < threshold]
        assert montecarlo._draw(SplitMix64(31)._state, bound, len(draws))[
            1
        ] == draws
        for offset in range(k):
            pairs = Counter(
                (a % bound // cell, b % bound // cell)
                for a, b in zip(units[offset::k], units[offset + 1::k])
                if a < threshold and b < threshold
            )
            samples = sum(pairs.values())
            assert samples >= 0.98 * (words - 1) and len(pairs) == 9, offset
            expected = samples / 9
            chi_square = sum((c - expected) ** 2 / expected
                             for c in pairs.values())
            assert chi_square < 26.12, (offset, chi_square)


def round_sizes(monkeypatch):
    """Record the words of every round ``_mixed_lanes`` mixes."""
    rounds = []
    mixed = montecarlo._mixed_lanes

    def recording(state, n):
        rounds.append(n)
        return mixed(state, n)

    monkeypatch.setattr(montecarlo, "_mixed_lanes", recording)
    return rounds


def lane_words(seed, n):
    """The next n words of the stream at ``seed``, mixed in one round."""
    return list(
        montecarlo._lane_units(montecarlo._mixed_lanes(seed, n), n, 64)
    )


class TestBatchedWords:
    """``_draw`` mixes its words a round at a time in lane-packed ints;
    every draw and every end state must still be the word-at-a-time
    reference's."""

    @pytest.mark.parametrize("n", [1, 2, LANES - 1, LANES])
    def test_words_are_next_words(self, n):
        for seed in (0, 5, (1 << 64) - 1):
            stream = SplitMix64(seed)
            assert lane_words(seed, n) == [
                stream.next_word() for _ in range(n)
            ]

    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_units_on_either_byte_order(self, width):
        # the machine's order reads the reference's units; the other
        # order reads each unit byte-swapped, in the same order.  Bytes
        # are the same on both
        lanes = montecarlo._mixed_lanes(9, 5)
        expected = list(islice(reference_units(SplitMix64(9), width),
                               5 * 64 // width))
        other = "big" if sys.byteorder == "little" else "little"
        native = montecarlo._lane_units(lanes, 5, width)
        swapped = montecarlo._lane_units(lanes, 5, width, other)
        assert list(native) == expected
        size = width // 8
        assert list(swapped) == [
            int.from_bytes(u.to_bytes(size, "little"), "big") for u in expected
        ]

    @staticmethod
    def check(seed, bound, count, monkeypatch):
        """Compare one call with the reference; return the sizes of its
        rounds, which must add up to the words it read: no word is
        mixed past the one that holds the last draw."""
        reference = SplitMix64(seed)
        expected = reference_draw(reference, bound, count)
        with monkeypatch.context() as patch:
            rounds = round_sizes(patch)
            state, draws = montecarlo._draw(seed, bound, count)
        assert draws == expected, (seed, bound, count)
        assert state == reference._state, (seed, bound, count)
        assert sum(rounds) == words_between(seed, state)
        return rounds

    @pytest.mark.parametrize("bound", [129, 2**15 + 1, 2**31 + 1, 2**63 + 1])
    def test_half_the_units_rejected(self, deadline, monkeypatch, bound):
        # about half of the units are rejected, so a call takes several
        # rounds, the first of the words the draws need if every unit
        # is accepted, and past _LANES words a round is cut to _LANES
        k = units_per_word(bound)
        for seed, count in [(1, 1), (2, 7), (3, 100), (4, (LANES + 300) * k)]:
            rounds = self.check(seed, bound, count, monkeypatch)
            assert len(rounds) > (count > 1)
            assert rounds[0] == min(-(-count // k), LANES)

    def test_count_zero(self):
        for bound in (1, 20, 2**64):
            assert montecarlo._draw(123, bound, 0) == (123, [])

    @pytest.mark.parametrize("bound", [1, 20, 2**16, 2**64])
    @pytest.mark.parametrize("words", [LANES - 1, LANES, LANES + 1])
    def test_rounds_around_the_lane_count(
        self, deadline, monkeypatch, bound, words
    ):
        # whole words' units: below 1, 2^16 and 2^64 every unit is
        # accepted, so the call is one round of words < _LANES, one of
        # _LANES, or one of _LANES and one of a single word; below 20
        # some units are rejected and more rounds follow
        rounds = self.check(
            6, bound, words * units_per_word(bound), monkeypatch
        )
        assert rounds[0] == min(words, LANES)
        if bound != 20:
            assert rounds == [min(words, LANES)] + [1] * (words > LANES)

    def test_sample_function(self):
        # past _LANES words, and with about half the units rejected
        # (randbelow's draws are checked in TestSplitMix64)
        for n, m in [(LANES * 14 + 5, 20), (3000, 2**15 + 1),
                     (3000, 2**63 + 1)]:
            stream, reference = SplitMix64(42), SplitMix64(42)
            f = sample_function(n, m, stream)
            assert list(f.images) == reference_draw(reference, m, n)
            assert stream._state == reference._state


class TestSkip:
    """``_skip`` passes over the first draws of a stream without making
    them; a ``_draw`` from where it stops, less the draws it says to
    drop, reads on where one long ``_draw`` would."""

    @staticmethod
    def check(seed, bound, count, monkeypatch, more=5):
        """Compare a skip and a draw with one draw and with the
        word-at-a-time reference; return the sizes of the skip's rounds
        and the draws it leaves to drop."""
        with monkeypatch.context() as patch:
            rounds = round_sizes(patch)
            state, drop = montecarlo._skip(seed, bound, count)
        # the words passed hold count - drop accepted units, and at most
        # one word's units are left to drop
        width, threshold = reference_rule(bound)
        words = words_between(seed, state)
        units = islice(reference_units(SplitMix64(seed), width),
                       words * 64 // width)
        assert sum(u < threshold for u in units) == count - drop
        assert 0 <= drop <= 64 // width
        reference = SplitMix64(seed)
        expected = reference_draw(reference, bound, count + more)[count:]
        end, tail = montecarlo._draw(state, bound, drop + more)
        assert tail[drop:] == expected and end == reference._state
        # no word is mixed past the last one passed
        assert sum(rounds) == words
        return rounds, drop

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 8 * 7 + 5, 8 * 40])
    def test_half_the_bytes_rejected(self, deadline, monkeypatch, count):
        # below 129 a word holds 8 bytes and about half are rejected, so
        # a skip of several words takes several rounds; up to 8 draws
        # pass no word, and every round passes only whole words
        for seed in range(8):
            rounds, drop = self.check(seed, 129, count, monkeypatch)
            assert (rounds == []) == (count <= 8)
            assert all(r <= (count - 1) // 8 for r in rounds)

    @pytest.mark.parametrize("bound", [
        2, 7, 255, 256, 257, 1001, 10**4, 2**16 - 1, 2**16, 2**16 + 1,
        2**32, 2**32 + 1, 2**63 + 1, 2**64,
    ])
    def test_skips_inside_and_at_word_edges(
        self, deadline, monkeypatch, bound
    ):
        # 0 draws; a word's units less one, all of them and one more;
        # several words and a half.  Below 2, 256, 2^16, 2^32 and 2^64
        # no unit is rejected, so a skip of whole words ends on a word's
        # edge and leaves a full word's units to drop
        k = units_per_word(bound)
        for seed in (1, 2, 3):
            for count in (0, k - 1, k, k + 1, 5 * k, 5 * k + k // 2):
                _, drop = self.check(seed, bound, count, monkeypatch)
                if count == 0:
                    assert drop == 0
        if reference_rule(bound)[1] == 2 ** (64 // k):
            assert self.check(4, bound, 5 * k, monkeypatch)[1] == k

    def test_more_than_one_round(self, deadline, monkeypatch):
        # more words than one round mixes: the first rounds are _LANES
        # words, and later ones a word less than the draws still
        # missing need if every unit is accepted
        for bound in (129, 2**15 + 1, 2**63 + 1):
            k = units_per_word(bound)
            count = (2 * LANES + 300) * k + 1
            rounds, _ = self.check(5, bound, count, monkeypatch)
            assert rounds[:2] == [LANES, LANES] and len(rounds) > 3


class TestSampleFunction:
    def test_images_are_contract_draws(self):
        reference = SplitMix64(8)
        f = sample_function(30, 20, SplitMix64(8))
        assert list(f.images) == reference_draw(reference, 20, 30)
    def test_shape(self):
        f = sample_function(5, 3, SplitMix64(1))
        assert f.domain_size == 5 and f.codomain_size == 3

    def test_degenerate_codomain(self):
        for seed in range(10):
            f = sample_function(4, 1, SplitMix64(seed))
            assert f.images == (0, 0, 0, 0)

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (0, -1)])
    def test_empty_codomain_refused(self, n, m):
        with pytest.raises(InvalidSizeError):
            sample_function(n, m, SplitMix64(1))

    def test_empty_domain_refused(self):
        with pytest.raises(EmptySetError):
            sample_function(0, 3, SplitMix64(1))

    def test_deterministic(self):
        assert sample_function(6, 4, SplitMix64(99)) == sample_function(
            6, 4, SplitMix64(99)
        )

    def test_uniformity_chi_square(self):
        # 4e4 draws of a (2, 2) function: each of the 4 functions should
        # appear with frequency 0.25 +- 0.01 at this pinned seed
        stream = SplitMix64(2024)
        samples = 40_000
        counts = Counter(
            sample_function(2, 2, stream).images for _ in range(samples)
        )
        assert set(counts) == set(product(range(2), repeat=2))
        for images in counts:
            assert abs(counts[images] / samples - 0.25) <= 0.01


class TestEstimateChain:
    def test_bitwise_determinism(self):
        config = SamplerConfig(seed=7, samples=4000, sizes=ChainSpec((3, 3, 3)))
        assert estimate_expected_degree_chain(
            config
        ) == estimate_expected_degree_chain(config)

    def test_block_order_invariance(self):
        # each block's stream depends only on (seed, block), so the block
        # sums taken in reverse order add up to the same report
        sizes, seed, samples = (2, 2), 11, 5000
        config = SamplerConfig(seed=seed, samples=samples, sizes=ChainSpec(sizes))
        blocks = range(-(-samples // BLOCK_SAMPLES))
        sums = [
            _chain_block(
                sizes, seed, b, min(BLOCK_SAMPLES, samples - b * BLOCK_SAMPLES)
            )
            for b in reversed(blocks)
        ]
        mean, std_error = _mean_and_error(
            sum(s for s, _ in sums), sum(sq for _, sq in sums), samples, sizes[0]
        )
        report = estimate_expected_degree_chain(config)
        assert len(sums) == 5
        assert report.mean == float(mean)
        assert report.std_error == std_error

    @pytest.mark.parametrize("sizes", [
        (5, 3, 4, 2, 6), (7, 1, 5, 5), (50, 3, 50, 2), (20,) * 20,
        (9, 300, 70000, 2**33),
    ])
    def test_matches_public_sampling_api(self, monkeypatch, sizes):
        # the block loop must draw what reference_draws, on the public
        # next_word and derived_stream, draws under stream contract 5;
        # with one-word batches each stream also reads exactly the words
        # up to the one of its last draw, as the lazy reference does
        seed, block = 5, 3
        for count in (BLOCK_SAMPLES, 37):
            ref_sums, streams = reference_chain_block(
                sizes, seed, block, count
            )
            assert _chain_block(sizes, seed, block, count) == ref_sums
            with monkeypatch.context() as patch:
                batches_of(patch, 1)
                calls = record_rounds(patch)
                assert _chain_block(sizes, seed, block, count) == ref_sums
            assert {words for _, words, _, _ in calls} == {1}
            words = words_per_bound(calls)
            start = derived_stream(seed, block)._state
            for bound, stream in streams.items():
                assert [end for b, _, _, end in calls if b == bound][-1] == (
                    stream._state
                ), (count, bound)
                assert words[bound] == words_between(
                    derived_stream(start, bound)._state, stream._state
                ), (count, bound)

    @staticmethod
    def expected_draws(sizes):
        """Exact mean draws of a chain sample: n_1, then one per image
        point of each partial composition.  k points map onto j of m
        with probability C(m, j) surj(k, j) / m^k."""

        def surjections(k, j):
            return sum((-1) ** i * comb(j, i) * (j - i) ** k
                       for i in range(j + 1))

        points = {sizes[0]: Fraction(1)}
        total = Fraction(0)
        for m in sizes[1:]:
            total += sum(k * p for k, p in points.items())
            image = Counter()
            for k, p in points.items():
                for j in range(1, min(k, m) + 1):
                    image[j] += p * comb(m, j) * surjections(k, j) / m**k
            points = image
        return total

    @pytest.mark.parametrize("sizes, words", [
        ((20,) * 20, 14.0), ((50, 50, 50, 50), 13.5),
    ])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_words_per_sample(self, monkeypatch, sizes, words, seed):
        # a sample of either chain makes about 105 draws (105.0 below
        # 20, 105.5 below 50), 8 units a word, and a unit is accepted
        # with probability 240/256 below 20 and 250/256 below 50: 14.0
        # and 13.5 words.  One-word batches read no word past a block's
        # last draw.  Under stream contract 4 (14 and 11 digits a word,
        # whole words rejected) a sample read 7.7 and 12.1 words
        width, threshold = reference_rule(sizes[1])
        expected = self.expected_draws(sizes) / (
            64 // width * Fraction(threshold, 2**width)
        )
        assert round(float(expected), 1) == words
        calls = record_rounds(monkeypatch)
        batches_of(monkeypatch, 1)
        _chain_block(sizes, seed, 0, BLOCK_SAMPLES)
        read = sum(words_per_bound(calls).values()) / BLOCK_SAMPLES
        assert abs(read - expected) <= 0.01 * expected

    def test_image_only_draws_have_the_chain_law(self):
        # drawing each later map only on the image of the partial
        # composition leaves the law of S unchanged, for every chain
        # with sizes in 1..3 and length 2..4
        for length in (2, 3, 4):
            for sizes in product((1, 2, 3), repeat=length):
                assert image_only_pmf(sizes) == all_chains_pmf(sizes), sizes

    def test_degenerate_chain(self):
        config = SamplerConfig(
            seed=1, samples=500, sizes=ChainSpec((1, 1, 1))
        )
        report = estimate_expected_degree_chain(config)
        assert report.mean == 1.0
        assert report.std_error == 0.0
        assert report.closed_form == 1
        assert report.z_score is None

    def test_z_score_within_four_sigma(self):
        config = SamplerConfig(
            seed=42, samples=10_000, sizes=ChainSpec((2, 2))
        )
        report = estimate_expected_degree_chain(config)
        assert report.closed_form == Fraction(3, 2)
        assert report.std_error > 0
        assert abs(report.z_score) <= 4

    def test_z_score_definition(self):
        config = SamplerConfig(
            seed=3, samples=2000, sizes=ChainSpec((3, 3))
        )
        report = estimate_expected_degree_chain(config)
        expected_z = (
            report.mean - float(report.closed_form)
        ) / report.std_error
        assert report.z_score == pytest.approx(expected_z, rel=1e-12)

    def test_requires_sizes(self):
        with pytest.raises(InvalidSizeError):
            estimate_expected_degree_chain(SamplerConfig(seed=1, samples=10))


class TestEstimateMaxFiber:
    def test_small_n_guard(self):
        with pytest.raises(InvalidSizeError):
            estimate_max_fiber_mean(1, SamplerConfig(seed=1, samples=10))
        with pytest.raises(InvalidSizeError):
            estimate_max_fiber_mean(2, SamplerConfig(seed=1, samples=10))

    def test_against_exhaustive_n3(self):
        # exact E[max fiber] over all 27 endofunctions of a 3-set
        exact = Fraction(0)
        for images in product(range(3), repeat=3):
            counts = [0, 0, 0]
            for y in images:
                counts[y] += 1
            exact += max(counts)
        exact /= 27
        assert exact == Fraction(51, 27)

        report = estimate_max_fiber_mean(
            3, SamplerConfig(seed=42, samples=10_000)
        )
        assert report.closed_form is None and report.z_score is None
        assert abs(report.mean - float(exact)) <= 4 * report.std_error

    def test_theta_ratio_recorded(self):
        report = estimate_max_fiber_mean(
            100, SamplerConfig(seed=8, samples=200)
        )
        assert report.theta_ratio is not None
        assert report.theta_ratio > 0

    def test_pinned_stream(self):
        # values of the stream contract, three blocks at seed 5
        report = estimate_max_fiber_mean(7, SamplerConfig(seed=5, samples=3000))
        # (computed from reference_maxfiber_block; stream contract 4
        # gave 2.53 and 0.012200849616108548)
        assert report.mean == 2.4923333333333333
        assert report.std_error == 0.011663007730591998

    def test_deterministic(self):
        config = SamplerConfig(seed=13, samples=1500)
        assert estimate_max_fiber_mean(5, config) == estimate_max_fiber_mean(
            5, config
        )


def refuse_drawing(monkeypatch):
    """Make every draw fail, so a refusal is shown to come first."""

    def no_draw(state, bound, words):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(montecarlo, "_accepted", no_draw)


class TestDrawCap:
    @pytest.mark.parametrize(
        "sizes, samples",
        [((10**9, 2), 1), ((2, 2), 10**12), ((10**200, 2), 1)],
    )
    def test_chain_refused_before_drawing(self, monkeypatch, sizes, samples):
        refuse_drawing(monkeypatch)
        config = SamplerConfig(seed=1, samples=samples, sizes=ChainSpec(sizes))
        with pytest.raises(BudgetExceededError, match=f"cap is {MAX_DRAWS}"):
            estimate_expected_degree_chain(config)

    def test_maxfiber_refused_before_drawing(self, monkeypatch):
        refuse_drawing(monkeypatch)
        with pytest.raises(BudgetExceededError, match="1000000000 random"):
            estimate_max_fiber_mean(10**9, SamplerConfig(seed=1, samples=1))

    @staticmethod
    def record_runs(monkeypatch):
        """Replace the block loop: record the sample counts that pass the
        cap instead of drawing them."""
        ran = []

        def run_blocks(block_fn, samples, per_sample, grain):
            ran.append(samples)
            return 0, 0

        monkeypatch.setattr(montecarlo, "_run_blocks", run_blocks)
        return ran

    def test_chain_bound_is_n1_plus_image_bounds(self, monkeypatch):
        # per sample at most n_1 + min(n_1, n_s) for s = 2..t draws:
        # 10 + 10 + 3 + 10 here; the last size is a codomain only
        ran = self.record_runs(monkeypatch)
        spec = ChainSpec((10, 1000, 3, 1000, 10**6))
        fits = MAX_DRAWS // 33
        estimate_expected_degree_chain(
            SamplerConfig(seed=1, samples=fits, sizes=spec)
        )
        with pytest.raises(BudgetExceededError):
            estimate_expected_degree_chain(
                SamplerConfig(seed=1, samples=fits + 1, sizes=spec)
            )
        assert ran == [fits]

    def test_maxfiber_bound_is_samples_times_n(self, monkeypatch):
        ran = self.record_runs(monkeypatch)
        fits = MAX_DRAWS // 1000
        estimate_max_fiber_mean(1000, SamplerConfig(seed=1, samples=fits))
        with pytest.raises(BudgetExceededError):
            estimate_max_fiber_mean(
                1000, SamplerConfig(seed=1, samples=fits + 1)
            )
        assert ran == [fits]


def use_cpus(monkeypatch, count):
    """Make the affinity mask hold ``count`` CPUs and let runs of any
    size fork; return the list in which every ``os.fork`` call is
    recorded (in the forking process)."""
    monkeypatch.setattr(montecarlo, "_FORK_DRAWS", 0)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )
    forks = []
    fork = os.fork

    def recorded_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", recorded_fork)
    return forks


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def block_failing(monkeypatch, name, failure, where):
    """Make the block function ``name`` of the module raise ``failure``
    in a forked worker (``where`` "worker") or in this process ("here");
    the blocks of the other side sleep for a minute ("here") or run as
    usual."""
    run_here = os.getpid()
    block = getattr(montecarlo, name)

    def failing(*args):
        if (os.getpid() == run_here) == (where == "here"):
            raise failure
        if where == "here":
            time.sleep(60)
        return block(*args)

    monkeypatch.setattr(montecarlo, name, failing)


def cli_env():
    """The environment of a child Python that imports this package."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


# a run on two CPUs whose process exits once its one worker has started;
# the worker writes its pid to {pid_file} and sleeps 50 ms a piece of
# its share, 10 s in all if it does not stop
ORPHAN_SCRIPT = """
import os, time
from noninv import montecarlo
os.sched_getaffinity = lambda pid: {{0, 1}}
run_here, pid_file = os.getpid(), {pid_file!r}

def block_fn(b, count, first):
    if os.getpid() == run_here:
        while not os.path.exists(pid_file):
            time.sleep(0.01)
        os._exit(0)
    if not os.path.exists(pid_file):
        with open(pid_file + ".part", "w") as out:
            out.write(str(os.getpid()))
        os.replace(pid_file + ".part", pid_file)
    time.sleep(0.05)
    return 0, 0

montecarlo._run_blocks(block_fn, {samples}, 1, {grain})
"""

CHAIN_753 = SamplerConfig(seed=4, samples=2048, sizes=ChainSpec((7, 5, 3)))
# one block of max-fiber samples: on two CPUs the worker's share starts
# at sample 500, inside the block and, 8 units a word with 4 in 256
# rejected below 7, most likely inside a word
MAXFIBER_7 = SamplerConfig(seed=4, samples=1000)
# a run of each block function, forked on two CPUs
RUNS = {
    "_chain_block": lambda: estimate_expected_degree_chain(CHAIN_753),
    "_maxfiber_block": lambda: estimate_max_fiber_mean(7, MAXFIBER_7),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestWorkers:
    """Runs dealt in shares to forked workers give the serial report,
    and every worker is reaped on every way out of a run."""

    THREE_BLOCKS = [
        (estimate_expected_degree_chain, (7, 5, 3)),
        (estimate_max_fiber_mean, 7),
    ]
    # one block, split over the workers: below 1001 a word holds four
    # 16-bit units, so most shares start inside a word; below 3 it
    # holds 8 bytes, and 1 in 256 is rejected
    ONE_BLOCK = [
        (estimate_max_fiber_mean, 1001, 100),
        (estimate_max_fiber_mean, 3, 1000),
    ]

    @staticmethod
    def report(estimate, size, samples):
        if estimate is estimate_max_fiber_mean:
            return estimate(size, SamplerConfig(seed=11, samples=samples))
        return estimate(
            SamplerConfig(seed=11, samples=samples, sizes=ChainSpec(size))
        )

    @pytest.mark.parametrize("cpus", [2, 3, 64])
    @pytest.mark.parametrize(
        "estimate,size,samples",
        [(e, s, 1500) for e, s in TestBatches.CASES]
        + [(e, s, 3000) for e, s in THREE_BLOCKS]
        + ONE_BLOCK,
    )
    def test_reports_equal_serial(
        self, monkeypatch, cpus, estimate, size, samples
    ):
        with monkeypatch.context() as patch:
            serial_forks = use_cpus(patch, 1)
            serial = self.report(estimate, size, samples)
        forks = use_cpus(monkeypatch, cpus)
        assert self.report(estimate, size, samples) == serial
        # a max-fiber run is dealt one worker per CPU up to one per
        # sample, a chain run up to one per block
        if estimate is estimate_max_fiber_mean:
            workers = min(cpus, samples)
        else:
            workers = min(cpus, -(-samples // BLOCK_SAMPLES))
        assert (len(serial_forks), len(forks)) == (0, workers - 1)
        assert no_child_left()

    @staticmethod
    def reference_smallest_share(samples, workers, grain):
        """The smallest share of the two dealings the one rule replaced:
        contiguous shares of samples differ by at most one; whole blocks
        dealt round-robin give every worker blocks // workers blocks or
        one more, and the short last block goes to worker (blocks - 1) %
        workers, which holds the fewest only when all hold as many."""
        if grain == 1:
            return samples // workers
        blocks = -(-samples // BLOCK_SAMPLES)
        least = blocks // workers * BLOCK_SAMPLES
        if blocks % workers == 0:
            least -= blocks * BLOCK_SAMPLES - samples
        return least

    @pytest.mark.parametrize("grain", [1, BLOCK_SAMPLES])
    def test_shares_cover_the_run(self, grain):
        # every sample of the run in exactly one piece, in order; every
        # piece starts on a unit's edge, so a block-grain piece has
        # first == 0 (the chain run drops it); shares differ by at most
        # one unit, and the smallest is the one the replaced dealings
        # had, so runs fork as many workers as before
        for samples in (1, 5, 1023, 1024, 1025, 3000, 5 * BLOCK_SAMPLES + 7):
            units = -(-samples // grain)
            for workers in range(1, 1 + min(9, units)):
                shares = [
                    list(montecarlo._pieces(samples, w, workers, grain))
                    for w in range(workers)
                ]
                run = [
                    b * BLOCK_SAMPLES + first + j
                    for share in shares
                    for b, count, first in share
                    for j in range(count)
                ]
                assert run == list(range(samples))
                assert all(
                    (b * BLOCK_SAMPLES + first) % grain == 0
                    for share in shares
                    for b, _, first in share
                )
                sizes = [sum(c for _, c, _ in share) for share in shares]
                assert max(sizes) - min(sizes) <= grain
                assert min(sizes) == self.reference_smallest_share(
                    samples, workers, grain
                )

    @pytest.mark.parametrize("grain", [1, BLOCK_SAMPLES])
    def test_fork_counts_unchanged(self, monkeypatch, grain):
        # _workers, which takes the minimum over the share bounds,
        # forks as many workers as the replaced dealings' smallest
        # share allowed: runs of up to 69 samples and of block
        # multiples plus or minus one, on 2, 3, 4 and 9 CPUs
        gate = montecarlo._FORK_DRAWS
        runs = [*range(1, 70)] + [
            k * BLOCK_SAMPLES + d
            for k in (1, 2, 3, 8, 9, 16, 31, 32, 33, 64, 100)
            for d in (-1, 0, 1)
        ]
        for cpus in (2, 3, 4, 9):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(cpus)),
                raising=False,
            )
            for samples, per_sample in product(runs, (1, 2, 150, 10**4)):
                workers = min(cpus, -(-samples // grain))
                while workers > 1 and self.reference_smallest_share(
                    samples, workers, grain
                ) * per_sample < gate:
                    workers -= 1
                assert (
                    montecarlo._workers(samples, per_sample, grain) == workers
                ), (cpus, samples, per_sample)

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (3, 3), (4, 3)])
    def test_workers_from_affinity(self, monkeypatch, cpus, workers):
        # at most one worker per unit: per block of a block-grain run,
        # per sample of a sample-grain one
        use_cpus(monkeypatch, cpus)
        for grain in (1, BLOCK_SAMPLES):
            assert montecarlo._workers(3 * grain, 1, grain) == workers
            assert montecarlo._workers(grain, 1, grain) == 1

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_small_runs_stay_here(self, monkeypatch, cpus):
        # as many workers as leave the smallest share at least
        # _FORK_DRAWS = 2^15 draws.  --sizes 2,2 draws 2 a sample: at
        # 32,768 samples (32 blocks) two shares of 16 blocks draw 2^15
        # each, three or four draw less; at 32,767 two would draw 2^15
        # - 2.  50,50,50,50 draws at most 150 a sample: at 1,025 samples
        # the second share holds one.  Max-fiber --n 10000: a share of
        # three samples draws 30,000 values, of four 40,000
        gate = montecarlo._FORK_DRAWS
        assert gate == 1 << 15
        forks = use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(montecarlo, "_FORK_DRAWS", gate)
        for sizes, samples, forked in [
            ((2, 2), 32_768, 1),
            ((2, 2), 32_767, 0),
            ((50,) * 4, 1025, 0),
        ]:
            forks.clear()
            estimate_expected_degree_chain(
                SamplerConfig(seed=1, samples=samples, sizes=ChainSpec(sizes))
            )
            assert len(forks) == forked, (sizes, samples)
        assert montecarlo._workers(100, 10**4, 1) == cpus
        assert montecarlo._workers(7, 10**4, 1) == 1
        assert montecarlo._workers(8, 10**4, 1) == 2
        assert montecarlo._workers(15, 10**4, 1) == min(cpus, 3)

    def test_cpu_count_without_affinity(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert montecarlo._workers(5 * BLOCK_SAMPLES, 1, BLOCK_SAMPLES) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._workers(5 * BLOCK_SAMPLES, 1, BLOCK_SAMPLES) == 1

    def test_serial_without_fork(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        serial = estimate_expected_degree_chain(CHAIN_753)
        monkeypatch.delattr(os, "fork")
        assert montecarlo._workers(3 * BLOCK_SAMPLES, 1, BLOCK_SAMPLES) == 1
        assert estimate_expected_degree_chain(CHAIN_753) == serial

    def test_serial_while_a_thread_lives(self, monkeypatch):
        forks = use_cpus(monkeypatch, 4)
        serial = estimate_expected_degree_chain(CHAIN_753)
        assert len(forks) == 1
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert montecarlo._workers(3 * BLOCK_SAMPLES, 1, BLOCK_SAMPLES) == 1
            assert estimate_expected_degree_chain(CHAIN_753) == serial
        finally:
            done.set()
            thread.join()
        assert len(forks) == 1

    def test_serial_when_fork_fails(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        serial = estimate_expected_degree_chain(CHAIN_753)

        def refused():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", refused)
        assert estimate_expected_degree_chain(CHAIN_753) == serial

    @pytest.mark.parametrize("block", RUNS)
    @pytest.mark.parametrize("failure", [
        InvalidSizeError("from a worker"), MemoryError(), KeyboardInterrupt(),
    ])
    def test_worker_error_raised_here(
        self, deadline, monkeypatch, failure, block
    ):
        use_cpus(monkeypatch, 2)
        block_failing(monkeypatch, block, failure, "worker")
        with pytest.raises(type(failure)) as raised:
            RUNS[block]()
        assert raised.value.args == failure.args
        assert no_child_left()

    @pytest.mark.parametrize("block", RUNS)
    def test_killed_worker(self, deadline, monkeypatch, block):
        # a worker killed by a signal writes neither totals nor an error
        use_cpus(monkeypatch, 2)
        run_here = os.getpid()
        run_block = getattr(montecarlo, block)

        def killed(*args):
            if os.getpid() != run_here:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_block(*args)

        monkeypatch.setattr(montecarlo, block, killed)
        killed_status = f"status {-signal.SIGKILL}"
        with pytest.raises(ChildProcessError, match=killed_status):
            RUNS[block]()
        assert no_child_left()

    @pytest.mark.parametrize("block", RUNS)
    @pytest.mark.parametrize("failure", [
        InvalidSizeError("from this process"), KeyboardInterrupt(),
    ])
    def test_own_error_kills_the_workers(
        self, deadline, monkeypatch, failure, block
    ):
        # the worker's block sleeps for a minute; the run must end at
        # once, its worker killed and reaped
        use_cpus(monkeypatch, 2)
        block_failing(monkeypatch, block, failure, "here")
        with pytest.raises(type(failure)):
            RUNS[block]()
        assert no_child_left()

    def test_lane_constants_built_before_forking(self, monkeypatch, tmp_path):
        # the run's process builds the lane constants before its first
        # fork, so a forked run builds them once, there, and its worker
        # inherits them instead of building them again
        log = tmp_path / "built"
        build = montecarlo._lane_constants.__wrapped__

        @functools.cache
        def recorded():
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return build()

        monkeypatch.setattr(montecarlo, "_lane_constants", recorded)
        forks = use_cpus(monkeypatch, 2)
        for name, run in RUNS.items():
            recorded.cache_clear()
            log.write_text("")
            run()
            assert log.read_text() == f"{os.getpid()}\n", name
        assert len(forks) == len(RUNS)
        assert no_child_left()

    def test_mid_block_share(self):
        # the max-fiber worker of RUNS starts inside the block
        assert list(montecarlo._pieces(1000, 1, 2, 1)) == [(0, 500, 500)]

    @pytest.mark.parametrize("grain, pieces", [
        # blocks 2, 3 and 4 of five, the last one short
        (BLOCK_SAMPLES, [(2, 1024, 0), (3, 1024, 0), (4, 904, 0)]),
        # samples 2,500..4,999: from inside block 2 to the end
        (1, [(2, 572, 452), (3, 1024, 0), (4, 904, 0)]),
    ])
    def test_orphaned_share_stops(self, grain, pieces):
        # -1 is neither this process nor its parent, as the run's
        # process is not once it is gone
        ran = []

        def block_fn(b, count, first):
            ran.append((b, count, first))
            return 0, 0

        share = montecarlo._pieces(5000, 1, 2, grain)
        with pytest.raises(ProcessLookupError):
            montecarlo._share(block_fn, share, -1)
        assert ran == []
        share = montecarlo._pieces(5000, 1, 2, grain)
        assert montecarlo._share(block_fn, share, os.getpid()) == (0, 0)
        assert ran == pieces

    # whole blocks, or a worker that starts inside block 200
    @pytest.mark.parametrize("samples, grain", [
        (400 * BLOCK_SAMPLES, BLOCK_SAMPLES), (400 * BLOCK_SAMPLES + 512, 1),
    ])
    def test_orphaned_worker_stops(self, tmp_path, samples, grain):
        # the run's process exits while its worker sleeps through about
        # 200 pieces of 50 ms; the worker must stop at its next piece,
        # which closes the output pipes it inherited and ends
        # subprocess.run
        script = ORPHAN_SCRIPT.format(
            pid_file=str(tmp_path / "worker"), samples=samples, grain=grain
        )
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", script], env=cli_env(),
            capture_output=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert int((tmp_path / "worker").read_text()) > 0
        assert elapsed < 5

    @pytest.mark.parametrize("argv", [
        # whole blocks, about 10 s in one process
        ["chain", "--sizes", "50,50,50,50", "--samples", "600000"],
        # one block, about 25 s in one process; the worker skips half
        # of it, for over a second, before its first sample
        ["maxfiber", "--n", "100000", "--samples", "1000"],
    ])
    def test_interrupted_cli_leaves_no_process(self, argv):
        # Ctrl-C reaches the whole process group, the run and its
        # workers; the run ends as a serial one does, and no process of
        # the group is left
        proc = subprocess.Popen(
            [sys.executable, "-m", "noninv.cli", "simulate", *argv,
             "--seed", "1", "--json"],
            env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            # a cold start takes about 0.1 s
            time.sleep(1)
            os.killpg(proc.pid, signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGINT
        assert out == b""
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestSamplerConfig:
    def test_guards(self):
        with pytest.raises(InvalidSizeError):
            SamplerConfig(seed=-1, samples=10)
        with pytest.raises(InvalidSizeError):
            SamplerConfig(seed=1 << 64, samples=10)
        with pytest.raises(InvalidSizeError):
            SamplerConfig(seed=0, samples=0)


class TestConvergenceTable:
    def test_t1_gaps_are_reciprocals(self):
        for n, value, gap in convergence_table(1, range(1, 30)):
            assert gap == Fraction(1, n)
            assert value == 2 - Fraction(1, n)

    def test_t2_example(self):
        ((n, value, gap),) = convergence_table(2, [10])
        assert value == Fraction(271, 100)
        assert gap == Fraction(29, 100)

    def test_n1_gap_is_t(self):
        for t in range(1, 7):
            ((_, value, gap),) = convergence_table(t, [1])
            assert value == 1
            assert gap == t

    def test_gaps_positive_and_decreasing(self):
        for t in range(1, 7):
            rows = convergence_table(t, range(t + 1, 101))
            gaps = [gap for _, _, gap in rows]
            assert all(g > 0 for g in gaps)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))
