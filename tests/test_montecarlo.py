"""Seeded sampling: stream contract, determinism, statistical sanity."""

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from fractions import Fraction
from itertools import product

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


def reference_digits(bound):
    """Digits per word of stream contracts 3 and 4: the largest k <= 64
    with bound^k <= 2^64 (every power of 1 fits, so 1 takes 64)."""
    return max(k for k in range(1, 65) if bound**k <= 2**64)


def reference_draw(stream, bound, count):
    """``count`` draws below ``bound`` in one call (as ``randbelow`` and
    ``sample_function`` make them), from ``next_word``, ``%`` and ``//``
    alone: a word is accepted below the largest multiple of bound^k that
    fits in 64 bits, and gives its base-``bound`` digits low digit
    first, as many as are still needed."""
    k = reference_digits(bound)
    threshold = 2**64 // bound**k * bound**k
    draws = []
    while len(draws) < count:
        word = stream.next_word()
        if word < threshold:
            for j in range(min(k, count - len(draws))):
                draws.append(word // bound**j % bound)
    return draws


def reference_digit_stream(stream, bound):
    """Endless digits below ``bound`` read from ``stream`` under stream
    contract 4, from ``next_word``, ``%`` and ``//`` alone: every digit
    of every accepted word, low digit first, one word at a time."""
    k = reference_digits(bound)
    threshold = 2**64 // bound**k * bound**k
    while True:
        word = stream.next_word()
        if word < threshold:
            for j in range(k):
                yield word // bound**j % bound


def reference_streams(seed, block, bounds):
    """Block ``block``'s SplitMix64 stream for each bound under stream
    contract 4: the stream derived with index b from the block's
    stream."""
    start = derived_stream(seed, block)._state
    return {b: derived_stream(start, b) for b in bounds}


def reference_chain_block(sizes, seed, block, count):
    """Stream contract 4 through ``reference_digit_stream``: f_1 on all
    of X_1, each later map only on the image points of the partial
    composition, in order of first appearance, every draw below a bound
    from that bound's digit stream.  Returns the block's (total,
    total_sq) and each bound's SplitMix64 stream after its last digit."""
    streams = reference_streams(seed, block, sizes[1:])
    digits = {b: reference_digit_stream(s, b) for b, s in streams.items()}
    total = total_sq = 0
    for _ in range(count):
        g = [next(digits[sizes[1]]) for _ in range(sizes[0])]
        for m in sizes[2:]:
            image_of = {y: next(digits[m]) for y in dict.fromkeys(g)}
            g = [image_of[y] for y in g]
        s_val = sum(c * c for c in Counter(g).values())
        total += s_val
        total_sq += s_val * s_val
    return (total, total_sq), streams


def reference_maxfiber_block(n, seed, block, count):
    """Max-fiber samples under stream contract 4: n digits below n each,
    from the one digit stream of the block."""
    digits = reference_digit_stream(
        reference_streams(seed, block, [n])[n], n
    )
    total = total_sq = 0
    for _ in range(count):
        m_val = max(Counter(next(digits) for _ in range(n)).values())
        total += m_val
        total_sq += m_val * m_val
    return total, total_sq


def record_draws(monkeypatch):
    """Record every ``_draw`` call as (bound, count, state in, state
    out)."""
    calls = []
    draw = montecarlo._draw

    def recording_draw(state, bound, count):
        end, draws = draw(state, bound, count)
        calls.append((bound, count, state, end))
        return end, draws

    monkeypatch.setattr(montecarlo, "_draw", recording_draw)
    return calls


def words_per_bound(calls):
    """SplitMix64 words the recorded draws read, per bound."""
    words = Counter()
    for bound, _, start, end in calls:
        words[bound] += words_between(start, end)
    return words


def batches_of(monkeypatch, words):
    """Make every digit stream draw ``words`` words per batch."""
    monkeypatch.setattr(
        montecarlo,
        "_batch_sizes",
        lambda draws: {b: words * reference_digits(b) for b in draws},
    )


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
    # each digit stream is drawn in batches of whole words; the batch
    # size must not change a single draw, so one-word and 500-word
    # batches give the same reports as the default sizes
    CASES = [
        (estimate_expected_degree_chain, (30, 20, 10)),
        (estimate_expected_degree_chain, (7, 5)),
        (estimate_expected_degree_chain, (50, 3, 50, 2)),
        (estimate_expected_degree_chain, (20,) * 20),
        (estimate_max_fiber_mean, 30),
        (estimate_max_fiber_mean, 7),
        (estimate_max_fiber_mean, 6),
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

    @pytest.mark.parametrize("n", [7, 30, 6, 10**4])
    def test_maxfiber_matches_reference(self, monkeypatch, n):
        # k = 22 digits below 7 and 13 below 30 do not divide n, so
        # samples start inside words; 6^24 fits and k = 24 divides
        # 4 * 6; 10^4 takes 2,500 whole words a sample
        count = 3 if n == 10**4 else 40
        expected = reference_maxfiber_block(n, 11, 2, count)
        assert _maxfiber_block(n, 11, 2, count) == expected
        batches_of(monkeypatch, 1)
        assert _maxfiber_block(n, 11, 2, count) == expected

    @pytest.mark.parametrize("n", [3, 7, 1001])
    def test_maxfiber_pieces_add_up(self, monkeypatch, n):
        # samples first..first+count-1 of a block, for a partition of
        # the block into pieces that start at sample 0, inside a word
        # and on a word's edge (below 1001, 6 digits a word: sample 6
        # starts at digit 6006, a word's first)
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
        # 30 draws below 20, 14 digits a word: three words a batch
        ((30, 20), {20: 42}),
        # below 3 50 draws (40 a word), below 50 at most 3 (11 a word),
        # below 2 at most 50 (64 a word)
        ((50, 3, 50, 2), {3: 80, 50: 11, 2: 64}),
        ((30,), {30: 39}),
    ])
    def test_batches_hold_one_sample(self, monkeypatch, sizes, batches):
        calls = record_draws(monkeypatch)
        if len(sizes) == 1:
            _maxfiber_block(sizes[0], 1, 0, 3)
        else:
            _chain_block(sizes, 1, 0, 3)
        assert {bound: count for bound, count, _, _ in calls} == batches
        assert all(count == batches[bound] for bound, count, _, _ in calls)


class TestBatchCap:
    # all batches of a block together hold at most _DRAW_CHUNK digits
    # beyond one word per bound, and every batch at least one word
    @staticmethod
    def check_batches(calls):
        sizes = {}
        for bound, count, _, _ in calls:
            k = reference_digits(bound)
            assert count >= k and count % k == 0, (bound, count)
            assert sizes.setdefault(bound, count) == count, bound
        assert sum(sizes.values()) <= montecarlo._DRAW_CHUNK + sum(
            reference_digits(b) for b in sizes
        )
        return sizes

    def test_many_distinct_bounds(self, monkeypatch):
        # 2, 3, ..., 401: 399 bounds, at most two draws each a sample,
        # so every stream gets one word
        calls = record_draws(monkeypatch)
        _chain_block(tuple(range(2, 402)), 1, 0, 2)
        sizes = self.check_batches(calls)
        assert sizes == {b: reference_digits(b) for b in range(3, 402)}

    def test_word_digits_once_per_bound(self):
        # 3, 4, ..., 1501: more bounds than any fixed-size cache holds,
        # each looked up again by every batch drawn below it
        montecarlo._word_digits.cache_clear()
        _chain_block(tuple(range(2, 1502)), 1, 0, 2)
        info = montecarlo._word_digits.cache_info()
        assert info.misses == 1499 and info.hits >= 1499

    @pytest.mark.parametrize("sizes", [
        (10**6, 2), (10**6, 3, 10**6, 7), (300_000, 10**4, 5),
    ])
    def test_large_first_set(self, monkeypatch, sizes):
        # the first map's stream takes nearly the whole cap, and the
        # others their share of it
        calls = record_draws(monkeypatch)
        _chain_block(sizes, 1, 0, 1)
        batches = self.check_batches(calls)
        assert batches[sizes[1]] > montecarlo._DRAW_CHUNK // 3

    def test_large_max_fiber(self, monkeypatch):
        calls = record_draws(monkeypatch)
        _maxfiber_block(10**6, 1, 0, 1)
        assert self.check_batches(calls) == {
            10**6: montecarlo._DRAW_CHUNK // 3 * 3
        }


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

    @pytest.mark.parametrize(
        "bound", [1, 2, 7, 10**9, 2**63 + 1, 2**63 + 5, 2**64]
    )
    def test_randbelow_matches_reference_rejection(self, bound):
        # one draw per call, so one accepted word each: same values, same
        # state as the reference
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
        # no word is below floor(2^64 / bound) * bound = 0: refused, not
        # drawn for ever, and the stream does not move
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


# every bound whose digits per word change at an edge, and some between
CONTRACT_BOUNDS = [
    1, 2, 3, 7, 20, 50, 10**4,
    2**32 - 1, 2**32, 2**32 + 1, 2**63 + 5, 2**64,
]


class TestDrawContract:
    @pytest.mark.parametrize("bound", CONTRACT_BOUNDS)
    def test_digits_per_word(self, deadline, bound):
        k = reference_digits(bound)
        assert montecarlo._word_digits(bound) == (
            k, 2**64 // bound**k * bound**k
        )
        if bound == 1:
            assert k == 64 == reference_digits(2)
        else:
            assert bound**k <= 2**64 < bound ** (k + 1)
        assert k == 1 if bound > 2**32 else k >= 2

    @pytest.mark.parametrize("bound", CONTRACT_BOUNDS)
    def test_draw_matches_reference(self, deadline, bound):
        # values and end state, for counts around one word's digits and
        # of 40 words less one digit (rounds of many words), from enough
        # seeds that words in the rejected range come up for the bounds
        # that reject often (7, 50 and 3 reject 15-34% of words)
        k = reference_digits(bound)
        for seed in range(10):
            for count in (1, k - 1, k, k + 1, 3 * k + 2, 40 * k - 1):
                reference = SplitMix64(seed)
                expected = reference_draw(reference, bound, count)
                state, draws = montecarlo._draw(
                    SplitMix64(seed)._state, bound, count
                )
                assert draws == expected, (seed, count)
                assert state == reference._state, (seed, count)

    def test_calls_start_on_a_fresh_word(self):
        # two calls of 3 digits each read two words, one call of 6 reads
        # one (no word is rejected at this seed)
        state = SplitMix64(5)._state
        state_a, first = montecarlo._draw(state, 50, 3)
        state_b, second = montecarlo._draw(state_a, 50, 3)
        state_c, both = montecarlo._draw(state, 50, 6)
        assert both[:3] == first and both[3:] != second
        assert words_between(state, state_b) == 2
        assert words_between(state, state_c) == 1

    def test_adjacent_digits_independent(self):
        # pairs (d_i, d_{i+1}) at base 3, 40 digits per word, at each
        # offset i mod 40 in turn; offset 39 pairs the last digit of a
        # word with the first of the next.  Pairs at one offset come
        # from disjoint digits, so each offset gives a chi-square on 8
        # degrees of freedom, below 26.12 (p = 0.001) at this seed
        k, words = 40, 3000
        _, digits = montecarlo._draw(SplitMix64(31)._state, 3, k * words)
        assert reference_digits(3) == k
        for offset in range(k):
            pairs = Counter(
                zip(digits[offset::k], digits[offset + 1::k])
            )
            samples = sum(pairs.values())
            assert samples >= words - 1 and len(pairs) == 9, offset
            expected = samples / 9
            chi_square = sum((c - expected) ** 2 / expected
                             for c in pairs.values())
            assert chi_square < 26.12, (offset, chi_square)


LANES = montecarlo._LANES


class TestBatchedWords:
    """``_draw`` mixes its words a round at a time in lane-packed ints
    (``_words``); every draw and every end state must still be the
    word-at-a-time reference's."""

    @pytest.mark.parametrize("n", [1, 2, LANES - 1, LANES])
    def test_words_are_next_words(self, n):
        for seed in (0, 5, (1 << 64) - 1):
            stream = SplitMix64(seed)
            assert montecarlo._words(seed, n) == [
                stream.next_word() for _ in range(n)
            ]

    def test_lanes_decode_on_either_byte_order(self):
        # the machine's order reads the words; the other order reads
        # each of them byte-swapped, in the same lane order
        words = montecarlo._words(9, 5)
        lanes = sum(w << (128 * j) for j, w in enumerate(words))
        native = montecarlo._lane_words(lanes, 5)
        other = "big" if sys.byteorder == "little" else "little"
        swapped = montecarlo._lane_words(lanes, 5, other)
        assert native == words
        assert [
            int.from_bytes(w.to_bytes(8, "little"), "big") for w in swapped
        ] == words

    @staticmethod
    def check(seed, bound, count, monkeypatch):
        """Compare one call with the reference; return the sizes of its
        rounds, which must add up to the words it read: no word is
        mixed past the last one accepted."""
        rounds = []
        words = montecarlo._words

        def recording_words(state, n):
            rounds.append(n)
            return words(state, n)

        reference = SplitMix64(seed)
        expected = reference_draw(reference, bound, count)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_words", recording_words)
            state, draws = montecarlo._draw(seed, bound, count)
        assert draws == expected, (seed, bound, count)
        assert state == reference._state, (seed, bound, count)
        assert sum(rounds) == words_between(seed, state)
        return rounds

    def test_half_the_words_rejected(self, deadline, monkeypatch):
        # below 2^63 + 1 a word is accepted under 2^63 + 1 only: about
        # half are rejected, so a call takes several rounds, each of the
        # words still missing, and past _LANES words a round is cut to
        # _LANES
        for seed, count in [(1, 1), (2, 7), (3, 100), (4, LANES + 300)]:
            rounds = self.check(seed, 2**63 + 1, count, monkeypatch)
            assert len(rounds) > (count > 1)
            assert rounds[0] == min(count, LANES)

    def test_count_zero(self):
        for bound in (1, 20, 2**64):
            assert montecarlo._draw(123, bound, 0) == (123, [])

    @pytest.mark.parametrize("bound", [1, 20, 2**64])
    @pytest.mark.parametrize("words", [LANES - 1, LANES, LANES + 1])
    def test_rounds_around_the_lane_count(
        self, deadline, monkeypatch, bound, words
    ):
        # whole words' digits: below 1 and 2^64 every word is accepted,
        # so the call is one round of words < _LANES, one of _LANES, or
        # one of _LANES and one of a single word; below 20 some words
        # are rejected and more rounds follow
        rounds = self.check(
            6, bound, words * reference_digits(bound), monkeypatch
        )
        assert rounds[0] == min(words, LANES)
        if bound != 20:
            assert rounds == [min(words, LANES)] + [1] * (words > LANES)

    def test_sample_function(self):
        # past _LANES words, and with about half the words rejected
        # (randbelow's draws are checked in TestSplitMix64)
        for n, m in [(LANES * 14 + 5, 20), (3000, 2**63 + 1)]:
            stream, reference = SplitMix64(42), SplitMix64(42)
            f = sample_function(n, m, stream)
            assert list(f.images) == reference_draw(reference, m, n)
            assert stream._state == reference._state


class TestSkip:
    """``_skip`` passes over the first digits of a stream without
    extracting them; a ``_draw`` from where it stops, less the digits it
    says to drop, reads on where one long ``_draw`` would."""

    @staticmethod
    def check(seed, bound, digits, monkeypatch, count=5):
        """Compare a skip and a draw with one draw and with the
        word-at-a-time reference; return the sizes of the skip's
        rounds."""
        rounds = []
        mixed = montecarlo._mixed_lanes

        def recording_mixed(state, n):
            rounds.append(n)
            return mixed(state, n)

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_mixed_lanes", recording_mixed)
            state, drop = montecarlo._skip(seed, bound, digits)
        k = reference_digits(bound)
        # the state after the accepted words that hold the digits whole
        reference = SplitMix64(seed)
        reference_draw(reference, bound, digits // k * k)
        assert (state, drop) == (reference._state, digits % k)
        end, tail = montecarlo._draw(state, bound, drop + count)
        whole_end, whole = montecarlo._draw(seed, bound, digits + count)
        assert end == whole_end and tail[drop:] == whole[digits:]
        # no word is mixed past the last accepted one
        assert sum(rounds) == words_between(seed, state)
        return rounds

    @pytest.mark.parametrize("digits", [0, 1, 39, 40, 41, 40 * 7 + 13])
    def test_about_a_third_rejected(self, deadline, monkeypatch, digits):
        # below 3 a word holds k = 40 digits and about 34% of the words
        # are rejected, so a skip of several words takes several rounds;
        # 0 and 1..39 digits skip no word, 41 cuts a word after 1 digit
        assert reference_digits(3) == 40
        for seed in range(8):
            rounds = self.check(seed, 3, digits, monkeypatch)
            assert (rounds == []) == (digits < 40)
            assert all(r <= digits // 40 for r in rounds)

    @pytest.mark.parametrize("bound", [2, 7, 1001, 10**4, 2**63 + 1, 2**64])
    def test_cut_inside_a_word(self, deadline, monkeypatch, bound):
        # 2 and 2^64 reject no word (threshold 2^64); 2^63 + 1 about half
        k = reference_digits(bound)
        for seed, digits in [(1, k // 2), (2, 3 * k + k // 2), (3, 5 * k)]:
            self.check(seed, bound, digits, monkeypatch)

    def test_more_than_one_round(self, deadline, monkeypatch):
        # more accepted words than one round mixes: the first round is
        # _LANES words, and later ones the accepted words still missing
        for bound in (3, 2**63 + 1):
            k = reference_digits(bound)
            digits = (2 * LANES + 300) * k + 1
            rounds = self.check(5, bound, digits, monkeypatch)
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
    ])
    def test_matches_public_sampling_api(self, monkeypatch, sizes):
        # the block loop must draw what reference_digit_stream, on the
        # public next_word and derived_stream, draws under stream
        # contract 4; with one-word batches each stream also reads
        # exactly the words up to its last used digit, as the lazy
        # reference does
        seed, block = 5, 3
        start = derived_stream(seed, block)._state
        for count in (BLOCK_SAMPLES, 37):
            ref_sums, streams = reference_chain_block(
                sizes, seed, block, count
            )
            assert _chain_block(sizes, seed, block, count) == ref_sums
            with monkeypatch.context() as patch:
                batches_of(patch, 1)
                calls = record_draws(patch)
                assert _chain_block(sizes, seed, block, count) == ref_sums
            assert {c for _, c, _, _ in calls} <= {
                reference_digits(b) for b in streams
            }
            words = words_per_bound(calls)
            for bound, stream in streams.items():
                assert [end for b, _, _, end in calls if b == bound][-1] == (
                    stream._state
                ), (count, bound)
                assert words[bound] == words_between(
                    derived_stream(start, bound)._state, stream._state
                ), (count, bound)

    @pytest.mark.parametrize("sizes, low, high", [
        ((20,) * 20, 7.5, 7.8), ((50, 50, 50, 50), 11.9, 12.3),
    ])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_words_per_sample(self, monkeypatch, sizes, low, high, seed):
        # one word holds 14 draws below 20 and 11 below 50.  A sample of
        # either chain draws about 105 values: 7.5 words below 20, and
        # 9.6 below 50, where about a fifth of the words are rejected.
        # Only the digits left in each batch when the block ends go
        # unused.  Under stream contract 3 every draw call started on a
        # fresh word: 20.6 and 13.7 words per sample
        calls = record_draws(monkeypatch)
        _chain_block(sizes, seed, 0, BLOCK_SAMPLES)
        words = sum(words_per_bound(calls).values())
        assert low * BLOCK_SAMPLES <= words <= high * BLOCK_SAMPLES

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
        # (computed from reference_maxfiber_block)
        assert report.mean == 2.53
        assert report.std_error == 0.012200849616108548

    def test_deterministic(self):
        config = SamplerConfig(seed=13, samples=1500)
        assert estimate_max_fiber_mean(5, config) == estimate_max_fiber_mean(
            5, config
        )


def refuse_drawing(monkeypatch):
    """Make every draw fail, so a refusal is shown to come first."""

    def no_draw(state, bound, count):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(montecarlo, "_draw", no_draw)


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
# at sample 500, inside the block and inside a word (22 digits below 7)
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
    # one block, split over the workers: below 1001 a word holds 6
    # digits, so most shares start inside a word; below 3 it holds 40
    # and about a third of the words are rejected
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
