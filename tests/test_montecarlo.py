"""Seeded sampling: stream contract, determinism, statistical sanity."""

from collections import Counter
from fractions import Fraction
from itertools import chain, product

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
    """Digits per word of stream contract 3: the largest k <= 64 with
    bound^k <= 2^64 (every power of 1 fits, so 1 takes 64)."""
    return max(k for k in range(1, 65) if bound**k <= 2**64)


def reference_draw(stream, bound, count):
    """``count`` draws below ``bound`` under stream contract 3, from
    ``next_word``, ``%`` and ``//`` alone: a word is accepted below the
    largest multiple of bound^k that fits in 64 bits, and gives its base-
    ``bound`` digits low digit first, as many as are still needed."""
    k = reference_digits(bound)
    threshold = 2**64 // bound**k * bound**k
    draws = []
    while len(draws) < count:
        word = stream.next_word()
        if word < threshold:
            for j in range(min(k, count - len(draws))):
                draws.append(word // bound**j % bound)
    return draws


def reference_chain_block(sizes, seed, block, count):
    """Stream contract 3 through ``reference_draw``: f_1 on all of X_1,
    each later map only on the image points of the partial composition,
    in order of first appearance, one draw call per map.  Returns the
    block's (total, total_sq) and the stream's end state."""
    stream = derived_stream(seed, block)
    total = total_sq = 0
    for _ in range(count):
        g = reference_draw(stream, sizes[1], sizes[0])
        for m in sizes[2:]:
            pts = list(dict.fromkeys(g))
            image_of = dict(zip(pts, reference_draw(stream, m, len(pts))))
            g = [image_of[y] for y in g]
        s_val = sum(c * c for c in Counter(g).values())
        total += s_val
        total_sq += s_val * s_val
    return (total, total_sq), stream._state


def block_end_state(monkeypatch, block_fn, *args):
    """A block function's sums and the state its last draw left."""
    states = []
    draw = montecarlo._draw

    def recording_draw(state, bound, n):
        state, draws = draw(state, bound, n)
        states.append(state)
        return state, draws

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_draw", recording_draw)
        sums = block_fn(*args)
    return sums, states[-1]


def chain_block_end_state(monkeypatch, sizes, seed, block, count):
    """``_chain_block``'s sums and the state its last draw left."""
    return block_end_state(monkeypatch, _chain_block, sizes, seed, block, count)


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


class TestDrawChunks:
    # f_1 (and a max-fiber map) is drawn in chunks; the chunk size must
    # not change a single draw, so a tiny chunk gives the same block
    CASES = [
        (_chain_block, (30, 20, 10)),
        (_chain_block, (7, 5)),
        (_chain_block, (50, 3, 50, 2)),
        (_maxfiber_block, 30),
        (_maxfiber_block, 7),
        (_maxfiber_block, 6),
    ]

    @pytest.mark.parametrize("block_fn,size", CASES)
    def test_chunk_size_changes_nothing(self, monkeypatch, block_fn, size):
        args = (size, 11, 2, 40)
        whole = block_end_state(monkeypatch, block_fn, *args)
        monkeypatch.setattr(montecarlo, "_DRAW_CHUNK", 7)
        assert block_end_state(monkeypatch, block_fn, *args) == whole

    # a chunk holds whole words: the patched chunk of 7 draws rounds up to
    # one word, 14 digits below 20 and 13 below 30
    @pytest.mark.parametrize("block_fn,size,chunks", [
        (_chain_block, (30, 20), [14, 14, 2]),
        (_maxfiber_block, 30, [13, 13, 4]),
    ])
    def test_first_map_is_drawn_in_chunks(
        self, monkeypatch, block_fn, size, chunks
    ):
        calls = []
        draw = montecarlo._draw

        def counting_draw(state, bound, n):
            calls.append(n)
            return draw(state, bound, n)

        monkeypatch.setattr(montecarlo, "_DRAW_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_draw", counting_draw)
        block_fn(size, 1, 0, 3)
        assert calls == chunks * 3

    @pytest.mark.parametrize("bound", [3, 20, 50, 10**4, 2**32 + 1])
    def test_chunks_split_at_whole_words(self, bound):
        # more draws than one chunk: the chunks are one _draw call cut
        # between words, so no digit is dropped at a chunk's end
        count = montecarlo._DRAW_CHUNK + 4321
        stream = SplitMix64(9)
        chunks = list(montecarlo._draw_chunks(stream, bound, count))
        end, draws = montecarlo._draw(SplitMix64(9)._state, bound, count)
        assert len(chunks) == 2
        assert list(chain.from_iterable(chunks)) == draws
        assert stream._state == end


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

    @pytest.mark.parametrize("bound", [1, 2, 7, 10**9, 2**63 + 5, 2**64])
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
        # values and end state, for counts around one word's digits, from
        # enough seeds that words in the rejected range come up for the
        # bounds that reject often (7, 50 and 3 reject 15-34% of words)
        k = reference_digits(bound)
        for seed in range(10):
            for count in (1, k - 1, k, k + 1, 3 * k + 2):
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

    def test_matches_public_sampling_api(self, monkeypatch):
        # the block loop must draw what reference_draw, on the public
        # next_word, draws under stream contract 3, and consume the same
        # words
        seed, block = 5, 3
        start = derived_stream(seed, block)._state
        for sizes in [(5, 3, 4, 2, 6), (7, 1, 5, 5), (20,) * 20]:
            for count in (BLOCK_SAMPLES, 37):
                sums, end = chain_block_end_state(
                    monkeypatch, sizes, seed, block, count
                )
                ref_sums, ref_end = reference_chain_block(
                    sizes, seed, block, count
                )
                assert sums == ref_sums, (sizes, count)
                assert words_between(start, end) == words_between(
                    start, ref_end
                ), (sizes, count)
                assert end == ref_end

    @pytest.mark.parametrize("sizes, low, high", [
        ((20,) * 20, 20, 21), ((50, 50, 50, 50), 11, 14),
    ])
    def test_words_per_sample(self, monkeypatch, sizes, low, high):
        # one word holds 14 draws below 20 and 11 below 50.  A 20-set
        # chain of 20 draws about 105 values per sample (380 on all of
        # each domain); 50,50,50,50 draws about 105 values.  Each map
        # takes at least one word, f_1 two below 20 and five below 50,
        # and later maps below 50 about three each
        count = 200
        _, end = chain_block_end_state(monkeypatch, sizes, 1, 0, count)
        words = words_between(derived_stream(1, 0)._state, end)
        assert low * count <= words <= high * count

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
        # (computed from reference_draw)
        assert report.mean == 2.5136666666666665
        assert report.std_error == 0.012355375045093089

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

        def run_blocks(block_fn, samples):
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
