"""Seeded sampling: stream contract, determinism, statistical sanity."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from noninv import (
    BLOCK_SAMPLES,
    ChainSpec,
    InvalidSizeError,
    SamplerConfig,
    SplitMix64,
    compose,
    convergence_table,
    derived_stream,
    estimate_expected_degree_chain,
    estimate_max_fiber_mean,
    expected_degree_chain,
    sample_function,
)
from noninv.montecarlo import _chain_block, _mean_and_error


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

    @pytest.mark.parametrize("bound", [1, 2, 7, 10**9, 2**63 + 5])
    def test_randbelow_matches_reference_rejection(self, bound):
        # word-by-word rejection on next_word: same values, same state
        stream, reference = SplitMix64(77), SplitMix64(77)
        threshold = ((1 << 64) // bound) * bound
        for _ in range(50):
            word = reference.next_word()
            while word >= threshold:
                word = reference.next_word()
            assert stream.randbelow(bound) == word % bound
            assert stream._state == reference._state

    def test_randbelow_guard(self):
        with pytest.raises(InvalidSizeError):
            SplitMix64(0).randbelow(0)

    def test_derived_streams_differ(self):
        words = {derived_stream(42, i).next_word() for i in range(100)}
        assert len(words) == 100

    def test_derived_stream_is_master_output(self):
        master = SplitMix64(42)
        outputs = [master.next_word() for _ in range(3)]
        for i, word in enumerate(outputs):
            assert derived_stream(42, i)._state == word


class TestSampleFunction:
    def test_shape(self):
        f = sample_function(5, 3, SplitMix64(1))
        assert f.domain_size == 5 and f.codomain_size == 3

    def test_degenerate_codomain(self):
        for seed in range(10):
            f = sample_function(4, 1, SplitMix64(seed))
            assert f.images == (0, 0, 0, 0)

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

    def test_matches_public_sampling_api(self):
        # the inlined block loop must draw word-for-word what
        # sample_function draws from the derived block stream
        sizes = (3, 4, 2)
        config = SamplerConfig(seed=5, samples=37, sizes=ChainSpec(sizes))
        report = estimate_expected_degree_chain(config)

        stream = derived_stream(5, 0)
        total = 0
        for _ in range(config.samples):
            chain = [
                sample_function(sizes[s], sizes[s + 1], stream)
                for s in range(len(sizes) - 1)
            ]
            g = chain[0]
            for f in chain[1:]:
                g = compose(f, g)
            total += sum(c * c for c in g.fiber_sizes())
        assert report.mean == float(
            Fraction(total, config.samples * sizes[0])
        )

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
        assert report.mean == 2.5046666666666666
        assert report.std_error == 0.011964596484693179

    def test_deterministic(self):
        config = SamplerConfig(seed=13, samples=1500)
        assert estimate_max_fiber_mean(5, config) == estimate_max_fiber_mean(
            5, config
        )


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
