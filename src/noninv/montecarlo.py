"""Seeded Monte Carlo estimation for sizes beyond enumeration.

RNG contract
------------
The generator is SplitMix64 (Steele, Lea & Flood's public-domain mixer;
the same one xoshiro uses for seeding): a 64-bit counter advanced by the
golden-gamma constant, finalized with two xor-multiply rounds.  It is
fully specified by the constants below, so the stream is reproducible
across platforms and implementations.

Uniform integers below a bound b are drawn by rejection, several from
each word.  Let k be the largest number of digits with b^k <= 2^64 (at
most 64, as for b = 2).  A word z is accepted when z < floor(2^64 /
b^k) * b^k, so z mod b^k is uniform and its k base-b digits are k
independent uniform draws, read low digit first.  Each draw call starts
on a fresh word and reads from its last word only the digits it still
needs.  Bounds above 2^64, which no word could meet, are refused.  For
b > 2^32, k = 1 and each draw takes one word, as in version 2.

A chain sample draws f_1 at every point of X_1 = 0..n_1-1, in order,
in one call of n_1 draws below n_2.  Each later f_s is drawn only at
the image points of the partial composition g = f_{s-1} o ... o f_1, in
one call of one draw below n_{s+1} per point, in order of first
appearance of g(x) as x runs over 0..n_1-1: the composition's degree
depends on f_s only there.  A max-fiber sample draws its n images in
one call.  This is version ``STREAM_CONTRACT`` (3) of the contract.
Version 2 took one word per draw: on 50,50,50,50 a chain sample read
about 105 words, where it now reads about 14 (11 draws per word below
50, about a fifth of the words rejected).  Version 1 drew every f_s at
all of X_s.

Samples are processed in fixed blocks of ``BLOCK_SAMPLES``.  Block i uses
its own SplitMix64 stream whose initial state is the i-th output word of
a SplitMix64 stream seeded with the master seed.  SplitMix64 is
counter-based, so block i's stream depends only on (seed, i): blocks are
independent of each other and of the order they run in.  Per-block
partial sums are exact integers, so their total is the same in any
order.  The block size is part of the stream contract: changing it
changes the report.

All reference values stay exact rationals; floats appear only in the
reported mean, standard error and z-score.

Each run draws at most ``MAX_DRAWS`` values: samples times the
per-sample bound n_1 + sum over s = 2..t of min(n_1, n_s) for a chain
(the image of g has at most min(n_1, n_s) points), or samples times n
for max fibers.  The cap counts draws, not words.  A run whose bound
exceeds the cap is refused before any drawing.  A sample draws f_1 (or
its max-fiber map) in chunks cut between words and counts them as it
goes, so it holds its fiber counts, not its draws.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

from .closed_form import ChainSpec, expected_degree_chain, expected_degree_iterate
from .errors import BudgetExceededError, InvalidSizeError
from .functions import FiniteFunction, _square_sum, fiber_sizes

__all__ = [
    "SplitMix64",
    "derived_stream",
    "BLOCK_SAMPLES",
    "STREAM_CONTRACT",
    "MAX_DRAWS",
    "SamplerConfig",
    "EstimateReport",
    "sample_function",
    "estimate_expected_degree_chain",
    "estimate_max_fiber_mean",
    "convergence_table",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK_SAMPLES = 1024
STREAM_CONTRACT = 3
# well above the largest pinned run (acceptance criterion 8, 1.5e7
# draws).  _draw makes about 5.5M draws/s below 50, 3.5M below 10^4 and
# 1.1M above 2^32, one per word (CPython 3.11.7, one core of a 2-core
# VM); chain sampling on 50,50,50,50 runs at 2-2.5M draws/s with its
# counting, so a run at the cap takes 40-50 s
MAX_DRAWS = 10**8
# the draws of f_1 in a sample are made and counted about this many at a
# time (whole words' digits), so a sample holds its fiber counts and one
# chunk, not n draws
_DRAW_CHUNK = 1 << 16


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream: state += gamma; output = mix(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_word(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection (no modulo bias)."""
        if bound < 1:
            raise InvalidSizeError(f"bound must be >= 1, got {bound}")
        self._state, (value,) = _draw(self._state, bound, 1)
        return value


@lru_cache(maxsize=1024)
def _word_digits(bound: int) -> tuple[int, int]:
    """Digits per word and acceptance threshold of ``_draw`` for a bound
    b: the largest k with b^k <= 2^64 (at most 64, the k of b = 2; every
    power of 1 is 1), and floor(2^64 / b^k) * b^k."""
    k, power = 1, bound
    while k < 64 and power * bound <= 1 << 64:
        k += 1
        power *= bound
    return k, ((1 << 64) // power) * power


def _draw(state: int, bound: int, count: int) -> tuple[int, list[int]]:
    """``count`` uniform integers in [0, bound) by rejection, drawn from
    the SplitMix64 stream at ``state``; returns the advanced state and
    the draws.  The one rejection loop of the module: every sampler
    calls it, so all of them consume the stream word for word alike.

    A word z is accepted when z < floor(2^64 / b^k) * b^k, so z mod b^k
    is uniform; its k base-b digits, low digit first, are k independent
    draws.  The call reads only the digits it still needs from its last
    word and drops the rest; the next call starts on a fresh word.  A
    bound above 2^64 is refused: no word would be accepted."""
    if bound > 1 << 64:
        raise InvalidSizeError(
            f"bound must be <= 2^64 (one SplitMix64 word), got {bound}"
        )
    k, threshold = _word_digits(bound)
    draws: list[int] = []
    append = draws.append
    more_digits = range(k - 1)
    need = count
    while need > 0:
        # next_word and _mix64, inlined: this loop is the sampler's cost
        state = (state + _GAMMA) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z ^= z >> 31
        if z < threshold:
            append(z % bound)
            need -= k
            # the word's other digits; the last word's only up to count
            for _ in more_digits if need >= 0 else range(k - 1 + need):
                z //= bound
                append(z % bound)
    return state, draws


def _draw_chunks(
    stream: SplitMix64, bound: int, count: int
) -> Iterator[list[int]]:
    """``count`` draws below ``bound`` from ``stream`` in lists of about
    ``_DRAW_CHUNK`` (a whole number of words' digits, at least one word):
    the same words in the same order as one ``_draw`` call, without
    holding them all at once."""
    k = _word_digits(bound)[0]
    size = max(_DRAW_CHUNK // k, 1) * k
    for start in range(0, count, size):
        stream._state, draws = _draw(
            stream._state, bound, min(size, count - start)
        )
        yield draws


def derived_stream(seed: int, index: int) -> SplitMix64:
    """Stream for block ``index``: seeded with the index-th output word
    of a SplitMix64 stream seeded with the master seed."""
    return SplitMix64(_mix64((seed + (index + 1) * _GAMMA) & _MASK64))


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, sample count and sizes for one estimation run."""

    seed: int
    samples: int
    sizes: Optional[ChainSpec] = None

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise InvalidSizeError(
                f"seed must be a 64-bit unsigned integer, got {self.seed}"
            )
        if self.samples < 1:
            raise InvalidSizeError(
                f"samples must be >= 1, got {self.samples}"
            )


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimate with its exact reference value, when one exists.

    ``z_score`` is (mean - closed_form) / std_error, present only when a
    closed form is known and the standard error is positive.
    ``theta_ratio`` is mean / (log n / log log n) for max-fiber runs.
    """

    mean: float
    std_error: float
    closed_form: Optional[Fraction]
    z_score: Optional[float]
    samples: int
    seed: int
    theta_ratio: Optional[float] = None


def sample_function(n: int, m: int, stream: SplitMix64) -> FiniteFunction:
    """Uniform random function: each image independent uniform on [0, m)."""
    if m < 1:
        # refused as the first randbelow(m) would be, even with no draws
        raise InvalidSizeError(f"bound must be >= 1, got {m}")
    stream._state, images = _draw(stream._state, m, n)
    return FiniteFunction(n, m, tuple(images))


def _chain_block(
    sizes: tuple[int, ...], seed: int, block: int, count: int
) -> tuple[int, int]:
    """Sum and square-sum of the fiber-square statistic over one block.

    Carries the fiber profile of the partial composition, one count per
    image point in order of first appearance, and draws each later map
    only at those points (the draw order of the stream contract; the
    test suite pins it against a reference built on ``next_word``).
    """
    stream = derived_stream(seed, block)
    total = 0
    total_sq = 0
    for _ in range(count):
        profile = Counter(
            chain.from_iterable(_draw_chunks(stream, sizes[1], sizes[0]))
        )
        for m in sizes[2:]:
            stream._state, f = _draw(stream._state, m, len(profile))
            merged: dict[int, int] = {}
            get = merged.get
            for y, c in zip(f, profile.values()):
                merged[y] = get(y, 0) + c
            profile = merged
        s_val = _square_sum(profile.values())
        total += s_val
        total_sq += s_val * s_val
    return total, total_sq


def _maxfiber_block(
    n: int, seed: int, block: int, count: int
) -> tuple[int, int]:
    stream = derived_stream(seed, block)
    total = 0
    total_sq = 0
    for _ in range(count):
        m_val = max(
            fiber_sizes(chain.from_iterable(_draw_chunks(stream, n, n)), n)
        )
        total += m_val
        total_sq += m_val * m_val
    return total, total_sq


def _check_draws(samples: int, per_sample: int, what: str) -> None:
    """Refuse a run that may draw more than ``MAX_DRAWS`` values, before
    any drawing.  A huge count is not printed (``str`` limits digits)."""
    draws = samples * per_sample
    if draws <= MAX_DRAWS:
        return
    needs = str(draws) if draws < 10**100 else "more than 10^100"
    raise BudgetExceededError(
        f"{what} may need {needs} random draws, cap is {MAX_DRAWS}"
    )


def _run_blocks(
    block_fn: Callable[[int, int], tuple[int, int]], samples: int
) -> tuple[int, int]:
    """Totals of ``block_fn(block, count)`` over the blocks in order."""
    total = 0
    total_sq = 0
    for b in range((samples + BLOCK_SAMPLES - 1) // BLOCK_SAMPLES):
        block_sum, block_sq = block_fn(
            b, min(BLOCK_SAMPLES, samples - b * BLOCK_SAMPLES)
        )
        total += block_sum
        total_sq += block_sq
    return total, total_sq


def _mean_and_error(
    total: int, total_sq: int, samples: int, denom: int
) -> tuple[Fraction, float]:
    """Exact mean and float standard error of the statistic total/denom."""
    mean = Fraction(total, samples * denom)
    if samples == 1:
        return mean, 0.0
    # unbiased sample variance of x_i = s_i / denom
    var = (Fraction(total_sq, denom * denom) - samples * mean * mean) / (
        samples - 1
    )
    return mean, math.sqrt(var / samples)


def estimate_expected_degree_chain(config: SamplerConfig) -> EstimateReport:
    """Sample random function chains and average the composition degree.

    The report carries the exact closed-form expectation and the z-score
    of the sample mean against it.
    """
    if config.sizes is None:
        raise InvalidSizeError("config.sizes must be a ChainSpec")
    sizes = config.sizes.sizes
    _check_draws(
        config.samples,
        sizes[0] + sum(min(sizes[0], n) for n in sizes[1:-1]),
        "chain sampling",
    )
    total, total_sq = _run_blocks(
        lambda b, c: _chain_block(sizes, config.seed, b, c),
        config.samples,
    )
    mean, std_error = _mean_and_error(
        total, total_sq, config.samples, sizes[0]
    )
    closed = expected_degree_chain(config.sizes)
    z = float(mean - closed) / std_error if std_error > 0 else None
    return EstimateReport(
        mean=float(mean),
        std_error=std_error,
        closed_form=closed,
        z_score=z,
        samples=config.samples,
        seed=config.seed,
    )


def estimate_max_fiber_mean(n: int, config: SamplerConfig) -> EstimateReport:
    """Estimate E[max fiber] over uniform random endofunctions of an n-set.

    No closed form is attached; the report records the ratio of the mean
    to log(n)/log(log(n)) for qualitative comparison with the known
    growth order of the expected maximum fiber.  Requires n >= 3 so that
    log(log(n)) is positive.
    """
    if n < 3:
        raise InvalidSizeError(
            f"max-fiber estimation needs n >= 3, got {n}"
        )
    _check_draws(config.samples, n, "max-fiber sampling")
    total, total_sq = _run_blocks(
        lambda b, c: _maxfiber_block(n, config.seed, b, c),
        config.samples,
    )
    mean, std_error = _mean_and_error(total, total_sq, config.samples, 1)
    ratio = float(mean) / (math.log(n) / math.log(math.log(n)))
    return EstimateReport(
        mean=float(mean),
        std_error=std_error,
        closed_form=None,
        z_score=None,
        samples=config.samples,
        seed=config.seed,
        theta_ratio=ratio,
    )


def convergence_table(
    t: int, n_values: Sequence[int]
) -> list[tuple[int, Fraction, Fraction]]:
    """Rows (n, exact chain expectation for equal sets, gap to t+1).

    The gaps are exact rationals; they are positive and strictly
    decreasing in n once n > t.
    """
    rows = []
    for n in n_values:
        value = expected_degree_iterate(n, t)
        rows.append((n, value, Fraction(t + 1) - value))
    return rows
