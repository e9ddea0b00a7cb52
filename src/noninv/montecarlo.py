"""Seeded Monte Carlo estimation for sizes beyond enumeration.

RNG contract
------------
The generator is SplitMix64 (Steele, Lea & Flood's public-domain mixer;
the same one xoshiro uses for seeding): a 64-bit counter advanced by the
golden-gamma constant, finalized with two xor-multiply rounds.  It is
fully specified by the constants below, so the stream is reproducible
across platforms and implementations.

Uniform integers below a bound b are drawn by rejection, one unit of
a word per draw.  The unit width w is the smallest of 8, 16, 32 and 64
with b <= 2^w, and a word holds 64 / w units, taken low bits first.  A
unit u is accepted when u < 2^w - (2^w mod b), the largest multiple of
b that fits in w bits, so u mod b is uniform; that is the draw, and a
rejected unit is passed over.  Bounds above 2^64, which no unit could
meet, are refused.  For b > 2^32, w = 64 and each draw takes one
word, as in versions 2 to 4.

Words are mixed a round at a time, not one by one (``_mixed_lanes``):
the j-th word after state s is mix(s + j * gamma), so a round lays its
words out one per 128-bit lane of one integer and runs each xor-shift
and multiply of the mixer once on all of them ("SIMD within a
register", Lamport, CACM 1975).  The units of a round are its words'
little-endian bytes: below 257 one ``bytes.translate`` call drops the
rejected bytes and reduces the rest, and wider units are read from an
array view of the bytes.  A call reads and returns the same words and
state as a word-at-a-time loop; how words are mixed is not part of the
contract.

Samples are processed in fixed blocks of ``BLOCK_SAMPLES``.  Block i
has its own SplitMix64 stream whose initial state is the i-th output
word of a SplitMix64 stream seeded with the master seed
(``derived_stream(seed, i)``).  In block i, every draw below a bound b
reads the unread units of one stream per bound, the stream
``derived_stream(derived_stream(seed, i)._state, b)``, up to the next
accepted one.  No unit is dropped inside a block; the
units left over when a block ends are discarded.  SplitMix64 is
counter-based, so each of these streams depends only on (seed, i, b):
blocks are independent of each other and of the order they run in.
Per-block partial sums are exact integers, so their total is the same
in any order.  The block size is part of the stream contract: changing
it changes the report.

Where ``os.fork`` exists, a run is dealt to one process per usable CPU
(``_run_blocks``): the calling process and workers forked from it, each
sending back its two exact totals.  The run is cut into units of a
grain of samples, the last one maybe short, and each process takes a
contiguous share of whole units (``_share_bounds``).  A chain sample
takes as many draws as the images of its maps have points, so a chain
run's grain is a block.  A max-fiber sample takes n draws, so sample j
of a block starts at draw j * n of its stream; a max-fiber run's grain
is one sample, and a share may start inside a block.  Its worker skips
the draws before it (``_skip``): it mixes the words that hold them and
counts their accepted units word-parallel, but makes no draw, in about
a fifth of the time drawing them would take at n = 10^4.  Fewer workers
are used where the smallest share would draw fewer than
``_FORK_DRAWS`` values.  The report is the same for any number of
workers; how samples are spread over processes is not part of the
contract.

A chain sample takes n_1 draws below n_2 for f_1 at x = 0..n_1-1, in
order.  Each later f_s is drawn only at the image points of the partial
composition g = f_{s-1} o ... o f_1, one draw below n_{s+1} per point,
in order of first appearance of g(x) as x runs over 0..n_1-1: the
composition's degree depends on f_s only there.  A max-fiber sample
takes its n draws in order.  This is version ``STREAM_CONTRACT`` (5) of
the contract.  Version 4 read k base-b digits from each accepted word,
k the most with b^k <= 2^64, and rejected whole words: its draws cost
Python digit arithmetic each, where a unit is rejected and reduced in
C, at the price of a few more words (13.5 against 12.1 words a sample
on 50,50,50,50, where 11 digits below 50 filled a word).  Version 3
drew from one stream per block, and each draw call (f_1, each later
map, a max-fiber map) started on a fresh word and dropped the digits of
its last word it did not need.  Version 2 took one word per draw, and
version 1 drew every f_s at all of X_s.

All reference values stay exact rationals; floats appear only in the
reported mean, standard error and z-score.

Each run draws at most ``MAX_DRAWS`` values: samples times the
per-sample bound n_1 + sum over s = 2..t of min(n_1, n_s) for a chain
(the image of g has at most min(n_1, n_s) points), or samples times n
for max fibers.  The cap counts draws, not words.  A run whose bound
exceeds the cap is refused before any drawing.  Each stream is drawn
in batches of all accepted units of a whole number of words, sized
from its bound's share of the per-sample bound: at least one word, at
most one round, and together at most ``_DRAW_CHUNK`` units beyond one
word per bound.  The batch size changes no draw, and a sample holds its
fiber counts and the batches, not its draws.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from collections import Counter
from functools import cache
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._frozen import Frozen
from .closed_form import ChainSpec, expected_degree_chain
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
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK_SAMPLES = 1024
STREAM_CONTRACT = 5
# well above the largest pinned run (acceptance criterion 8, 1.5e7
# draws).  _draw makes about 36M draws/s below 50, 8M below 10^4 and
# 2.8M above 2^32, one per word (calls of 32,768, 16,384 and 4,096
# draws, best of 7; CPython 3.11.7, one core of a 2-core VM whose speed
# drifts by up to 45%); chain sampling on 50,50,50,50 runs at about
# 7.5M draws/s with its counting (13.9 us a sample of about 105 draws,
# 150 counted against the cap), so a run at the cap takes 9-15 s in one
# process.  Forked workers share it: 50,50,50,50 at 10^5 samples (1.5e7
# draws) took 1.32 s on two CPUs against 2.28 s in one process, cold
MAX_DRAWS = 10**8
# fewer workers are used where the smallest share would draw fewer
# values, and none where a second share would: a fork costs more than a
# nearly empty share saves.  Cold calls with every run forked against
# none, both ending in os._exit, on a 2-core VM (fresh bytecode, medians
# of 30 alternating pairs, each pair running every case once), under
# stream contract 5: --sizes 2,2 at 8,192 samples (8,192 draws a share)
# took 102.5 against 113.3 ms, forked faster in 23 of 30 pairs, at
# 16,384 samples 122.3 against 145.0 (26 of 30) and at 32,768 156.4
# against 205.5 (28 of 30); max-fiber samples draw faster, and n = 1000
# at 32 samples (16,000 draws a share) took 95.9 against 93.9 ms (7 of
# 30), at 64 samples 100.1 against 100.9 (20 of 30) and at 256 samples
# 124.7 against 148.8 (28 of 30).  Max-fiber shares break even near
# 2^15 draws, and chain shares of 2,2 gain below it.  At 2^15 on two
# CPUs, --sizes 2,2 forks from 32,768 samples and max-fiber runs at
# n = 1000 from 66, while --sizes 50,50,50,50 at 1,025 samples, whose
# second share, the short last block, would hold one sample, runs in
# one process
_FORK_DRAWS = 1 << 15
# the batches of a block's streams hold at most this many units beyond
# one word per bound, so a sample holds its fiber counts and the
# batches, not n draws
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


# the most words one round mixes; each lane constant takes 16 bytes a
# lane
_LANES = 1024


@cache
def _lane_constants() -> tuple[int, int, dict[int, int]]:
    """Constants of 128-bit lanes j = 1.._LANES, lane j at bit 128 (j -
    1): j * gamma and 2^64 - 1 in each lane, and for each unit width w a
    one at the foot of each w-bit unit of the low half.  Built on the
    first draw, so a run that draws nothing does not pay for them, or by
    ``_run_blocks`` before it forks, so no worker builds them."""

    def lanes(pattern: bytes) -> int:
        return int.from_bytes(pattern * _LANES, "little")

    index = b"".join(j.to_bytes(16, "little") for j in range(1, _LANES + 1))
    feet = {w: lanes((b"\x01" + bytes(w // 8 - 1)) * (64 // w) + bytes(8))
            for w in (8, 16, 32, 64)}
    return (
        _GAMMA * int.from_bytes(index, "little"),
        lanes(b"\xff" * 8 + bytes(8)),
        feet,
    )


def _mixed_lanes(state: int, n: int) -> int:
    """The next n words (n <= ``_LANES``) of the SplitMix64 stream at
    ``state``, mixed together, one 128-bit lane of one int per word
    (SWAR).  Lane j starts at state + j * gamma mod 2^64; each xor-shift
    and each multiply by a 64-bit constant is one operation on the whole
    int.  A mask after each keeps every lane below 2^64: the shift moves
    the next lane's low bits into this lane's high half, and a 64 x
    64-bit product fills its own lane but no more.  The last shift is
    not masked: the low halves hold the words, the high halves
    leftovers."""
    gammas, mask, feet = _lane_constants()
    ones = feet[64]
    if n < _LANES:
        cut = (1 << (n << 7)) - 1
        ones, gammas, mask = ones & cut, gammas & cut, mask & cut
    z = (state * ones + gammas) & mask
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    return z ^ (z >> 31)


# array and memoryview codes of the unit widths above a byte; 'I' is an
# unsigned int, 4 bytes on every platform CPython supports
_UNIT_CODES = {16: "H", 32: "I", 64: "Q"}


def _lane_units(
    lanes: int, n: int, width: int, byteorder: str = sys.byteorder
) -> Sequence[int]:
    """The units of the words in ``lanes``' n low halves, word after
    word from lane 0, each word cut into ``width``-bit units low bits
    first: the words' little-endian bytes for width 8, else those bytes
    read as units on a machine of ``byteorder`` (the machine's, or the
    units come out byte-swapped).  Slicing every other 8 bytes of the
    little-endian lanes moves bytes without reading them as numbers, so
    only wider units depend on the byte order."""
    halves = memoryview(lanes.to_bytes(n << 4, "little")).cast("Q")
    data = halves[::2].tobytes()
    if width == 8:
        return data
    code = _UNIT_CODES[width]
    if byteorder == "little":
        return memoryview(data).cast(code)
    from array import array  # an extension module: not on every start

    units = array(code, data)
    units.byteswap()
    return units


def _unit_rule(bound: int) -> tuple[int, int]:
    """Unit width w and threshold of a bound b: the smallest of 8, 16,
    32 and 64 with b <= 2^w, and 2^w - (2^w mod b), the largest multiple
    of b that fits in w bits.  A bound above 2^64 is refused: no unit
    would be accepted."""
    if bound > 1 << 64:
        raise InvalidSizeError(
            f"bound must be <= 2^64 (one SplitMix64 word), got {bound}"
        )
    width = 8
    while bound > 1 << width:
        width <<= 1
    return width, (1 << width) - (1 << width) % bound


# at most 256 entries, one per bound up to 256
@cache
def _byte_rule(bound: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments of a bound b <= 256: the table that
    maps a byte u to u mod b, and the rejected bytes, threshold up."""
    threshold = _unit_rule(bound)[1]
    return bytes(u % bound for u in range(256)), bytes(range(threshold, 256))


def _accepted(state: int, bound: int, words: int) -> Sequence[int]:
    """The draws below ``bound`` of the next ``words`` words (<=
    ``_LANES``) of the SplitMix64 stream at ``state``: every accepted
    unit, in order, reduced mod the bound.  The one rejection of the
    module: every sampler reads its draws from here, so all of them
    consume the stream unit for unit alike.  Below 257 one
    ``bytes.translate`` call drops the rejected bytes and reduces the
    rest; wider units are filtered from an array view of the words."""
    width, threshold = _unit_rule(bound)
    units = _lane_units(_mixed_lanes(state, words), words, width)
    if width == 8:
        return units.translate(*_byte_rule(bound))
    return [u % bound for u in units if u < threshold]


def _draw(state: int, bound: int, count: int) -> tuple[int, list[int]]:
    """``count`` uniform integers in [0, bound) by rejection, drawn from
    the SplitMix64 stream at ``state``; returns the advanced state and
    the draws.  The one rejection loop of the module.

    A draw reads the next w-bit unit u of the stream (``_unit_rule``)
    and is accepted when u < 2^w - (2^w mod b), as u mod b.  The call
    drops the units of its last word it does not need (the block
    samplers read whole words through ``_Batches``).

    Words are mixed in rounds.  A round takes as many words as the
    draws still missing need if every unit is accepted, at most
    ``_LANES``: all words of it but the last hold fewer units than are
    missing, so the call reads no word past the one that holds its last
    draw, as a word-at-a-time loop would."""
    per_word = 64 // _unit_rule(bound)[0]
    draws: list[int] = []
    while len(draws) < count:
        words = min(-((len(draws) - count) // per_word), _LANES)
        draws += _accepted(state, bound, words)
        state = (state + words * _GAMMA) & _MASK64
    del draws[count:]
    return state, draws


def _skip(state: int, bound: int, count: int) -> tuple[int, int]:
    """Pass over the first ``count`` draws below ``bound`` of the
    SplitMix64 stream at ``state`` without making them: returns the
    state after the words all of whose accepted units are passed over,
    and how many draws from that state to drop as well, at most one
    word's units.  ``_draw`` from that state, less the dropped draws,
    reads the draws one ``_draw`` from ``state`` would read after the
    first ``count``.

    A round mixes one word fewer than the draws still to pass need if
    every unit is accepted, at most ``_LANES``: it holds fewer units
    than are missing, so every word of it is passed whole.  Its rejected
    units are counted on the mixed lanes, all widths alike, by a carry
    that stays inside each unit: u >= threshold means u + c >= 2^w for c
    = 2^w - threshold, and as c < 2^(w-1) that holds when the top bits
    of both u and (u's low w - 1 bits) + c are set.  The sum fits in its
    unit, so one addition serves every unit of the round, and
    ``int.bit_count`` counts the top bits left."""
    width, threshold = _unit_rule(bound)
    per_word = 64 // width
    feet = _lane_constants()[2][width]
    tops = feet << width - 1
    low, add = tops - feet, ((1 << width) - threshold) * feet
    while count > per_word:
        words = min((count - 1) // per_word, _LANES)
        lanes = _mixed_lanes(state, words)
        rejected = ((lanes & low) + add & lanes & tops).bit_count()
        count -= words * per_word - rejected
        state = (state + words * _GAMMA) & _MASK64
    return state, count


def derived_stream(seed: int, index: int) -> SplitMix64:
    """Stream for block ``index``: seeded with the index-th output word
    of a SplitMix64 stream seeded with the master seed."""
    return SplitMix64(_mix64((seed + (index + 1) * _GAMMA) & _MASK64))


class SamplerConfig(Frozen):
    """Seed, sample count and sizes for one estimation run."""

    __slots__ = _fields = ("seed", "samples", "sizes")

    def __init__(
        self, seed: int, samples: int, sizes: Optional[ChainSpec] = None
    ):
        if not 0 <= seed < 1 << 64:
            raise InvalidSizeError(
                f"seed must be a 64-bit unsigned integer, got {seed}"
            )
        if samples < 1:
            raise InvalidSizeError(f"samples must be >= 1, got {samples}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sizes", sizes)


class EstimateReport(Frozen):
    """Monte Carlo estimate with its exact reference value, when one exists.

    ``z_score`` is (mean - closed_form) / std_error, present only when a
    closed form is known and the standard error is positive.
    ``theta_ratio`` is mean / (log n / log log n) for max-fiber runs.
    """

    __slots__ = _fields = (
        "mean",
        "std_error",
        "closed_form",
        "z_score",
        "samples",
        "seed",
        "theta_ratio",
    )

    def __init__(
        self,
        mean: float,
        std_error: float,
        closed_form: Optional[Fraction],
        z_score: Optional[float],
        samples: int,
        seed: int,
        theta_ratio: Optional[float] = None,
    ):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std_error", std_error)
        object.__setattr__(self, "closed_form", closed_form)
        object.__setattr__(self, "z_score", z_score)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "theta_ratio", theta_ratio)


def sample_function(n: int, m: int, stream: SplitMix64) -> FiniteFunction:
    """Uniform random function: each image independent uniform on [0, m)."""
    if m < 1:
        # refused as the first randbelow(m) would be, even with no draws
        raise InvalidSizeError(f"bound must be >= 1, got {m}")
    stream._state, images = _draw(stream._state, m, n)
    return FiniteFunction(n, m, tuple(images))


def _chain_draws(sizes: Sequence[int]) -> dict[int, int]:
    """Per-sample draw bound of a chain under each bound: n_1 draws below
    n_2 for f_1, and at most min(n_1, n_s) below n_{s+1} for each later
    f_s (the image of the partial composition has at most that many
    points)."""
    draws = {sizes[1]: sizes[0]}
    for n, m in zip(sizes[1:], sizes[2:]):
        draws[m] = draws.get(m, 0) + min(sizes[0], n)
    return draws


def _batch_sizes(draws: dict[int, int]) -> dict[int, int]:
    """Words per batch of each bound's stream, given each bound's
    per-sample draw bound: the bound's share of ``_DRAW_CHUNK`` units,
    at most ``_LANES`` words, one round, and at least one.  All batches
    together hold at most ``_DRAW_CHUNK`` units beyond one word per
    bound."""
    total = sum(draws.values())
    sizes = {}
    for bound, need in draws.items():
        share = _DRAW_CHUNK * need // total // (64 // _unit_rule(bound)[0])
        sizes[bound] = max(min(share, _LANES), 1)
    return sizes


class _Batches:
    """Endless batches of draws below ``bound`` from the SplitMix64
    stream at ``state``: all accepted units of ``words`` words each, so
    the batch size changes no draw.  A slotted iterator, not a
    generator: a chain with thousands of bounds holds one per bound, and
    a generator with its frame takes about 200 bytes more."""

    __slots__ = ("_state", "_bound", "_words")

    def __init__(self, state: int, bound: int, words: int):
        self._state = state
        self._bound = bound
        self._words = words

    def __iter__(self) -> _Batches:
        return self

    def __next__(self) -> Sequence[int]:
        draws = _accepted(self._state, self._bound, self._words)
        self._state = (self._state + self._words * _GAMMA) & _MASK64
        return draws


def _digit_streams(
    seed: int, block: int, draws: dict[int, int], skip: int = 0
) -> dict[int, Iterator[int]]:
    """Block ``block``'s endless draw iterator for each bound of
    ``draws`` (bound -> per-sample draw bound): the draws below b of the
    stream derived from block ``block``'s stream with index b, in
    batches of ``_batch_sizes`` words, from draw ``skip`` on."""
    state = derived_stream(seed, block)._state
    streams = {}
    for bound, words in _batch_sizes(draws).items():
        start, drop = _skip(derived_stream(state, bound)._state, bound, skip)
        draws = chain.from_iterable(_Batches(start, bound, words))
        next(islice(draws, drop, drop), None)
        streams[bound] = draws
    return streams


def _chain_block(
    sizes: tuple[int, ...], seed: int, block: int, count: int
) -> tuple[int, int]:
    """Sum and square-sum of the fiber-square statistic over one block.

    Carries the fiber profile of the partial composition, one count per
    image point in order of first appearance, and draws each later map
    only at those points (the draw order of the stream contract; the
    test suite pins it against a reference built on ``next_word``).
    """
    streams = _digit_streams(seed, block, _chain_draws(sizes))
    n_1 = sizes[0]
    first = streams[sizes[1]]
    later = [streams[m] for m in sizes[2:]]
    # the maps hold their streams; a chain of thousands of distinct
    # bounds would keep the dict's 50 bytes per bound to the block's end
    del streams
    total = 0
    total_sq = 0
    for _ in range(count):
        profile = Counter(islice(first, n_1))
        for stream in later:
            merged: dict[int, int] = {}
            get = merged.get
            # counts first: zip stops on them without taking a draw
            for c, y in zip(profile.values(), stream):
                merged[y] = get(y, 0) + c
            profile = merged
        s_val = _square_sum(profile.values())
        total += s_val
        total_sq += s_val * s_val
    return total, total_sq


def _maxfiber_block(
    n: int, seed: int, block: int, count: int, first: int = 0
) -> tuple[int, int]:
    """Sum and square-sum of the largest fiber over samples ``first`` to
    ``first + count - 1`` of one block.  Every sample takes n draws of
    the block's one stream, so sample ``first`` starts at draw
    ``first * n``, which ``_skip`` reaches without drawing."""
    stream = _digit_streams(seed, block, {n: n}, first * n)[n]
    total = 0
    total_sq = 0
    for _ in range(count):
        m_val = max(fiber_sizes(islice(stream, n), n))
        total += m_val
        total_sq += m_val * m_val
    return total, total_sq


def _check_draws(samples: int, per_sample: int, what: str) -> None:
    """Refuse a run that may draw more than ``MAX_DRAWS`` values, before
    any drawing.  A huge count is not printed (``str`` limits digits)."""
    draws = samples * per_sample
    if draws > MAX_DRAWS:
        needs = str(draws) if draws < 10**100 else "more than 10^100"
        raise BudgetExceededError(
            f"{what} may need {needs} random draws, cap is {MAX_DRAWS}"
        )


def _share_bounds(
    samples: int, worker: int, workers: int, grain: int
) -> tuple[int, int]:
    """Samples ``start`` to ``end - 1`` of the run, the share of worker
    ``worker`` of ``workers``: the run is cut into U = ceil(samples /
    grain) units of ``grain`` samples, the last one maybe short, and
    worker w takes units floor(w * U / workers) on, up to where worker
    w + 1 starts."""
    units = -(-samples // grain)
    start = units * worker // workers * grain
    end = units * (worker + 1) // workers * grain
    # only the last share can reach past the short last unit
    return start, min(end, samples)


def _workers(samples: int, per_sample: int, grain: int) -> int:
    """Processes a run of ``samples`` samples of at most ``per_sample``
    draws each is dealt to in units of ``grain`` samples: one per usable
    CPU (the affinity mask, which ``taskset`` limits), but at most one
    per unit, and few enough that the smallest share may draw at least
    ``_FORK_DRAWS`` values.  One where there is no ``os.fork``, or where
    another thread is alive, which a forked child would not have (Python
    3.12 warns on such a fork); ``threading`` is looked at only if it
    was imported."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (
        threading is not None and threading.active_count() > 1
    ):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, -(-samples // grain))
    while workers > 1:
        bounds = [
            _share_bounds(samples, w, workers, grain) for w in range(workers)
        ]
        least = min(end - start for start, end in bounds)
        if least * per_sample >= _FORK_DRAWS:
            break
        workers -= 1
    return workers


def _pieces(
    samples: int, worker: int, workers: int, grain: int
) -> Iterator[tuple[int, int, int]]:
    """The share of worker ``worker`` of ``workers`` (``_share_bounds``),
    block by block: (block, count, first) for samples ``first`` to
    ``first + count - 1`` of block ``block``.  A share may start and end
    inside a block unless ``grain`` is a multiple of ``BLOCK_SAMPLES``;
    then ``first`` is always 0."""
    start, end = _share_bounds(samples, worker, workers, grain)
    for block in range(start // BLOCK_SAMPLES, -(-end // BLOCK_SAMPLES)):
        offset = block * BLOCK_SAMPLES
        first = max(start - offset, 0)
        yield block, min(end - offset, BLOCK_SAMPLES) - first, first


def _share(
    block_fn: Callable[[int, int, int], tuple[int, int]],
    pieces: Iterable[tuple[int, int, int]],
    parent: int,
) -> tuple[int, int]:
    """Totals of ``block_fn(block, count, first)`` over the ``pieces`` of
    one share.  Process ``parent`` runs the run; a worker it forked
    stops at the next piece once that process is gone (its parent is no
    longer ``parent``), raising ``ProcessLookupError``."""
    total = 0
    total_sq = 0
    for piece in pieces:
        if parent != os.getpid() and parent != os.getppid():
            raise ProcessLookupError(f"process {parent} is gone")
        piece_sum, piece_sq = block_fn(*piece)
        total += piece_sum
        total_sq += piece_sq
    return total, total_sq


def _fork_share(
    share: Callable[[int], tuple[int, int]], worker: int, readers: list[int]
) -> tuple[int, int]:
    """Fork a process that runs ``share(worker)``.  It writes the
    marshalled totals to a pipe and exits with 0, or the pickled error
    and exits with 1, through ``os._exit``: it never returns into the
    caller's stack, runs no exit handler and flushes no inherited
    buffer.  It first closes the ``readers`` of the workers forked
    before it.  Returns its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        for fd in readers:
            os.close(fd)
        try:
            data, written = marshal.dumps(share(worker)), 0
        except BaseException as exc:  # raised by the calling process
            import pickle

            data, written = pickle.dumps(exc), 1
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = written
    finally:
        os._exit(code)


def _worker_totals(pid: int, data: bytes, status: int) -> tuple[int, int]:
    """The totals a reaped worker wrote, or the error it wrote, raised;
    ``ChildProcessError`` when it wrote neither (killed, say)."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return marshal.loads(data)
    try:
        import pickle

        error = pickle.loads(data)
    except Exception:
        error = None
    if not isinstance(error, BaseException):
        raise ChildProcessError(
            f"Monte Carlo worker {pid} ended with status {code}"
        )
    raise error


def _run_blocks(
    block_fn: Callable[[int, int, int], tuple[int, int]],
    samples: int,
    per_sample: int,
    grain: int,
) -> tuple[int, int]:
    """Totals of ``block_fn(block, count, first)``, the sums over samples
    ``first`` to ``first + count - 1`` of block ``block``, over a run of
    ``samples`` samples of at most ``per_sample`` draws each.

    The run is dealt to ``_workers`` processes by ``_pieces``, in
    contiguous shares of whole units of ``grain`` samples: 1 where
    ``block_fn`` can start a block at any sample, ``BLOCK_SAMPLES``
    where it runs whole blocks only, ``first`` then always 0.  This
    process runs share 0, which starts at sample 0, and forked workers
    the others, each sending back its two exact totals (a share no
    worker could be forked for runs here).  A piece's sums depend only
    on its samples, and integers add up the same in any order, so the
    totals are those of the blocks run in order.  Every worker is reaped
    before this returns or raises.  A worker's error is raised here once
    all are reaped; on an error of this process's own share, or an
    interrupt, the workers are killed first."""
    workers = _workers(samples, per_sample, grain)
    if workers > 1:
        _lane_constants()  # built once here, not once per worker
    parent = os.getpid()

    def share(worker: int) -> tuple[int, int]:
        pieces = _pieces(samples, worker, workers, grain)
        return _share(block_fn, pieces, parent)

    own = [0]
    children: dict[int, int] = {}  # pid -> read end of its pipe
    outputs: list[bytes] = []
    statuses: list[int] = []
    try:
        for worker in range(1, workers):
            try:
                pid, read = _fork_share(share, worker, [*children.values()])
            except OSError:  # no process or pipe to spare
                own.append(worker)
            else:
                children[pid] = read
        totals = [share(worker) for worker in own]
        for read in children.values():
            with open(read, "rb", closefd=False) as pipe:
                outputs.append(pipe.read())
    finally:
        stopped = len(outputs) < len(children)
        if stopped:
            import signal
        for pid, read in children.items():
            os.close(read)
            if stopped:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    totals += map(_worker_totals, children, outputs, statuses)
    return sum(s for s, _ in totals), sum(sq for _, sq in totals)


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
    per_sample = sum(_chain_draws(sizes).values())
    _check_draws(config.samples, per_sample, "chain sampling")
    total, total_sq = _run_blocks(
        lambda b, c, _: _chain_block(sizes, config.seed, b, c),
        config.samples,
        per_sample,
        BLOCK_SAMPLES,
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
        lambda b, c, first: _maxfiber_block(n, config.seed, b, c, first),
        config.samples,
        n,
        1,
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
