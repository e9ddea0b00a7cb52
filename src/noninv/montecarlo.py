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
independent uniform draws, read low digit first.  Bounds above 2^64,
which no word could meet, are refused.  For b > 2^32, k = 1 and each
draw takes one word, as in version 2.

Words are mixed a round at a time, not one by one (``_words``): the
j-th word after state s is mix(s + j * gamma), so a round lays its
words out one per 128-bit lane of one integer and runs each xor-shift
and multiply of the mixer once on all of them ("SIMD within a
register", Lamport, CACM 1975).  A round takes only the words the
draws still missing need if every word is accepted, so a call reads
and returns the same words and state as a word-at-a-time loop; how
words are mixed is not part of the contract.

Samples are processed in fixed blocks of ``BLOCK_SAMPLES``.  Block i
has its own SplitMix64 stream whose initial state is the i-th output
word of a SplitMix64 stream seeded with the master seed
(``derived_stream(seed, i)``).  In block i, every draw below a bound b
reads the next unread digit of one digit stream per bound: the base-b
digits of the stream ``derived_stream(derived_stream(seed, i)._state,
b)``, word after accepted word.  No digit is dropped inside a block;
the digits left over when a block ends are discarded.  SplitMix64 is
counter-based, so each of these streams depends only on (seed, i, b):
blocks are independent of each other and of the order they run in.
Per-block partial sums are exact integers, so their total is the same
in any order.  The block size is part of the stream contract: changing
it changes the report.  Where ``os.fork`` exists, a run of two or more
blocks and at least ``_FORK_DRAWS`` draws deals its blocks round-robin
to one process per usable CPU (``_run_blocks``): the calling process
and workers forked from it, each sending back its two exact totals.
The report is the same for any number of workers; how blocks are
spread over processes is not part of the contract.

A chain sample takes n_1 draws below n_2 for f_1 at x = 0..n_1-1, in
order.  Each later f_s is drawn only at the image points of the partial
composition g = f_{s-1} o ... o f_1, one draw below n_{s+1} per point,
in order of first appearance of g(x) as x runs over 0..n_1-1: the
composition's degree depends on f_s only there.  A max-fiber sample
takes its n draws in order.  This is version ``STREAM_CONTRACT`` (4) of
the contract.  Version 3 drew from one stream per block, and each draw
call (f_1, each later map, a max-fiber map) started on a fresh word and
dropped the digits of its last word it did not need: on a 20-set chain
of 20 a sample read about 20.6 words, where it now reads about 7.7.
Version 2 took one word per draw, and version 1 drew every f_s at all
of X_s.

All reference values stay exact rationals; floats appear only in the
reported mean, standard error and z-score.

Each run draws at most ``MAX_DRAWS`` values: samples times the
per-sample bound n_1 + sum over s = 2..t of min(n_1, n_s) for a chain
(the image of g has at most min(n_1, n_s) points), or samples times n
for max fibers.  The cap counts draws, not words.  A run whose bound
exceeds the cap is refused before any drawing.  Each digit stream is
drawn in batches of whole words, sized from its bound's share of the
per-sample bound: at least one word each, and together at most
``_DRAW_CHUNK`` digits beyond one word per bound.  The batch size
changes no draw, and a sample holds its fiber counts and the batches,
not its draws.
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
from typing import Callable, Iterator, Optional, Sequence

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
STREAM_CONTRACT = 4
# well above the largest pinned run (acceptance criterion 8, 1.5e7
# draws).  _draw makes about 7-13M draws/s below 50, 4.6-8M below 10^4
# and 2-3.6M above 2^32, one per word (requests of 4,096 whole words,
# or 2,500 below 10^4; CPython 3.11.7, one core of a 2-core VM whose
# speed drifts by up to 45%); chain sampling on 50,50,50,50 runs at
# 2.3-4M draws/s with its counting (26-46 us a sample of about 105
# draws), so a run at the cap takes 25-45 s in one process.  Forked
# workers share it: 50,50,50,50 at 10^5 samples (1.5e7 draws) took
# 1.6 s on two CPUs against 2.8 s in one process, cold
MAX_DRAWS = 10**8
# a run that may draw fewer values runs in one process.  A fork costs
# about a millisecond, which a nearly empty block does not repay: cold,
# forked against serial on a 2-core VM (fresh bytecode, medians of 11),
# 50,50,50,50 at 1,025 samples (153,750 draws, one sample in the second
# block) took 104.9 against 104.2 ms, and at 2,048 samples (307,200
# draws) 127 against 136 ms.  Runs below the gate give up gains:
# --sizes 2,2 at 32,768 draws took 134 against 154 ms forked
_FORK_DRAWS = 1 << 18
# the batches of a block's digit streams hold at most this many digits
# beyond one word per bound, so a sample holds its fiber counts and the
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


# the most words one round of _words mixes; its lane constants take
# 16 bytes a lane each
_LANES = 1024


@cache
def _lane_constants() -> tuple[int, int, int]:
    """One, j * gamma and 2^64 - 1 in 128-bit lanes j = 1.._LANES (lane
    j at bit 128 (j - 1)), built on the first draw: a run that draws
    nothing does not pay for them."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
    index = int.from_bytes(
        b"".join(j.to_bytes(16, "little") for j in range(1, _LANES + 1)),
        "little",
    )
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
    return ones, _GAMMA * index, mask


def _lane_words(
    lanes: int, n: int, byteorder: str = sys.byteorder
) -> list[int]:
    """The low 64-bit halves of ``lanes``' n 128-bit lanes, low lane
    first, read as 64-bit words of ``byteorder``: the machine's, or the
    words come out byte-swapped."""
    halves = memoryview(lanes.to_bytes(n << 4, byteorder)).cast("Q")
    # little-endian bytes start at lane 0's low half; big-endian ones
    # end there
    return (halves[::2] if byteorder == "little" else halves[::-2]).tolist()


def _words(state: int, n: int) -> list[int]:
    """The next n words (n <= ``_LANES``) of the SplitMix64 stream at
    ``state``, mixed together, one 128-bit lane of one int per word
    (SWAR).  Lane j starts at state + j * gamma mod 2^64; each
    xor-shift and each multiply by a 64-bit constant is one operation
    on the whole int.  A mask after each keeps every lane below 2^64:
    the shift moves the next lane's low bits into this lane's high
    half, and a 64 x 64-bit product fills its own lane but no more."""
    ones, gammas, mask = _lane_constants()
    if n < _LANES:
        cut = (1 << (n << 7)) - 1
        ones, gammas, mask = ones & cut, gammas & cut, mask & cut
    z = (state * ones + gammas) & mask
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    # the low halves are final: the last shift moves bits only into
    # the high halves, which _lane_words skips
    return _lane_words(z ^ (z >> 31), n)


# unbounded: a run reads it for one bound per distinct set size, and a
# block reads every bound once per batch, round-robin, so a cache
# smaller than the bound count would miss on every read
@cache
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
    word and drops the rest (the block samplers ask for whole words).
    A bound above 2^64 is refused: no word would be accepted.

    Words are mixed in rounds by ``_words``.  A round takes as many
    words as the draws still missing need if every word is accepted, at
    most ``_LANES``, so the call reads no word past its last accepted
    one, as a word-at-a-time loop would."""
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
        words = min(-(-need // k), _LANES)
        for z in _words(state, words):
            if z < threshold:
                append(z % bound)
                need -= k
                # the word's other digits; the last word's only up to
                # count
                for _ in more_digits if need >= 0 else range(k - 1 + need):
                    z //= bound
                    append(z % bound)
        state = (state + words * _GAMMA) & _MASK64
    return state, draws


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
    """Digits per batch of each bound's digit stream, a whole number of
    words, given each bound's per-sample draw bound: enough words for
    one sample, cut to the bound's share of ``_DRAW_CHUNK`` digits, and
    at least one.  All batches together hold at most ``_DRAW_CHUNK``
    digits beyond one word per bound."""
    total = sum(draws.values())
    sizes = {}
    for bound, need in draws.items():
        k = _word_digits(bound)[0]
        share = _DRAW_CHUNK * need // total // k
        sizes[bound] = max(min(-(-need // k), share), 1) * k
    return sizes


class _Batches:
    """Endless lists of ``count`` draws below ``bound``, a whole number
    of words' digits each, from the SplitMix64 stream at ``state``.  A
    slotted iterator, not a generator: a chain with thousands of bounds
    holds one per bound, and a generator with its frame takes about 200
    bytes more."""

    __slots__ = ("_state", "_bound", "_count")

    def __init__(self, state: int, bound: int, count: int):
        self._state = state
        self._bound = bound
        self._count = count

    def __iter__(self) -> _Batches:
        return self

    def __next__(self) -> list[int]:
        self._state, draws = _draw(self._state, self._bound, self._count)
        return draws


def _digit_streams(
    seed: int, block: int, draws: dict[int, int]
) -> dict[int, Iterator[int]]:
    """Block ``block``'s endless digit iterator for each bound of
    ``draws`` (bound -> per-sample draw bound): the base-b digits of the
    stream derived from block ``block``'s stream with index b, drawn in
    batches of ``_batch_sizes`` digits."""
    state = derived_stream(seed, block)._state
    return {
        bound: chain.from_iterable(
            _Batches(derived_stream(state, bound)._state, bound, size)
        )
        for bound, size in _batch_sizes(draws).items()
    }


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
            # counts first: zip stops on them without taking a digit
            for c, y in zip(profile.values(), stream):
                merged[y] = get(y, 0) + c
            profile = merged
        s_val = _square_sum(profile.values())
        total += s_val
        total_sq += s_val * s_val
    return total, total_sq


def _maxfiber_block(
    n: int, seed: int, block: int, count: int
) -> tuple[int, int]:
    stream = _digit_streams(seed, block, {n: n})[n]
    total = 0
    total_sq = 0
    for _ in range(count):
        m_val = max(fiber_sizes(islice(stream, n), n))
        total += m_val
        total_sq += m_val * m_val
    return total, total_sq


def _check_draws(samples: int, per_sample: int, what: str) -> int:
    """The most values a run may draw; a run that may draw more than
    ``MAX_DRAWS`` is refused, before any drawing.  A huge count is not
    printed (``str`` limits digits)."""
    draws = samples * per_sample
    if draws <= MAX_DRAWS:
        return draws
    needs = str(draws) if draws < 10**100 else "more than 10^100"
    raise BudgetExceededError(
        f"{what} may need {needs} random draws, cap is {MAX_DRAWS}"
    )


def _workers(blocks: int, draws: int) -> int:
    """Processes a run of ``blocks`` blocks and at most ``draws`` draws
    is split over: one per usable CPU (the affinity mask, which
    ``taskset`` limits), at most one per block.  One for a run of fewer
    than ``_FORK_DRAWS`` draws, where there is no ``os.fork``, or where
    another thread is alive, which a forked child would not have
    (Python 3.12 warns on such a fork); ``threading`` is looked at only
    if it was imported."""
    threading = sys.modules.get("threading")
    if (
        blocks < 2
        or draws < _FORK_DRAWS
        or not hasattr(os, "fork")
        or (threading is not None and threading.active_count() > 1)
    ):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(blocks, cpus)


def _share(
    block_fn: Callable[[int, int], tuple[int, int]],
    samples: int,
    worker: int,
    workers: int,
    parent: int,
) -> tuple[int, int]:
    """Totals of ``block_fn(block, count)`` over the blocks of worker
    ``worker`` of ``workers``: every ``workers``-th block from block
    ``worker`` on.  Process ``parent`` runs the run; a worker it forked
    stops at the next block once that process is gone (its parent is no
    longer ``parent``), raising ``ProcessLookupError``."""
    total = 0
    total_sq = 0
    blocks = -(-samples // BLOCK_SAMPLES)
    for b in range(worker, blocks, workers):
        if parent != os.getpid() and parent != os.getppid():
            raise ProcessLookupError(f"process {parent} is gone")
        block_sum, block_sq = block_fn(
            b, min(BLOCK_SAMPLES, samples - b * BLOCK_SAMPLES)
        )
        total += block_sum
        total_sq += block_sq
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
    block_fn: Callable[[int, int], tuple[int, int]], samples: int, draws: int
) -> tuple[int, int]:
    """Totals of ``block_fn(block, count)`` over the run's blocks, which
    take at most ``draws`` draws.

    The blocks are dealt round-robin to ``_workers`` processes: this one
    and workers forked from it, each sending back its two exact totals
    (a share no worker could be forked for runs here).  A block's sums
    depend only on the block, and integers add up the same in any
    order, so the totals are those of the blocks run in order.  Every
    worker is reaped before this returns or raises.  A worker's error
    is raised here once all are reaped; on an error of this process's
    own share, or an interrupt, the workers are killed first."""
    workers = _workers(-(-samples // BLOCK_SAMPLES), draws)
    parent = os.getpid()

    def share(worker: int) -> tuple[int, int]:
        return _share(block_fn, samples, worker, workers, parent)

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
    draws = _check_draws(
        config.samples, sum(_chain_draws(sizes).values()), "chain sampling"
    )
    total, total_sq = _run_blocks(
        lambda b, c: _chain_block(sizes, config.seed, b, c),
        config.samples,
        draws,
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
    draws = _check_draws(config.samples, n, "max-fiber sampling")
    total, total_sq = _run_blocks(
        lambda b, c: _maxfiber_block(n, config.seed, b, c),
        config.samples,
        draws,
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
