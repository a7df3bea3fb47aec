"""Deterministic random-stream derivation for the simulation modules.

Every stochastic routine in this package draws from a Philox counter-based
generator keyed by (seed, *path) through numpy's SeedSequence spawn
mechanism.  A stream is therefore a pure function of the user seed and a
small integer path (consumer tag, then trial index or grid coordinate),
so results are bit-reproducible regardless of execution order, chunking,
or worker count: any scheduler that assigns trial t its stream gets the
same numbers.

A sub-seed is a plain unsigned 64-bit seed for a child computation that
takes a seed argument of its own (sweep points, per-trial instances), so
its streams chain through the same derivation tree.  The sub-seed for
(seed, tag, t) is

    SeedSequence(entropy=seed, spawn_key=(tag, t)).generate_state(1, np.uint64)[0]

spawn_generator addresses one stream.  Per-trial loops use trial_streams
and trial_seeds, which produce the very same streams, and the sub-seeds,
for a run of consecutive indices: the Philox keys are hashed for a block
of indices in one numpy pass (_trial_keys), and a single Philox generator
is re-keyed for each trial rather than built anew (keyed_streams).  The
OMF instances take the streams (s, tag) of many sub-seeds s at once from
spawn_streams, whose keys are hashed in one numpy pass over the seeds
(_spawn_keys), with the same hash code.  Keys travel in one format, a
(2, K) uint64 block of first and second key words, a column a key.  The
scheme itself is unchanged; only the cost of following it is.

A Bernoulli(theta) indicator is Generator.random() < theta at the next
stream position.  raw_limit turns that into one integer compare of the
raw Philox word, so pattern_draw draws patterns with random_raw and no
doubles.  fill draws each row of a stacked buffer from the next stream,
and is the one place a row is paired with its stream.  A ufunc called once
a trial, as the pattern compare is, has arrays for operands, never numpy
scalars: numpy combines a 0-d array with an array faster than it does a
numpy scalar, so the pattern limit, like the hash constants, is a 0-d
uint64 array.

Cover times are drawn here whole: cover_times gives those of any
generators, a caller's one stream included, and trial_cover_times those
of the keyed trials, each the concatenation of its blocks' cover times.  A
cover time's variates are drawn and mapped as numpy's geometric sampler does
(_geometric_transform).  A small uniform-branch cover time needs only a
few raw words, and a re-keyed generator costs more per trial than its
draws.  So trial_cover_times, for trials of at most _WORDS_CEILING = 20
uniforms each (theta from 1/3 on), computes every trial's words with
Philox itself, in numpy array code, one pass per block of keys
(_philox_words), and keeps each trial's largest.  The words are those
the re-keyed stream would yield, so the cover times are too, at any trial
count.  The words cost one more Philox block per four variates, while a
native draw costs about the same at any small n, so their gain shrinks
with n and is gone from about 28 variates; the ceiling keeps a margin
below that.  Longer trials and the exponential branch are drawn from
re-keyed generators, and that choice is made nowhere else.  A caller's
stream is always drawn from: the words hold only at counter zero.

This is also the one place a sampled call's blocks are sized.  A block of
trials stacks one row per trial, at most _BLOCK = 1,024 rows and
_BLOCK_BYTES = 2^18 bytes (256 KiB), and at least one row, so a row past
the budget is a block of its own (block_rows); blocks draws a call's
trials through one such buffer.  A cover time's row holds at most 2^15
variates, the budget's worth of doubles, and a longer trial is drawn in
chunks of that width (chunked_max).  Two draws go past the budget.  The
vectorized words, 1,024 keys' words and Philox rounds, whose arrays grow
with ceil(n/4), peak at about 413 KiB at n = 5-8, 797 KiB at 16 and
909 KiB at 20 (tracemalloc, a warmed 1,024-trial estimate), under 2^20
bytes, and at about 221 KiB, under the budget, at n <= 4.  And
pattern_draw takes a trial's n x p raw words, 8 bytes an indicator,
beside the block's bools, so a coverage estimate holds one block plus one
trial's words, and while it draws a block, its key block's hash, about
140 bytes a key: a warmed estimate peaks at about 388 KB at (100, 134)
with 200 trials, 904 KB at (300, 300) and 2.36 MB at (1000, 262).  Streams
are per trial, so block sizes move memory and speed, never a value.

This is the only module that knows how numpy draws.  It copies five numpy
details, each of which numpy's stream policy (NEP 19) lets change between
releases, and the tests pin on the installed numpy only:

- SeedSequence's hash (numpy/random/bit_generator.pyx), and its split of a
  spawn-key int into little-endian 32-bit words, in _trial_keys and
  _spawn_keys;
- Philox's state layout (numpy/random/_philox.pyx), in keyed_streams;
- Philox4x64-10's rounds (numpy/random/src/philox/philox.h, from
  Random123) and numpy's counter convention, in _philox and
  _philox_words: a re-keyed stream's word i is word i mod 4 of the block
  at counter i // 4 + 1;
- random()'s double construction, philox_next_double
  (numpy/random/src/philox/philox.h), in raw_limit;
- the geometric sampler, random_geometric
  (numpy/random/src/distributions/distributions.c), in _geometric_transform.

_check_draw_size refuses a draw past numpy's allocation limit before
numpy is asked for it.  Path tags are centralized here so no two
consumers can collide.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import DomainError, checked_int

# Consumer tags: the first path component. Keep values stable; changing
# them changes every downstream stream.
COVER_TRIAL = 1
COVERAGE_TRIAL = 2
PATTERN = 3
VALUES = 4
ORTHOGONAL = 5
SWEEP_POINT = 6
INSTANCE = 7

_SEED_MAX = 2**64 - 1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).  Those
# the hash applies to arrays are 0-d uint64 arrays, which numpy combines with
# an array faster than it does Python ints.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MASK32 = np.array(0xFFFFFFFF, np.uint64)
_MIX_MULT_L = np.array(0xCA01F9DD, np.uint64)
_MIX_MULT_R = np.array(0x4973F715, np.uint64)
_XSHIFT = np.array(16, np.uint64)
_SHIFT32 = np.array(32, np.uint64)

# Philox4x64-10's round multipliers and key increments (Weyl constants), as
# Random123 and numpy/random/src/philox/philox.h define them.  The
# multipliers act on counter words 0 and 2, stacked in that order, so they
# are a column; their 32-bit limbs are split for the multiply-high, low limb
# first for the straight products and high limb first for the cross ones.
_PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# Round r of ten is keyed by the key plus r times the Weyl constants, mod 2^64.
# A round adds its step to the keys as it runs, so one round's keys are held
# at a time, within the block budget.
_PHILOX_KEY_STEPS = np.array(
    [[r * weyl % 2**64 for weyl in _PHILOX_WEYL] for r in range(10)], np.uint64
)[:, :, None, None]
_PHILOX_MULT_COLUMN = np.array(_PHILOX_MULT, np.uint64)[:, None, None]
_PHILOX_LIMBS = np.array(
    [[m & 0xFFFFFFFF for m in _PHILOX_MULT], [m >> 32 for m in _PHILOX_MULT]], np.uint64
)[:, :, None, None]
_PHILOX_CROSS = _PHILOX_LIMBS[::-1].copy()

# Trial keys are hashed, and trials stacked, at most this many at a time,
# so memory stays flat in the trial count.
_BLOCK = 1024

# Most bytes in one block of stacked draws.
_BLOCK_BYTES = 2**18

# numpy's geometric sampler clips a draw at or past 2^63 to the int64 maximum.
_CLIP_AT = 2.0**63

# numpy's geometric sampler inverts an exponential below this theta (its
# constant 0.333333333333333333333333 is this double) and searches a running
# sum for a uniform from it on.
_SEARCH_THETA = 1 / 3

# Uniform-branch cover times of at most _WORDS_CEILING variates each take
# their largest from vectorized Philox words (_philox_words).  Set from
# paired per-call timings on one pinned CPU (BENCH_29.json, paired_ratio):
# at 1,000 trials the words ran 1.4x as fast as re-keyed draws at n = 16,
# 1.2x at 20 and 24, and 0.94x at 28, so the ceiling keeps one Philox block
# of four words below the last n that gained.  Past it the words' arrays
# also grow as n x 1,024 keys a block.
_WORDS_CEILING = 20

# numpy refuses, with a bare ValueError, an array of more bytes than this.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


def checked_seed(seed: object) -> int:
    """Validate and normalize a user-facing seed to an unsigned 64-bit int."""
    value = checked_int(seed, "seed", 0)
    if value > _SEED_MAX:
        raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {value}")
    return value


def spawn_generator(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path)."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(sequence))


def raw_limit(theta: float) -> np.uint64:
    """The largest raw Philox word w whose Generator.random() double is below theta.

    numpy's Generator.random() makes the double (w >> 11) * 2^-53 from the
    next raw 64-bit word w (philox_next_double in
    numpy/random/src/philox/philox.h).  That double is below theta exactly
    when w >> 11 < ceil(theta * 2^53), that is, when w is at most
    ceil(theta * 2^53) * 2^11 - 1, so random() < theta and
    random_raw() <= raw_limit(theta) draw the same indicator from the same
    stream position, for every theta in (0, 1]: theta = 1 gives 2^64 - 1
    and the smallest subnormal 2047.
    """
    return np.uint64((math.ceil(math.ldexp(theta, 53)) << 11) - 1)


def pattern_draw(theta: float):
    """The draw of Bernoulli(theta) indicators: draw(stream, out) fills and returns out.

    out is a bool array, set to stream.random(out.shape) < theta as that
    many raw words at most raw_limit(theta), from the same stream positions.
    The draw runs once a trial, so its compare takes arrays only: the limit
    is held as a 0-d uint64 array, which numpy compares with the words
    faster than a numpy scalar, and out is passed positionally.
    """
    limit = np.array(raw_limit(theta))

    def draw(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return np.less_equal(stream.bit_generator.random_raw(out.shape), limit, out)

    return draw


def fill(out: np.ndarray, streams: Iterable[np.random.Generator], draw) -> np.ndarray:
    """out with each row drawn by draw(stream, out=row) from the next of streams.

    zip takes a row before a stream, so the stream after the last row is
    left for the caller's next draw: consecutive fills from one iterator
    draw consecutive streams.  A draw is a Generator method with an out
    argument (standard_normal, or a geometric variate), or pattern_draw's.
    """
    for row, stream in zip(out, streams):
        draw(stream, out=row)
    return out


def block_rows(row_bytes: int, count: int = _BLOCK) -> int:
    """How many trials of row_bytes bytes each one block of count trials stacks.

    At most _BLOCK rows, _BLOCK_BYTES bytes and count rows, and at least one
    row: a row past the budget is a block of its own.
    """
    return max(1, min(_BLOCK, _BLOCK_BYTES // max(1, row_bytes), count))


def blocks(count: int, streams, draw, dtype, *shape: int) -> Iterator[np.ndarray]:
    """count rows of shape and dtype, filled from the next count streams, a block at a time.

    Each block is fill's view of one buffer of block_rows rows, so a yielded
    block is valid only until the next one is yielded, and the stream after
    the last row is left at its start.
    """
    rows = block_rows(np.dtype(dtype).itemsize * math.prod(shape), count)
    buffer = np.empty((rows, *shape), dtype)
    for start in range(0, count, rows):
        yield fill(buffer[:count - start], streams, draw)


def chunked_max(draw, n: int):
    """A draw of n doubles into a row of at most _BLOCK_BYTES, and the row's width.

    draw is a Generator method that fills and returns out.  A row of n doubles
    within the budget is drawn whole, by draw itself.  Past it, the row is
    the budget's worth of doubles wide: the first chunk is drawn into the
    row, and each later one beside it and folded in under a running max, so
    the row's largest is the largest of all n, drawn from the same stream
    positions.
    """
    width = min(n, _BLOCK_BYTES // 8)
    chunk = np.empty(width)

    def chunked(stream: np.random.Generator, out: np.ndarray) -> None:
        draw(stream, out=out)
        for done in range(width, n, width):
            head = out[:n - done]
            np.maximum(head, draw(stream, out=chunk[:n - done]), out=head)

    return (draw if n == width else chunked), width


def _geometric_transform(theta: float):
    """numpy's geometric(theta) sampler as a variate and a map of its largest.

    Generator.geometric draws one variate per value.  Below theta = 1/3 it is
    a standard exponential E, mapped to ceil(-E / log1p(-theta)) and clipped
    at the int64 maximum.  From 1/3 on it is a uniform U, mapped to the
    smallest X with U <= S_X, where S_1 = theta and S_X adds theta(1-theta)^(X-1)
    to S_(X-1) in numpy's own float recurrence.  Both maps are non-decreasing,
    so the largest of n draws is the map of the largest of their variates.

    Returns the Generator method that draws the variates and the map, which
    takes an array of largest variates and returns int64 cover times.  It
    raises DomainError where numpy would clip a draw, and where numpy would
    not return at all: for about a fifth of theta in [1/3, 1), S_X stops
    growing below the largest uniform numpy can draw, 1 - 2^-53, and numpy's
    search for a U above it never ends.
    """
    if theta < _SEARCH_THETA:
        scale = math.log1p(-theta)

        def inverted(tops: np.ndarray) -> np.ndarray:
            # A subnormal scale overflows the quotient to inf: a clipped draw.
            with np.errstate(over="ignore"):
                draws = np.ceil(-tops / scale)
            if draws.max() >= _CLIP_AT:
                raise DomainError(f"theta = {theta!r} clips a geometric draw at the int64 maximum")
            return draws.astype(np.int64)

        return np.random.Generator.standard_exponential, inverted
    # numpy's S_X, extended only as far as the largest uniform yet mapped.
    q = 1.0 - theta
    sums, term = [theta], theta

    def searched(tops: np.ndarray) -> np.ndarray:
        nonlocal term
        top = float(tops.max())
        while sums[-1] < top:
            total = sums[-1] + term * q
            if total == sums[-1]:  # the terms only shrink: numpy's loop never ends
                raise DomainError(
                    f"theta = {theta!r} with a uniform draw of {top!r} hangs numpy's "
                    f"geometric sampler: its running sum stops at {total!r}"
                )
            term *= q
            sums.append(total)
        return np.searchsorted(sums, tops) + 1

    return np.random.Generator.random, searched


def cover_times(theta: float, n: int, count: int, streams) -> np.ndarray:
    """The int64 cover times of the next count of streams, each of n geometric(theta) draws.

    A cover time equals stream.geometric(theta, n).max() and leaves the
    stream where that would: each trial fills one row of a block with the n
    variates numpy's sampler draws, or their running max past one row's
    width (chunked_max), one max per block gives every trial's largest, and
    only that is mapped to a draw (_geometric_transform).  The stream after
    the last is left at its start.
    """
    draw, cover_time = _geometric_transform(theta)
    draw, width = chunked_max(draw, n)
    tops = (block.max(axis=1) for block in blocks(count, streams, draw, np.float64, width))
    return np.concatenate([np.empty(0, np.int64), *map(cover_time, tops)])


def _check_draw_size(names: str, *shape: int) -> None:
    # One draw of 8-byte values (float64, int64 or uint64) of this shape,
    # refused before numpy is asked for an array it cannot allocate.
    size = math.prod(shape) * 8
    if size > _MAX_ARRAY_BYTES:
        raise DomainError(
            f"{names} = {' x '.join(map(str, shape))} draw needs {size} bytes, "
            f"more than numpy can allocate ({_MAX_ARRAY_BYTES})"
        )


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    # SeedSequence's running hash constants init * mult^i mod 2^32, i < count, as a column.
    constants = [init * pow(mult, i, 2**32) % 2**32 for i in range(count)]
    return np.array(constants, np.uint64)[:, None]


# hashmix's constants for the entropy words [lo, hi, 0, 0, tag, t_lo, t_hi]:
# filling the pool takes steps 0-3, cross-mixing it 4-15, absorbing tag 16-19,
# t's low word 20-23 and, for t >= 2^32, its high word 24-27.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 29)
# generate_state's output hash constants for four words.
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 5)
# The pool words each cross-mixing source word is mixed into, in order.
_CROSS_MIX = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hash(values, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of values at consecutive steps, one row per step.

    Step i xors with constants[i], multiplies by constants[i + 1] and folds
    the high half in, all mod 2^32 (hashmix, and generate_state's output
    hash).  values broadcasts against the column constants[:-1], so a
    (k,) vector hashed at m steps gives an (m, k) array.  Arithmetic is in
    uint64 with every product masked back to 32 bits, so a value wider than
    32 bits hashes as its low word.
    """
    values = (values ^ constants[:-1]) * constants[1:] & _MASK32
    return values ^ values >> _XSHIFT


def _mix(pool, hashed) -> np.ndarray:
    # SeedSequence's mix of pool words with hashed entropy; the uint64
    # difference wraps mod 2^64, which leaves its low 32 bits right.
    values = (_MIX_MULT_L * pool - _MIX_MULT_R * hashed) & _MASK32
    return values ^ values >> _XSHIFT


def _absorb(pool: np.ndarray, words, step: int) -> np.ndarray:
    # One entropy word past the pool size, hashed at steps step .. step + 3,
    # mixed into each of the four pool words (the rows of pool).
    return _mix(pool, _hash(words, _HASH_A[step:step + 5]))


def _output_keys(pool: np.ndarray) -> np.ndarray:
    # generate_state(2, np.uint64) of pools whose four words are the
    # second-to-last axis: the words hashed, then paired low and high into
    # the two key words, which take the place of the four.
    words = _hash(pool, _HASH_B)
    return words[..., 0::2, :] | words[..., 1::2, :] << _SHIFT32


def _trial_keys(seed: int, tag: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """Philox keys of the streams (seed, tag, t) for t in range(start, stop).

    Yields blocks of at most _BLOCK indices in order, each a (2, K) uint64
    array of first and second key words; column i, for index t, equals
    SeedSequence(entropy=seed, spawn_key=(tag, t)).generate_state(2,
    np.uint64), and its first word alone is the sub-seed for (seed, tag, t).

    A 64-bit seed and a one-word tag assemble to the entropy words
    [lo, hi, 0, 0, tag, t_lo, t_hi]: SeedSequence splits t into
    little-endian 32-bit words, so t_hi is there only for t >= 2**32.  It
    mixes them in order with hash constants that advance independently of
    the data.  So the pool after the tag word is shared by every t (it
    is the pool of the sequence with spawn_key=(tag,)), and absorbing t
    and drawing the output words is the same arithmetic for each index:
    one vectorized pass over the block, for every index below 2**64.  The
    pass absorbs each index's low word, as _hash keeps only the low 32 bits
    of its products.  Indices of 2**32 or more, which only a coverage
    estimate or coverage_experiment past 2**32 trials and phase_sweep's
    sub-seeds at p >= 2**32 reach, have their high words absorbed after
    it, in the blocks that hold them.
    """
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(tag,)).pool.astype(np.uint64)[:, None]
    for low in range(start, stop, _BLOCK):
        index = np.arange(low, min(low + _BLOCK, stop), dtype=np.uint64)
        mixed = _absorb(pool, index, 20)
        if low + len(index) > 2**32:
            wide = max(0, 2**32 - low)
            mixed[:, wide:] = _absorb(mixed[:, wide:], index[wide:] >> _SHIFT32, 24)
        yield _output_keys(mixed)


def _spawn_keys(seeds: list[int], tags: tuple[int, ...]) -> np.ndarray:
    """Philox keys of spawn_generator(s, tag) for each tag, and each s in seeds within it.

    Returns a (len(tags), 2, len(seeds)) uint64 array: one (2, K) block of
    keys per tag, in order, whose column i is SeedSequence(entropy=seeds[i],
    spawn_key=(tag,)).generate_state(2, np.uint64).  All of them come from
    one vectorized pass over the seeds: each seed's entropy words
    [lo, hi, 0, 0] fill and cross-mix its four-word pool, each tag word is
    absorbed into a copy of it, and the output hash makes the keys.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    entropy = np.zeros((4, len(seeds)), dtype=np.uint64)
    entropy[0] = seeds & _MASK32
    entropy[1] = seeds >> 32
    pool = _hash(entropy, _HASH_A[:5])
    for src, dsts in enumerate(_CROSS_MIX):
        step = 4 + 3 * src
        pool[dsts] = _mix(pool[dsts], _hash(pool[src], _HASH_A[step:step + 4]))
    tagged = _absorb(pool, np.array(tags, dtype=np.uint64)[:, None, None], 16)
    return _output_keys(tagged)


def _mulhilo(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products of Philox's two multipliers.

    words is a (2, ...) uint64 array, counter words 0 and 2, and row j is
    multiplied by multiplier j.  The high word is built from 32-bit limbs:
    with w = w1 2^32 + w0 and m = m1 2^32 + m0, neither the carry sum
    t = w1 m0 + (w0 m0 >> 32) nor u = (t & 2^32 - 1) + w0 m1 overflows, and
    the high word is w1 m1 + (t >> 32) + (u >> 32).  The low word is the
    product wrapped mod 2^64.  Both rows share every array operation.
    """
    limbs = np.empty((2, *words.shape), np.uint64)
    np.bitwise_and(words, _MASK32, out=limbs[0])
    np.right_shift(words, _SHIFT32, out=limbs[1])
    low_low, high_high = limbs * _PHILOX_LIMBS
    low_high, carry = limbs * _PHILOX_CROSS
    low_low >>= _SHIFT32
    carry += low_low
    low_high += carry & _MASK32
    high_high += carry >> _SHIFT32
    high_high += low_high >> _SHIFT32
    return high_high, words * _PHILOX_MULT_COLUMN


def _philox(counters: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Philox4x64-10's output blocks: (4, B, K) uint64 words from counters and keys.

    counters is a (4, B, 1) or (4, B, K) uint64 array of counter blocks and
    keys a (2, 1, K) or (2, B, K) array of keys, as numpy's
    philox4x64_R(10, counter, key) takes them.  A round maps the counter
    (c0, c1, c2, c3) to (hi(m1 c2) ^ c1 ^ k0, lo(m1 c2), hi(m0 c0) ^ c3 ^ k1,
    lo(m0 c0)), and the key (k0, k1) gains the Weyl constants before each
    round after the first.
    """
    even, odd = counters[0::2], counters[1::2]
    for step in _PHILOX_KEY_STEPS:
        high, low = _mulhilo(even)
        even, odd = high[::-1] ^ odd ^ (keys + step), low[::-1]
    out = np.empty((4, *even.shape[1:]), np.uint64)
    out[0::2], out[1::2] = even, odd
    return out


def _philox_words(keys: np.ndarray, n: int) -> np.ndarray:
    """The first n raw words of the re-keyed streams of a (2, K) array of keys: an (n, K) array.

    A re-keyed stream starts at counter zero with an empty buffer, and
    numpy's Philox raises the counter before it makes a block, so word i is
    word i mod 4 of the block at counter i // 4 + 1: column j holds what
    keyed_streams' generator for key j would return from random_raw(n).
    """
    count = -(-n // 4)
    counters = np.zeros((4, count, 1), np.uint64)
    counters[0, :, 0] = np.arange(1, count + 1)
    blocks = _philox(counters, keys[:, None, :])
    return blocks.transpose(1, 0, 2).reshape(4 * count, -1)[:n]


def keyed_streams(keys: Iterable[np.ndarray]) -> Iterator[np.random.Generator]:
    """The generators of the Philox keys in keys, (2, K) uint64 blocks, a column a key, in order.

    One Philox generator is re-keyed in place for every key: counter
    zero and an empty output buffer, exactly as freshly constructed from
    a SeedSequence whose generate_state(2, np.uint64) is the key.  A
    yielded stream is therefore valid only until the next one is yielded.
    """
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    keyed = {"counter": [0, 0, 0, 0], "key": None}
    state = {
        "bit_generator": "Philox",
        "state": keyed,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for block in keys:
        for key in zip(*block.tolist()):
            keyed["key"] = key
            bit_generator.state = state
            yield generator


def spawn_streams(seeds: list[int], tags: tuple[int, ...]) -> Iterator[np.random.Generator]:
    """The generators spawn_generator(s, tag) for each tag, and each s in seeds within it.

    Their keys come from one numpy pass over the seeds (_spawn_keys), and
    they from keyed_streams, so a yielded stream is valid only until the
    next one is yielded.
    """
    return keyed_streams(_spawn_keys(seeds, tags))


def trial_streams(seed: int, tag: int, trials: int) -> Iterator[np.random.Generator]:
    """The generators spawn_generator(seed, tag, t) for t = 0 .. trials - 1, in order.

    They come from keyed_streams, so a yielded stream is valid only until
    the next one is yielded.
    """
    return keyed_streams(_trial_keys(seed, tag, 0, trials))


def trial_cover_times(seed: int, tag: int, theta: float, n: int, count: int) -> np.ndarray:
    """cover_times of the streams (seed, tag, t) for t = 0 .. count - 1.

    Trials of at most _WORDS_CEILING uniforms each (theta from 1/3 on)
    take each trial's first n raw words from one vectorized Philox pass per
    block of keys (_philox_words), and make the largest the double random()
    would: (w >> 11) * 2^-53, which never falls as w grows, so it is the
    largest uniform.  Every other call draws from re-keyed generators.
    """
    if theta >= _SEARCH_THETA and n <= _WORDS_CEILING:
        tops = ((_philox_words(keys, n).max(axis=0) >> 11) * 2.0**-53
                for keys in _trial_keys(seed, tag, 0, count))
        return np.concatenate([np.empty(0, np.int64), *map(_geometric_transform(theta)[1], tops)])
    return cover_times(theta, n, count, trial_streams(seed, tag, count))


def trial_seeds(seed: int, tag: int, start: int, stop: int) -> Iterator[int]:
    """The sub-seeds for (seed, tag, t), t in range(start, stop), in order.

    Each is, as an int,

        SeedSequence(entropy=seed, spawn_key=(tag, t)).generate_state(1, np.uint64)[0]
    """
    for keys in _trial_keys(seed, tag, start, stop):
        yield from keys[0].tolist()
