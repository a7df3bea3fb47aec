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
is re-keyed for each trial rather than built anew.  The scheme itself is
unchanged; only the cost of following it is.

A Bernoulli(theta) indicator is Generator.random() < theta at the next
stream position.  raw_limit turns that into one integer compare of the
raw Philox word, so patterns are drawn with random_raw and no doubles.

Path tags are centralized here so no two consumers can collide.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

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

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# Trial keys are hashed this many indices at a time, so memory stays flat
# in the trial count.
_BLOCK = 1024


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


def _trial_keys(
    seed: int, tag: int, start: int, stop: int
) -> Iterator[tuple[list[int], list[int]]]:
    """Philox keys of the streams (seed, tag, t) for t in range(start, stop).

    Yields blocks of at most _BLOCK indices in order, each as the lists of
    first and second key words; (key0[i], key1[i]) for index t equals
    SeedSequence(entropy=seed, spawn_key=(tag, t)).generate_state(2,
    np.uint64), and key0[i] alone is the sub-seed for (seed, tag, t).

    A 64-bit seed and a one-word tag assemble to the entropy words
    [lo, hi, 0, 0, tag, t], and SeedSequence mixes them in order with hash
    constants that advance independently of the data.  So the pool after
    the tag word is shared by every t (it is the pool of the sequence with
    spawn_key=(tag,)), and absorbing t and drawing the output words is the
    same arithmetic for each index: one vectorized pass over the block, in
    uint64 with every product of two 32-bit words masked back to 32 bits.
    An index of 2**32 or more is two words long; those indices, which no
    feasible run reaches, are hashed by SeedSequence itself.
    """
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(tag,)).pool.tolist()
    # Filling the pool, cross-mixing it and absorbing the tag took 4 + 12 + 4
    # hash steps before t's turn.
    hash_a = _INIT_A * pow(_MULT_A, 20, 2**32) & _MASK32
    for low in range(start, stop, _BLOCK):
        high = min(low + _BLOCK, stop)
        index = np.arange(low, min(high, 2**32), dtype=np.uint64)
        words = []
        a, b = hash_a, _INIT_B
        for mixed in pool:
            value = index ^ a  # hashmix(t), with this pool word's constant
            a = a * _MULT_A & _MASK32
            value = value * a & _MASK32
            value ^= value >> _XSHIFT
            # mix(pool word, hashmix(t)); the uint64 difference wraps mod 2**64.
            value = ((_MIX_MULT_L * mixed & _MASK32) - _MIX_MULT_R * value) & _MASK32
            value ^= value >> _XSHIFT
            value ^= b  # generate_state's output hash
            b = b * _MULT_B & _MASK32
            value = value * b & _MASK32
            value ^= value >> _XSHIFT
            words.append(value)
        key0 = (words[0] | words[1] << 32).tolist()
        key1 = (words[2] | words[3] << 32).tolist()
        for t in range(max(low, 2**32), high):
            sequence = np.random.SeedSequence(entropy=seed, spawn_key=(tag, t))
            first, second = sequence.generate_state(2, np.uint64).tolist()
            key0.append(first)
            key1.append(second)
        yield key0, key1


def trial_streams(seed: int, tag: int, trials: int) -> Iterator[np.random.Generator]:
    """The generators spawn_generator(seed, tag, t) for t = 0 .. trials - 1, in order.

    One Philox generator is re-keyed in place for every trial: counter
    zero and an empty output buffer, exactly as freshly constructed.  A
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
    for key0, key1 in _trial_keys(seed, tag, 0, trials):
        for key in zip(key0, key1):
            keyed["key"] = key
            bit_generator.state = state
            yield generator


def trial_seeds(seed: int, tag: int, start: int, stop: int) -> Iterator[int]:
    """The sub-seeds for (seed, tag, t), t in range(start, stop), in order.

    Each is, as an int,

        SeedSequence(entropy=seed, spawn_key=(tag, t)).generate_state(1, np.uint64)[0]
    """
    for key0, _ in _trial_keys(seed, tag, start, stop):
        yield from key0
