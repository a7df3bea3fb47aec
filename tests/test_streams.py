"""Tests for the batched stream derivation in _streams.

trial_streams, trial_seeds and spawn_streams must reproduce spawn_generator
and the SeedSequence sub-seeds bit for bit: same Philox keys, same
sub-seeds, same draws.  These compare them against numpy's SeedSequence
directly and against trial-by-trial rebuilds of the estimators that use
them.  fill and blocks must leave the stream after their last row
untouched, and no other module may reach into how numpy draws or how
sampled blocks are sized.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from rowcover import (
    SparsityModel,
    assemble_instance,
    coverage_experiment,
    estimate_coverage_probability,
    estimate_expected_cover_time,
    row_coverage_check,
)
from rowcover import _streams

SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
BLOCK = _streams._BLOCK


def reference_key(seed: int, tag: int, t: int) -> list[int]:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(tag, t))
    return sequence.generate_state(2, np.uint64).tolist()


def batched_keys(seed: int, tag: int, start: int, stop: int) -> list[list[int]]:
    blocks = _streams._trial_keys(seed, tag, start, stop)
    return [[first, second] for key0, key1 in blocks for first, second in zip(key0, key1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_keys_match_seed_sequence(seed):
    tag = _streams.COVER_TRIAL
    keys = batched_keys(seed, tag, 0, BLOCK + 2)
    assert len(keys) == BLOCK + 2
    for t in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
        assert keys[t] == reference_key(seed, tag, t)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_keys_across_the_two_word_index_boundary(seed):
    # Indices from 2**32 on are two uint32 words in the spawn key.
    tag = _streams.COVERAGE_TRIAL
    start = 2**32 - 2
    keys = batched_keys(seed, tag, start, start + 4)
    assert keys == [reference_key(seed, tag, t) for t in range(start, start + 4)]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_seeds_match_seed_sequence(seed):
    tag = _streams.INSTANCE
    for start, stop in ((0, 3), (BLOCK - 1, BLOCK + 2), (2**32 - 1, 2**32 + 1)):
        seeds = list(_streams.trial_seeds(seed, tag, start, stop))
        assert seeds == [reference_key(seed, tag, t)[0] for t in range(start, stop)]
        assert all(type(value) is int for value in seeds)


def test_spawn_keys_match_seed_sequence():
    # _spawn_keys hashes a vector of seeds, entropy words and all, where
    # _trial_keys starts from one seed's pool; both copy SeedSequence's hash.
    # Its keys come as _trial_keys' do, one (2, K) uint64 block per tag.
    tags = (_streams.ORTHOGONAL, _streams.PATTERN, _streams.VALUES)
    random = np.random.default_rng(2024).integers(0, 2**64, 1000, dtype=np.uint64, endpoint=False)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, *random.tolist()]
    blocks = _streams._spawn_keys(seeds, tags)
    assert blocks.dtype == np.uint64 and blocks.shape == (len(tags), 2, len(seeds))
    keys = [key for block in blocks for key in block.T.tolist()]
    expected = [
        np.random.SeedSequence(entropy=s, spawn_key=(tag,)).generate_state(2, np.uint64).tolist()
        for tag in tags for s in seeds
    ]
    mismatched = [i for i, (key, want) in enumerate(zip(keys, expected)) if key != want]
    assert len(keys) == len(expected) and not mismatched, (
        f"numpy {np.__version__}: _streams._spawn_keys differs from "
        f"SeedSequence(entropy=s, spawn_key=(tag,)).generate_state(2, np.uint64) at "
        f"{[(tags[i // len(seeds)], seeds[i % len(seeds)]) for i in mismatched[:5]]}"
    )


def test_spawn_streams_draw_like_fresh_ones():
    tags = (_streams.PATTERN, _streams.VALUES)
    streams = _streams.spawn_streams([5, 2**64 - 1], tags)
    fresh = [(s, tag) for tag in tags for s in (5, 2**64 - 1)]
    for stream, (seed, tag) in zip(streams, fresh, strict=True):
        assert draws(stream) == draws(_streams.spawn_generator(seed, tag))


def test_trial_streams_count_and_empty_range():
    assert sum(1 for _ in _streams.trial_streams(3, _streams.COVER_TRIAL, BLOCK + 1)) == BLOCK + 1
    assert list(_streams.trial_streams(3, _streams.COVER_TRIAL, 0)) == []
    assert list(_streams.trial_seeds(3, _streams.SWEEP_POINT, 5, 5)) == []


def draws(stream: np.random.Generator) -> tuple:
    # random() consumes a whole 64-bit output and integers(2**32) half of
    # one, leaving a buffered uint32 and a partly used Philox block behind.
    return (
        stream.random(),
        int(stream.integers(2**32)),
        stream.geometric(0.3, size=3).tolist(),
        stream.standard_normal(2).tolist(),
        int(stream.integers(2**32, dtype=np.uint32)),
    )


@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_rekeyed_stream_draws_like_a_fresh_one(seed):
    tag = _streams.COVER_TRIAL
    for t, stream in enumerate(_streams.trial_streams(seed, tag, 6)):
        assert draws(stream) == draws(_streams.spawn_generator(seed, tag, t))


def test_fill_leaves_the_stream_after_its_last_row():
    # zip takes a row before a stream: two rows take two streams, and the
    # third is left at its start for the caller's next draw.
    seed, tag = 9, _streams.VALUES
    streams = _streams.trial_streams(seed, tag, 3)
    rows = _streams.fill(np.empty((2, 4)), streams, np.random.Generator.standard_normal)
    fresh = [_streams.spawn_generator(seed, tag, t) for t in range(3)]
    assert rows.tolist() == [stream.standard_normal(4).tolist() for stream in fresh[:2]]
    assert draws(next(streams)) == draws(fresh[2])


def test_block_rows_caps_rows_and_bytes():
    # At most 1,024 rows and 2^18 bytes a block, at least one row, and no
    # more rows than trials.
    assert [_streams.block_rows(row_bytes) for row_bytes in (1, 2**8, 2**8 + 1)] == [
        1024, 1024, 1020]
    assert [_streams.block_rows(row_bytes) for row_bytes in (2**17, 2**18, 2**18 + 1)] == [
        2, 1, 1]
    assert _streams.block_rows(0) == 1024  # p = 0: a pattern of no indicators
    assert [_streams.block_rows(13_400, count) for count in (0, 1, 18, 19, 20)] == [
        1, 1, 18, 19, 19]
    assert _streams.block_rows(0, 7) == 7


def test_blocks_draw_what_one_fill_draws():
    # Rows of 2^17 bytes stack two a block: five rows are blocks of 2, 2
    # and 1 from one reused buffer, and the sixth stream is left at its start.
    seed, tag, count, width = 9, _streams.VALUES, 5, 2**14
    streams = _streams.trial_streams(seed, tag, count + 1)
    normal = np.random.Generator.standard_normal
    drawn = [block.copy() for block in _streams.blocks(count, streams, normal, np.float64, width)]
    assert [len(block) for block in drawn] == [2, 2, 1]
    filled = _streams.fill(np.empty((count, width)), _streams.trial_streams(seed, tag, count),
                           normal)
    assert np.array_equal(np.concatenate(drawn), filled)
    assert draws(next(streams)) == draws(_streams.spawn_generator(seed, tag, count))
    assert list(_streams.blocks(0, iter(()), normal, np.float64, width)) == []


_ONES = 2**64 - 1


@pytest.mark.parametrize("seed", (0, 7, 2**64 - 1))
def test_philox_words_are_the_rekeyed_streams_raw_words(seed):
    # Word i is word i mod 4 of the block at counter i // 4 + 1, so 20 words
    # cross four counter blocks.  The indices either side of 2^32 take their
    # keys from SeedSequence itself.
    tag = _streams.COVER_TRIAL
    for start in (0, BLOCK - 1, 2**32 - 1):
        keys = next(_streams._trial_keys(seed, tag, start, start + 2))
        for w in range(1, 21):
            words = _streams._philox_words(keys, w)
            assert words.shape == (w, 2)
            for j in range(2):
                stream = _streams.spawn_generator(seed, tag, start + j)
                assert words[:, j].tolist() == stream.bit_generator.random_raw(w).tolist()


def test_philox_matches_random123s_known_answer():
    # Random123's kat_vectors: philox4x64-10 at counter 0 and key 0.
    block = _streams._philox(np.zeros((4, 1, 1), np.uint64), np.zeros((2, 1, 1), np.uint64))
    assert block.ravel().tolist() == [
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]


def test_philox_carries_at_all_ones():
    # All-ones words make every 32-bit limb 2^32 - 1, the largest partial
    # products and both carries of the multiply-high.
    words = np.array([0, 1, 2**32 - 1, 2**32, _ONES, 0x8000000000000000], np.uint64)
    high, low = _streams._mulhilo(np.stack((words, words))[:, None, :])
    for j, multiplier in enumerate(_streams._PHILOX_MULT):
        products = [w * multiplier for w in words.tolist()]
        assert high[j, 0].tolist() == [product >> 64 for product in products]
        assert low[j, 0].tolist() == [product & _ONES for product in products]
    # numpy raises the counter before it makes a block, so a Philox set one
    # below all-ones makes its first block at counter all-ones; an all-ones
    # key's first 20 words are its blocks at counters 1 .. 5.
    ones = np.array([_ONES] * 4, np.uint64)
    keys = np.full((2, 1), _ONES, np.uint64)
    reference = np.random.Philox(counter=ones - np.array([1, 0, 0, 0], np.uint64), key=keys[:, 0])
    block = _streams._philox(ones[:, None, None], keys[:, None, :])
    assert block.ravel().tolist() == reference.random_raw(4).tolist()
    fresh = np.random.Philox(key=keys[:, 0]).random_raw(20)
    assert _streams._philox_words(keys, 20)[:, 0].tolist() == fresh.tolist()


def test_small_uniform_trials_take_vectorized_words(monkeypatch):
    # theta from 1/3 on and n up to the ceiling, at any trial count: no
    # generator is re-keyed, and the estimate is the per-trial one.  Past
    # either edge the trials are drawn from re-keyed generators.
    ceiling = _streams._WORDS_CEILING
    rekeyed = []
    keyed_streams = _streams.keyed_streams

    def counted(keys):
        rekeyed.append(True)
        return keyed_streams(keys)

    monkeypatch.setattr(_streams, "keyed_streams", counted)
    for n, theta, trials, vectorized in (
        (ceiling, 1 / 3, 256, True), (1, 1.0, 257, True),
        (ceiling, 0.5, 2, True), (ceiling, 0.5, 255, True),
        (ceiling + 1, 0.5, 256, False), (ceiling, math.nextafter(1 / 3, 0.0), 256, False),
    ):
        rekeyed.clear()
        estimate = estimate_expected_cover_time(SparsityModel(n, theta), trials, 5)
        assert bool(rekeyed) is not vectorized
        streams = (_streams.spawn_generator(5, _streams.COVER_TRIAL, t) for t in range(trials))
        values = [int(stream.geometric(theta, n).max()) for stream in streams]
        assert estimate.mean == float(np.mean(values))


# How numpy draws is _streams' concern alone: these are the names of its
# copies of numpy's hash, Philox state, Philox rounds, double and sampler
# details.
_NUMPY_STREAM_DETAILS = {
    "bit_generator", "random_raw", "raw_limit", "SeedSequence", "Philox", "standard_exponential",
    "_philox", "_philox_words", "_mulhilo", "_geometric_transform",
}
# So is the size of a sampled block: these are its row cap and byte budget.
_BLOCK_SIZING = {"_BLOCK", "_BLOCK_BYTES"}


def test_numpy_stream_details_stay_in_streams():
    modules = sorted(Path(_streams.__file__).parent.glob("*.py"))
    assert {"montecarlo.py", "omf.py"} <= {path.name for path in modules}
    named = []
    for path in modules:
        if path.name == "_streams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name in _NUMPY_STREAM_DETAILS | _BLOCK_SIZING:
                    named.append(f"{path.name}:{node.lineno} {name}")
    assert named == []


def test_coverage_probability_matches_a_reverse_rebuild():
    model = SparsityModel(4, 0.35)
    p, trials, seed = 5, 400, 78
    estimate = estimate_coverage_probability(model, p, trials, seed)
    hits = 0
    for t in reversed(range(trials)):
        stream = _streams.spawn_generator(seed, _streams.COVERAGE_TRIAL, t)
        hits += bool((stream.random((model.n, p)) < model.theta).any(axis=1).all())
    assert hits / trials == estimate.mean


def test_coverage_experiment_matches_a_reverse_rebuild():
    n, theta, p, trials, seed = 3, 0.4, 4, 120, 79
    estimate = coverage_experiment(n, theta, p, trials, seed)
    hits = 0
    for t in reversed(range(trials)):
        sub_seed = reference_key(seed, _streams.INSTANCE, t)[0]
        hits += row_coverage_check(assemble_instance(n, p, theta, sub_seed).x).covered
    assert hits / trials == estimate.mean


# The dense model, the cover-time sampler's branch edge, a half, the smallest
# subnormal, 2^-53 (the smallest nonzero double random() makes) and 2^-54
# below it, each with its neighbouring doubles inside (0, 1].
_LIMIT_THETAS = sorted({
    near
    for theta in (1.0, 1 / 3, 0.5, 5e-324, 2.0**-53, 2.0**-54)
    for near in (math.nextafter(theta, 0.0), theta, math.nextafter(theta, 2.0))
    if 0.0 < near <= 1.0
})


@pytest.mark.parametrize("theta", _LIMIT_THETAS)
def test_raw_limit_splits_words_as_random_does(theta):
    limit = int(_streams.raw_limit(theta))
    words = {0, 2047, 2048, limit - 1, limit, limit + 1, 2**64 - 1}
    words = {w for w in words if 0 <= w < 2**64}
    words |= set(np.random.Philox(11).random_raw(1000).tolist())
    mismatched = [w for w in sorted(words) if (w <= limit) != ((w >> 11) * 2.0**-53 < theta)]
    assert not mismatched, f"theta = {theta!r}: limit {limit} splits {mismatched[:5]} wrongly"


def test_random_is_the_raw_word_scaled():
    raw = np.random.Philox(12).random_raw(1000)
    uniforms = np.random.Generator(np.random.Philox(12)).random(1000)
    # A failure here means numpy changed how random() makes a double, not
    # that the package did.
    assert np.array_equal((raw >> 11) * 2.0**-53, uniforms), (
        f"numpy {np.__version__} changed Generator.random()'s double construction; "
        "_streams.raw_limit assumes numpy 2.4.6's (w >> 11) * 2^-53 of the raw Philox word w"
    )
