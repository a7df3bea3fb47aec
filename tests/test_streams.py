"""Tests for the batched stream derivation in _streams.

trial_streams and trial_seeds must reproduce spawn_generator and the
SeedSequence sub-seeds bit for bit: same Philox keys, same sub-seeds,
same draws.  These compare them against numpy's SeedSequence directly
and against trial-by-trial rebuilds of the estimators that use them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from rowcover import (
    SparsityModel,
    assemble_instance,
    coverage_experiment,
    estimate_coverage_probability,
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
