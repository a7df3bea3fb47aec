"""Pinned outputs of the pattern law, compared with == against a committed file.

Every Bernoulli(theta) indicator the package draws comes from one law:
sample_indicator_pattern, the coverage estimator, the phase sweep and the
OMF experiment all compare a trial's uniforms with theta.  This file pins
what they return at seeds 0, 7 and 2^64 - 1, at the theta edges of that
comparison (1, 1/3 and its neighbours, 0.5, 2^-53, 2^-54 and the smallest
subnormal), at p = 0, and at trial counts past the 1,024-key block of
_streams.  Estimates are pinned by repr, patterns by the sha256 of their
bytes.

Whole OMF instances are pinned too: the sha256 of assemble_instance's v,
x and y, and coverage_experiment's estimate, at five (n, p) shapes from
(1, 1) to (50, 100), seeds 0, 7, 2^32 and 2^64 - 1, and 1 and 200 trials,
with 1,025 (past the key block) at the three smallest shapes.  So are
estimates and experiments at the edges of their trial blocks: one trial
short of a full block, a full block and one trial past it, a trial larger
than a block's budget, and a last block only partly filled.

The stream layer and the cover-time estimator are pinned by literal
values too, since tier-1 otherwise checks them only against the installed
numpy: the Philox keys _trial_keys hashes at t = 0, 1023, 1024 (the first
index of the second key block) and 2^32 (the first two-word index), those
_spawn_keys hashes at seeds 0, 2^32 and 2^64 - 1, the first 8 raw words of
keyed_streams at two keys, numpy's first geometric draws at theta = 0.1,
1/3 and 0.5, and estimate_expected_cover_time on the exponential branch,
on the vectorized words, at theta = 1/3 and its neighbours, at theta = 1
and at an n past 2^15.  When those move, the failure names the numpy
release they were recorded on and the one running.

The pins were recorded before the pattern draw was rewritten, the
instance pins before instances were built in blocks, and the block-edge
pins before coverage trials were reduced a block at a time, so a rewrite that
moves a single indicator or value shows here.  To re-record, on
purpose only:

    PYTHONPATH=src python tests/test_pattern_pins.py --record
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from pin_tools import blas_note, numpy_note, record
from rowcover import (
    SparsityModel,
    assemble_instance,
    coverage_experiment,
    estimate_coverage_probability,
    estimate_expected_cover_time,
    phase_sweep,
    sample_indicator_pattern,
)
from rowcover import _streams

PINS = Path(__file__).with_name("data") / "pattern_pins.json"

SEEDS = (0, 7, 2**64 - 1)
THETAS = (
    1.0, 1 / 3, math.nextafter(1 / 3, 0.0), math.nextafter(1 / 3, 1.0), 0.5,
    2.0**-53, 2.0**-54, 5e-324, 0.05,
)
# n, p, trials, theta at the edges of a coverage-trial block, under a budget
# of at most 1,024 trials and 2^16 indicators: (10, 13) holds 504 trials a
# block and (3, 4) 1,024; (300, 300) is past the budget, a trial a block;
# p = 0 draws nothing.  Under 2^18 indicators: (100, 134) holds 19 trials a
# block, and (520, 520) is past the budget.
BLOCK_EDGES = (
    (10, 13, 503, 0.3), (10, 13, 504, 0.3), (10, 13, 505, 0.3),
    (3, 4, 1023, 0.5), (3, 4, 1024, 0.5), (300, 300, 3, 0.02), (2, 0, 1025, 0.5),
    (100, 134, 18, 0.05), (100, 134, 19, 0.05), (100, 134, 20, 0.05), (520, 520, 2, 0.0125),
)
# n, p, trials, theta whose last instance block is partly filled: (50, 40)
# holds 7 instances a block and (20, 30) 32.
INSTANCE_BLOCK_EDGES = ((50, 40, 11, 0.1), (20, 30, 33, 0.1))
INSTANCE_SEEDS = (0, 7, 2**32, 2**64 - 1)
# n, p, theta
INSTANCE_SHAPES = ((1, 1, 1.0), (3, 6, 0.5), (4, 7, 0.4), (50, 100, 0.1), (60, 3, 0.05))
PATTERN_KINDS = {"estimate_coverage_probability", "sample_indicator_pattern",
                 "coverage_experiment", "phase_sweep", "assemble_instance"}
# The kinds of the stream layer and the cover-time estimator, whose values
# rest on numpy's SeedSequence, Philox and geometric sampler alone.
STREAM_KINDS = {"_trial_keys", "_spawn_keys", "keyed_streams", "geometric",
                "estimate_expected_cover_time"}
SPAWN_SEEDS = (0, 2**32, 2**64 - 1)
SPAWN_TAGS = (_streams.PATTERN, _streams.VALUES, _streams.ORTHOGONAL)
# Philox keys (first word, second word) of two re-keyed streams.
RAW_KEYS = ((0, 0), (2**64 - 1, 2**64 - 1))
GEOMETRIC_THETAS = (0.1, 1 / 3, 0.5)
# n, theta, trials: the exponential branch, the vectorized words, the sampler's
# branch edge 1/3 and its neighbouring doubles, theta = 1, and an n past one
# chunk of 2^15 variates.
COVER_TIME_POINTS = (
    (3, 0.1, 1000), (2000, 0.01, 1000), (3, 0.5, 1000), (20, 0.9, 1000),
    (3, 1 / 3, 1000), (3, math.nextafter(1 / 3, 0.0), 1000), (3, math.nextafter(1 / 3, 1.0), 1000),
    (3, 1.0, 1000), (2**15 + 1, 0.5, 4),
)


def _pattern_digest(n: int, p: int, theta: float, seed: int) -> str:
    pattern = sample_indicator_pattern(SparsityModel(n, theta), p, seed)
    return f"{pattern.shape} {pattern.dtype} {hashlib.sha256(pattern.tobytes()).hexdigest()}"


def _instance_digest(n: int, p: int, theta: float, seed: int) -> str:
    instance = assemble_instance(n, p, theta, seed)
    return " ".join(hashlib.sha256(getattr(instance, name).tobytes()).hexdigest()
                    for name in "vxy")


def _trial_keys(seed: int, start: int, stop: int) -> list[list[int]]:
    # The coverage-trial keys for t in range(start, stop), a [first, second] pair each.
    blocks = _streams._trial_keys(seed, _streams.COVERAGE_TRIAL, start, stop)
    return np.concatenate(list(blocks), axis=1).T.tolist()


def _raw_words(key: tuple[int, int]) -> list[int]:
    stream = next(_streams.keyed_streams([np.array(key, np.uint64)[:, None]]))
    return stream.bit_generator.random_raw(8).tolist()


def stream_cases():
    """(kind, key, thunk) for every pinned value of the stream layer and the cover times."""
    for seed in SEEDS:
        # t = 1023 ends the first key block and 1024 opens the second; 2^32 - 1
        # is the last one-word index and 2^32 the first two-word one.
        yield from (("_trial_keys", f"{seed} {t}", lambda s=seed, t=t: _trial_keys(s, 0, 1025)[t])
                    for t in (0, 1023, 1024))
        yield ("_trial_keys", f"{seed} {2**32}",
               lambda s=seed: _trial_keys(s, 2**32 - 1, 2**32 + 1)[1])
        for theta in GEOMETRIC_THETAS:
            yield ("geometric", f"{seed} {theta!r}", lambda s=seed, th=theta: _streams.spawn_generator(
                s, _streams.COVER_TRIAL, 0).geometric(th, 8).tolist())
        for n, theta, trials in COVER_TIME_POINTS:
            yield ("estimate_expected_cover_time", f"{n} {theta!r} {trials} {seed}",
                   lambda n=n, th=theta, t=trials, s=seed: repr(
                       estimate_expected_cover_time(SparsityModel(n, th), t, s)))
    for i, seed in enumerate(SPAWN_SEEDS):
        for j, tag in enumerate(SPAWN_TAGS):
            yield ("_spawn_keys", f"{seed} {tag}", lambda i=i, j=j: _streams._spawn_keys(
                list(SPAWN_SEEDS), SPAWN_TAGS)[j, :, i].tolist())
    for key in RAW_KEYS:
        yield ("keyed_streams", f"{key[0]} {key[1]}", lambda k=key: _raw_words(k))


def cases():
    """(kind, key, thunk) for every pinned value."""
    yield from stream_cases()
    for seed in SEEDS:
        for theta in THETAS:
            for n, p, trials in ((3, 4, 1025), (2, 0, 3), (40, 30, 20)):
                yield ("estimate_coverage_probability", f"{n} {p} {trials} {seed} {theta!r}",
                       lambda n=n, p=p, t=trials, s=seed, th=theta: repr(
                           estimate_coverage_probability(SparsityModel(n, th), p, t, s)))
            for n, p in ((5, 0), (7, 13), (100, 134)):
                yield ("sample_indicator_pattern", f"{n} {p} {seed} {theta!r}",
                       lambda n=n, p=p, s=seed, th=theta: _pattern_digest(n, p, th, s))
            yield ("coverage_experiment", f"4 6 20 {seed} {theta!r}",
                   lambda s=seed, th=theta: repr(coverage_experiment(4, th, 6, 20, s)))
        for n, p, trials, theta in BLOCK_EDGES:
            yield ("estimate_coverage_probability", f"{n} {p} {trials} {seed} {theta!r}",
                   lambda n=n, p=p, t=trials, s=seed, th=theta: repr(
                       estimate_coverage_probability(SparsityModel(n, th), p, t, s)))
        for n, p, trials, theta in INSTANCE_BLOCK_EDGES:
            yield ("coverage_experiment", f"{n} {p} {trials} {seed} {theta!r}",
                   lambda n=n, p=p, th=theta, t=trials, s=seed: repr(
                       coverage_experiment(n, th, p, t, s)))
        yield ("estimate_coverage_probability", f"100 134 300 {seed} 0.05",
               lambda s=seed: repr(estimate_coverage_probability(SparsityModel(100, 0.05),
                                                                 134, 300, s)))
        yield ("phase_sweep", f"3 0.5 0 6 1025 {seed}",
               lambda s=seed: repr(phase_sweep(SparsityModel(3, 0.5), 0, 6, 1025, s)))
        yield ("phase_sweep", f"20 0.1 20 40 60 {seed}",
               lambda s=seed: repr(phase_sweep(SparsityModel(20, 0.1), 20, 40, 60, s)))
        yield ("coverage_experiment", f"3 6 1025 {seed} 0.5",
               lambda s=seed: repr(coverage_experiment(3, 0.5, 6, 1025, s)))
    for seed in INSTANCE_SEEDS:
        for n, p, theta in INSTANCE_SHAPES:
            yield ("assemble_instance", f"{n} {p} {theta!r} {seed}",
                   lambda n=n, p=p, th=theta, s=seed: _instance_digest(n, p, th, s))
            for trials in (1, 200, 1025) if n * p <= 28 else (1, 200):
                yield ("coverage_experiment", f"{n} {p} {trials} {seed} {theta!r}",
                       lambda n=n, p=p, th=theta, t=trials, s=seed: repr(
                           coverage_experiment(n, th, p, t, s)))


def compute(kinds=None) -> dict[str, dict[str, str]]:
    pins: dict[str, dict[str, str]] = {}
    for kind, key, thunk in cases():
        if kinds is not None and kind not in kinds:
            continue
        if key not in pins.setdefault(kind, {}):  # a case listed twice is computed once
            pins[kind][key] = thunk()
    return pins


def _moved(kinds: set[str]) -> dict[str, list[str]]:
    # The pinned keys of each of kinds whose value moved.  The file holds
    # exactly the pattern and stream kinds, and each kind exactly its cases.
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    assert expected.keys() == PATTERN_KINDS | STREAM_KINDS
    actual = compute(kinds)
    assert actual.keys() == kinds
    for kind in kinds:
        assert actual[kind].keys() == expected[kind].keys(), kind
    return {kind: [key for key in expected[kind] if actual[kind][key] != expected[kind][key]]
            for kind in kinds}


def test_pattern_law_matches_its_pins():
    for kind, moved in _moved(PATTERN_KINDS).items():
        # assemble_instance hashes V and Y, whose bits come from the BLAS kernel.
        assert not moved, f"{kind} moved at {moved}" + (
            f"; {blas_note()}" if kind == "assemble_instance" else "")


def test_stream_layer_and_cover_times_match_their_pins():
    for kind, moved in _moved(STREAM_KINDS).items():
        assert not moved, f"{kind} moved at {moved}; {numpy_note()}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record(PINS, compute())
