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

from pin_tools import blas_note, record
from rowcover import (
    SparsityModel,
    assemble_instance,
    coverage_experiment,
    estimate_coverage_probability,
    phase_sweep,
    sample_indicator_pattern,
)

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


def _pattern_digest(n: int, p: int, theta: float, seed: int) -> str:
    pattern = sample_indicator_pattern(SparsityModel(n, theta), p, seed)
    return f"{pattern.shape} {pattern.dtype} {hashlib.sha256(pattern.tobytes()).hexdigest()}"


def _instance_digest(n: int, p: int, theta: float, seed: int) -> str:
    instance = assemble_instance(n, p, theta, seed)
    return " ".join(hashlib.sha256(getattr(instance, name).tobytes()).hexdigest()
                    for name in "vxy")


def cases():
    """(kind, key, thunk) for every pinned value."""
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


def compute() -> dict[str, dict[str, str]]:
    pins: dict[str, dict[str, str]] = {}
    for kind, key, thunk in cases():
        if key not in pins.setdefault(kind, {}):  # a case listed twice is computed once
            pins[kind][key] = thunk()
    return pins


def test_pattern_law_matches_its_pins():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    actual = compute()
    assert actual.keys() == expected.keys()
    for kind in expected:
        moved = [key for key in expected[kind] if actual[kind].get(key) != expected[kind][key]]
        assert actual[kind].keys() == expected[kind].keys(), kind
        # assemble_instance hashes V and Y, whose bits come from the BLAS kernel.
        assert not moved, f"{kind} moved at {moved}" + (
            f"; {blas_note()}" if kind == "assemble_instance" else "")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record(PINS, compute())
