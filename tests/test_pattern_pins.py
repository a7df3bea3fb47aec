"""Pinned outputs of the pattern law, compared with == against a committed file.

Every Bernoulli(theta) indicator the package draws comes from one law:
sample_indicator_pattern, the coverage estimator, the phase sweep and the
OMF experiment all compare a trial's uniforms with theta.  This file pins
what they return at seeds 0, 7 and 2^64 - 1, at the theta edges of that
comparison (1, 1/3 and its neighbours, 0.5, 2^-53, 2^-54 and the smallest
subnormal), at p = 0, and at trial counts past the 1,024-key block of
_streams.  Estimates are pinned by repr, patterns by the sha256 of their
bytes.

The pins were recorded before the pattern draw was rewritten, so a
rewrite that moves a single indicator shows here.  To re-record, on
purpose only:

    PYTHONPATH=src python tests/test_pattern_pins.py --record
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

from rowcover import (
    SparsityModel,
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


def _pattern_digest(n: int, p: int, theta: float, seed: int) -> str:
    pattern = sample_indicator_pattern(SparsityModel(n, theta), p, seed)
    return f"{pattern.shape} {pattern.dtype} {hashlib.sha256(pattern.tobytes()).hexdigest()}"


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
        yield ("estimate_coverage_probability", f"100 134 300 {seed} 0.05",
               lambda s=seed: repr(estimate_coverage_probability(SparsityModel(100, 0.05),
                                                                 134, 300, s)))
        yield ("phase_sweep", f"3 0.5 0 6 1025 {seed}",
               lambda s=seed: repr(phase_sweep(SparsityModel(3, 0.5), 0, 6, 1025, s)))
        yield ("phase_sweep", f"20 0.1 20 40 60 {seed}",
               lambda s=seed: repr(phase_sweep(SparsityModel(20, 0.1), 20, 40, 60, s)))
        yield ("coverage_experiment", f"3 6 1025 {seed} 0.5",
               lambda s=seed: repr(coverage_experiment(3, 0.5, 6, 1025, s)))


def compute() -> dict[str, dict[str, str]]:
    pins: dict[str, dict[str, str]] = {}
    for kind, key, thunk in cases():
        pins.setdefault(kind, {})[key] = thunk()
    return pins


def test_pattern_law_matches_its_pins():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    actual = compute()
    assert actual.keys() == expected.keys()
    for kind in expected:
        moved = [key for key in expected[kind] if actual[kind].get(key) != expected[kind][key]]
        assert actual[kind].keys() == expected[kind].keys(), kind
        assert not moved, f"{kind} moved at {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    PINS.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINS}")
