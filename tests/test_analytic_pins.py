"""Pinned outputs of the analytic functions, compared with == against a committed file.

E[T], the bound report, the phase sum, H_n, n * H_n and the digamma bound
are pinned by repr(), or by the exception's type and message, at:

- the bench's 13 E[T] points and 12 bound points, without its jitter;
- theta = 1, and n = 1, 2 and 3, where E[T]'s closed form carries
  derivative corrections;
- the two doubles either side of the theta where E[T]'s remainder bound
  26 lambda^3 / 720 meets the default tol, so one takes the closed form
  and the other the tail sum;
- about 300 log-uniform points, n <= 20,000 and theta in [1e-7, 0.999],
  held in the pin file itself rather than drawn at test time;
- n = 10^8 + 1 in both regimes, past the term ceiling;
- theta = 5e-324, 1e-310 and 1e-308, where E[T] and the phase sum
  overflow a double;
- the tail sum's rounding guard: a tol where the first horizon falls one
  term short;
- E[T]'s refusal order: a tol that needs too many tail terms, and a
  negative tol, also at an n past the term ceiling.

Every key is filed under "libm": the values go through the platform's
log1p, log, exp and expm1, or (H_n and n * H_n, which use only division
and fsum) feed values that do.  A libm that rounds differently may move
any of them.

The pins were recorded before bound_report was changed to share E[T]'s
H_n, so a rewrite that moves a single bit shows here.  To re-record, on
purpose only:

    PYTHONPATH=src python tests/test_analytic_pins.py --record
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from pin_tools import record
from rowcover import (
    SparsityModel,
    bound_report,
    classic_harmonic_sum,
    digamma_bound,
    exact_expected_cover_time,
    harmonic,
    phase_sum_expectation,
)

PINS = Path(__file__).with_name("data") / "analytic_pins.json"

BENCH_BOUND_POINTS = tuple((n, theta) for theta in (1e-1, 1e-2, 1e-3, 1e-4) for n in (3, 100, 2000))
BENCH_EXACT_POINTS = BENCH_BOUND_POINTS + ((2000, 1e-5),)
# The last theta whose remainder bound 26 lambda^3 / 720 is at most the
# default tol 1e-10, and the next double up.
EM_EDGE = (0.001403292325549051, 0.0014032923255490513)
EDGE_POINTS = tuple(
    (n, theta) for n in (1, 2, 3, 100, 2000) for theta in (1.0, 0.5, 0.1, 1e-3, 1e-6, *EM_EDGE)
)
PAST_CEILING = ((10**8 + 1, 0.5), (10**8 + 1, 1e-6))
OVERFLOW_POINTS = ((1, 5e-324), (2, 1e-310), (4, 1e-308))
# n, theta, tol where the tail sum's first horizon leaves a tail just above tol.
HORIZON_GUARD = (1900, 0.09670529158054293, 4.323636989642157e-91)
# n, theta, tol refused for too many tail terms, and for the tol itself,
# which is checked before n is.
TOL_REFUSALS = ((2, 1e-9, 1e-30), (3, 0.5, -1.0), (10**8 + 1, 0.5, -1.0))
RANDOM_POINTS = 300


def _pinned(thunk) -> str:
    try:
        return repr(thunk())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _draw_points() -> list[list]:
    rng = random.Random(26)
    return [
        [round(math.exp(rng.uniform(0.0, math.log(20_000)))),
         math.exp(rng.uniform(math.log(1e-7), math.log(0.999)))]
        for _ in range(RANDOM_POINTS)
    ]


def compute(points: list[list]) -> dict:
    models = dict.fromkeys(
        [*BENCH_EXACT_POINTS, *EDGE_POINTS, *PAST_CEILING, *OVERFLOW_POINTS, *map(tuple, points)]
    )
    pins: dict[str, dict[str, str]] = {}
    for n, theta in models:
        key = f"{n} {theta!r}"
        model = SparsityModel(n, theta)
        for name, function in (("exact_expected_cover_time", exact_expected_cover_time),
                               ("bound_report", bound_report),
                               ("phase_sum_expectation", phase_sum_expectation),
                               ("digamma_bound", digamma_bound)):
            pins.setdefault(name, {})[key] = _pinned(lambda: function(model))
        for name, function in (("harmonic", harmonic),
                               ("classic_harmonic_sum", classic_harmonic_sum)):
            pins.setdefault(name, {})[str(n)] = _pinned(lambda: function(n))
    for n, theta, tol in (HORIZON_GUARD, *TOL_REFUSALS):
        pins["exact_expected_cover_time"][f"{n} {theta!r} tol={tol!r}"] = _pinned(
            lambda: exact_expected_cover_time(SparsityModel(n, theta), tol))
    return {"points": points, "libm": pins}


def test_em_edge_straddles_the_default_tol():
    closed_form = [26.0 / 720.0 * (-math.log1p(-theta)) ** 3 <= 1e-10 for theta in EM_EDGE]
    assert closed_form == [True, False]
    assert math.nextafter(EM_EDGE[0], 1.0) == EM_EDGE[1]


def test_analytic_functions_match_their_pins():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    assert len(expected["points"]) == RANDOM_POINTS
    actual = compute(expected["points"])["libm"]
    assert actual.keys() == expected["libm"].keys()
    for name, pins in expected["libm"].items():
        assert actual[name].keys() == pins.keys(), name
        moved = [key for key in pins if actual[name][key] != pins[key]]
        assert not moved, f"{name} moved at {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    points = json.loads(PINS.read_text(encoding="utf-8"))["points"] if PINS.exists() else None
    record(PINS, compute(points or _draw_points()))
