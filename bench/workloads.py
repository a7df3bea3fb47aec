"""The four rowcover benchmark workloads.

Each workload is a closed loop with one client: `ops(cycle)` returns the
calls of one cycle, and the loop makes the next call only after the
previous one returns.  Every cycle has the same composition, so rates and
latency percentiles do not depend on how many cycles fit in a run.
Arguments are a pure function of (workload seed, cycle, call label), so
no two cycles repeat a call and a result cache in the program cannot turn
later cycles into hits.

Every result has an invariant check that holds on any seed (Monte Carlo
estimates within 5 standard errors of their analytic values, analytic
values inside known brackets, CLI output equal to the golden files).
`run.py` adds the digests recorded at the default seed on top.

Calls go through module attributes (`montecarlo.phase_sweep(...)`),
looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rowcover import bounds, coverage, montecarlo, omf
from rowcover.coverage import SparsityModel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_CHILD = BENCH / "cli_child.py"
GOLDEN_DIR = ROOT / "tests" / "data"

# Result fields left out of digests: truncation_error_bound is a bound, not
# a printed value, and the planned tail-sum rewrite may tighten it.
VOLATILE_FIELDS = frozenset({"truncation_error_bound"})

# One-sided normal tail beyond 5 standard errors.
FIVE_SIGMA_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


@dataclasses.dataclass(frozen=True)
class Op:
    """One call of a cycle: what to run, how to check it, what to digest."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    trials: int = 0
    keyed: bool = True  # arguments depend on (seed, cycle)
    digest_of: Callable[[Any], Any] = lambda result: result


def derived_seed(seed: int, cycle: int, label: str) -> int:
    """Unsigned 64-bit seed for one call, a pure function of its position."""
    digest = hashlib.sha256(f"{seed}/{cycle}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def canonical(value: Any) -> Any:
    """JSON-able form of a result, reals at the CLI's 12 significant digits."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.name not in VOLATILE_FIELDS
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return [list(value.shape), [f"{x:.12g}" for x in value.ravel().tolist()]]
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    return value


def digest(value: Any) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def normal_interval_ok(mean: float, std_error: float, ci_low: float, ci_high: float) -> bool:
    return _close(ci_low, mean - Z95 * std_error) and _close(ci_high, mean + Z95 * std_error)


def proportion_interval_ok(mean: float, std_error: float, ci_low: float, ci_high: float,
                           trials: int) -> bool:
    """Standard error and Wilson score interval of a proportion, clamped to contain it."""
    z_sq = Z95 * Z95
    denom = 1.0 + z_sq / trials
    center = (mean + z_sq / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(mean * (1.0 - mean) / trials + z_sq / (4.0 * trials**2)) / denom
    return (
        _close(std_error, math.sqrt(mean * (1.0 - mean) / trials))
        and _close(ci_low, max(0.0, min(center - half, mean)))
        and _close(ci_high, min(1.0, max(center + half, mean)))
    )


def proportion_ok(mean: float, trials: int, prob: float) -> bool:
    """False when `mean` lies more than 5 standard errors from `prob`.

    Judged by the exact binomial tail, so proportions near 0 or 1, where
    the normal approximation fails, are neither flagged spuriously nor
    let through.
    """
    hits = round(mean * trials)
    if abs(hits - mean * trials) > 1e-6 * trials:
        return False
    if prob <= 0.0 or prob >= 1.0:
        return hits == round(prob * trials)
    expected = trials * prob
    if abs(hits - expected) <= 5.0 * math.sqrt(expected * (1.0 - prob)):
        return True
    span = range(hits, trials + 1) if hits > expected else range(0, hits + 1)
    log_p, log_q, log_n = math.log(prob), math.log1p(-prob), math.lgamma(trials + 1)
    tail = math.fsum(
        math.exp(log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * log_p + (trials - k) * log_q)
        for k in span
    )
    return tail >= FIVE_SIGMA_TAIL


# Oracles: the closed forms, written here independently of the package so
# that a wrong value in rowcover cannot also move the value it is checked
# against.

def coverage_oracle(n: int, theta: float, p: int) -> float:
    """P(T <= p) = (1 - (1-theta)^p)^n."""
    if p == 0:
        return 0.0
    return math.exp(n * math.log1p(-math.exp(p * math.log1p(-theta))))


def cover_time_oracle(n: int, theta: float) -> float:
    """E[T] = sum_{t >= 0} 1 - (1 - (1-theta)^t)^n, summed until terms drop below 1e-16."""
    log_q = math.log1p(-theta)
    terms, t = [1.0], 1
    while terms[-1] > 1e-16:
        terms.append(-math.expm1(n * math.log1p(-math.exp(t * log_q))))
        t += 1
    return math.fsum(terms)


def phase_sum_oracle(n: int, theta: float) -> float:
    """sum_{k=1}^{n} 1 / (1 - (1-theta)^k)."""
    log_q = math.log1p(-theta)
    return math.fsum(-1.0 / math.expm1(k * log_q) for k in range(1, n + 1))


# ------------------------------------------------------------------ mc_cover

# Acceptance check 2's grid, plus a mid-size and a large-n point.
COVER_POINTS = (
    (1, 0.5), (2, 0.9), (3, 0.5), (3, 0.1), (5, 0.3), (8, 0.05),
    (8, 0.7), (10, 0.3), (12, 0.5), (16, 0.1), (20, 0.3), (20, 0.9),
    (100, 0.1), (2000, 0.01),
)
COVER_TRIALS = 1_000
# One call with 10x the trials: the same per-trial path at a larger batch.
# 1e5 trials would make a single call 2-4 s long on the reference host,
# too long for the host-speed correction in run.py to follow.
COVER_LARGE = ((3, 0.5), 10_000)


class McCover:
    """estimate_expected_cover_time over the check-2 grid and two larger n."""

    name = "mc_cover"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.expected = {
            point: cover_time_oracle(*point) for point in COVER_POINTS
        }

    def ops(self, cycle: int) -> list[Op]:
        ops = [self._op(cycle, point, COVER_TRIALS) for point in COVER_POINTS]
        ops.append(self._op(cycle, *COVER_LARGE))
        return ops

    def _op(self, cycle: int, point: tuple[int, float], trials: int) -> Op:
        label = f"cover/n={point[0]}/theta={point[1]}/trials={trials}"
        model = SparsityModel(*point)
        seed = derived_seed(self.seed, cycle, label)
        expected = self.expected[point]

        def check(estimate) -> bool:
            return (
                estimate.trials == trials
                and estimate.seed == seed
                and abs(estimate.mean - expected) <= 5.0 * estimate.std_error
                and normal_interval_ok(estimate.mean, estimate.std_error,
                                       estimate.ci_low, estimate.ci_high)
            )

        return Op(
            label, lambda: montecarlo.estimate_expected_cover_time(model, trials, seed),
            check, trials=trials,
        )


# --------------------------------------------------------------- mc_coverage

SWEEPS = ((10, 0.3), (100, 0.05))
SWEEP_DELTA = 0.1
SWEEP_HALF_WIDTH = 3
SWEEP_TRIALS = 200
EXPERIMENTS = ((3, 0.5, 6, 200), (50, 0.1, 100, 50))  # n, theta, p, trials
INSTANCE = (50, 100, 0.1)  # n, p, theta


class McCoverage:
    """Phase sweeps around p*, OMF coverage experiments, an instance round trip."""

    name = "mc_coverage"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.instance_path = out_dir / "instance.txt"
        self.ranges = {}
        for n, theta in SWEEPS:
            # p* from the closed form: smallest p with coverage >= 1 - delta.
            p_star = 1
            while coverage_oracle(n, theta, p_star) < 1.0 - SWEEP_DELTA:
                p_star += 1
            self.ranges[n, theta] = (p_star - SWEEP_HALF_WIDTH, p_star + SWEEP_HALF_WIDTH)

    def ops(self, cycle: int) -> list[Op]:
        ops = [self._sweep(cycle, n, theta) for n, theta in SWEEPS]
        ops += [self._experiment(cycle, *spec) for spec in EXPERIMENTS]
        ops += self._round_trip(cycle)
        return ops

    def _sweep(self, cycle: int, n: int, theta: float) -> Op:
        label = f"sweep/n={n}/theta={theta}"
        model = SparsityModel(n, theta)
        low, high = self.ranges[n, theta]
        seed = derived_seed(self.seed, cycle, label)

        def check(curve) -> bool:
            return [point.p for point in curve.points] == list(range(low, high + 1)) and all(
                math.isclose(point.analytic, coverage_oracle(n, theta, point.p), rel_tol=1e-12)
                and proportion_ok(point.empirical.mean, SWEEP_TRIALS, point.analytic)
                and proportion_interval_ok(point.empirical.mean, point.empirical.std_error,
                                           point.empirical.ci_low, point.empirical.ci_high,
                                           SWEEP_TRIALS)
                for point in curve.points
            )

        return Op(
            label, lambda: montecarlo.phase_sweep(model, low, high, SWEEP_TRIALS, seed),
            check, trials=SWEEP_TRIALS * (high - low + 1),
        )

    def _experiment(self, cycle: int, n: int, theta: float, p: int, trials: int) -> Op:
        label = f"experiment/n={n}/theta={theta}/p={p}"
        seed = derived_seed(self.seed, cycle, label)
        analytic = coverage_oracle(n, theta, p)
        return Op(
            label, lambda: omf.coverage_experiment(n, theta, p, trials, seed),
            lambda e: proportion_ok(e.mean, trials, analytic)
            and proportion_interval_ok(e.mean, e.std_error, e.ci_low, e.ci_high, trials),
            trials=trials,
        )

    def _round_trip(self, cycle: int) -> list[Op]:
        n, p, theta = INSTANCE
        seed = derived_seed(self.seed, cycle, "instance")
        path = self.instance_path
        built = {}

        def assemble():
            built["instance"] = omf.assemble_instance(n, p, theta, seed)
            return built["instance"]

        def same(read) -> bool:
            original = built["instance"]
            return (read.n, read.p, read.theta, read.seed) == (n, p, theta, seed) and all(
                np.array_equal(getattr(read, m), getattr(original, m)) for m in "vxy"
            )

        return [
            Op("assemble_instance", assemble,
               lambda instance: instance.x.shape == (n, p) and instance.seed == seed),
            Op("write_instance", lambda: omf.write_instance(built["instance"], path),
               lambda _: path.stat().st_size > 0, digest_of=lambda _: path.read_bytes()),
            Op("read_instance", lambda: omf.read_instance(path), same),
        ]


# ------------------------------------------------------------------ analytic

DECADES = (1e-1, 1e-2, 1e-3, 1e-4)
ROWS = (3, 100, 2000)
GRID = tuple((n, theta) for theta in DECADES for n in ROWS)
# The tail sum's cost grows 10x per decade; theta = 1e-5 (1.4 s a call)
# runs at one n only, and bound_report, which repeats the tail sum, skips it,
# so that a run holds several cycles.
EXACT_POINTS = GRID + ((2000, 1e-5),)
THRESHOLD_DELTA = 0.01
# phase_sum_raw: three linear-branch points, two log-space ones
# (n log(1 - theta) below -700).  The log branch costs O(n^2) lgamma
# calls; n = 1000 takes 0.9 s, n = 2000 would take 3.5 s.
PHASE_POINTS = ((3, 0.1), (100, 0.1), (2000, 0.1), (100, 0.9995), (1000, 0.6))
# Relative theta jitter: changes every value, moves no cost or branch.
JITTER = 1e-4
TOL = 1e-10


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / k for k in range(1, n + 1))


def _in_bracket(model: SparsityModel, value: float) -> bool:
    # H_n / lambda <= E[T] <= 1 + H_n / lambda, lambda = -log(1 - theta).
    scale = _harmonic(model.n) / -math.log1p(-model.theta)
    return scale * (1 - 1e-9) <= value <= (1.0 + scale) * (1 + 1e-9)


class Analytic:
    """Exact expectation, bounds, thresholds and phase sums; no randomness."""

    name = "analytic"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def _theta(self, cycle: int, label: str, theta: float) -> float:
        unit = derived_seed(self.seed, cycle, label) / 2.0**64
        return theta * (1.0 - JITTER * unit)

    def ops(self, cycle: int) -> list[Op]:
        def model(n: int, theta: float) -> tuple[str, SparsityModel]:
            point = f"n={n}/theta={theta:g}"
            return point, SparsityModel(n, self._theta(cycle, point, theta))

        return (
            [self._exact(*model(*point)) for point in EXACT_POINTS]
            + [self._bounds(*model(*point)) for point in GRID]
            + [self._threshold(*model(*point)) for point in EXACT_POINTS]
            + [self._phase_sum(*model(*point)) for point in PHASE_POINTS]
        )

    @staticmethod
    def _exact(point: str, model: SparsityModel) -> Op:
        def check(summary) -> bool:
            return (
                _in_bracket(model, summary.exact_expectation)
                and 0.0 <= summary.truncation_error_bound <= TOL
                and summary.phase_sum >= summary.exact_expectation * (1 - 1e-12)
                and math.isclose(summary.classic_reference, model.n * _harmonic(model.n),
                                 rel_tol=1e-12)
            )

        return Op(f"exact/{point}", lambda: coverage.exact_expected_cover_time(model, TOL), check)

    @staticmethod
    def _bounds(point: str, model: SparsityModel) -> Op:
        def check(report) -> bool:
            return (
                _in_bracket(model, report.exact_expectation)
                and report.simple_lower_bound <= report.theorem_bound
                and report.theorem_bound <= report.phase_sum * (1 + 1e-12)
            )

        return Op(f"bounds/{point}", lambda: bounds.bound_report(model), check)

    @staticmethod
    def _threshold(point: str, model: SparsityModel) -> Op:
        def check(p_star) -> bool:
            target = 1.0 - THRESHOLD_DELTA
            # The defining inequalities, to a relative 1e-12 for rounding.
            def covered(p: int) -> float:
                return coverage_oracle(model.n, model.theta, p)

            return covered(p_star) >= target * (1 - 1e-12) and (
                p_star == 1 or covered(p_star - 1) < target * (1 + 1e-12)
            )

        return Op(f"threshold/{point}",
                  lambda: coverage.coverage_threshold(model, THRESHOLD_DELTA), check)

    @staticmethod
    def _phase_sum(point: str, model: SparsityModel) -> Op:
        collapsed = phase_sum_oracle(model.n, model.theta)
        return Op(f"phase_sum_raw/{point}", lambda: coverage.phase_sum_raw(model),
                  lambda value: math.isclose(value, collapsed, rel_tol=1e-9))


# ----------------------------------------------------------------------- cli

# The golden commands of tests/test_cli.py, whose stdout is tests/data/<name>.golden.
GOLDEN_COMMANDS = {
    "expect": ["expect", "--n", "3", "--theta", "0.5"],
    "bounds": ["bounds", "--n", "3", "--theta", "0.5"],
    "threshold": ["threshold", "--n", "3", "--theta", "0.5", "--delta", "0.1"],
    "simulate": ["simulate", "--n", "3", "--theta", "0.5", "--trials", "1000", "--seed", "42"],
    "sweep": ["sweep", "--n", "2", "--theta", "0.5",
              "--p-min", "1", "--p-max", "3", "--trials", "200", "--seed", "7"],
    "omf": ["omf", "--n", "3", "--theta", "0.5", "--p", "6", "--trials", "500", "--seed", "9"],
}
GOLDEN_TRIALS = {"simulate": 1000, "sweep": 3 * 200, "omf": 500}
LONG_SWEEP = {"n": (5, 20), "theta": (0.3, 0.1), "p": (1, 25), "trials": 100}
OMF_OUT = "instance.txt"


@dataclasses.dataclass(frozen=True)
class CliRun:
    returncode: int
    stdout: bytes
    stderr: bytes


class Cli:
    """Whole-process `rowcover` runs: six subcommands, CSV forms, a long sweep, omf --out.

    With `traced`, each process runs through cli_child.py, which times its
    phases and reports them on stderr; stdout is unchanged.
    """

    name = "cli"

    def __init__(self, seed: int, out_dir: Path, env: dict, traced: bool = False) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.env = env
        self.traced = traced
        self.child_timings: list[dict] = []
        self.stdout_bytes = 0
        self.peak_rss_kb = 0
        self.goldens = {
            name: (GOLDEN_DIR / f"{name}.golden").read_bytes() for name in GOLDEN_COMMANDS
        }

    def _run(self, args: list[str]) -> CliRun:
        entry = [str(CLI_CHILD)] if self.traced else ["-m", "rowcover.cli"]
        spawned = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        with subprocess.Popen([sys.executable, *entry, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env, cwd=self.out_dir) as child:
            # The CLI writes at most a line to stderr, so reading stdout to
            # its end first cannot block.  wait4 reaps the child with its
            # resource usage, which gives its peak memory.
            stdout, stderr = child.stdout.read(), child.stderr.read()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        self.stdout_bytes += len(stdout)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced:
            stderr, _, timing = stderr.rstrip(b"\n").rpartition(b"\n")
            self.child_timings.append(dict(json.loads(timing), spawned=spawned))
        return CliRun(child.returncode, stdout, stderr)

    def ops(self, cycle: int) -> list[Op]:
        ops = []
        for name, args in GOLDEN_COMMANDS.items():
            golden = self.goldens[name]
            trials = GOLDEN_TRIALS.get(name, 0)
            ops.append(Op(f"{name}/json", lambda args=args: self._run(args),
                          lambda run, golden=golden: run.returncode == 0 and run.stdout == golden,
                          trials=trials, keyed=False, digest_of=lambda run: run.stdout))
            ops.append(Op(f"{name}/csv", lambda args=args: self._run([*args, "--format", "csv"]),
                          lambda run: run.returncode == 0 and run.stdout.count(b"\n") >= 2,
                          trials=trials, keyed=False, digest_of=lambda run: run.stdout))
        ops.append(self._long_sweep(cycle))
        ops.append(self._omf_out())
        return ops

    def _long_sweep(self, cycle: int) -> Op:
        spec = LONG_SWEEP
        seed = derived_seed(self.seed, cycle, "long_sweep")
        p_min, p_max = spec["p"]
        args = ["sweep", "--n", ",".join(map(str, spec["n"])),
                "--theta", ",".join(map(str, spec["theta"])),
                "--p-min", str(p_min), "--p-max", str(p_max),
                "--trials", str(spec["trials"]), "--seed", str(seed)]
        count = len(spec["n"]) * len(spec["theta"]) * (p_max - p_min + 1)

        def check(run: CliRun) -> bool:
            if run.returncode != 0:
                return False
            records = [json.loads(line) for line in run.stdout.splitlines()]
            return len(records) == count and all(self._sweep_record_ok(r, seed) for r in records)

        return Op("long_sweep", lambda: self._run(args), check,
                  trials=count * spec["trials"], digest_of=lambda run: run.stdout)

    @staticmethod
    def _sweep_record_ok(record: dict, seed: int) -> bool:
        parameters, results = record["parameters"], record["results"]
        analytic = coverage_oracle(parameters["n"], parameters["theta"], parameters["p"])
        return (
            parameters["seed"] == seed
            and results["analytic"] == float(f"{analytic:.12g}")
            and proportion_ok(results["mean"], parameters["trials"], analytic)
            and proportion_interval_ok(results["mean"], results["std_error"], results["ci_low"],
                                       results["ci_high"], parameters["trials"])
        )

    def _omf_out(self) -> Op:
        args = [*GOLDEN_COMMANDS["omf"], "--out", OMF_OUT]
        path = self.out_dir / OMF_OUT
        return Op(
            "omf/out", lambda: self._run(args),
            lambda run: run.returncode == 0 and omf.read_instance(path).p == 6,
            trials=GOLDEN_TRIALS["omf"], keyed=False,
            digest_of=lambda run: [run.stdout, path.read_bytes()],
        )


WORKLOADS = {cls.name: cls for cls in (McCover, McCoverage, Analytic, Cli)}
