"""Command-line front end.

Every computation in the package is exposed as a subcommand that prints
machine-readable records: JSON (one object per line, keys sorted,
newline-terminated) or CSV (header row plus one data row per record, with
nested keys flattened as `parameters.n`, `results.mean`, ...).  Reals are
printed with 12 significant digits, which round-trips doubles without
noise digits, so fixed inputs give byte-identical output across runs.

Randomized subcommands default to seed 0; no seed is ever derived from
the clock.  Exit codes: 0 success, 1 domain error (diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bounds import bound_report
from .coverage import (
    SparsityModel,
    coverage_probability,
    coverage_threshold,
    exact_expected_cover_time,
)
from .errors import DomainError
from .montecarlo import (
    estimate_coverage_probability,
    estimate_expected_cover_time,
    phase_sweep,
)
from .omf import assemble_instance, coverage_experiment, row_coverage_check, write_instance

__all__ = ["run", "main", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"

_DEFAULT_DELTA = 0.01
_DEFAULT_TRIALS = 10000
_DEFAULT_SEED = 0
_DEFAULT_TOL = 1e-10


def _real(value: float) -> float:
    # 12 significant digits; the printed form is what golden tests pin.
    return float(f"{float(value):.12g}")


def _record(command: str, parameters: dict, results: dict) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "schema_version": SCHEMA_VERSION,
    }


def _emit_json(records: list[dict], out) -> None:
    for record in records:
        out.write(json.dumps(record, sort_keys=True) + "\n")


def _flatten(record: dict) -> dict:
    flat = {"command": record["command"], "schema_version": record["schema_version"]}
    for group in ("parameters", "results"):
        for key, value in record[group].items():
            flat[f"{group}.{key}"] = value
    return flat


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_csv(records: list[dict], out) -> None:
    flats = [_flatten(record) for record in records]
    fields = sorted(flats[0])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for flat in flats:
        writer.writerow([_csv_cell(flat.get(field)) for field in fields])


def _cmd_expect(args: argparse.Namespace) -> list[dict]:
    model = SparsityModel(args.n, args.theta)
    summary = exact_expected_cover_time(model, args.tol)
    return [
        _record(
            "expect",
            {"n": model.n, "theta": _real(model.theta), "tol": _real(args.tol)},
            {
                "exact_expectation": _real(summary.exact_expectation),
                "phase_sum": _real(summary.phase_sum),
                "classic_reference": _real(summary.classic_reference),
                "truncation_error_bound": _real(summary.truncation_error_bound),
            },
        )
    ]


def _optional_real(value: Optional[float]) -> Optional[float]:
    return None if value is None else _real(value)


def _cmd_bounds(args: argparse.Namespace) -> list[dict]:
    model = SparsityModel(args.n, args.theta)
    report = bound_report(model)
    return [
        _record(
            "bounds",
            {"n": model.n, "theta": _real(model.theta)},
            {
                "theorem_bound": _real(report.theorem_bound),
                "simple_lower_bound": _real(report.simple_lower_bound),
                "digamma_bound": _optional_real(report.digamma_bound),
                "digamma_approx_bound": _optional_real(report.digamma_approx_bound),
                "small_theta_bound": _optional_real(report.small_theta_bound),
                "phase_sum": _real(report.phase_sum),
                "exact_expectation": _real(report.exact_expectation),
            },
        )
    ]


def _cmd_threshold(args: argparse.Namespace) -> list[dict]:
    model = SparsityModel(args.n, args.theta)
    p_star = coverage_threshold(model, args.delta)
    return [
        _record(
            "threshold",
            {"n": model.n, "theta": _real(model.theta), "delta": _real(args.delta)},
            {
                "p_star": p_star,
                "coverage_at_p_star": _real(coverage_probability(model, p_star)),
                "coverage_below_p_star": _real(coverage_probability(model, p_star - 1)),
            },
        )
    ]


def _cmd_simulate(args: argparse.Namespace) -> list[dict]:
    model = SparsityModel(args.n, args.theta)
    if args.p is None:
        estimate = estimate_expected_cover_time(model, args.trials, args.seed)
        analytic = exact_expected_cover_time(model, args.tol).exact_expectation
        parameters = {
            "n": model.n,
            "theta": _real(model.theta),
            "trials": args.trials,
            "seed": args.seed,
            "tol": _real(args.tol),
        }
    else:
        estimate = estimate_coverage_probability(model, args.p, args.trials, args.seed)
        analytic = coverage_probability(model, args.p)
        parameters = {
            "n": model.n,
            "theta": _real(model.theta),
            "p": args.p,
            "trials": args.trials,
            "seed": args.seed,
        }
    return [
        _record(
            "simulate",
            parameters,
            {
                "mean": _real(estimate.mean),
                "std_error": _real(estimate.std_error),
                "ci_low": _real(estimate.ci_low),
                "ci_high": _real(estimate.ci_high),
                "analytic": _real(analytic),
            },
        )
    ]


def _cmd_sweep(args: argparse.Namespace) -> list[dict]:
    records = []
    for n in args.n:
        for theta in args.theta:
            model = SparsityModel(n, theta)
            curve = phase_sweep(model, args.p_min, args.p_max, args.trials, args.seed)
            for point in curve.points:
                records.append(
                    _record(
                        "sweep",
                        {
                            "n": model.n,
                            "theta": _real(model.theta),
                            "p": point.p,
                            "trials": args.trials,
                            "seed": args.seed,
                        },
                        {
                            "mean": _real(point.empirical.mean),
                            "std_error": _real(point.empirical.std_error),
                            "ci_low": _real(point.empirical.ci_low),
                            "ci_high": _real(point.empirical.ci_high),
                            "analytic": _real(point.analytic),
                            "subseed": point.empirical.seed,
                        },
                    )
                )
    return records


def _check_writable(path: str) -> None:
    # Checked up front so an unwritable --out fails before the experiment
    # runs rather than after it.
    target = Path(path)
    writable = (
        target.parent.is_dir()
        and os.access(target.parent, os.W_OK)
        and not target.is_dir()
        and (not target.exists() or os.access(target, os.W_OK))
    )
    if not writable:
        raise DomainError(f"cannot write the instance to {path}")


def _cmd_omf(args: argparse.Namespace) -> list[dict]:
    if args.out is not None:
        _check_writable(args.out)
    instance = assemble_instance(args.n, args.p, args.theta, args.seed)
    report = row_coverage_check(instance.x)
    experiment = coverage_experiment(args.n, args.theta, args.p, args.trials, args.seed)
    analytic = coverage_probability(SparsityModel(args.n, args.theta), args.p)

    identity = np.eye(instance.n)
    scale = max(1.0, float(np.linalg.norm(instance.x)))
    orthogonality_error = float(np.abs(instance.v.T @ instance.v - identity).max())
    reconstruction_error = float(np.linalg.norm(instance.v.T @ instance.y - instance.x)) / scale
    norm_error = abs(
        float(np.linalg.norm(instance.y)) - float(np.linalg.norm(instance.x))
    ) / scale

    parameters = {
        "n": args.n,
        "theta": _real(args.theta),
        "p": args.p,
        "trials": args.trials,
        "seed": args.seed,
    }
    if args.out is not None:
        write_instance(instance, args.out)
        parameters["out"] = args.out
    return [
        _record(
            "omf",
            parameters,
            {
                "covered": int(report.covered),
                "uncovered_row_count": len(report.uncovered_rows),
                "orthogonality_error": _real(orthogonality_error),
                "reconstruction_error": _real(reconstruction_error),
                "norm_preservation_error": _real(norm_error),
                "mean": _real(experiment.mean),
                "std_error": _real(experiment.std_error),
                "ci_low": _real(experiment.ci_low),
                "ci_high": _real(experiment.ci_high),
                "analytic": _real(analytic),
            },
        )
    ]


def _int_list(text: str) -> list[int]:
    try:
        values = [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _float_list(text: str) -> list[float]:
    try:
        values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one real")
    return values


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output encoding (default: json)",
    )


def _add_trials_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trials", type=int, default=_DEFAULT_TRIALS,
        help=f"Monte Carlo trial count (default: {_DEFAULT_TRIALS})",
    )
    parser.add_argument(
        "--seed", type=int, default=_DEFAULT_SEED,
        help=f"random seed, unsigned 64-bit (default: {_DEFAULT_SEED})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowcover",
        description="Cover-time math and seeded simulation for Bernoulli "
        "row-sparsity patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expect = sub.add_parser("expect", help="exact and phase-sum expected cover times")
    expect.add_argument("--n", type=int, required=True, help="number of rows")
    expect.add_argument("--theta", type=float, required=True, help="entry density in (0, 1]")
    expect.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                        help=f"error bound on the exact expectation (default: {_DEFAULT_TOL})")
    _add_format_flag(expect)
    expect.set_defaults(handler=_cmd_expect)

    bounds = sub.add_parser("bounds", help="every closed-form bound for one model")
    bounds.add_argument("--n", type=int, required=True, help="number of rows")
    bounds.add_argument("--theta", type=float, required=True, help="entry density in (0, 1]")
    _add_format_flag(bounds)
    bounds.set_defaults(handler=_cmd_bounds)

    threshold = sub.add_parser(
        "threshold", help="smallest p with coverage probability at least 1 - delta"
    )
    threshold.add_argument("--n", type=int, required=True, help="number of rows")
    threshold.add_argument("--theta", type=float, required=True, help="entry density in (0, 1]")
    threshold.add_argument("--delta", type=float, default=_DEFAULT_DELTA,
                           help=f"coverage failure budget (default: {_DEFAULT_DELTA})")
    _add_format_flag(threshold)
    threshold.set_defaults(handler=_cmd_threshold)

    simulate = sub.add_parser(
        "simulate",
        help="Monte Carlo cover-time mean, or coverage probability when --p is given",
    )
    simulate.add_argument("--n", type=int, required=True, help="number of rows")
    simulate.add_argument("--theta", type=float, required=True, help="entry density in (0, 1]")
    simulate.add_argument("--p", type=int, default=None,
                          help="column count; switches to coverage-probability mode")
    _add_trials_seed(simulate)
    simulate.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                          help="tolerance for the analytic reference "
                          f"(default: {_DEFAULT_TOL})")
    _add_format_flag(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = sub.add_parser(
        "sweep", help="empirical vs analytic coverage for every p in a range"
    )
    sweep.add_argument("--n", type=_int_list, required=True,
                       help="number of rows; comma-separated list sweeps several")
    sweep.add_argument("--theta", type=_float_list, required=True,
                       help="entry density; comma-separated list sweeps several")
    sweep.add_argument("--p-min", type=int, required=True, help="first column count")
    sweep.add_argument("--p-max", type=int, required=True, help="last column count")
    _add_trials_seed(sweep)
    _add_format_flag(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    omf = sub.add_parser(
        "omf", help="assemble an orthogonal-times-sparse instance and run the "
        "coverage experiment",
    )
    omf.add_argument("--n", type=int, required=True, help="matrix dimension")
    omf.add_argument("--theta", type=float, required=True, help="entry density in (0, 1]")
    omf.add_argument("--p", type=int, required=True, help="column count")
    _add_trials_seed(omf)
    omf.add_argument("--out", default=None, help="write the assembled instance here")
    _add_format_flag(omf)
    omf.set_defaults(handler=_cmd_omf)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute the subcommand, print records; return exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        records = args.handler(args)
    except DomainError as exc:
        print(f"rowcover: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        _emit_csv(records, sys.stdout)
    else:
        _emit_json(records, sys.stdout)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
