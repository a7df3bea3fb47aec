"""Command-line front end.

Every computation in the package is exposed as a subcommand that prints
machine-readable records: JSON (one object per line, keys sorted,
newline-terminated) or CSV (header row plus one data row per record, with
nested keys flattened as `parameters.n`, `results.mean`, ...).  Reals are
printed with 12 significant digits, which round-trips doubles without
noise digits, so fixed inputs give byte-identical output across runs.

A record's parameters are the command's flags as parsed, less --format
and any flag left unset; its results are the fields of the result the
command computed.  Two records differ from their flags: a `simulate --p`
record leaves out --tol, which coverage mode checks but does not use,
and each `sweep` record carries its own point's n, theta and p in place
of the grid's lists and p range.

Randomized subcommands default to seed 0; no seed is ever derived from
the clock.  Their handlers import montecarlo and omf when they run, so
`expect`, `bounds` and `threshold` start without loading numpy.  Exit
codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bounds import bound_report
from .coverage import (
    _DEFAULT_TOL,
    SparsityModel,
    _checked_tol,
    _expected_cover_time,
    coverage_probability,
    coverage_threshold,
    exact_expected_cover_time,
)
from .errors import DomainError

__all__ = ["run", "main", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"


def _value(value):
    # The one place reals are rounded, to the 12 significant digits that
    # golden tests pin; bools print as 0 and 1, and ints, strings and None
    # pass through.
    if isinstance(value, bool):
        return int(value)
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _record(args: argparse.Namespace, results: dict, **changes) -> dict:
    # The parameters are the parsed flags with changes applied, less
    # --format and any whose value is None.
    parameters = {**vars(args), **changes}
    return {
        "command": args.command,
        "parameters": {
            key: _value(value) for key, value in parameters.items()
            if key not in ("command", "handler", "format") and value is not None
        },
        "results": {key: _value(value) for key, value in results.items()},
        "schema_version": SCHEMA_VERSION,
    }


def _fields(result, *skip: str) -> dict:
    names = [field.name for field in dataclasses.fields(result) if field.name not in skip]
    return {name: getattr(result, name) for name in names}


def _emit_json(records: list[dict], out) -> None:
    for record in records:
        out.write(json.dumps(record, sort_keys=True) + "\n")


def _flatten(record: dict) -> dict:
    flat = {"command": record["command"], "schema_version": record["schema_version"]}
    for group in ("parameters", "results"):
        for key, value in record[group].items():
            flat[f"{group}.{key}"] = value
    return flat


def _emit_csv(records: list[dict], out) -> None:
    # Every record of a command has the same fields; csv writes None as an
    # empty cell and a float as its repr.
    flats = [_flatten(record) for record in records]
    writer = csv.DictWriter(out, sorted(flats[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(flats)


def _cmd_expect(args: argparse.Namespace) -> list[dict]:
    summary = exact_expected_cover_time(SparsityModel(args.n, args.theta), args.tol)
    return [_record(args, _fields(summary))]


def _cmd_bounds(args: argparse.Namespace) -> list[dict]:
    report = bound_report(SparsityModel(args.n, args.theta))
    return [_record(args, _fields(report, "model"))]


def _cmd_threshold(args: argparse.Namespace) -> list[dict]:
    model = SparsityModel(args.n, args.theta)
    p_star = coverage_threshold(model, args.delta)
    results = {
        "p_star": p_star,
        "coverage_at_p_star": coverage_probability(model, p_star),
        "coverage_below_p_star": coverage_probability(model, p_star - 1),
    }
    return [_record(args, results)]


def _cmd_simulate(args: argparse.Namespace) -> list[dict]:
    from .montecarlo import estimate_coverage_probability, estimate_expected_cover_time

    model = SparsityModel(args.n, args.theta)
    # The analytic value comes first: it refuses what it cannot compute
    # before any trial is drawn.  E[T] is computed without the reference
    # sums, which simulate does not print.
    if args.p is None:
        analytic = _expected_cover_time(model, args.tol)[0]
        estimate = estimate_expected_cover_time(model, args.trials, args.seed)
    else:
        _checked_tol(args.tol)  # unused here, but a malformed one is refused as in E[T] mode
        analytic = coverage_probability(model, args.p)
        estimate = estimate_coverage_probability(model, args.p, args.trials, args.seed)
    results = {**_fields(estimate, "trials", "seed"), "analytic": analytic}
    # Coverage mode does not use --tol, so its record leaves it out.
    return [_record(args, results, tol=args.tol if args.p is None else None)]


def _cmd_sweep(args: argparse.Namespace) -> list[dict]:
    from .montecarlo import phase_sweep

    records = []
    for n in args.n:
        for theta in args.theta:
            model = SparsityModel(n, theta)
            curve = phase_sweep(model, args.p_min, args.p_max, args.trials, args.seed)
            for point in curve.points:
                results = {
                    **_fields(point.empirical, "trials", "seed"),
                    "analytic": point.analytic,
                    "subseed": point.empirical.seed,
                }
                records.append(_record(
                    args, results, n=n, theta=theta, p=point.p, p_min=None, p_max=None
                ))
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
    from .omf import assemble_instance, coverage_experiment, row_coverage_check, write_instance

    if args.out is not None:
        _check_writable(args.out)
    instance = assemble_instance(args.n, args.p, args.theta, args.seed)
    report = row_coverage_check(instance.x)
    experiment = coverage_experiment(args.n, args.theta, args.p, args.trials, args.seed)
    if args.out is not None:
        try:
            write_instance(instance, args.out)
        except OSError:
            raise DomainError(f"cannot write the instance to {args.out}") from None
    results = {
        "covered": report.covered,
        "uncovered_row_count": len(report.uncovered_rows),
        # Derived attributes of the instance, not dataclass fields.
        "orthogonality_error": instance.orthogonality_error,
        "reconstruction_error": instance.reconstruction_error,
        "norm_preservation_error": instance.norm_preservation_error,
        **_fields(experiment, "trials", "seed"),
        "analytic": coverage_probability(SparsityModel(args.n, args.theta), args.p),
    }
    return [_record(args, results)]


def _list_of(kind: type, noun: str):
    # A comma-separated list of int or float, for the sweep grid.
    def parse(text: str) -> list:
        try:
            values = [kind(token) for token in text.split(",") if token.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {noun}")
        return values

    return parse


# Every subcommand's help text and flags, in help order.  A bare flag takes
# its definition from _FLAGS; a (flag, options) pair overrides or extends it.
_FLAGS = {
    "--n": dict(type=int, required=True, help="number of rows"),
    "--theta": dict(type=float, required=True, help="entry density in (0, 1]"),
    "--p": dict(type=int),
    "--trials": dict(
        type=int, default=10000, help="Monte Carlo trial count (default: %(default)s)"
    ),
    "--seed": dict(
        type=int, default=0, help="random seed, unsigned 64-bit (default: %(default)s)"
    ),
    "--tol": dict(type=float, default=_DEFAULT_TOL),
    "--format": dict(
        choices=("json", "csv"), default="json", help="output encoding (default: %(default)s)"
    ),
}

_COMMANDS = {
    "expect": ("exact and phase-sum expected cover times", [
        "--n", "--theta",
        ("--tol", dict(help="error bound on the exact expectation (default: %(default)s)")),
    ]),
    "bounds": ("every closed-form bound for one model", ["--n", "--theta"]),
    "threshold": ("smallest p with coverage probability at least 1 - delta", [
        "--n", "--theta",
        ("--delta", dict(
            type=float, default=0.01, help="coverage failure budget (default: %(default)s)"
        )),
    ]),
    "simulate": ("Monte Carlo cover-time mean, or coverage probability when --p is given", [
        "--n", "--theta",
        ("--p", dict(help="column count; switches to coverage-probability mode")),
        "--trials", "--seed",
        ("--tol", dict(help="tolerance for the analytic reference (default: %(default)s)")),
    ]),
    "sweep": ("empirical vs analytic coverage for every p in a range", [
        ("--n", dict(
            type=_list_of(int, "integer"),
            help="number of rows; comma-separated list sweeps several",
        )),
        ("--theta", dict(
            type=_list_of(float, "real"),
            help="entry density; comma-separated list sweeps several",
        )),
        ("--p-min", dict(type=int, required=True, help="first column count")),
        ("--p-max", dict(type=int, required=True, help="last column count")),
        "--trials", "--seed",
    ]),
    "omf": ("assemble an orthogonal-times-sparse instance and run the coverage experiment", [
        ("--n", dict(help="matrix dimension")),
        "--theta",
        ("--p", dict(required=True, help="column count")),
        "--trials", "--seed",
        ("--out", dict(help="write the assembled instance here")),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowcover",
        description="Cover-time math and seeded simulation for Bernoulli "
        "row-sparsity patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in [*flags, "--format"]:
            flag, options = (flag, {}) if isinstance(flag, str) else flag
            command.add_argument(flag, **{**_FLAGS.get(flag, {}), **options})
        # Looked up now, not at import, so wrappers set on the module apply.
        command.set_defaults(handler=globals()[f"_cmd_{name}"])
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
