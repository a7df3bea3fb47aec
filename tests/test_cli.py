"""Tests for the command-line front end.

Two layers: in-process calls to run() for behavior and encodings, and
subprocess calls for the pinned golden outputs, which must stay
byte-identical run to run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pin_tools import blas_note
from rowcover import SparsityModel, coverage_probability, read_instance
from rowcover.cli import run

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_COMMANDS = {
    "expect": ["expect", "--n", "3", "--theta", "0.5"],
    "bounds": ["bounds", "--n", "3", "--theta", "0.5"],
    "threshold": ["threshold", "--n", "3", "--theta", "0.5", "--delta", "0.1"],
    "simulate": ["simulate", "--n", "3", "--theta", "0.5", "--trials", "1000", "--seed", "42"],
    "sweep": [
        "sweep", "--n", "2", "--theta", "0.5",
        "--p-min", "1", "--p-max", "3", "--trials", "200", "--seed", "7",
    ],
    "omf": ["omf", "--n", "3", "--theta", "0.5", "--p", "6", "--trials", "500", "--seed", "9"],
}

# Record modes the command goldens miss: a simulate record that leaves out
# --tol, and sweep records that each carry their grid point's n, theta and p
# in place of the grid's lists and p range.
RECORD_GOLDENS = {
    "simulate_coverage": [
        "simulate", "--n", "3", "--theta", "0.5", "--p", "3", "--trials", "1000", "--seed", "42",
    ],
    "sweep_grid": [
        "sweep", "--n", "2,3", "--theta", "0.5,0.9",
        "--p-min", "1", "--p-max", "2", "--trials", "200", "--seed", "7",
    ],
}
GOLDENS = {**GOLDEN_COMMANDS, **RECORD_GOLDENS}


def run_capture(args: list[str], capsys) -> tuple[int, str, str]:
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "rowcover.cli", *args],
        capture_output=True,
        timeout=120,
    )


def parse_json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


# -------------------------------------------------------------- exit codes


def test_success_exit_code(capsys):
    code, out, err = run_capture(["expect", "--n", "3", "--theta", "0.5"], capsys)
    assert code == 0
    assert out
    assert err == ""


def test_degenerate_theta_is_not_an_error(capsys):
    # theta = 1 disables the log-based bounds but the command still succeeds
    code, out, err = run_capture(["bounds", "--n", "4", "--theta", "1.0"], capsys)
    assert code == 0
    (record,) = parse_json_lines(out)
    assert record["results"]["digamma_bound"] is None
    assert record["results"]["small_theta_bound"] is None
    assert record["results"]["theorem_bound"] == 4.0


def test_domain_error_exit_code(capsys):
    code, out, err = run_capture(["expect", "--n", "3", "--theta", "0.0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("rowcover: ")


def test_simulate_where_the_power_rounds_to_one(capsys):
    # (1-theta)^p rounds to 1.0 at this theta; the coverage probability is theta^2.
    code, out, err = run_capture(
        ["simulate", "--n", "2", "--theta", "5e-18", "--p", "1", "--trials", "10"], capsys
    )
    assert code == 0, err
    (record,) = parse_json_lines(out)
    assert math.isclose(record["results"]["analytic"], 2.5e-35, rel_tol=1e-11)


@pytest.mark.parametrize("command", ["simulate", "omf"])
def test_pattern_numpy_cannot_allocate_is_a_domain_error(command, capsys):
    # 3 x 10^20 float64 draws are more bytes than numpy can index.
    code, out, err = run_capture(
        [command, "--n", "3", "--theta", "0.5", "--p", str(10**20), "--trials", "1"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("rowcover: ") and "numpy can allocate" in err


def test_orthogonal_draw_numpy_cannot_allocate_exits_one(capsys):
    # The 2^32 x 2^32 float64 draw behind V is more bytes than numpy can index.
    code, out, err = run_capture(
        ["omf", "--n", str(2**32), "--theta", "0.5", "--p", "1", "--trials", "1"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("rowcover: ") and "numpy can allocate" in err
    assert err.count("\n") == 1


def test_threshold_beyond_2_pow_53_is_a_domain_error(capsys):
    code, out, err = run_capture(["threshold", "--n", "2", "--theta", "1e-300"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("rowcover: ") and "theta = 1e-300" in err


def test_n_beyond_a_double_is_a_domain_error(capsys):
    # No double holds n = 10**309; bounds would otherwise sum O(n) terms.
    for command in ("threshold", "bounds", "expect"):
        code, out, err = run_capture([command, "--n", str(10**309), "--theta", "0.5"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("rowcover: ") and "fit in a double" in err


def test_simulate_with_a_clipped_draw_is_a_domain_error(capsys):
    # At theta = 1e-300 every geometric draw clips at the int64 maximum.
    code, out, err = run_capture(
        ["simulate", "--n", "3", "--theta", "1e-300", "--trials", "5"], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("rowcover: ") and err.count("\n") == 1


def test_domain_error_from_bad_seed(capsys):
    code, _, err = run_capture(
        ["simulate", "--n", "2", "--theta", "0.5", "--trials", "10", "--seed", "-1"],
        capsys,
    )
    assert code == 1
    assert "seed" in err


def test_usage_error_exit_code(capsys):
    assert run_capture(["expect", "--n", "3"], capsys)[0] == 2  # --theta missing
    assert run_capture(["no-such-command"], capsys)[0] == 2
    assert run_capture(["expect", "--n", "3", "--theta", "0.5", "--format", "xml"], capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run_capture(["--help"], capsys)[0] == 0
    for name in sorted(GOLDEN_COMMANDS):
        code, out, _ = run_capture([name, "--help"], capsys)
        assert code == 0, name
        assert out.startswith(f"usage: rowcover {name} ")


# ------------------------------------------------------------ record shape


def test_json_records_have_sorted_keys_and_schema(capsys):
    _, out, _ = run_capture(["threshold", "--n", "3", "--theta", "0.5", "--delta", "0.1"], capsys)
    for line in out.splitlines():
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)
        assert set(record) == {"command", "parameters", "results", "schema_version"}
        assert record["schema_version"] == "1"
    assert out.endswith("\n")


def test_expect_record_values(capsys):
    _, out, _ = run_capture(["expect", "--n", "3", "--theta", "0.5"], capsys)
    (record,) = parse_json_lines(out)
    results = record["results"]
    assert math.isclose(results["exact_expectation"], 22.0 / 7.0, rel_tol=1e-9)
    assert math.isclose(results["phase_sum"], 94.0 / 21.0, rel_tol=1e-11)
    assert results["classic_reference"] == 5.5
    assert results["truncation_error_bound"] <= 1e-10
    assert record["parameters"] == {"n": 3, "theta": 0.5, "tol": 1e-10}


def test_threshold_record_values(capsys):
    _, out, _ = run_capture(
        ["threshold", "--n", "3", "--theta", "0.5", "--delta", "0.1"], capsys
    )
    (record,) = parse_json_lines(out)
    assert record["results"]["p_star"] == 5
    assert record["results"]["coverage_at_p_star"] >= 0.9
    assert record["results"]["coverage_below_p_star"] < 0.9


def test_simulate_coverage_mode(capsys):
    _, out, _ = run_capture(
        ["simulate", "--n", "3", "--theta", "0.5", "--p", "3",
         "--trials", "2000", "--seed", "11"],
        capsys,
    )
    (record,) = parse_json_lines(out)
    assert record["parameters"]["p"] == 3
    assert "tol" not in record["parameters"]
    analytic = coverage_probability(SparsityModel(3, 0.5), 3)
    assert math.isclose(record["results"]["analytic"], analytic, rel_tol=1e-11)
    assert 0.0 <= record["results"]["mean"] <= 1.0


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_simulate_refuses_a_malformed_tol_in_both_modes(tol, capsys, monkeypatch):
    # Coverage mode does not use --tol, but refuses a malformed one as E[T]
    # mode does, in the same message, before any trial is drawn.
    from rowcover import montecarlo

    def no_trials(*args):
        raise AssertionError("trials were sampled before --tol was refused")

    monkeypatch.setattr(montecarlo, "estimate_coverage_probability", no_trials)
    monkeypatch.setattr(montecarlo, "estimate_expected_cover_time", no_trials)
    for mode in ([], ["--p", "3"]):
        code, stdout, stderr = run_capture(
            ["simulate", "--n", "3", "--theta", "0.5", *mode, "--trials", "10", "--tol", tol],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert stderr == f"rowcover: tol must be a positive finite float, got {float(tol)!r}\n"


def test_default_seed_is_zero(capsys):
    explicit = run_capture(
        ["simulate", "--n", "2", "--theta", "0.5", "--trials", "50", "--seed", "0"], capsys
    )[1]
    defaulted = run_capture(
        ["simulate", "--n", "2", "--theta", "0.5", "--trials", "50"], capsys
    )[1]
    assert explicit == defaulted


# ----------------------------------------------------------------- formats


def csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def test_csv_and_json_carry_the_same_values(capsys):
    args = ["expect", "--n", "3", "--theta", "0.5"]
    _, json_out, _ = run_capture(args, capsys)
    _, csv_out, _ = run_capture([*args, "--format", "csv"], capsys)
    (record,) = parse_json_lines(json_out)
    (row,) = csv_rows(csv_out)
    flat = {"command": record["command"], "schema_version": record["schema_version"]}
    flat.update({f"parameters.{k}": v for k, v in record["parameters"].items()})
    flat.update({f"results.{k}": v for k, v in record["results"].items()})
    assert set(row) == set(flat)
    for key, value in flat.items():
        if isinstance(value, float):
            assert float(row[key]) == value
        elif isinstance(value, int):
            assert int(row[key]) == value
        else:
            assert row[key] == str(value)


def test_csv_null_becomes_empty_cell(capsys):
    _, csv_out, _ = run_capture(
        ["bounds", "--n", "4", "--theta", "1.0", "--format", "csv"], capsys
    )
    (row,) = csv_rows(csv_out)
    assert row["results.digamma_bound"] == ""
    assert row["results.digamma_approx_bound"] == ""
    assert row["results.small_theta_bound"] == ""
    assert float(row["results.theorem_bound"]) == 4.0


def test_sweep_emits_one_record_per_grid_point(capsys):
    _, out, _ = run_capture(
        ["sweep", "--n", "2,3", "--theta", "0.1,0.3", "--p-min", "1", "--p-max", "4",
         "--trials", "20", "--seed", "3"],
        capsys,
    )
    records = parse_json_lines(out)
    assert len(records) == 2 * 2 * 4
    keys = {(r["parameters"]["n"], r["parameters"]["theta"], r["parameters"]["p"])
            for r in records}
    assert len(keys) == 16
    _, csv_out, _ = run_capture(
        ["sweep", "--n", "2,3", "--theta", "0.1,0.3", "--p-min", "1", "--p-max", "4",
         "--trials", "20", "--seed", "3", "--format", "csv"],
        capsys,
    )
    assert len(csv_rows(csv_out)) == 16


def test_sweep_past_the_point_ceiling_exits_one(capsys):
    code, out, err = run_capture(
        ["sweep", "--n", "3", "--theta", "0.5", "--p-min", "0", "--p-max", "10000000000",
         "--trials", "1"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("rowcover: ") and "more than 100000" in err


def test_sweep_rejects_malformed_lists(capsys):
    for n, theta, message in (
        ("2,x", "0.5", "expected comma-separated integers, got '2,x'"),
        (",", "0.5", "expected at least one integer"),
        ("2", "0.5,y", "expected comma-separated reals, got '0.5,y'"),
        ("2", ",", "expected at least one real"),
    ):
        code, _, err = run_capture(
            ["sweep", "--n", n, "--theta", theta, "--p-min", "1", "--p-max", "2"], capsys
        )
        assert code == 2
        assert message in err


@pytest.mark.parametrize("where", ["missing/dir/x", "."])
def test_omf_unwritable_out_fails_before_any_work(where, tmp_path, capsys, monkeypatch):
    # The omf handler imports these from rowcover.omf when it runs.
    from rowcover import omf

    def no_work(*args):
        raise AssertionError("the experiment ran before the output location was checked")

    monkeypatch.setattr(omf, "coverage_experiment", no_work)
    monkeypatch.setattr(omf, "assemble_instance", no_work)
    out = tmp_path / where
    code, stdout, stderr = run_capture(
        ["omf", "--n", "3", "--theta", "0.5", "--p", "6", "--out", str(out)], capsys
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("rowcover: ") and str(out) in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "missing").exists()


def test_simulate_refuses_before_drawing_any_trial(capsys, monkeypatch):
    # Past 10^8 rows the analytic cover time is refused; the handler takes
    # it before the estimate, so not one trial is sampled (n geometric
    # draws each) before the exit.
    from rowcover import montecarlo

    def no_trials(*args):
        raise AssertionError("trials were sampled before the analytic value was refused")

    monkeypatch.setattr(montecarlo, "estimate_expected_cover_time", no_trials)
    code, stdout, stderr = run_capture(
        ["simulate", "--n", str(2 * 10**8), "--theta", "0.01", "--trials", "2"], capsys
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("rowcover: ") and "10000000" in stderr


def test_simulate_computes_no_reference_sum(capsys, monkeypatch):
    # simulate prints E[T] alone, so neither the phase sum nor n * H_n runs.
    from rowcover import bounds, coverage

    def no_sum(*args):
        raise AssertionError("simulate computed a reference sum it does not print")

    for module in (coverage, bounds):
        for name in ("phase_sum_expectation", "classic_harmonic_sum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_sum)
    code, stdout, _ = run_capture(
        ["simulate", "--n", "3", "--theta", "0.5", "--trials", "100"], capsys
    )
    assert code == 0
    assert parse_json_lines(stdout)[0]["results"]["analytic"] == 3.14285714277


def test_simulate_refuses_an_overflowing_cover_time_before_any_sum_or_draw(capsys, monkeypatch):
    # E[T] overflows a double where 1/lambda does, as at theta = 1e-310 and
    # 5e-324, and every geometric draw there would clip.  E[T] is refused
    # first, in one error line with no warning: H_n is not summed and no
    # trial key is hashed.
    from rowcover import _streams, coverage

    def no_work(*args):
        raise AssertionError("simulate summed H_n or hashed a trial key before its refusal")

    monkeypatch.setattr(coverage, "harmonic", no_work)
    monkeypatch.setattr(_streams, "_trial_keys", no_work)
    for n, theta in (("10000000", "1e-310"), ("1", "5e-324")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_capture(
                ["simulate", "--n", n, "--theta", theta, "--trials", "2"], capsys
            )
        assert code == 1
        assert stdout == ""
        assert stderr == f"rowcover: E[T] overflows a double at theta = {float(theta)!r}\n"


def test_simulate_refuses_a_trial_count_numpy_cannot_allocate(capsys):
    # 2^64 cover times, one int64 each, are past numpy's largest array: one
    # error line and exit 1, not a traceback.
    code, stdout, stderr = run_capture(
        ["simulate", "--n", "1", "--theta", "0.5", "--trials", str(2**64)], capsys
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("rowcover: ") and "numpy can allocate" in stderr
    assert stderr.count("\n") == 1


def test_omf_failed_write_is_a_domain_error(tmp_path, capsys, monkeypatch):
    # A location that passes the up-front check can still fail to take
    # the write, e.g. on a full disk.
    from rowcover import omf

    def disk_full(instance, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(omf, "write_instance", disk_full)
    out = tmp_path / "instance.txt"
    code, stdout, stderr = run_capture(
        ["omf", "--n", "2", "--theta", "0.5", "--p", "3", "--trials", "5", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("rowcover: ") and str(out) in stderr
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr


def test_omf_out_dump_round_trips(tmp_path, capsys):
    dump = tmp_path / "instance.txt"
    _, out, _ = run_capture(
        ["omf", "--n", "3", "--theta", "0.5", "--p", "6",
         "--trials", "50", "--seed", "9", "--out", str(dump)],
        capsys,
    )
    (record,) = parse_json_lines(out)
    assert record["parameters"]["out"] == str(dump)
    assert record["results"]["covered"] in (0, 1)
    instance = read_instance(dump)
    assert instance.n == 3
    assert instance.p == 6
    assert instance.seed == 9
    assert np.count_nonzero(instance.x) >= 1


def test_omf_parameters_are_its_flags(tmp_path, capsys):
    # --out appears among the parameters only when it is given.
    args = ["omf", "--n", "2", "--theta", "0.5", "--p", "3", "--trials", "5"]
    for extra, keys in (([], set()), (["--out", str(tmp_path / "x.txt")], {"out"})):
        code, out, err = run_capture([*args, *extra], capsys)
        assert code == 0, err
        (record,) = parse_json_lines(out)
        assert set(record["parameters"]) == {"n", "theta", "p", "trials", "seed", *keys}


def test_analytic_commands_do_not_load_numpy():
    # expect, bounds and threshold are scalar math; numpy loads with
    # montecarlo and omf only.  At theta = 1e-4 expect takes the closed form,
    # which calls harmonic; bounds calls it through digamma_bound.  The n
    # past 100 check that no n brings numpy in.
    commands = [GOLDEN_COMMANDS[name] for name in ("expect", "bounds", "threshold")]
    commands.append(["expect", "--n", "3", "--theta", "1e-4"])
    commands.append(["bounds", "--n", "2000", "--theta", "0.01"])
    commands.append(["expect", "--n", "101", "--theta", "1e-4"])
    script = (
        "import contextlib, io, sys\n"
        "from rowcover import cli\n"
        f"for args in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(args) == 0, args\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# ------------------------------------------------------------ golden files


@pytest.mark.parametrize("golden", sorted(GOLDENS) + [f"{name}.csv" for name in sorted(GOLDENS)])
def test_golden_output(golden):
    # <name>.golden pins the JSON output, <name>.csv.golden the CSV output.
    name, _, encoding = golden.partition(".")
    args = GOLDENS[name] + (["--format", encoding] if encoding else [])
    result = run_subprocess(args)
    assert result.returncode == 0, result.stderr.decode()
    # omf prints defects of V and Y, whose bits come from the BLAS kernel.
    assert result.stdout == (DATA_DIR / f"{golden}.golden").read_bytes(), (
        blas_note() if name == "omf" else "")


def test_golden_outputs_stable_across_runs():
    args = GOLDEN_COMMANDS["simulate"]
    first = run_subprocess(args)
    second = run_subprocess(args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
