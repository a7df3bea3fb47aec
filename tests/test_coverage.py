"""Exact-math tests for the coverage module.

Expected values come from independent oracles computed in exact rational
arithmetic: an absorbing-Markov-chain solve for the expectation, an
inclusion-exclusion rational sum, and brute-force enumeration of small
sparsity patterns.  In the sparse regime the inclusion-exclusion sum is
taken in mpmath at enough digits to survive its cancellation.  No expected
constant below was produced by the code under test.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from rowcover import coverage
from rowcover import (
    CoverTimeSummary,
    DomainError,
    SparsityModel,
    assemble_instance,
    bound_report,
    classic_harmonic_sum,
    coverage_probability,
    coverage_threshold,
    cover_time_pmf,
    digamma_bound,
    digamma_psi0,
    exact_expected_cover_time,
    estimate_coverage_probability,
    estimate_expected_cover_time,
    harmonic,
    inclusion_exclusion_expectation,
    phase_sum_expectation,
    phase_sum_raw,
    phase_sweep,
    read_instance,
    sample_cover_time,
    sample_indicator_pattern,
    sample_sparse_matrix,
    simple_lower_bound,
    theorem_bound,
    write_instance,
)
from rowcover.cli import run

DATA_DIR = Path(__file__).parent / "data"
THETA_GRID = (0.01, 0.1, 0.3, 0.5, 0.9, 1.0)


# ---------------------------------------------------------------- oracles


def markov_expected_cover_time(n: int, theta: Fraction) -> Fraction:
    """E[T] from the absorbing chain on the number of covered rows.

    From a state with u uncovered rows, each turns on independently with
    probability theta in the next column; solve the expected absorption
    time exactly.  This derivation shares no algebra with the tail-sum
    implementation.
    """
    q = 1 - theta
    expected = [Fraction(0)] * (n + 1)
    for k in range(n - 1, -1, -1):
        u = n - k
        acc = Fraction(1)
        for j in range(1, u + 1):
            p_j = math.comb(u, j) * theta**j * q ** (u - j)
            acc += p_j * expected[k + j]
        expected[k] = acc / (1 - q**u)
    return expected[0]


def inclusion_exclusion_oracle(n: int, theta: Fraction) -> Fraction:
    """E[T] = sum over nonempty row subsets of (-1)^(|S|+1) / (1 - q^|S|)."""
    q = 1 - theta
    return sum(
        Fraction((-1) ** (k + 1) * math.comb(n, k), 1) / (1 - q**k)
        for k in range(1, n + 1)
    )


def mp_inclusion_exclusion(n: int, theta: float) -> mpmath.mpf:
    """The inclusion-exclusion sum in mpmath, with digits to spare past its ~2^n cancellation."""
    with mpmath.workdps(40 + n // 2):
        q = 1 - mpmath.mpf(theta)
        return mpmath.fsum(
            (-1) ** (k + 1) * mpmath.binomial(n, k) / (1 - q**k) for k in range(1, n + 1)
        )


def enumerated_coverage_probability(n: int, p: int, theta: Fraction) -> Fraction:
    """P(no all-zero row) by summing the weight of every n x p pattern."""
    q = 1 - theta
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=n * p):
        rows = [bits[i * p : (i + 1) * p] for i in range(n)]
        if all(any(row) for row in rows):
            ones = sum(bits)
            total += theta**ones * q ** (n * p - ones)
    return total


def test_markov_oracle_agrees_with_inclusion_exclusion_oracle():
    # The two oracles are independent derivations; they must agree exactly.
    for n in (1, 2, 3, 4, 5):
        for theta in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            assert markov_expected_cover_time(n, theta) == inclusion_exclusion_oracle(n, theta)


def test_markov_oracle_two_row_half_density():
    # By hand: E = 1 + (1/2)E1 + (1/4)E0 with E1 = 2, so E0 = 10/3... the
    # chain solve must reproduce the hand value.
    # From 2 uncovered rows: P(0 new) = 1/4, P(1 new) = 1/2, P(2 new) = 1/4.
    # E1 = 2 (geometric), E0 = (1 + (1/2)*2) / (3/4) = 8/3.
    assert markov_expected_cover_time(2, Fraction(1, 2)) == Fraction(8, 3)


def test_markov_oracle_three_row_half_density_is_twenty_two_sevenths():
    assert markov_expected_cover_time(3, Fraction(1, 2)) == Fraction(22, 7)


# ----------------------------------------------------------------- model


def test_model_validation(tmp_path):
    with pytest.raises(DomainError):
        SparsityModel(0, 0.5)
    with pytest.raises(DomainError):
        SparsityModel(-3, 0.5)
    with pytest.raises(DomainError):
        SparsityModel(3, 0.0)
    with pytest.raises(DomainError):
        SparsityModel(3, 1.0000001)
    with pytest.raises(DomainError):
        SparsityModel(3, float("nan"))
    with pytest.raises(DomainError):
        SparsityModel(2.5, 0.5)
    for theta in (None, "x", 10**400):
        with pytest.raises(DomainError, match="theta"):
            SparsityModel(3, theta)
    # Whatever float() accepts is still a theta.
    assert SparsityModel(3, "0.5") == SparsityModel(3, 0.5)
    # No double holds these n; past 4300 digits str(n) itself would raise.
    for n in (10**309, 10**5000):
        with pytest.raises(DomainError, match="fit in a double"):
            SparsityModel(n, 0.5)
    # The largest n a double holds still evaluates.
    model = SparsityModel(int(sys.float_info.max), 0.5)
    assert coverage_probability(model, 5) == 0.0
    assert coverage_threshold(model, 0.01) == 1031
    # Anything but a SparsityModel is refused by every function that takes one.
    entries = [
        (phase_sum_raw, ()), (phase_sum_expectation, ()), (exact_expected_cover_time, ()),
        (inclusion_exclusion_expectation, ()), (coverage_probability, (3,)),
        (cover_time_pmf, (3,)), (coverage_threshold, (0.1,)),
        (sample_cover_time, (np.random.default_rng(0),)), (sample_indicator_pattern, (3, 0)),
        (estimate_expected_cover_time, (10, 0)), (estimate_coverage_probability, (3, 10, 0)),
        (phase_sweep, (1, 3, 10, 0)), (sample_sparse_matrix, (3, 0)),
    ]
    for function, args in entries:
        for wrong in (None, "x", (3, 0.5), 3):
            with pytest.raises(DomainError, match="SparsityModel"):
                function(wrong, *args)
    # So are a stream that is not a numpy Generator and an instance that is
    # not an OmfInstance.
    with pytest.raises(DomainError, match="Generator"):
        sample_cover_time(SparsityModel(3, 0.5), None)
    with pytest.raises(DomainError, match="OmfInstance"):
        write_instance(None, tmp_path / "instance.txt")
    # The instance file functions refuse a path that is not a str or
    # os.PathLike; a file system error still propagates as an OSError.
    instance = assemble_instance(1, 1, 1.0, 0)
    with pytest.raises(DomainError, match="path"):
        write_instance(instance, None)
    for path in (None, 3):
        with pytest.raises(DomainError, match="path"):
            read_instance(path)
    with pytest.raises(FileNotFoundError):
        read_instance(str(tmp_path / "missing.txt"))


def test_model_log_q():
    # ln(1 - theta), with every (1-theta)^k = exp(k * log_q) exactly 0 at theta = 1.
    for n, theta in ((1, 0.5), (3, 0.1), (100, 0.9995), (2, 1e-17), (7, 5e-324)):
        assert SparsityModel(n, theta).log_q == math.log1p(-theta)
    assert SparsityModel(4, 1.0).log_q == -math.inf


def test_model_normalizes_field_types():
    model = SparsityModel(True, 1)  # bools and ints are valid index types
    assert model.n == 1 and isinstance(model.n, int)
    assert model.theta == 1.0 and isinstance(model.theta, float)


def test_summary_validation():
    with pytest.raises(DomainError):
        CoverTimeSummary(0.5, 2.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        CoverTimeSummary(2.0, 2.0, 2.0, -1e-30)
    # A subnormal theta overflows H_n / lambda; no bound makes inf an estimate,
    # and E[T] is refused before the phase sum is reached.
    for summary in (exact_expected_cover_time, bound_report):
        with pytest.raises(DomainError, match=r"E\[T\] overflows a double"):
            summary(SparsityModel(2, 1e-310))


# -------------------------------------------------------- classic sum


def test_classic_harmonic_sum_small_values_exact():
    assert classic_harmonic_sum(1) == 1.0
    assert classic_harmonic_sum(2) == 3.0
    assert classic_harmonic_sum(3) == 5.5
    assert math.isclose(classic_harmonic_sum(4), float(Fraction(25, 3)), rel_tol=1e-15)


def test_classic_harmonic_sum_matches_rational_oracle():
    for n in (7, 19, 64, 257):
        oracle = float(n * sum(Fraction(1, k) for k in range(1, n + 1)))
        assert math.isclose(classic_harmonic_sum(n), oracle, rel_tol=1e-14)
    # n / k over 1 <= k <= n is the same multiset of correctly rounded
    # quotients as n / (n - k) over k < n, and fsum is exactly rounded in any
    # order, so the two loops give the same bits.
    for n in (1, 2, 100, 101, 4095, 4096, 4097, 8193, 10_000):
        assert classic_harmonic_sum(n) == math.fsum(n / (n - k) for k in range(n)), n


def test_classic_harmonic_sum_rejects_zero():
    with pytest.raises(DomainError):
        classic_harmonic_sum(0)


def test_sums_over_rows_refuse_n_past_the_term_ceiling(capsys):
    # One term per row: at n = 10^8 + 1 each of these would run for seconds
    # to minutes, so each refuses n before summing anything.
    n = 10**8 + 1
    model = SparsityModel(n, 0.5)
    calls = {
        "harmonic": lambda: harmonic(n),
        "classic_harmonic_sum": lambda: classic_harmonic_sum(n),
        "digamma_psi0": lambda: digamma_psi0(n),
        "digamma_bound": lambda: digamma_bound(model),
        "phase_sum_expectation": lambda: phase_sum_expectation(model),
        "exact_expected_cover_time": lambda: exact_expected_cover_time(model),
        "bound_report": lambda: bound_report(model),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError, match="more than 100000000 terms"):
            call()
            pytest.fail(name)
    assert run(["expect", "--n", str(n), "--theta", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rowcover: ") and captured.err.count("\n") == 1


# ------------------------------------------------------------ phase sum


def test_phase_sum_three_row_half_density():
    # Rational evaluation of sum_{k=1}^{3} 1/(1 - 2^-k) = 2 + 4/3 + 8/7.
    assert math.isclose(
        phase_sum_expectation(SparsityModel(3, 0.5)), float(Fraction(94, 21)), rel_tol=1e-14
    )


def test_phase_sum_collapse_identity_over_grid():
    # The unreduced binomial form and the collapsed geometric form are the
    # same number; require 1e-12 relative agreement over the full grid.
    for n in range(1, 65):
        for theta in THETA_GRID:
            model = SparsityModel(n, theta)
            raw = phase_sum_raw(model)
            collapsed = phase_sum_expectation(model)
            assert math.isclose(raw, collapsed, rel_tol=1e-12), (n, theta)


def test_phase_sum_underflow_regime():
    # (1-theta)^n underflows here; the log-space path must still match the
    # collapsed form.
    model = SparsityModel(2000, 0.9)
    assert math.isclose(phase_sum_raw(model), phase_sum_expectation(model), rel_tol=1e-11)


def test_phase_sum_rational_oracle():
    for n in (1, 2, 5, 11):
        for theta in (Fraction(1, 10), Fraction(1, 2), Fraction(4, 5)):
            q = 1 - theta
            oracle = sum(Fraction(1, 1) / (1 - q**k) for k in range(1, n + 1))
            value = phase_sum_expectation(SparsityModel(n, float(theta)))
            assert math.isclose(value, float(oracle), rel_tol=1e-12), (n, theta)


def test_phase_sum_degenerate_density():
    assert phase_sum_expectation(SparsityModel(7, 1.0)) == 7.0
    assert phase_sum_raw(SparsityModel(7, 1.0)) == 7.0


def test_values_pinned_bit_for_bit():
    # Values of the implementation before log_q took over ln(1 - theta) and
    # the dense limit became an ordinary point of the general formulas.
    assert phase_sum_raw(SparsityModel(100, 0.1)) == 127.0862459784709  # linear branch
    assert phase_sum_raw(SparsityModel(100, 0.9995)) == 100.00050050025018  # log branch
    for n in (1, 2, 30):
        model = SparsityModel(n, 1.0)
        assert phase_sum_raw(model) == float(n)
        assert phase_sum_expectation(model) == float(n)
        assert inclusion_exclusion_expectation(model) == 1.0
        assert simple_lower_bound(model) == float(n)
        assert theorem_bound(model) == float(n)
        assert [coverage_probability(model, p) for p in (0, 1, 5)] == [0.0, 1.0, 1.0]
        assert [cover_time_pmf(model, t) for t in (1, 2, 5)] == [1.0, 0.0, 0.0]
        assert [coverage_threshold(model, d) for d in (0.5, 0.01, 1e-300)] == [1, 1, 1]


# phase_sum_raw at (n, theta), recorded from an implementation that summed
# each binomial row with math.fsum, one row at a time.  The points cover
# n = 1 and 2, n = 39 to 41, n either side of the block edges at 90 and
# 146 rows, theta one ulp either side of the n log(1 - theta) = -700 branch
# switch at n = 100 and 300, theta = 1e-12, 0.9995 and 0.999999, and the
# benchmark's points with n <= 300.  The comments name the branch taken.
# data/phase_sum_raw_pins.json holds [n, theta, value, branch] rows from
# the same per-row implementation: every n from 1 to 39, and every 23rd n
# from 40 to 385, at theta in {1e-9, 0.02, 0.5, 0.97}, plus the log branch
# at theta = -expm1(-750/n) for n = 1 to 39, 40, 77, 146, 225 and 300.
PHASE_SUM_RAW_PINS = {
    (1, 0.1): 10.000000000000002,  # linear
    (1, 0.5): 2.0,  # linear
    (2, 0.1): 15.263157894736846,  # linear
    (2, 0.5): 3.333333333333333,  # linear
    (2, 1e-12): 1500033183314.2542,  # linear
    (2, 0.999999): 2.0000010000020003,  # linear
    (39, 0.1): 65.93751428228585,  # linear
    (40, 0.1): 66.95251691742105,  # linear
    (41, 0.1): 67.9659990622727,  # linear
    (39, 0.9999999904003429): 39.00000000959966,  # log
    (41, 0.9999999763753602): 41.000000023624644,  # log
    (89, 0.3): 93.75623876526353,  # linear
    (90, 0.3): 94.75623876526355,  # linear
    (91, 0.3): 95.75623876526355,  # linear
    (146, 0.05): 215.3983644477809,  # linear
    (147, 0.05): 216.39889606714965,  # linear
    (148, 0.05): 217.399401092126,  # linear
    (90, 0.99999): 90.0000100002,  # log
    (91, 0.99999): 91.0000100002,  # log
    (146, 0.995): 146.0050502518813,  # log
    (147, 0.995): 147.0050502518813,  # log
    (100, 0.9990881180344454): 100.00091354654158,  # linear
    (100, 0.9990881180344455): 100.00091354654158,  # log
    (100, 0.9990881180344456): 100.00091354654158,  # log
    (300, 0.9030280321355949): 300.1178888089923,  # linear
    (300, 0.903028032135595): 300.11788880899235,  # log
    (300, 0.9030280321355951): 300.11788880899235,  # log
    (50, 1e-12): 4501038510199.954,  # linear
    (200, 1e-12): 5885332979310.546,  # linear
    (50, 0.9995): 50.00050050025019,  # linear
    (200, 0.9995): 200.00050050025018,  # log
    (50, 0.999999): 50.000001000002,  # linear
    (200, 0.999999): 200.000001000002,  # log
    (3, 0.1): 18.953194795105862,  # linear
    (100, 0.1): 127.0862459784709,  # linear
    (100, 0.9995): 100.00050050025018,  # log
    (64, 0.5): 65.6066951524153,  # linear
    (250, 0.01): 757.0264786156094,  # linear
    (300, 0.2): 309.55705738833217,  # linear
}


def test_phase_sum_raw_pinned_bit_for_bit():
    for (n, theta), value in PHASE_SUM_RAW_PINS.items():
        assert phase_sum_raw(SparsityModel(n, theta)) == value, (n, theta)
    pins = json.loads((DATA_DIR / "phase_sum_raw_pins.json").read_text(encoding="utf-8"))
    for n, theta, value, branch in pins:
        model = SparsityModel(n, theta)
        assert (n * model.log_q < coverage._UNDERFLOW_LOG) == (branch == "log"), (n, theta)
        assert phase_sum_raw(model) == value, (n, theta)
    # The points either side of the switch take the branches named above.
    for n in (100, 300):
        switch = -math.expm1(-700.0 / n)
        below, above = math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)
        assert n * SparsityModel(n, below).log_q >= coverage._UNDERFLOW_LOG
        assert n * SparsityModel(n, above).log_q < coverage._UNDERFLOW_LOG


# phase_sum_raw past the 385 rows of the pins above, recorded from the
# blocked implementation that built and summed every row in full: the
# benchmark's two large points and the log branch at n = 2000.  Here the
# blocks are cut to a band around the rows' modes.  The log points (2000,
# 0.3) and (1000, 0.52) were recorded from the banded implementation that
# still built all n rows.
PHASE_SUM_RAW_WIDE_PINS = {
    (2000, 0.1): 2027.0864850340774,  # linear
    (1000, 0.6): 1000.9689841592174,  # log
    (2000, 0.6): 2000.9689841592185,  # log
    (2000, 0.3): 2004.7562387652695,  # log
    (1000, 0.52): 1001.4527201077841,  # log
}


def test_phase_sum_raw_pinned_bit_for_bit_past_the_band():
    for (n, theta), value in PHASE_SUM_RAW_WIDE_PINS.items():
        assert phase_sum_raw(SparsityModel(n, theta)) == value, (n, theta)


def _rows_built(n, theta):
    # The rows k that phase_sum_raw builds, those with (n-k) lambda < 40.
    lam = -SparsityModel(n, theta).log_q
    return sum(1 for m in range(1, n + 1) if m * lam < 40.0)


class _SummedRows:
    # The rows phase_sum_raw sums: blocks holds the (rows, width) shapes of
    # the numpy blocks passed to coverage._row_sums, and rows the lengths of
    # the whole linear rows that coverage._linear_row builds for a Python
    # call.  A row _linear_row rebuilds inside _row_sums, for a block row
    # that fails its certificate, is counted in its block only.
    def __init__(self):
        self.blocks, self.rows = [], []

    def clear(self):
        self.blocks.clear()
        self.rows.clear()

    def total(self):
        return sum(rows for rows, _ in self.blocks) + len(self.rows)


def _counting_row_sums(monkeypatch):
    summed, row_sums, linear_row = _SummedRows(), coverage._row_sums, coverage._linear_row
    inside = []

    def counting_row_sums(block, *rest):
        summed.blocks.append(block.shape)
        inside.append(block)
        try:
            return row_sums(block, *rest)
        finally:
            inside.pop()

    def counting_linear_row(k, *rest):
        if not inside:
            summed.rows.append(k + 1)
        return linear_row(k, *rest)

    monkeypatch.setattr(coverage, "_row_sums", counting_row_sums)
    monkeypatch.setattr(coverage, "_linear_row", counting_linear_row)
    return summed


def test_phase_sum_raw_rows_that_fail_the_band_are_summed_in_full(monkeypatch):
    # With no standard deviations in the band, the bound on the cells a cut
    # linear row leaves out breaks its certificate, so the row goes to fsum
    # in full; a cut log row's edge cell lies within 60 nats of its peak,
    # which gives the row an infinite bound and sends it to fsum too.  An
    # infinite bound on the log cells left below e^-60 sends every log row
    # to fsum.  No row is built twice, and the values stay the pinned ones
    # throughout.  Only the rows whose wait is not exactly 1.0 are built,
    # and the counts are of those.
    pins = {**PHASE_SUM_RAW_PINS, **PHASE_SUM_RAW_WIDE_PINS}
    fsum = math.fsum
    fsums = []
    monkeypatch.setattr(math, "fsum", lambda terms: fsums.append(1) or fsum(terms))
    rows = _counting_row_sums(monkeypatch)

    def phase_sums(points):
        # (rows sent to fsum, rows built twice) over the points.
        fsums.clear()
        rows.clear()
        for point in points:
            assert phase_sum_raw(SparsityModel(*point)) == pins[point], point
        return len(fsums) - len(points), rows.total() - sum(_rows_built(*point) for point in points)

    linear = [(250, 0.01), (300, 0.2)]  # 250 + 179 rows built
    log = [(146, 0.995), (300, 0.9030280321355951), (2000, 0.3), (1000, 0.52)]  # 7 + 17 + 112 + 54
    assert phase_sums(linear) == phase_sums(log) == (0, 0)
    monkeypatch.setattr(coverage, "_BAND_SDS", 0.0)
    assert phase_sums(linear)[0] > 380
    fsummed, twice = phase_sums(log)
    assert fsummed > 180 and twice == 0
    monkeypatch.setattr(coverage, "_EXP_CUT_TAIL", math.inf)
    assert phase_sums(log) == (7 + 17 + 112 + 54, 0)


def test_phase_sum_raw_pins_hold_with_no_deviations_in_the_band(monkeypatch):
    # With the band cut to 30 columns either side of the modes, most wide
    # rows fail it and are summed in full; every pinned value stays.
    pins = {**PHASE_SUM_RAW_PINS, **PHASE_SUM_RAW_WIDE_PINS}
    for name in ("phase_sum_raw_pins.json", "phase_sum_raw_skip_pins.json"):
        rows = json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
        pins.update(((n, theta), value) for n, theta, value, _ in rows)
    assert len(pins) == 373
    monkeypatch.setattr(coverage, "_BAND_SDS", 0.0)
    for (n, theta), value in pins.items():
        assert phase_sum_raw(SparsityModel(n, theta)) == value, (n, theta)


def test_phase_sum_raw_pinned_across_the_skip_edge(monkeypatch):
    # data/phase_sum_raw_skip_pins.json holds [n, theta, value, branch] rows
    # recorded from the implementation that built all n rows, at theta =
    # -expm1(-40/j) and one ulp either side, for j in {1, 2, 5, 17, 40, 100,
    # 379, 380} and n in {j + 1, 2j + 3, 1000}: there row n - j has (n-k)
    # lambda = 40 to within rounding.  (At j = 1 the edge rounds to theta =
    # 1, where no row is built.)  With _SKIP_NATS infinite every row is
    # built again, and the values do not move.
    pins = json.loads((DATA_DIR / "phase_sum_raw_skip_pins.json").read_text(encoding="utf-8"))
    assert {branch for *_, branch in pins} == {"linear", "log"}
    rows = _counting_row_sums(monkeypatch)
    for skip in (coverage._SKIP_NATS, math.inf):
        monkeypatch.setattr(coverage, "_SKIP_NATS", skip)
        for n, theta, value, branch in pins:
            model = SparsityModel(n, theta)
            assert (n * model.log_q < coverage._UNDERFLOW_LOG) == (branch == "log"), (n, theta)
            rows.clear()
            assert phase_sum_raw(model) == value, (n, theta, skip)
            if skip == math.inf:
                assert rows.total() == (0 if theta == 1.0 else n), (n, theta)
            else:
                assert abs(rows.total() - min(n, 40.0 / -model.log_q)) <= 1, (n, theta)


def test_phase_sum_raw_builds_only_the_rows_whose_wait_is_not_one(monkeypatch):
    # lambda = 0.92 at theta = 0.6, so 43 of the 1000 rows have (n-k) lambda
    # < 40; the rest are not built.
    rows = _counting_row_sums(monkeypatch)
    assert phase_sum_raw(SparsityModel(1000, 0.6)) == PHASE_SUM_RAW_WIDE_PINS[(1000, 0.6)]
    assert 0 < rows.total() <= 45 and not rows.rows


# The numbers of numpy blocks and of Python rows phase_sum_raw sums at the
# benchmark's phase points.  The block counts were recorded from the planner
# that grew each block from a full-triangle guess; (3, 0.1), whose 3 rows
# hold 6 cells, builds them in Python instead of in one block.
PHASE_SUM_RAW_BLOCK_COUNTS = {
    (3, 0.1): (0, 3), (100, 0.1): (1, 0), (2000, 0.1): (17, 0), (100, 0.9995): (1, 0),
    (1000, 0.6): (3, 0),
}


def test_phase_sum_raw_blocks_fit_the_budget_and_tile_the_rows(monkeypatch):
    # Every block passed to _row_sums holds at most _BLOCK_CELLS cells or is
    # a single row, and the blocks' rows and the Python rows add up to the
    # rows built, so each built row is summed exactly once.  A call sums
    # Python rows only, whole ones, or blocks only.  The rows built are the
    # last ceil(40 / lambda) - 1 (_rows_built may be one off where (n-k)
    # lambda rounds to 40).  At the benchmark's points the blocks are as
    # many as they were.
    points = {**PHASE_SUM_RAW_PINS, **PHASE_SUM_RAW_WIDE_PINS}
    for name in ("phase_sum_raw_pins.json", "phase_sum_raw_skip_pins.json"):
        pins = json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
        points.update(((n, theta), value) for n, theta, value, _ in pins)
    assert PHASE_SUM_RAW_BLOCK_COUNTS.keys() <= points.keys()
    summed = _counting_row_sums(monkeypatch)
    for (n, theta), value in points.items():
        summed.clear()
        assert phase_sum_raw(SparsityModel(n, theta)) == value, (n, theta)
        assert all(rows * width <= coverage._BLOCK_CELLS or rows == 1 for rows, width in summed.blocks)
        built = max(0, math.ceil(min(40.0 / -SparsityModel(n, theta).log_q, n + 1)) - 1)
        assert summed.total() == built, (n, theta)
        assert not (summed.blocks and summed.rows), (n, theta)
        assert summed.rows == list(range(n - len(summed.rows) + 1, n + 1)), (n, theta)
        if (n, theta) in PHASE_SUM_RAW_BLOCK_COUNTS:
            counts = len(summed.blocks), len(summed.rows)
            assert counts == PHASE_SUM_RAW_BLOCK_COUNTS[n, theta], (n, theta)


def test_phase_sum_raw_linear_paths_give_the_same_bits(monkeypatch):
    # With the cutoff at 0 every linear call builds numpy blocks, and at
    # n = 300's 45,150 whole-row cells every call up to n = 300 builds Python
    # rows; both give the pinned bits at every linear pin.
    pins = []
    for name in ("phase_sum_raw_pins.json", "phase_sum_raw_skip_pins.json"):
        rows = json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
        pins += [(n, theta, value) for n, theta, value, branch in rows if branch == "linear" and n <= 300]
    assert len(pins) > 200
    summed = _counting_row_sums(monkeypatch)
    for cutoff in (0, 300 * 301 // 2):
        monkeypatch.setattr(coverage, "_PYTHON_ROW_CELLS", cutoff)
        for n, theta, value in pins:
            summed.clear()
            assert phase_sum_raw(SparsityModel(n, theta)) == value, (n, theta, cutoff)
            assert not (summed.rows if cutoff == 0 else summed.blocks), (n, theta, cutoff)


def test_phase_sum_raw_cutoff_edge(monkeypatch):
    # At n = 32 and lambda = 40 / 27.5 the rows k = 5 .. 31 are built, 6 +
    # ... + 32 = 513 whole-row cells.  With the cutoff at 513 they are built
    # in Python, and at 512, one cell fewer, in numpy blocks; the value is
    # the same double.
    model = SparsityModel(32, -math.expm1(-40.0 / 27.5))
    summed = _counting_row_sums(monkeypatch)
    values = []
    for cutoff in (513, 512):
        monkeypatch.setattr(coverage, "_PYTHON_ROW_CELLS", cutoff)
        summed.clear()
        values.append(phase_sum_raw(model))
        counts = len(summed.blocks), summed.rows
        assert counts == ((0, list(range(6, 33))) if cutoff == 513 else (1, [])), cutoff
    assert values[0] == values[1] == pytest.approx(phase_sum_expectation(model), rel=1e-12)


def test_phase_sum_raw_small_calls_leave_numpy_unloaded():
    # (3, 0.1) builds 6 whole-row cells in Python, and numpy stays unloaded;
    # (100, 0.1), past the cutoff, loads it for its blocks.
    script = (
        "import sys\n"
        "from rowcover import SparsityModel, phase_sum_raw\n"
        "phase_sum_raw(SparsityModel(3, 0.1))\n"
        "print('numpy' in sys.modules)\n"
        "phase_sum_raw(SparsityModel(100, 0.1))\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\nTrue\n"


def test_row_blocks_tile_the_rows_within_the_budget():
    # Over non-decreasing widths, the blocks tile first .. n-1 in order, each
    # within _BLOCK_CELLS cells or a single row; a constant width w gives
    # blocks of _BLOCK_CELLS // w rows, the last one shorter.
    rng = np.random.default_rng(25)
    cells = coverage._BLOCK_CELLS
    for _ in range(100):
        n = int(rng.integers(1, 5000))
        first = int(rng.integers(0, n))
        steps = rng.integers(0, 3, n + 1) * (rng.random(n + 1) < rng.random())
        widths = (np.cumsum(steps) + int(rng.integers(1, 2 * cells))).tolist()
        blocks = list(coverage._row_blocks(n, widths.__getitem__, first))
        assert [k0 for k0, _, _ in blocks] == [first, *(k1 for _, k1, _ in blocks[:-1])]
        assert blocks[-1][1] == n
        for k0, k1, width in blocks:
            assert width == widths[k1] and ((k1 - k0) * width <= cells or k1 - k0 == 1)
    for n, first, w in ((1, 0, 1), (2000, 1957, 457), (9000, 3, 1), (50, 10, 3 * cells)):
        rows = max(1, cells // w)
        blocks = [(k0, min(n, k0 + rows), w) for k0 in range(first, n, rows)]
        assert list(coverage._row_blocks(n, lambda _: w, first)) == blocks
    assert list(coverage._row_blocks(5, lambda _: 100, 5)) == []


def _padded_block(rows):
    width = max(len(row) for row in rows)
    return np.array([row + [0.0] * (width - len(row)) for row in rows])


def test_row_sums_equal_fsum_and_fall_back_at_midpoints(monkeypatch):
    fsum = math.fsum
    fallbacks = []

    def row_sums(block):
        # coverage._row_sums(block), with the rows it sent to fsum counted.
        fallbacks.clear()
        monkeypatch.setattr(math, "fsum", lambda terms: fallbacks.append(1) or fsum(terms))
        sums = coverage._row_sums(block)
        monkeypatch.setattr(math, "fsum", fsum)
        assert sums == [fsum(row) for row in block.tolist()]
        return sums

    stream = np.random.default_rng(20240517)
    for width in (1, 2, 3, 17, 64, 301):
        # Wide range: 2^-1000 to 2^20 within one row, then the same rows
        # zero-padded past a random length.  These certify.
        wide = stream.random((9, width)) * 2.0 ** stream.uniform(-1000.0, 20.0, (9, width))
        row_sums(wide)
        assert len(fallbacks) <= 1
        lengths = stream.integers(0, width + 1, 9)
        row_sums(np.where(np.arange(width) < lengths[:, None], wide, 0.0))
        # Subnormal rows, beside a normal term and alone; half an ulp of a
        # subnormal sum is no double, so the latter always go to fsum.
        tiny = stream.integers(0, 2**40, (4, width)) * 5e-324
        row_sums(tiny + np.where(np.arange(width) == 0, 1e-300, 0.0))
        row_sums(tiny)
    midpoints = [
        [1.0, 2.0**-53],  # a tie, rounds to even 1.0
        [1.0, 2.0**-53, 2.0**-106],  # just past the tie
        [1.0 + 2.0**-52, 2.0**-53],  # a tie, rounds to even 1 + 2^-51
        [2.0**-53, 1.0, 2.0**-53],  # two ties make an ulp
        [1.0, 2.0**-54, 2.0**-54, 2.0**-160],
        [3.0, 2.0**-52, 2.0**-1074],
        [0.0],
        [0.0, 0.0, 0.0],
    ]
    sums = row_sums(_padded_block(midpoints))
    assert sums[:3] == [1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51]
    assert len(fallbacks) >= 3


def test_row_sums_send_rows_whose_tail_bound_breaks_the_certificate_to_fsum(monkeypatch):
    fsum = math.fsum
    sent = []
    monkeypatch.setattr(math, "fsum", lambda terms: sent.append(list(terms)) or fsum(terms))
    block = np.array([[1.0, 0.5, 2.0**-30], [0.25, 0.125, 2.0**-40], [3.0, 1.0, 0.0]])
    exact = [fsum(row) for row in block.tolist()]
    assert coverage._row_sums(block) == exact
    assert sent == []
    # Half the gap under 1.5 + 2^-30 is 2^-53, so a tail of 2^-50 breaks
    # row 0's certificate and not the others'.
    assert coverage._row_sums(block, np.array([2.0**-50, 0.0, 0.0])) == exact
    assert sent == [block[0].tolist()]
    # Given the whole rows, the failing row is summed from them.
    sent.clear()
    whole = [1.0, 1.0, 2.0**-60]
    sums = coverage._row_sums(block, np.array([0.0, 0.0, 1.0]), lambda i: whole)
    assert sums == [exact[0], exact[1], 2.0] and sent == [whole]
    # A scalar bound applies to every row.
    sent.clear()
    assert coverage._row_sums(block, math.inf) == exact
    assert len(sent) == 3


def test_phase_sum_raw_refuses_unresolvable_complement():
    # 1 - theta rounds to 1.0 here, so the phase k = 0 wait would divide by
    # zero; the refusal points to the collapsed form, which still resolves.
    for theta in (5e-17, 1e-300):
        model = SparsityModel(2, theta)
        with pytest.raises(DomainError, match="phase_sum_expectation"):
            phase_sum_raw(model)
        assert phase_sum_expectation(model) > 0.0
    assert phase_sum_raw(SparsityModel(2, 1e-15)) == 1501199875790165.2


def test_phase_sum_raw_refuses_more_than_the_term_ceiling(monkeypatch):
    # The ceiling counts the cells a call may build: the rows built times
    # the widest block's width, the last block's, plus in log space the
    # n + 1 entries of the ln j! table.  A call at the ceiling returns its
    # value and one cell more is refused, in the linear branch and in log
    # space.  So n = 14142 at theta = 1e-4, which builds all its rows but
    # each over 26 columns, is within it.
    summed, ceiling = _counting_row_sums(monkeypatch), coverage._MAX_TAIL_TERMS
    for n, theta, table in ((14142, 1e-4, 0), (1000, 0.6, 1001)):
        model = SparsityModel(n, theta)
        monkeypatch.setattr(coverage, "_MAX_TAIL_TERMS", ceiling)
        summed.clear()
        value = phase_sum_raw(model)
        cells = summed.total() * summed.blocks[-1][1] + table
        monkeypatch.setattr(coverage, "_MAX_TAIL_TERMS", cells)
        assert phase_sum_raw(model) == value
        monkeypatch.setattr(coverage, "_MAX_TAIL_TERMS", cells - 1)
        with pytest.raises(DomainError, match=f"needs more than {cells - 1} binomial terms"):
            phase_sum_raw(model)
    monkeypatch.setattr(coverage, "_MAX_TAIL_TERMS", ceiling)
    model = SparsityModel(14142, 1e-4)
    assert phase_sum_raw(model) == 109227.43752267037
    assert phase_sum_raw(model) == pytest.approx(phase_sum_expectation(model), rel=1e-9)
    # At theta = 0.5 n = 14142 builds its last 57 rows, well within the ceiling.
    model = SparsityModel(14142, 0.5)
    assert phase_sum_raw(model) == pytest.approx(phase_sum_expectation(model), rel=1e-12)
    assert phase_sum_raw(SparsityModel(14142, 1.0)) == 14142.0


def test_phase_sum_raw_refuses_before_any_block_or_table(monkeypatch):
    # Refused by their band cells, 10^7 rows at theta = 1e-4, 57 rows of
    # about 2^500 columns at n = 2^1000, and by its table alone, one row
    # and 10^8 + 1 values ln j! near theta = 1: no block is summed and no
    # ln j! is taken before the refusal.
    def no_work(*args):
        raise AssertionError("phase_sum_raw worked before its refusal")

    monkeypatch.setattr(coverage, "_row_sums", no_work)
    monkeypatch.setattr(coverage, "_linear_row", no_work)
    monkeypatch.setattr(math, "lgamma", no_work)
    for n, theta in ((10**7, 1e-4), (2**1000, 0.5), (10**8, 1 - 1e-15)):
        with pytest.raises(DomainError, match="binomial terms .* use phase_sum_expectation"):
            phase_sum_raw(SparsityModel(n, theta))


def test_phase_sum_refuses_overflow():
    # 1/theta overflows at a subnormal theta; at theta = 1e-308 each term is
    # finite but their sum passes the largest double by n = 4.
    for model in (SparsityModel(2, 1e-310), SparsityModel(4, 1e-308)):
        with pytest.raises(DomainError, match="theta"):
            phase_sum_expectation(model)


# ------------------------------------------------------- exact expectation


def test_exact_expectation_three_row_half_density():
    summary = exact_expected_cover_time(SparsityModel(3, 0.5))
    truth = float(Fraction(22, 7))
    assert abs(summary.exact_expectation - truth) <= summary.truncation_error_bound + 1e-12
    assert summary.truncation_error_bound <= 1e-10
    assert math.isclose(summary.phase_sum, float(Fraction(94, 21)), rel_tol=1e-13)
    assert summary.classic_reference == 5.5


def test_exact_expectation_against_markov_oracle():
    for n in (1, 2, 3, 4, 6, 9):
        for theta in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            truth = float(markov_expected_cover_time(n, theta))
            summary = exact_expected_cover_time(SparsityModel(n, float(theta)), tol=1e-12)
            assert math.isclose(summary.exact_expectation, truth, rel_tol=1e-9), (n, theta)


def test_exact_expectation_tightens_with_tolerance():
    model = SparsityModel(12, 0.2)
    loose = exact_expected_cover_time(model, tol=1e-6)
    tight = exact_expected_cover_time(model, tol=1e-13)
    assert loose.truncation_error_bound <= 1e-6
    assert tight.truncation_error_bound <= 1e-13
    # the truncated sum only grows as the horizon extends
    assert tight.exact_expectation >= loose.exact_expectation
    assert tight.exact_expectation - loose.exact_expectation <= 1e-6


def test_exact_expectation_grows_a_horizon_one_term_short():
    # Here ceil(target / log_q) - 1 leaves a dropped tail n (1-theta)^(h+1)
    # / theta just above tol: (h + 1) log_q lands one rounding past the
    # target, so the tail sum takes one term more than its first horizon.
    n, theta, tol = 1900, 0.09670529158054293, 4.323636989642157e-91
    model = SparsityModel(n, theta)
    log_q = model.log_q
    horizon = math.ceil((math.log(tol) + math.log(theta) - math.log(n)) / log_q) - 1
    assert n * math.exp((horizon + 1) * log_q) / theta > tol
    summary = exact_expected_cover_time(model, tol)
    assert summary.truncation_error_bound == n * math.exp((horizon + 2) * log_q) / theta <= tol
    with mpmath.workdps(40):
        q = 1 - mpmath.mpf(theta)
        truth = mpmath.nsum(lambda t: 1 - (1 - q**t) ** n, [0, mpmath.inf])
    assert math.isclose(summary.exact_expectation, float(truth), rel_tol=1e-13)


def test_exact_expectation_degenerate_density():
    summary = exact_expected_cover_time(SparsityModel(5, 1.0))
    assert summary.exact_expectation == 1.0
    assert summary.phase_sum == 5.0
    assert summary.truncation_error_bound == 0.0


def test_exact_expectation_single_row_is_geometric_mean():
    # n = 1 collapses everything to a geometric variable with mean 1/theta.
    for theta in (0.05, 0.3, 0.7):
        summary = exact_expected_cover_time(SparsityModel(1, theta))
        assert math.isclose(summary.exact_expectation, 1.0 / theta, rel_tol=1e-9)
        assert math.isclose(summary.phase_sum, 1.0 / theta, rel_tol=1e-13)


def test_exact_expectation_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        exact_expected_cover_time(SparsityModel(3, 0.5), tol=0.0)
    with pytest.raises(DomainError):
        exact_expected_cover_time(SparsityModel(3, 0.5), tol=-1e-9)
    with pytest.raises(DomainError):
        exact_expected_cover_time(SparsityModel(3, 0.5), tol=float("inf"))
    for tol in (None, "x", 10**400):
        with pytest.raises(DomainError, match="tol"):
            exact_expected_cover_time(SparsityModel(3, 0.5), tol)
    # Neither path meets this tol: the remainder bound is ~4e-29 and the
    # direct sum would need ~9e10 terms, so it is refused up front.
    with pytest.raises(DomainError, match="tol"):
        exact_expected_cover_time(SparsityModel(3, 1e-9), tol=1e-30)


def test_exact_expectation_closed_form_against_mpmath_oracle():
    for n in (1, 2, 3, 4, 10, 30, 100):
        for theta in (1e-3, 1e-5, 1e-7, 1e-9, 1e-12):
            summary = exact_expected_cover_time(SparsityModel(n, theta))
            assert summary.truncation_error_bound <= 1e-10
            value = summary.exact_expectation
            gap = abs(mpmath.mpf(value) - mp_inclusion_exclusion(n, theta))
            assert gap <= summary.truncation_error_bound + 8 * math.ulp(value), (n, theta)


def test_every_closed_form_pin_is_within_its_bound_plus_two_ulp():
    # At every point of analytic_pins.json where exact_expected_cover_time
    # takes the closed form (theta < 1 and 26 lambda^3 / 720 <= the default
    # tol), E[T] lies within truncation_error_bound plus 2 ulp of the value:
    # the rounding that "up to rounding" allows.  The exact E[T] is the
    # inclusion-exclusion sum for n < 8, and for n >= 8 H_n / lambda + 1/2 at
    # 50 digits, whose Euler-Maclaurin terms through f^(7) vanish; the
    # remainder past them is at most |B_8| / 8! 94586 lambda^7 < 1e-21 at
    # these theta.  The worst point, (4410, 2.54e-6), needs 1.46 ulp.
    pins = json.loads((DATA_DIR / "analytic_pins.json").read_text(encoding="utf-8"))
    checked = 0
    for key, pinned in pins["libm"]["exact_expected_cover_time"].items():
        n, theta = int(key.split()[0]), float(key.split()[1])
        if "tol=" in key or pinned.startswith("DomainError") or theta == 1.0:
            continue
        if 26 / 720 * (-math.log1p(-theta)) ** 3 > 1e-10:
            continue
        summary = exact_expected_cover_time(SparsityModel(n, theta))
        value = summary.exact_expectation
        if n < 8:
            exact = mp_inclusion_exclusion(n, theta)
        else:
            with mpmath.workdps(50):
                exact = mpmath.harmonic(n) / -mpmath.log1p(-mpmath.mpf(theta)) + 0.5
        gap = abs(mpmath.mpf(value) - exact)
        assert gap <= summary.truncation_error_bound + 2 * math.ulp(value), (n, theta)
        checked += 1
    assert checked == 211


def mp_tail_sum(n: int, theta: float, digits: int) -> mpmath.mpf:
    """E[T] = sum over t >= 0 of 1 - (1 - q^t)^n, q = 1 - theta, within 10^-digits relative.

    Each t whose n q^t exceeds digits ln 10 adds 1 within 10^-digits, since
    (1 - x)^n <= exp(-n x), so those t are counted.  The next terms are
    summed directly while n q^t > 1/8.  From there the rest is
    sum over k of (-1)^(k+1) C(n, k) q^(kt) / (1 - q^k), the binomial
    expansion summed over t as geometric series: alternating, each term
    below n q^t times the last, so it stops at the first under 10^-digits.
    """
    with mpmath.workdps(digits):
        q = 1 - mpmath.mpf(theta)  # exact: a double in [2^-10, 1) needs at most 63 bits
        head = mpmath.log(n / (digits * mpmath.ln10)) / -mpmath.log(q)
        head = max(0, int(mpmath.floor(head)))
        total, x = mpmath.mpf(head), q**head
        while n * x > 0.125:
            total += 1 - (1 - x) ** n
            x *= q
        eps = mpmath.mpf(10) ** -digits * total
        k, binomial, x_k, q_k = 1, mpmath.mpf(n), x, q
        while (term := binomial * x_k / (1 - q_k)) >= eps:
            total += term if k % 2 else -term
            k += 1
            binomial *= mpmath.mpf(n - k + 1) / k
            x_k, q_k = x_k * x, q_k * q
        return total


def test_every_tail_sum_pin_is_within_its_bound_plus_two_ulp():
    # The tail-sum half of the check above: at every point of
    # analytic_pins.json where exact_expected_cover_time sums the tail
    # directly (theta < 1 and 26 lambda^3 / 720 above the tol), E[T] lies
    # within truncation_error_bound plus 2 ulp of the value, E[T] taken from
    # mp_tail_sum at 30 digits.  That is the 126 points at the default tol
    # and the one at tol = 4.3e-91; the worst, (62, 0.486), needs 1.13 ulp.
    # Left out: the five points at theta = 1, whose E[T] is exactly 1 with a
    # bound of 0, and the eight refused ones (n = 10^8 + 1, the overflowing
    # theta and the refused tols), which have no value.
    pins = json.loads((DATA_DIR / "analytic_pins.json").read_text(encoding="utf-8"))
    checked = 0
    for key, pinned in pins["libm"]["exact_expected_cover_time"].items():
        n, theta, *tol = key.replace("tol=", "").split()
        n, theta, tol = int(n), float(theta), float(tol[0]) if tol else 1e-10
        if pinned.startswith("DomainError") or theta == 1.0:
            continue
        if 26 / 720 * (-math.log1p(-theta)) ** 3 <= tol:
            continue
        summary = exact_expected_cover_time(SparsityModel(n, theta), tol)
        value = summary.exact_expectation
        gap = abs(mpmath.mpf(value) - mp_tail_sum(n, theta, 30))
        assert gap <= summary.truncation_error_bound + 2 * math.ulp(value), (n, theta, tol)
        checked += 1
    assert checked == 127


def test_exact_expectation_paths_agree_at_crossover():
    # At theta = 1e-3 the default tol takes the Euler-Maclaurin closed form
    # (remainder bound 26 lambda^3 / 720 ~ 3.6e-11) and tol = 1e-12 the
    # direct tail sum; they agree within both bounds plus rounding.
    theta = 1e-3
    lam = -math.log1p(-theta)
    for n in (1, 2, 3, 4, 100, 2000):
        closed = exact_expected_cover_time(SparsityModel(n, theta))
        direct = exact_expected_cover_time(SparsityModel(n, theta), tol=1e-12)
        assert math.isclose(closed.truncation_error_bound, 26 * lam**3 / 720, rel_tol=1e-12)
        assert direct.truncation_error_bound <= 1e-12
        slack = closed.truncation_error_bound + direct.truncation_error_bound
        slack += 8 * math.ulp(closed.exact_expectation)
        assert abs(closed.exact_expectation - direct.exact_expectation) <= slack, n


def test_exact_expectation_sparse_regime_inside_eisenberg_bracket():
    # H_n / lambda <= E[T] <= 1 + H_n / lambda (Eisenberg 2008).  The direct
    # sum would need ~ln(n / (tol theta)) / theta terms here.
    h_n = math.fsum(1.0 / k for k in range(1, 2001))
    for theta in (1e-6, 1e-9, 1e-12):
        summary = exact_expected_cover_time(SparsityModel(2000, theta))
        assert summary.truncation_error_bound <= 1e-10
        scale = h_n / -math.log1p(-theta)
        assert scale <= summary.exact_expectation <= 1.0 + scale, theta


def test_exact_expectation_monotone_in_n_and_theta():
    for theta in (0.1, 0.5, 0.9):
        values = [
            exact_expected_cover_time(SparsityModel(n, theta)).exact_expectation
            for n in range(1, 33)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    for n in (2, 8, 32):
        values = [
            exact_expected_cover_time(SparsityModel(n, theta)).exact_expectation
            for theta in (0.05, 0.1, 0.3, 0.5, 0.9, 1.0)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_phase_sum_dominates_exact_expectation():
    # One column can cover several rows, so the phase decomposition
    # overcounts; equality only when n = 1 (or the dense limit).
    for n in range(1, 33):
        for theta in THETA_GRID:
            summary = exact_expected_cover_time(SparsityModel(n, theta))
            assert summary.phase_sum >= summary.exact_expectation - 1e-9, (n, theta)
    one_row = exact_expected_cover_time(SparsityModel(1, 0.3))
    assert math.isclose(one_row.phase_sum, one_row.exact_expectation, rel_tol=1e-9)
    gap = exact_expected_cover_time(SparsityModel(8, 0.3))
    assert gap.phase_sum > gap.exact_expectation + 0.5


# ------------------------------------------------- inclusion-exclusion


def test_inclusion_exclusion_three_row_half_density():
    value = inclusion_exclusion_expectation(SparsityModel(3, 0.5))
    assert math.isclose(value, float(Fraction(22, 7)), rel_tol=1e-12)


def test_inclusion_exclusion_matches_rational_oracle():
    for n in (1, 2, 4, 8, 13, 20):
        for theta in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            truth = float(inclusion_exclusion_oracle(n, theta))
            value = inclusion_exclusion_expectation(SparsityModel(n, float(theta)))
            assert math.isclose(value, truth, rel_tol=1e-10), (n, theta)


def test_inclusion_exclusion_agrees_with_tail_sum_through_twenty():
    for n in range(1, 21):
        for theta in THETA_GRID:
            model = SparsityModel(n, theta)
            a = inclusion_exclusion_expectation(model)
            b = exact_expected_cover_time(model).exact_expectation
            assert math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-8), (n, theta)


def test_inclusion_exclusion_refuses_overflow():
    # 2 / theta overflows at theta = 1e-308; below that the second term is
    # -inf as well and fsum meets inf - inf.
    for theta in (1e-308, 1e-309, 1e-320):
        with pytest.raises(DomainError, match="theta"):
            inclusion_exclusion_expectation(SparsityModel(2, theta))


def test_inclusion_exclusion_refuses_large_n():
    with pytest.raises(DomainError):
        inclusion_exclusion_expectation(SparsityModel(31, 0.5))


# ------------------------------------------------------------- coverage


def test_coverage_probability_enumerated_oracles():
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    cases = [
        (3, 3, half),
        (2, 3, third),
        (2, 4, Fraction(7, 10)),
        (4, 2, half),
    ]
    for n, p, theta in cases:
        truth = float(enumerated_coverage_probability(n, p, theta))
        value = coverage_probability(SparsityModel(n, float(theta)), p)
        assert math.isclose(value, truth, rel_tol=1e-12), (n, p, theta)


def test_coverage_probability_three_of_three_half():
    value = coverage_probability(SparsityModel(3, 0.5), 3)
    assert math.isclose(value, float(Fraction(343, 512)), rel_tol=1e-12)


def test_coverage_probability_edges():
    assert coverage_probability(SparsityModel(5, 0.2), 0) == 0.0
    assert coverage_probability(SparsityModel(5, 1.0), 1) == 1.0
    assert coverage_probability(SparsityModel(5, 1.0), 0) == 0.0
    with pytest.raises(DomainError):
        coverage_probability(SparsityModel(5, 0.2), -1)
    # A p no double holds is refused; 10**300 still rounds to coverage 1.
    assert coverage_probability(SparsityModel(2, 0.5), 10**300) == 1.0
    with pytest.raises(DomainError, match="p must fit in a double"):
        coverage_probability(SparsityModel(2, 0.5), 10**400)


def test_coverage_probability_monotone_and_bounded():
    for n in (1, 3, 17):
        for theta in THETA_GRID:
            model = SparsityModel(n, theta)
            values = [coverage_probability(model, p) for p in range(0, 60)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a for a, b in zip(values, values[1:])), (n, theta)


def test_coverage_probability_extreme_parameters_stay_finite():
    # Tiny density and huge p: the q^p underflow path must stay in [0, 1].
    assert 0.0 <= coverage_probability(SparsityModel(1000, 1e-6), 10**7) <= 1.0
    assert coverage_probability(SparsityModel(2, 1e-12), 1) > 0.0


def test_coverage_probability_where_the_power_rounds_to_one():
    # (1-theta)^p rounds to 1.0 for these theta, but the coverage
    # probability (1 - (1-theta)^p)^n does not vanish: p = 1 gives theta^n
    # exactly, and p = 3 gives (3 theta)^n up to a relative O(theta).
    for n, theta in ((2, 5e-18), (3, 1e-20), (1, 1e-300)):
        model = SparsityModel(n, theta)
        assert math.isclose(coverage_probability(model, 1), theta**n, rel_tol=1e-12)
        assert math.isclose(coverage_probability(model, 3), (3 * theta) ** n, rel_tol=1e-12)


# ------------------------------------------------------------------ pmf


def test_pmf_hand_values_two_rows():
    model = SparsityModel(2, 0.5)
    # P(T <= t) = (1 - 2^-t)^2: pmf(1) = 1/4, pmf(2) = 9/16 - 1/4 = 5/16.
    assert math.isclose(cover_time_pmf(model, 1), 0.25, rel_tol=1e-13)
    assert math.isclose(cover_time_pmf(model, 2), float(Fraction(5, 16)), rel_tol=1e-13)


def test_pmf_nonnegative_and_normalized():
    for n in (1, 2, 5, 16):
        for theta in THETA_GRID:
            model = SparsityModel(n, theta)
            horizon = coverage_threshold(model, 1e-13) + 10
            masses = [cover_time_pmf(model, t) for t in range(1, horizon + 1)]
            assert all(mass >= 0.0 for mass in masses), (n, theta)
            assert math.isclose(math.fsum(masses), 1.0, abs_tol=1e-12), (n, theta)


def test_pmf_matches_enumerated_fixed_time():
    # P(T = 2) for n=2, theta=1/3 from the 2x2-pattern enumeration:
    # P(T <= 2) - P(T <= 1).
    third = Fraction(1, 3)
    truth = enumerated_coverage_probability(2, 2, third) - enumerated_coverage_probability(
        2, 1, third
    )
    value = cover_time_pmf(SparsityModel(2, float(third)), 2)
    assert math.isclose(value, float(truth), rel_tol=1e-12)


def test_pmf_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        cover_time_pmf(SparsityModel(2, 0.5), 0)
    # No double holds these t; past 4300 digits str(t) itself would raise.
    for t in (10**400, 10**5000):
        with pytest.raises(DomainError, match="fit in a double"):
            cover_time_pmf(SparsityModel(2, 0.5), t)


# ------------------------------------------------------------ threshold


def test_threshold_three_row_half_density_delta_tenth():
    assert coverage_threshold(SparsityModel(3, 0.5), 0.1) == 5


def test_threshold_defining_inequalities_over_grid():
    for n in (1, 2, 3, 10, 64, 333):
        for theta in (0.01, 0.1, 0.5, 0.9, 1.0):
            model = SparsityModel(n, theta)
            for delta in (0.5, 0.1, 0.01, 1e-6):
                p_star = coverage_threshold(model, delta)
                assert p_star >= 1
                assert coverage_probability(model, p_star) >= 1.0 - delta, (n, theta, delta)
                if p_star > 1:
                    assert coverage_probability(model, p_star - 1) < 1.0 - delta, (
                        n,
                        theta,
                        delta,
                    )


def test_threshold_refuses_p_star_beyond_2_pow_53():
    # p* is about 5e17 at theta = 1e-17 and 5e300 at 1e-300: past 2**53,
    # p and p - 1 are one double and coverage cannot tell them apart.
    for theta in (1e-17, 1e-300):
        with pytest.raises(DomainError, match="theta"):
            coverage_threshold(SparsityModel(2, theta), 0.01)
    assert coverage_threshold(SparsityModel(2, 1e-15), 0.01) < 2**53


def test_threshold_far_from_its_candidate(monkeypatch):
    # Where 1 - delta rounds to 1.0 the closed-form candidate can be far
    # from p*; the expected values were found by unit steps from it.  The
    # search reaches them in a bounded number of coverage evaluations: a
    # candidate below 2**53 takes at most 54 while doubling, 53 bisecting.
    # Below delta = 2**-54 the candidate comes from the 2**-54 budget the
    # comparison sees, and lands next to p*.
    calls = []

    def counting(model, p):
        calls.append(p)
        return coverage_probability(model, p)

    monkeypatch.setattr(coverage, "coverage_probability", counting)
    cases = {
        (2, 1e-4, 1e-300): 381212,
        (2, 1e-8, 3e-16): 3617718461,
        (2, 1e-9, 1e-15): 35178655935,
        (2, 0.5, 1e-320): 56,
        # log1p(-delta) / n rounds to 0 here, so the per-row tail is 0.0.
        (2, 0.5, 5e-324): 56,
        # 1 - 1e-17 also rounds to 1.0, so delta = 1e-17 poses the same
        # inequality; its p* was found by the search from that candidate.
        (100, 7e-14, 1e-320): 600501684803196,
    }
    near = {(100, 7e-14, 1e-320), (100, 8.803432305029794e-14, 3.34637199648e-312)}
    for (n, theta, delta), expected in cases.items():
        calls.clear()
        assert coverage_threshold(SparsityModel(n, theta), delta) == expected
        assert 0 < len(calls) <= (4 if (n, theta, delta) in near else 108), (
            n, theta, delta, len(calls))
    assert coverage_threshold(SparsityModel(100, 7e-14), 1e-17) == 600501684803196
    # Too slow to step through by units; the candidate of the second is
    # near 2**53 and p* about 6% of it.
    for n, theta, delta in ((2, 1e-6, 1e-300), (100, 8.803432305029794e-14, 3.34637199648e-312)):
        model = SparsityModel(n, theta)
        calls.clear()
        p_star = coverage_threshold(model, delta)
        assert len(calls) <= (4 if (n, theta, delta) in near else 108), (
            n, theta, delta, len(calls))
        assert coverage_probability(model, p_star) >= 1.0 - delta
        assert coverage_probability(model, p_star - 1) < 1.0 - delta


def test_threshold_degenerate_density():
    assert coverage_threshold(SparsityModel(9, 1.0), 0.01) == 1


def test_threshold_monotone_in_delta():
    model = SparsityModel(20, 0.2)
    deltas = (0.5, 0.2, 0.1, 0.01, 1e-4)
    thresholds = [coverage_threshold(model, d) for d in deltas]
    assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))


def test_threshold_rejects_bad_delta():
    model = SparsityModel(3, 0.5)
    for delta in (0.0, 1.0, -0.1, 1.5, None, "x", 10**400):
        with pytest.raises(DomainError):
            coverage_threshold(model, delta)
