"""Tests for the closed-form bound suite.

Derived expected values are computed independently with mpmath at 40
significant digits (or exact rationals where possible) before comparing
against the double-precision implementation.

One caveat runs through the digamma family: EULER_GAMMA is the nearest
double to the Euler-Mascheroni constant and sits 4.9e-18 above it.  The
strict inequality psi0(n+1) > ln(n+1) - 1/(2(n+1)) - 1/(12(n+1)^2) holds
mathematically for every n >= 1, but its true margin shrinks like
1/(120 n^4) and falls below that constant gap near n = 6.4e3, and below
double rounding noise already near n = 1.5e3.  The tests below therefore
verify the mathematical inequality in high precision over the full range,
verify the double-precision comparison where it is decidable, and keep
one test asserting the full claimed range as stated, which is expected to
fail; see README, Known limitations.
"""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import rowcover
from rowcover import bounds, coverage, errors, montecarlo, omf
from rowcover import (
    EULER_GAMMA,
    SMALL_THETA_LIMIT,
    DomainError,
    SmallThetaRegimeWarning,
    SparsityModel,
    bound_report,
    digamma_approx_bound,
    digamma_bound,
    digamma_psi0,
    exact_expected_cover_time,
    harmonic,
    log1m_taylor,
    phase_sum_expectation,
    simple_lower_bound,
    small_theta_bound,
    theorem_bound,
)

mpmath.mp.dps = 40


def mp_harmonic(n: int) -> mpmath.mpf:
    return mpmath.fsum(mpmath.mpf(1) / k for k in range(1, n + 1))


def psi_rhs(n: int) -> float:
    m = n + 1
    return math.log(m) - 1.0 / (2.0 * m) - 1.0 / (12.0 * m * m)


# ------------------------------------------------------------- constants


def test_euler_gamma_is_nearest_double():
    gap = abs(mpmath.mpf(EULER_GAMMA) - mpmath.euler)
    assert gap < 1.2e-16  # within one ulp of 0.577...
    # and specifically the pinned double sits slightly above the constant
    assert mpmath.mpf(EULER_GAMMA) > mpmath.euler


# ---------------------------------------------------- harmonic / digamma


def test_package_namespace_is_the_union_of_module_lists():
    # Each public name is declared once, in the module that defines it, and
    # the package re-exports that very object.
    modules = (coverage, bounds, montecarlo, omf)
    expected = ["DomainError", *(name for m in modules for name in m.__all__), "__version__"]
    assert rowcover.__all__ == expected
    assert len(set(rowcover.__all__)) == len(rowcover.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(rowcover, name) is getattr(module, name), name
    assert rowcover.DomainError is errors.DomainError
    assert "harmonic" not in bounds.__all__


def test_package_lazy_names_are_those_of_montecarlo_and_omf():
    # The package repeats these names so that it can refuse any other one
    # without importing the two modules; the copy must not drift.
    assert list(rowcover._LAZY) == montecarlo.__all__ + omf.__all__
    assert rowcover._LAZY_MODULES == ("montecarlo", "omf")


def test_package_probe_of_a_missing_name_does_not_load_numpy():
    # A miss, a private name and __all__ leave numpy unloaded; an exported
    # name of montecarlo then loads it.
    script = (
        "import sys, rowcover\n"
        "assert not hasattr(rowcover, 'nope') and not hasattr(rowcover, '_nope')\n"
        "assert len(rowcover.__all__) == len(set(rowcover.__all__))\n"
        "print('numpy' in sys.modules)\n"
        "assert callable(rowcover.phase_sweep)\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\nTrue\n"


def test_harmonic_small_values():
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert harmonic(3) == 11 / 6


def test_harmonic_against_rational_oracle():
    for n in (5, 17, 100, 999):
        truth = float(sum(Fraction(1, k) for k in range(1, n + 1)))
        assert math.isclose(harmonic(n), truth, rel_tol=1e-14)


def test_harmonic_rejects_zero():
    with pytest.raises(DomainError):
        harmonic(0)
    with pytest.raises(DomainError):
        harmonic(2.5)


def test_harmonic_matches_scalar_loop_across_blocks():
    # Each reciprocal is one correctly rounded division and fsum rounds the
    # sum once, so harmonic has the bits of this scalar loop at every n.
    for n in (1, 2, 100, 101, 4095, 4096, 4097, 8193, 10_000):
        assert harmonic(n) == math.fsum(1.0 / k for k in range(1, n + 1)), n


def test_harmonic_log_approximation_cross_check():
    # H_n = ln n + gamma + 1/(2n) - 1/(12n^2) + ..., so the first three
    # terms approximate H_n within 1/(8n^2) comfortably for n >= 10.
    for n in (10, 11, 25, 100, 1000, 5000):
        approx = math.log(n) + EULER_GAMMA + 1.0 / (2.0 * n)
        assert abs(harmonic(n) - approx) < 1.0 / (8.0 * n * n), n


def test_digamma_psi0_small_values():
    assert digamma_psi0(1) == 1.0 - EULER_GAMMA
    assert digamma_psi0(2) == 1.5 - EULER_GAMMA
    assert digamma_psi0(3) == harmonic(3) - EULER_GAMMA


def test_digamma_psi0_identity_is_exact_by_construction():
    # The digamma value is defined through the harmonic number, so the
    # identity psi0(n+1) = H_n - gamma holds bit-for-bit in this form.
    for n in (1, 2, 3, 7, 64, 500, 2500, 10000):
        assert digamma_psi0(n) == harmonic(n) - EULER_GAMMA


def test_digamma_psi0_matches_reference_digamma():
    for n in (1, 4, 50, 1000):
        truth = float(mpmath.digamma(n + 1))
        assert math.isclose(digamma_psi0(n), truth, rel_tol=1e-13), n


# ------------------------------------------------------------ psi bound


def test_psi_bound_holds_in_exact_arithmetic_full_range():
    # The mathematical inequality with the true gamma, checked at 40
    # digits for every n up to 1e4; the margin stays positive, shrinking
    # toward ~1/(120 n^4).
    one = mpmath.mpf(1)
    h = mpmath.mpf(0)
    worst = mpmath.inf
    for n in range(1, 10001):
        h += one / n
        m = n + 1
        rhs = mpmath.log(m) - one / (2 * m) - one / (12 * m * m)
        margin = (h - mpmath.euler) - rhs
        worst = min(worst, margin)
        assert margin > 0, n
    assert worst < 1e-17  # the margin really does become razor thin


def test_psi_bound_double_precision_decidable_range():
    # Below n ~ 1.5e3 the true margin exceeds double rounding noise and
    # the op-level comparison is decidable; it must hold there.
    for n in range(1, 1001):
        assert digamma_psi0(n) > psi_rhs(n), n


def test_psi_bound_strict_inequality_claimed_through_ten_thousand():
    # Claimed range of the strict inequality, asserted as stated. The
    # pinned EULER_GAMMA exceeds the true constant by 4.9e-18 while the
    # true margin decays like 1/(120 n^4), so in double precision the
    # comparison starts failing near n = 1.5e3 (and would fail near
    # n = 6.4e3 even in exact arithmetic with the pinned constant). Kept
    # unweakened on purpose; see README, Known limitations.
    violations = [n for n in range(1, 10001) if not digamma_psi0(n) > psi_rhs(n)]
    assert violations == [], (
        f"{len(violations)} violations, first at n = {violations[0]}"
    )


# --------------------------------------------------------- simple bounds


def test_theorem_bound_examples():
    assert theorem_bound(SparsityModel(1, 0.5)) == 2.0
    assert math.isclose(
        theorem_bound(SparsityModel(3, 0.5)), float(Fraction(24, 7)), rel_tol=1e-14
    )
    assert theorem_bound(SparsityModel(3, 1.0)) == 3.0


def test_simple_lower_bound_examples():
    assert math.isclose(
        simple_lower_bound(SparsityModel(3, 0.5)), float(Fraction(24, 7)), rel_tol=1e-14
    )
    assert simple_lower_bound(SparsityModel(1, 0.25)) == 4.0
    assert simple_lower_bound(SparsityModel(5, 1.0)) == 5.0


def test_theorem_bound_is_max_of_its_branches():
    # Direct comparison against independently evaluated branches.
    for n in (1, 2, 10, 100, 1000):
        for theta in (0.01, 0.1, 0.5, 0.9, 1.0):
            model = SparsityModel(n, theta)
            if theta == 1.0:
                dense_branch = float(n)
            else:
                dense_branch = n / -math.expm1(n * math.log1p(-theta))
            sparse_branch = math.log(n) / theta
            assert theorem_bound(model) == max(dense_branch, sparse_branch), (n, theta)


def test_theorem_bound_regime_split_fixed_theta():
    # At theta = 0.01 the ln(n)/theta branch rules the midrange, then the
    # n/(1-(1-theta)^n) branch takes over for good past the crossover.
    theta = 0.01
    crossover = None
    previous_dense = False
    for n in range(2, 2001):
        model = SparsityModel(n, theta)
        dense = model.n / -math.expm1(n * math.log1p(-theta))
        sparse = math.log(n) / theta
        if dense >= sparse and not previous_dense and n > 10:
            crossover = n
        previous_dense = dense >= sparse
        assert theorem_bound(model) == max(dense, sparse)
    assert crossover is not None
    for n in (crossover, crossover + 57, 2000, 5000):
        model = SparsityModel(n, theta)
        assert theorem_bound(model) == simple_lower_bound(model), n


def test_theorem_bound_regime_split_fixed_n():
    # For fixed n = 100 and shrinking theta the sparse branch dominates
    # exactly when theta < ln(n) (1 - (1-theta)^n) / n.
    n = 100
    for theta in (1e-2, 1e-3, 1e-4):
        model = SparsityModel(n, theta)
        gap = -math.expm1(n * math.log1p(-theta))
        if theta < math.log(n) * gap / n:
            assert theorem_bound(model) == math.log(n) / theta, theta
        else:
            assert theorem_bound(model) == simple_lower_bound(model), theta


def test_simple_lower_bound_below_phase_sum_with_equality_cases():
    for n in (1, 2, 3, 16, 64, 256):
        for theta in (0.01, 0.1, 0.3, 0.5, 0.9, 1.0):
            model = SparsityModel(n, theta)
            low = simple_lower_bound(model)
            phase = phase_sum_expectation(model)
            assert low <= phase * (1 + 1e-13), (n, theta)
            if n == 1 or theta == 1.0:
                assert math.isclose(low, phase, rel_tol=1e-13), (n, theta)
            else:
                assert low < phase, (n, theta)


# ------------------------------------------------------- digamma bounds


def test_digamma_bound_values():
    # Oracle: n - H_n / ln(1-theta) at 40 digits.
    for n, theta in ((3, 0.5), (1, 0.5), (10, 0.3), (64, 0.9)):
        truth = float(n - mp_harmonic(n) / mpmath.log(1 - mpmath.mpf(theta)))
        assert math.isclose(digamma_bound(SparsityModel(n, theta)), truth, rel_tol=1e-12)


def test_digamma_bound_one_row_half_density():
    assert math.isclose(
        digamma_bound(SparsityModel(1, 0.5)), 1.0 + 1.0 / math.log(2.0), rel_tol=1e-14
    )


def test_digamma_bound_approaches_n_in_dense_limit():
    values = [
        digamma_bound(SparsityModel(1, theta))
        for theta in (1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.04
    assert all(v > 1.0 for v in values)


def test_digamma_bound_rejects_degenerate_density():
    with pytest.raises(DomainError, match="degenerate"):
        digamma_bound(SparsityModel(3, 1.0))
    with pytest.raises(DomainError, match="degenerate"):
        digamma_approx_bound(SparsityModel(3, 1.0))


def test_digamma_approx_bound_values():
    gamma = mpmath.mpf(EULER_GAMMA)
    for n, theta in ((3, 0.5), (1, 0.5), (12, 0.2)):
        m = n + 1
        estimate = mpmath.log(m) - mpmath.mpf(1) / (2 * m) - mpmath.mpf(1) / (12 * m * m)
        truth = float(n - (gamma + estimate) / mpmath.log(1 - mpmath.mpf(theta)))
        value = digamma_approx_bound(SparsityModel(n, theta))
        assert math.isclose(value, truth, rel_tol=1e-12), (n, theta)


def test_digamma_approx_bound_close_at_n_one_hundred():
    model = SparsityModel(100, 0.5)
    assert abs(digamma_approx_bound(model) - digamma_bound(model)) < 1e-4


def test_digamma_ordering_over_grid():
    for n in (1, 2, 3, 10, 100, 1000):
        for theta in (0.01, 0.1, 0.5, 0.9, 0.999):
            model = SparsityModel(n, theta)
            assert digamma_approx_bound(model) <= digamma_bound(model), (n, theta)


def test_digamma_bound_does_not_equal_phase_sum():
    # The two quantities are genuinely different; record the gap rather
    # than asserting any equality (5.645 vs 4.476 at n=3, theta=0.5).
    model = SparsityModel(3, 0.5)
    assert digamma_bound(model) - phase_sum_expectation(model) > 1.0


# ---------------------------------------------------------------- taylor


def test_log1m_taylor_first_term():
    assert log1m_taylor(0.5, 1) == 0.5


def test_log1m_taylor_three_terms():
    truth = float(Fraction(1, 2) + Fraction(1, 8) + Fraction(1, 24))
    assert math.isclose(log1m_taylor(0.5, 3), truth, rel_tol=1e-14)
    # still 0.0264 short of -ln(1/2) = 0.6931...
    assert abs(log1m_taylor(0.5, 3) + math.log(0.5)) < 0.03


def test_log1m_taylor_eight_terms_close_to_log():
    assert abs(log1m_taylor(0.1, 8) - (-math.log(0.9))) < 1e-9


def test_log1m_taylor_remainder_bound_over_grid():
    # Sharp form plus two ulps of the log magnitude.  The slack is not ad
    # hoc: the exact-arithmetic margin is positive (next test), so the
    # evaluated gap can overshoot the envelope only by the rounding of the
    # two operands, at most about one ulp each.  At (0.01, 7) the true
    # margin is 1.4e-20, far below one ulp of ln(1/0.99), and the sharp
    # comparison does land on the violating side there.
    for theta in (0.01, 0.1, 0.3, 0.5, 0.9):
        slack = 2.0 * math.ulp(-math.log1p(-theta))
        for terms in range(1, 13):
            remainder = theta ** (terms + 1) / ((terms + 1) * (1.0 - theta))
            gap = abs(log1m_taylor(theta, terms) + math.log1p(-theta))
            assert gap <= remainder + slack, (theta, terms)


def test_log1m_taylor_remainder_bound_exact_arithmetic():
    # The envelope inequality itself, checked with 50-digit arithmetic on
    # the exact double inputs: remainder(T) < envelope(T) strictly, with
    # margin sum_{j >= 2} theta^(T+j) (1/(T+1) - 1/(T+j)) > 0.  Margins at
    # theta = 0.01, T >= 7 sit below 1e-19, which is why the sharp
    # double-precision comparison above cannot be trusted without slack.
    mpmath.mp.dps = 50
    tiny = []
    for theta in (0.01, 0.1, 0.3, 0.5, 0.9):
        th = mpmath.mpf(theta)
        true_log = -mpmath.log1p(-th)
        for terms in range(1, 13):
            taylor = mpmath.fsum(th ** k / k for k in range(1, terms + 1))
            remainder = true_log - taylor
            envelope = th ** (terms + 1) / ((terms + 1) * (1 - th))
            margin = envelope - remainder
            assert margin > 0, (theta, terms)
            if margin < math.ulp(float(true_log)):
                tiny.append((theta, terms))
    assert (0.01, 7) in tiny  # the acceptance-scale undecidable point


def test_log1m_taylor_rejects_bad_arguments():
    for theta in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            log1m_taylor(theta, 3)
    with pytest.raises(DomainError):
        log1m_taylor(0.5, 0)
    with pytest.raises(DomainError):
        log1m_taylor(0.1, 2.5)
    for theta in (None, "x", 10**400):
        with pytest.raises(DomainError, match="theta"):
            log1m_taylor(theta, 3)


def test_log1m_taylor_stops_at_the_first_zero_power():
    # 0.5^j is 0.0 from j = 1075 on, so every T past that is the same sum,
    # at once; it used to take 2.7 s at T = 10^7 and minutes at 10^9.
    truncated = math.fsum(0.5**j / j for j in range(1, 1101))
    for terms in (1100, 10**7, 10**9, 10**100):
        assert log1m_taylor(0.5, terms) == truncated
    assert log1m_taylor(5e-324, 10**9) == 5e-324
    # Near theta = 1 the powers stay nonzero for about 10^15 terms.
    with pytest.raises(DomainError, match="nonzero terms"):
        log1m_taylor(1.0 - 1e-12, 10**9)
    assert log1m_taylor(1.0 - 1e-12, 10) == math.fsum((1.0 - 1e-12) ** j / j for j in range(1, 11))


# ----------------------------------------------------------- small theta


def _no_warning():
    # a context that fails the test on any regime warning
    import contextlib
    import warnings

    @contextlib.contextmanager
    def guard():
        with warnings.catch_warnings():
            warnings.simplefilter("error", SmallThetaRegimeWarning)
            yield

    return guard()


def test_small_theta_bound_values():
    gamma = mpmath.mpf(EULER_GAMMA)
    cases = ((3, 0.5), (1, 0.01), (3, 0.01))
    for n, theta in cases:
        truth = float(n + (gamma + mpmath.log(n + 1)) / mpmath.mpf(theta))
        context = (
            pytest.warns(SmallThetaRegimeWarning) if theta > SMALL_THETA_LIMIT else _no_warning()
        )
        with context:
            value = small_theta_bound(SparsityModel(n, theta))
        assert math.isclose(value, truth, rel_tol=1e-12), (n, theta)


def test_small_theta_bound_warning_threshold():
    with pytest.warns(SmallThetaRegimeWarning):
        small_theta_bound(SparsityModel(3, 0.10001))
    with _no_warning():
        small_theta_bound(SparsityModel(3, 0.1))
        small_theta_bound(SparsityModel(3, 0.05))


def test_small_theta_bound_rejects_degenerate_density():
    with pytest.raises(DomainError, match="degenerate"):
        small_theta_bound(SparsityModel(3, 1.0))


# ----------------------------------------------------------------- report


def test_bound_report_wires_fields_to_ops():
    model = SparsityModel(3, 0.5)
    report = bound_report(model)
    assert report.model is model
    assert report.theorem_bound == theorem_bound(model)
    assert report.simple_lower_bound == simple_lower_bound(model)
    assert report.digamma_bound == digamma_bound(model)
    assert report.digamma_approx_bound == digamma_approx_bound(model)
    summary = exact_expected_cover_time(model)
    assert report.phase_sum == summary.phase_sum
    assert report.exact_expectation == summary.exact_expectation
    assert math.isclose(report.phase_sum, float(Fraction(94, 21)), rel_tol=1e-13)
    assert abs(report.exact_expectation - float(Fraction(22, 7))) <= 1e-9


def test_bound_report_emits_no_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound_report(SparsityModel(3, 0.5))


def test_bound_report_one_row_half_density():
    report = bound_report(SparsityModel(1, 0.5))
    assert report.phase_sum == 2.0
    assert abs(report.exact_expectation - 2.0) <= 1e-9
    assert report.simple_lower_bound == 2.0
    assert report.theorem_bound == 2.0


def test_bound_report_degenerate_density_markers():
    report = bound_report(SparsityModel(3, 1.0))
    assert report.digamma_bound is None
    assert report.digamma_approx_bound is None
    assert report.small_theta_bound is None
    assert report.simple_lower_bound == 3.0
    assert report.theorem_bound == 3.0
    assert report.phase_sum == 3.0
    assert report.exact_expectation == 1.0


def _count_sums(monkeypatch) -> dict[str, int]:
    # Counts the calls of each O(n) sum, wherever coverage or bounds calls it.
    calls = dict.fromkeys(("harmonic", "classic_harmonic_sum", "phase_sum_expectation"), 0)
    for name in calls:
        def spy(*args, name=name, original=getattr(coverage, name)):
            calls[name] += 1
            return original(*args)

        for module in (coverage, bounds):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("theta", [0.1, 1e-4, 1.0])
def test_bound_report_sums_h_n_once_and_n_h_n_never(monkeypatch, theta):
    # 0.1 takes E[T]'s tail sum, 1e-4 its closed form, which sums H_n.
    calls = _count_sums(monkeypatch)
    bound_report(SparsityModel(2000, theta))
    assert calls == {"harmonic": int(theta < 1.0), "classic_harmonic_sum": 0,
                     "phase_sum_expectation": 1}


@pytest.mark.parametrize("theta", [0.1, 1e-4, 1.0])
def test_exact_expectation_sums_each_reference_once(monkeypatch, theta):
    calls = _count_sums(monkeypatch)
    exact_expected_cover_time(SparsityModel(2000, theta))
    assert calls == {"harmonic": int(theta == 1e-4), "classic_harmonic_sum": 1,
                     "phase_sum_expectation": 1}


@pytest.mark.parametrize("theta", [0.5, 1e-6])
@pytest.mark.parametrize("function", [exact_expected_cover_time, bound_report])
def test_past_the_term_ceiling_no_sum_is_entered(monkeypatch, function, theta):
    # E[T] refuses the n itself, before H_n, n * H_n or the phase sum starts.
    calls = _count_sums(monkeypatch)
    with pytest.raises(DomainError, match="needs more than 100000000 terms"):
        function(SparsityModel(10**8 + 1, theta))
    assert calls == {"harmonic": 0, "classic_harmonic_sum": 0, "phase_sum_expectation": 0}


def test_bound_report_refuses_non_finite_fields():
    good = bound_report(SparsityModel(3, 0.5))
    for field in ("theorem_bound", "phase_sum", "exact_expectation", "small_theta_bound"):
        with pytest.raises(DomainError, match="non-finite"):
            dataclasses.replace(good, **{field: math.inf})


def test_bound_report_validates_orderings():
    from rowcover import BoundReport

    # Anything but a SparsityModel is refused by every bound that takes one.
    for function in (theorem_bound, simple_lower_bound, digamma_bound, digamma_approx_bound,
                     small_theta_bound, bound_report):
        for wrong in (None, "x", (3, 0.5), 3):
            with pytest.raises(DomainError, match="SparsityModel"):
                function(wrong)
    model = SparsityModel(3, 0.5)
    good = bound_report(model)
    # manual construction violating either ordering must be rejected
    with pytest.raises(DomainError):
        BoundReport(
            model=model,
            theorem_bound=good.theorem_bound,
            simple_lower_bound=good.phase_sum + 1.0,
            digamma_bound=good.digamma_bound,
            digamma_approx_bound=good.digamma_approx_bound,
            small_theta_bound=good.small_theta_bound,
            phase_sum=good.phase_sum,
            exact_expectation=good.exact_expectation,
        )
    with pytest.raises(DomainError):
        BoundReport(
            model=model,
            theorem_bound=good.theorem_bound,
            simple_lower_bound=good.simple_lower_bound,
            digamma_bound=good.digamma_bound,
            digamma_approx_bound=good.digamma_bound + 1.0,
            small_theta_bound=good.small_theta_bound,
            phase_sum=good.phase_sum,
            exact_expectation=good.exact_expectation,
        )
