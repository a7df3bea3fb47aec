"""Closed-form lower bounds on the covering column count.

Each bound answers the same question from a different angle: how many
columns p does an n-row pattern with density theta need before full row
coverage is likely?  theorem_bound is the two-branch envelope
max{n / (1 - (1-theta)^n), ln(n)/theta}; simple_lower_bound is its first
branch alone; digamma_bound rewrites the phase-sum lower bound through
harmonic numbers, n - (gamma + psi0(n+1)) / ln(1-theta); and
digamma_approx_bound replaces psi0 by its standard logarithmic
approximation.  small_theta_bound keeps only the leading Taylor term of
-ln(1-theta), which is honest when theta is small and optimistic
otherwise, hence the regime warning.

All bounds return the bracketed expressions with constant exactly 1; any
hidden constants in the statements they summarize are left to the caller,
so comparisons against simulation should be ratio-based.

The digamma value is constructed from the harmonic number through the
integer-argument identity psi0(n+1) = H_n - gamma rather than computed
independently, with gamma pinned to the double EULER_GAMMA below.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .coverage import (
    _MAX_TAIL_TERMS,
    SparsityModel,
    _checked_model,
    _complement_power,
    _expected_cover_time,
    harmonic,
    phase_sum_expectation,
)
from .errors import DomainError, checked_int, checked_real

__all__ = [
    "EULER_GAMMA",
    "SMALL_THETA_LIMIT",
    "SmallThetaRegimeWarning",
    "BoundReport",
    "theorem_bound",
    "simple_lower_bound",
    "digamma_psi0",
    "digamma_bound",
    "digamma_approx_bound",
    "log1m_taylor",
    "small_theta_bound",
    "bound_report",
]

# Euler-Mascheroni constant, pinned to the nearest double. Every gamma in
# this module is this exact value so results are reproducible bit-for-bit.
EULER_GAMMA = 0.5772156649015329

# Above this density the dropped Taylor factor 1 + theta/2 + theta^2/3 + ...
# exceeds ~1.05 and small_theta_bound stops being a serious bound.
SMALL_THETA_LIMIT = 0.1


class SmallThetaRegimeWarning(UserWarning):
    """small_theta_bound was evaluated outside its small-theta regime."""


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Every bound for one model, next to the phase sum and the exact value.

    The three digamma-family fields are None when theta = 1, where
    ln(1 - theta) makes them undefined.
    """

    model: SparsityModel
    theorem_bound: float
    simple_lower_bound: float
    digamma_bound: Optional[float]
    digamma_approx_bound: Optional[float]
    small_theta_bound: Optional[float]
    phase_sum: float
    exact_expectation: float

    def __post_init__(self) -> None:
        defined = [self.theorem_bound, self.simple_lower_bound, self.phase_sum,
                   self.exact_expectation]
        if self.model.theta < 1.0:
            defined += [self.digamma_bound, self.digamma_approx_bound,
                        self.small_theta_bound]
            if self.digamma_approx_bound > self.digamma_bound:
                raise DomainError("digamma_approx_bound must not exceed digamma_bound")
        if not all(math.isfinite(v) for v in defined):
            raise DomainError(f"bound report contains non-finite fields: {self}")
        if self.simple_lower_bound > self.phase_sum:
            raise DomainError("simple_lower_bound must not exceed phase_sum")


def _refuse_degenerate(name: str, theta: float) -> None:
    # The digamma family divides by ln(1 - theta), or by theta standing in
    # for -ln(1 - theta), and has no value in the dense limit.
    if theta == 1.0:
        raise DomainError(
            f"{name} is undefined in the degenerate case theta = 1 "
            "(ln(1 - theta) diverges)"
        )


def theorem_bound(model: SparsityModel) -> float:
    """max{n / (1 - (1-theta)^n), ln(n)/theta}, the two-regime envelope.

    The first branch dominates for dense patterns and small n, the second
    for sparse patterns and large n; the max is always a valid floor on
    the expected covering column count up to the usual hidden constant.
    """
    return max(simple_lower_bound(model), math.log(model.n) / model.theta)


def simple_lower_bound(model: SparsityModel) -> float:
    """n / (1 - (1-theta)^n), the theta-free floor of the phase sum.

    Every phase wait in the phase decomposition is at least
    1 / (1 - (1-theta)^n), and there are n phases.
    """
    return _checked_model(model).n / _complement_power(model.theta, model.n, model.log_q)


def digamma_psi0(n: int) -> float:
    """psi0(n+1) through the integer identity psi0(n+1) = H_n - gamma."""
    return harmonic(n) - EULER_GAMMA


def _digamma_bound(n: int, h_n: float, log_q: float) -> float:
    # digamma_bound from a given H_n, with psi0(n+1) formed as digamma_psi0 does.
    return n - (EULER_GAMMA + (h_n - EULER_GAMMA)) / log_q


def digamma_bound(model: SparsityModel) -> float:
    """n - (gamma + psi0(n+1)) / ln(1-theta).

    gamma + psi0(n+1) collapses to H_n, and ln(1-theta) < 0 makes the
    subtracted term positive, so this always exceeds n.
    """
    n, theta = _checked_model(model).n, model.theta
    _refuse_degenerate("digamma_bound", theta)
    return _digamma_bound(n, harmonic(n), model.log_q)


def digamma_approx_bound(model: SparsityModel) -> float:
    """digamma_bound with psi0(n+1) replaced by its log approximation.

    Uses ln(n+1) - 1/(2(n+1)) - 1/(12(n+1)^2), a lower estimate of
    psi0(n+1); dividing a smaller numerator by the negative log keeps the
    result at or below digamma_bound.
    """
    n, theta = _checked_model(model).n, model.theta
    _refuse_degenerate("digamma_approx_bound", theta)
    m = n + 1
    psi_estimate = math.log(m) - 1.0 / (2.0 * m) - 1.0 / (12.0 * m * m)
    return n - (EULER_GAMMA + psi_estimate) / model.log_q


def log1m_taylor(theta: float, terms: int) -> float:
    """Partial Taylor sum theta + theta^2/2 + ... + theta^T/T for -ln(1-theta).

    The omitted tail is bounded by theta^(T+1) / ((T+1)(1-theta)).  The sum
    stops at the first theta^j that rounds to 0.0, since every later term
    is 0.0 too; a T that needs more than 10^8 nonzero terms, with theta
    near 1, raises DomainError.
    """
    theta = checked_real(theta, "theta")
    if not 0.0 < theta < 1.0:
        raise DomainError(f"log1m_taylor requires 0 < theta < 1, got {theta!r}")
    terms = checked_int(terms, "terms", 1)
    # theta^j is below 2^-1075, and rounds to 0.0, past j = -1075 ln 2 / ln theta.
    if min(terms, -1075.0 * math.log(2.0) / math.log(theta)) > _MAX_TAIL_TERMS:
        raise DomainError(
            f"log1m_taylor needs more than {_MAX_TAIL_TERMS} nonzero terms at theta = {theta!r}"
        )
    powers = itertools.takewhile(bool, (theta**j for j in range(1, terms + 1)))
    return math.fsum(power / j for j, power in enumerate(powers, 1))


def small_theta_bound(model: SparsityModel) -> float:
    """n + (gamma + ln(n+1)) / theta, the leading-order sparse-regime bound.

    Drops the factor 1 + theta/2 + theta^2/3 + ... relating theta to
    -ln(1-theta); warns through SmallThetaRegimeWarning when theta exceeds
    SMALL_THETA_LIMIT and that factor is no longer close to 1.
    """
    n, theta = _checked_model(model).n, model.theta
    _refuse_degenerate("small_theta_bound", theta)
    if theta > SMALL_THETA_LIMIT:
        warnings.warn(
            f"small_theta_bound assumes theta <= {SMALL_THETA_LIMIT}; "
            f"theta = {theta} is outside the regime and the bound is optimistic",
            SmallThetaRegimeWarning,
            stacklevel=2,
        )
    return n + (EULER_GAMMA + math.log(n + 1)) / theta


def bound_report(model: SparsityModel) -> BoundReport:
    """All bounds for one model in a single record.

    The digamma-family fields are None at theta = 1; the regime warning
    from small_theta_bound is suppressed here since the report is a survey,
    not an endorsement of any one bound.  The exact expectation is E[T] as
    exact_expected_cover_time returns it at its default tol, and the
    digamma bound reuses the H_n that E[T]'s closed form sums, so each O(n)
    sum runs at most once.
    """
    exact, _, h_n = _expected_cover_time(model)
    phase = phase_sum_expectation(model)
    if model.theta == 1.0:
        dig = approx = small = None
    else:
        dig = _digamma_bound(model.n, harmonic(model.n) if h_n is None else h_n, model.log_q)
        approx = digamma_approx_bound(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallThetaRegimeWarning)
            small = small_theta_bound(model)
    return BoundReport(
        model=model,
        theorem_bound=theorem_bound(model),
        simple_lower_bound=simple_lower_bound(model),
        digamma_bound=dig,
        digamma_approx_bound=approx,
        small_theta_bound=small,
        phase_sum=phase,
        exact_expectation=exact,
    )
