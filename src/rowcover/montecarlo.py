"""Seeded Monte Carlo verification of the closed-form coverage quantities.

Estimators here sample the same Bernoulli row-sparsity process the
coverage module describes analytically: cover times, coverage
probabilities at fixed column counts, and whole phase curves over a range
of p.  Every estimate carries a 95% confidence interval (Wilson score for
proportions, normal approximation for means) and the seed that produced
it.

Reproducibility contract: each trial's stream is a pure function of
(seed, trial index) and each sweep point's sub-seed of (seed, p), via the
stream-derivation scheme in _streams.  Identical (model, trials, seed)
therefore give bit-identical estimates no matter how trials are chunked
or parallelized.  The estimators here take their streams and sub-seeds from
_streams.trial_streams and _streams.trial_seeds, which derive them in
batches under that same scheme; a stream they yield is valid only until
the next trial's.

A cover time is the largest of n geometric(theta) draws.  _streams draws
cover times whole, from the variates numpy's Generator.geometric would
draw from the same stream positions, mapping only each trial's largest
through numpy's non-decreasing transform: sample_cover_time's from the
caller's stream (_streams.cover_times), and the estimator's from its keyed
trials (_streams.trial_cover_times), which takes the raw words of
uniform-branch trials of at most 20 variates from Philox computed over a
block of keys at once, at any trial count, the same words their streams
would yield.  Coverage trials are drawn into stacked blocks, a pattern a
row, and counted one reduction per block (_covered, which counts the OMF
experiment's instances too).  _streams sizes every block and names the
budget.

Only the sparsity indicator pattern is sampled here; coverage does not
depend on the nonzero values themselves.  Value sampling belongs to the
omf module.  An indicator is Generator.random() < theta, drawn by
_streams.pattern_draw from the same stream position without making a
double.  Both draws rest on numpy details that _streams copies and lists,
pinned by the tests on the installed numpy only, while the package accepts
any numpy from 1.24 on, and nothing checks them at run time yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _streams
from .coverage import SparsityModel, _checked_model, coverage_probability
from .errors import DomainError, checked_int

__all__ = [
    "Z95",
    "MonteCarloEstimate",
    "PhasePoint",
    "PhaseCurve",
    "sample_cover_time",
    "sample_indicator_pattern",
    "estimate_expected_cover_time",
    "estimate_coverage_probability",
    "phase_sweep",
]

# Two-sided 95% standard-normal quantile, pinned so intervals are
# bit-reproducible without a scipy dependency.
Z95 = 1.959963984540054

# Most points phase_sweep may take, each one a full estimate; a wider range
# is refused rather than left running for hours.
_MAX_SWEEP_POINTS = 10**5


@dataclass(frozen=True, slots=True)
class MonteCarloEstimate:
    """A mean with its 95% confidence interval and provenance.

    seed is the exact seed the estimator consumed, so any estimate can be
    reproduced from its own fields.
    """

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not self.std_error >= 0.0:
            raise DomainError(f"std_error must be >= 0, got {self.std_error!r}")
        if not self.ci_low <= self.mean <= self.ci_high:
            raise DomainError(
                f"confidence interval [{self.ci_low!r}, {self.ci_high!r}] "
                f"does not contain mean {self.mean!r}"
            )


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """One sweep point: column count, empirical estimate, closed form."""

    p: int
    empirical: MonteCarloEstimate
    analytic: float


@dataclass(frozen=True, slots=True)
class PhaseCurve:
    """Coverage probability versus column count for one model."""

    model: SparsityModel
    points: tuple[PhasePoint, ...]

    def __post_init__(self) -> None:
        for before, after in zip(self.points, self.points[1:]):
            if after.p <= before.p:
                raise DomainError("sweep points must be strictly increasing in p")
            if after.analytic < before.analytic:
                raise DomainError("analytic coverage must be nondecreasing in p")


def sample_cover_time(model: SparsityModel, stream: np.random.Generator) -> int:
    """One cover time: columns until every row has seen a nonzero entry.

    Row i is first covered at a geometric(theta) column, independently of
    the other rows, so the cover time is the maximum of n geometric draws,
    sampled in O(n) time and O(min(n, 2^15)) memory.  It equals, and leaves
    the stream where it leaves it, stream.geometric(theta, n).max(): the n
    variates numpy's sampler would draw (standard exponentials below
    theta = 1/3, uniforms from it on) are drawn, and only their largest is
    mapped to a draw, by numpy's own transform (pinned by the tests on one
    numpy release; see the module docstring).  A draw that numpy would
    clip at the int64 maximum raises DomainError rather than returning a
    cover time that is too small, and so does a uniform for which numpy's
    sampler would never return, and an n of 2^60 or more: no n-long array
    is drawn, but numpy could not allocate geometric(theta, n) itself.
    """
    _streams._check_draw_size("an n", _checked_model(model).n)
    # numpy loads np.random lazily; importing Generator by name would cost
    # callers that never sample about 2 MB and 10 ms.
    if not isinstance(stream, np.random.Generator):
        raise DomainError(f"stream must be a numpy Generator, got {type(stream).__name__}")
    return int(_streams.cover_times(model.theta, model.n, 1, (stream,))[0])


def sample_indicator_pattern(model: SparsityModel, p: int, seed: int) -> np.ndarray:
    """The n x p Boolean sparsity pattern for (model, p, seed).

    This is the package-wide pattern law: the omf module's sparse matrices
    place their nonzeros at exactly these positions for the same inputs.
    It equals spawn_generator(seed, PATTERN).random((n, p)) < theta, drawn
    by _streams.pattern_draw.  An n x p draw past the largest array numpy
    can allocate raises DomainError.
    """
    _checked_model(model)
    p = checked_int(p, "p", 0)
    _streams._check_draw_size("an n x p", model.n, p)
    seed = _streams.checked_seed(seed)
    stream = _streams.spawn_generator(seed, _streams.PATTERN)
    return _streams.pattern_draw(model.theta)(stream, out=np.empty((model.n, p), dtype=bool))


def _covered(patterns: np.ndarray) -> int:
    """How many of the stacked (..., n, p) patterns hold a nonzero in every row."""
    return int(np.count_nonzero(patterns.any(axis=-1).all(axis=-1)))


def _proportion_estimate(hits: int, trials: int, seed: int) -> MonteCarloEstimate:
    """The share hits / trials, with binomial std error and Wilson interval."""
    mean = hits / trials
    std_error = math.sqrt(mean * (1.0 - mean) / trials)
    ci_low, ci_high = _wilson_interval(hits, trials)
    return MonteCarloEstimate(mean, std_error, ci_low, ci_high, trials, seed)


def _wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    # Wilson score interval; stays inside [0, 1] and behaves at 0/1 hits.
    # Clamped to contain the point estimate, which it does mathematically
    # but not always by the last ulp.
    phat = hits / trials
    z_sq = Z95 * Z95
    denom = 1.0 + z_sq / trials
    center = (phat + z_sq / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(
        phat * (1.0 - phat) / trials + z_sq / (4.0 * trials * trials)
    ) / denom
    low = max(0.0, min(center - half, phat))
    high = min(1.0, max(center + half, phat))
    return low, high


def estimate_expected_cover_time(
    model: SparsityModel, trials: int, seed: int
) -> MonteCarloEstimate:
    """Sample mean of `trials` independent cover times with a normal CI.

    An n of 2^60 or more, where numpy could not allocate geometric(theta, n)
    itself though no n-long array is drawn, raises DomainError before any
    trial, and so does a trial count past the largest array of cover times
    (one int64 each) numpy can allocate.
    """
    _checked_model(model)
    trials = checked_int(trials, "trials", 2)  # two, for a confidence interval
    seed = _streams.checked_seed(seed)
    _streams._check_draw_size("an n", model.n)
    _streams._check_draw_size("a trials", trials)
    values = _streams.trial_cover_times(seed, _streams.COVER_TRIAL, model.theta, model.n, trials)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1)) / math.sqrt(trials)
    half = Z95 * std_error
    return MonteCarloEstimate(mean, std_error, mean - half, mean + half, trials, seed)


def estimate_coverage_probability(
    model: SparsityModel, p: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Fraction of n x p patterns with no all-zero row, with a Wilson CI.

    Each trial draws its whole n x p pattern, so an n x p past the largest
    array numpy can allocate raises DomainError.  Trials are drawn into a
    stacked block of at most 1,024 patterns and 2^18 indicators (a larger
    pattern is a block of its own) and counted one reduction per block.
    At p = 0 no pattern of n >= 1 rows is covered, so the estimate of 0
    hits is returned before any trial key is hashed.
    """
    _checked_model(model)
    p = checked_int(p, "p", 0)
    trials = checked_int(trials, "trials", 1)
    seed = _streams.checked_seed(seed)
    if p == 0:
        return _proportion_estimate(0, trials, seed)
    n = model.n
    _streams._check_draw_size("an n x p", n, p)
    streams = _streams.trial_streams(seed, _streams.COVERAGE_TRIAL, trials)
    patterns = _streams.blocks(trials, streams, _streams.pattern_draw(model.theta), bool, n, p)
    return _proportion_estimate(sum(map(_covered, patterns)), trials, seed)


def phase_sweep(
    model: SparsityModel, p_min: int, p_max: int, trials: int, seed: int
) -> PhaseCurve:
    """Empirical and analytic coverage for every p in [p_min, p_max].

    Each point runs estimate_coverage_probability under the sub-seed
    derived from (seed, p), so individual points can be reproduced in
    isolation and inserting or removing grid points never shifts the
    others.  A range of more than 10^5 points raises DomainError before
    any estimate.
    """
    _checked_model(model)
    p_min = checked_int(p_min, "p_min", 0)
    p_max = checked_int(p_max, "p_max", 0)
    if p_max < p_min:
        raise DomainError(f"range is inverted: p_min = {p_min}, p_max = {p_max}")
    trials = checked_int(trials, "trials", 1)
    seed = _streams.checked_seed(seed)
    if p_max - p_min + 1 > _MAX_SWEEP_POINTS:
        raise DomainError(
            f"range p_min = {p_min} .. p_max = {p_max} has {p_max - p_min + 1} points, "
            f"more than {_MAX_SWEEP_POINTS}"
        )
    points = []
    sub_seeds = _streams.trial_seeds(seed, _streams.SWEEP_POINT, p_min, p_max + 1)
    for p, sub_seed in zip(range(p_min, p_max + 1), sub_seeds):
        empirical = estimate_coverage_probability(model, p, trials, sub_seed)
        points.append(PhasePoint(p, empirical, coverage_probability(model, p)))
    return PhaseCurve(model, tuple(points))
