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

A cover time is the largest of n geometric(theta) draws.  It is computed
from the variates numpy's Generator.geometric would draw from the same
stream positions, standard exponentials below theta = 1/3 and uniforms
from it on, by mapping only each trial's largest variate through numpy's
transform, which is non-decreasing (see _geometric_transform).  Trials are
reduced one numpy max per block of at most 2^13 variates, a trial past 2^13
rows chunk by chunk, so a call holds at most one block.  The identity rests
on numpy's sampler, which numpy's stream policy lets change between
releases: the tests pin it on the installed numpy only, while the package
accepts any numpy from 1.24 on, and nothing checks it at run time yet.

Only the sparsity indicator pattern is sampled here; coverage does not
depend on the nonzero values themselves.  Value sampling belongs to the
omf module.  An indicator is Generator.random() < theta, and is drawn as
one raw Philox word compared with the integer _streams.raw_limit(theta),
which gives the same indicator from the same stream position without
making a double.  That identity rests on numpy's double construction,
pinned by the tests on the installed numpy only, like the sampler above.
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

# numpy's geometric sampler clips a draw at or past 2^63 to the int64 maximum.
_CLIP_AT = 2.0**63

# numpy's geometric sampler inverts an exponential below this theta (its
# constant 0.333333333333333333333333 is this double) and searches a running
# sum for a uniform from it on.
_SEARCH_THETA = 1 / 3

# Most variates in one cover-time block, and in one chunk of a larger n.
_COVER_BLOCK_CELLS = 2**13

# numpy refuses, with a bare ValueError, an array of more bytes than this.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max

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
    sampled in O(n) time and O(min(n, 2^13)) memory.  It equals, and leaves
    the stream where it leaves it, stream.geometric(theta, n).max(): the n
    variates numpy's sampler would draw (standard exponentials below
    theta = 1/3, uniforms from it on) are drawn, and only their largest is
    mapped to a draw, by numpy's own transform (pinned by the tests on one
    numpy release; see the module docstring).  A draw that numpy would
    clip at the int64 maximum raises DomainError rather than returning a
    cover time that is too small, and so does a uniform for which numpy's
    sampler would never return, and an n past the largest draw numpy can
    allocate.
    """
    _check_draw_size("an n", _checked_model(model).n)
    # numpy loads np.random lazily; importing Generator by name would cost
    # callers that never sample about 2 MB and 10 ms.
    if not isinstance(stream, np.random.Generator):
        raise DomainError(f"stream must be a numpy Generator, got {type(stream).__name__}")
    return int(_cover_times(model, (stream,), 1)[0])


def _cover_times(model: SparsityModel, streams, count: int) -> np.ndarray:
    # The cover times of the next `count` streams, in order.  Each trial fills
    # one row of the block with its n variates, past 2^13 rows one chunk at a
    # time under an elementwise running max in that row; one max per block then
    # gives every trial's largest variate, and the map makes it a cover time.
    draw, cover_times = _geometric_transform(model.theta)
    n = model.n
    width = min(n, _COVER_BLOCK_CELLS)
    block = np.empty((max(1, min(_streams._BLOCK, _COVER_BLOCK_CELLS // n, count)), width))
    tails = []
    if n > width:  # one trial a block: its later chunks, each with its head of the row
        chunk = np.empty(width)
        tails = [(chunk[:n - done], block[0, :n - done]) for done in range(width, n, width)]
    values = np.empty(count, dtype=np.int64)
    for start in range(0, count, len(block)):
        used = block[:count - start]
        for row, stream in zip(used, streams):
            draw(stream, out=row)
            for part, head in tails:
                draw(stream, out=part)
                np.maximum(head, part, out=head)
        values[start:start + len(used)] = cover_times(used.max(axis=1))
    return values


def _geometric_transform(theta: float):
    """numpy's geometric(theta) sampler as a variate and a map of its largest.

    Generator.geometric draws one variate per value.  Below theta = 1/3 it is
    a standard exponential E, mapped to ceil(-E / log1p(-theta)) and clipped
    at the int64 maximum.  From 1/3 on it is a uniform U, mapped to the
    smallest X with U <= S_X, where S_1 = theta and S_X adds theta(1-theta)^(X-1)
    to S_(X-1) in numpy's own float recurrence.  Both maps are non-decreasing,
    so the largest of n draws is the map of the largest of their variates.

    Returns the Generator method that draws the variates and the map, which
    takes an array of largest variates and returns int64 cover times.  It
    raises DomainError where numpy would clip a draw, and where numpy would
    not return at all: for about a fifth of theta in [1/3, 1), S_X stops
    growing below the largest uniform numpy can draw, 1 - 2^-53, and numpy's
    search for a U above it never ends.
    """
    if theta < _SEARCH_THETA:
        scale = math.log1p(-theta)

        def inverted(tops: np.ndarray) -> np.ndarray:
            draws = np.ceil(-tops / scale)
            if draws.max() >= _CLIP_AT:
                raise DomainError(f"theta = {theta!r} clips a geometric draw at the int64 maximum")
            return draws.astype(np.int64)

        return np.random.Generator.standard_exponential, inverted
    # numpy's S_X, extended only as far as the largest uniform yet mapped.
    q = 1.0 - theta
    sums, term = [theta], theta

    def searched(tops: np.ndarray) -> np.ndarray:
        nonlocal term
        top = float(tops.max())
        while sums[-1] < top:
            total = sums[-1] + term * q
            if total == sums[-1]:  # the terms only shrink: numpy's loop never ends
                raise DomainError(
                    f"theta = {theta!r} with a uniform draw of {top!r} hangs numpy's "
                    f"geometric sampler: its running sum stops at {total!r}"
                )
            term *= q
            sums.append(total)
        return np.searchsorted(sums, tops) + 1

    return np.random.Generator.random, searched


def _check_draw_size(names: str, *shape: int) -> None:
    # One draw of 8-byte values (float64, int64 or uint64) of this shape,
    # refused before numpy is asked for an array it cannot allocate.
    size = math.prod(shape) * 8
    if size > _MAX_ARRAY_BYTES:
        raise DomainError(
            f"{names} = {' x '.join(map(str, shape))} draw needs {size} bytes, "
            f"more than numpy can allocate ({_MAX_ARRAY_BYTES})"
        )


def sample_indicator_pattern(model: SparsityModel, p: int, seed: int) -> np.ndarray:
    """The n x p Boolean sparsity pattern for (model, p, seed).

    This is the package-wide pattern law: the omf module's sparse matrices
    place their nonzeros at exactly these positions for the same inputs.
    It equals spawn_generator(seed, PATTERN).random((n, p)) < theta, drawn
    as n x p raw words compared with _streams.raw_limit(theta).  An n x p
    draw past the largest array numpy can allocate raises DomainError.
    """
    _checked_model(model)
    p = checked_int(p, "p", 0)
    _check_draw_size("an n x p", model.n, p)
    seed = _streams.checked_seed(seed)
    stream = _streams.spawn_generator(seed, _streams.PATTERN)
    limit = _streams.raw_limit(model.theta)
    return stream.bit_generator.random_raw(model.n * p).reshape(model.n, p) <= limit


def _proportion_estimate(outcomes, trials: int, seed: int) -> MonteCarloEstimate:
    """Share of true outcomes among `trials`, with binomial std error and Wilson interval."""
    hits = sum(map(bool, outcomes))
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

    An n past the largest draw numpy can allocate raises DomainError before
    any trial.
    """
    _checked_model(model)
    trials = checked_int(trials, "trials", 2)  # two, for a confidence interval
    seed = _streams.checked_seed(seed)
    _check_draw_size("an n", model.n)
    streams = _streams.trial_streams(seed, _streams.COVER_TRIAL, trials)
    values = _cover_times(model, streams, trials)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1)) / math.sqrt(trials)
    half = Z95 * std_error
    return MonteCarloEstimate(mean, std_error, mean - half, mean + half, trials, seed)


def estimate_coverage_probability(
    model: SparsityModel, p: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Fraction of n x p patterns with no all-zero row, with a Wilson CI.

    Each trial draws its whole n x p pattern, so an n x p past the largest
    array numpy can allocate raises DomainError.
    """
    _checked_model(model)
    p = checked_int(p, "p", 0)
    trials = checked_int(trials, "trials", 1)
    seed = _streams.checked_seed(seed)
    n = model.n
    _check_draw_size("an n x p", n, p)
    limit = _streams.raw_limit(model.theta)
    streams = _streams.trial_streams(seed, _streams.COVERAGE_TRIAL, trials)
    outcomes = (
        (s.bit_generator.random_raw(n * p).reshape(n, p) <= limit).any(axis=1).all()
        for s in streams
    )
    return _proportion_estimate(outcomes, trials, seed)


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
