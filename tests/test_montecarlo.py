"""Tests for the Monte Carlo estimators.

Statistical assertions run under pinned seeds that were fixed once and
never tuned per assertion; tolerances are 3-sigma (or wider), so the
pinned outcomes are stable and reproducible by construction of the
stream-derivation scheme.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from rowcover import (
    DomainError,
    MonteCarloEstimate,
    PhaseCurve,
    PhasePoint,
    SparsityModel,
    Z95,
    cover_time_pmf,
    coverage_experiment,
    coverage_probability,
    coverage_threshold,
    estimate_coverage_probability,
    estimate_expected_cover_time,
    exact_expected_cover_time,
    phase_sweep,
    sample_cover_time,
    sample_indicator_pattern,
    sample_sparse_matrix,
)
from rowcover import _streams, montecarlo


# ----------------------------------------------------------- determinism


def test_expected_cover_time_bit_reproducible():
    model = SparsityModel(4, 0.4)
    first = estimate_expected_cover_time(model, 2000, 321)
    second = estimate_expected_cover_time(model, 2000, 321)
    assert first == second  # dataclass equality covers every float field


def test_coverage_probability_bit_reproducible():
    model = SparsityModel(4, 0.4)
    first = estimate_coverage_probability(model, 6, 2000, 321)
    second = estimate_coverage_probability(model, 6, 2000, 321)
    assert first == second


def test_phase_sweep_bit_reproducible():
    model = SparsityModel(3, 0.5)
    assert phase_sweep(model, 1, 6, 500, 99) == phase_sweep(model, 1, 6, 500, 99)


_TOP_SEED = 2**64 - 1


def _pinned(mean, std_error, ci_low, ci_high, trials, seed):
    return MonteCarloEstimate(mean, std_error, ci_low, ci_high, trials, seed)


# Values of the stream scheme captured once and compared with ==, so any
# change to the draws, their order or the reductions shows here.  The
# 1,500- and 1,100-trial cases cross the 1,024-key blocks of _streams.
@pytest.mark.parametrize(
    "estimator, args, expected",
    [
        (estimate_expected_cover_time, (SparsityModel(1, 0.3), 50, 0),
         _pinned(2.84, 0.2946599562137997, 2.262477098134803, 3.4175229018651967, 50, 0)),
        (estimate_expected_cover_time, (SparsityModel(3, 0.5), 1500, _TOP_SEED),
         _pinned(3.082, 0.04313134704157333, 2.997464113193818, 3.166535886806182,
                 1500, _TOP_SEED)),
        (estimate_expected_cover_time, (SparsityModel(100, 0.05), 200, 7),
         _pinned(104.19, 1.8028368209616406, 100.6565047609125, 107.7234952390875, 200, 7)),
        (estimate_coverage_probability, (SparsityModel(1, 0.3), 2, 40, 7),
         _pinned(0.4, 0.07745966692414834, 0.2634832568429192, 0.5540410633965381, 40, 7)),
        (estimate_coverage_probability, (SparsityModel(3, 0.5), 4, 1500, _TOP_SEED),
         _pinned(0.8326666666666667, 0.009637872825089185, 0.8129320223811173,
                 0.8507017630463886, 1500, _TOP_SEED)),
        (estimate_coverage_probability, (SparsityModel(10, 0.2), 12, 300, 0),
         _pinned(0.52, 0.028844410203711913, 0.4635710820137406, 0.5759231991372775, 300, 0)),
        (coverage_experiment, (1, 0.5, 1, 1100, _TOP_SEED),
         _pinned(0.49363636363636365, 0.015074346183084793, 0.4641647803120694,
                 0.5231522389137195, 1100, _TOP_SEED)),
        (coverage_experiment, (3, 0.5, 4, 40, 0),
         _pinned(0.85, 0.05645794895318108, 0.709276756335103, 0.9293881228267964, 40, 0)),
    ],
)
def test_estimates_pinned_bit_for_bit(estimator, args, expected):
    assert estimator(*args) == expected


def test_phase_sweep_pinned_bit_for_bit():
    curve = phase_sweep(SparsityModel(3, 0.5), 2, 4, 100, _TOP_SEED)
    assert [point.empirical for point in curve.points] == [
        _pinned(0.47, 0.04990991885387112, 0.3751081795934127, 0.5671114302990063,
                100, 4269915063390370585),
        _pinned(0.66, 0.04737087712930804, 0.5627772885472462, 0.7453847920265184,
                100, 1011070060679569373),
        _pinned(0.78, 0.04142463035441595, 0.6892964648501421, 0.8499871761539459,
                100, 4121046970996954173),
    ]


def test_trial_streams_are_schedule_independent():
    # Rebuild the estimator's sample set trial by trial in reverse order;
    # per-trial streams depend only on (seed, trial index), so the
    # reassembled mean is bit-identical.
    model = SparsityModel(5, 0.3)
    trials, seed = 500, 77
    estimate = estimate_expected_cover_time(model, trials, seed)
    values = np.empty(trials, dtype=np.int64)
    for t in reversed(range(trials)):
        stream = _streams.spawn_generator(seed, _streams.COVER_TRIAL, t)
        values[t] = sample_cover_time(model, stream)
    assert float(values.mean()) == estimate.mean
    assert float(values.std(ddof=1)) / math.sqrt(trials) == estimate.std_error


def _per_trial_estimate(values: np.ndarray, seed: int) -> MonteCarloEstimate:
    # The estimator's reductions, applied to an independently drawn sample.
    mean = float(values.mean())
    std_error = float(values.std(ddof=1)) / math.sqrt(values.size)
    half = Z95 * std_error
    return MonteCarloEstimate(mean, std_error, mean - half, mean + half, values.size, seed)


# The estimator reduces 1,024 trials per block at n = 1, 3 and 20, 819 at
# n = 40 and three at n = 2^13 + 1; the counts sit at, and one either side
# of, a block edge, and 1,025 also crosses _streams' 1,024-key block.  A
# trial at n = 2 * 2^13 + 5 fills one row, and one at n = 2 * 2^15 + 5
# draws its variates in three chunks of 2^15.  The counts at n = 20 are the
# edges of a 2^16-byte block.  The uniform-branch cases that follow sit
# either side of theta = 1/3 and of n = 16 and n = 20, the edges of where
# small trials take vectorized Philox words instead of re-keyed
# generators, and at 127-129 and 255-257 trials, which take the words too.
@pytest.mark.parametrize(
    "n, theta, counts",
    [(1, 0.3, (1023, 1024, 1025)), (3, 0.5, (1023, 1024, 1025)),
     (20, 0.3, (408, 409, 410, 1025)), (2**13 + 1, 0.5, (2, 3)),
     (2 * 2**13 + 5, 0.01, (2, 3)), (40, 0.3, (818, 819, 820)), (2 * 2**15 + 5, 0.01, (2, 3)),
     (4, 0.5, (1023, 1024, 1025)), (5, 1 / 3, (1023, 1024, 1025)),
     (16, 0.9, (1023, 1024, 1025)), (17, 0.9, (1023, 1024, 1025)),
     (2, 1.0, (1023, 1024, 1025)), (20, 0.9, (1023, 1024, 1025)),
     (21, 0.9, (1023, 1024, 1025)), (8, 0.5, (127, 128, 129)), (8, 0.5, (255, 256, 257))],
)
@pytest.mark.parametrize("seed", [0, 7, _TOP_SEED])
def test_expected_cover_time_matches_a_per_trial_reference(n, theta, counts, seed):
    model = SparsityModel(n, theta)
    values = np.array([
        int(_streams.spawn_generator(seed, _streams.COVER_TRIAL, t).geometric(theta, n).max())
        for t in range(max(counts))
    ])
    for trials in counts:
        expected = _per_trial_estimate(values[:trials], seed)
        assert estimate_expected_cover_time(model, trials, seed) == expected


def test_cover_time_memory_is_flat_in_n():
    # A million rows are 8 MB of variates a trial, drawn 2^15 at a time: a
    # 256 KiB row and a 256 KiB chunk.  The first call, untraced, loads
    # numpy.random, about 1 MB of its own.  At n = 2^30, 2^15 chunks, nothing
    # may be set up per chunk before a draw.
    estimate_expected_cover_time(SparsityModel(3, 0.5), 2, 0)
    for call in (lambda: estimate_expected_cover_time(SparsityModel(10**6, 0.5), 2, 0),
                 lambda: _streams.cover_times(0.5, 2**30, 0, iter(()))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_vectorized_words_stay_within_the_block_budget():
    # A full block of 1,024 small uniform-branch trials takes vectorized
    # Philox words: one block of words and the rounds' transients, with each
    # round's keys made as the round needs them.  They stay under 2^18 bytes
    # at n <= 4 (about 221 KiB), and their arrays grow with ceil(n/4): about
    # 413 KiB at n = 5-8, 797 KiB at 16 and 909 KiB at 20, all under 2^20.
    for n, budget in ((3, 2**18), (8, 2**20), (16, 2**20), (20, 2**20)):
        model = SparsityModel(n, 0.5)
        estimate_expected_cover_time(model, 1024, 0)
        tracemalloc.start()
        try:
            estimate_expected_cover_time(model, 1024, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, n


def test_distinct_seeds_give_distinct_samples():
    model = SparsityModel(6, 0.2)
    a = estimate_expected_cover_time(model, 400, 0)
    b = estimate_expected_cover_time(model, 400, 1)
    assert a.mean != b.mean


# ------------------------------------------------------ cover-time sampling


def _column_process(model: SparsityModel, stream: np.random.Generator) -> int:
    # The cover time simulated literally, one column of Bernoulli(theta)
    # entries at a time: the reference for sample_cover_time's geometric
    # shortcut, which draws from other stream positions but the same law.
    covered = np.zeros(model.n, dtype=bool)
    columns = 0
    while not covered.all():
        covered |= stream.random(model.n) < model.theta
        columns += 1
    return columns


def test_sample_cover_time_dense_is_always_one():
    stream = _streams.spawn_generator(5, _streams.COVER_TRIAL, 0)
    assert sample_cover_time(SparsityModel(1, 1.0), stream) == 1
    assert sample_cover_time(SparsityModel(3, 1.0), stream) == 1
    assert _column_process(SparsityModel(3, 1.0), stream) == 1


def test_sample_cover_time_positive():
    model = SparsityModel(4, 0.25)
    for t in range(50):
        stream = _streams.spawn_generator(11, _streams.COVER_TRIAL, t)
        assert sample_cover_time(model, stream) >= 1


def test_sample_cover_time_refuses_a_clipped_draw():
    # numpy clips a geometric draw past 2^63 to the int64 maximum; a cover
    # time built from it would be a false, far too small value.
    stream = _streams.spawn_generator(0, _streams.COVER_TRIAL, 0)
    with pytest.raises(DomainError, match="int64"):
        sample_cover_time(SparsityModel(3, 1e-300), stream)
    with pytest.raises(DomainError, match="int64"):
        estimate_expected_cover_time(SparsityModel(3, 1e-300), 5, 0)


@pytest.mark.parametrize("theta", [5e-324, 1e-310])
def test_clip_refusal_comes_without_an_overflow_warning(theta):
    # At a subnormal theta the inverted map divides by a subnormal
    # log1p(-theta), and the quotient overflows to inf.  That is a clipped
    # draw, refused as one, with no numpy warning raised first.
    model = SparsityModel(1, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="clips a geometric draw"):
            sample_cover_time(model, _streams.spawn_generator(0, _streams.COVER_TRIAL, 0))
        with pytest.raises(DomainError, match="clips a geometric draw"):
            estimate_expected_cover_time(model, 10, 0)


def test_estimator_refuses_a_clipped_draw_past_its_first_block():
    # Trials are reduced 1,024 at a time at n = 3.  Every draw clips at
    # theta = 1e-300; at 7.5e-19 about one draw in 10^3 does, and under
    # seed 36 the first is in trial 1,216, in the second block.
    with pytest.raises(DomainError, match="int64"):
        estimate_expected_cover_time(SparsityModel(3, 1e-300), 2049, 0)
    model = SparsityModel(3, 7.5e-19)
    assert estimate_expected_cover_time(model, 1216, 36).trials == 1216
    with pytest.raises(DomainError, match="int64"):
        estimate_expected_cover_time(model, 1217, 36)


def _sampler_changed(what: str) -> str:
    # A failure here means numpy changed its sampler, not that the package did.
    return (
        f"numpy {np.__version__} geometric sampler: {what} no longer matches "
        "Generator.geometric(theta, n).max(); _streams._geometric_transform "
        "reproduces the variate and the map of numpy 2.4.6"
    )


# numpy's branch edge at theta = 1/3 and the doubles either side of it, the
# dense model, an inversion whose draws come within a few times of the
# int64 clip, and a trial at, and one past, one chunk of 2^15 variates and
# the 2^13 of a 2^16-byte budget.
@pytest.mark.parametrize(
    "n, theta",
    [(3, 1 / 3), (3, math.nextafter(1 / 3, 0.0)), (3, math.nextafter(1 / 3, 1.0)),
     (5, 1.0), (3, 2e-18), (2**13, 0.5), (2**13 + 1, 0.1), (2**15, 0.5), (2**15 + 1, 0.1)],
)
def test_cover_times_reproduce_numpys_geometric_sampler(n, theta):
    model, trials = SparsityModel(n, theta), 40
    expected, after = [], []
    for t in range(trials):
        stream = _streams.spawn_generator(7, _streams.COVER_TRIAL, t)
        expected.append(int(stream.geometric(theta, n).max()))
        after.append(stream.random())
    streams = (_streams.spawn_generator(7, _streams.COVER_TRIAL, t) for t in range(trials))
    cover_times = _streams.cover_times(theta, n, trials, streams).tolist()
    assert cover_times == expected, _sampler_changed("the estimator's cover time")
    for t in range(trials):
        stream = _streams.spawn_generator(7, _streams.COVER_TRIAL, t)
        assert sample_cover_time(model, stream) == expected[t], _sampler_changed(
            "sample_cover_time"
        )
        assert stream.random() == after[t], _sampler_changed("the stream after a cover time")


# Both branches, either side of the vectorized words' ceiling.
@pytest.mark.parametrize("n, theta", [(1, 0.5), (3, 1 / 3), (8, 0.5), (20, 0.9), (3, 0.1)])
@pytest.mark.parametrize("used", [0, 1, 3, 5])
def test_sample_cover_time_continues_a_used_stream(n, theta, used):
    # A caller's stream is mid-way: its counter has moved, part of a block
    # is buffered and half a word is held for the next 32-bit draw.  Its
    # cover time is drawn from there, never from words computed at counter
    # zero, and leaves it where geometric would.
    model = SparsityModel(n, theta)
    stream, twin = (_streams.spawn_generator(9, _streams.COVER_TRIAL, 0) for _ in range(2))
    for generator in (stream, twin):
        generator.random(used)
        generator.integers(2**32)
    assert stream.bit_generator.state["has_uint32"] == 1
    assert sample_cover_time(model, stream) == int(twin.geometric(theta, n).max())
    assert stream.random() == twin.random()


def _numpy_search(theta: float, uniform: float) -> int | None:
    # numpy's geometric search for one uniform, step for step; None where
    # its running sum has stopped growing below the uniform, and numpy's
    # loop would never end.
    draw, total, term = 1, theta, theta
    while uniform > total:
        term *= 1.0 - theta
        if total + term == total:
            return None
        total += term
        draw += 1
    return draw


def test_search_refuses_a_uniform_numpy_would_never_reach():
    # At theta = 0.6032894249669429 numpy's running sum stops at 1 - 2^-52,
    # after 40 terms, so its search for the uniform 1 - 2^-53 never ends; at
    # theta = 0.5 the sum reaches 1 and that uniform is a draw of 53.
    largest = np.array([1.0 - 2.0**-53])
    _, cover_times = _streams._geometric_transform(0.6032894249669429)
    assert cover_times(np.array([1.0 - 2.0**-52])).tolist() == [40]
    with pytest.raises(DomainError, match="hangs numpy's geometric sampler"):
        cover_times(largest)
    _, cover_times = _streams._geometric_transform(0.5)
    assert cover_times(largest).tolist() == [53]


# theta = 1/3 has the longest running sum; the uniforms run up to the
# largest one numpy draws.
@pytest.mark.parametrize(
    "theta", [1 / 3, math.nextafter(1 / 3, 1.0), 0.5, 0.6032894249669429, 0.75,
              1.0 - 2.0**-40, 1.0],
)
def test_search_matches_numpys_loop(theta):
    _, cover_times = _streams._geometric_transform(theta)
    uniforms = [0.0, theta, 0.5, 0.99, 1.0 - 2.0**-40, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    uniforms += np.random.default_rng(3).random(20).tolist()
    for uniform in uniforms:
        expected = _numpy_search(theta, uniform)
        if expected is None:
            with pytest.raises(DomainError, match="hangs"):
                cover_times(np.array([uniform]))
        else:
            assert cover_times(np.array([uniform])).tolist() == [expected], uniform


def test_cover_time_draw_numpy_cannot_allocate_is_refused():
    # numpy would raise a bare ValueError for either n: past the largest intp,
    # or n int64 draws of more bytes than an intp holds.
    stream = _streams.spawn_generator(0, _streams.COVER_TRIAL, 0)
    for n in (10**20, 2**62):
        with pytest.raises(DomainError, match=f"an n = {n} draw .* numpy can allocate"):
            sample_cover_time(SparsityModel(n, 0.5), stream)
        with pytest.raises(DomainError, match=f"an n = {n} draw .* numpy can allocate"):
            estimate_expected_cover_time(SparsityModel(n, 0.5), 2, 0)


def test_trial_count_numpy_cannot_allocate_is_refused(monkeypatch):
    # One int64 cover time per trial: numpy would raise a bare ValueError for
    # 2^60 or more of them, more bytes than an intp holds, or at 2^64 a
    # dimension past the largest intp.  The count is refused before any
    # stream is derived.
    def no_streams(*args):
        raise AssertionError("a trial stream was derived before the count was refused")

    monkeypatch.setattr(_streams, "trial_streams", no_streams)
    monkeypatch.setattr(_streams, "_trial_keys", no_streams)
    for trials in (2**60, 2**61, 2**64):
        with pytest.raises(DomainError, match=f"a trials = {trials} draw .* numpy can allocate"):
            estimate_expected_cover_time(SparsityModel(1, 0.5), trials, 0)


def test_column_process_agrees_with_geometric_shortcut():
    # Same distribution, different sampling paths: compare the two means
    # at 3 sigma of their combined standard error.
    model = SparsityModel(3, 0.5)
    trials, seed = 20000, 1234
    geometric = np.empty(trials)
    literal = np.empty(trials)
    for t in range(trials):
        geometric[t] = sample_cover_time(
            model, _streams.spawn_generator(seed, _streams.COVER_TRIAL, t)
        )
        literal[t] = _column_process(
            model, _streams.spawn_generator(seed + 1, _streams.COVER_TRIAL, t)
        )
    gap = abs(geometric.mean() - literal.mean())
    spread = math.sqrt(
        geometric.std(ddof=1) ** 2 / trials + literal.std(ddof=1) ** 2 / trials
    )
    assert gap <= 3.0 * spread


def _gof_pvalue(sampler, model: SparsityModel, trials: int, seed: int) -> float:
    # chi-squared goodness of fit of sampled cover times against the pmf,
    # lumping the tail so every expected bin count is at least 5
    counts: dict[int, int] = {}
    for t in range(trials):
        stream = _streams.spawn_generator(seed, _streams.COVER_TRIAL, t)
        value = sampler(model, stream)
        counts[value] = counts.get(value, 0) + 1
    t_max = 1
    while trials * cover_time_pmf(model, t_max + 1) >= 5.0:
        t_max += 1
    observed = np.zeros(t_max + 1)
    expected = np.zeros(t_max + 1)
    for t in range(1, t_max + 1):
        observed[t - 1] = counts.get(t, 0)
        expected[t - 1] = trials * cover_time_pmf(model, t)
    observed[t_max] = trials - observed[:t_max].sum()
    expected[t_max] = trials - expected[:t_max].sum()
    chi_sq = float(((observed - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(chi_sq, t_max))


def test_cover_time_distribution_chi_squared():
    p_value = _gof_pvalue(sample_cover_time, SparsityModel(3, 0.5), 100000, 2024)
    assert p_value > 0.01


def test_column_process_distribution_chi_squared():
    p_value = _gof_pvalue(_column_process, SparsityModel(3, 0.5), 20000, 2025)
    assert p_value > 0.001


# ------------------------------------------------------- expectation means


def test_expected_cover_time_trivial_cases():
    estimate = estimate_expected_cover_time(SparsityModel(1, 1.0), 100, 7)
    assert estimate.mean == 1.0
    assert estimate.std_error == 0.0
    assert estimate.ci_low == estimate.ci_high == 1.0


def test_expected_cover_time_three_rows_half_density():
    estimate = estimate_expected_cover_time(SparsityModel(3, 0.5), 100000, 42)
    truth = float(Fraction(22, 7))
    assert estimate.ci_low <= truth <= estimate.ci_high
    assert estimate.trials == 100000 and estimate.seed == 42


def test_expected_cover_time_ten_rows():
    model = SparsityModel(10, 0.3)
    truth = exact_expected_cover_time(model).exact_expectation
    estimate = estimate_expected_cover_time(model, 100000, 1)
    assert estimate.ci_low <= truth <= estimate.ci_high


def test_mean_agreement_over_grid():
    grid = ((2, 0.5), (3, 0.5), (5, 0.2), (10, 0.3), (16, 0.1))
    for i, (n, theta) in enumerate(grid):
        model = SparsityModel(n, theta)
        truth = exact_expected_cover_time(model).exact_expectation
        estimate = estimate_expected_cover_time(model, 20000, 7000 + i)
        assert abs(estimate.mean - truth) <= 3.0 * estimate.std_error, (n, theta)


def test_expected_cover_time_rejects_degenerate_trials():
    with pytest.raises(DomainError):
        estimate_expected_cover_time(SparsityModel(3, 0.5), 1, 0)


# ----------------------------------------------------- coverage estimates


def test_coverage_trivial_cases():
    dense = estimate_coverage_probability(SparsityModel(2, 1.0), 1, 50, 3)
    assert dense.mean == 1.0
    assert dense.ci_high == 1.0
    empty = estimate_coverage_probability(SparsityModel(5, 0.2), 0, 10, 0)
    assert empty.mean == 0.0
    assert empty.ci_low == 0.0


def test_coverage_at_p_zero_hashes_no_trial_key(monkeypatch):
    # With no columns every row of every pattern is empty, so the 0-hit
    # estimate is known without a trial, at any trial count.
    def no_keys(*args):
        raise AssertionError("a trial key was hashed for a p = 0 estimate")

    monkeypatch.setattr(_streams, "_trial_keys", no_keys)
    for n, theta, trials in ((2, 0.5, 1024), (10, 0.3, 10000), (1, 1.0, 2**64)):
        estimate = estimate_coverage_probability(SparsityModel(n, theta), 0, trials, 7)
        assert (estimate.mean, estimate.std_error, estimate.ci_low) == (0.0, 0.0, 0.0)
        assert 0.0 < estimate.ci_high < 4.0 / trials
        assert (estimate.trials, estimate.seed) == (trials, 7)


def test_coverage_three_of_three_half_density():
    estimate = estimate_coverage_probability(SparsityModel(3, 0.5), 3, 100000, 9)
    truth = float(Fraction(343, 512))
    assert estimate.ci_low <= truth <= estimate.ci_high


def test_coverage_wilson_interval_calibration():
    # 30 (n, theta, p) points; the 95% interval should capture the closed
    # form at least 93% of the time (binomial slack on 30 draws).
    inside = 0
    total = 0
    index = 0
    for n in (2, 5, 10, 25, 50):
        for theta in (0.1, 0.3, 0.5):
            model = SparsityModel(n, theta)
            for delta in (0.5, 0.2):
                p = coverage_threshold(model, delta)
                estimate = estimate_coverage_probability(model, p, 10000, 5000 + index)
                analytic = coverage_probability(model, p)
                inside += estimate.ci_low <= analytic <= estimate.ci_high
                total += 1
                index += 1
    assert total == 30
    assert inside >= math.ceil(0.93 * total), f"{inside}/{total} inside"


# Small-trial calibration of both "95%" intervals.  Each seed's estimate is
# drawn from its own Philox keys, so the estimates over a seed range are
# independent and the count of intervals that hold the exact value is
# binomial in the seed count.  Each count must lie in that law's central
# 1 - 2e-3 band.
CALIBRATION_SEEDS = range(1000)
CALIBRATION_TRIALS = (2, 10, 100)


def _binomial_band(low: float, high: float) -> tuple[float, float]:
    seeds = len(CALIBRATION_SEEDS)
    return stats.binom.ppf(1e-3, seeds, low), stats.binom.isf(1e-3, seeds, high)


def test_mean_interval_coverage_at_small_trial_counts():
    # The normal interval is asymptotic: it holds the exact E[T] about 65-69%
    # of the time at 2 trials, 88-91% at 10 and 94-95% at 100, as measured
    # over 2,000 seeds at these points and at (10, 0.3) and (100, 0.05).
    # Points on the uniform-word path keep the 6,000 estimates fast.
    measured = {2: (0.65, 0.69), 10: (0.88, 0.92), 100: (0.94, 0.955)}
    for n, theta in ((3, 0.5), (20, 0.5)):
        model = SparsityModel(n, theta)
        exact = exact_expected_cover_time(model).exact_expectation
        for trials in CALIBRATION_TRIALS:
            inside = 0
            for seed in CALIBRATION_SEEDS:
                estimate = estimate_expected_cover_time(model, trials, seed)
                inside += estimate.ci_low <= exact <= estimate.ci_high
            low, high = _binomial_band(*measured[trials])
            assert low <= inside <= high, (n, theta, trials, inside)


def test_wilson_interval_coverage_at_small_trial_counts():
    # The Wilson interval's coverage at t trials is exact: the binomial
    # probability of the hit counts whose interval holds P.  It swings with
    # t and P, from 82% at (10, 0.3, 13) with 2 trials to 96% at (3, 0.5, 3)
    # with 10, and the counts over the seed range must follow it.
    for n, theta, p in ((3, 0.5, 3), (10, 0.3, 13)):
        model = SparsityModel(n, theta)
        exact = coverage_probability(model, p)
        for trials in CALIBRATION_TRIALS:
            coverage = 0.0
            for hits in range(trials + 1):
                low, high = montecarlo._wilson_interval(hits, trials)
                if low <= exact <= high:
                    coverage += stats.binom.pmf(hits, trials, exact)
            inside = 0
            for seed in CALIBRATION_SEEDS:
                estimate = estimate_coverage_probability(model, p, trials, seed)
                inside += estimate.ci_low <= exact <= estimate.ci_high
            low, high = _binomial_band(coverage, coverage)
            assert low <= inside <= high, (n, theta, p, trials, coverage, inside)


def test_coverage_rejects_bad_arguments():
    model = SparsityModel(3, 0.5)
    with pytest.raises(DomainError):
        estimate_coverage_probability(model, -1, 100, 0)
    with pytest.raises(DomainError):
        estimate_coverage_probability(model, 3, 0, 0)


def test_coverage_memory_is_one_block_and_one_trials_words():
    # A call stacks block_rows trials' bool patterns in one block and draws
    # each trial as n x p raw words, 8 bytes an indicator, beside it; while a
    # block is drawn, its key block's hash holds about 140 bytes a key.  So
    # the words alone are past the 2^18-byte budget at (300, 300): about
    # 904 KB in all.  Allowed on top: 160 bytes a key and 16 KiB.
    for n, p, trials, theta in ((10, 13, 1024, 0.3), (100, 134, 200, 0.05), (300, 300, 3, 0.02)):
        model = SparsityModel(n, theta)
        estimate_coverage_probability(model, p, trials, 0)
        tracemalloc.start()
        try:
            estimate_coverage_probability(model, p, trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = _streams.block_rows(n * p, trials) * n * p
        assert peak <= block + 8 * n * p + 160 * min(trials, 1024) + 2**14, (n, p)


def test_pattern_numpy_cannot_allocate_is_refused():
    # numpy itself would raise a bare ValueError for either shape: a p past
    # the largest intp, or n x p float64 draws of more bytes than an intp holds.
    model = SparsityModel(3, 0.5)
    for big_model, p in ((model, 10**20), (SparsityModel(10**10, 0.5), 10**9)):
        with pytest.raises(DomainError, match="numpy can allocate"):
            estimate_coverage_probability(big_model, p, 1, 0)
        with pytest.raises(DomainError, match="numpy can allocate"):
            sample_indicator_pattern(big_model, p, 0)
        with pytest.raises(DomainError, match="numpy can allocate"):
            sample_sparse_matrix(big_model, p, 0)


# -------------------------------------------------------------- patterns


def test_indicator_pattern_shape_and_determinism():
    model = SparsityModel(4, 0.3)
    pattern = sample_indicator_pattern(model, 7, 55)
    assert pattern.shape == (4, 7)
    assert pattern.dtype == np.bool_
    assert np.array_equal(pattern, sample_indicator_pattern(model, 7, 55))
    assert not np.array_equal(pattern, sample_indicator_pattern(model, 7, 56))


@pytest.mark.parametrize(
    "n, p, theta",
    [(3, 0, 0.5), (4, 6, 1.0), (1, 1, 1.0), (7, 13, 1 / 3), (40, 30, 0.05),
     (50, 40, 2.0**-53), (5, 9, 5e-324)],
)
@pytest.mark.parametrize("seed", [0, 7, _TOP_SEED])
def test_indicator_pattern_equals_uniforms_below_theta(n, p, theta, seed):
    pattern = sample_indicator_pattern(SparsityModel(n, theta), p, seed)
    uniforms = _streams.spawn_generator(seed, _streams.PATTERN).random((n, p))
    assert np.array_equal(pattern, uniforms < theta), (
        f"numpy {np.__version__} changed Generator.random()'s double construction: "
        "the pattern drawn as raw words under _streams.raw_limit no longer equals "
        "random() < theta, which numpy 2.4.6 makes as (w >> 11) * 2^-53"
    )


def test_indicator_pattern_density():
    pattern = sample_indicator_pattern(SparsityModel(40, 0.3), 500, 8)
    fraction = pattern.mean()
    sigma = math.sqrt(0.3 * 0.7 / pattern.size)
    assert abs(fraction - 0.3) <= 4.0 * sigma


# ----------------------------------------------------------------- sweeps


def test_sweep_trivial_dense_model():
    curve = phase_sweep(SparsityModel(1, 1.0), 1, 3, 10, 5)
    assert [point.empirical.mean for point in curve.points] == [1.0, 1.0, 1.0]
    assert [point.analytic for point in curve.points] == [1.0, 1.0, 1.0]


def test_sweep_three_rows_half_density():
    model = SparsityModel(3, 0.5)
    curve = phase_sweep(model, 1, 10, 10000, 11)
    assert [point.p for point in curve.points] == list(range(1, 11))
    inside = sum(
        1
        for point in curve.points
        if point.empirical.ci_low <= point.analytic <= point.empirical.ci_high
    )
    assert inside >= 9
    # analytic column is the closed form (1 - 0.5^p)^3
    for point in curve.points:
        truth = (1.0 - 0.5**point.p) ** 3
        assert math.isclose(point.analytic, truth, rel_tol=1e-12)


def test_sweep_points_reproducible_in_isolation():
    model = SparsityModel(3, 0.5)
    trials, seed = 400, 21
    curve = phase_sweep(model, 2, 5, trials, seed)
    for point in curve.points:
        key = np.random.SeedSequence(entropy=seed, spawn_key=(_streams.SWEEP_POINT, point.p))
        sub_seed = int(key.generate_state(1, np.uint64)[0])
        assert point.empirical == estimate_coverage_probability(
            model, point.p, trials, sub_seed
        )


def test_sweep_rejects_inverted_range():
    with pytest.raises(DomainError):
        phase_sweep(SparsityModel(3, 0.5), 5, 4, 10, 0)
    with pytest.raises(DomainError):
        phase_sweep(SparsityModel(3, 0.5), -1, 4, 10, 0)


def test_sweep_refuses_more_points_than_the_ceiling(monkeypatch):
    # Each point is a full estimate, so a range past the ceiling is refused
    # before the first one runs.
    model = SparsityModel(3, 0.5)
    assert montecarlo._MAX_SWEEP_POINTS == 10**5
    monkeypatch.setattr(montecarlo, "_MAX_SWEEP_POINTS", 3)
    assert len(phase_sweep(model, 2, 4, 10, 0).points) == 3

    def no_estimate(*args):
        raise AssertionError("an estimate ran before the range was refused")

    monkeypatch.setattr(montecarlo, "estimate_coverage_probability", no_estimate)
    for p_min, p_max in ((2, 5), (0, 10**10), (0, 2**64)):
        with pytest.raises(DomainError, match="more than 3"):
            phase_sweep(model, p_min, p_max, 1, 0)


@pytest.mark.parametrize("p", [2**63 + 2**32 + 5, 2**64, 10**20])
def test_sweep_refuses_a_draw_numpy_cannot_allocate_before_any_sub_seed(p, monkeypatch):
    # Past the draw limit no estimate could run, so the sweep is refused with
    # the estimate's own message before any sub-seed is hashed.
    def no_work(*args):
        raise AssertionError("a sub-seed was hashed or an estimate ran before the refusal")

    monkeypatch.setattr(_streams, "_trial_keys", no_work)
    monkeypatch.setattr(montecarlo, "estimate_coverage_probability", no_work)
    with pytest.raises(DomainError, match=r"an n x p = 3 x .* draw .* numpy can allocate"):
        phase_sweep(SparsityModel(3, 0.5), p, p, 1, 0)


# ------------------------------------------------------- integer arguments


@pytest.mark.parametrize("trials", [10.0, 2.5, "10", None, 1, 0])
def test_expected_cover_time_rejects_bad_trials(trials):
    with pytest.raises(DomainError, match="trials"):
        estimate_expected_cover_time(SparsityModel(3, 0.5), trials, 1)


@pytest.mark.parametrize(
    "p, trials, name",
    [(3.5, 10, "p"), (3.0, 10, "p"), (-1, 10, "p"), (3, 10.0, "trials"), (3, 0, "trials")],
)
def test_coverage_probability_rejects_bad_integers(p, trials, name):
    with pytest.raises(DomainError, match=name):
        estimate_coverage_probability(SparsityModel(3, 0.5), p, trials, 1)


@pytest.mark.parametrize(
    "p_min, p_max, trials, name",
    [(1.0, 4, 10, "p_min"), (1, 4.5, 10, "p_max"), (1, 4, 10.0, "trials"), (1, 4, 0, "trials")],
)
def test_phase_sweep_rejects_bad_integers(p_min, p_max, trials, name):
    with pytest.raises(DomainError, match=name):
        phase_sweep(SparsityModel(3, 0.5), p_min, p_max, trials, 1)


# ------------------------------------------------------------- invariants


def test_estimate_validation():
    with pytest.raises(DomainError):
        MonteCarloEstimate(0.5, 0.1, 0.6, 0.7, 10, 0)  # mean below interval
    with pytest.raises(DomainError):
        MonteCarloEstimate(0.5, -0.1, 0.4, 0.6, 10, 0)
    with pytest.raises(DomainError):
        MonteCarloEstimate(0.5, 0.1, 0.4, 0.6, 0, 0)


def test_phase_curve_validation():
    model = SparsityModel(2, 0.5)

    def make(p: int, analytic: float) -> PhasePoint:
        return PhasePoint(
            p, MonteCarloEstimate(analytic, 0.0, analytic, analytic, 1, 0), analytic
        )

    with pytest.raises(DomainError):
        PhaseCurve(model, (make(2, 0.3), make(2, 0.4)))
    with pytest.raises(DomainError):
        PhaseCurve(model, (make(1, 0.4), make(2, 0.3)))


def test_seed_domain():
    model = SparsityModel(2, 0.5)
    with pytest.raises(DomainError):
        estimate_coverage_probability(model, 1, 10, -1)
    with pytest.raises(DomainError):
        estimate_coverage_probability(model, 1, 10, 2**64)
    # the largest legal seed is fine
    estimate_coverage_probability(model, 1, 10, 2**64 - 1)


def test_wilson_interval_contains_point_estimate_at_extremes():
    for hits_target, seed in ((0, 13), (None, 3)):
        if hits_target == 0:
            estimate = estimate_coverage_probability(SparsityModel(50, 0.01), 1, 40, seed)
        else:
            estimate = estimate_coverage_probability(SparsityModel(2, 1.0), 1, 40, seed)
        assert estimate.ci_low <= estimate.mean <= estimate.ci_high
        assert 0.0 <= estimate.ci_low and estimate.ci_high <= 1.0


def test_z95_value():
    # two-sided 95% quantile of the standard normal
    assert math.isclose(Z95, float(stats.norm.ppf(0.975)), rel_tol=1e-12)
