"""Exact distribution math for the row-coverage process.

The model: an n x p matrix whose entries are nonzero independently with
probability theta.  A row is covered once it holds at least one nonzero
entry, and the cover time T is the smallest column count at which every
row is covered.  Rows evolve independently, so T is the maximum of n
i.i.d. geometric(theta) variables and everything here follows from

    P(T <= p) = (1 - (1-theta)^p)^n,
    E[T]      = sum_{t >= 0} [1 - (1 - (1-theta)^t)^n].

E[T] is evaluated one of two ways, whichever meets the caller's tol.
With lambda = -ln(1-theta) and f(t) = 1 - (1 - e^(-lambda t))^n, the
Euler-Maclaurin formula from t = 0 gives the closed form

    E[T] = H_n / lambda + 1/2 - f'(0)/12 + f'''(0)/720 + R,
    |R| <= 26 lambda^3 / 720,

in O(n) time at every theta; where that remainder bound exceeds tol, the
tail sum is taken directly up to a horizon whose dropped tail is at most
tol.

Two further expectations are exposed for comparison.  The phase sum walks
the process one newly-covered-row phase at a time; a single column can
cover several rows at once, so it upper-bounds E[T].  The classic harmonic
sum n * H_n is the theta -> degenerate coupon-collector reference where
each column covers exactly one uniformly random row.

All quantities are evaluated in a form that survives extreme parameters:
(1-theta)^k goes through exp(k * log_q) with log_q = SparsityModel.log_q =
ln(1 - theta), complements of the form 1 - (1-theta)^k go through expm1,
and when (1-theta)^n underflows the binomial inner sums switch to log
space.  log_q is -inf at theta = 1, so the dense limit is an ordinary
point of the formulas rather than a special case.  Functions are pure and
raise DomainError on invalid input.

phase_sum_raw builds its binomial rows in numpy blocks, each only near
the rows' modes, with a certified bound on the cells it leaves out, and
builds no row whose wait is exactly 1.0 (see its docstring).  A linear
call whose whole rows hold at most _PYTHON_ROW_CELLS = 512 cells builds
them in Python floats instead.  numpy is imported only for the blocks.
Everything else here, and the bounds module built on it, runs without
loading numpy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import repeat
from operator import truediv

from .errors import DomainError, checked_int, checked_real

__all__ = [
    "SparsityModel",
    "CoverTimeSummary",
    "classic_harmonic_sum",
    "harmonic",
    "phase_sum_raw",
    "phase_sum_expectation",
    "exact_expected_cover_time",
    "inclusion_exclusion_expectation",
    "coverage_probability",
    "cover_time_pmf",
    "coverage_threshold",
]

# Below this value of n * log_q the linear-space binomial recurrence
# would multiply through a subnormal (1-theta)^n; switch to log space there.
_UNDERFLOW_LOG = -700.0

# Inclusion-exclusion alternates terms of size ~2^n, so for large n the
# cancellation destroys every significant digit.  Cap where doubles still
# leave ~7 digits (2^30 / 2^53).
_INCLUSION_EXCLUSION_MAX_N = 30

# Euler-Maclaurin for E[T]: f'(0)/lambda and f'''(0)/lambda^3 for n = 1, 2, 3
# (both vanish for n >= 4), and the remainder bound's factor on lambda^3.
_EM_DERIVATIVES = {1: (-1.0, -1.0), 2: (0.0, 6.0), 3: (0.0, -6.0)}
_EM_REMAINDER = 26.0 / 720.0

# exact_expected_cover_time's default tol, which bound_report uses too.
_DEFAULT_TOL = 1e-10

# Most terms the direct tail sum, the O(n) sums over rows, or phase_sum_raw's
# binomial sums may take; a call that needs more is refused rather than left
# running for minutes or hours.
_MAX_TAIL_TERMS = 10**8

# phase_sum_raw sums its binomial rows in numpy blocks of at most this many
# cells (rows x width), which bounds the memory of one call but for the log
# branch's table of n + 1 values ln j!.
_BLOCK_CELLS = 2**13

# A linear-branch phase_sum_raw call whose whole rows, sum over k = first ..
# n-1 of k + 1 cells, number at most this builds them in Python floats.
# Python rows cost about 0.07 us a cell, and numpy blocks about 26 us a
# call plus 0.02 us a cell (BENCH_35.json, crossover_us, one pinned Xeon
# core), so the two cross near 550 cells.
_PYTHON_ROW_CELLS = 512

# phase_sum_raw builds its binomial rows only out to this many standard
# deviations past their modes, plus a few cells, and its log rows call
# math.exp only on cells within 60 nats of the row's peak; every cell left
# out there is below e^-59.  It builds no row k with (n-k) ln(1/(1-theta))
# at or past _SKIP_NATS: that row's wait is exactly 1.0.
_BAND_SDS = 12.0
_SKIP_NATS = 40.0
_EXP_CUT = -60.0
_EXP_CUT_TAIL = math.exp(_EXP_CUT + 1.0)

# Past 2**53, p and p - 1 are the same double: coverage_threshold cannot
# resolve p* there.  At or below 2**-54, 1 - delta rounds to 1.0, so no
# smaller delta changes the inequality it tests.
_MAX_RESOLVED_P = 2.0**53
_MIN_RESOLVED_DELTA = 2.0**-54


@dataclass(frozen=True, slots=True)
class SparsityModel:
    """An n-row Bernoulli sparsity pattern with entry density theta.

    n must be a positive integer that a double can hold, and theta must lie
    in (0, 1].  theta = 1 is the dense limit: every entry is nonzero and
    one column covers all rows.  log_q is ln(1 - theta), the one quantity
    every formula here is built on.
    """

    n: int
    theta: float

    def __post_init__(self) -> None:
        n = checked_int(self.n, "n", 1)
        checked_real(n, "n")  # refuses an n no double holds
        theta = checked_real(self.theta, "theta")
        if not math.isfinite(theta) or not 0.0 < theta <= 1.0:
            raise DomainError(f"theta must lie in (0, 1], got {theta!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "theta", theta)

    @property
    def log_q(self) -> float:
        """ln(1 - theta); -inf at theta = 1, where (1-theta)^k = exp(k * log_q) is 0 for k >= 1."""
        return math.log1p(-self.theta) if self.theta < 1.0 else -math.inf


def _checked_model(model: object) -> SparsityModel:
    # The public functions that take a model refuse anything else up front,
    # rather than fail on a missing attribute somewhere inside.
    if not isinstance(model, SparsityModel):
        raise DomainError(f"model must be a SparsityModel, got {type(model).__name__}")
    return model


@dataclass(frozen=True, slots=True)
class CoverTimeSummary:
    """Expected cover time computed three ways.

    exact_expectation is E[T] up to rounding and an approximation error of
    at most truncation_error_bound, which bounds whichever approximation
    exact_expected_cover_time took: the Euler-Maclaurin remainder
    26 lambda^3 / 720 of the closed form, or the dropped tail
    n (1-theta)^(T+1) / theta of the direct sum to horizon T.  The
    rounding is at most 2 ulp of the value at every closed-form point the
    tests check against an exact E[T].
    phase_sum is the phase-decomposition upper bound; classic_reference is
    n * H_n, the one-row-per-column baseline.
    """

    exact_expectation: float
    phase_sum: float
    classic_reference: float
    truncation_error_bound: float

    def __post_init__(self) -> None:
        for name in ("exact_expectation", "phase_sum", "classic_reference"):
            value = getattr(self, name)
            if not 1.0 <= value < math.inf:
                raise DomainError(f"{name} must be finite and >= 1, got {value!r}")
        if not self.truncation_error_bound >= 0.0:
            raise DomainError(
                f"truncation_error_bound must be >= 0, got {self.truncation_error_bound!r}"
            )


def _complement_power(theta: float, k: int, log_q: float) -> float:
    # 1 - (1-theta)^k; k = 1 is exactly theta, larger k keep relative
    # precision through expm1 even when (1-theta)^k is close to 1.
    if k == 1:
        return theta
    return -math.expm1(k * log_q)


def _finite_sum(terms, what: str, theta: float) -> float:
    # fsum of terms, refusing a sum that leaves the doubles: fsum raises
    # OverflowError when its partial sums pass the largest double and
    # ValueError when the terms hold inf of both signs.
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"{what} overflows a double at theta = {theta!r}")
    return total


def _checked_tol(tol: object) -> float:
    # An error tolerance, refused unless a positive finite real.
    tol = checked_real(tol, "tol")
    if not tol > 0.0 or not math.isfinite(tol):
        raise DomainError(f"tol must be a positive finite float, got {tol!r}")
    return tol


def _checked_term_count(n: object) -> int:
    # n as a row count for the sums that take one term per row, refusing an
    # n past the term ceiling before any summing.
    n = checked_int(n, "n", 1)
    if n > _MAX_TAIL_TERMS:
        raise DomainError(f"n = {n} needs more than {_MAX_TAIL_TERMS} terms")
    return n


def classic_harmonic_sum(n: int) -> float:
    """n * H_n as the sum over k = 1 .. n of n / k, exactly rounded.

    Each term is one correctly rounded division, the same multiset of
    quotients as n / (n - k) over k < n, and fsum rounds their sum once,
    so small n come out bit-clean (classic_harmonic_sum(3) == 5.5).  An n
    past 10^8 raises DomainError.
    """
    n = _checked_term_count(n)
    return math.fsum(map(truediv, repeat(n, n), range(1, n + 1)))


def harmonic(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n, exactly rounded.

    Each reciprocal 1 / k is one correctly rounded division, and fsum
    rounds their sum once, in O(1) memory.  An n past 10^8 raises
    DomainError.
    """
    n = _checked_term_count(n)
    return math.fsum(map(truediv, repeat(1, n), range(1, n + 1)))


def _check_cells(n: int, first: int, cells: int) -> None:
    # phase_sum_raw's refusal, before it builds anything: cells is the rows
    # first .. n-1 times the widest block's width, plus the log branch's table,
    # which bounds the cells _row_blocks plans.
    if cells > _MAX_TAIL_TERMS:
        raise DomainError(
            f"n = {n} needs more than {_MAX_TAIL_TERMS} binomial terms in the "
            f"{n - first} rows it builds; use phase_sum_expectation"
        )


def _row_blocks(n: int, width, first: int):
    # (k0, k1, w) for the rows k0 .. k1-1, first <= k < n, each block over
    # w = width(k1) columns, where width never falls as k1 grows.  reach ends
    # a block at the first row's width, and k1 one at reach's width, which is
    # no smaller; so k1 <= reach and (k1 - k0) width(k1) <= _BLOCK_CELLS,
    # unless the block is a single row.  A constant width gives equal blocks.
    k0 = first
    while k0 < n:
        reach = min(n, k0 + max(1, _BLOCK_CELLS // width(k0 + 1)))
        k1 = min(n, k0 + max(1, _BLOCK_CELLS // width(reach)))
        yield k0, k1, width(k1)
        k0 = k1


def _row_sums(block, tail=0.0, row=None) -> list[float]:
    """math.fsum of each row of a 2-D numpy array of non-negative terms.

    fsum rounds correctly, so any correctly rounded sum has its bits.  Each
    row is split without error (ExtractVector in Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31(1),
    2008): with sigma a power of two at least (width + 2) times the row's
    largest term, high = (sigma + x) - sigma and low = x - high are exact,
    and the highs are multiples of ulp(sigma) whose sum stays below sigma,
    so they add up exactly in any order.  The row is sum(high) + sum(low),
    and the float sum of the lows is off by at most gamma_width * sum|low|
    (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 26(6), 2005).  sum(high) holds the high part of the row's
    largest term, at least sigma / (4 (width + 1)), far above |sum(low)| <=
    width ulp(sigma) / 2, so (hi, lo) = FastTwoSum(sum(high), sum(low)) is
    exact (Dekker, Numer. Math. 18, 1971); in the subnormal range every low
    is 0.  hi is the correctly rounded row sum when |lo| plus that bound is
    below half the gap under hi.  A row where it is not, within the bound
    of a rounding midpoint, goes to fsum.

    A block may hold only part of each row.  tail, a number or one per row,
    then bounds the non-negative terms left out, and is added to the bound:
    hi is still the correctly rounded sum of the whole row.  A row that
    fails goes to fsum as row(i), its whole terms, when row is given.
    """
    import numpy as np

    width = block.shape[1]
    _, exponents = np.frexp(block.max(axis=1))
    sigma = np.ldexp(1.0, exponents + (width + 1).bit_length())[:, None]
    high = (sigma + block) - sigma
    low = block - high
    top, rest = high.sum(axis=1), low.sum(axis=1)
    hi = top + rest
    lo = rest - (hi - top)
    # 4 width u is twice gamma_width, which covers the rounding of sum|low|
    # itself; width * 5e-324 covers a product that underflows.
    bound = np.abs(low).sum(axis=1) * (width * 2.0**-51) + (width * 5e-324 + tail)
    certified = np.abs(lo) + bound < (hi - np.nextafter(hi, 0.0)) * 0.5
    sums = hi.tolist()
    for i, exact in enumerate(certified.tolist()):
        if not exact:
            sums[i] = math.fsum(block[i].tolist() if row is None else row(i))
    return sums


def _inner_complement_log(n: int, theta: float, log_q: float, first: int) -> list[float]:
    # 1 - sum_{r=0}^{k} C(k,r) theta^r (1-theta)^(n-r) for k = first .. n-1, each
    # term computed as exp(ln k! - ln r! - ln (k-r)! + r ln theta +
    # (n-r) ln(1-theta)) and combined by logsumexp; complement via expm1.
    # The logs are formed left to right as written, the order the pinned
    # values were computed in, but math.exp stays: np.exp rounds some
    # arguments differently.
    #
    # Only cells within 60 nats of their row's peak go to math.exp.  The
    # peak cell is exp(0) = 1, so a row sums to at least 1, and each cell
    # left out would add less than e^-59 (one nat for the rounding of the
    # logs).  One band serves every row: the columns within 12 sd + 30 of
    # the modes floor((k+1) theta) of rows first .. n-1, sd = sqrt((n-1)
    # theta (1-theta)).  The rows built have (n-k) lambda < 40 and theta <=
    # lambda, so their modes lie within 41 columns of each other.  Each mode
    # is in the band with 30 columns to spare, so a row's peak in the band
    # is its peak over all columns.  The binomial pmf is log-concave, so
    # where the edge cell of a cut row is below -60, so is every cell past
    # it.  A row whose edge cell is not gets an infinite bound, and is
    # summed in full with fsum.
    import numpy as np

    reach = int(_BAND_SDS * math.sqrt(theta * (1.0 - theta)) * math.sqrt(n - 1)) + 30
    a, b = max(0, int((first + 1) * theta) - reach), min(n, int(n * theta) + reach + 1)
    _check_cells(n, first, (n - first) * (b - a) + n + 1)
    log_theta = math.log(theta)
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)

    def shifted_logs(k0: int, k1: int, a: int, b: int):
        k = np.arange(k0, k1)[:, None]
        r = np.arange(a, b)
        spill = r > k
        logs = (
            log_fact[k] - log_fact[r] - log_fact[np.where(spill, 0, k - r)]
            + r * log_theta + (n - r) * log_q
        )
        logs[spill] = -math.inf
        peaks = logs.max(axis=1)
        return peaks, logs - peaks[:, None]

    def full_row(k: int) -> list[float]:
        return list(map(math.exp, shifted_logs(k, k + 1, 0, k + 1)[1][0].tolist()))

    complements = []
    for k0, k1, _ in _row_blocks(n, lambda _: b - a, first):
        peaks, shifted = shifted_logs(k0, k1, a, b)
        kept = shifted >= _EXP_CUT
        values = shifted[kept]
        terms = np.zeros_like(shifted)
        terms[kept] = np.fromiter(map(math.exp, memoryview(values)), float, values.size)
        k = np.arange(k0, k1)
        fits = ((a == 0) | (shifted[:, 0] < _EXP_CUT)) & ((k < b) | (shifted[:, -1] < _EXP_CUT))
        tail = np.where(fits, n * _EXP_CUT_TAIL, math.inf)
        sums = _row_sums(terms, tail, lambda i: full_row(k0 + i))
        complements += [
            -math.expm1(peak + math.log(total)) for peak, total in zip(peaks.tolist(), sums)
        ]
    return complements


def _linear_row(k: int, q_n: float, ratio: float) -> list[float]:
    # Row k's k + 1 terms, term_0 = q_n and term_r = term_{r-1} * ((k+1-r)/r
    # * ratio): the IEEE operations of _inner_complement_linear's build, in
    # its order, so the cells have its bits.
    term = q_n
    terms = [term]
    for r in range(1, k + 1):
        term *= (k + 1 - r) / r * ratio
        terms.append(term)
    return terms


def _inner_complement_linear(n: int, theta: float, first: int) -> list[float]:
    # The same complements from term_0 = (1-theta)^n and the ratio recurrence
    # term_{r+1} = term_r * (k-r)/(r+1) * theta/(1-theta).  In the blocks,
    # np.multiply.accumulate takes a row's products in order from r = 0, and
    # the factor is 0 past r = k, so a row's later cells are 0.  A call whose
    # whole rows hold at most _PYTHON_ROW_CELLS cells builds each row with
    # _linear_row and sums it with fsum, without numpy; so does a block's
    # row that fails its certificate.
    #
    # A block is built only to the column c = min(k, floor(k theta + 12 sd)
    # + 10) of its last row k, sd = sqrt(k theta (1-theta)).  Past c the
    # factors fall, so the cells a row k > c leaves out sum to at most
    # term_c g / (1 - g), with g the computed factor at c inflated by
    # 2^-49 for the rounding of the factors and products (plus 5e-324 a
    # cell for products that underflow).  A row k <= c leaves none out, and
    # its bound is exactly 0.  A row with g >= 1 gets an infinite bound, so
    # it is summed in full.
    q = 1.0 - theta
    ratio = theta / q
    q_n = q**n
    if (n * (n + 1) - first * (first + 1)) // 2 <= _PYTHON_ROW_CELLS:
        return [1.0 - math.fsum(_linear_row(k, q_n, ratio)) for k in range(first, n)]

    import numpy as np

    spread = _BAND_SDS * math.sqrt(theta * q)

    def band_width(k1: int) -> int:
        k = k1 - 1
        return min(k1, int(k * theta + spread * math.sqrt(k)) + 11)

    _check_cells(n, first, (n - first) * band_width(n))

    def build(k0: int, k1: int, width: int):
        # (k+1) - (r+1) is k - r exactly, so k and r here stand one higher.
        k = np.arange(k0 + 1, k1 + 1, dtype=float)[:, None]
        r = np.arange(1, width, dtype=float)
        terms = np.empty((k1 - k0, width))
        terms[:, 0] = q_n
        terms[:, 1:] = np.maximum(k - r, 0.0) / r * ratio
        return np.multiply.accumulate(terms, axis=1, out=terms)

    complements = []
    for k0, k1, width in _row_blocks(n, band_width, first):
        terms = build(k0, k1, width)
        skipped = np.maximum(np.arange(k0 + 1 - width, k1 + 1 - width, dtype=float), 0.0)
        g = skipped / width * ratio * (1.0 + 2.0**-49)
        room = 1.0 - g
        tail = np.divide(
            (terms[:, -1] * g + skipped * 5e-324) * (1.0 + 2.0**-49), room,
            out=np.full(k1 - k0, math.inf), where=room > 0.0,
        )
        sums = _row_sums(terms, tail, lambda i: _linear_row(k0 + i, q_n, ratio))
        complements += [1.0 - total for total in sums]
    return complements


def phase_sum_raw(model: SparsityModel) -> float:
    """Phase-decomposition expectation in its unreduced binomial form.

    For each phase k (k rows already covered) the expected number of
    columns spent is 1 / (1 - P[no new row covered]), with the no-progress
    probability written as sum_{r=0}^{k} C(k,r) theta^r (1-theta)^(n-r).
    The sum over k = 0 .. n-1 of those waits is returned.  The inner sums
    are built by the ratio recurrence term_{r+1} = term_r * (k-r)/(r+1) *
    theta/(1-theta), or in log space where (1-theta)^n would underflow.

    Only the rows k with (n-k) lambda < 40, lambda = ln(1/(1-theta)), are
    built, so this form costs O(n min(n, 40/lambda)).  By the binomial
    theorem the inner sum of row k is (1-theta)^(n-k), so each of the first
    rows left out sums to at most e^-40 = 4.2e-18, under a tenth of 2^-54,
    and is computed within a relative 1e-10 of that at any n allowed here.
    Its complement, 1 - sum or -expm1 of the sum's log, lies within 0.04
    ulp of 1 and rounds to exactly 1.0, and so does its wait.  Those waits
    join the final fsum as one exact term, their count, and fsum, correctly
    rounded, returns the same double as if each were summed.  lambda is at
    most 36.8 where 1 - theta != 1, so the last row is always built.  The
    cells the call may build bound it: the rows built, k = first .. n-1,
    times the widest block's width, plus, in log space, a table of n + 1
    values ln j!.  More than 10^8 raise DomainError before any row or the
    table is built.

    A linear call whose whole rows, k + 1 cells each, hold at most 512
    cells all told builds each row in Python floats by the recurrence and
    sums it with math.fsum, without loading numpy; below that numpy's fixed
    cost per block outweighs the row loops.  Every other call builds and
    sums its rows in numpy blocks of at most 8192 cells, each row's terms
    formed in the order of the same per-row recurrence.  Each block row's
    sum is the correctly rounded one that math.fsum gives: an error-free
    split certifies it, and the rare row it cannot certify, next to a
    rounding midpoint, goes to fsum.  Row k is a binomial(k, theta)
    profile, so the rows are built only near their modes: a linear block
    out to c = min(k, floor(k theta + 12 sd) + 10) of its last row k, sd =
    sqrt(k theta (1-theta)); the log rows over one band, 12 sd + 30 either
    side of the modes of all the rows built, with math.exp called only
    within 60 nats of the row's peak.  A bound on the cells left out joins
    the certificate, term_c rho / (1 - rho) past a linear row's falling
    ratio rho, e^-59 a cell in log space, and a row that fails it, or a
    log row whose band edge is not below e^-60, is built in full and
    summed with fsum.  So the result has
    the bits of summing each whole row with fsum, which the tests pin.

    This form also drifts at small theta, where 1 - sum cancels.  Its
    relative gap to phase_sum_expectation at n = 2 is 3.2e-11 at
    theta = 1e-6, 8.3e-8 at 1e-10, 2.2e-5 at 1e-12, 8.0e-4 at 1e-14 and
    9.9% at 1e-16.  phase_sum_expectation computes the same number in O(n)
    without the cancellation; prefer it for anything but cross-checks.
    """
    n, theta = _checked_model(model).n, model.theta
    if theta == 1.0:
        return float(n)
    if 1.0 - theta == 1.0:  # the phase k = 0 wait would be 1 / (1 - 1.0)
        raise DomainError(f"1 - theta rounds to 1 at theta = {theta!r}; use phase_sum_expectation")
    log_q = model.log_q
    first = max(0, n + 1 - math.ceil(min(_SKIP_NATS / -log_q, n + 1)))
    if n * log_q < _UNDERFLOW_LOG:
        complements = _inner_complement_log(n, theta, log_q, first)
    else:
        complements = _inner_complement_linear(n, theta, first)
    return math.fsum([float(first), *map(truediv, repeat(1.0), complements)])


def phase_sum_expectation(model: SparsityModel) -> float:
    """Collapsed form of phase_sum_raw: sum_{k=1}^{n} 1 / (1 - (1-theta)^k).

    The binomial inner sum in phase_sum_raw telescopes to (1-theta)^(n-k),
    so both functions compute the same number; this one in O(n) stable
    operations.  The sum stops at the first k where 1 - (1-theta)^k rounds
    to 1.0: every later term is exactly 1.0 too, so the n - k + 1 terms
    left are the one exact term n - k + 1, and fsum, correctly rounded,
    returns the same double.  An n past 10^8 raises DomainError.
    """
    n, theta, log_q = _checked_term_count(_checked_model(model).n), model.theta, model.log_q

    def terms():
        for k in range(1, n + 1):
            complement = _complement_power(theta, k, log_q)
            if complement == 1.0:
                yield float(n - k + 1)
                return
            yield 1.0 / complement

    return _finite_sum(terms(), "the phase sum", theta)


def exact_expected_cover_time(model: SparsityModel, tol: float = _DEFAULT_TOL) -> CoverTimeSummary:
    """E[T] up to rounding and an error of at most tol, with reference values.

    With lambda = -ln(1-theta), E[T] = sum_{t >= 0} f(t) for
    f(t) = 1 - (1 - e^(-lambda t))^n.  Euler-Maclaurin from t = 0 up to the
    f''' term gives

        E[T] = H_n / lambda + 1/2 - f'(0)/12 + f'''(0)/720 + R.

    The integral of f is exactly H_n / lambda.  Expanding the power,
    f^(k)(0) = lambda^k (-1)^(k+1+n) S(k, n) n! with S a Stirling number
    of the second kind, which is 0 for k < n, so only n <= 3 carry
    corrections.  |R| <= (|B_4| / 4!) int |f''''| and |B_4| / 4! = 1/720;
    the substitution u = e^(-lambda t) bounds the integral by
    lambda^3 sum_j S(4, j) (j-1)! = 26 lambda^3 whatever n is.  When
    26 lambda^3 / 720 is at most tol, the closed form is returned with
    that bound as truncation_error_bound, at O(n) cost for any theta.

    Otherwise the tail sum is taken directly.  Its tail past horizon T is
    at most n (1-theta)^(T+1) / theta, so T is grown until that drops to
    tol, and the bound achieved is reported.

    DomainError is raised, before anything is summed, for anything but a
    SparsityModel, then for a tol that is not positive and finite, then for
    an n past 10^8; then for a tol that would need more than 10^8 tail
    terms, and last for a phase sum that overflows a double.
    """
    value, bound, _ = _expected_cover_time(model, tol)
    phase, classic = phase_sum_expectation(model), classic_harmonic_sum(model.n)
    return CoverTimeSummary(value, phase, classic, bound)


def _expected_cover_time(
    model: SparsityModel, tol: float = _DEFAULT_TOL
) -> tuple[float, float, float | None]:
    # E[T] and its truncation_error_bound, as exact_expected_cover_time
    # documents, and the H_n that the closed form computed (None otherwise),
    # so that bound_report need not sum it again.  Every refusal of E[T] is
    # made here, in the documented order; where E[T] overflows, the value
    # returned is inf.
    _checked_model(model)
    tol = _checked_tol(tol)
    n, theta = _checked_term_count(model.n), model.theta
    if theta == 1.0:  # the t = 0 term would be exp(0 * -inf) = nan
        return 1.0, 0.0, None

    log_q = model.log_q
    lam = -log_q
    remainder = _EM_REMAINDER * lam**3
    if remainder <= tol:
        if 1.0 / lam == math.inf:  # so does H_n / lam >= 1 / lam: H_n is not summed
            return math.inf, remainder, None
        d1, d3 = _EM_DERIVATIVES.get(n, (0.0, 0.0))
        h_n = harmonic(n)
        return math.fsum((h_n / lam, 0.5, -d1 * lam / 12.0, d3 * lam**3 / 720.0)), remainder, h_n

    target = math.log(tol) + math.log(theta) - math.log(n)
    horizon = max(0, math.ceil(target / log_q) - 1)
    if horizon >= _MAX_TAIL_TERMS:
        raise DomainError(
            f"tol = {tol!r} needs about {horizon + 1} tail-sum terms at theta = {theta!r}, "
            f"more than {_MAX_TAIL_TERMS}; loosen tol"
        )

    def tail_bound(t: int) -> float:
        return n * math.exp((t + 1) * log_q) / theta

    while tail_bound(horizon) > tol:
        horizon += 1

    powers = (math.exp(t * log_q) for t in range(horizon + 1))
    value = math.fsum(1.0 if q_t >= 1.0 else -math.expm1(n * math.log1p(-q_t)) for q_t in powers)
    return value, tail_bound(horizon), None


def inclusion_exclusion_expectation(model: SparsityModel) -> float:
    """E[T] as sum_{k=1}^{n} (-1)^(k+1) C(n,k) / (1 - (1-theta)^k).

    The alternating terms reach size ~2^n before cancelling, so this is a
    cross-check for small n only; n beyond 30 is refused rather than
    returning digits that are mostly cancellation noise.
    """
    n, theta = _checked_model(model).n, model.theta
    if n > _INCLUSION_EXCLUSION_MAX_N:
        raise DomainError(
            f"inclusion-exclusion loses all precision for n = {n} > "
            f"{_INCLUSION_EXCLUSION_MAX_N}; use exact_expected_cover_time"
        )
    log_q = model.log_q
    terms = []
    sign = 1.0
    for k in range(1, n + 1):
        terms.append(sign * math.comb(n, k) / _complement_power(theta, k, log_q))
        sign = -sign
    return _finite_sum(terms, "the inclusion-exclusion sum", theta)


def coverage_probability(model: SparsityModel, p: int) -> float:
    """P(every row covered within p columns) = (1 - (1-theta)^p)^n."""
    n = _checked_model(model).n
    p = checked_int(p, "p", 0)
    if p == 0:
        return 0.0
    # int * float converts the int first, so this is p * log_q, refusing
    # a p no double holds.
    log_q_p = checked_real(p, "p") * model.log_q
    q_p = math.exp(log_q_p)
    if q_p == 1.0:
        # (1-theta)^p rounds to 1 but its complement is not 0; expm1 keeps it.
        return math.exp(n * math.log(-math.expm1(log_q_p)))
    return math.exp(n * math.log1p(-q_p))


def cover_time_pmf(model: SparsityModel, t: int) -> float:
    """P(T = t) as the difference of consecutive coverage probabilities."""
    t = checked_int(t, "t", 1)
    return coverage_probability(model, t) - coverage_probability(model, t - 1)


def coverage_threshold(model: SparsityModel, delta: float) -> int:
    """Smallest p with coverage_probability(model, p) >= 1 - delta.

    The closed form p* = ceil(log(1 - (1-delta)^(1/n)) / log(1-theta)) is
    taken as a candidate and then checked by direct evaluation: a search
    from the candidate doubles its step until the inequality flips, then
    bisects.  The returned p* satisfies the defining inequalities even
    when the float candidate is far off, after O(log p*) evaluations.
    Where delta <= 2**-54, 1 - delta rounds to 1.0 and the inequality asks
    for coverage 1.0, a budget of 2**-54; the candidate is taken from that
    budget rather than from delta.  A candidate above 2**53, which doubles
    cannot resolve, raises DomainError.
    """
    _checked_model(model)
    delta = checked_real(delta, "delta")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    n, theta = model.n, model.theta
    budget = max(delta, _MIN_RESOLVED_DELTA)
    # 1 - (1-budget)^(1/n) without cancellation: -expm1(log1p(-budget)/n);
    # where that underflows to 0, its leading term budget / n.
    per_row_tail = -math.expm1(math.log1p(-budget) / n)
    log_tail = math.log(per_row_tail) if per_row_tail > 0.0 else math.log(budget) - math.log(n)
    steps = log_tail / model.log_q
    if steps > _MAX_RESOLVED_P:
        raise DomainError(f"p* exceeds 2**53 at theta = {theta!r}; doubles cannot resolve it")
    candidate = max(1, math.ceil(steps))
    threshold = 1.0 - delta

    def covered(p: int) -> bool:
        return coverage_probability(model, p) >= threshold

    # Step away from the candidate, doubling, until covered() flips; p = 0
    # is known uncovered.  Then bisect the bracket (low, high].
    up = not covered(candidate)
    edge, step = candidate, 1
    while (probe := edge + step if up else max(0, edge - step)) > 0 and covered(probe) != up:
        edge, step = probe, 2 * step
    low, high = (edge, probe) if up else (probe, edge)
    return low + 1 + bisect.bisect_left(range(low + 1, high), True, key=covered)
