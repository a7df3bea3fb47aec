"""Concrete orthogonal-times-sparse instances and their coverage checks.

An instance is Y = V X with V an n x n random orthogonal matrix and X an
n x p matrix that is Bernoulli(theta)-sparse with standard normal values
on its nonzero entries.  Row coverage of X (no all-zero row) is the
necessary condition for recovering the factors from Y, and because
V^T Y = X exactly, coverage of X is observable from an instance in
principle; this module builds instances, verifies the algebra, and
measures the coverage event empirically.

X's indicator pattern follows the package-wide pattern law: for equal
(model, p, seed) it coincides bit-for-bit with
montecarlo.sample_indicator_pattern.  No factorization is attempted here;
only the necessary condition and the orthogonality identities are
checked.

Instances are built a block at a time.  A block's streams (seed,
ORTHOGONAL), (seed, PATTERN) and (seed, VALUES) come from one
_streams.spawn_streams call, and _streams.fill draws each instance's
Gaussians, pattern and values into stacked buffers, as many instances a
block as _streams.block_rows allows for their n x n + n x p doubles; how
numpy draws them, and the budget, are _streams' concern.  One stacked
QR with its sign fix gives the block's V, one np.where its X and one
stacked matmul its Y.  A single instance is a block of one, so
assemble_instance, random_orthogonal and sample_sparse_matrix return the
factors coverage_experiment checks, bit for bit.

The algebra is checked a block at a time too: coverage_experiment passes
each block's stacked V, X and Y to _algebra_defects, the function
OmfInstance checks its one instance with, and counts the block's covered
X in one reduction; it builds no OmfInstance per instance.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import _streams
from .coverage import SparsityModel, _checked_model
from .errors import DomainError, checked_int
from .montecarlo import MonteCarloEstimate, _covered, _proportion_estimate

__all__ = [
    "OmfInstance",
    "CoverageReport",
    "random_orthogonal",
    "sample_sparse_matrix",
    "assemble_instance",
    "row_coverage_check",
    "coverage_experiment",
    "write_instance",
    "read_instance",
]

_ORTHOGONALITY_TOL = 1e-10
_RECONSTRUCTION_RTOL = 1e-8

# The streams of one instance, in the order a block draws them.
_FACTOR_TAGS = (_streams.ORTHOGONAL, _streams.PATTERN, _streams.VALUES)


@dataclass(frozen=True, eq=False)
class OmfInstance:
    """One assembled factorization instance Y = V X.

    Construction checks that n and p are integers of at least 1, that
    theta lies in (0, 1] and that seed is an unsigned 64-bit integer, as
    read_instance checks a header, and that v, x and y are real numeric
    ndarrays of their shapes.  It validates the defining algebra in
    float64 (_algebra_defects, so integer factors cannot wrap), refusing
    a NaN or infinite defect and an infinite ||X|| or ||Y||, and keeps
    three defects as attributes, in the Frobenius norm:
    orthogonality_error is max |V^T V - I|, at most 1e-10;
    reconstruction_error is ||V^T Y - X|| / max(1, ||X||), at most 1e-8; and
    norm_preservation_error is | ||Y|| - ||X|| | / max(1, ||X||), which
    an orthogonal V keeps near rounding level.  They are derived, not
    dataclass fields, so repr and anything walking dataclasses.fields see
    only the defining data n, p, theta, v, x, y and seed.
    """

    n: int
    p: int
    theta: float
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", checked_int(self.n, "n", 1))
        object.__setattr__(self, "p", checked_int(self.p, "p", 1))
        object.__setattr__(self, "theta", SparsityModel(self.n, self.theta).theta)
        object.__setattr__(self, "seed", _streams.checked_seed(self.seed))
        for name, matrix, cols in (("v", self.v, self.n), ("x", self.x, self.p),
                                   ("y", self.y, self.p)):
            if not isinstance(matrix, np.ndarray) or matrix.dtype.kind not in "biuf":
                kind = getattr(matrix, "dtype", type(matrix).__name__)
                raise DomainError(f"{name} must be a real numeric ndarray, got {kind}")
            if matrix.shape != (self.n, cols):
                raise DomainError(f"{name} must be {self.n} x {cols}, got {matrix.shape}")
        gram, residual, gap = _algebra_defects(
            self.v[np.newaxis], self.x[np.newaxis], self.y[np.newaxis])
        object.__setattr__(self, "orthogonality_error", float(gram[0]))
        object.__setattr__(self, "reconstruction_error", float(residual[0]))
        object.__setattr__(self, "norm_preservation_error", float(gap[0]))


def _frobenius(stack: np.ndarray) -> np.ndarray:
    # The Frobenius norm of each matrix in a (..., n, p) stack, as
    # np.linalg.norm takes it of a C-ordered matrix: the square root of the
    # dot product of its raveled entries, which numpy computes by the same
    # dot call for a (1 x np) @ (np x 1) matmul.
    flat = stack.reshape(*stack.shape[:-2], 1, stack.shape[-2] * stack.shape[-1])
    return np.sqrt(flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]


def _algebra_defects(
    v: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OmfInstance's three defects for each instance of a stack, checked.

    v, x and y are (..., n, n), (..., n, p) and (..., n, p) stacks of real
    factors, taken in float64, so integer factors cannot wrap.  Returns the
    Gram, reconstruction and norm defects (OmfInstance's attributes) as
    arrays over the leading axes.  The first instance, in order, that fails
    a check raises DomainError for the first check it fails: the Gram
    defect, then the reconstruction defect (each refuses a NaN defect, which
    a NaN or infinite entry makes), then ||X|| and ||Y||, which must be
    finite, because an overflowing ||X|| would scale any residual down to 0.  numpy would warn of the NaN or
    overflow that bad entries make inside the products; the checks report
    them instead.
    """
    v, x, y = (np.asarray(factor, dtype=np.float64) for factor in (v, x, y))
    v_t = np.swapaxes(v, -1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.abs(v_t @ v - np.eye(v.shape[-1])).max(axis=(-2, -1))
        x_norm, y_norm = _frobenius(x), _frobenius(y)
        scale = np.fmax(1.0, x_norm)  # max(1.0, ||X||), a NaN norm scaling by 1
        residual = _frobenius(v_t @ y - x) / scale
        gap = np.abs(y_norm - x_norm) / scale
        passed = ((gram <= _ORTHOGONALITY_TOL) & (residual <= _RECONSTRUCTION_RTOL)
                  & np.isfinite(x_norm) & np.isfinite(y_norm)).ravel()
    if not passed.all():
        first = int(np.argmin(passed))
        gram_t, residual_t, x_t, y_t = (
            float(value.ravel()[first]) for value in (gram, residual, x_norm, y_norm))
        if not gram_t <= _ORTHOGONALITY_TOL:
            raise DomainError(f"v is not orthogonal: max Gram defect {gram_t:.3e}")
        if not residual_t <= _RECONSTRUCTION_RTOL:
            raise DomainError(f"y does not equal v @ x: relative residual {residual_t:.3e}")
        raise DomainError(f"x and y must have finite norms, got {x_t} and {y_t}")
    return gram, residual, gap


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """Row-coverage status of a matrix: which rows hold a nonzero entry."""

    covered: bool
    uncovered_rows: tuple[int, ...]
    nonzeros_per_row: tuple[int, ...]

    def __post_init__(self) -> None:
        consistent = self.covered == (len(self.uncovered_rows) == 0)
        if self.nonzeros_per_row:
            consistent = consistent and self.covered == (min(self.nonzeros_per_row) >= 1)
        if not consistent:
            raise DomainError(f"inconsistent coverage report: {self}")


def _orthogonal_factors(streams: Iterator[np.random.Generator], count: int, n: int) -> np.ndarray:
    """The orthogonal factors the next count streams make, stacked.

    Each stream draws an n x n standard normal matrix.  One stacked QR
    factors them, and each Q's columns take the signs of R's diagonal, so
    that the factor is unique given the draw and Haar-distributed over the
    orthogonal group (Mezzadri, "How to generate random matrices from the
    classical compact groups", Notices AMS 54, 2007).
    """
    gaussians = np.empty((count, n, n))
    q, r = np.linalg.qr(_streams.fill(gaussians, streams, np.random.Generator.standard_normal))
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    return q * signs[:, np.newaxis, :]


def _sparse_factors(
    streams: Iterator[np.random.Generator], count: int, model: SparsityModel, p: int
) -> np.ndarray:
    """The sparse factors of count pattern streams, then count value streams, stacked.

    A pattern stream draws the n x p indicators of sample_indicator_pattern
    (_streams.pattern_draw), and a value stream n x p standard normals; an
    entry is its value where its indicator is set.
    """
    pattern, values = np.empty((count, model.n, p), dtype=bool), np.empty((count, model.n, p))
    _streams.fill(pattern, streams, _streams.pattern_draw(model.theta))
    _streams.fill(values, streams, np.random.Generator.standard_normal)
    return np.where(pattern, values, 0.0)


def _instance_blocks(
    model: SparsityModel, p: int, seeds: Iterable[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The stacked V, X and Y = V X of the instances (model, p, seed), a block at a time.

    An n x n or n x p draw past the largest array numpy can allocate
    raises DomainError, before the first seed is taken.
    """
    n = model.n
    _streams._check_draw_size("an n x n", n, n)
    _streams._check_draw_size("an n x p", n, p)
    size = _streams.block_rows(8 * (n * n + n * p))  # the n x n Gaussians and n x p values
    seeds = iter(seeds)
    while block := list(islice(seeds, size)):
        streams = _streams.spawn_streams(block, _FACTOR_TAGS)
        v = _orthogonal_factors(streams, len(block), n)
        x = _sparse_factors(streams, len(block), model, p)
        yield v, x, v @ x


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """A random n x n orthogonal matrix, deterministic in (n, seed).

    Orthogonalizes an n x n standard normal draw from the stream
    (seed, ORTHOGONAL) and forces the triangular factor's diagonal
    positive, which makes the result unique given the draw and uniformly
    distributed over the orthogonal group.  It is the V of every instance
    with this seed, built as a block of one.  An n x n draw past the
    largest array numpy can allocate raises DomainError.
    """
    n = checked_int(n, "n", 1)
    seed = _streams.checked_seed(seed)
    _streams._check_draw_size("an n x n", n, n)
    streams = _streams.spawn_streams([seed], (_streams.ORTHOGONAL,))
    return _orthogonal_factors(streams, 1, n)[0]


def sample_sparse_matrix(model: SparsityModel, p: int, seed: int) -> np.ndarray:
    """An n x p matrix, each entry standard normal with probability theta.

    The indicator pattern comes from the shared pattern stream and the
    values from a separate stream, so the pattern is unchanged by how the
    values are drawn and matches sample_indicator_pattern exactly.  It is
    the X of every instance with this seed, built as a block of one.  An
    n x p draw past the largest array numpy can allocate raises
    DomainError.
    """
    _checked_model(model)
    p = checked_int(p, "p", 1)
    seed = _streams.checked_seed(seed)
    _streams._check_draw_size("an n x p", model.n, p)
    streams = _streams.spawn_streams([seed], (_streams.PATTERN, _streams.VALUES))
    return _sparse_factors(streams, 1, model, p)[0]


def assemble_instance(n: int, p: int, theta: float, seed: int) -> OmfInstance:
    """Build Y = V X for the given shape, density, and seed.

    V is random_orthogonal(n, seed) and X sample_sparse_matrix's draw for
    (n, theta), p and seed; the instance is built as a block of one, as
    coverage_experiment builds its instances.
    """
    model = SparsityModel(n, theta)
    p = checked_int(p, "p", 1)
    seed = _streams.checked_seed(seed)
    v, x, y = next(_instance_blocks(model, p, [seed]))
    return OmfInstance(n=model.n, p=p, theta=model.theta, v=v[0], x=x[0], y=y[0], seed=seed)


def row_coverage_check(x: np.ndarray) -> CoverageReport:
    """Exact per-row nonzero census of a matrix.

    Entries are compared to zero exactly: the matrices checked here are
    constructed, so a zero is a structural zero, not a rounded one.
    """
    matrix = np.asarray(x)
    if matrix.ndim != 2 or matrix.size == 0:
        raise DomainError(f"expected a nonempty 2-d matrix, got shape {matrix.shape}")
    if matrix.dtype.kind not in "biufc":  # no string equals 0, so strings would read as covered
        raise DomainError(f"expected a numeric matrix, got dtype {matrix.dtype}")
    counts = (matrix != 0).sum(axis=1)
    uncovered = np.flatnonzero(counts == 0)
    return CoverageReport(
        covered=bool(uncovered.size == 0),
        uncovered_rows=tuple(int(i) for i in uncovered),
        nonzeros_per_row=tuple(int(c) for c in counts),
    )


def coverage_experiment(
    n: int, theta: float, p: int, trials: int, seed: int
) -> MonteCarloEstimate:
    """Fraction of assembled instances whose X passes row_coverage_check.

    Trial t's instance is assemble_instance(n, p, theta, s) for the
    sub-seed s of (seed, INSTANCE, t), built a block of instances at a
    time.  Each block's algebra is checked by _algebra_defects, the check
    OmfInstance makes, with the same tolerances and the same DomainError
    for its first bad instance, so the experiment exercises the whole
    pipeline.  The hit law is identical
    to montecarlo.estimate_coverage_probability because both draw the
    pattern from the shared pattern stream.  trials and seed are checked
    first, then n, theta, p and the n x n and n x p draw sizes, all before
    any draw.
    """
    trials = checked_int(trials, "trials", 1)
    seed = _streams.checked_seed(seed)
    model = SparsityModel(n, theta)
    p = checked_int(p, "p", 1)
    sub_seeds = _streams.trial_seeds(seed, _streams.INSTANCE, 0, trials)
    hits = 0
    for v, x, y in _instance_blocks(model, p, sub_seeds):
        _algebra_defects(v, x, y)
        hits += _covered(x)  # row_coverage_check(x_t).covered for each instance t
    return _proportion_estimate(hits, trials, seed)


def _checked_path(path: object) -> Path:
    if not isinstance(path, (str, os.PathLike)):
        raise DomainError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    return Path(path)


def write_instance(instance: OmfInstance, path: str | Path) -> None:
    """Dump an instance as plain text.

    Format: a header line `n p theta seed`, then the rows of V, X, and Y
    in that order, one row per line, entries whitespace-separated and
    printed with full round-trip precision.
    """
    if not isinstance(instance, OmfInstance):
        raise DomainError(f"instance must be an OmfInstance, got {type(instance).__name__}")
    path = _checked_path(path)
    lines = [f"{instance.n} {instance.p} {instance.theta!r} {instance.seed}"]
    for matrix in (instance.v, instance.x, instance.y):
        lines.extend(" ".join(map(repr, row)) for row in np.asarray(matrix, dtype=float).tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_instance(path: str | Path) -> OmfInstance:
    """Read an instance written by write_instance, revalidating its algebra."""
    text = _checked_path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        n_text, p_text, theta_text, seed_text = lines[0].split()
        # DomainError is a ValueError, so a header outside the model's
        # domain or the seed range is reported as malformed too.
        n, p = int(n_text), int(p_text)
        model = SparsityModel(n, float(theta_text))
        seed = _streams.checked_seed(int(seed_text))
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed instance header in {path}: {exc}") from None
    if len(lines) - 1 != 3 * n:  # n rows each for V, X, Y
        raise DomainError(
            f"expected {3 * n} matrix rows in {path}, got {len(lines) - 1}"
        )

    def block(start: int, cols: int) -> np.ndarray:
        try:
            matrix = np.array([list(map(float, lines[i].split())) for i in range(start, start + n)])
        except ValueError as exc:
            raise DomainError(f"malformed matrix row in {path}: {exc}") from None
        if matrix.shape != (n, cols):
            raise DomainError(f"malformed matrix block in {path}: shape {matrix.shape}")
        return matrix

    v = block(1, n)
    x = block(1 + n, p)
    y = block(1 + 2 * n, p)
    return OmfInstance(n=n, p=p, theta=model.theta, v=v, x=x, y=y, seed=seed)
