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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _streams
from .coverage import SparsityModel, _checked_model
from .errors import DomainError, checked_int
from .montecarlo import (
    MonteCarloEstimate,
    _check_draw_size,
    _proportion_estimate,
    sample_indicator_pattern,
)

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


@dataclass(frozen=True, eq=False)
class OmfInstance:
    """One assembled factorization instance Y = V X.

    Construction checks that n and p are integers of at least 1, that
    theta lies in (0, 1] and that seed is an unsigned 64-bit integer, as
    read_instance checks a header, and that v, x and y are real numeric
    ndarrays of their shapes.  It validates the defining algebra, refusing
    a NaN or infinite defect, and keeps three defects as attributes, in
    the Frobenius norm:
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
        # A NaN defect compares false both ways, so each check is written to
        # refuse it: a NaN or infinite entry makes a defect NaN or infinite.
        gram_defect = float(np.abs(self.v.T @ self.v - np.eye(self.n)).max())
        if not gram_defect <= _ORTHOGONALITY_TOL:
            raise DomainError(f"v is not orthogonal: max Gram defect {gram_defect:.3e}")
        x_norm = float(np.linalg.norm(self.x))
        scale = max(1.0, x_norm)
        residual = float(np.linalg.norm(self.v.T @ self.y - self.x)) / scale
        if not residual <= _RECONSTRUCTION_RTOL:
            raise DomainError(f"y does not equal v @ x: relative residual {residual:.3e}")
        object.__setattr__(self, "orthogonality_error", gram_defect)
        object.__setattr__(self, "reconstruction_error", residual)
        object.__setattr__(
            self, "norm_preservation_error", abs(float(np.linalg.norm(self.y)) - x_norm) / scale
        )


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


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """A random n x n orthogonal matrix, deterministic in (n, seed).

    Orthogonalizes an n x n standard normal draw and forces the triangular
    factor's diagonal positive, which makes the result unique given the
    draw and uniformly distributed over the orthogonal group.  An n x n
    draw past the largest array numpy can allocate raises DomainError.
    """
    n = checked_int(n, "n", 1)
    seed = _streams.checked_seed(seed)
    _check_draw_size("an n x n", n, n)
    stream = _streams.spawn_generator(seed, _streams.ORTHOGONAL)
    gaussian = stream.standard_normal((n, n))
    q, r = np.linalg.qr(gaussian)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs


def sample_sparse_matrix(model: SparsityModel, p: int, seed: int) -> np.ndarray:
    """An n x p matrix, each entry standard normal with probability theta.

    The indicator pattern comes from the shared pattern stream and the
    values from a separate stream, so the pattern is unchanged by how the
    values are drawn and matches sample_indicator_pattern exactly.
    """
    _checked_model(model)
    p = checked_int(p, "p", 1)
    seed = _streams.checked_seed(seed)
    pattern = sample_indicator_pattern(model, p, seed)
    values = _streams.spawn_generator(seed, _streams.VALUES).standard_normal(
        (model.n, p)
    )
    return np.where(pattern, values, 0.0)


def assemble_instance(n: int, p: int, theta: float, seed: int) -> OmfInstance:
    """Build Y = V X for the given shape, density, and seed."""
    model = SparsityModel(n, theta)
    p = checked_int(p, "p", 1)
    seed = _streams.checked_seed(seed)
    v = random_orthogonal(n, seed)
    x = sample_sparse_matrix(model, p, seed)
    y = v @ x
    return OmfInstance(n=model.n, p=p, theta=model.theta, v=v, x=x, y=y, seed=seed)


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

    Each trial assembles a full instance under the sub-seed derived from
    (seed, trial), so the experiment exercises the whole pipeline; the hit
    law is identical to montecarlo.estimate_coverage_probability because
    both draw the pattern from the shared pattern stream.
    """
    trials = checked_int(trials, "trials", 1)
    seed = _streams.checked_seed(seed)
    sub_seeds = _streams.trial_seeds(seed, _streams.INSTANCE, 0, trials)
    outcomes = (row_coverage_check(assemble_instance(n, p, theta, s).x).covered for s in sub_seeds)
    return _proportion_estimate(outcomes, trials, seed)


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
        for row in matrix:
            lines.append(" ".join(repr(float(value)) for value in row))
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
            matrix = np.array(
                [[float(token) for token in lines[i].split()] for i in range(start, start + n)]
            )
        except ValueError as exc:
            raise DomainError(f"malformed matrix row in {path}: {exc}") from None
        if matrix.shape != (n, cols):
            raise DomainError(f"malformed matrix block in {path}: shape {matrix.shape}")
        return matrix

    v = block(1, n)
    x = block(1 + n, p)
    y = block(1 + 2 * n, p)
    return OmfInstance(n=n, p=p, theta=model.theta, v=v, x=x, y=y, seed=seed)
