"""Tests for instance assembly, coverage checking, and the text dump."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from rowcover import (
    CoverageReport,
    DomainError,
    OmfInstance,
    SparsityModel,
    assemble_instance,
    coverage_experiment,
    coverage_threshold,
    random_orthogonal,
    read_instance,
    row_coverage_check,
    sample_indicator_pattern,
    sample_sparse_matrix,
    write_instance,
)

ORTHOGONALITY_TOL = 1e-10


def gram_defect(v: np.ndarray) -> float:
    return float(np.abs(v.T @ v - np.eye(v.shape[0])).max())


# ------------------------------------------------------------- orthogonal


@pytest.mark.parametrize(
    "n, message",
    [(0.5, "n must be an integer"), (2.0, "n must be an integer"), ("2", "n must be an integer"),
     (0, "n must be >= 1")],
)
def test_random_orthogonal_rejects_bad_n(n, message):
    with pytest.raises(DomainError, match=message):
        random_orthogonal(n, 0)


def test_random_orthogonal_one_by_one():
    for seed in (0, 1, 7, 12345):
        v = random_orthogonal(1, seed)
        assert v.shape == (1, 1)
        assert v[0, 0] in (1.0, -1.0)


def test_random_orthogonal_three_by_three():
    v = random_orthogonal(3, 7)
    assert gram_defect(v) <= ORTHOGONALITY_TOL
    assert abs(abs(np.linalg.det(v)) - 1.0) <= 1e-10


def test_random_orthogonal_deterministic_and_seed_sensitive():
    assert np.array_equal(random_orthogonal(4, 2), random_orthogonal(4, 2))
    assert not np.array_equal(random_orthogonal(4, 2), random_orthogonal(4, 3))


def test_random_orthogonal_large():
    # top of the supported size range
    v = random_orthogonal(512, 31)
    assert gram_defect(v) <= ORTHOGONALITY_TOL


def test_random_orthogonal_sizes_sweep():
    for n in (2, 5, 16, 64):
        assert gram_defect(random_orthogonal(n, n)) <= ORTHOGONALITY_TOL


def test_random_orthogonal_rejects_zero():
    with pytest.raises(DomainError):
        random_orthogonal(0, 1)


def test_orthogonal_draw_numpy_cannot_allocate_is_refused():
    # 2^64 float64 draws are more bytes than numpy can index; it would raise
    # a bare ValueError.  Each call stops at the n x n draw.
    n = 2**32
    for call in (
        lambda: random_orthogonal(n, 0),
        lambda: assemble_instance(n, 1, 0.5, 0),
        lambda: coverage_experiment(n, 0.5, 1, 1, 0),
    ):
        with pytest.raises(DomainError, match=f"an n x n = {n} x {n} draw .* numpy can allocate"):
            call()


# ----------------------------------------------------------- sparse matrix


def test_sparse_matrix_dense_has_no_zeros():
    x = sample_sparse_matrix(SparsityModel(2, 1.0), 3, 1)
    assert np.count_nonzero(x) == 6


def test_sparse_matrix_density_concentration():
    x = sample_sparse_matrix(SparsityModel(5, 0.3), 100, 2)
    fraction = np.count_nonzero(x) / x.size
    sigma = math.sqrt(0.3 * 0.7 / 500.0)
    assert abs(fraction - 0.3) <= 3.0 * sigma


def test_sparse_matrix_pattern_matches_indicator_sampler():
    model = SparsityModel(3, 0.5)
    x = sample_sparse_matrix(model, 4, 3)
    assert np.array_equal(x != 0.0, sample_indicator_pattern(model, 4, 3))


def test_sparse_matrix_pattern_law_across_seeds():
    # the shared pattern stream is the whole point: equality must hold for
    # any (model, p, seed), not one lucky triple
    for seed in (0, 17, 999):
        for n, theta, p in ((2, 0.2, 9), (6, 0.8, 5)):
            model = SparsityModel(n, theta)
            x = sample_sparse_matrix(model, p, seed)
            assert np.array_equal(x != 0.0, sample_indicator_pattern(model, p, seed))


def test_sparse_matrix_nonzero_values_look_standard_normal():
    values = sample_sparse_matrix(SparsityModel(10, 0.5), 1000, 4)
    nonzero = values[values != 0.0]
    count = nonzero.size
    assert abs(float(nonzero.mean())) <= 4.0 / math.sqrt(count)
    assert 0.9 <= float(nonzero.var()) <= 1.1


def test_sparse_matrix_rejects_empty():
    with pytest.raises(DomainError):
        sample_sparse_matrix(SparsityModel(2, 0.5), 0, 1)


# --------------------------------------------------------------- instances


def test_assemble_one_by_one_dense():
    instance = assemble_instance(1, 1, 1.0, 4)
    assert instance.y[0, 0] == instance.v[0, 0] * instance.x[0, 0]
    assert abs(instance.v[0, 0]) == 1.0
    # A bool or numpy n is stored as the model's int.
    for n in (True, np.int64(3)):
        assert type(assemble_instance(n, 4, 0.5, 0).n) is int
    assert coverage_experiment(True, 0.5, 4, 5, 0).trials == 5


def test_assemble_reconstruction_and_norm():
    instance = assemble_instance(3, 5, 0.5, 5)
    x_norm = float(np.linalg.norm(instance.x))
    reconstruction = float(np.linalg.norm(instance.v.T @ instance.y - instance.x))
    assert reconstruction <= 1e-8 * x_norm
    assert abs(float(np.linalg.norm(instance.y)) - x_norm) <= 1e-8 * x_norm
    # The defects the instance keeps are these formulas, bit for bit.
    gram = float(np.abs(instance.v.T @ instance.v - np.eye(3)).max())
    assert instance.orthogonality_error == gram
    assert instance.reconstruction_error == reconstruction / max(1.0, x_norm)
    norm_gap = abs(float(np.linalg.norm(instance.y)) - x_norm)
    assert instance.norm_preservation_error == norm_gap / max(1.0, x_norm)


def test_assemble_deterministic():
    a = assemble_instance(4, 7, 0.4, 99)
    b = assemble_instance(4, 7, 0.4, 99)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_instance_validation_rejects_bad_algebra():
    good = assemble_instance(3, 2, 0.5, 1)
    with pytest.raises(DomainError):
        OmfInstance(
            n=3, p=2, theta=0.5, v=np.eye(3) * 2.0, x=good.x, y=good.y, seed=1
        )
    with pytest.raises(DomainError):
        OmfInstance(
            n=3, p=2, theta=0.5, v=good.v, x=good.x, y=good.y + 1.0, seed=1
        )
    with pytest.raises(DomainError):
        OmfInstance(n=3, p=2, theta=0.5, v=good.v, x=good.x.T, y=good.y, seed=1)


def test_instance_validation_rejects_wrong_v_and_y_shapes():
    good = assemble_instance(3, 2, 0.5, 1)
    with pytest.raises(DomainError, match="v must be 3 x 3"):
        OmfInstance(n=3, p=2, theta=0.5, v=good.v[:2], x=good.x, y=good.y, seed=1)
    with pytest.raises(DomainError, match="y must be 3 x 2"):
        OmfInstance(n=3, p=2, theta=0.5, v=good.v, x=good.x, y=good.y.T, seed=1)


def _with_entry(matrix: np.ndarray, value: float) -> np.ndarray:
    changed = matrix.copy()
    changed[0, 0] = value
    return changed


# numpy warns of the NaN an infinite entry makes in v^T y before the refusal.
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_instance_validation_rejects_nan_and_inf_factors():
    # A NaN defect is neither above nor below its tolerance, so it must be
    # refused explicitly; an infinite entry makes the residual NaN or infinite.
    good = assemble_instance(3, 2, 0.5, 1)
    factors = {"v": good.v, "x": good.x, "y": good.y}
    cases = [{"v": np.full((3, 3), math.nan)}, {"v": _with_entry(good.v, math.inf)},
             {"x": _with_entry(good.x, math.nan)}, {"x": _with_entry(good.x, math.inf)},
             {"y": _with_entry(good.y, -math.inf)},
             {"x": _with_entry(good.x, math.inf), "y": _with_entry(good.y, math.inf)}]
    for case in cases:
        with pytest.raises(DomainError, match="not orthogonal|does not equal"):
            OmfInstance(n=3, p=2, theta=0.5, seed=1, **{**factors, **case})


@pytest.mark.parametrize("name", ["v", "x", "y"])
def test_instance_validation_rejects_factors_that_are_not_real_arrays(name):
    good = assemble_instance(3, 2, 0.5, 1)
    factors = {"v": good.v, "x": good.x, "y": good.y}
    for bad, kind in ((factors[name].tolist(), "list"), (factors[name].astype(str), "<U"),
                      (factors[name] + 0j, "complex128"), (None, "NoneType")):
        with pytest.raises(DomainError, match=f"{name} must be a real numeric ndarray, got {kind}"):
            OmfInstance(n=3, p=2, theta=0.5, seed=1, **{**factors, name: bad})


# numpy warns of the NaN an infinite entry makes in v^T y before the refusal.
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_read_instance_refuses_nan_and_inf_factors(tmp_path):
    good = tmp_path / "good.txt"
    write_instance(assemble_instance(2, 3, 0.5, 9), good)
    header, *rows = good.read_text().splitlines()  # 2 V rows, then 2 X and 2 Y rows
    bad = tmp_path / "bad.txt"
    nan_v = [header, "nan nan", *rows[1:]]
    inf_xy = [header, *rows[:2], "inf " + rows[2].split(" ", 1)[1], *rows[3:4],
              "inf " + rows[4].split(" ", 1)[1], *rows[5:]]
    for lines in (nan_v, inf_xy):
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="not orthogonal|does not equal"):
            read_instance(bad)


def test_instance_validation_rejects_bad_n_and_p():
    # n = 0 would fail inside the empty Gram matrix and n = 1.0 inside np.eye;
    # a p = 0 instance would write a file that read_instance refuses.
    for n, p, message in ((0, 1, "n must be >= 1"), (1.0, 1, "n must be an integer"),
                          (1, 0, "p must be >= 1")):
        x = np.zeros((int(n), p))
        with pytest.raises(DomainError, match=message):
            OmfInstance(n=n, p=p, theta=0.5, v=np.eye(int(n)), x=x, y=x, seed=0)
    instance = OmfInstance(n=np.int64(1), p=True, theta=0.5, v=np.eye(1), x=np.ones((1, 1)),
                           y=np.ones((1, 1)), seed=0)
    assert (type(instance.n), type(instance.p), instance.p) == (int, int, 1)


@pytest.mark.parametrize(
    "theta, seed, message",
    [(5.0, 0, "theta must lie in"), (math.nan, 0, "theta must lie in"),
     (0, 0, "theta must lie in"), (0.5, -1, "seed must be >= 0"),
     (0.5, 2**64, "seed must fit in an unsigned 64-bit integer")],
)
def test_instance_validation_rejects_a_header_read_instance_refuses(theta, seed, message):
    # Each of these would write a header that read_instance refuses.
    with pytest.raises(DomainError, match=message):
        OmfInstance(n=1, p=1, theta=theta, v=np.eye(1), x=np.ones((1, 1)),
                    y=np.ones((1, 1)), seed=seed)


def test_hand_built_instance_survives_its_dump(tmp_path):
    # numpy scalars are stored as float and int, so the header reads 0.25,
    # not "np.float64(0.25)", which read_instance would refuse.
    instance = OmfInstance(n=1, p=2, theta=np.float64(0.25), v=-np.eye(1),
                           x=np.array([[0.0, 1.5]]), y=np.array([[0.0, -1.5]]),
                           seed=np.uint64(2**64 - 1))
    path = tmp_path / "instance.txt"
    write_instance(instance, path)
    assert path.read_text().splitlines()[0] == f"1 2 0.25 {2**64 - 1}"
    loaded = read_instance(path)
    assert (loaded.n, loaded.p, loaded.theta, loaded.seed) == (1, 2, 0.25, 2**64 - 1)
    assert (type(loaded.theta), type(instance.theta), type(instance.seed)) == (float, float, int)
    for name in ("v", "x", "y"):
        assert np.array_equal(getattr(loaded, name), getattr(instance, name))


# ---------------------------------------------------------- coverage check


def test_row_coverage_all_zero():
    report = row_coverage_check(np.zeros((3, 2)))
    assert report.covered is False
    assert report.uncovered_rows == (0, 1, 2)
    assert report.nonzeros_per_row == (0, 0, 0)


def test_row_coverage_identity_pattern():
    report = row_coverage_check(np.eye(3))
    assert report.covered is True
    assert report.uncovered_rows == ()
    assert report.nonzeros_per_row == (1, 1, 1)


def test_row_coverage_mixed():
    matrix = np.array([[0.0, 2.5], [0.0, 0.0], [-1e-300, 0.0]])
    report = row_coverage_check(matrix)
    assert report.covered is False
    assert report.uncovered_rows == (1,)
    assert report.nonzeros_per_row == (1, 0, 1)  # subnormal still counts


def test_row_coverage_rejects_bad_shapes():
    with pytest.raises(DomainError):
        row_coverage_check(np.zeros((0, 3)))
    with pytest.raises(DomainError):
        row_coverage_check(np.zeros(4))
    # No string equals 0, so a string matrix would read as covered.
    with pytest.raises(DomainError, match="numeric"):
        row_coverage_check([["0", "0"], ["0", "1"]])


def test_coverage_report_consistency_enforced():
    with pytest.raises(DomainError):
        CoverageReport(covered=True, uncovered_rows=(1,), nonzeros_per_row=(1, 0))
    with pytest.raises(DomainError):
        CoverageReport(covered=False, uncovered_rows=(), nonzeros_per_row=(1, 1))


# ------------------------------------------------------------- experiments


@pytest.mark.parametrize(
    "p, trials, name", [(6, 10.0, "trials"), (6, 0, "trials"), (6.0, 10, "p"), (0, 10, "p")]
)
def test_coverage_experiment_rejects_bad_integers(p, trials, name):
    with pytest.raises(DomainError, match=name):
        coverage_experiment(3, 0.5, p, trials, 1)


def test_coverage_experiment_dense_always_covered():
    estimate = coverage_experiment(2, 1.0, 1, 20, 6)
    assert estimate.mean == 1.0


def test_coverage_experiment_matches_closed_form():
    estimate = coverage_experiment(3, 0.5, 3, 10000, 8)
    truth = float(Fraction(343, 512))
    assert estimate.ci_low <= truth <= estimate.ci_high


def test_coverage_experiment_at_threshold():
    p_star = coverage_threshold(SparsityModel(3, 0.5), 0.1)
    assert p_star == 5
    estimate = coverage_experiment(3, 0.5, p_star, 10000, 9)
    assert estimate.mean >= 0.9 - 3.0 * estimate.std_error


def test_coverage_experiment_reproducible():
    assert coverage_experiment(3, 0.4, 4, 300, 12) == coverage_experiment(3, 0.4, 4, 300, 12)


# ------------------------------------------------------------------- dumps


def test_instance_dump_round_trip(tmp_path):
    instance = assemble_instance(4, 6, 0.3, 123)
    path = tmp_path / "instance.txt"
    write_instance(instance, path)
    loaded = read_instance(path)
    assert loaded.n == instance.n
    assert loaded.p == instance.p
    assert loaded.theta == instance.theta
    assert loaded.seed == instance.seed
    assert np.array_equal(loaded.v, instance.v)
    assert np.array_equal(loaded.x, instance.x)
    assert np.array_equal(loaded.y, instance.y)


def test_instance_dump_header_format(tmp_path):
    instance = assemble_instance(2, 3, 0.5, 9)
    path = tmp_path / "instance.txt"
    write_instance(instance, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 3 0.5 9"
    assert len(lines) == 1 + 3 * 2
    assert all(len(line.split()) == 2 for line in lines[1:3])  # V rows
    assert all(len(line.split()) == 3 for line in lines[3:7])  # X then Y rows


def test_read_instance_rejects_malformed(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("2 3 0.5\n")  # header too short
    with pytest.raises(DomainError):
        read_instance(path)
    path.write_text("2 3 0.5 9\n1.0 0.0\n")  # missing matrix rows
    with pytest.raises(DomainError):
        read_instance(path)
    instance = assemble_instance(2, 3, 0.5, 9)
    good = tmp_path / "good.txt"
    write_instance(instance, good)
    truncated = "\n".join(good.read_text().splitlines()[:-1]) + "\n"
    bad = tmp_path / "bad.txt"
    bad.write_text(truncated)
    with pytest.raises(DomainError):
        read_instance(bad)
    garbled = good.read_text().replace(".", "x", 1)
    bad.write_text(garbled)
    with pytest.raises(DomainError):
        read_instance(bad)
    # A well-formed body under a header outside the model's domain.
    body = good.read_text().split("\n", 1)[1]
    for header in ("2 3 5.0 9", "2 3 nan 9", "2 3 0.0 9", "2 3 0.5 -1", f"2 3 0.5 {10**23}"):
        bad.write_text(f"{header}\n{body}")
        with pytest.raises(DomainError, match="malformed instance header"):
            read_instance(bad)


def test_read_instance_rejects_malformed_matrix_rows_and_blocks(tmp_path):
    good = tmp_path / "good.txt"
    write_instance(assemble_instance(2, 3, 0.5, 9), good)
    header, *rows = good.read_text().splitlines()  # 2 V rows, then 2 X and 2 Y rows
    bad = tmp_path / "bad.txt"
    # A token that is no float, in the second V row.
    garbled = "x " + rows[1].split(" ", 1)[1]
    bad.write_text("\n".join([header, rows[0], garbled, *rows[2:]]) + "\n")
    with pytest.raises(DomainError, match="malformed matrix row"):
        read_instance(bad)
    # Every X row one entry short: a 2 x 2 block where X is 2 x 3.
    short = [row.rsplit(" ", 1)[0] for row in rows[2:4]]
    bad.write_text("\n".join([header, *rows[:2], *short, *rows[4:]]) + "\n")
    with pytest.raises(DomainError, match=r"malformed matrix block .*\(2, 2\)"):
        read_instance(bad)
