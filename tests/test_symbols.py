"""Principal-symbol assembly and the ellipticity dichotomy."""

import numpy as np
import pytest

from crms.errors import DimensionMismatchError
from crms.fields import FieldState, TorusGrid, bridges_residual, make_hamiltonian
from crms.symbols import principal_symbol


def brute_force_det(matrix: np.ndarray) -> float:
    # Laplace expansion; independent of numpy's LU-based determinant.
    m = np.asarray(matrix)
    if m.shape == (1, 1):
        return float(m[0, 0])
    total = 0.0
    for j in range(m.shape[1]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * brute_force_det(minor)
    return total


def test_bridges_unit_covector_n1():
    report = principal_symbol("Bridges", np.array([1.0, 0.0]), 1)
    assert report.kernel_dim == 0
    assert abs(abs(report.determinant) - 1.0) < 1e-12
    assert report.symbol_matrix.shape == (4, 4)
    assert abs(report.determinant - brute_force_det(report.symbol_matrix)) < 1e-12


def test_bridges_determinant_formula():
    rng = np.random.default_rng(139)
    for _ in range(10):
        a, b = rng.normal(size=2)
        report = principal_symbol("Bridges", np.array([a, b]), 1)
        assert abs(abs(report.determinant) - (a * a + b * b) ** 2) < 1e-10 * max(1.0, (a * a + b * b) ** 2)
        assert abs(report.determinant - brute_force_det(report.symbol_matrix)) < 1e-10


@pytest.mark.parametrize("size", [9, 16])
@pytest.mark.parametrize("n", [1, 2])
def test_bridges_symbol_is_that_of_the_field_residual(size, n):
    # The centred difference maps cos(k·x) to -sin(k·x) s with
    # s_j = sin(k_j h_j) / h_j, so on Z = cos(k·x) v the written-out residual
    # (H = 0) is -sin(k·x) times the Bridges symbol at s applied to v.
    grid = TorusGrid(size, size)
    x1, x2 = grid.coordinates()
    v = np.random.default_rng([size, n]).normal(size=4 * n)
    for k in ((1, 0), (0, 2), (3, -1)):
        phase = k[0] * x1 + k[1] * x2
        s = np.array([np.sin(k[0] * grid.h1) / grid.h1, np.sin(k[1] * grid.h2) / grid.h2])
        state = FieldState(grid, np.cos(phase)[..., None] * v)
        expected = -np.sin(phase)[..., None] * (principal_symbol("Bridges", s, n).symbol_matrix @ v)
        residual = bridges_residual(state, make_hamiltonian("zero", n))
        assert np.max(np.abs(residual - expected)) < 1e-12


def test_ddw_symbol_kernel_is_the_transverse_momentum():
    report = principal_symbol("DDW", np.array([1.0, 0.0]), 1)
    assert report.kernel_dim == 1
    assert report.determinant == pytest.approx(0.0, abs=1e-15)
    e_p2 = np.array([0.0, 0.0, 1.0])
    assert np.array_equal(report.symbol_matrix @ e_p2, np.zeros(3))


def test_symbol_dichotomy_over_seeded_covectors():
    rng = np.random.default_rng(149)
    for _ in range(50):
        xi = rng.normal(size=2)
        if np.hypot(*xi) < 1e-6:
            continue
        for n in (1, 2):
            assert principal_symbol("Bridges", xi, n).kernel_dim == 0
            assert principal_symbol("DDW", xi, n).kernel_dim >= 1


def test_ddw_kernel_dimension_scales_with_n():
    xi = np.array([0.3, -0.8])
    for n in (1, 2, 3):
        assert principal_symbol("DDW", xi, n).kernel_dim == n


def test_block_structure_sizes():
    xi = np.array([1.0, 2.0])
    assert principal_symbol("Bridges", xi, 3).symbol_matrix.shape == (12, 12)
    assert principal_symbol("DDW", xi, 3).symbol_matrix.shape == (9, 9)


def test_zero_covector_rejected():
    with pytest.raises(ValueError):
        principal_symbol("Bridges", np.zeros(2), 1)


def test_bad_tag_rejected():
    with pytest.raises(ValueError):
        principal_symbol("Laplace", np.array([1.0, 0.0]), 1)


def test_bad_covector_shape_rejected():
    with pytest.raises(DimensionMismatchError):
        principal_symbol("DDW", np.array([1.0, 0.0, 0.0]), 1)
