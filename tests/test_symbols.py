"""Principal-symbol assembly and the ellipticity dichotomy."""

import numpy as np
import pytest

from crms.errors import DimensionMismatchError
from crms.fields import FieldState, TorusGrid, bridges_residual, make_hamiltonian
from crms.symbols import OPERATOR_TAGS, principal_symbol


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


def plane_wave_symbol(grid: TorusGrid, k, n: int) -> np.ndarray:
    # The centred difference maps cos(k·x) to -sin(k·x) s with
    # s_j = sin(k_j h_j) / h_j, so on Z = cos(k·x) v the written-out residual
    # (H = 0) is -sin(k·x) times the Bridges symbol at s applied to v.  Each
    # column is read off that residual for one fiber unit vector v.
    x1, x2 = grid.coordinates()
    phase = k[0] * x1 + k[1] * x2
    sine = np.sin(phase)
    ham = make_hamiltonian("zero", n)
    columns = []
    for v in np.eye(4 * n):
        residual = bridges_residual(FieldState(grid, np.cos(phase)[..., None] * v), ham)
        column = -np.tensordot(sine, residual, axes=2) / np.sum(sine * sine)
        assert np.max(np.abs(residual + sine[..., None] * column)) < 1e-12
        columns.append(column)
    return np.column_stack(columns)


def wave_covector(grid: TorusGrid, k) -> np.ndarray:
    return np.array([np.sin(k[0] * grid.h1) / grid.h1, np.sin(k[1] * grid.h2) / grid.h2])


def bridges_symbol(xi: np.ndarray, n: int) -> np.ndarray:
    # The symbol is linear in the covector: combine the unit-covector symbols
    # read off the plane waves k = (1, 0) and (0, 2).
    grid = TorusGrid(16, 16)
    unit = [plane_wave_symbol(grid, k, n) / wave_covector(grid, k)[j] for j, k in enumerate(((1, 0), (0, 2)))]
    return xi[0] * unit[0] + xi[1] * unit[1]


def ddw_symbol(xi: np.ndarray, n: int) -> np.ndarray:
    # Rows (r_q, r_p1, r_p2), columns (q, p1, p2), one block per component.
    x1, x2 = xi
    block = np.array([[0.0, x1, x2], [-x1, 0.0, 0.0], [-x2, 0.0, 0.0]])
    return np.kron(np.eye(n), block)


def kernel_dim(matrix: np.ndarray) -> int:
    return matrix.shape[0] - int(np.linalg.matrix_rank(matrix))


def test_bridges_unit_covector_n1():
    xi = np.array([1.0, 0.0])
    report = principal_symbol("Bridges", xi, 1)
    symbol = bridges_symbol(xi, 1)
    assert report.kernel_dim == kernel_dim(symbol) == 0
    assert abs(abs(report.determinant) - 1.0) < 1e-12
    assert abs(report.determinant - brute_force_det(symbol)) < 1e-12


def test_bridges_determinant_formula():
    rng = np.random.default_rng(139)
    for _ in range(10):
        a, b = rng.normal(size=2)
        report = principal_symbol("Bridges", np.array([a, b]), 1)
        assert abs(abs(report.determinant) - (a * a + b * b) ** 2) < 1e-10 * max(1.0, (a * a + b * b) ** 2)
        assert abs(report.determinant - brute_force_det(bridges_symbol(np.array([a, b]), 1))) < 1e-10


@pytest.mark.parametrize("size", [9, 16])
@pytest.mark.parametrize("n", [1, 2])
def test_bridges_symbol_is_that_of_the_field_residual(size, n):
    grid = TorusGrid(size, size)
    for k in ((1, 0), (0, 2), (3, -1)):
        s = wave_covector(grid, k)
        symbol = plane_wave_symbol(grid, k, n)
        report = principal_symbol("Bridges", s, n)
        assert report.kernel_dim == kernel_dim(symbol) == 0
        assert abs(report.determinant - np.linalg.det(symbol)) < 1e-12 * max(1.0, abs(report.determinant))


def test_ddw_symbol_kernel_is_the_transverse_momentum():
    xi = np.array([1.0, 0.0])
    report = principal_symbol("DDW", xi, 1)
    symbol = ddw_symbol(xi, 1)
    assert np.array_equal(symbol @ np.array([0.0, 0.0, 1.0]), np.zeros(3))
    assert report.kernel_dim == kernel_dim(symbol) == 1
    assert report.determinant == pytest.approx(brute_force_det(symbol), abs=1e-15)


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
        assert principal_symbol("DDW", xi, n).kernel_dim == kernel_dim(ddw_symbol(xi, n)) == n


def test_block_structure_sizes():
    # At n = 3 the symbols are 12 x 12 (Bridges) and 9 x 9 (DDW).
    xi = np.array([1.0, 2.0])
    bridges, ddw = bridges_symbol(xi, 3), ddw_symbol(xi, 3)
    assert bridges.shape == (12, 12) and ddw.shape == (9, 9)
    report = principal_symbol("Bridges", xi, 3)
    assert report.kernel_dim == kernel_dim(bridges) == 0
    assert abs(report.determinant - np.linalg.det(bridges)) < 1e-10 * abs(report.determinant)
    report = principal_symbol("DDW", xi, 3)
    assert report.kernel_dim == kernel_dim(ddw) == 3
    assert report.determinant == pytest.approx(np.linalg.det(ddw), abs=1e-12)


@pytest.mark.parametrize("tag", OPERATOR_TAGS)
@pytest.mark.parametrize("xi", [(0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0), (1e-320, 0.0)])
def test_covector_it_cannot_judge_is_rejected(tag, xi):
    # Beside zero: NaN breaks the SVD, inf reports a kernel of 3 where it is n = 1,
    # and a subnormal |xi| underflows the rank threshold 1e-10 sv[0] to 0.
    with pytest.raises(ValueError, match="covector must be finite"):
        principal_symbol(tag, np.array(xi), 1)


def test_bad_tag_rejected():
    with pytest.raises(ValueError):
        principal_symbol("Laplace", np.array([1.0, 0.0]), 1)


def test_bad_covector_shape_rejected():
    with pytest.raises(DimensionMismatchError):
        principal_symbol("DDW", np.array([1.0, 0.0, 0.0]), 1)
