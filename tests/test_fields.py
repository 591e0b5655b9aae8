"""Torus calculus: differences, action, residuals, gradient, serialization."""

import io
import math

import numpy as np
import pytest

from crms.compatible import build_compatible, standard_triple
from crms.errors import DimensionMismatchError
from crms.fields import (
    BUILTIN_HAMILTONIANS,
    FieldState,
    HamiltonianSpec,
    TorusGrid,
    action,
    bridges_residual,
    ddw_residual,
    diff,
    l2_gradient,
    make_hamiltonian,
    momenta_from_positions,
    read_state,
    read_state_csv,
    write_state,
    write_state_csv,
)
from crms.sampling import random_crps_pair, random_smooth_state


def random_state(grid: TorusGrid, n: int, seed: int, scale: float = 1.0) -> FieldState:
    rng = np.random.default_rng(seed)
    return FieldState(grid, scale * rng.normal(size=(grid.n1, grid.n2, 4 * n)))


# --- grid and diff -----------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(3, 8)
    with pytest.raises(ValueError):
        TorusGrid(8, 8, l1=-1.0)


def test_diff_of_constant_is_zero():
    grid = TorusGrid(8, 8)
    values = np.full((8, 8, 4), 1.7)
    assert np.max(np.abs(diff(values, grid, 1))) == 0.0
    assert np.max(np.abs(diff(values, grid, 2))) == 0.0


def test_diff_eigenfunction_identity():
    # sin(t1) is an exact eigenfunction: D1 sin = cos(t1) sin(h1)/h1.
    grid = TorusGrid(64, 64)
    t1, _ = grid.coordinates()
    values = np.zeros((64, 64, 4))
    values[..., 0] = np.sin(t1)
    d1 = diff(values, grid, 1)
    expected = np.cos(t1) * (math.sin(grid.h1) / grid.h1)
    assert np.max(np.abs(d1[..., 0] - expected)) < 1e-13
    assert np.max(np.abs(diff(values, grid, 2))) == 0.0


def test_diff_is_skew_adjoint():
    grid = TorusGrid(16, 12, l1=5.0, l2=3.0)
    rng = np.random.default_rng(81)
    for direction in (1, 2):
        for _ in range(5):
            u = rng.normal(size=(16, 12, 4))
            v = rng.normal(size=(16, 12, 4))
            lhs = grid.cell_area * np.sum(diff(u, grid, direction) * v)
            rhs = grid.cell_area * np.sum(u * diff(v, grid, direction))
            assert abs(lhs + rhs) < 1e-12 * max(1.0, abs(lhs))


# --- Hamiltonians ------------------------------------------------------------


def test_builtin_hamiltonians_construct():
    for name in BUILTIN_HAMILTONIANS:
        ham = make_hamiltonian(name, 2, {"lambda": 0.7})
        assert ham.fiber_dim == 8


def test_unknown_hamiltonian_rejected():
    with pytest.raises(ValueError):
        make_hamiltonian("pendulum", 1)


def test_grossly_corrupted_gradient_rejected_at_construction():
    with pytest.raises(ValueError):
        make_hamiltonian("quadratic", 1, gradient_scale=1.001)


def test_subtly_corrupted_gradient_passes_construction():
    # Below the construction tolerance but above the gradcheck tolerance.
    ham = make_hamiltonian("quadratic", 1, gradient_scale=1.0 + 3e-6)
    assert ham.fiber_dim == 4


def test_custom_hamiltonian_with_wrong_gradient_rejected():
    with pytest.raises(ValueError):
        HamiltonianSpec(
            name="broken",
            fiber_dim=4,
            value=lambda t1, t2, z: np.sum(z**2, axis=-1),
            gradient=lambda t1, t2, z: z,  # off by a factor 2
        )


# --- action ------------------------------------------------------------------


def test_action_of_constant_state_with_zero_hamiltonian():
    grid = TorusGrid(8, 8)
    state = FieldState(grid, np.full((8, 8, 4), 0.3))
    assert action(state, make_hamiltonian("zero", 1)) == 0.0


def test_action_of_constant_hamiltonian_is_minus_volume():
    grid = TorusGrid(8, 8, l1=3.0, l2=5.0)
    state = FieldState(grid, np.zeros((8, 8, 4)))
    c = 0.9
    ham = HamiltonianSpec(
        name="const",
        fiber_dim=4,
        value=lambda t1, t2, z: np.full(np.shape(z)[:-1], c),
        gradient=lambda t1, t2, z: np.zeros_like(z),
    )
    assert action(state, ham) == pytest.approx(-c * 3.0 * 5.0, rel=1e-13)


def test_action_against_slow_double_loop_oracle():
    grid = TorusGrid(12, 10, l1=4.0, l2=7.0)
    state = random_state(grid, 2, seed=91)
    ham = make_hamiltonian("quadratic_p", 2)
    got = action(state, ham)

    # Independent oracle: explicit loops and compensated summation.
    v = state.values
    terms = []
    for i in range(grid.n1):
        for j in range(grid.n2):
            for a in range(2):
                q1, q2, p1, p2 = v[i, j, 4 * a : 4 * a + 4]
                d1q1 = (v[(i + 1) % grid.n1, j, 4 * a] - v[(i - 1) % grid.n1, j, 4 * a]) / (2 * grid.h1)
                d1q2 = (v[(i + 1) % grid.n1, j, 4 * a + 1] - v[(i - 1) % grid.n1, j, 4 * a + 1]) / (2 * grid.h1)
                d2q1 = (v[i, (j + 1) % grid.n2, 4 * a] - v[i, (j - 1) % grid.n2, 4 * a]) / (2 * grid.h2)
                d2q2 = (v[i, (j + 1) % grid.n2, 4 * a + 1] - v[i, (j - 1) % grid.n2, 4 * a + 1]) / (2 * grid.h2)
                terms.append(p1 * d1q1 + p2 * d1q2 + p1 * d2q2 - p2 * d2q1)
                terms.append(-0.5 * (p1 * p1 + p2 * p2))
    expected = grid.cell_area * math.fsum(terms)
    assert got == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))


# --- residuals ---------------------------------------------------------------


def test_bridges_residual_zero_at_flat_critical_point():
    grid = TorusGrid(8, 8)
    state = FieldState(grid, np.zeros((8, 8, 4)))
    r = bridges_residual(state, make_hamiltonian("quadratic_p", 1))
    assert np.max(np.abs(r)) == 0.0


def test_bridges_momentum_block_vanishes_after_elimination():
    grid = TorusGrid(32, 32)
    rng = np.random.default_rng(97)
    state = random_smooth_state(grid, 1, 0.8, rng)
    eliminated = momenta_from_positions(state)
    r = bridges_residual(eliminated, make_hamiltonian("quadratic_p", 1))
    assert np.max(np.abs(r[..., 2::4])) < 1e-14
    assert np.max(np.abs(r[..., 3::4])) < 1e-14
    # And the position block is the wide-stencil Laplacian defect.
    q1 = state.values[..., 0]
    lap = (
        (np.roll(q1, -2, 0) - 2 * q1 + np.roll(q1, 2, 0)) / (2 * grid.h1) ** 2
        + (np.roll(q1, -2, 1) - 2 * q1 + np.roll(q1, 2, 1)) / (2 * grid.h2) ** 2
    )
    assert np.max(np.abs(r[..., 0] - lap)) < 1e-12


def test_ddw_residual_trivial_cases():
    grid = TorusGrid(8, 8)
    ham = HamiltonianSpec(
        name="ddw_quadratic_p",
        fiber_dim=3,
        value=lambda t1, t2, z: 0.5 * (z[..., 1] ** 2 + z[..., 2] ** 2),
        gradient=lambda t1, t2, z: np.stack([np.zeros_like(z[..., 0]), z[..., 1], z[..., 2]], axis=-1),
    )
    zeros = np.zeros((8, 8, 3))
    assert np.max(np.abs(ddw_residual(grid, zeros, ham))) == 0.0


def test_ddw_residual_sine_substitution():
    grid = TorusGrid(64, 64)
    ham = HamiltonianSpec(
        name="ddw_quadratic_p",
        fiber_dim=3,
        value=lambda t1, t2, z: 0.5 * (z[..., 1] ** 2 + z[..., 2] ** 2),
        gradient=lambda t1, t2, z: np.stack([np.zeros_like(z[..., 0]), z[..., 1], z[..., 2]], axis=-1),
    )
    t1, _ = grid.coordinates()
    values = np.zeros((64, 64, 3))
    values[..., 0] = np.sin(t1)
    values[..., 1] = diff(values[..., 0], grid, 1)  # p1 from the second equation
    r = ddw_residual(grid, values, ham)
    # r_p vanish by construction; r_q is the discrete second derivative of q.
    assert np.max(np.abs(r[..., 1])) == 0.0
    assert np.max(np.abs(r[..., 2])) == 0.0
    factor = (math.sin(grid.h1) / grid.h1) ** 2
    assert np.max(np.abs(r[..., 0] + factor * np.sin(t1))) < 1e-13


# --- gradient ----------------------------------------------------------------


def test_gradient_zero_for_constant_state_zero_hamiltonian():
    grid = TorusGrid(8, 8)
    state = FieldState(grid, np.full((8, 8, 4), 0.4))
    g = l2_gradient(state, make_hamiltonian("zero", 1), standard_triple(1))
    assert np.max(np.abs(g)) == 0.0


def test_gradient_nonzero_off_criticality():
    grid = TorusGrid(8, 8)
    state = random_state(grid, 1, seed=101, scale=0.5)
    g = l2_gradient(state, make_hamiltonian("quadratic", 1), standard_triple(1))
    assert grid.cell_area * np.sum(g * g) > 0.0


def test_gradient_is_minus_bridges_residual():
    grid = TorusGrid(16, 16)
    state = random_state(grid, 2, seed=103)
    ham = make_hamiltonian("quartic", 2, {"lambda": 0.3})
    g = l2_gradient(state, ham, standard_triple(2))
    r = bridges_residual(state, ham)
    assert np.max(np.abs(g + r)) < 1e-13


def test_gradient_rejects_a_triple_the_action_is_not_built_from():
    # The action uses the standard pair; a compatible triple of another CRPS
    # pair gives a J1 ∂1 Z + J2 ∂2 Z - ∇H that is not its gradient.
    grid = TorusGrid(8, 8)
    state = random_state(grid, 2, seed=131)
    pair = random_crps_pair(2, np.random.default_rng(137))
    triple = build_compatible(pair.omega1, pair.omega2, pair.i_fiber)
    with pytest.raises(ValueError, match="standard pair"):
        l2_gradient(state, make_hamiltonian("quadratic", 2), triple)


def richardson_directional(state: FieldState, ham, delta: np.ndarray) -> float:
    d = []
    for eps in (1e-3, 1e-4, 1e-5):
        plus = action(state.with_values(state.values + eps * delta), ham)
        minus = action(state.with_values(state.values - eps * delta), ham)
        d.append((plus - minus) / (2.0 * eps))
    r1 = [(100.0 * d[i + 1] - d[i]) / 99.0 for i in range(2)]
    return (10_000.0 * r1[1] - r1[0]) / 9_999.0


def test_gradient_matches_richardson_differences():
    grid = TorusGrid(16, 16)
    state = random_state(grid, 1, seed=107, scale=0.6)
    ham = make_hamiltonian("quartic", 1, {"lambda": 0.5})
    triple = standard_triple(1)
    g = l2_gradient(state, ham, triple)
    rng = np.random.default_rng(109)
    for _ in range(5):
        delta = rng.normal(size=state.values.shape)
        pairing = grid.cell_area * np.sum(g * delta)
        fd = richardson_directional(state, ham, delta)
        assert abs(pairing - fd) / (abs(pairing) + 1e-30) < 1e-9


def test_laplace_recovery_identity():
    # Eliminating the momenta turns the position residual into the
    # nonlinear Laplace operator: r_q = Delta_h q + dV/dq, i.e. the gradient
    # block equals -Delta_h q - dV/dq.
    grid = TorusGrid(32, 32)
    lam = 0.7
    ham = make_hamiltonian("quadratic", 1, {"lambda": lam})
    rng = np.random.default_rng(113)
    for _ in range(5):
        state = momenta_from_positions(random_smooth_state(grid, 1, 1.0, rng))
        r = bridges_residual(state, ham)
        for c in (0, 1):
            q = state.values[..., c]
            lap = (
                (np.roll(q, -2, 0) - 2 * q + np.roll(q, 2, 0)) / (2 * grid.h1) ** 2
                + (np.roll(q, -2, 1) - 2 * q + np.roll(q, 2, 1)) / (2 * grid.h2) ** 2
            )
            assert np.max(np.abs(r[..., c] - (lap + lam * q))) < 1e-10


# --- serialization -----------------------------------------------------------


def test_binary_round_trip_is_exact():
    grid = TorusGrid(8, 12, l1=3.5, l2=2.25)
    state = random_state(grid, 2, seed=127)
    buf = io.BytesIO()
    write_state(state, buf)
    back = read_state(io.BytesIO(buf.getvalue()))
    assert back.grid == grid
    assert np.array_equal(back.values, state.values)


def test_binary_container_header(tmp_path):
    grid = TorusGrid(4, 4)
    state = FieldState(grid, np.zeros((4, 4, 4)))
    path = tmp_path / "state.crms"
    write_state(state, path)
    raw = path.read_bytes()
    assert raw[:4] == b"CRMS"
    # 4-byte magic, four u32 fields, two f64 periods, then the payload.
    assert len(raw) == 36 + 8 * 4 * 4 * 4


def test_binary_rejects_bad_magic():
    grid = TorusGrid(4, 4)
    state = FieldState(grid, np.zeros((4, 4, 4)))
    buf = io.BytesIO()
    write_state(state, buf)
    corrupted = b"XXXX" + buf.getvalue()[4:]
    with pytest.raises(ValueError):
        read_state(io.BytesIO(corrupted))


def test_csv_round_trip():
    grid = TorusGrid(5, 4, l1=1.0, l2=2.0)
    state = random_state(grid, 1, seed=131)
    buf = io.StringIO()
    write_state_csv(state, buf)
    back = read_state_csv(io.StringIO(buf.getvalue()), grid)
    assert np.array_equal(back.values, state.values)
    first_line = buf.getvalue().splitlines()[0]
    assert first_line.split(",")[:4] == ["i", "j", "t1", "t2"]


def _without_last_row(lines):
    return lines[:-1]


def _with_repeated_row(lines):
    return lines + lines[-1:]


def _with_short_header(lines):
    return [",".join(line.split(",")[:-2]) for line in lines]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without_last_row, "no row for grid point"),
        (_with_repeated_row, "appears twice"),
        (_with_short_header, "header"),
    ],
)
def test_csv_rejects_incomplete_files(edit, message):
    grid = TorusGrid(5, 4)
    buf = io.StringIO()
    write_state_csv(random_state(grid, 1, seed=132), buf)
    text = "\n".join(edit(buf.getvalue().splitlines())) + "\n"
    with pytest.raises(ValueError, match=message):
        read_state_csv(io.StringIO(text), grid)


def test_csv_rejects_points_outside_the_grid():
    buf = io.StringIO()
    write_state_csv(random_state(TorusGrid(5, 4), 1, seed=133), buf)
    with pytest.raises(ValueError, match="outside"):
        read_state_csv(io.StringIO(buf.getvalue()), TorusGrid(4, 4))


def test_state_validation():
    grid = TorusGrid(8, 8)
    with pytest.raises(DimensionMismatchError):
        FieldState(grid, np.zeros((8, 8, 6)))
    with pytest.raises(ValueError):
        FieldState(grid, np.full((8, 8, 4), np.nan))
