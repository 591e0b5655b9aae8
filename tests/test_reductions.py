"""Exact reductions of the field theory: to loops, and to one complex dimension.

A field constant in x2, Z(x1, x2) = z(x1), has a zero x2-difference, so its L² gradient is the
loop gradient J1 D1 z - ∇H(z) in every column: the gradient of the discrete symplectic action of
loops a(z) = h1 sum[1/2 z·J1 D1 z - H(z)], whose gradient lines solve Floer's equation.  The
field's action is l2 a(z).  Fields constant in x1 give the same with J2, D2 and l1.  The standard
pair is block diagonal and every built-in a sum over the complex dimensions, so at n = 2 the
gradient and the flow split into two n = 1 problems on the fiber halves.
"""

import numpy as np
import pytest

from crms.fields import BUILTIN_HAMILTONIANS, FieldState, TorusGrid, action, l2_gradient, make_hamiltonian
from crms.flow import FlowConfig, run_flow, stability_bound
from oracles import loop_operator

GRIDS = [TorusGrid(16, 16), TorusGrid(15, 12, 3.0, 5.0), TorusGrid(7, 11, 1.3, 2.9)]
GRID_IDS = ["16x16", "15x12", "7x11"]
ODD = GRIDS[1]


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def sector_field(grid: TorusGrid, z: np.ndarray, direction: int) -> FieldState:
    """The field that repeats the loop z along x2 (direction 1) or along x1 (direction 2)."""
    if direction == 1:
        return FieldState(grid, np.repeat(z[:, None, :], grid.n2, axis=1))
    return FieldState(grid, np.repeat(z[None, :, :], grid.n1, axis=0))


def trajectory(initial: FieldState, ham, integrator: str, steps: int) -> tuple[FieldState, ...]:
    """Every state of a run of ``steps`` steps at half the stability bound."""
    ds = 0.5 * stability_bound(integrator, initial.grid)
    return run_flow(initial, ham, FlowConfig(ds=ds, max_steps=steps, integrator=integrator)).states


@pytest.mark.parametrize("direction", [1, 2])
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", BUILTIN_HAMILTONIANS)
def test_sector_gradient_is_the_loop_gradient_bitwise(name, n, grid, direction):
    ham = make_hamiltonian(name, n, lam=0.8)
    size, h, length = (grid.n1, grid.h1, grid.l2) if direction == 1 else (grid.n2, grid.h2, grid.l1)
    z = np.random.default_rng(41).normal(size=(size, 4 * n))
    state = sector_field(grid, z, direction)
    jdz = loop_operator(z, h, direction)
    loop = jdz - ham.gradient(z)
    g = l2_gradient(state, ham)
    for row in np.moveaxis(g, 2 - direction, 0):  # each slice along the repeated axis
        assert same_bytes(row, loop)
    loop_action = h * (0.5 * np.sum(z * jdz) - np.sum(ham.value(z)))
    assert abs(action(state, ham) - length * loop_action) <= 1e-14 * abs(length * loop_action)


def test_a_field_off_the_sector_misses_the_loop_gradient():
    # Negative control: column 4 of the x2-constant field moved by 1e-3 changes the gradient in columns 3, 4 and 5.
    ham = make_hamiltonian("cosine", 2, lam=0.8)
    z = np.random.default_rng(41).normal(size=(ODD.n1, 8))
    values = sector_field(ODD, z, 1).values.copy()
    values[:, 4] += 1e-3
    g = l2_gradient(FieldState(ODD, values), ham)
    loop = loop_operator(z, ODD.h1, 1) - ham.gradient(z)
    assert [j for j in range(ODD.n2) if not same_bytes(g[:, j], loop)] == [3, 4, 5]


@pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
def test_flows_keep_a_sector_state_in_its_sector_bitwise(integrator):
    ham = make_hamiltonian("cosine", 2, lam=0.8)
    z = 0.5 * np.random.default_rng(43).normal(size=(ODD.n1, 8))
    states = trajectory(sector_field(ODD, z, 1), ham, integrator, 200)
    assert len(states) == 201
    for state in states:
        v = state.values
        assert all(same_bytes(v[:, j], v[:, 0]) for j in range(1, ODD.n2))


@pytest.mark.parametrize("name", BUILTIN_HAMILTONIANS)
def test_n2_gradient_and_action_split_into_two_n1_problems(name):
    values = np.random.default_rng(47).normal(size=(ODD.n1, ODD.n2, 8))
    whole = FieldState(ODD, values)
    halves = [FieldState(ODD, values[..., :4]), FieldState(ODD, values[..., 4:])]
    ham2, ham1 = make_hamiltonian(name, 2, lam=0.8), make_hamiltonian(name, 1, lam=0.8)
    split = np.concatenate([l2_gradient(half, ham1) for half in halves], axis=-1)
    assert same_bytes(l2_gradient(whole, ham2), split)
    parts = sum(action(half, ham1) for half in halves)
    assert abs(action(whole, ham2) - parts) <= 1e-14 * abs(parts)


def test_n2_rk4_flow_splits_into_two_n1_flows_bitwise():
    values = 0.5 * np.random.default_rng(53).normal(size=(ODD.n1, ODD.n2, 8))
    ham2, ham1 = make_hamiltonian("cosine", 2, lam=0.8), make_hamiltonian("cosine", 1, lam=0.8)
    whole = trajectory(FieldState(ODD, values), ham2, "rk4", 20)
    first, second = (trajectory(FieldState(ODD, values[..., c]), ham1, "rk4", 20) for c in (slice(0, 4), slice(4, 8)))
    assert len(whole) == len(first) == len(second) == 21
    for w, a, b in zip(whole, first, second):
        assert same_bytes(w.values, np.concatenate([a.values, b.values], axis=-1))
