"""Gradient-flow stepping, traces, and Fueter-residual diagnostics."""

import io

import numpy as np
import pytest

from crms.compatible import standard_triple
from crms.errors import ConfigError, FlowDivergenceError
from crms.fields import FieldState, TorusGrid, action, l2_gradient, make_hamiltonian
from crms.flow import STABILITY_KAPPA, FlowConfig, flow_step, fueter_residual, run_flow, write_trace_csv
from crms.sampling import random_smooth_state


GRID = TorusGrid(16, 16)
TRIPLE = standard_triple(1)


def smooth(seed: int, amplitude: float = 0.1, grid: TorusGrid = GRID, n: int = 1) -> FieldState:
    return random_smooth_state(grid, n, amplitude, np.random.default_rng(seed))


# --- config ------------------------------------------------------------------


def test_flow_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(ds=-0.1, max_steps=10)
    with pytest.raises(ConfigError):
        FlowConfig(ds=0.1, max_steps=10, integrator="leapfrog")
    with pytest.raises(ConfigError):
        FlowConfig(ds=0.1, max_steps=-1)


def test_stability_bound_rejects_large_steps():
    cfg = FlowConfig(ds=10.0 * 0.2 * GRID.h1, max_steps=10)
    with pytest.raises(ConfigError):
        cfg.check_stability(GRID)
    FlowConfig(ds=0.19 * GRID.h1, max_steps=10).check_stability(GRID)


# --- flow_step ---------------------------------------------------------------


def test_critical_state_is_a_fixed_point():
    ham = make_hamiltonian("quadratic", 1)
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    stepped = flow_step(state, ham, TRIPLE, ds=0.01)
    assert np.array_equal(stepped.values, state.values)


def test_euler_step_matches_definition():
    ham = make_hamiltonian("quartic", 1, {"lambda": 0.4})
    state = smooth(1)
    ds = 0.01
    stepped = flow_step(state, ham, TRIPLE, ds=ds, integrator="explicit_euler")
    expected = state.values - ds * l2_gradient(state, ham, TRIPLE)
    assert np.array_equal(stepped.values, expected)


def test_small_step_decreases_the_action():
    ham = make_hamiltonian("quadratic", 1)
    state = smooth(2)
    ds = 0.1 * GRID.h1
    stepped = flow_step(state, ham, TRIPLE, ds=ds)
    assert action(stepped, ham) < action(state, ham)


def test_rk4_step_differs_from_euler_at_higher_order():
    ham = make_hamiltonian("quadratic", 1)
    state = smooth(3)
    ds = 0.02
    euler = flow_step(state, ham, TRIPLE, ds=ds, integrator="explicit_euler")
    rk4 = flow_step(state, ham, TRIPLE, ds=ds, integrator="rk4")
    gap = np.max(np.abs(euler.values - rk4.values))
    assert 0.0 < gap < ds * ds


@pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
def test_divergent_values_raise(integrator):
    # The cubic gradient of the quartic term overflows at this magnitude.
    ham = make_hamiltonian("quartic", 1)
    huge = FieldState(GRID, np.full((16, 16, 4), 1e200))
    with pytest.raises(FlowDivergenceError):
        flow_step(huge, ham, TRIPLE, ds=0.01, integrator=integrator, step=7)


# --- run_flow ----------------------------------------------------------------


def test_critical_initial_converges_at_step_zero():
    ham = make_hamiltonian("zero", 1)
    state = FieldState(GRID, np.full((16, 16, 4), 0.25))
    trace = run_flow(state, ham, TRIPLE, FlowConfig(ds=0.01, max_steps=50))
    assert trace.converged
    assert len(trace.steps) == 1
    assert trace.grad_norms[0] == 0.0


def test_monotone_descent_on_seeded_runs():
    # Step counts chosen to keep the state inside the descent window of each
    # Hamiltonian (the quartic Hessian grows with the field amplitude).
    cases = (
        ("quadratic", 1.0, 4, 0.1 * GRID.h1, 200),
        ("quartic", 0.3, 5, 0.02 * GRID.h1, 40),
        ("cosine", 0.5, 6, 0.1 * GRID.h1, 200),
    )
    for name, lam, seed, ds, steps in cases:
        ham = make_hamiltonian(name, 1, {"lambda": lam})
        cfg = FlowConfig(ds=ds, max_steps=steps, grad_tolerance=1e-30)
        trace = run_flow(smooth(seed, amplitude=0.05), ham, TRIPLE, cfg)
        a = trace.actions
        assert np.all(np.diff(a) <= 1e-12 * (1.0 + np.abs(a[:-1])))


def test_energy_identity_at_half_stability_bound():
    # A(Z_0) - A(Z_K) >= (1 - eps) ds sum ||grad||_L2^2 with eps <= 0.2.
    ham = make_hamiltonian("quadratic", 1)
    ds = 0.5 * 0.2 * GRID.h1
    cfg = FlowConfig(ds=ds, max_steps=150, grad_tolerance=1e-30, record_every=1)
    trace = run_flow(smooth(7), ham, TRIPLE, cfg)
    dissipated = 0.0
    for state in trace.states[:-1]:
        g = l2_gradient(state, ham, TRIPLE)
        dissipated += GRID.cell_area * float(np.sum(g * g))
    drop = trace.actions[0] - trace.actions[-1]
    assert drop >= (1.0 - 0.2) * ds * dissipated


def test_indefinite_action_makes_long_runs_diverge():
    # The action is strongly indefinite, so the forward flow blows up from
    # generic data; the error carries the step index and the partial trace.
    ham = make_hamiltonian("quadratic", 1)
    cfg = FlowConfig(ds=0.2 * GRID.h1, max_steps=50_000, grad_tolerance=1e-8)
    with pytest.raises(FlowDivergenceError) as excinfo:
        run_flow(smooth(8), ham, TRIPLE, cfg)
    err = excinfo.value
    assert err.step is not None and err.step > 10
    assert err.trace is not None
    assert np.all(np.isfinite(err.trace.steps))
    # Descent still holds along the recorded prefix.
    a = err.trace.actions
    assert np.all(np.diff(a) <= 1e-10 * (1.0 + np.abs(a[:-1])))


def test_rk4_stage_overflow_is_a_divergence():
    # An RK4 stage overflows from a finite state; the run must still end in
    # FlowDivergenceError with a finite prefix, not a ValueError.
    grid = TorusGrid(16, 20, l1=3.0, l2=5.0)
    ham = make_hamiltonian("quartic", 1, {"lambda": 0.6})
    cfg = FlowConfig(ds=0.25 * min(grid.h1, grid.h2), max_steps=40, integrator="rk4")
    with pytest.raises(FlowDivergenceError) as excinfo:
        run_flow(smooth(5, grid=grid), ham, TRIPLE, cfg)
    err = excinfo.value
    assert err.step == 17
    assert len(err.trace.steps) == 18
    assert np.all(np.isfinite(err.trace.steps))
    assert np.all(np.isfinite(err.trace.final_state.values))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
@pytest.mark.parametrize("record_every", [1, 3])
def test_run_flow_matches_a_loop_over_flow_step(n, integrator, record_every):
    # run_flow's rows, recorded states and final state are exactly those of
    # a plain loop over the public flow_step, l2_gradient and action.
    ham = make_hamiltonian("cosine", n, {"lambda": 0.5})
    triple = standard_triple(n)
    ds = 0.5 * STABILITY_KAPPA[integrator] * GRID.h1
    cfg = FlowConfig(ds=ds, max_steps=10, grad_tolerance=1e-30, integrator=integrator,
                     record_every=record_every)
    states = [smooth(13, n=n)]
    trace = run_flow(states[0], ham, triple, cfg)
    for k in range(cfg.max_steps):
        states.append(flow_step(states[-1], ham, triple, ds, integrator, step=k))
    rows = [(k * ds, action(st, ham), float(np.max(np.abs(l2_gradient(st, ham, triple)))))
            for k, st in enumerate(states)]
    assert np.array_equal(trace.steps, np.array(rows))
    recorded = states[::record_every]
    assert len(trace.states) == len(recorded)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(trace.states, recorded))
    assert np.array_equal(trace.final_state.values, states[-1].values)


def test_fixed_point_soundness_of_converged_traces():
    from crms.fields import bridges_residual

    ham = make_hamiltonian("zero", 1)
    state = FieldState(GRID, np.full((16, 16, 4), 0.25))
    tol = 1e-8
    trace = run_flow(state, ham, TRIPLE, FlowConfig(ds=0.01, max_steps=10, grad_tolerance=tol))
    assert trace.converged
    residual = float(np.max(np.abs(bridges_residual(trace.final_state, ham))))
    assert residual < 10.0 * tol


def test_determinism_of_traces():
    ham = make_hamiltonian("quartic", 1, {"lambda": 0.2})
    cfg = FlowConfig(ds=0.02 * GRID.h1, max_steps=40, grad_tolerance=1e-30)
    t1 = run_flow(smooth(9), ham, TRIPLE, cfg)
    t2 = run_flow(smooth(9), ham, TRIPLE, cfg)
    assert np.array_equal(t1.steps, t2.steps)
    assert np.array_equal(t1.final_state.values, t2.final_state.values)


# --- fueter_residual ---------------------------------------------------------


def test_constant_trajectory_at_critical_point_has_zero_residual():
    ham = make_hamiltonian("quadratic", 1)
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    residual = fueter_residual([state, state, state], 0.01, ham, TRIPLE)
    assert residual == 0.0


def test_short_trajectory_rejected():
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    with pytest.raises(ValueError):
        fueter_residual([state, state], 0.01, make_hamiltonian("zero", 1), TRIPLE)


def test_euler_residual_is_first_order_in_ds():
    ham = make_hamiltonian("quadratic", 1)
    init = smooth(10, amplitude=0.05)
    residuals = []
    for ds in (0.02, 0.01, 0.005):
        cfg = FlowConfig(ds=ds, max_steps=int(round(0.4 / ds)), grad_tolerance=1e-30, record_every=1)
        trace = run_flow(init, ham, TRIPLE, cfg)
        residuals.append(fueter_residual(trace.states, ds, ham, TRIPLE))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 0.4 < fine / coarse < 0.6


def test_rk4_residual_scales_with_grid_under_coupled_steps():
    # With ds tied to h, the rk4 trajectory residual is dominated by the
    # second-order term and drops by about 4 under grid doubling.
    ham = make_hamiltonian("quadratic", 1)
    residuals = []
    for size in (16, 32):
        grid = TorusGrid(size, size)
        init = random_smooth_state(grid, 1, 0.05, np.random.default_rng(11))
        ds = 0.1 * grid.h1
        cfg = FlowConfig(ds=ds, max_steps=int(round(0.4 / ds)), grad_tolerance=1e-30,
                         integrator="rk4", record_every=1)
        trace = run_flow(init, ham, TRIPLE, cfg)
        residuals.append(fueter_residual(trace.states, ds, ham, TRIPLE))
    assert 2.8 < residuals[0] / residuals[1] < 5.2


def test_trace_csv_export():
    ham = make_hamiltonian("quadratic", 1)
    cfg = FlowConfig(ds=0.05 * GRID.h1, max_steps=5, grad_tolerance=1e-30)
    trace = run_flow(smooth(12), ham, TRIPLE, cfg)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,s,action,grad_norm"
    assert len(lines) == len(trace.steps) + 1
