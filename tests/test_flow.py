"""Gradient-flow stepping, traces, and Fueter-residual diagnostics."""

import dataclasses

import numpy as np
import pytest

from crms.errors import ConfigError, DimensionMismatchError, FlowDivergenceError
from crms.fields import FieldState, TorusGrid, action, l2_gradient, make_hamiltonian
from crms.fields import _FieldOperator, _field_operator
from crms.linalg import standard_complex_structure, standard_fiber_forms
from crms.flow import STABILITY_KAPPA, FlowConfig, flow_step, fueter_residual, run_flow, write_trace_csv
from crms.sampling import random_smooth_state


GRID = TorusGrid(16, 16)


def smooth(seed: int, amplitude: float = 0.1, grid: TorusGrid = GRID, n: int = 1) -> FieldState:
    return random_smooth_state(grid, n, amplitude, np.random.default_rng(seed))


def one_step(ds: float, integrator: str = "explicit_euler") -> FlowConfig:
    return FlowConfig(ds=ds, max_steps=1, integrator=integrator)


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


@pytest.mark.parametrize("ds", [0.0, -0.01, float("nan"), float("inf"), -float("inf")])
def test_step_that_is_not_positive_and_finite_rejected(ds):
    # A bare NaN step ended flow_step in a FlowDivergenceError and made every
    # Fueter difference NaN, which max() skipped; a negative one raised the
    # action.  Both read ds only from a FlowConfig, which rejects it first.
    ham = make_hamiltonian("zero", 1)
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    with pytest.raises(TypeError):
        flow_step(state, ham, ds=ds, gradient=state.values)
    with pytest.raises(ConfigError, match="ds must be positive and finite"):
        flow_step(state, ham, one_step(ds), gradient=state.values)
    with pytest.raises(ConfigError, match="ds must be positive and finite"):
        fueter_residual([state] * 3, one_step(ds), ham)


def test_unknown_integrator_rejected():
    ham = make_hamiltonian("zero", 1)
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    with pytest.raises(TypeError):
        flow_step(state, ham, one_step(0.01), integrator="leapfrog", gradient=state.values)
    with pytest.raises(ConfigError, match="integrator must be one of"):
        flow_step(state, ham, one_step(0.01, "leapfrog"), gradient=state.values)
    with pytest.raises(ConfigError, match="integrator must be one of"):
        fueter_residual([state] * 3, one_step(0.01, "leapfrog"), ham)


# --- flow_step ---------------------------------------------------------------


def test_critical_state_is_a_fixed_point():
    ham = make_hamiltonian("quadratic", 1)
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    stepped = flow_step(state, ham, one_step(0.01), gradient=l2_gradient(state, ham))
    assert np.array_equal(stepped.values, state.values)


def test_euler_step_matches_definition():
    ham = make_hamiltonian("quartic", 1, {"lambda": 0.4})
    state = smooth(1)
    ds = 0.01
    gradient = l2_gradient(state, ham)
    stepped = flow_step(state, ham, one_step(ds), gradient=gradient)
    expected = state.values - ds * gradient
    assert np.array_equal(stepped.values, expected)


def test_small_step_decreases_the_action():
    ham = make_hamiltonian("quadratic", 1)
    state = smooth(2)
    ds = 0.1 * GRID.h1
    stepped = flow_step(state, ham, one_step(ds), gradient=l2_gradient(state, ham))
    assert action(stepped, ham) < action(state, ham)


def test_rk4_step_differs_from_euler_at_higher_order():
    ham = make_hamiltonian("quadratic", 1)
    state = smooth(3)
    ds = 0.02
    gradient = l2_gradient(state, ham)
    euler = flow_step(state, ham, one_step(ds), gradient=gradient)
    rk4 = flow_step(state, ham, one_step(ds, "rk4"), gradient=gradient)
    gap = np.max(np.abs(euler.values - rk4.values))
    assert 0.0 < gap < ds * ds


@pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
def test_divergent_values_raise(integrator):
    # The cubic gradient of the quartic term overflows at this magnitude.
    ham = make_hamiltonian("quartic", 1)
    huge = FieldState(GRID, np.full((16, 16, 4), 1e200))
    with np.errstate(over="ignore"):
        gradient = l2_gradient(huge, ham)
    with pytest.raises(FlowDivergenceError):
        flow_step(huge, ham, one_step(0.01, integrator), step=7, gradient=gradient)


# --- run_flow ----------------------------------------------------------------


def test_critical_initial_converges_at_step_zero():
    ham = make_hamiltonian("zero", 1)
    state = FieldState(GRID, np.full((16, 16, 4), 0.25))
    trace = run_flow(state, ham, FlowConfig(ds=0.01, max_steps=50))
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
        trace = run_flow(smooth(seed, amplitude=0.05), ham, cfg)
        a = trace.actions
        assert np.all(np.diff(a) <= 1e-12 * (1.0 + np.abs(a[:-1])))


def test_energy_identity_at_half_stability_bound():
    # A(Z_0) - A(Z_K) >= (1 - eps) ds sum ||grad||_L2^2 with eps <= 0.2.
    ham = make_hamiltonian("quadratic", 1)
    ds = 0.5 * 0.2 * GRID.h1
    cfg = FlowConfig(ds=ds, max_steps=150, grad_tolerance=1e-30, record_every=1)
    trace = run_flow(smooth(7), ham, cfg)
    dissipated = 0.0
    for state in trace.states[:-1]:
        g = l2_gradient(state, ham)
        dissipated += GRID.cell_area * float(np.sum(g * g))
    drop = trace.actions[0] - trace.actions[-1]
    assert drop >= (1.0 - 0.2) * ds * dissipated


def test_indefinite_action_makes_long_runs_diverge():
    # The action is strongly indefinite, so the forward flow blows up from
    # generic data; the error carries the step index and the partial trace.
    ham = make_hamiltonian("quadratic", 1)
    cfg = FlowConfig(ds=0.2 * GRID.h1, max_steps=50_000, grad_tolerance=1e-8)
    with pytest.raises(FlowDivergenceError) as excinfo:
        run_flow(smooth(8), ham, cfg)
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
        run_flow(smooth(5, grid=grid), ham, cfg)
    err = excinfo.value
    assert err.step == 17
    assert len(err.trace.steps) == 18
    assert np.all(np.isfinite(err.trace.steps))
    assert np.all(np.isfinite(err.trace.final_state.values))


def test_traces_hold_read_only_rows_on_every_path():
    ham = make_hamiltonian("quadratic", 1)
    finished = run_flow(smooth(3), ham, FlowConfig(ds=0.01, max_steps=4))
    # A state of 1e200 diverges in the step-0 diagnostics: no rows.
    with pytest.raises(FlowDivergenceError) as excinfo:
        run_flow(FieldState(GRID, np.full((16, 16, 4), 1e200)), ham, FlowConfig(ds=0.01, max_steps=4))
    for trace, k in ((finished, 5), (excinfo.value.trace, 0)):
        assert trace.steps.shape == (k, 3) and trace.steps.dtype == float
        assert not trace.steps.flags.writeable


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
@pytest.mark.parametrize("record_every", [1, 3])
def test_run_flow_matches_a_loop_over_flow_step(n, integrator, record_every):
    # run_flow's rows, recorded states and final state are exactly those of
    # a plain loop over the public flow_step, l2_gradient and action.
    ham = make_hamiltonian("cosine", n, {"lambda": 0.5})
    ds = 0.5 * STABILITY_KAPPA[integrator] * GRID.h1
    cfg = FlowConfig(ds=ds, max_steps=10, grad_tolerance=1e-30, integrator=integrator,
                     record_every=record_every)
    states = [smooth(13, n=n)]
    trace = run_flow(states[0], ham, cfg)
    for k in range(cfg.max_steps):
        gradient = l2_gradient(states[-1], ham)
        states.append(flow_step(states[-1], ham, cfg, step=k, gradient=gradient))
    rows = [(k * ds, action(st, ham), float(np.max(np.abs(l2_gradient(st, ham)))))
            for k, st in enumerate(states)]
    assert np.array_equal(trace.steps, np.array(rows))
    recorded = states[::record_every]
    assert len(trace.states) == len(recorded)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(trace.states, recorded))
    assert np.array_equal(trace.final_state.values, states[-1].values)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
def test_flow_step_with_the_known_gradient_is_bitwise_the_same(n, integrator):
    # The given gradient is the first stage: the step is the Euler or RK4
    # update written out with the public l2_gradient, bit for bit.
    ham = make_hamiltonian("cosine", n, {"lambda": 0.5})
    state = smooth(21, amplitude=0.3, n=n)
    ds = 0.5 * STABILITY_KAPPA[integrator] * GRID.h1
    gradient = l2_gradient(state, ham)
    v = state.values
    k1 = -gradient
    if integrator == "explicit_euler":
        expected = v + ds * k1
    else:
        k2 = -l2_gradient(state.with_values(v + 0.5 * ds * k1), ham)
        k3 = -l2_gradient(state.with_values(v + 0.5 * ds * k2), ham)
        k4 = -l2_gradient(state.with_values(v + ds * k3), ham)
        expected = v + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(flow_step(state, ham, one_step(ds, integrator), gradient=gradient).values, expected)
    with pytest.raises(DimensionMismatchError):
        flow_step(state, ham, one_step(ds, integrator), gradient=gradient[:-1])


@pytest.mark.parametrize("integrator, per_step", [("explicit_euler", 1), ("rk4", 4)])
def test_run_flow_evaluates_the_operator_once_per_stage(monkeypatch, integrator, per_step):
    # One evaluation per trace row, reused as the step's first stage.
    calls = []
    apply = _FieldOperator.apply

    def counted(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(_FieldOperator, "apply", counted)
    steps = 6
    cfg = FlowConfig(ds=0.25 * STABILITY_KAPPA[integrator] * GRID.h1, max_steps=steps,
                     grad_tolerance=1e-30, integrator=integrator)
    trace = run_flow(smooth(4), make_hamiltonian("cosine", 1), cfg)
    assert len(trace.steps) == steps + 1
    assert len(calls) == per_step * steps + 1


def test_every_field_entry_rejects_a_hamiltonian_of_another_fiber():
    state = smooth(3, n=2)
    ham = make_hamiltonian("quadratic", 1)
    calls = (
        lambda: action(state, ham),
        lambda: l2_gradient(state, ham),
        lambda: flow_step(state, ham, one_step(0.01), gradient=np.zeros_like(state.values)),
        lambda: run_flow(state, ham, FlowConfig(ds=0.01, max_steps=1)),
        lambda: fueter_residual([state] * 3, one_step(0.01), ham),
    )
    for call in calls:
        with pytest.raises(DimensionMismatchError, match="Hamiltonian fiber dimension"):
            call()


def test_field_operator_is_cached_per_grid_and_n_with_a_read_only_pair():
    ham = make_hamiltonian("zero", 2)
    op = _field_operator(smooth(1, n=2), ham)
    # An equal grid built anew and other values share the operator.
    assert _field_operator(smooth(2, grid=TorusGrid(16, 16), n=2), ham) is op
    assert _field_operator(smooth(1), make_hamiltonian("zero", 1)) is not op
    # The operator holds only its grid and the GEMM operands: read-only,
    # C-contiguous copies of the cached pair's transposes, bit for bit.
    assert [f.name for f in dataclasses.fields(op)] == ["grid", "j1t", "j2t"]
    for jt, j in zip((op.j1t, op.j2t), standard_fiber_forms(2)):
        assert not jt.flags.writeable and jt.flags.c_contiguous
        assert np.array_equal(jt.view(np.int64), j.T.view(np.int64))


def test_fixed_point_soundness_of_converged_traces():
    from crms.fields import bridges_residual

    ham = make_hamiltonian("zero", 1)
    state = FieldState(GRID, np.full((16, 16, 4), 0.25))
    tol = 1e-8
    trace = run_flow(state, ham, FlowConfig(ds=0.01, max_steps=10, grad_tolerance=tol))
    assert trace.converged
    residual = float(np.max(np.abs(bridges_residual(trace.final_state, ham))))
    assert residual < 10.0 * tol


def test_determinism_of_traces():
    ham = make_hamiltonian("quartic", 1, {"lambda": 0.2})
    cfg = FlowConfig(ds=0.02 * GRID.h1, max_steps=40, grad_tolerance=1e-30)
    t1 = run_flow(smooth(9), ham, cfg)
    t2 = run_flow(smooth(9), ham, cfg)
    assert np.array_equal(t1.steps, t2.steps)
    assert np.array_equal(t1.final_state.values, t2.final_state.values)


# --- fueter_residual ---------------------------------------------------------


def test_constant_trajectory_at_critical_point_has_zero_residual():
    ham = make_hamiltonian("quadratic", 1)
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    residual = fueter_residual([state, state, state], one_step(0.01), ham)
    assert residual == 0.0


def test_short_trajectory_rejected():
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    with pytest.raises(ValueError):
        fueter_residual([state, state], one_step(0.01), make_hamiltonian("zero", 1))


@pytest.mark.parametrize(
    "other",
    [TorusGrid(16, 16, l1=3.0), TorusGrid(16, 20), None],
    ids=["other-periods", "other-grid", "other-fiber"],
)
def test_mixed_trajectory_rejected(other):
    state = FieldState(GRID, np.zeros((16, 16, 4)))
    if other is None:
        odd = FieldState(GRID, np.zeros((16, 16, 8)))
    else:
        odd = FieldState(other, np.zeros((other.n1, other.n2, 4)))
    ham = make_hamiltonian("quadratic", 1)
    for trajectory in ([state, odd, state], [state, state, odd], [odd, state, state]):
        with pytest.raises(DimensionMismatchError):
            fueter_residual(trajectory, one_step(0.01), ham)


def per_state_fueter_residual(states, ds, ham, i_fiber) -> float:
    # The residual with one l2_gradient call per interior state.
    worst = 0.0
    for k in range(1, len(states) - 1):
        dzds = (states[k + 1].values - states[k - 1].values) / (2.0 * ds)
        residual = (dzds + l2_gradient(states[k], ham)) @ i_fiber.T
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst


@pytest.mark.parametrize("integrator", ["explicit_euler", "rk4"])
@pytest.mark.parametrize("record_every", [1, 2])
def test_fueter_residual_equals_the_per_state_loop_bitwise(integrator, record_every):
    grid = TorusGrid(17, 12, l1=3.0, l2=2.0)
    ham = make_hamiltonian("cosine", 2, {"lambda": 0.6})
    ds = 0.5 * STABILITY_KAPPA[integrator] * min(grid.h1, grid.h2)
    cfg = FlowConfig(ds=ds, max_steps=9, grad_tolerance=1e-30, integrator=integrator, record_every=record_every)
    trace = run_flow(smooth(21, amplitude=0.3, grid=grid, n=2), ham, cfg)
    # The kept states are ds * record_every apart; fueter_residual reads that from cfg.
    # The standard complex structure's I, built apart from the forms fueter_residual reads.
    expected = per_state_fueter_residual(trace.states, ds * record_every, ham, standard_complex_structure(2).fiber_part)
    assert expected > 0.0
    assert fueter_residual(trace.states, cfg, ham) == expected


def test_euler_residual_is_first_order_in_ds():
    ham = make_hamiltonian("quadratic", 1)
    init = smooth(10, amplitude=0.05)
    residuals = []
    for ds in (0.02, 0.01, 0.005):
        cfg = FlowConfig(ds=ds, max_steps=int(round(0.4 / ds)), grad_tolerance=1e-30, record_every=1)
        trace = run_flow(init, ham, cfg)
        residuals.append(fueter_residual(trace.states, cfg, ham))
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
        trace = run_flow(init, ham, cfg)
        residuals.append(fueter_residual(trace.states, cfg, ham))
    assert 2.8 < residuals[0] / residuals[1] < 5.2


def test_trace_csv_export(tmp_path):
    ham = make_hamiltonian("quadratic", 1)
    cfg = FlowConfig(ds=0.05 * GRID.h1, max_steps=5, grad_tolerance=1e-30)
    trace = run_flow(smooth(12), ham, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,s,action,grad_norm"
    assert len(lines) == len(trace.steps) + 1
