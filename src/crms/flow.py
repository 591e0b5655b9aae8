"""Negative-gradient flow of the discrete action (Fueter flow).

Fixed points of the flow solve the first-order elliptic field equations.
The action functional is strongly indefinite (the usual situation for
Hamiltonian actions): near a critical point its Hessian has eigenvalues mu of
both signs, and an Euler step multiplies a mode of eigenvalue mu by
1 - ds mu.  The forward flow therefore converges only from the strongly
contracting part of the stable subspace: data whose modes all have
mu >= mu0, where the K = ln(g0 / tol) / -ln(1 - ds mu0) steps the gradient
needs to fall from g0 to tol leave the unstable modes, seeded by roundoff
u |Z0| and growing by at most 1 - ds min(mu) per step, well below tol.
For the quadratic Hamiltonian (lambda = 1) on 32^2 at ds = 0.2 h that
growth is about 1.32 per step, and mu0 is about 4.5 for sup |Z0| = 0.1 and
tol = 1e-6 (acceptance criterion 7).  Generic data has
unstable components and diverges (FlowDivergenceError), so the flow is
integrated for diagnostics and fixed-point detection; it is not a
minimization scheme for generic data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, FlowDivergenceError
from .fields import FieldState, HamiltonianSpec, TorusGrid, _field_operator

# Step-size cap ds <= kappa * min(h1, h2): the spatial operator is first
# order, so its norm scales like 1/h.  One entry per integrator.
STABILITY_KAPPA = {"explicit_euler": 0.2, "rk4": 0.5}
INTEGRATORS = tuple(STABILITY_KAPPA)


@dataclass(frozen=True)
class FlowConfig:
    """Step size, stopping rule, and integrator for run_flow."""

    ds: float
    max_steps: int
    grad_tolerance: float = 1e-8
    integrator: str = "explicit_euler"
    record_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.ds < np.inf:
            raise ConfigError("ds must be positive and finite")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be non-negative")
        if not 0.0 < self.grad_tolerance < np.inf:
            raise ConfigError("grad_tolerance must be positive and finite")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"integrator must be one of {INTEGRATORS}, got '{self.integrator}'")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")

    def check_stability(self, grid: TorusGrid) -> None:
        bound = STABILITY_KAPPA[self.integrator] * min(grid.h1, grid.h2)
        if self.ds > bound:
            raise ConfigError(
                f"ds = {self.ds:.3e} exceeds the stability bound {bound:.3e} "
                f"for {self.integrator} on this grid"
            )


@dataclass(frozen=True)
class FlowTrace:
    """Per-step diagnostics of a flow run.

    A plain record that only run_flow builds.  ``steps`` is read-only and has
    one row (s, action, grad_norm) per evaluated state, step k at s = k ds;
    ``states`` holds the trajectory sampled every ``FlowConfig.record_every``
    steps.  For step sizes inside the stability bound the action column is
    non-increasing up to 1e-10 (1 + |action_0|).
    """

    steps: np.ndarray = field(repr=False)
    final_state: FieldState
    converged: bool
    states: tuple[FieldState, ...]

    @property
    def actions(self) -> np.ndarray:
        return self.steps[:, 1]

    @property
    def grad_norms(self) -> np.ndarray:
        return self.steps[:, 2]


def flow_step(
    state: FieldState,
    ham: HamiltonianSpec,
    config: FlowConfig,
    step: int | None = None,
    *,
    gradient: np.ndarray,
) -> FieldState:
    """One step of Z <- Z - ds grad A(Z) (Euler) or the RK4 update.

    ``config`` gives ds and the integrator, both checked when it was built.
    ``gradient`` is the L² gradient at ``state``, ``l2_gradient(state, ham)``.
    The step takes its negation as the first stage, so it evaluates the field
    operator's gradient 0 times (Euler) or 3 times (RK4), on raw arrays.

    Raises FlowDivergenceError when the update produces non-finite values.
    """
    op = _field_operator(state, ham)
    v = state.values
    if np.shape(gradient) != v.shape:
        raise DimensionMismatchError(f"gradient shape {np.shape(gradient)} does not match the state {v.shape}")

    def rhs(values: np.ndarray) -> np.ndarray:
        # Stages stay raw arrays: an overflowing stage reaches the finiteness check.
        return -op.gradient(values, ham, op.apply(values))

    ds = config.ds
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = -gradient
        if config.integrator == "explicit_euler":
            new = v + ds * k1
        else:
            k2 = rhs(v + 0.5 * ds * k1)
            k3 = rhs(v + 0.5 * ds * k2)
            k4 = rhs(v + ds * k3)
            new = v + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(new)):
        where = "" if step is None else f" at step {step}"
        raise FlowDivergenceError(f"flow produced non-finite values{where}", step=step)
    return state.with_values(new)


def run_flow(initial: FieldState, ham: HamiltonianSpec, config: FlowConfig) -> FlowTrace:
    """Iterate flow_step until the gradient sup-norm drops below tolerance.

    Each state's gradient is evaluated once, for its trace row, and handed to
    flow_step: a run of K steps applies the field operator K + 1 (Euler) or
    4K + 1 (RK4) times, and a trace row's gradient and action share one application.

    Convergence certifies an approximate solution of the field equations:
    the gradient equals minus the equation residual pointwise.  The run
    converges from the strongly contracting part of the stable subspace of a
    critical point (see the module docstring); from generic data the unstable
    modes grow until a FlowDivergenceError is raised carrying the partial
    trace.
    """
    config.check_stability(initial.grid)
    op = _field_operator(initial, ham)
    state = initial
    rows: list[tuple[float, float, float]] = []
    recorded: list[FieldState] = []

    def observe(k: int, st: FieldState) -> tuple[float, np.ndarray]:
        v = st.values
        with np.errstate(over="ignore", invalid="ignore"):
            bridges = op.apply(v)
            grad = op.gradient(v, ham, bridges)
            gnorm = float(np.max(np.abs(grad)))
            act = op.action(v, ham, bridges)
        if not (np.isfinite(gnorm) and np.isfinite(act)):
            raise FlowDivergenceError(f"flow diagnostics became non-finite at step {k}", step=k)
        rows.append((k * config.ds, act, gnorm))
        if k % config.record_every == 0:
            recorded.append(st)
        return gnorm, grad

    def trace(converged: bool) -> FlowTrace:
        steps = np.array(rows, dtype=float).reshape(-1, 3)
        steps.setflags(write=False)
        return FlowTrace(steps, state, converged, tuple(recorded))

    try:
        gnorm, grad = observe(0, state)
        for k in range(config.max_steps):
            if gnorm < config.grad_tolerance:
                break
            state = flow_step(state, ham, config, step=k, gradient=grad)
            gnorm, grad = observe(k + 1, state)
    except FlowDivergenceError as err:
        raise FlowDivergenceError(str(err), step=err.step, trace=trace(False)) from None
    return trace(gnorm < config.grad_tolerance)


def fueter_residual(
    trajectory: list[FieldState] | tuple[FieldState, ...],
    config: FlowConfig,
    ham: HamiltonianSpec,
) -> float:
    """Sup-norm defect of a trajectory as a discrete Fueter curve.

    Evaluates I ∂s Z + I J1 ∂1 Z + I J2 ∂2 Z - I ∇H(Z) with a centered
    difference in s at the interior trajectory points, which are the states
    run_flow kept under ``config``: ds * record_every apart; small values certify
    the trajectory solves the three-direction Cauchy-Riemann system.  The
    gradient at each point is the field operator's.  The fiber complex
    structure I = standard_complex_structure(n).fiber_part is a signed
    permutation and leaves the sup-norm unchanged, so it is not applied.

    Raises DimensionMismatchError unless every state has the first state's
    grid and shape.
    """
    states = list(trajectory)
    if len(states) < 3:
        raise ValueError("fueter_residual needs at least 3 trajectory states")
    ds = config.ds * config.record_every
    grid, shape = states[0].grid, states[0].values.shape
    if any(st.grid != grid or st.values.shape != shape for st in states):
        raise DimensionMismatchError("trajectory states differ in grid or shape")
    op = _field_operator(states[0], ham)
    worst = 0.0
    for k in range(1, len(states) - 1):
        v = states[k].values
        dzds = (states[k + 1].values - states[k - 1].values) / (2.0 * ds)
        grad = op.gradient(v, ham, op.apply(v))
        worst = max(worst, float(np.max(np.abs(dzds + grad))))
    return worst


def write_trace_csv(trace: FlowTrace, path: str | Path) -> None:
    """CSV export of a trace to a file: columns (step, s, action, grad_norm)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "s", "action", "grad_norm"])
        for k, (s, act, gn) in enumerate(trace.steps):
            writer.writerow([k, repr(float(s)), repr(float(act)), repr(float(gn))])
