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

import numpy as np

from .compatible import CompatibleTriple
from .errors import ConfigError, DimensionMismatchError, FlowDivergenceError
from .fields import FieldState, HamiltonianSpec, TorusGrid, l2_gradient
from .fields import _action_value, _bridges_operator, _standard_pair

INTEGRATORS = ("explicit_euler", "rk4")

# Step-size cap ds <= kappa * min(h1, h2): the spatial operator is first
# order, so its norm scales like 1/h.
STABILITY_KAPPA = {"explicit_euler": 0.2, "rk4": 0.5}


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

    ``steps`` has one row (s, action, grad_norm) per evaluated state, step k
    at s = k ds; ``states`` holds the trajectory sampled every
    ``record_stride`` steps.  For step sizes inside the stability bound the
    action column is non-increasing up to 1e-10 (1 + |action_0|).
    """

    steps: np.ndarray = field(repr=False)
    final_state: FieldState
    converged: bool
    states: tuple[FieldState, ...] = ()
    record_stride: int = 1

    def __post_init__(self):
        s = np.array(self.steps, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3:
            raise DimensionMismatchError("steps must have shape (k, 3)")
        s.setflags(write=False)
        object.__setattr__(self, "steps", s)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def actions(self) -> np.ndarray:
        return self.steps[:, 1]

    @property
    def grad_norms(self) -> np.ndarray:
        return self.steps[:, 2]


def _check_finite(values: np.ndarray, step: int | None) -> None:
    if not np.all(np.isfinite(values)):
        where = "" if step is None else f" at step {step}"
        raise FlowDivergenceError(f"flow produced non-finite values{where}", step=step)


def flow_step(
    state: FieldState,
    ham: HamiltonianSpec,
    triple: CompatibleTriple,
    ds: float,
    integrator: str = "explicit_euler",
    step: int | None = None,
) -> FieldState:
    """One step of Z <- Z - ds grad A(Z) (Euler) or the RK4 update.

    Raises FlowDivergenceError when the update produces non-finite values.
    """
    if integrator not in INTEGRATORS:
        raise ConfigError(f"unknown integrator '{integrator}'")
    grid = state.grid
    j1, j2 = _standard_pair(state.fiber_dim, ham, triple)
    t1, t2 = grid.coordinates()

    def rhs(values: np.ndarray) -> np.ndarray:
        # Stages stay raw arrays: an overflowing stage reaches _check_finite.
        return -(_bridges_operator(values, grid, j1, j2) - ham.gradient(t1, t2, values))

    v = state.values
    with np.errstate(over="ignore", invalid="ignore"):
        if integrator == "explicit_euler":
            new = v + ds * rhs(v)
        else:
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * ds * k1)
            k3 = rhs(v + 0.5 * ds * k2)
            k4 = rhs(v + ds * k3)
            new = v + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_finite(new, step)
    return state.with_values(new)


def run_flow(
    initial: FieldState,
    ham: HamiltonianSpec,
    triple: CompatibleTriple,
    config: FlowConfig,
) -> FlowTrace:
    """Iterate flow_step until the gradient sup-norm drops below tolerance.

    Convergence certifies an approximate solution of the field equations:
    for the standard triple the gradient equals minus the equation residual
    pointwise.  The run converges from the strongly contracting part of the
    stable subspace of a critical point (see the module docstring); from
    generic data the unstable modes grow until a FlowDivergenceError is
    raised carrying the partial trace.
    """
    grid = initial.grid
    config.check_stability(grid)
    j1, j2 = _standard_pair(initial.fiber_dim, ham, triple)
    t1, t2 = grid.coordinates()
    state = initial
    rows: list[tuple[float, float, float]] = []
    recorded: list[FieldState] = []

    def observe(k: int, st: FieldState) -> float:
        v = st.values
        with np.errstate(over="ignore", invalid="ignore"):
            bridges = _bridges_operator(v, grid, j1, j2)
            gnorm = float(np.max(np.abs(bridges - ham.gradient(t1, t2, v))))
            act = _action_value(grid, v, bridges, ham.value(t1, t2, v))
        if not (np.isfinite(gnorm) and np.isfinite(act)):
            raise FlowDivergenceError(f"flow diagnostics became non-finite at step {k}", step=k)
        rows.append((k * config.ds, act, gnorm))
        if k % config.record_every == 0:
            recorded.append(st)
        return gnorm

    def trace(converged: bool) -> FlowTrace:
        return FlowTrace(
            steps=np.array(rows, dtype=float).reshape(-1, 3),
            final_state=state,
            converged=converged,
            states=tuple(recorded),
            record_stride=config.record_every,
        )

    try:
        gnorm = observe(0, state)
        for k in range(config.max_steps):
            if gnorm < config.grad_tolerance:
                break
            state = flow_step(state, ham, triple, config.ds, config.integrator, step=k)
            gnorm = observe(k + 1, state)
    except FlowDivergenceError as err:
        raise FlowDivergenceError(str(err), step=err.step, trace=trace(False)) from None
    return trace(gnorm < config.grad_tolerance)


def fueter_residual(
    trajectory: list[FieldState] | tuple[FieldState, ...],
    ds: float,
    ham: HamiltonianSpec,
    triple: CompatibleTriple,
) -> float:
    """Sup-norm defect of a trajectory as a discrete Fueter curve.

    Evaluates I ∂s Z + I J1 ∂1 Z + I J2 ∂2 Z - I ∇H(Z) with a centered
    difference in s at the interior trajectory points; small values certify
    the trajectory solves the three-direction Cauchy-Riemann system.
    """
    states = list(trajectory)
    if len(states) < 3:
        raise ValueError("fueter_residual needs at least 3 trajectory states")
    if ds <= 0.0:
        raise ValueError("ds must be positive")
    worst = 0.0
    i_fib = triple.i_fiber
    for k in range(1, len(states) - 1):
        dzds = (states[k + 1].values - states[k - 1].values) / (2.0 * ds)
        grad = l2_gradient(states[k], ham, triple)
        residual = (dzds + grad) @ i_fib.T
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst


def write_trace_csv(trace: FlowTrace, target) -> None:
    """CSV export of a trace: columns (step, s, action, grad_norm)."""

    def emit(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["step", "s", "action", "grad_norm"])
        for k, (s, act, gn) in enumerate(trace.steps):
            writer.writerow([k, repr(float(s)), repr(float(act)), repr(float(gn))])

    if hasattr(target, "write"):
        emit(target)
    else:
        with open(target, "w", newline="") as fh:
            emit(fh)
