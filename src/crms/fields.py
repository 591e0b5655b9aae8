"""Discretized Hamiltonian field theory on the flat torus.

States are periodic n1 x n2 grids of fiber vectors (q1, q2, P1, P2) per
complex dimension.  Spatial derivatives are centered differences, which are
skew-adjoint for the grid inner product; that choice makes the continuum
gradient formula J1 ∂1 Z + J2 ∂2 Z - ∇H the *exact* gradient of the discrete
action, so the gradient check is a machine-precision test rather than an
O(h^2) one.  The conformal factor is fixed to 1 and the connection is the
trivial product connection.

Grid sums use numpy's pairwise reductions, so results are deterministic for
a fixed shape regardless of threading.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .compatible import CompatibleTriple
from .errors import DimensionMismatchError
from .linalg import TAU_ALG, standard_fiber_forms

GRADIENT_CHECK_TOL = 1e-5  # relative, enforced when a Hamiltonian is built

MAGIC = b"CRMS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdd")  # magic, version, n1, n2, n, l1, l2


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a flat torus of periods (l1, l2)."""

    n1: int
    n2: int
    l1: float = 2.0 * np.pi
    l2: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError("grid resolution must be at least 4 in each direction")
        if not (0.0 < self.l1 < np.inf and 0.0 < self.l2 < np.inf):
            raise ValueError("periods must be positive and finite")

    @property
    def h1(self) -> float:
        return self.l1 / self.n1

    @property
    def h2(self) -> float:
        return self.l2 / self.n2

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    def t1(self) -> np.ndarray:
        return self.h1 * np.arange(self.n1)

    def t2(self) -> np.ndarray:
        return self.h2 * np.arange(self.n2)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid coordinate arrays of shape (n1, n2)."""
        return np.meshgrid(self.t1(), self.t2(), indexing="ij")


@dataclass(frozen=True)
class FieldState:
    """Periodic grid of fiber vectors, shape (n1, n2, 4n)."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 3 or v.shape[:2] != (self.grid.n1, self.grid.n2):
            raise DimensionMismatchError(
                f"values shape {v.shape} does not match grid ({self.grid.n1}, {self.grid.n2}, 4n)"
            )
        if v.shape[2] < 4 or v.shape[2] % 4 != 0:
            raise DimensionMismatchError("fiber dimension must be a positive multiple of 4")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[2] // 4

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[2]

    def with_values(self, values: np.ndarray) -> "FieldState":
        return FieldState(self.grid, values)


def diff(values: np.ndarray, grid: TorusGrid, direction: int) -> np.ndarray:
    """Centered difference with periodic wraparound along a torus direction.

    The operator is skew-adjoint for the grid inner product
    <u, v> = h1 h2 sum(u v).
    """
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    axis = direction - 1
    h = grid.h1 if direction == 1 else grid.h2
    v = np.asarray(values, dtype=float)
    if v.shape[:2] != (grid.n1, grid.n2):
        raise DimensionMismatchError("values do not match the grid")
    return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

FiberFunction = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian density as a value/gradient pair of grid functions.

    ``value(t1, t2, z)`` maps coordinate arrays of shape (...,) and fiber
    values of shape (..., dim) to densities of shape (...,); ``gradient``
    returns the fiber gradient with shape (..., dim).  Consistency of the
    pair is asserted at construction against central finite differences at
    seeded sample points, so user extensions cannot silently decouple the
    two.
    """

    name: str
    fiber_dim: int
    value: FiberFunction = field(repr=False)
    gradient: FiberFunction = field(repr=False)
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))
        rng = np.random.default_rng(20240901)
        t1 = rng.uniform(0.0, 2.0 * np.pi, size=6)
        t2 = rng.uniform(0.0, 2.0 * np.pi, size=6)
        z = rng.normal(size=(6, self.fiber_dim))
        grad = np.asarray(self.gradient(t1, t2, z), dtype=float)
        if grad.shape != z.shape:
            raise ValueError(f"gradient returned shape {grad.shape}, expected {z.shape}")
        eps = 1e-6
        fd = np.empty_like(z)
        for c in range(self.fiber_dim):
            zp, zm = z.copy(), z.copy()
            zp[:, c] += eps
            zm[:, c] -= eps
            fd[:, c] = (np.asarray(self.value(t1, t2, zp)) - np.asarray(self.value(t1, t2, zm))) / (2 * eps)
        scale = np.maximum(np.abs(fd), 1.0)
        rel = float(np.max(np.abs(grad - fd) / scale))
        if rel > GRADIENT_CHECK_TOL:
            raise ValueError(
                f"gradient of '{self.name}' disagrees with finite differences "
                f"(relative error {rel:.2e} > {GRADIENT_CHECK_TOL:.0e})"
            )


def _q_mask(dim: int) -> np.ndarray:
    mask = np.zeros(dim, dtype=bool)
    mask[0::4] = True
    mask[1::4] = True
    return mask


def make_hamiltonian(
    name: str,
    n: int,
    parameters: Mapping[str, float] | None = None,
    gradient_scale: float = 1.0,
) -> HamiltonianSpec:
    """Build one of the built-in Hamiltonians on a 4n-dimensional fiber.

    Built-ins: ``zero``; ``quadratic_p`` = |P|^2/2; ``quadratic`` =
    |P|^2/2 + lam |q|^2/2; ``quartic`` = |P|^2/2 + lam sum(q_c^4);
    ``cosine`` = |P|^2/2 + lam sum(cos q_c).  Unknown names are rejected.

    ``gradient_scale`` multiplies the returned gradient only; it exists as a
    diagnostic knob for negative controls of gradient-consistency checks and
    must stay within the construction tolerance.
    """
    params = dict(parameters or {})
    lam = float(params.get("lambda", 1.0))
    dim = 4 * n
    qm = _q_mask(dim)
    pm = ~qm

    if name == "zero":
        value = lambda t1, t2, z: np.zeros(np.shape(z)[:-1])
        grad = lambda t1, t2, z: np.zeros_like(z)
    elif name == "quadratic_p":
        value = lambda t1, t2, z: 0.5 * np.sum(z[..., pm] ** 2, axis=-1)
        grad = lambda t1, t2, z: np.where(pm, z, 0.0)
    elif name == "quadratic":
        value = lambda t1, t2, z: 0.5 * np.sum(z[..., pm] ** 2, axis=-1) + 0.5 * lam * np.sum(
            z[..., qm] ** 2, axis=-1
        )
        grad = lambda t1, t2, z: np.where(pm, z, lam * z)
    elif name == "quartic":
        value = lambda t1, t2, z: 0.5 * np.sum(z[..., pm] ** 2, axis=-1) + lam * np.sum(
            z[..., qm] ** 4, axis=-1
        )
        grad = lambda t1, t2, z: np.where(pm, z, 4.0 * lam * z**3)
    elif name == "cosine":
        value = lambda t1, t2, z: 0.5 * np.sum(z[..., pm] ** 2, axis=-1) + lam * np.sum(
            np.cos(z[..., qm]), axis=-1
        )
        grad = lambda t1, t2, z: np.where(pm, z, -lam * np.sin(z))
    else:
        raise ValueError(f"unknown Hamiltonian '{name}'")

    if gradient_scale != 1.0:
        inner = grad
        grad = lambda t1, t2, z: gradient_scale * inner(t1, t2, z)
    return HamiltonianSpec(name=name, fiber_dim=dim, value=value, gradient=grad, parameters=params)


BUILTIN_HAMILTONIANS = ("zero", "quadratic_p", "quadratic", "quartic", "cosine")


def _require_fiber_match(state_dim: int, ham: HamiltonianSpec) -> None:
    if ham.fiber_dim != state_dim:
        raise DimensionMismatchError(
            f"Hamiltonian fiber dimension {ham.fiber_dim} does not match state dimension {state_dim}"
        )


# ---------------------------------------------------------------------------
# action, residuals, gradient
# ---------------------------------------------------------------------------


def _bridges_operator(values: np.ndarray, grid: TorusGrid, j1: np.ndarray, j2: np.ndarray) -> np.ndarray:
    """J1 ∂1 Z + J2 ∂2 Z (Bridges' principal part): the action, gradient and flow use it."""
    return diff(values, grid, 1) @ j1.T + diff(values, grid, 2) @ j2.T


def _action_value(grid: TorusGrid, values: np.ndarray, bridges: np.ndarray, density: np.ndarray) -> float:
    """h1 h2 sum[1/2 Z·bridges - H] for bridges = _bridges_operator(Z) and H = density."""
    return float(grid.cell_area * np.sum(0.5 * np.sum(values * bridges, axis=-1) - density))


def _standard_pair(
    fiber_dim: int, ham: HamiltonianSpec, triple: CompatibleTriple
) -> tuple[np.ndarray, np.ndarray]:
    """The triple's (J1, J2), once they are checked to be the action's standard pair."""
    _require_fiber_match(fiber_dim, ham)
    if triple.dim != fiber_dim:
        raise DimensionMismatchError("compatible triple does not match the state's fiber")
    w1, w2 = standard_fiber_forms(fiber_dim // 4)
    if max(np.max(np.abs(triple.j1 - w1)), np.max(np.abs(triple.j2 - w2))) > TAU_ALG:
        raise ValueError("the action is built from the standard pair; the triple's (J1, J2) differ from it")
    return triple.j1, triple.j2


def action(state: FieldState, ham: HamiltonianSpec) -> float:
    """Discrete multisymplectic action h1 h2 sum[1/2 Z·(J1 ∂1 Z + J2 ∂2 Z) - H(Z)].

    (J1, J2) = standard_fiber_forms(n).  Centered differences are skew-adjoint
    and the J_i antisymmetric, so each J_i ∂_i is self-adjoint and the exact
    gradient is J1 ∂1 Z + J2 ∂2 Z - ∇H (l2_gradient).  Summed over the grid,
    the quadratic term is the theta-form sum P1 ∂1 q1 + P2 ∂1 q2 + P1 ∂2 q2 - P2 ∂2 q1.
    """
    _require_fiber_match(state.fiber_dim, ham)
    v = state.values
    t1, t2 = state.grid.coordinates()
    bridges = _bridges_operator(v, state.grid, *standard_fiber_forms(state.n))
    return _action_value(state.grid, v, bridges, ham.value(t1, t2, v))


def bridges_residual(state: FieldState, ham: HamiltonianSpec) -> np.ndarray:
    """Pointwise residual of the first-order elliptic field equations.

    Zero exactly at critical points of the discrete action; equal to minus
    the discrete gradient for the standard compatible triple.  Written out by
    components, apart from _bridges_operator, as the reference for the gradient.
    """
    _require_fiber_match(state.fiber_dim, ham)
    v = state.values
    d1 = diff(v, state.grid, 1)
    d2 = diff(v, state.grid, 2)
    t1, t2 = state.grid.coordinates()
    gh = ham.gradient(t1, t2, v)
    r = np.empty_like(v)
    r[..., 0::4] = gh[..., 0::4] + d1[..., 2::4] - d2[..., 3::4]
    r[..., 1::4] = gh[..., 1::4] + d1[..., 3::4] + d2[..., 2::4]
    r[..., 2::4] = gh[..., 2::4] - d1[..., 0::4] - d2[..., 1::4]
    r[..., 3::4] = gh[..., 3::4] - d1[..., 1::4] + d2[..., 0::4]
    return r


def ddw_residual(grid: TorusGrid, values: np.ndarray, ham: HamiltonianSpec) -> np.ndarray:
    """Residual of the general (non-regularized) first-order field equations.

    ``values`` carries 3n fiber coordinates ordered (q^a, p1^a, p2^a); the
    principal part of this operator is degenerate, in contrast to
    bridges_residual.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 3 or v.shape[:2] != (grid.n1, grid.n2) or v.shape[2] % 3 != 0:
        raise DimensionMismatchError("expected values of shape (n1, n2, 3n)")
    _require_fiber_match(v.shape[2], ham)
    d1 = diff(v, grid, 1)
    d2 = diff(v, grid, 2)
    t1, t2 = grid.coordinates()
    gh = ham.gradient(t1, t2, v)
    r = np.empty_like(v)
    r[..., 0::3] = gh[..., 0::3] + d1[..., 1::3] + d2[..., 2::3]
    r[..., 1::3] = gh[..., 1::3] - d1[..., 0::3]
    r[..., 2::3] = gh[..., 2::3] - d2[..., 0::3]
    return r


def l2_gradient(state: FieldState, ham: HamiltonianSpec, triple: CompatibleTriple) -> np.ndarray:
    """Exact gradient of the discrete action: J1 ∂1 Z + J2 ∂2 Z - ∇H(Z).

    Raises ValueError unless the triple's (J1, J2) is the standard pair the
    action is built from (within TAU_ALG): for any other triple the formula
    is not the gradient of the action.
    """
    j1, j2 = _standard_pair(state.fiber_dim, ham, triple)
    v = state.values
    t1, t2 = state.grid.coordinates()
    return _bridges_operator(v, state.grid, j1, j2) - ham.gradient(t1, t2, v)


def momenta_from_positions(state: FieldState) -> FieldState:
    """Replace P by the discrete derivatives that solve the momentum equations.

    Sets P1 = ∂1 q1 + ∂2 q2 and P2 = ∂1 q2 - ∂2 q1, so the momentum blocks of
    bridges_residual vanish identically for any |P|^2/2 + V(q) Hamiltonian.
    """
    v = state.values.copy()
    q1, q2 = v[..., 0::4], v[..., 1::4]
    d1q1 = diff(q1, state.grid, 1)
    d1q2 = diff(q2, state.grid, 1)
    d2q1 = diff(q1, state.grid, 2)
    d2q2 = diff(q2, state.grid, 2)
    v[..., 2::4] = d1q1 + d2q2
    v[..., 3::4] = d1q2 - d2q1
    return FieldState(state.grid, v)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_state(state: FieldState, target) -> None:
    """Write the binary field container (little-endian header + f64 payload)."""
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, state.grid.n1, state.grid.n2, state.n, state.grid.l1, state.grid.l2
    )
    payload = np.ascontiguousarray(state.values, dtype="<f8").tobytes()
    if hasattr(target, "write"):
        target.write(header)
        target.write(payload)
    else:
        with open(target, "wb") as fh:
            fh.write(header)
            fh.write(payload)


def read_state(source) -> FieldState:
    """Read a field state from the binary container written by write_state."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated field container")
    magic, version, n1, n2, n, l1, l2 = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {version}")
    count = n1 * n2 * 4 * n
    expected = _HEADER.size + 8 * count
    if len(raw) != expected:
        raise ValueError(f"container has {len(raw)} bytes, expected {expected}")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n1, n2, 4 * n)
    return FieldState(TorusGrid(n1, n2, l1, l2), values.astype(float))


def write_state_csv(state: FieldState, target) -> None:
    """CSV export: one row per grid point (i, j, t1, t2, fiber values)."""
    dim = state.fiber_dim
    header = ["i", "j", "t1", "t2"] + [f"z{c}" for c in range(dim)]
    t1, t2 = state.grid.t1(), state.grid.t2()

    def emit(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(state.grid.n1):
            for j in range(state.grid.n2):
                row = [i, j, repr(float(t1[i])), repr(float(t2[j]))]
                row += [repr(float(x)) for x in state.values[i, j]]
                writer.writerow(row)

    if hasattr(target, "write"):
        emit(target)
    else:
        with open(target, "w", newline="") as fh:
            emit(fh)


def read_state_csv(source, grid: TorusGrid) -> FieldState:
    """Parse the CSV export back into a state on the given grid.

    Raises ValueError unless the file has the export's header and exactly one
    row per grid point.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", newline="") as fh:
            text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    dim = len(header) - 4
    if dim < 4 or dim % 4 != 0 or header != ["i", "j", "t1", "t2"] + [f"z{c}" for c in range(dim)]:
        raise ValueError("CSV header is not i, j, t1, t2, z0 .. z{4n-1}")
    values = np.empty((grid.n1, grid.n2, dim))
    seen = np.zeros((grid.n1, grid.n2), dtype=bool)
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"CSV line {line} has {len(row)} fields, expected {len(header)}")
        i, j = int(row[0]), int(row[1])
        if not (0 <= i < grid.n1 and 0 <= j < grid.n2):
            raise ValueError(f"CSV line {line}: grid point ({i}, {j}) is outside {grid.n1} x {grid.n2}")
        if seen[i, j]:
            raise ValueError(f"CSV line {line}: grid point ({i}, {j}) appears twice")
        seen[i, j] = True
        values[i, j] = [float(x) for x in row[4:]]
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise ValueError(f"CSV has no row for grid point ({i}, {j})")
    return FieldState(grid, values)
