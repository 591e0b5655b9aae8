"""Discretized Hamiltonian field theory on the flat torus.

States are periodic n1 x n2 grids of fiber vectors (q1, q2, P1, P2) per
complex dimension.  Spatial derivatives are centered differences, which are
skew-adjoint for the grid inner product; that choice makes the continuum
gradient formula J1 ∂1 Z + J2 ∂2 Z - ∇H the *exact* gradient of the discrete
action, so the gradient check is a machine-precision test rather than an
O(h^2) one.  The fiber structure is the standard pair (J1, J2) =
standard_fiber_forms(n), which follows from n alone and is cached read-only;
the conformal factor is fixed to 1 and the connection is the trivial product
connection.  One private field operator per grid and n holds read-only
transposed copies of that pair and evaluates J1 ∂1 Z + J2 ∂2 Z, the action
and the gradient for this module and the flow.

Grid sums use numpy's pairwise reductions, so results are deterministic for
a fixed shape regardless of threading.
"""

from __future__ import annotations

import contextlib
import functools
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .linalg import _readonly, standard_fiber_forms

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
        if not np.finfo(float).tiny <= self.cell_area < np.inf:  # h1 h2 weights the L² product
            raise ValueError(f"cell area h1 h2 = {self.cell_area!r} is not a finite normal double")

    @property
    def h1(self) -> float:
        return self.l1 / self.n1

    @property
    def h2(self) -> float:
        return self.l2 / self.n2

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid coordinate arrays of shape (n1, n2)."""
        return np.meshgrid(self.h1 * np.arange(self.n1), self.h2 * np.arange(self.n2), indexing="ij")


@dataclass(frozen=True)
class FieldState:
    """Periodic grid of fiber vectors, shape (n1, n2, 4n)."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 3 or shape[:2] != (self.grid.n1, self.grid.n2):
            raise DimensionMismatchError(
                f"values shape {shape} does not match grid ({self.grid.n1}, {self.grid.n2}, 4n)"
            )
        if shape[2] < 4 or shape[2] % 4 != 0:
            raise DimensionMismatchError("fiber dimension must be a positive multiple of 4")
        object.__setattr__(self, "values", _readonly(self.values, "field values"))

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

    (v[i+1] - v[i-1]) / (2h) as a flat stencil: one contiguous subtraction
    v[p + s] - v[p - s] over the flat array (s the direction's stride), the two
    wrapped rows or columns subtracted over it, one division in place.  Each entry
    is the one subtraction of (roll(v, -1) - roll(v, 1)) / (2h), so bitwise the same.
    In direction 2 the flat pass also pairs adjacent rows' ends, which the wrapped
    columns overwrite, so it raises no overflow or invalid warning.  The operator
    is skew-adjoint for the grid inner product <u, v> = h1 h2 sum(u v).  The dtype
    is np.result_type(values, float), so a complex field stays complex.
    """
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    h = grid.h1 if direction == 1 else grid.h2
    v = np.asarray(values, dtype=np.result_type(values, float))
    if v.shape[:2] != (grid.n1, grid.n2):
        raise DimensionMismatchError("values do not match the grid")
    out, flat = np.empty(v.shape, v.dtype), v.ravel()
    s = out.strides[direction - 1] // out.itemsize
    with np.errstate(over="ignore", invalid="ignore") if direction == 2 else contextlib.nullcontext():
        np.subtract(flat[2 * s :], flat[: -2 * s], out=out.reshape(-1)[s:-s])
    # Views with the differenced axis first.
    src, dst = (v, out) if direction == 1 else (v.swapaxes(0, 1), out.swapaxes(0, 1))
    np.subtract(src[1], src[-1], out=dst[0])
    np.subtract(src[0], src[-2], out=dst[-1])
    out /= 2.0 * h
    return out


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

FiberFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian density H(Z) as a value/gradient pair of fiber functions.

    ``value(z)`` maps fiber values of shape (..., dim) to densities of shape
    (...,); ``gradient(z)`` returns the fiber gradient with shape (..., dim).
    H depends on the fiber value only, not on the base point.  Consistency of
    the pair is asserted at construction against central finite differences
    at seeded sample points, so user extensions cannot silently decouple the
    two.  ``value`` is called once per side, on the points shifted along each
    component and stacked as (dim, 6, dim).  The error is taken above each
    difference's roundoff floor u max|H(z ± eps)| / eps, so a large H is not
    rejected for cancellation, and is relative to the differences' own size
    max|fd|, with no floor at 1, so a scaled-down H is held to the same bound.
    ``crms gradcheck`` takes a complex step, so there ``value`` must accept complex
    input and be complex-analytic; the construction check stays finite differences.
    """

    name: str
    fiber_dim: int
    value: FiberFunction = field(repr=False)
    gradient: FiberFunction = field(repr=False)

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        rng = np.random.default_rng(20240901)
        z = rng.normal(size=(6, self.fiber_dim))
        grad = np.asarray(self.gradient(z), dtype=float)
        if grad.shape != z.shape:
            raise ValueError(f"gradient returned shape {grad.shape}, expected {z.shape}")
        eps = 1e-6
        # Row c of the batch is the six points with component c moved.
        step = eps * np.eye(self.fiber_dim)[:, None, :]
        hp, hm = np.asarray(self.value(z + step)), np.asarray(self.value(z - step))
        fd = ((hp - hm) / (2 * eps)).T
        # Each value carries a roundoff of about u |H|, which the difference
        # divides by eps: a large H would fail a purely relative bound.
        floor = (np.finfo(float).eps * np.maximum(np.abs(hp), np.abs(hm)) / eps).T
        err = float(np.max(np.abs(grad - fd) - floor))
        scale = float(np.max(np.abs(fd)))
        if not err <= GRADIENT_CHECK_TOL * scale:  # an overflow makes err NaN, which fails too
            raise ValueError(
                f"gradient of '{self.name}' disagrees with finite differences "
                f"(error {err:.2e} > {GRADIENT_CHECK_TOL:.0e} max|fd| = {GRADIENT_CHECK_TOL * scale:.2e})"
            )


# Each built-in is |P|^2/2 + lam sum_c f(q_c) over the q entries, given as (f, f');
# zero alone has no |P|^2/2, and its f acts on every entry.
_SEPARABLE = {
    "zero": (np.zeros_like, np.zeros_like),
    "quadratic_p": (np.zeros_like, np.zeros_like),
    "quadratic": (lambda q: 0.5 * q**2, lambda q: q),
    "quartic": (lambda q: q**4, lambda q: 4.0 * q**3),
    "cosine": (np.cos, lambda q: -np.sin(q)),
}
BUILTIN_HAMILTONIANS = tuple(_SEPARABLE)


def make_hamiltonian(name: str, n: int, lam: float = 1.0) -> HamiltonianSpec:
    """Build one of the built-in Hamiltonians on a 4n-dimensional fiber.

    Built-ins: ``zero``; ``quadratic_p`` = |P|^2/2; ``quadratic`` =
    |P|^2/2 + lam |q|^2/2; ``quartic`` = |P|^2/2 + lam sum(q_c^4);
    ``cosine`` = |P|^2/2 + lam sum(cos q_c).  Unknown names are rejected, and
    so is a lam whose Hamiltonian fails HamiltonianSpec's construction check.
    """
    if name not in _SEPARABLE:
        raise ValueError(f"unknown Hamiltonian '{name}'")
    f, df = _SEPARABLE[name]
    lam = float(lam)
    if f is np.zeros_like:  # no q-part: with lam = 0, lam * f'(q) is +0.0 whatever the sign of lam
        lam = 0.0
    dim = 4 * n
    qm = np.ones(dim, dtype=bool)
    if name != "zero":
        qm[2::4] = qm[3::4] = False
    pm = ~qm

    def value(z: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(z[..., pm] ** 2, axis=-1) + lam * np.sum(f(z[..., qm]), axis=-1)

    def gradient(z: np.ndarray) -> np.ndarray:
        g = np.array(z, dtype=float)
        g[..., qm] = lam * df(g[..., qm])
        return g

    return HamiltonianSpec(name=name, fiber_dim=dim, value=value, gradient=gradient)


def _require_fiber_match(state_dim: int, ham: HamiltonianSpec) -> None:
    if ham.fiber_dim != state_dim:
        raise DimensionMismatchError(
            f"Hamiltonian fiber dimension {ham.fiber_dim} does not match state dimension {state_dim}"
        )


# ---------------------------------------------------------------------------
# action, residuals, gradient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FieldOperator:
    """J1 ∂1 + J2 ∂2 with the pair standard_fiber_forms(n) on one grid; action and gradient take its image.

    One 2-D GEMM per direction against jit, a read-only C-contiguous copy of Ji.T (the transposed
    view measured ~20% slower per apply at n = 2, N = 32, 64).  Ji.T has one ±1 per row and column,
    so each entry is one exact product plus exact zeros, whatever the GEMM's order or threads.
    """

    grid: TorusGrid
    j1t: np.ndarray = field(repr=False)
    j2t: np.ndarray = field(repr=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """J1 ∂1 Z + J2 ∂2 Z, the principal part of Bridges' field equations."""
        out = diff(values, self.grid, 1).reshape(-1, values.shape[-1]) @ self.j1t
        out += diff(values, self.grid, 2).reshape(-1, values.shape[-1]) @ self.j2t
        return out.reshape(values.shape)

    def gradient(self, values: np.ndarray, ham: HamiltonianSpec, bridges: np.ndarray) -> np.ndarray:
        """The L² gradient of the action, J1 ∂1 Z + J2 ∂2 Z - ∇H(Z), for bridges = apply(values)."""
        return bridges - ham.gradient(values)

    def action(self, values: np.ndarray, ham: HamiltonianSpec, bridges: np.ndarray) -> np.inexact:
        """h1 h2 (1/2 sum(Z·bridges) - sum H(Z)) for bridges = apply(values): two grid-wide np.sums, no BLAS dot.

        A numpy scalar of Z's dtype: float64 for a real Z, complex128 for a complex one.
        """
        return self.grid.cell_area * (0.5 * np.sum(values * bridges) - np.sum(ham.value(values)))


@functools.cache
def _operator_on(grid: TorusGrid, n: int) -> _FieldOperator:
    transposed = [j.T.copy(order="C") for j in standard_fiber_forms(n)]
    for jt in transposed:
        jt.setflags(write=False)
    return _FieldOperator(grid, *transposed)


def _field_operator(state: FieldState, ham: HamiltonianSpec) -> _FieldOperator:
    """The operator of ``state``'s grid and n, built once per (grid, n); ``ham`` must act on the same fiber."""
    _require_fiber_match(state.fiber_dim, ham)
    return _operator_on(state.grid, state.n)


def action(state: FieldState, ham: HamiltonianSpec) -> float:
    """Discrete multisymplectic action h1 h2 sum[1/2 Z·(J1 ∂1 Z + J2 ∂2 Z) - H(Z)].

    The field operator's action, (J1, J2) = standard_fiber_forms(n): two grid-wide
    pairwise np.sum reductions, not a BLAS dot, which OpenBLAS threads at large sizes.
    Centered differences are skew-adjoint and the J_i antisymmetric, so each J_i ∂_i is
    self-adjoint and the exact gradient is J1 ∂1 Z + J2 ∂2 Z - ∇H (l2_gradient).
    Summed over the grid, the quadratic term is the theta-form sum P1 ∂1 q1 + P2 ∂1 q2 + P1 ∂2 q2 - P2 ∂2 q1.
    """
    op = _field_operator(state, ham)
    return float(op.action(state.values, ham, op.apply(state.values)))


def bridges_residual(state: FieldState, ham: HamiltonianSpec) -> np.ndarray:
    """Pointwise residual of the first-order elliptic field equations.

    Zero exactly at critical points of the discrete action; equal to minus
    l2_gradient.  Written out by components, without the field operator or
    the standard pair, as the reference for the gradient.
    """
    _require_fiber_match(state.fiber_dim, ham)
    v = state.values
    d1 = diff(v, state.grid, 1)
    d2 = diff(v, state.grid, 2)
    gh = ham.gradient(v)
    r = np.empty_like(v)
    r[..., 0::4] = gh[..., 0::4] + d1[..., 2::4] - d2[..., 3::4]
    r[..., 1::4] = gh[..., 1::4] + d1[..., 3::4] + d2[..., 2::4]
    r[..., 2::4] = gh[..., 2::4] - d1[..., 0::4] - d2[..., 1::4]
    r[..., 3::4] = gh[..., 3::4] - d1[..., 1::4] + d2[..., 0::4]
    return r


def l2_gradient(state: FieldState, ham: HamiltonianSpec) -> np.ndarray:
    """Exact gradient of the discrete action: J1 ∂1 Z + J2 ∂2 Z - ∇H(Z).

    The field operator's gradient: (J1, J2) = standard_fiber_forms(n), as for the action.
    """
    op = _field_operator(state, ham)
    return op.gradient(state.values, ham, op.apply(state.values))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_state(state: FieldState, path: str | Path) -> None:
    """Write the binary field container (little-endian header + f64 payload) to a file."""
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, state.grid.n1, state.grid.n2, state.n, state.grid.l1, state.grid.l2
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.values, dtype="<f8").tobytes())


def read_state(path: str | Path) -> FieldState:
    """Read a field state from the binary container file written by write_state."""
    with open(path, "rb") as fh:
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
    return FieldState(TorusGrid(n1, n2, l1, l2), values)

