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
and the gradient for this module and the flow.  Only its ``terms`` take differences:
J1 ∂1 Z and J2 ∂2 Z, which ``apply`` sums and gradient_check bounds.  The one other
caller of diff is bridges_residual, written out by components as the reference.

Grid sums use numpy's pairwise reductions, so results are deterministic for
a fixed shape regardless of threading.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .linalg import _number, _readonly, standard_fiber_forms

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
        # Python numbers, so equal grids share spacings and an _operator_on entry; write_state takes int sizes.
        for name, kind in (("n1", int), ("n2", int), ("l1", float), ("l2", float)):
            if (number := _number(getattr(self, name), kind)) is None:
                what = "grid resolution must be an integer" if kind is int else "periods must be real numbers"
                raise ValueError(f"{what}, got {getattr(self, name)!r}")
            object.__setattr__(self, name, number)
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

# A power of two, so eps delta and 1/eps are exact.  Im A is h1 h2 eps times the pairing's terms, the
# largest ~ |Z| |delta| / min(h1, h2), and h1 h2 / min(h1, h2) >= sqrt(h1 h2) >= 2^-511 on any TorusGrid:
# 2^-844 ~ 1e-254 stays normal (eps = 1e-200 underflowed at periods 1e-140).  Truncation: O(eps^2).
COMPLEX_STEP = 2.0**-333


@functools.cache
def _sum_roundings(m: int) -> int:
    """The most roundings a term takes in numpy's pairwise sum of m floats.

    numpy adds fewer than 8 floats in turn.  Up to 128 it adds every eighth float into one of eight
    accumulators, joins them by a tree of depth 3 and adds the last m % 8 in turn.  Above 128 it sums
    the halves (the first a multiple of 8) apart and adds them.  A sum of m complex entries runs the
    same recursion on its 2m interleaved floats, four accumulators a part: at most _sum_roundings(2m).
    """
    if m <= 128:
        return m - 1 if m < 8 else m // 8 + 2 + m % 8
    half = m // 2 - m // 2 % 8
    return 1 + max(_sum_roundings(half), _sum_roundings(m - half))


def _gamma(k: int) -> float:
    """K u / (1 - K u), u = 2^-53: the relative error bound of K roundings (Higham, 2002, §3.1)."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian density H(Z) as a value/gradient pair of fiber functions.

    ``value(z)`` maps fiber values of shape (..., dim) to densities of shape (...,);
    ``gradient(z)`` returns the fiber gradient with shape (..., dim).  H depends on the
    fiber value only.  ``value`` must take complex input and be complex-analytic, real on
    real input: construction checks the gradient, as ``crms gradcheck`` checks the action's,
    against the complex step d = Im value(z + i eps e_c) / eps, exact to roundoff, at six
    seeded points moved along every component in one (dim, 6, dim) call; eps is COMPLEX_STEP
    unless the gradient is so small that eps ∇H would leave the normal range.  It fails unless
    every value's real part is finite and max|gradient - d| <= gamma_K max|d| (gamma_K = _gamma(K),
    no floor at 1), K = 9 + _sum_roundings(dim) for both sides: 4 in a built-in
    entry's imaginary part (sin to 1 ulp and a product, or z^4 by two squarings), 1 for lambda,
    the complex sum of 2n q or P entries, 1 where they add, and at most 3 in its gradient.
    Only the moved entry has an imaginary part, so max|d| scales both sides.
    """

    name: str
    fiber_dim: int
    value: FiberFunction = field(repr=False)
    gradient: FiberFunction = field(repr=False)

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        if (dim := _number(self.fiber_dim, int)) is None or dim < 4 or dim % 4 != 0:
            raise DimensionMismatchError("fiber dimension must be a positive multiple of 4")
        object.__setattr__(self, "fiber_dim", dim)
        rng = np.random.default_rng(20240901)
        z = rng.normal(size=(6, dim))
        grad = np.asarray(self.gradient(z), dtype=float)
        if grad.shape != z.shape:
            raise ValueError(f"gradient returned shape {grad.shape}, expected {z.shape}")
        # eps = COMPLEX_STEP 2^m for the least m >= 0 with eps max|grad| >= 2^-969, normal with 53 bits to spare:
        # max|grad| >= 2^(e - 1) for frexp's e, so m = -635 - e.  m = 0 for every built-in.  An entry that
        # underflows is off by 2^-1074 <= 2^-105 eps max|grad|.  m <= 233 (eps <= 2^-100) keeps the O(eps^2)
        # truncation far below roundoff.
        peak = float(np.max(np.abs(grad)))
        m = -635 - int(np.frexp(peak)[1]) if 0.0 < peak < np.inf else 0
        eps = COMPLEX_STEP * 2.0 ** min(max(m, 0), 233)
        h = np.asarray(self.value(z + 1j * eps * np.eye(dim)[:, None, :]))
        if not np.all(np.isfinite(h.real)):
            raise ValueError(f"value of '{self.name}' is not finite at the construction check's points")
        d = h.imag.T / eps
        bound = _gamma(9 + _sum_roundings(dim)) * float(np.max(np.abs(d)))
        err = float(np.max(np.abs(grad - d)))
        if not err <= bound < np.inf:  # a NaN error fails too
            raise ValueError(
                f"gradient of '{self.name}' disagrees with the complex step of its value (error {err:.2e} >"
                f" bound {bound:.2e}); value must be complex-analytic and real on real input"
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
    ``cosine`` = |P|^2/2 + lam sum(cos q_c).  Rejected: unknown names, an n that is not a positive
    integer, a lam that is not real (bools are neither), a lam whose H fails HamiltonianSpec's check.
    """
    if name not in _SEPARABLE:
        raise ValueError(f"unknown Hamiltonian '{name}'")
    count, real = _number(n, int), _number(lam, float)
    if count is None or count < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if real is None:
        raise ValueError(f"lambda must be a real number, got {lam!r}")
    f, df = _SEPARABLE[name]
    lam = 0.0 if f is np.zeros_like else real  # no q-part: with lam = 0, lam * f'(q) is +0.0 whatever the sign
    dim = 4 * count
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

    def terms(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """J1 ∂1 Z and J2 ∂2 Z as (n1 n2, 4n) arrays, each one flat diff and one GEMM."""
        g, dim = self.grid, values.shape[-1]
        return diff(values, g, 1).reshape(-1, dim) @ self.j1t, diff(values, g, 2).reshape(-1, dim) @ self.j2t

    def apply(self, values: np.ndarray) -> np.ndarray:
        """J1 ∂1 Z + J2 ∂2 Z, the principal part of Bridges' field equations, summed in place."""
        out, second = self.terms(values)
        out += second
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


def gradient_check(state: FieldState, ham: HamiltonianSpec, deltas) -> tuple[list[float], list[float]]:
    """Compare c = Im A(Z + i eps delta) / eps with p = h1 h2 <g, delta>, g the gradient, along each delta.

    Returns each |c - p| / |p| and each |c - p| over the bound gamma_K h1 h2 sum(|delta| |LZ| +
    |Z| |L delta| + |delta| |∇H|), with gamma_K = _gamma(K) and |Lx| = |J1 ∂1 x| + |J2 ∂2 x| over the
    operator's terms, which apply rounds on their own.  K adds the most roundings a term of c takes
    to the most a term of p takes, with s = _sum_roundings, N entries and M points:
    - c, L terms: 3 in a difference (numpy divides a complex array by 2h as a product with 1/(2h)),
      1 where the directions add (the GEMMs against the signed permutations Ji.T are exact), 2 in
      the complex product, s(2N), and 2 for the H sum's subtraction and h1 h2 (1/2 and 1/eps are exact).
    - c, H terms: 4 in a built-in's entry (sin to 1 ulp and a product, or z^4 by two squarings),
      1 for lambda, s(4n) over the fiber, 1 where P and q add, s(2M), and the same 2.
    - p: 2 in a difference, 1 where the directions add, 1 for -∇H (itself at most 3), 1 for delta,
      s(N), and 1 for h1 h2.
    A non-finite error or bound fails; a zero pairing's relative error is not finite.
    """
    op = _field_operator(state, ham)
    z, area, (n1, n2, dim) = state.values, state.grid.cell_area, state.values.shape

    def size_of_l(terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:  # |Lx| from x's two terms
        return sum(np.abs(t) for t in terms).reshape(z.shape)

    # One op.terms(Z) and one ∇H(Z) serve the bound's |LZ| + |∇H| and the gradient, whose terms
    # then add in place as apply adds them.
    (first, second), grad_h = op.terms(z), ham.gradient(z)
    delta_weight = size_of_l((first, second)) + np.abs(grad_h)
    first += second
    grad = first.reshape(z.shape) - grad_h
    m = n1 * n2
    k = 14 + max(_sum_roundings(2 * m * dim), _sum_roundings(dim) + _sum_roundings(2 * m)) + _sum_roundings(m * dim)
    gamma = _gamma(k)
    errors, ratios = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for delta in deltas:
            w = z + 1j * COMPLEX_STEP * delta
            pairing = area * np.sum(grad * delta)
            err = abs(op.action(w, ham, op.apply(w)).imag / COMPLEX_STEP - pairing)
            bound = gamma * area * np.sum(np.abs(delta) * delta_weight + np.abs(z) * size_of_l(op.terms(delta)))
            errors.append(float(err / abs(pairing)))
            ratios.append(float(err / bound))
    return errors, ratios


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
    """Read a field state from the binary container file written by write_state.

    The file's size is checked against the one its header declares before the payload is read.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("truncated field container")
        magic, version, n1, n2, n, l1, l2 = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported container version {version}")
        expected = _HEADER.size + 8 * n1 * n2 * 4 * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"container has {size} bytes, expected {expected}")
        payload = fh.read(expected - _HEADER.size)
    if _HEADER.size + len(payload) != expected:  # the file shrank after fstat
        raise ValueError(f"container has {_HEADER.size + len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n1, n2, 4 * n)
    return FieldState(TorusGrid(n1, n2, l1, l2), values)

