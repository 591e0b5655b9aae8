"""Test fixtures that build inputs for the suite; not collected by pytest."""

import copy
from fractions import Fraction

import numpy as np

from crms.darboux import CrpsPair
from crms.fields import FieldState, HamiltonianSpec, TorusGrid, action, diff
from crms.linalg import (
    BASE_ROTATION,
    TAU_ALG,
    AlternatingThreeForm,
    LinearComplexStructure,
    standard_complex_structure,
    standard_fiber_forms,
)


def standard_pair(n: int) -> CrpsPair:
    """The standard CRPS pair: the cached (omega1, omega2) and I."""
    return CrpsPair(*standard_fiber_forms(n), standard_complex_structure(n).fiber_part)


def with_scaled_gradient(ham: HamiltonianSpec, scale: float) -> HamiltonianSpec:
    """ham with its gradient times scale: the negative control of the gradient checks.

    A copy of the checked ham with the gradient replaced, so the construction
    check, which rejects any scale but 1 of a nonzero gradient, does not run.
    """
    scaled = copy.copy(ham)
    object.__setattr__(scaled, "gradient", lambda z: scale * ham.gradient(z))
    return scaled


def checked_scaled_gradient(ham: HamiltonianSpec, scale: float) -> HamiltonianSpec:
    """A HamiltonianSpec of ham's value and scale times its gradient, built through the construction check."""
    return HamiltonianSpec(ham.name, ham.fiber_dim, ham.value, lambda z: scale * ham.gradient(z))


def richardson_directional(state: FieldState, ham: HamiltonianSpec, delta: np.ndarray) -> float:
    """The action's derivative along delta: central differences at eps in {1e-3, 1e-4, 1e-5}, Richardson-extrapolated twice."""
    d = []
    for eps in (1e-3, 1e-4, 1e-5):
        plus = action(FieldState(state.grid, state.values + eps * delta), ham)
        minus = action(FieldState(state.grid, state.values - eps * delta), ham)
        d.append((plus - minus) / (2.0 * eps))
    r1 = [(100.0 * d[i + 1] - d[i]) / 99.0 for i in range(2)]
    return (10_000.0 * r1[1] - r1[0]) / 9_999.0


def pairwise_sum(parts: list[tuple[float, ...]]) -> tuple[tuple[float, ...], int]:
    """numpy's pairwise sum of parts (1-tuples for floats, (re, im) for complex), in numpy's order.

    Returns the sum and the most roundings one term took, counted per addition: each
    partial sum carries the count of its most-rounded term, and adding two partials
    takes one more.  A complex array runs the recursion on its interleaved floats, so
    a block holds 64 entries and four accumulators.
    """
    width = len(parts[0])
    per = 8 // width
    add = lambda a, b: (tuple(x + y for x, y in zip(a[0], b[0])), max(a[1], b[1]) + 1)
    if len(parts) * width < 8:
        total = (parts[0], 0)  # 0 + first term is exact
        for part in parts[1:]:
            total = add(total, (part, 0))
        return total
    if len(parts) * width <= 128:
        acc = [(part, 0) for part in parts[:per]]
        tail = len(parts) - len(parts) % per
        for i in range(per, tail, per):
            acc = [add(a, (part, 0)) for a, part in zip(acc, parts[i : i + per])]
        while len(acc) > 1:
            acc = [add(acc[i], acc[i + 1]) for i in range(0, len(acc), 2)]
        total = acc[0]
        for part in parts[tail:]:
            total = add(total, (part, 0))
        return total
    half = len(parts) * width // 2
    half = (half - half % 8) // width
    return add(pairwise_sum(parts[:half]), pairwise_sum(parts[half:]))


def roll_diff(values: np.ndarray, grid: TorusGrid, direction: int) -> np.ndarray:
    """The np.roll form of the centered periodic difference, (roll(v, -1) - roll(v, 1)) / (2h)."""
    axis = direction - 1
    h = grid.h1 if direction == 1 else grid.h2
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def loop_operator(z: np.ndarray, h: float, direction: int) -> np.ndarray:
    """J D z for a loop z of shape (N, 4n) with step h: D the np.roll centered difference.

    Per block (q1, q2, P1, P2), J1 w = (-P1, -P2, q1, q2) and J2 w = (P2, -P1, q2, -q1), the
    signs bridges_residual writes out, not taken from standard_fiber_forms.
    """
    dz = (np.roll(z, -1, axis=0) - np.roll(z, 1, axis=0)) / (2.0 * h)
    q1, q2, p1, p2 = (dz[:, c::4] for c in range(4))
    jdz = np.empty_like(z)
    for c, block in enumerate((-p1, -p2, q1, q2) if direction == 1 else (p2, -p1, q2, -q1)):
        jdz[:, c::4] = block
    return jdz


def exact_action_and_gradient(z, h1: Fraction, h2: Fraction, name: str, lam: Fraction):
    """The discrete action and its L² gradient at n = 1 over Q, with fractions alone.

    ``z`` is a nested list [i][j] of fibers (q1, q2, P1, P2) of Fractions on a periodic grid of
    steps h1, h2.  D_i is the centered difference (z[+1] - z[-1]) / (2 h_i); J1 w = (-P1, -P2, q1, q2)
    and J2 w = (P2, -P1, q2, -q1); H is |P|²/2 + lam |q|²/2 (``quadratic``) or |P|²/2 + lam sum q_c⁴
    (``quartic``).  Returns A = h1 h2 sum(z·Lz/2 - H(z)) and g = Lz - ∇H(z), L = J1 D1 + J2 D2.
    """
    n1, n2 = len(z), len(z[0])
    total, gradient = Fraction(0), []
    for i in range(n1):
        row = []
        for j in range(n2):
            d1 = [(a - b) / (2 * h1) for a, b in zip(z[(i + 1) % n1][j], z[i - 1][j])]
            d2 = [(a - b) / (2 * h2) for a, b in zip(z[i][(j + 1) % n2], z[i][j - 1])]
            lz = [-d1[2] + d2[3], -d1[3] - d2[2], d1[0] + d2[1], d1[1] - d2[0]]
            q1, q2, p1, p2 = z[i][j]
            if name == "quadratic":
                h = (p1 * p1 + p2 * p2) / 2 + lam * (q1 * q1 + q2 * q2) / 2
                grad_h = [lam * q1, lam * q2, p1, p2]
            else:
                h = (p1 * p1 + p2 * p2) / 2 + lam * (q1**4 + q2**4)
                grad_h = [4 * lam * q1**3, 4 * lam * q2**3, p1, p2]
            total += sum(a * b for a, b in zip(z[i][j], lz)) / 2 - h
            row.append([a - b for a, b in zip(lz, grad_h)])
        gradient.append(row)
    return h1 * h2 * total, gradient


def stacked_bridges_operator(values: np.ndarray, grid: TorusGrid, j1: np.ndarray, j2: np.ndarray) -> np.ndarray:
    """J1 ∂1 Z + J2 ∂2 Z as first written: stacked matmuls of the (n1, n2, 4n) differences against the j.T views.

    The differences are the np.roll form, which diff equals bitwise.
    """
    return roll_diff(values, grid, 1) @ j1.T + roll_diff(values, grid, 2) @ j2.T


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


def structure_with_coupling(n: int, rng: np.random.Generator, spread: float = 0.5) -> LinearComplexStructure:
    """Standard complex structure with a random admissible coupling block.

    The square identity forces the coupling to satisfy A j = -I' A; the form
    conditions are insensitive to A, so the standard form stays CRMS for the
    returned structure.
    """
    i_fib = standard_complex_structure(n).fiber_part
    x = rng.normal(size=(4 * n, 2)) * spread
    a = 0.5 * (x + i_fib @ x @ BASE_ROTATION)
    d = 2 + 4 * n
    m = np.zeros((d, d))
    m[:2, :2] = BASE_ROTATION
    m[2:, :2] = a
    m[2:, 2:] = i_fib
    return LinearComplexStructure(m)


def darboux_basis_by_loop(pair: CrpsPair) -> np.ndarray:
    """crps_darboux with its pivot scored one candidate at a time.

    Each column of the omega1-projector, normalised, is scored by the sup
    norm of its omega1 row in its own loop iteration.  The pivot is the
    lowest-index candidate within a relative TAU_ALG of the best score; the
    rest of the construction is crps_darboux's.
    """
    w1, i_fib, d = pair.omega1, pair.i_fiber, pair.dim
    p = np.eye(d)
    built: list[np.ndarray] = []
    for _ in range(pair.n):
        floor = TAU_ALG * max(float(np.linalg.norm(p[:, i])) for i in range(d))
        scores = {}
        for i in range(d):
            norm = float(np.linalg.norm(p[:, i]))
            if norm > floor:
                scores[i] = float(np.max(np.abs(w1.T @ (p[:, i] / norm))))
        best = max(scores.values())
        i = next(i for i, score in scores.items() if score >= best * (1.0 - TAU_ALG))
        a1 = p[:, i] / np.sqrt(np.linalg.norm(p[:, i]) * np.max(np.abs(w1.T @ p[:, i])))
        a2 = i_fib @ a1
        u = p @ (w1 @ a1)
        s, t = u @ w1 @ a1, u @ w1 @ a2
        b1 = (s * u + t * (i_fib @ u)) / (s * s + t * t)
        q = np.column_stack((a1, a2, b1, -(i_fib @ b1)))
        built.append(q)
        qw = q.T @ w1
        k = np.linalg.solve(qw @ q, qw)
        for _ in range(2):
            p = p - q @ (k @ p)
    return np.hstack(built)


def _wedge_one_form(omega: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(omega ∧ eps)(u, v, w) = omega(u, v) eps(w) + omega(v, w) eps(u) + omega(w, u) eps(v)."""
    return (
        np.einsum("ij,k->ijk", omega, eps)
        + np.einsum("jk,i->ijk", omega, eps)
        + np.einsum("ki,j->ijk", omega, eps)
    )


def normal_form_gap(form: AlternatingThreeForm, basis: np.ndarray, nu: np.ndarray) -> float:
    """Max-norm gap between the form pulled back by basis and the normal form with residual nu.

    The pull-back contracts one basis index per plain einsum.  The normal form
    omega1∧eps2 - omega2∧eps1 + (nu∧eps1)∧eps2 is summed from its 2-forms,
    written out per quadruple (a1, a2, b1, b2) of the coframe as
    omega1 = b1∧a1 + b2∧a2 and omega2 = b1∧a2 - b2∧a1.
    """
    d = form.dim
    pulled = np.einsum("pqr,pa->aqr", form.coeffs, basis)
    pulled = np.einsum("aqr,qb->abr", pulled, basis)
    pulled = np.einsum("abr,rc->abc", pulled, basis)
    eps1, eps2, nu_full = np.zeros(d), np.zeros(d), np.zeros(d)
    eps1[0], eps2[1], nu_full[2:] = 1.0, 1.0, nu
    omega1, omega2 = np.zeros((d, d)), np.zeros((d, d))
    for a1 in range(2, d, 4):
        a2, b1, b2 = a1 + 1, a1 + 2, a1 + 3
        omega1[b1, a1] = omega1[b2, a2] = omega2[b1, a2] = 1.0
        omega2[b2, a1] = -1.0
    omega1, omega2 = omega1 - omega1.T, omega2 - omega2.T
    nu_eps1 = np.outer(nu_full, eps1) - np.outer(eps1, nu_full)
    target = _wedge_one_form(omega1, eps2) - _wedge_one_form(omega2, eps1) + _wedge_one_form(nu_eps1, eps2)
    return float(np.max(np.abs(pulled - target)))


def i_compatibility_defect(form: AlternatingThreeForm, structure: LinearComplexStructure) -> float:
    """Max over basis xi and vertical basis pairs of |form(I xi, v1, v2) + form(xi, v1, I v2)|.

    Each side is one plain np.einsum over its written-out index sum: I xi is
    column xi of the matrix, and I v2 for a vertical v2 stays vertical.
    """
    c = form.coeffs[:, 2:, 2:]
    lhs = np.einsum("pab,px->xab", c, structure.matrix)
    rhs = np.einsum("xaq,qb->xab", c, structure.matrix[2:, 2:])
    return float(np.max(np.abs(lhs + rhs)))
