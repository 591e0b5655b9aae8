"""Test fixtures that build inputs for the suite; not collected by pytest."""

import numpy as np

from crms.fields import FieldState, diff
from crms.linalg import BASE_ROTATION, LinearComplexStructure, fiber_complex_matrix


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
    i_fib = fiber_complex_matrix(n)
    x = rng.normal(size=(4 * n, 2)) * spread
    a = 0.5 * (x + i_fib @ x @ BASE_ROTATION)
    d = 2 + 4 * n
    m = np.zeros((d, d))
    m[:2, :2] = BASE_ROTATION
    m[2:, :2] = a
    m[2:, 2:] = i_fib
    return LinearComplexStructure(m)
