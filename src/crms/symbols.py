"""Principal symbols of the two first-order field operators.

Replacing each partial derivative by a covector component and dropping the
zero-order Hamiltonian terms turns the operators into matrices.  The
regularized (Bridges) operator, the residual -(J1 ∂1 + J2 ∂2) of the field
equations, has the symbol -(xi1 J1 + xi2 J2) for the standard pair
(J1, J2) = standard_fiber_forms(n); it is elliptic: the symbol is invertible
with |det| = |xi|^(4n).  The general (De Donder-Weyl) operator is not: its
symbol has an n-dimensional kernel for every nonzero covector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import _number, standard_fiber_forms

OPERATOR_TAGS = ("DDW", "Bridges")

_KERNEL_REL_TOL = 1e-10  # singular values below this fraction of the largest count as zero


@dataclass(frozen=True)
class SymbolReport:
    """Kernel dimension and determinant of a principal symbol."""

    kernel_dim: int
    determinant: float


def _ddw_block(x1: float, x2: float) -> np.ndarray:
    # Rows (r_q, r_p1, r_p2), columns (q, p1, p2).
    return np.array(
        [
            [0.0, x1, x2],
            [-x1, 0.0, 0.0],
            [-x2, 0.0, 0.0],
        ]
    )


def principal_symbol(operator_tag: str, xi: np.ndarray, n: int) -> SymbolReport:
    """Assemble the first-order symbol matrix and report its kernel and determinant.

    Parameters
    ----------
    operator_tag : {"DDW", "Bridges"}
    xi : 2-covector, finite, with |xi| at least the smallest normal double
    n : number of field components, a positive integer (fiber dimension 4n or 3n)
    """
    if operator_tag not in OPERATOR_TAGS:
        raise ValueError(f"operator_tag must be one of {OPERATOR_TAGS}, got '{operator_tag}'")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise DimensionMismatchError(f"xi must be a 2-vector, got shape {xi.shape}")
    if not np.finfo(float).tiny <= float(np.hypot(xi[0], xi[1])) < np.inf:
        raise ValueError(f"covector must be finite and of normal size, got xi = {xi.tolist()}")
    if (count := _number(n, int)) is None or count < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if operator_tag == "Bridges":
        w1, w2 = standard_fiber_forms(count)
        matrix = -(xi[0] * w1 + xi[1] * w2)
    else:
        matrix = np.kron(np.eye(count), _ddw_block(*xi))
    sv = np.linalg.svd(matrix, compute_uv=False)
    kernel_dim = int(np.sum(sv < _KERNEL_REL_TOL * sv[0])) if sv[0] > 0.0 else matrix.shape[0]
    return SymbolReport(kernel_dim=kernel_dim, determinant=float(np.linalg.det(matrix)))

