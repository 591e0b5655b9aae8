"""Fiber metric and almost-complex structures from a CRPS pair.

Given the two contraction forms and a reference inner product compatible with
the fiber complex structure, the polar decomposition of the musical operator
of omega1 produces a metric g and a pair of anticommuting almost-complex
structures J1, J2 with omega1 = g(·, J1·), omega2 = g(·, J2·) and J2 = I J1.
Adjoints are taken with respect to the reference metric, implemented by
conjugating with its Cholesky factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .darboux import CrpsPair
from .errors import DimensionMismatchError
from .linalg import SpdMatrix, _require, standard_complex_structure, standard_fiber_forms


@dataclass(frozen=True)
class CompatibleTriple:
    """Metric g and generators J1, J2 = I J1 of a CRPS pair.

    A plain record that only build_compatible builds, after checking
    J1² = J2² = -Id, J1 J2 = -J2 J1 and omega_i = g(·, J_i·); j1 and j2 are
    read-only.
    """

    g: SpdMatrix
    j1: np.ndarray = field(repr=False)
    j2: np.ndarray = field(repr=False)


def build_compatible(
    omega1: np.ndarray,
    omega2: np.ndarray,
    i_fiber: np.ndarray,
    reference: SpdMatrix | None = None,
) -> CompatibleTriple:
    """Run the polar-decomposition construction on a CRPS pair.

    Parameters
    ----------
    omega1, omega2 : antisymmetric (4n, 4n) arrays
        The two contraction forms; omega2 must equal -omega1(·, I·).
    i_fiber : (4n, 4n) array
        Fiber complex structure.
    reference : SpdMatrix, optional
        Inner product compatible with i_fiber (default: identity).  Making
        it explicit keeps the construction deterministic and lets tests vary
        the starting point.

    Raises
    ------
    DimensionMismatchError, ValueError, DegenerateFormError
        Whatever ``CrpsPair`` raises for (omega1, omega2, i_fiber), such as
        DegenerateFormError for a singular omega1 or omega2.
    DimensionMismatchError
        If the reference has another dimension.
    ValueError
        If the reference is not I-compatible or a construction check fails.
    """
    pair = CrpsPair(omega1, omega2, i_fiber)
    w1, w2, i_fib = pair.omega1, pair.omega2, pair.i_fiber
    if reference is None:
        reference = SpdMatrix(np.eye(pair.dim))
    if reference.dim != pair.dim:
        raise DimensionMismatchError("reference dimension does not match the forms")

    r = reference.matrix
    r_size = float(np.max(np.abs(r)))
    _require(i_fib.T @ r @ i_fib - r, r_size, "reference inner product is not compatible with i_fiber")

    # Orthonormal coordinates of the reference metric: x_hat = L^T x, so an
    # operator M becomes L^T M L^{-T} and the reference pairing the dot product.
    chol = np.linalg.cholesky(r)
    # a_hat anticommutes with L^T I L^{-T}: omega2 = -omega1 I is antisymmetric (CrpsPair) and I^T r I = r.
    a_hat = np.linalg.solve(chol, np.linalg.solve(chol, w1).T).T  # L^{-1} W1 L^{-T}

    # Polar factors from one SVD: a_hat = (U S U^T)(U V^T) = B_hat J1_hat.
    u, sv, vt = np.linalg.svd(a_hat)
    j1_hat = u @ vt
    b_hat = (u * sv) @ u.T

    j1 = np.linalg.solve(chol.T, j1_hat @ chol.T)
    j2 = i_fib @ j1
    g = SpdMatrix(chol @ b_hat @ chol.T)

    # The defining identities of the triple, checked before returning.
    eye = np.eye(pair.dim)
    g_size, j1_size, j2_size = (float(np.max(np.abs(x))) for x in (g.matrix, j1, j2))
    _require(j1 @ j1 + eye, j1_size * j1_size, "j1 does not square to -Id")
    _require(j2 @ j2 + eye, j2_size * j2_size, "j2 does not square to -Id")
    _require(j1 @ j2 + j2 @ j1, j1_size * j2_size, "j1 and j2 do not anticommute")
    _require(g.matrix @ j1 - w1, g_size * j1_size, "construction failed: omega1 != g(·, J1·)")
    _require(g.matrix @ j2 - w2, g_size * j2_size, "construction failed: omega2 != g(·, J2·)")
    j1.setflags(write=False)
    j2.setflags(write=False)
    return CompatibleTriple(g=g, j1=j1, j2=j2)


def standard_triple(n: int) -> CompatibleTriple:
    """Compatible triple of the standard CRPS pair with identity reference."""
    return build_compatible(*standard_fiber_forms(n), standard_complex_structure(n).fiber_part)
