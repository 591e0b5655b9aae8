"""Constructive linear normal forms.

Two constructions: a Darboux basis for a pair of fiber symplectic forms
coupled through a complex structure (symplectic Gram-Schmidt with one
omega1-orthogonal projector and a closed-form partner vector), and the full
split-space frame in which a validated 3-form becomes the standard normal
form plus a residual vertical 1-form nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrmsValidationError, DegenerateFormError, DimensionMismatchError
from .linalg import (
    TAU_ALG,
    AlternatingThreeForm,
    LinearComplexStructure,
    _normal_form_coeffs,
    _readonly,
    contraction_matrix,
    pull_back,
    require_invertible,
    validate_crms,
)


@dataclass(frozen=True)
class CrpsPair:
    """Two invertible antisymmetric fiber forms with omega2 = -omega1(·, I·)."""

    omega1: np.ndarray = field(repr=False)
    omega2: np.ndarray = field(repr=False)
    i_fiber: np.ndarray = field(repr=False)

    def __post_init__(self):
        w1 = _readonly(self.omega1, "omega1")
        w2 = _readonly(self.omega2, "omega2")
        ic = _readonly(self.i_fiber, "i_fiber")
        d = w1.shape[0]
        if w1.shape != (d, d) or w2.shape != (d, d) or ic.shape != (d, d):
            raise DimensionMismatchError("omega1, omega2 and i_fiber must be square of equal size")
        if d < 4 or d % 4 != 0:
            raise DimensionMismatchError(f"fiber dimension must be a positive multiple of 4, got {d}")
        scale = max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))))
        for name, w in (("omega1", w1), ("omega2", w2)):
            if np.max(np.abs(w + w.T)) > TAU_ALG * scale:
                raise ValueError(f"{name} is not antisymmetric")
        if np.max(np.abs(ic @ ic + np.eye(d))) > TAU_ALG * float(np.max(np.abs(ic))) ** 2:
            raise ValueError("i_fiber does not square to -Id")
        if np.max(np.abs(w2 + w1 @ ic)) > TAU_ALG * scale:
            raise ValueError("pair violates omega2 = -omega1(·, I·)")
        require_invertible(w1, "omega1")
        require_invertible(w2, "omega2")
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)
        object.__setattr__(self, "i_fiber", ic)

    @property
    def dim(self) -> int:
        return self.omega1.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 4


def crps_darboux(pair: CrpsPair) -> np.ndarray:
    """Darboux basis for a CRPS pair via symplectic Gram-Schmidt.

    Returns a 4n x 4n matrix whose columns (a1, a2, b1, b2) per quadruple
    pull the pair back to the standard forms: omega1(b_i, a_j) = delta_ij
    within each quadruple, all other pairings zero, and the complex structure
    acts as a1 -> a2, b1 -> -b2.  The a- and b-columns of a quadruple have
    the same size, so every step is relative to the pair's own scale.

    Raises
    ------
    Nothing: CrpsPair's invertibility check on omega1 makes every step well
    defined, since omega1(u, a1) = |omega1 a1|^2 > 0 below.
    """
    w1 = pair.omega1
    i_fib = pair.i_fiber
    p = np.eye(pair.dim)
    quadruples: list[np.ndarray] = []
    for _ in range(pair.n):
        # The columns of p are the basis vectors projected into the
        # omega1-complement of the quadruples built so far.  Pivot: the
        # column whose unit vector has the largest sup norm of its omega1
        # row.  Candidates within a relative TAU_ALG of the best are ties,
        # and the lowest index wins, so roundoff does not decide between them.
        norms = np.linalg.norm(p, axis=0)
        usable = norms > TAU_ALG * np.max(norms)
        scores = np.max(np.abs(w1.T @ (p / np.where(usable, norms, 1.0))), axis=0)
        scores[~usable] = 0.0
        i = int(np.argmax(scores >= np.max(scores) * (1.0 - TAU_ALG)))
        # |a1| = score^(-1/2), read off the chosen column alone, so b1, which
        # pairs to 1 with a1, has its size.
        a1 = p[:, i] / np.sqrt(np.linalg.norm(p[:, i]) * np.max(np.abs(w1.T @ p[:, i])))
        a2 = i_fib @ a1
        # u lies in the complement with omega1(u, a1) = |omega1 a1|^2 > 0, and
        # omega1(I x, I y) = -omega1(x, y) makes b1 pair to 1 with a1 and to
        # 0 with a2; the other normal-form pairings follow once b2 = -I b1.
        u = p @ (w1 @ a1)
        s, t = u @ w1 @ a1, u @ w1 @ a2
        b1 = (s * u + t * (i_fib @ u)) / (s * s + t * t)
        q = np.column_stack((a1, a2, b1, -(i_fib @ b1)))
        quadruples.append(q)
        # p <- p - q (q^T omega1 q)^-1 q^T omega1 p, applied twice so that
        # roundoff left by the first pass does not build up over quadruples.
        qw = q.T @ w1
        k = np.linalg.solve(qw @ q, qw)
        for _ in range(2):
            p = p - q @ (k @ p)
    return np.hstack(quadruples)


@dataclass(frozen=True)
class DarbouxFrame:
    """Change of basis to Darboux coordinates plus the residual 1-form nu.

    A plain record that only crms_darboux builds, with read-only arrays.
    Columns are ordered (e1, e2, a1^k, a2^k, b1^k, b2^k); nu holds the
    coefficients of the vertical 1-form in the dual Darboux coframe, and
    reconstruction_error the darboux_reconstruction_error of the pull-back that gave nu.
    """

    basis: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    reconstruction_error: float


def crms_darboux(form: AlternatingThreeForm, structure: LinearComplexStructure) -> DarbouxFrame:
    """Darboux frame of a validated CRMS form.

    The splitting is complex-linear: e1 is the lift of the first base vector
    with zero vertical component in the input basis, e2 = I e1.  Pulling the
    form back by the returned frame yields the standard normal form plus
    nu ∧ eps1 ∧ eps2, up to the frame's reconstruction_error.

    Raises
    ------
    CrmsValidationError
        If (form, structure) fails validate_crms.
    DegenerateFormError
        If the frame is not complex-linear (I a1 = a2 and I b1 = -b2 within 1e-8
        of the column's size; e2 = I e1 by definition), or if the frame with unit
        columns is numerically singular: both verdicts are scale-free.
    """
    report = validate_crms(form, structure)
    if not report.passed:
        raise CrmsValidationError("input is not a CRMS form", report=report)
    d = form.dim
    e1 = np.zeros(d)
    e1[0] = 1.0
    e2 = structure.matrix @ e1

    pair = CrpsPair(contraction_matrix(form, e2), -contraction_matrix(form, e1), structure.fiber_part)
    fiber_basis = crps_darboux(pair)

    frame = np.zeros((d, d))
    frame[:, 0] = e1
    frame[:, 1] = e2
    frame[2:, 2:] = fiber_basis

    # Complex-linearity of the fiber columns, by construction; kept as a cheap guard:
    # I a1 = a2 and I b1 = -b2 per quadruple, relative to each column's size (~ scale^(-1/2)).
    size = np.max(np.abs(frame), axis=0)
    moved = structure.matrix @ frame
    if not (
        np.all(np.abs(moved[:, 2::4] - frame[:, 3::4]) < 1e-8 * size[3::4])
        and np.all(np.abs(moved[:, 4::4] + frame[:, 5::4]) < 1e-8 * size[5::4])
    ):
        raise DegenerateFormError("Darboux frame is not complex-linear")

    pulled = pull_back(form, frame)
    nu = pulled.coeffs[2:, 0, 1]
    error = darboux_reconstruction_error(pulled, nu)
    require_invertible(frame / size, "frame basis")
    frame.setflags(write=False)
    return DarbouxFrame(frame, nu, error)


def darboux_reconstruction_error(pulled: AlternatingThreeForm, nu: np.ndarray) -> float:
    """Max-norm gap between a form pulled back to a Darboux frame and its normal form with residual nu.

    Raises DimensionMismatchError unless nu has 4n entries, and ValueError
    if any of them is not finite.
    """
    target = _normal_form_coeffs((pulled.dim - 2) // 4, nu)
    if not np.all(np.isfinite(target[2:, 0, 1])):
        raise ValueError("nu has non-finite entries")
    return float(np.max(np.abs(pulled.coeffs - target)))
