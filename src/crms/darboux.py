"""Constructive linear normal forms.

Two constructions: a Darboux basis for a pair of fiber symplectic forms
coupled through a complex structure (iterative symplectic Gram-Schmidt), and
the full split-space frame in which a validated 3-form becomes the standard
normal form plus a residual vertical 1-form nu.
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
    contraction_matrix,
    pull_back,
    require_invertible,
    validate_crms,
)

_RANK_TOL = 1e-12


@dataclass(frozen=True)
class CrpsPair:
    """Two invertible antisymmetric fiber forms with omega2 = -omega1(·, I·)."""

    omega1: np.ndarray = field(repr=False)
    omega2: np.ndarray = field(repr=False)
    i_fiber: np.ndarray = field(repr=False)

    def __post_init__(self):
        w1 = np.array(self.omega1, dtype=float)
        w2 = np.array(self.omega2, dtype=float)
        ic = np.array(self.i_fiber, dtype=float)
        d = w1.shape[0]
        if w1.shape != (d, d) or w2.shape != (d, d) or ic.shape != (d, d):
            raise DimensionMismatchError("omega1, omega2 and i_fiber must be square of equal size")
        if d < 4 or d % 4 != 0:
            raise DimensionMismatchError(f"fiber dimension must be a positive multiple of 4, got {d}")
        scale = max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))))
        for name, w in (("omega1", w1), ("omega2", w2)):
            if np.max(np.abs(w + w.T)) > TAU_ALG * scale:
                raise ValueError(f"{name} is not antisymmetric")
        if np.max(np.abs(ic @ ic + np.eye(d))) > TAU_ALG:
            raise ValueError("i_fiber does not square to -Id")
        if np.max(np.abs(w2 + w1 @ ic)) > TAU_ALG * scale:
            raise ValueError("pair violates omega2 = -omega1(·, I·)")
        require_invertible(w1, "omega1")
        require_invertible(w2, "omega2")
        for arr, attr in ((w1, "omega1"), (w2, "omega2"), (ic, "i_fiber")):
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)

    @property
    def dim(self) -> int:
        return self.omega1.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 4


def _symplectic_complement(built: list[np.ndarray], w1: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of {v : omega1(q, v) = 0 for built q}."""
    d = w1.shape[0]
    if not built:
        return np.eye(d)
    constraints = np.stack(built) @ w1
    _, sv, vh = np.linalg.svd(constraints)
    rank = int(np.sum(sv > _RANK_TOL * sv[0]))
    if rank != len(built):
        raise DegenerateFormError("constructed quadruples are omega1-degenerate")
    return vh[rank:].T


def crps_darboux(pair: CrpsPair) -> np.ndarray:
    """Darboux basis for a CRPS pair via symplectic Gram-Schmidt.

    Returns a 4n x 4n matrix whose columns (a1, a2, b1, b2) per quadruple
    pull the pair back to the standard forms: omega1(b_i, a_j) = delta_ij
    within each quadruple, all other pairings zero, and the complex structure
    acts as a1 -> a2, b1 -> -b2.

    Raises
    ------
    DegenerateFormError
        If no admissible b1 exists (degenerate omega1).
    """
    w1 = pair.omega1
    i_fib = pair.i_fiber
    d = pair.dim
    eye = np.eye(d)
    built: list[np.ndarray] = []
    columns: list[np.ndarray] = []
    for _ in range(pair.n):
        comp = _symplectic_complement(built, w1)
        if comp.shape[1] != d - len(built):
            raise DegenerateFormError("symplectic complement has unexpected dimension")
        # Pivot: project every original basis vector into the complement at
        # once and score it by the sup norm of its omega1 row.  Candidates
        # within a relative TAU_ALG of the best are ties, and the lowest index
        # wins, so roundoff does not decide between them.
        proj = comp @ comp.T
        norms = np.linalg.norm(proj, axis=0)
        usable = norms >= 1e-8
        scores = np.max(np.abs(w1.T @ (proj / np.where(usable, norms, 1.0))), axis=0)
        scores[~usable] = -1.0
        best_score = float(np.max(scores))
        if best_score < 1e-10:
            raise DegenerateFormError("no usable pivot for the next quadruple")
        i = int(np.argmax(scores >= best_score * (1.0 - TAU_ALG)))
        a1 = comp @ (comp.T @ eye[i])
        a1 = a1 / np.linalg.norm(a1)
        a2 = i_fib @ a1
        # b1 lives in the complement and satisfies omega1(b1, a1) = 1,
        # omega1(b1, a2) = 0; the remaining normal-form pairings follow from
        # the CRPS relation once b2 = -I b1.
        rows = np.stack([comp.T @ (w1 @ a1), comp.T @ (w1 @ a2)])
        rhs = np.array([1.0, 0.0])
        x, _, rank, sv = np.linalg.lstsq(rows, rhs, rcond=None)
        if rank < 2 or float(np.linalg.norm(rows @ x - rhs)) > 1e-8:
            raise DegenerateFormError("no vector pairs to 1 with the pivot (degenerate omega1)")
        b1 = comp @ x
        b2 = -(i_fib @ b1)
        for v in (a1, a2, b1, b2):
            built.append(v)
        columns.extend((a1, a2, b1, b2))
    return np.column_stack(columns)


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
        If the frame is not complex-linear: I e1 = e2 within TAU_ALG, and
        I a1 = a2, I b1 = -b2 within 1e-8 for every quadruple; or if the
        frame basis is numerically singular.
    """
    report = validate_crms(form, structure)
    if not report.passed:
        raise CrmsValidationError("input is not a CRMS form", report=report)
    d = form.dim
    e1 = np.zeros(d)
    e1[0] = 1.0
    e2 = structure.matrix @ e1

    omega1 = contraction_matrix(form, e2)
    omega2 = -contraction_matrix(form, e1)
    pair = CrpsPair(omega1, omega2, structure.fiber_part)
    fiber_basis = crps_darboux(pair)

    frame = np.zeros((d, d))
    frame[:, 0] = e1
    frame[:, 1] = e2
    frame[2:, 2:] = fiber_basis

    # Complex-linearity of the frame, by construction; kept as a cheap guard:
    # I e1 = e2, and per quadruple I a1 = a2 and I b1 = -b2.
    moved = structure.matrix @ frame
    if not (
        np.max(np.abs(moved[:, 0] - frame[:, 1])) < TAU_ALG
        and np.max(np.abs(moved[:, 2::4] - frame[:, 3::4])) < 1e-8
        and np.max(np.abs(moved[:, 4::4] + frame[:, 5::4])) < 1e-8
    ):
        raise DegenerateFormError("Darboux frame is not complex-linear")

    pulled = pull_back(form, frame)
    nu = pulled.coeffs[2:, 0, 1]
    error = darboux_reconstruction_error(pulled, nu)
    require_invertible(frame, "frame basis")
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
