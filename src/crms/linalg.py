"""Dense linear algebra on a split vector space T ⊕ V.

Everything here is pointwise (single fiber) material: alternating 3-tensors,
block complex structures and the four-condition validator for
complex-regularized multisymplectic forms.  All types are immutable after
construction and all operations are pure functions.

Basis convention: indices 0, 1 span the horizontal space T; indices
2 .. 2+4n-1 span the vertical space V, grouped in quadruples
(a1, a2, b1, b2) per complex fiber dimension k = 1..n.  In field-theory
coordinates a quadruple reads (q1, q2, P1, P2).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateFormError, DimensionMismatchError

# Tolerance for algebraic identity checks (I^2 = -Id, symmetry, ...).  Double
# precision with dimensions <= ~50 keeps roundoff far below this.
TAU_ALG = 1e-9

# Non-degeneracy is decided by a condition-number threshold on the contraction
# matrix; scale-invariant, unlike a raw determinant cutoff.
COND_LIMIT = 1e12

_PERM_SIGNS = (
    ((0, 1, 2), 1.0),
    ((0, 2, 1), -1.0),
    ((1, 2, 0), 1.0),
    ((1, 0, 2), -1.0),
    ((2, 0, 1), 1.0),
    ((2, 1, 0), -1.0),
)


def _readonly(a: np.ndarray, name: str) -> np.ndarray:
    """A read-only float copy; ValueError if an entry is NaN or infinite.

    NaN fails every tolerance comparison and inf breaks the decompositions,
    so each input type checks finiteness here before anything else.
    """
    out = np.array(a, dtype=float, copy=True)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def _split_dim(shape: tuple[int, ...], rank: int) -> int:
    """The common size d of an array of the given rank on T ⊕ V.

    Raises DimensionMismatchError unless every axis has size d = 2 + 4n with
    n >= 1: dim T = 2 and V holds n quadruples.
    """
    d = shape[0] if shape else 0
    if len(shape) != rank or any(s != d for s in shape) or d < 6 or (d - 2) % 4 != 0:
        raise DimensionMismatchError(f"shape {shape} is not {rank} axes of size d = 2 + 4n with n >= 1")
    return d


@functools.cache
def _alternation_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in a d x d x d tensor, built once per d and read-only.

    The first array holds the positions of the triples i<j<k, the second
    (3 rows) those of their even permutations and the third those of their
    odd ones, column by column in the order of the first.
    """
    r = np.arange(d)
    i, j, k = np.nonzero((r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r[None, None, :]))
    canonical = (i * d + j) * d + k
    even = np.stack([canonical, (j * d + k) * d + i, (k * d + i) * d + j])
    odd = np.stack([(i * d + k) * d + j, (j * d + i) * d + k, (k * d + j) * d + i])
    for a in (canonical, even, odd):
        a.setflags(write=False)
    return canonical, even, odd


def _alternation_from_canonical(raw: np.ndarray) -> np.ndarray:
    """Rebuild a tensor from its i<j<k entries so antisymmetry is bitwise.

    An entry v goes to the even permutations of its triple and 0.0 - v to
    the odd ones: that is -v, except that +0.0 stays +0.0.
    """
    canonical, even, odd = _alternation_index(raw.shape[0])
    v = raw.take(canonical)
    out = np.zeros(raw.size)
    out[even] = v
    out[odd] = 0.0 - v
    return out.reshape(raw.shape)


def wedge3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficient tensor of the wedge a ∧ b ∧ c of three covectors."""
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    if not a.shape == b.shape == c.shape or a.ndim != 1:
        raise DimensionMismatchError("wedge3 expects three covectors of equal dimension")
    raw = np.zeros((a.size,) * 3)
    for (p, q, r), sign in _PERM_SIGNS:
        vecs = (a, b, c)
        raw += sign * np.einsum("i,j,k->ijk", vecs[p], vecs[q], vecs[r])
    return _alternation_from_canonical(raw)


@dataclass(frozen=True)
class AlternatingThreeForm:
    """A 3-form on T ⊕ V stored as a dense totally antisymmetric d x d x d tensor."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self, *, _exact: bool = False):
        c = _readonly(self.coeffs, "coefficient tensor")
        _split_dim(c.shape, 3)
        if not _exact:
            peak = float(np.max(np.abs(c)))
            for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
                if np.max(np.abs(c + np.transpose(c, axes))) > TAU_ALG * peak:
                    raise ValueError("coefficient tensor is not totally antisymmetric")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def _exact_form(coeffs: np.ndarray) -> AlternatingThreeForm:
    """The form of a tensor that the library alternated itself.

    Such a tensor is antisymmetric bitwise, so its construction keeps the
    shape check, the read-only copy and the non-finite check and skips the
    three transposed sums.
    """
    form = object.__new__(AlternatingThreeForm)
    object.__setattr__(form, "coeffs", coeffs)
    form.__post_init__(_exact=True)
    return form


def pull_back(form: AlternatingThreeForm, basis: np.ndarray) -> AlternatingThreeForm:
    """Pull the form back through a change of basis (columns = new frame).

    Returns the tensor of (u, v, w) ↦ form(Bu, Bv, Bw) in the new frame, by
    three matrix products that contract one basis index at a time, on the
    operands ``np.tensordot`` would build: in this order the result is
    bitwise that of ``np.einsum(..., optimize=True)``, as the tests pin.
    Raises DimensionMismatchError unless the basis is d x d.
    """
    b = np.asarray(basis, dtype=float)
    d = form.dim
    if b.shape != (d, d):
        raise DimensionMismatchError(f"basis shape {b.shape} does not match dimension {d}")
    raw = np.dot(b.T, form.coeffs.reshape(d, d * d)).reshape(d, d, d)
    for _ in range(2):
        # Contract the middle index and move the free one last.
        raw = np.dot(raw.transpose(0, 2, 1).reshape(d * d, d), b).reshape(d, d, d)
    return _exact_form(_alternation_from_canonical(raw))


# ---------------------------------------------------------------------------
# complex structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearComplexStructure:
    """A complex structure on T ⊕ V, block-lower-triangular for the split.

    The matrix squares to -Id and its top-right 2 x 4n block vanishes, so it
    covers the rotation j on T while possibly coupling T into V.  Together
    these force the coupling block A to intertwine as A j + I' A = 0.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _readonly(self.matrix, "matrix")
        d = _split_dim(m.shape, 2)
        scale = float(np.max(np.abs(m)))
        if np.max(np.abs(m[:2, 2:])) > TAU_ALG * scale:
            raise ValueError("top-right block must vanish (structure must cover the base)")
        if np.max(np.abs(m @ m + np.eye(d))) > TAU_ALG * scale * scale:
            raise ValueError("matrix does not square to -Id")
        object.__setattr__(self, "matrix", m)

    @property
    def fiber_part(self) -> np.ndarray:
        return self.matrix[2:, 2:]


@dataclass(frozen=True)
class SpdMatrix:
    """A symmetric positive-definite matrix (validated at construction)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _readonly(self.matrix, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.T)) > TAU_ALG * float(np.max(np.abs(m))):
            raise ValueError("matrix is not symmetric")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest <= 0.0:
            raise ValueError(f"matrix is not positive definite (min eigenvalue {smallest:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# standard structures
# ---------------------------------------------------------------------------

# 2x2 rotation j with j e1 = e2.  The blocks below are read-only: every
# standard structure, seeded pair and seeded form is built from them.
BASE_ROTATION = _readonly([[0.0, -1.0], [1.0, 0.0]], "BASE_ROTATION")

# 4x4 fiber blocks in (q1, q2, P1, P2) order: I q1 = q2, I P1 = -P2,
# omega1 = dP1∧dq1 + dP2∧dq2, omega2 = dP1∧dq2 - dP2∧dq1.
_I_BLOCK = _readonly(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ],
    "_I_BLOCK",
)
_W1_BLOCK = _readonly(
    [
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ],
    "_W1_BLOCK",
)
_W2_BLOCK = _readonly(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    "_W2_BLOCK",
)


@functools.cache
def standard_fiber_forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices of the standard fiber 2-form pair (omega1, omega2), built once per n and read-only."""
    return _readonly(np.kron(np.eye(n), _W1_BLOCK), "omega1"), _readonly(np.kron(np.eye(n), _W2_BLOCK), "omega2")


@functools.cache
def standard_complex_structure(n: int) -> LinearComplexStructure:
    """Product complex structure diag(j, I) on T ⊕ V, built once per n; ``fiber_part`` is the standard I."""
    m = np.zeros((2 + 4 * n, 2 + 4 * n))
    m[:2, :2] = BASE_ROTATION
    m[2:, 2:] = np.kron(np.eye(n), _I_BLOCK)
    return LinearComplexStructure(m)


@functools.cache
def _normal_form_base(n: int) -> np.ndarray:
    """Coefficients of omega1∧eps2 - omega2∧eps1, built once per n and read-only.

    Alternated from the canonical entries (eps, 2 + i, 2 + j): the nonzero
    entries w[i, j], i < j, of omega1 at eps = 1 and of -omega2 at eps = 0.
    """
    raw = np.zeros((2 + 4 * n,) * 3)
    w1, w2 = standard_fiber_forms(n)
    for eps, w in ((1, w1), (0, -w2)):
        i, j = np.nonzero(np.triu(w))
        raw[eps, 2 + i, 2 + j] = w[i, j]
    coeffs = _alternation_from_canonical(raw)
    coeffs.setflags(write=False)
    return coeffs


def _normal_form_coeffs(n: int, nu: np.ndarray | None) -> np.ndarray:
    """A fresh copy of the normal-form coefficients, alternated with nu∧eps1∧eps2 at (0, 1, 2 + a)."""
    coeffs = _normal_form_base(n).copy()
    if nu is not None:
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (4 * n,):
            raise DimensionMismatchError(f"nu must have shape ({4 * n},), got {nu.shape}")
        coeffs[0, 1, 2:] = nu
        coeffs = _alternation_from_canonical(coeffs)
    return coeffs


def standard_crms_form(n: int, nu: np.ndarray | None = None) -> AlternatingThreeForm:
    """The normal-form 3-form omega1∧eps2 - omega2∧eps1 (+ nu∧eps1∧eps2).

    Parameters
    ----------
    n : int
        Number of complex fiber dimensions.
    nu : array of shape (4n,), optional
        Coefficients of the residual vertical 1-form in the dual coframe.
    """
    return _exact_form(_normal_form_coeffs(n, nu))


# ---------------------------------------------------------------------------
# CRMS validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    ok: bool
    max_defect: float
    witness: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the four CRMS conditions at one point.

    Closedness has no linear-algebra content, so it is reported as not
    applicable rather than guessed.
    """

    horizontal: ConditionCheck
    nondegenerate: ConditionCheck
    i_compatible: ConditionCheck
    closedness: str = "not applicable at linear level"

    @property
    def passed(self) -> bool:
        return self.horizontal.ok and self.nondegenerate.ok and self.i_compatible.ok

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "one_horizontal": self.horizontal.as_dict(),
            "fiberwise_nondegenerate": self.nondegenerate.as_dict(),
            "i_compatible": self.i_compatible.as_dict(),
            "closedness": self.closedness,
        }


def contraction_matrix(form: AlternatingThreeForm, xi: np.ndarray) -> np.ndarray:
    """Gram matrix of form(xi, ·, ·) restricted to the vertical subspace."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (form.dim,):
        raise DimensionMismatchError(f"xi has shape {xi.shape}, expected ({form.dim},)")
    return np.einsum("i,iab->ab", xi, form.coeffs[:, 2:, 2:])


def validate_crms(form: AlternatingThreeForm, structure: LinearComplexStructure) -> ValidationReport:
    """Check 1-horizontality, fiberwise non-degeneracy and I-compatibility.

    Each failed condition carries a witness: the offending index triple for
    horizontality, the singular contraction for non-degeneracy, and the basis
    combination with both sides for compatibility.
    """
    if form.dim != structure.matrix.shape[0]:
        raise DimensionMismatchError("form and complex structure live on different spaces")
    c = form.coeffs
    # The checks read only (., V, V) coefficients, so the nu∧eps1∧eps2
    # entries, however large, must not set the scale.
    tol = TAU_ALG * float(np.max(np.abs(c[:, 2:, 2:])))

    vert = c[2:, 2:, 2:]
    h_defect = float(np.max(np.abs(vert)))
    h_witness = None
    if h_defect > tol:
        i, j, k = np.unravel_index(int(np.argmax(np.abs(vert))), vert.shape)
        h_witness = {"triple": [int(i) + 2, int(j) + 2, int(k) + 2], "value": float(vert[i, j, k])}
    horizontal = ConditionCheck(h_defect <= tol, h_defect, h_witness)

    # Horizontal lifts of the base basis: with (iv) in force, invertibility at
    # e1 and e2 extends to every nonzero direction, so two checks suffice.
    worst_cond = 0.0
    nd_ok = True
    nd_witness = None
    for label, idx in (("e1", 0), ("e2", 1)):
        mat = c[idx, 2:, 2:]
        cond = _condition_number(mat)
        worst_cond = max(worst_cond, cond)
        if cond >= COND_LIMIT:
            nd_ok = False
            if nd_witness is None:
                nd_witness = {
                    "lift": label,
                    "condition_number": cond,
                    "smallest_singular_value": float(np.linalg.svd(mat, compute_uv=False)[-1]),
                }
    nondegenerate = ConditionCheck(nd_ok, worst_cond, nd_witness)

    # form(I xi, v1, v2) + form(xi, v1, I v2) over all basis xi and vertical pairs.
    # Both are BLAS products; with a signed-permutation structure each sum has
    # one nonzero term, so they are bitwise the plain index sums.
    cvv = c[:, 2:, 2:]
    lhs = np.dot(structure.matrix.T, cvv.reshape(form.dim, -1)).reshape(cvv.shape)
    rhs = cvv @ structure.fiber_part
    defect = lhs + rhs
    ic_defect = float(np.max(np.abs(defect)))
    ic_witness = None
    if ic_defect > tol:
        x, a, b = np.unravel_index(int(np.argmax(np.abs(defect))), defect.shape)
        ic_witness = {
            "xi_index": int(x),
            "v1_index": int(a) + 2,
            "v2_index": int(b) + 2,
            "lhs": float(lhs[x, a, b]),
            "rhs": float(-rhs[x, a, b]),
        }
    i_compatible = ConditionCheck(ic_defect <= tol, ic_defect, ic_witness)

    return ValidationReport(horizontal, nondegenerate, i_compatible)


def _condition_number(matrix: np.ndarray) -> float:
    """np.linalg.cond of a square matrix by the same SVD: sv[0] / sv[-1], inf if sv[-1] is 0."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    return np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])


def require_invertible(matrix: np.ndarray, what: str) -> None:
    """Raise DegenerateFormError unless the matrix is comfortably invertible."""
    if _condition_number(np.asarray(matrix, dtype=float)) >= COND_LIMIT:
        raise DegenerateFormError(f"{what} is numerically singular")
