"""Seeded random constructors used by experiments and tests.

Everything takes an explicit numpy Generator so runs are reproducible from a
single integer seed.
"""

from __future__ import annotations

import numpy as np

from .darboux import CrpsPair
from .fields import FieldState
from .linalg import (
    AlternatingThreeForm,
    LinearComplexStructure,
    SpdMatrix,
    BASE_ROTATION,
    pull_back,
    standard_complex_structure,
    standard_crms_form,
    standard_fiber_forms,
    _alternation_from_canonical,
    _condition_number,
    _exact_form,
)

_COND_CAP = 200.0


def commuting_fiber_map(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible 4n x 4n matrix commuting with the standard fiber I.

    Averaging X with -I X I projects onto the commutant; the identity shift
    and condition cap keep the map well-conditioned.
    """
    d = 4 * n
    i_fib = standard_complex_structure(n).fiber_part
    while True:
        x = rng.normal(size=(d, d)) * 0.4 / np.sqrt(d)
        m = 0.5 * (x - i_fib @ x @ i_fib) + np.eye(d)
        if _condition_number(m) < _COND_CAP:
            return m


def intertwining_coupling(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random 4n x 2 coupling C with C j = I' C (complex-linear T -> V)."""
    i_fib = standard_complex_structure(n).fiber_part
    x = rng.normal(size=(4 * n, 2)) * 0.5
    return 0.5 * (x - i_fib @ x @ BASE_ROTATION)


def base_commuting_map(rng: np.random.Generator) -> np.ndarray:
    """Random invertible 2 x 2 matrix commuting with j (a complex scalar)."""
    radius = rng.uniform(0.7, 1.4)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return radius * (np.cos(angle) * np.eye(2) + np.sin(angle) * BASE_ROTATION)


def crms_conjugator(n: int, rng: np.random.Generator) -> np.ndarray:
    """Block-lower-triangular map on T ⊕ V commuting with the standard I."""
    d = 2 + 4 * n
    while True:
        m = np.zeros((d, d))
        m[:2, :2] = base_commuting_map(rng)
        m[2:, :2] = intertwining_coupling(n, rng)
        m[2:, 2:] = commuting_fiber_map(n, rng)
        if _condition_number(m) < _COND_CAP:
            return m


def random_crms_form(
    n: int, rng: np.random.Generator, nu_scale: float = 0.5
) -> tuple[AlternatingThreeForm, LinearComplexStructure]:
    """Standard form with random nu, conjugated by a random I-commuting map.

    The conjugator commutes with the standard complex structure, so the
    result is CRMS for that same structure.
    """
    nu = rng.normal(size=4 * n) * nu_scale
    conj = crms_conjugator(n, rng)
    form = pull_back(standard_crms_form(n, nu=nu), conj)
    return form, standard_complex_structure(n)


def random_crps_pair(n: int, rng: np.random.Generator) -> CrpsPair:
    """Standard CRPS pair conjugated by a random I-commuting fiber map."""
    m = commuting_fiber_map(n, rng)
    w1, w2 = standard_fiber_forms(n)
    return CrpsPair(m.T @ w1 @ m, m.T @ w2 @ m, standard_complex_structure(n).fiber_part)


def compatible_reference(n: int, rng: np.random.Generator) -> SpdMatrix:
    """Random SPD inner product compatible with the standard fiber I."""
    d = 4 * n
    i_fib = standard_complex_structure(n).fiber_part
    y = np.eye(d) + rng.normal(size=(d, d)) * 0.3 / np.sqrt(d)
    r = y.T @ y
    return SpdMatrix(0.5 * (r + i_fib.T @ r @ i_fib))


@np.errstate(over="ignore", invalid="ignore")
def random_smooth_state(grid, n: int, amplitude: float, rng: np.random.Generator):
    """Random Fourier data with modes |k1|, |k2| <= 2, scaled to a sup-norm.

    Coefficients are drawn per mode, so refining the grid samples the same
    underlying smooth field (important for convergence-order studies).  By angle addition
    component c is X1^T M_c X2, with 10 x N_i tables X_i = [cos; sin](k 2π/l_i h_i j), k = -2..2,
    and M_c = [[a_c, b_c], [b_c, -a_c]]: 10 (N1 + N2) cos/sin calls, not 50 N1 N2.  The einsums
    run without ``optimize``, fixed-order loops with no BLAS call, so no thread count changes a byte.
    A period below ~7e-308 overflows k 2π/l_i, and FieldState rejects the non-finite field.
    """
    # One (a, b) pair per component and mode (k1, k2), drawn component-major, k2 fastest.
    a, b = np.moveaxis(rng.normal(size=(4 * n, 5, 5, 2)), -1, 0)
    k = np.arange(-2, 3)
    phase1 = np.outer(k * (2.0 * np.pi / grid.l1), grid.h1 * np.arange(grid.n1))
    phase2 = np.outer(k * (2.0 * np.pi / grid.l2), grid.h2 * np.arange(grid.n2))
    x1, x2 = (np.concatenate([np.cos(p), np.sin(p)]) for p in (phase1, phase2))
    m = np.block([[a, b], [b, -a]])
    values = np.einsum("pi,pjc->ijc", x1, np.einsum("cpq,qj->pjc", m, x2, order="C"), order="C")
    peak = float(np.max(np.abs(values)))
    if peak > 0.0:
        values *= amplitude / peak
    return FieldState(grid, values)


def inject_vertical_triple(form: AlternatingThreeForm) -> AlternatingThreeForm:
    """The form with 1 added at the vertical triple (2, 3, 4): breaks 1-horizontality.

    Each injection edits a copy's canonical (i < j < k) entries and alternates
    it, so a form antisymmetric only within TAU_ALG gets its other entries
    rebuilt from those.
    """
    c = form.coeffs.copy()
    c[2, 3, 4] += 1.0
    return _exact_form(_alternation_from_canonical(c))


def drop_quadruple_block(form: AlternatingThreeForm) -> AlternatingThreeForm:
    """The form with every entry touching the first quadruple (indices 2..5) zeroed.

    Both contraction matrices become singular.  On the standard form,
    horizontality and I-compatibility survive: the removed part is
    compatible on its own.  Alternated as in inject_vertical_triple.
    """
    c = form.coeffs.copy()
    c[2:6] = 0.0
    c[:, 2:6] = 0.0
    c[:, :, 2:6] = 0.0
    return _exact_form(_alternation_from_canonical(c))


def break_i_compatibility(form: AlternatingThreeForm) -> AlternatingThreeForm:
    """The form plus 0.5 beta1 ∧ alpha1 ∧ eps1 of the first quadruple.

    On the standard form the term desynchronizes the two contractions.
    Written as -0.5 at (0, 2, 4), an odd permutation of (4, 2, 0), and
    alternated as in inject_vertical_triple.
    """
    c = form.coeffs.copy()
    c[0, 2, 4] -= 0.5
    return _exact_form(_alternation_from_canonical(c))
