"""Single-point linear algebra: tensors, complex structures, CRMS validation."""

import dataclasses
import importlib
import itertools
import pkgutil

import numpy as np
import pytest

import crms
from crms.cli import FORM_INJECTIONS, FORM_SOURCES, _build_form, parse_config
from crms.darboux import CrpsPair, crms_darboux
from crms.errors import DegenerateFormError, DimensionMismatchError
from crms.fields import TorusGrid, _operator_on
from crms.linalg import (
    AlternatingThreeForm,
    LinearComplexStructure,
    SpdMatrix,
    _I_BLOCK,
    _W1_BLOCK,
    _W2_BLOCK,
    _alternation_from_canonical,
    _alternation_index,
    _exact_form,
    _normal_form_base,
    _rank_profile,
    contraction_matrix,
    pull_back,
    standard_complex_structure,
    standard_crms_form,
    standard_fiber_forms,
    validate_crms,
    wedge3,
)
from crms.sampling import (
    break_i_compatibility,
    drop_quadruple_block,
    inject_vertical_triple,
    random_crms_form,
)
from oracles import i_compatibility_defect, structure_with_coupling


def evaluate(form: AlternatingThreeForm, u, v, w) -> float:
    return float(np.einsum("ijk,i,j,k->", form.coeffs, u, v, w))


# --- evaluation --------------------------------------------------------------


def test_alternation_kills_repeated_argument():
    form = standard_crms_form(1)
    rng = np.random.default_rng(0)
    u = rng.normal(size=form.dim)
    w = rng.normal(size=form.dim)
    assert evaluate(form, u, u, w) == pytest.approx(0.0, abs=1e-12)


def test_standard_form_normal_coefficient():
    # Coefficient of beta1 ∧ alpha1 ∧ eps2: slots (P1, q1, e2) for n = 1.
    form = standard_crms_form(1)
    eye = np.eye(form.dim)
    assert evaluate(form, eye[4], eye[2], eye[1]) == 1.0


def test_zero_form_evaluates_to_zero():
    form = AlternatingThreeForm(np.zeros((6, 6, 6)))
    rng = np.random.default_rng(1)
    u, v, w = rng.normal(size=(3, 6))
    assert evaluate(form, u, v, w) == 0.0


# --- antisymmetry ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_constructor_tensors_are_exact_fixed_points(n):
    # Every library route builds a form that is bitwise antisymmetric under
    # each transposition; the routes that skip the antisymmetry check rely
    # on it.  Pull-backs go through a random basis, standard forms come with
    # and without nu, and the injections alter a random form.
    rng = np.random.default_rng(n)
    form, _ = random_crms_form(n, rng)
    forms = [
        form,
        pull_back(form, rng.normal(size=(form.dim, form.dim))),
        standard_crms_form(n),
        standard_crms_form(n, nu=rng.normal(size=4 * n)),
        *(inject(form) for inject in (inject_vertical_triple, drop_quadruple_block, break_i_compatibility)),
    ]
    for c in (f.coeffs for f in forms):
        for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert np.array_equal(c, -np.transpose(c, axes))
        # Each route alternates its canonical entries once, with the one
        # signed-zero policy: rebuilding it changes no byte.
        assert c.tobytes() == _alternation_from_canonical(c).tobytes()


def test_library_forms_keep_the_shape_and_finiteness_checks():
    nu = np.zeros(8)
    nu[3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        standard_crms_form(2, nu=nu)
    form = standard_crms_form(1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        pull_back(form, np.full((6, 6), 1e200))
    with pytest.raises(DimensionMismatchError):
        _exact_form(np.zeros((7, 7, 7)))
    assert not _exact_form(np.zeros((6, 6, 6))).coeffs.flags.writeable


def test_wedge3_matches_determinant():
    rng = np.random.default_rng(4)
    a, b, c = rng.normal(size=(3, 6))
    u, v, w = rng.normal(size=(3, 6))
    tensor = wedge3(a, b, c)
    det = np.linalg.det(np.array([[f @ x for x in (u, v, w)] for f in (a, b, c)]))
    got = float(np.einsum("ijk,i,j,k->", tensor, u, v, w))
    assert got == pytest.approx(det, rel=1e-12, abs=1e-12)


# --- the alternation against the wedge3 construction --------------------------
# The constructors write their few canonical (i < j < k) coefficients and
# alternate them once; these oracles build the same tensors with a
# per-triple loop, as sums of wedge3 terms, and by adding the vertical
# triple's six signed permutations.


@pytest.mark.parametrize("d", [3, 6, 10, 18, 34])
def test_alternation_equals_triple_loop(d):
    rng = np.random.default_rng(d)
    raw = rng.normal(size=(d, d, d))
    # Exact zeros of both signs, so the sign written at each position counts.
    raw.reshape(-1)[rng.choice(raw.size, size=raw.size // 4, replace=False)] = 0.0
    raw.reshape(-1)[rng.choice(raw.size, size=raw.size // 4, replace=False)] = -0.0
    expected = np.zeros_like(raw)
    for i, j, k in itertools.combinations(range(d), 3):
        v = raw[i, j, k]
        expected[i, j, k] = expected[j, k, i] = expected[k, i, j] = v
        expected[i, k, j] = expected[j, i, k] = expected[k, j, i] = 0.0 - v
    assert _alternation_from_canonical(raw).tobytes() == expected.tobytes()


def _wedge_standard_form(n: int, nu=None, first: int = 0) -> np.ndarray:
    # The terms of quadruples first .. n-1 only.
    d = 2 + 4 * n
    eye = np.eye(d)
    eps1, eps2 = eye[0], eye[1]
    coeffs = np.zeros((d, d, d))
    for k in range(first, n):
        a1, a2, b1, b2 = (eye[2 + 4 * k + i] for i in range(4))
        coeffs += wedge3(b1, a1, eps2) + wedge3(b2, a2, eps2)
        coeffs -= wedge3(b1, a2, eps1) - wedge3(b2, a1, eps1)
    if nu is not None:
        for j, c in enumerate(nu[4 * first :], start=4 * first):
            coeffs += c * wedge3(eye[2 + j], eps1, eps2)
    return coeffs


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("with_nu", [False, True])
def test_standard_form_equals_wedge_sum(n, with_nu):
    # Compared as bytes, so a negative zero or a stray entry fails too.
    nu = np.random.default_rng(n).normal(size=4 * n) if with_nu else None
    assert standard_crms_form(n, nu=nu).coeffs.tobytes() == _wedge_standard_form(n, nu).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertical_triple_equals_permutation_add(n):
    rng = np.random.default_rng(40 + n)
    crms, _ = random_crms_form(n, rng)
    # A vertical term makes the planted coefficient land on a nonzero entry.
    form = AlternatingThreeForm(crms.coeffs + wedge3(*rng.normal(size=(3, crms.dim))))
    expected = form.coeffs.copy()
    i, j, k = 2, 3, 4
    for (p, q, r), sign in (
        ((i, j, k), 1.0), ((j, k, i), 1.0), ((k, i, j), 1.0),
        ((i, k, j), -1.0), ((j, i, k), -1.0), ((k, j, i), -1.0),
    ):
        expected[p, q, r] += sign
    assert np.array_equal(inject_vertical_triple(form).coeffs, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_broken_compatibility_equals_wedge_sum(n):
    eye = np.eye(2 + 4 * n)
    expected = _wedge_standard_form(n) + 0.5 * wedge3(eye[4], eye[2], eye[0])
    assert np.array_equal(break_i_compatibility(standard_crms_form(n)).coeffs, expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_injections_on_nu_form_equal_wedge_sums(n):
    # Compared as bytes; the oracle of the dropped block omits the first
    # quadruple's terms and nu's entries on it.
    nu = np.random.default_rng(n).normal(size=4 * n)
    form = standard_crms_form(n, nu=nu)
    eye = np.eye(form.dim)
    vertical = _wedge_standard_form(n, nu) + wedge3(eye[2], eye[3], eye[4])
    assert inject_vertical_triple(form).coeffs.tobytes() == vertical.tobytes()
    assert drop_quadruple_block(form).coeffs.tobytes() == _wedge_standard_form(n, nu, first=1).tobytes()


def test_spd_wrapper_validates():
    with pytest.raises(ValueError):
        SpdMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="not positive definite"):
        SpdMatrix(np.zeros((2, 2)))
    # Symmetry is checked relative to the matrix's own size, at any scale.
    for s in (1.0, 1e-9, 1e-12):
        with pytest.raises(ValueError, match="not symmetric"):
            SpdMatrix(s * np.array([[1.0, 0.5], [0.0, 1.0]]))


# --- structures --------------------------------------------------------------


def test_split_space_requires_multiple_of_four():
    # d = 2 + 4n with n >= 1: d = 8 leaves a 6-dimensional fiber, d = 2 none.
    for d in (8, 2):
        with pytest.raises(DimensionMismatchError):
            AlternatingThreeForm(np.zeros((d, d, d)))
        with pytest.raises(DimensionMismatchError):
            LinearComplexStructure(np.zeros((d, d)))


def test_complex_structure_invariants():
    for n in (1, 2, 3):
        structure = standard_complex_structure(n)
        d = structure.matrix.shape[0]
        assert np.max(np.abs(structure.matrix @ structure.matrix + np.eye(d))) == 0.0
        assert np.max(np.abs(structure.matrix[2:, :2])) == 0.0


def test_complex_structure_with_coupling():
    # A nonzero coupling block is admissible exactly when A j + I' A = 0.
    from crms.linalg import BASE_ROTATION

    rng = np.random.default_rng(5)
    structure = structure_with_coupling(1, rng)
    a = structure.matrix[2:, :2]
    assert np.max(np.abs(a)) > 0.0
    assert np.max(np.abs(a @ BASE_ROTATION + structure.fiber_part @ a)) < 1e-12


def test_standard_form_stays_crms_under_coupled_structure():
    rng = np.random.default_rng(12)
    structure = structure_with_coupling(2, rng)
    assert validate_crms(standard_crms_form(2), structure).passed


def test_complex_structure_rejects_bad_square():
    m = np.eye(6)
    with pytest.raises(ValueError):
        LinearComplexStructure(m)



@pytest.mark.parametrize("seed", range(3))
def test_large_coupling_does_not_hide_a_fiber_block_that_misses_minus_id(seed):
    # An admissible coupling A = (x + I x j) / 2 of size 4.7e5 beside I' = I + 1e-4 noise:
    # I'^2 + Id is 2e-4 off, far above 1e-9 max|I'|^2, but below the 220 of 1e-9 max|m|^2.
    rng = np.random.default_rng(seed)
    exact = structure_with_coupling(1, rng).matrix.copy()
    exact[2:, :2] *= 4.7e5 / np.max(np.abs(exact[2:, :2]))
    assert np.array_equal(LinearComplexStructure(exact).matrix, exact)
    broken = exact.copy()
    broken[2:, 2:] += 1e-4 * rng.normal(size=(4, 4))
    assert np.max(np.abs(broken[2:, 2:] @ broken[2:, 2:] + np.eye(4))) > 1e-5
    with pytest.raises(ValueError, match="does not square to -Id"):
        LinearComplexStructure(broken)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_complex_structure_whose_square_overflows_is_rejected(scale):
    # m @ m overflows to inf, and so does its bound 1e-9 max|j|^2: a non-finite defect
    # certifies nothing, and the overflow warning is not the verdict.
    with pytest.raises(ValueError, match="does not square to -Id"):
        LinearComplexStructure(standard_complex_structure(1).matrix * scale)


@pytest.mark.parametrize("entry", [1e-7, 4e-4])
@pytest.mark.parametrize("seed", range(3))
def test_large_coupling_does_not_hide_a_top_right_entry(seed, entry):
    # Beside an admissible A of size 4.7e5 a top-right entry passes 1e-9 max|m| = 4.7e-4,
    # and the square then misses -Id too; judged against max(|j|, |I'|) = 1 it names the block.
    rng = np.random.default_rng(seed)
    m = structure_with_coupling(1, rng).matrix.copy()
    m[2:, :2] *= 4.7e5 / np.max(np.abs(m[2:, :2]))
    m[0, 3] = entry
    with pytest.raises(ValueError, match="top-right block must vanish"):
        LinearComplexStructure(m)

def test_alternating_form_rejects_symmetric_tensor():
    t = np.ones((6, 6, 6))
    with pytest.raises(ValueError):
        AlternatingThreeForm(t)


def test_antisymmetry_tolerance_follows_a_small_tensor():
    # At 1e-12 every entry is within an absolute 1e-9 tolerance; the tolerance
    # is relative to the tensor's own size, so only the alternating one passes.
    AlternatingThreeForm(1e-12 * standard_crms_form(1).coeffs)
    with pytest.raises(ValueError, match="antisymmetric"):
        AlternatingThreeForm(1e-12 * np.random.default_rng(5).normal(size=(6, 6, 6)))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_alternating_form_rejects_non_finite_coefficients(value):
    # Written antisymmetrically, inf + (-inf) and NaN pass any comparison
    # against the antisymmetry tolerance; the finiteness check must not.
    t = np.array(standard_crms_form(1).coeffs)
    for i, j, k, sign in ((2, 0, 1, 1), (0, 1, 2, 1), (1, 2, 0, 1), (2, 1, 0, -1), (0, 2, 1, -1), (1, 0, 2, -1)):
        t[i, j, k] = sign * value
    with pytest.raises(ValueError, match="non-finite"):
        AlternatingThreeForm(t)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["form", "structure", "spd", "pair"])
def test_input_types_reject_non_finite_entries(kind, value):
    # NaN passes no tolerance test and inf breaks the decompositions, so all
    # four input types reject either in any argument with a ValueError.
    w1, w2 = standard_fiber_forms(1)
    i_fib = standard_complex_structure(1).fiber_part

    def poisoned(a):
        out = np.array(a)
        out.flat[out.size // 2] = value
        return out

    builds = {
        "form": [lambda: AlternatingThreeForm(poisoned(standard_crms_form(1).coeffs))],
        "structure": [lambda: LinearComplexStructure(poisoned(standard_complex_structure(1).matrix))],
        "spd": [lambda: SpdMatrix(poisoned(np.eye(4)))],
        "pair": [
            lambda: CrpsPair(poisoned(w1), w2, i_fib),
            lambda: CrpsPair(w1, poisoned(w2), i_fib),
            lambda: CrpsPair(w1, w2, poisoned(i_fib)),
        ],
    }[kind]
    for build in builds:
        with pytest.raises(ValueError, match="non-finite"):
            build()


# --- validate_crms -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_form_passes(n):
    report = validate_crms(standard_crms_form(n), standard_complex_structure(n))
    assert report.passed
    assert report.closedness == "not applicable at linear level"


def test_zero_form_fails_nondegeneracy():
    form = AlternatingThreeForm(np.zeros((6, 6, 6)))
    report = validate_crms(form, standard_complex_structure(1))
    assert not report.nondegenerate.ok
    assert report.horizontal.ok and report.i_compatible.ok


def test_injected_vertical_triple_fails_horizontality_with_witness():
    form = inject_vertical_triple(standard_crms_form(2))
    report = validate_crms(form, standard_complex_structure(2))
    assert not report.horizontal.ok
    assert sorted(report.horizontal.witness["triple"]) == [2, 3, 4]
    assert report.nondegenerate.ok


def test_dropped_block_fails_only_nondegeneracy():
    form = drop_quadruple_block(standard_crms_form(2))
    report = validate_crms(form, standard_complex_structure(2))
    assert not report.nondegenerate.ok
    assert report.horizontal.ok
    assert report.i_compatible.ok
    assert report.nondegenerate.witness["lift"] in ("e1", "e2")


def test_compatibility_breaker_fails_only_condition_iv():
    form = break_i_compatibility(standard_crms_form(1))
    report = validate_crms(form, standard_complex_structure(1))
    assert not report.i_compatible.ok
    assert report.horizontal.ok
    assert report.nondegenerate.ok
    w = report.i_compatible.witness
    assert w is not None and abs(w["lhs"] - w["rhs"]) > 1e-3


def test_nu_term_is_invisible_to_all_conditions():
    rng = np.random.default_rng(6)
    form = standard_crms_form(2, nu=rng.normal(size=8))
    assert validate_crms(form, standard_complex_structure(2)).passed


@pytest.mark.parametrize("n", [1, 2])
def test_large_nu_sets_no_tolerance(n):
    # The nu entries are read by no condition; were the 1e-9 tolerance scaled
    # by them, it would be 1 and pass the 1.0 triple and the 0.5 defect.
    form = standard_crms_form(n, nu=np.full(4 * n, 1e9))
    structure = standard_complex_structure(n)
    assert validate_crms(form, structure).passed
    for inject in (inject_vertical_triple, drop_quadruple_block, break_i_compatibility):
        assert not validate_crms(inject(form), structure).passed, inject.__name__


@pytest.mark.parametrize("n", [1, 2])
def test_small_forms_set_their_own_tolerance(n):
    # Scaled by 1e-9 the injected entries are 1e-9 and 5e-10: an absolute
    # 1e-9 tolerance would pass them, one relative to the form's scale does not.
    structure = standard_complex_structure(n)
    assert validate_crms(AlternatingThreeForm(1e-9 * standard_crms_form(n).coeffs), structure).passed
    for inject in (inject_vertical_triple, break_i_compatibility):
        form = AlternatingThreeForm(1e-9 * inject(standard_crms_form(n)).coeffs)
        assert not validate_crms(form, structure).passed, inject.__name__


@pytest.mark.parametrize("n", [1, 2, 4])
def test_scaled_random_forms_stay_valid(n):
    form, structure = random_crms_form(n, np.random.default_rng(n))
    for scale in (1e-12, 1e12):
        assert validate_crms(AlternatingThreeForm(scale * form.coeffs), structure).passed


def first_pair_scaled(n: int, s: float) -> AlternatingThreeForm:
    """The standard form pulled back by the complex-linear map that scales q1, q2 of the first quadruple by s.

    Each contraction pairs q with P, so its first 4 x 4 block has all four singular values s and
    the others 1: at n >= 2 its condition number is 1 / s.
    """
    basis = np.eye(2 + 4 * n)
    basis[2, 2] = basis[3, 3] = s
    return pull_back(standard_crms_form(n), basis)


@pytest.mark.parametrize(("cond", "kernel"), [(1e11, 0), (1e13, 4)])
def test_every_rank_verdict_flips_at_cond_limit(cond, kernel):
    # The one rule on both sides of COND_LIMIT = 1e12.  A cutoff relative to the largest singular
    # value at 1e-10 would count a kernel of 4 at 1e11 already.  An I-compatible contraction is
    # the real part of a complex antisymmetric matrix, so its kernel grows by four at a time.
    form, structure = first_pair_scaled(2, 1.0 / cond), standard_complex_structure(2)
    sv, conds, kernels = _rank_profile(form.coeffs[:2, 2:, 2:])
    assert conds.tolist() == pytest.approx([cond, cond], rel=1e-12) and kernels.tolist() == [kernel, kernel]
    report = validate_crms(form, structure)
    assert report.horizontal.ok and report.i_compatible.ok
    assert report.nondegenerate.ok is (kernel == 0)
    e1, e2 = np.eye(form.dim)[:2]
    pair = (contraction_matrix(form, e2), -contraction_matrix(form, e1), structure.fiber_part)
    if kernel == 0:
        CrpsPair(*pair)
        assert crms_darboux(form, structure).reconstruction_error < 1e-12
    else:
        assert report.nondegenerate.witness == {
            "lift": "e1", "condition_number": float(conds[0]), "smallest_singular_value": float(sv[0, -1])
        }
        with pytest.raises(DegenerateFormError, match="omega1 is numerically singular"):
            CrpsPair(*pair)


def test_kernel_dimension_counts_each_singular_value_against_the_largest():
    assert [int(_rank_profile(np.diag([1.0, s]))[2]) for s in (1e-11, 1e-13, 0.0)] == [0, 1, 1]
    assert _rank_profile(np.diag([1.0, 1e-13, 0.0]))[1:] == (np.inf, 2)
    assert _rank_profile(np.zeros((3, 3)))[1:] == (np.inf, 3)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_a_stack_gets_the_bits_of_one_svd_per_matrix(n):
    # validate_crms stacks its two contractions and CrpsPair its two forms; neither may move a bit.
    for seed in range(3):
        form, _ = random_crms_form(n, np.random.default_rng(seed))
        stack = form.coeffs[:2, 2:, 2:]
        for got, want in zip(_rank_profile(stack), zip(*(_rank_profile(m) for m in stack))):
            np.testing.assert_array_equal(got, np.array(want), strict=True)


def test_compatibility_extends_to_random_vectors_by_linearity():
    rng = np.random.default_rng(7)
    form, structure = random_crms_form(2, rng)
    report = validate_crms(form, structure)
    assert report.passed
    # Spot-check condition (iv) on non-basis vectors.
    d = form.dim
    for _ in range(25):
        xi = rng.normal(size=d)
        v1 = np.concatenate([np.zeros(2), rng.normal(size=d - 2)])
        v2 = np.concatenate([np.zeros(2), rng.normal(size=d - 2)])
        lhs = evaluate(form, structure.matrix @ xi, v1, v2)
        rhs = -evaluate(form, xi, v1, structure.matrix @ v2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("source", FORM_SOURCES)
def test_i_compatibility_defect_is_the_oracle_bitwise_on_every_cli_form(n, source):
    # Every CLI form source uses the standard structure, a signed
    # permutation: each index sum has one nonzero term, so the BLAS products
    # and the plain einsums agree to the bit.
    for inject in (None, *FORM_INJECTIONS):
        cfg = parse_config({"n": n, "seed": 3, "form": {"source": source, "inject": inject}}, "validate")
        form, structure = _build_form(cfg)
        report = validate_crms(form, structure)
        assert report.i_compatible.max_defect == i_compatibility_defect(form, structure), inject


@pytest.mark.parametrize("n", [1, 2, 4])
def test_i_compatibility_defect_matches_the_oracle_on_a_conjugated_structure(n):
    # J' = M^-1 J M for a block-lower-triangular M is a non-standard complex
    # structure, and the standard form pulled back by M is CRMS for it.
    rng = np.random.default_rng(40 + n)
    d = 2 + 4 * n
    m = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    m[:2, 2:] = 0.0
    structure = LinearComplexStructure(np.linalg.solve(m, standard_complex_structure(n).matrix @ m))
    assert np.count_nonzero(np.abs(structure.matrix) > 1e-12) > 2 * d
    base = pull_back(standard_crms_form(n, nu=rng.normal(size=4 * n)), m)
    for form in (base, break_i_compatibility(base)):
        scale = float(np.max(np.abs(form.coeffs[:, 2:, 2:]))) * float(np.max(np.abs(structure.matrix)))
        defect = validate_crms(form, structure).i_compatible.max_defect
        assert abs(defect - i_compatibility_defect(form, structure)) <= 1e-14 * scale
    assert validate_crms(base, structure).passed
    assert not validate_crms(break_i_compatibility(base), structure).i_compatible.ok


@pytest.mark.parametrize("n", [1, 2, 4])
def test_per_n_constants_are_built_once_and_read_only(n):
    structure = standard_complex_structure(n)
    assert standard_complex_structure(n) is structure
    assert not structure.matrix.flags.writeable
    base = _normal_form_base(n)
    assert _normal_form_base(n) is base
    assert not base.flags.writeable
    with pytest.raises(ValueError):
        base[2, 0, 1] = 1.0
    nu = np.arange(1.0, 4 * n + 1)
    assert np.array_equal(standard_crms_form(n, nu=nu).coeffs[2:, 0, 1], nu)
    # Writing nu went to a copy: the next form has no nu terms.
    plain = standard_crms_form(n)
    assert not np.any(plain.coeffs[2:, 0, 1])
    assert np.array_equal(plain.coeffs, base)
    # The fiber pair is one cached read-only pair per n.
    pair = standard_fiber_forms(n)
    assert standard_fiber_forms(n) is pair
    for w in pair:
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


def test_validate_rejects_mismatched_spaces():
    with pytest.raises(DimensionMismatchError):
        validate_crms(standard_crms_form(1), standard_complex_structure(2))


def test_pull_back_is_congruence():
    rng = np.random.default_rng(8)
    form = standard_crms_form(1)
    m = np.eye(form.dim) + 0.1 * rng.normal(size=(form.dim, form.dim))
    pulled = pull_back(form, m)
    u, v, w = rng.normal(size=(3, form.dim))
    assert evaluate(pulled, u, v, w) == pytest.approx(
        evaluate(form, m @ u, m @ v, m @ w), rel=1e-12, abs=1e-12
    )


# --- per-dimension work done once, bitwise as before --------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_pull_back_equals_the_optimized_einsum_bitwise(n):
    rng = np.random.default_rng(70 + n)
    form, _ = random_crms_form(n, rng)
    basis = rng.normal(size=(form.dim, form.dim))
    raw = np.einsum("pqr,pa,qb,rc->abc", form.coeffs, basis, basis, basis, optimize=True)
    assert pull_back(form, basis).coeffs.tobytes() == _alternation_from_canonical(raw).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_standard_blocks_equal_kron_bitwise(n):
    # Compared as integers, so a sign of zero that differs fails too.
    w1, w2 = standard_fiber_forms(n)
    i_fib = standard_complex_structure(n).fiber_part
    for got, block in ((i_fib, _I_BLOCK), (w1, _W1_BLOCK), (w2, _W2_BLOCK)):
        assert np.array_equal(got.view(np.int64), np.kron(np.eye(n), block).view(np.int64))
    # The derived blocks and the n-fold structures against their written definitions, per
    # complex dimension in (q1, q2, P1, P2) order: I q1 = q2, I P1 = -P2 (so I q2 = -q1, I P2 = P1),
    # omega1 = dP1∧dq1 + dP2∧dq2 and omega2 = dP1∧dq2 - dP2∧dq1 as Gram matrices, dP∧dq = +1 at (P, q).
    defined = [np.zeros((4 * n, 4 * n)) for _ in range(3)]
    for c in range(n):
        q1, q2, p1, p2 = 4 * c + np.arange(4)
        for m, entries in zip(defined, (
            [(q2, q1, 1), (q1, q2, -1), (p2, p1, -1), (p1, p2, 1)],
            [(p1, q1, 1), (q1, p1, -1), (p2, q2, 1), (q2, p2, -1)],
            [(p1, q2, 1), (q2, p1, -1), (p2, q1, -1), (q1, p2, 1)],
        )):
            for row, col, sign in entries:
                m[row, col] = sign
    for got, block, want in zip((i_fib, w1, w2), (_I_BLOCK, _W1_BLOCK, _W2_BLOCK), defined):
        assert np.array_equal(block.view(np.int64), want[:4, :4].view(np.int64))
        # kron places -0.0 where eye's zeros meet a -1; + 0.0 compares the values and the pattern.
        assert np.array_equal((got + 0.0).view(np.int64), want.view(np.int64))


def test_cached_index_triples_are_read_only():
    index = _alternation_index(10)
    assert index is _alternation_index(10)
    canonical, even, odd = index
    assert canonical.shape == (120,)  # C(10, 3)
    assert even.shape == odd.shape == (3, 120)
    for a in index:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0


def _arrays(label, obj):
    """(label, array) for every array ``obj`` is or holds, through tuples and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield label, obj
    elif isinstance(obj, tuple):
        for k, item in enumerate(obj):
            yield from _arrays(f"{label}[{k}]", item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(f"{label}.{f.name}", getattr(obj, f.name))


def test_shared_arrays_are_read_only():
    # One write to a module constant or a cached array would silently change
    # every later structure, form, pair and flow built from it.
    arrays = []
    for info in pkgutil.iter_modules(crms.__path__):
        module = importlib.import_module(f"crms.{info.name}")
        for name, value in vars(module).items():
            arrays += _arrays(f"crms.{info.name}.{name}", value)
    module_level = len(arrays)
    for n in (1, 2):
        arrays += _arrays(f"standard_fiber_forms({n})", standard_fiber_forms(n))
        arrays += _arrays(f"standard_complex_structure({n})", standard_complex_structure(n))
        arrays += _arrays(f"_normal_form_base({n})", _normal_form_base(n))
        arrays += _arrays(f"_alternation_index({2 + 4 * n})", _alternation_index(2 + 4 * n))
        arrays += _arrays(f"_operator_on(4x5, {n})", _operator_on(TorusGrid(4, 5), n))
    assert module_level >= 4 and len(arrays) - module_level >= 18
    assert [label for label, a in arrays if a.flags.writeable] == []


def test_standard_fiber_forms_pairing():
    w1, w2 = standard_fiber_forms(1)
    i_fib = standard_complex_structure(1).fiber_part
    # omega2 = -omega1(., I.) and anti-invariance under I.
    assert np.max(np.abs(w2 + w1 @ i_fib)) == 0.0
    assert np.max(np.abs(i_fib.T @ w1 @ i_fib + w1)) == 0.0
