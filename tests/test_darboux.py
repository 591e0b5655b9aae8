"""Darboux bases for fiber pairs and frames for split-space forms."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crms
from crms.darboux import (
    CrpsPair,
    crms_darboux,
    crps_darboux,
    darboux_reconstruction_error,
)
from crms.errors import CrmsValidationError, DegenerateFormError, DimensionMismatchError
from crms.linalg import (
    AlternatingThreeForm,
    LinearComplexStructure,
    contraction_matrix,
    pull_back,
    standard_complex_structure,
    standard_crms_form,
    standard_fiber_forms,
    validate_crms,
)
from crms.sampling import (
    break_i_compatibility,
    commuting_fiber_map,
    drop_quadruple_block,
    inject_vertical_triple,
    random_crms_form,
    random_crps_pair,
)
from oracles import darboux_basis_by_loop, normal_form_gap, standard_pair, structure_with_coupling


def normal_form_defects(pair: CrpsPair, basis: np.ndarray) -> float:
    # Oracle: direct matrix congruence against the standard pair.
    w1s, w2s = standard_fiber_forms(pair.n)
    return max(
        float(np.max(np.abs(basis.T @ pair.omega1 @ basis - w1s))),
        float(np.max(np.abs(basis.T @ pair.omega2 @ basis - w2s))),
    )


# --- crps_darboux ------------------------------------------------------------


def test_standard_pair_yields_identity_basis():
    basis = crps_darboux(standard_pair(1))
    assert np.max(np.abs(basis - np.eye(4))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugated_pair_roundtrip(n):
    rng = np.random.default_rng(100 + n)
    m = commuting_fiber_map(n, rng)
    w1s, w2s = standard_fiber_forms(n)
    pair = CrpsPair(m.T @ w1s @ m, m.T @ w2s @ m, standard_complex_structure(n).fiber_part)
    basis = crps_darboux(pair)
    assert normal_form_defects(pair, basis) < 1e-9


def test_scaled_pair_recovers_standard_normal_form():
    p = standard_pair(1)
    pair = CrpsPair(2.0 * p.omega1, 2.0 * p.omega2, p.i_fiber)
    basis = crps_darboux(pair)
    assert normal_form_defects(pair, basis) < 1e-9
    # The a- and b-columns share the scaling: each has norm 2^(-1/2).
    for c in range(4):
        assert np.linalg.norm(basis[:, c]) == pytest.approx(2.0**-0.5, rel=1e-9)


def test_basis_respects_complex_structure():
    rng = np.random.default_rng(17)
    m = commuting_fiber_map(2, rng)
    w1s, w2s = standard_fiber_forms(2)
    pair = CrpsPair(m.T @ w1s @ m, m.T @ w2s @ m, standard_complex_structure(2).fiber_part)
    basis = crps_darboux(pair)
    for k in range(2):
        c = 4 * k
        assert np.max(np.abs(pair.i_fiber @ basis[:, c] - basis[:, c + 1])) < 1e-10
        assert np.max(np.abs(pair.i_fiber @ basis[:, c + 2] + basis[:, c + 3])) < 1e-10


def test_pairings_by_direct_assertion():
    # omega1(a_i, a_j) = 0, omega1(b_i, b_j) = 0, omega1(b_i, a_j) = delta.
    rng = np.random.default_rng(23)
    m = commuting_fiber_map(3, rng)
    w1s, w2s = standard_fiber_forms(3)
    pair = CrpsPair(m.T @ w1s @ m, m.T @ w2s @ m, standard_complex_structure(3).fiber_part)
    basis = crps_darboux(pair)
    a_cols = [basis[:, 4 * k + i] for k in range(3) for i in (0, 1)]
    b_cols = [basis[:, 4 * k + i] for k in range(3) for i in (2, 3)]
    for i, bi in enumerate(b_cols):
        for j, aj in enumerate(a_cols):
            expected = 1.0 if i == j else 0.0
            assert bi @ pair.omega1 @ aj == pytest.approx(expected, abs=1e-10)
    for i, x in enumerate(a_cols):
        for y in a_cols[i + 1 :]:
            assert x @ pair.omega1 @ y == pytest.approx(0.0, abs=1e-10)
    for i, x in enumerate(b_cols):
        for y in b_cols[i + 1 :]:
            assert x @ pair.omega1 @ y == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_scaled_pair_gets_the_scaled_basis(n, scale):
    # Every step is relative to the pair's own size: scaling the pair by s
    # scales its basis by s^(-1/2) and keeps the pull-back the standard pair.
    pair = random_crps_pair(n, np.random.default_rng(n))
    scaled = CrpsPair(scale * pair.omega1, scale * pair.omega2, pair.i_fiber)
    basis = crps_darboux(scaled)
    assert normal_form_defects(scaled, basis) < 1e-12
    assert np.max(np.abs(np.sqrt(scale) * basis - crps_darboux(pair))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tied_pivots_are_stable_under_roundoff(n):
    # The conjugated pair has pivot candidates whose scores tie in exact
    # arithmetic (four at the first pivot), so a 1e-13 perturbation of
    # omega1 must move the basis by roundoff only, not pick another
    # candidate and jump by O(1).
    for seed in range(10):
        pair = random_crps_pair(n, np.random.default_rng(seed))
        a = np.random.default_rng(1000 + seed).normal(size=pair.omega1.shape)
        w1 = pair.omega1 + 1e-13 * (a - a.T)
        nudged = CrpsPair(w1, -w1 @ pair.i_fiber, pair.i_fiber)
        assert np.max(np.abs(crps_darboux(nudged) - crps_darboux(pair))) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_pass_pivot_equals_the_per_candidate_loop(n):
    for seed in range(10):
        pair = random_crps_pair(n, np.random.default_rng(300 + seed))
        assert crps_darboux(pair).tobytes() == darboux_basis_by_loop(pair).tobytes()


def test_degenerate_omega_is_rejected():
    w1s, w2s = standard_fiber_forms(1)
    singular = w1s.copy()
    singular[:, 0] = 0.0
    singular[0, :] = 0.0
    with pytest.raises((DegenerateFormError, ValueError)):
        CrpsPair(singular, w2s, standard_complex_structure(1).fiber_part)


def test_pair_rejects_mismatched_partner():
    w1s, _ = standard_fiber_forms(1)
    with pytest.raises(ValueError):
        CrpsPair(w1s, 2.0 * w1s, standard_complex_structure(1).fiber_part)


def test_pair_tolerance_follows_a_small_pair():
    # Scaled by 1e-9 the mismatch 2 omega2 - omega2 is about 1e-9: within an
    # absolute 1e-9 tolerance, far outside one relative to the pair's size.
    w1s, w2s = standard_fiber_forms(1)
    i_fib = standard_complex_structure(1).fiber_part
    CrpsPair(1e-9 * w1s, 1e-9 * w2s, i_fib)
    with pytest.raises(ValueError, match="omega2 = -omega1"):
        CrpsPair(1e-9 * w1s, 2e-9 * w2s, i_fib)
    for n in (1, 2, 4):
        pair = random_crps_pair(n, np.random.default_rng(n))
        for scale in (1e-12, 1e12):
            CrpsPair(scale * pair.omega1, scale * pair.omega2, pair.i_fiber)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_pair_whose_fiber_square_overflows_is_rejected(scale):
    # I @ I overflows to inf, and so would max|I|^2: the verdict is a ValueError,
    # not an OverflowError or an overflow warning.
    w1s, w2s = standard_fiber_forms(1)
    with pytest.raises(ValueError, match="i_fiber does not square to -Id"):
        CrpsPair(w1s, w2s, standard_complex_structure(1).fiber_part * scale)


def test_structure_with_large_entries_gets_a_frame():
    # B = diag(1_2, M) with M of condition number 1e5: the fiber part of the
    # structure B^-1 J B has entries near 2e4, so "I squares to -Id" is judged
    # relative to max|I|^2, as LinearComplexStructure judges it.
    j = standard_complex_structure(2).matrix
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q1, q2 = (np.linalg.qr(rng.normal(size=(8, 8)))[0] for _ in range(2))
        b = np.eye(10)
        b[2:, 2:] = q1 @ np.diag(np.geomspace(1.0, 1e5, 8)) @ q2
        structure = LinearComplexStructure(np.linalg.solve(b, j @ b))
        form = pull_back(standard_crms_form(2), b)
        frame = crms_darboux(form, structure)
        assert frame.reconstruction_error < 1e-11 * np.max(np.abs(form.coeffs))
        # An I off by 1e-6 in every entry is still rejected.
        w1, w2 = contraction_matrix(form, structure.matrix[:, 0]), -contraction_matrix(form, np.eye(10)[:, 0])
        CrpsPair(w1, w2, structure.fiber_part)
        with pytest.raises(ValueError):
            CrpsPair(w1, w2, structure.fiber_part + 1e-6 * rng.choice([-1.0, 1.0], size=(8, 8)))


# --- crms_darboux ------------------------------------------------------------


def test_standard_form_gives_identity_frame_and_zero_nu():
    frame = crms_darboux(standard_crms_form(2), standard_complex_structure(2))
    assert np.max(np.abs(frame.basis - np.eye(10))) < 1e-12
    assert np.max(np.abs(frame.nu)) < 1e-12


def test_nu_recovered_in_darboux_coframe():
    rng = np.random.default_rng(31)
    nu = rng.normal(size=4)
    form = standard_crms_form(1, nu=nu)
    frame = crms_darboux(form, standard_complex_structure(1))
    assert np.max(np.abs(frame.nu - nu)) < 1e-9
    assert normal_form_gap(form, frame.basis, frame.nu) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugated_form_roundtrip(n):
    rng = np.random.default_rng(200 + n)
    form, structure = random_crms_form(n, rng)
    frame = crms_darboux(form, structure)
    assert normal_form_gap(form, frame.basis, frame.nu) < 1e-9


def test_coupled_structure_gives_vertical_e2_component():
    # With a coupled complex structure, e2 = I e1 acquires a vertical part;
    # the frame must still reproduce the normal form.
    rng = np.random.default_rng(41)
    structure = structure_with_coupling(1, rng)
    form = standard_crms_form(1, nu=rng.normal(size=4))
    frame = crms_darboux(form, structure)
    assert np.max(np.abs(frame.basis[2:, 1])) > 1e-3
    assert normal_form_gap(form, frame.basis, frame.nu) < 1e-9


def test_invalid_form_raises_with_report():
    form = inject_vertical_triple(standard_crms_form(1))
    with pytest.raises(CrmsValidationError) as excinfo:
        crms_darboux(form, standard_complex_structure(1))
    assert excinfo.value.report is not None
    assert not excinfo.value.report.horizontal.ok


def test_frame_guard_runs_under_python_O(tmp_path):
    # The frame's complex-linearity is an explicit check, not an assert, so
    # python -O keeps it: a fiber basis that breaks a2 = I a1 makes darboux
    # exit 1 with one error line.
    script = textwrap.dedent(
        """
        import sys
        import crms.darboux
        from crms.cli import main

        crps_darboux = crms.darboux.crps_darboux

        def broken(pair):
            basis = crps_darboux(pair).copy()
            basis[:, 1] *= 2.0
            return basis

        crms.darboux.crps_darboux = broken
        sys.exit(main(["darboux", "--out", sys.argv[1], "--quiet"]))
        """
    )
    src = str(Path(crms.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 1
    assert run.stderr == "error: Darboux frame is not complex-linear\n"


def test_splitting_contractions_form_a_crps_pair():
    # omega1 := form(e2, ., .)|_V and omega2 := -form(e1, ., .)|_V satisfy
    # omega2 = -omega1(., I.), mirroring the splitting computation.
    rng = np.random.default_rng(53)
    for n in (1, 2):
        form, structure = random_crms_form(n, rng)
        d = form.dim
        e1 = np.zeros(d)
        e1[0] = 1.0
        e2 = structure.matrix @ e1
        w1 = contraction_matrix(form, e2)
        w2 = -contraction_matrix(form, e1)
        assert np.max(np.abs(w2 + w1 @ structure.fiber_part)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 4])
def test_reported_error_is_the_oracle_gap(n):
    # The frame reports the gap of the pull-back that gave nu; the oracle
    # pulls back and builds the normal form on its own.  A nudged basis
    # checks the two away from zero as well.
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        form, structure = random_crms_form(n, rng)
        frame = crms_darboux(form, structure)
        assert abs(frame.reconstruction_error - normal_form_gap(form, frame.basis, frame.nu)) < 1e-12
        nudged = frame.basis + 1e-3 * rng.normal(size=frame.basis.shape)
        gap = normal_form_gap(form, nudged, frame.nu)
        assert gap > 1e-4
        assert abs(darboux_reconstruction_error(pull_back(form, nudged), frame.nu) - gap) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4])
def test_reconstruction_error_is_the_gap_to_the_normal_form_tensor(n):
    # Bitwise the max-norm gap to standard_crms_form(n, nu); a nu of the
    # wrong shape or with a non-finite entry is still rejected.
    rng = np.random.default_rng(500 + n)
    form, structure = random_crms_form(n, rng)
    pulled = pull_back(form, crms_darboux(form, structure).basis)
    nu = rng.normal(size=4 * n)
    expected = float(np.max(np.abs(pulled.coeffs - standard_crms_form(n, nu=nu).coeffs)))
    assert darboux_reconstruction_error(pulled, nu) == expected
    with pytest.raises(DimensionMismatchError):
        darboux_reconstruction_error(pulled, nu[1:])
    for value in (np.inf, -np.inf, np.nan):
        bad = nu.copy()
        bad[-1] = value
        with pytest.raises(ValueError, match="non-finite"):
            darboux_reconstruction_error(pulled, bad)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=10_000))
def test_roundtrip_property(n, seed):
    # Round-trip for dim_fiber <= 16: reconstruction below 1e-8.
    rng = np.random.default_rng(seed)
    form, structure = random_crms_form(n, rng)
    frame = crms_darboux(form, structure)
    assert normal_form_gap(form, frame.basis, frame.nu) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12])
def test_scaled_forms_get_a_frame(n, s):
    # The fiber columns of the frame grow like s^(-1/2) while its base block
    # stays the identity's; the frame is checked for invertibility, not for
    # entry size.
    form, structure = random_crms_form(n, np.random.default_rng(3))
    frame = crms_darboux(AlternatingThreeForm(s * form.coeffs), structure)
    assert frame.reconstruction_error < 1e-8
    assert not (frame.basis.flags.writeable or frame.nu.flags.writeable)


_WITNESS_POSITIONS = ("triple", "lift", "xi_index", "v1_index", "v2_index")


def _verdicts(form: AlternatingThreeForm, structure) -> list:
    # Each condition's verdict with the positions its witness names.
    report = validate_crms(form, structure)
    return [
        (check.ok, {key: value for key, value in (check.witness or {}).items() if key in _WITNESS_POSITIONS})
        for check in (report.horizontal, report.nondegenerate, report.i_compatible)
    ]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [40, -40, 100, -100, 200, -200])
def test_forms_scaled_by_powers_of_four_get_the_scaled_frame_bitwise(n, k):
    # Scaling by 4^k = 2^(2k) is exact, and so is every step of the frame: the
    # fiber columns scale by 2^-k and nu by 2^k, and each verdict is taken
    # relative to the form's or a column's own size, so none of them moves.
    for seed in range(3):
        form, structure = random_crms_form(n, np.random.default_rng(seed))
        frame = crms_darboux(form, structure)
        scaled = crms_darboux(AlternatingThreeForm(4.0**k * form.coeffs), structure)
        expected = frame.basis.copy()
        expected[:, 2:] *= 2.0**-k
        assert scaled.basis.tobytes() == expected.tobytes()
        assert scaled.nu.tobytes() == (2.0**k * frame.nu).tobytes()
        assert scaled.reconstruction_error == frame.reconstruction_error
        for case in (form, inject_vertical_triple(form), drop_quadruple_block(form), break_i_compatibility(form)):
            assert _verdicts(AlternatingThreeForm(4.0**k * case.coeffs), structure) == _verdicts(case, structure)

