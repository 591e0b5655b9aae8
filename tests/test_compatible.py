"""Polar-decomposition construction of compatible metric / J pairs."""

import itertools

import numpy as np
import pytest

from crms.compatible import build_compatible, standard_triple
from crms.errors import DegenerateFormError, DimensionMismatchError
from crms.linalg import SpdMatrix, standard_complex_structure, standard_fiber_forms
from crms.sampling import commuting_fiber_map, compatible_reference, random_crps_pair
from oracles import standard_pair


def triple_invariant_defect(triple, omega1, omega2, i_fiber) -> float:
    d = triple.g.dim
    eye = np.eye(d)
    return max(
        float(np.max(np.abs(triple.j1 @ triple.j1 + eye))),
        float(np.max(np.abs(triple.j2 @ triple.j2 + eye))),
        float(np.max(np.abs(triple.j2 - i_fiber @ triple.j1))),
        float(np.max(np.abs(triple.j1 @ triple.j2 + triple.j2 @ triple.j1))),
        float(np.max(np.abs(triple.g.matrix @ triple.j1 - omega1))),
        float(np.max(np.abs(triple.g.matrix @ triple.j2 - omega2))),
    )


def test_standard_pair_gives_identity_metric():
    # The field layer reads (J1, J2) = standard_fiber_forms(n) directly:
    # they must be the standard triple's.
    for n in range(1, 9):
        triple = standard_triple(n)
        w1, w2 = standard_fiber_forms(n)
        assert np.max(np.abs(triple.g.matrix - np.eye(4 * n))) < 1e-12
        assert np.array_equal(triple.j1, w1)
        assert np.array_equal(triple.j2, w2)


def test_scaling_moves_into_the_metric():
    pair = standard_pair(1)
    triple = build_compatible(2.0 * pair.omega1, 2.0 * pair.omega2, pair.i_fiber)
    base = standard_triple(1)
    assert np.max(np.abs(triple.g.matrix - 2.0 * np.eye(4))) < 1e-12
    assert np.max(np.abs(triple.j1 - base.j1)) < 1e-12
    assert triple_invariant_defect(triple, 2.0 * pair.omega1, 2.0 * pair.omega2, pair.i_fiber) < 1e-12


def test_random_pair_on_r8_satisfies_all_invariants():
    rng = np.random.default_rng(61)
    pair = random_crps_pair(2, rng)
    triple = build_compatible(pair.omega1, pair.omega2, pair.i_fiber)
    assert triple_invariant_defect(triple, pair.omega1, pair.omega2, pair.i_fiber) < 1e-9
    assert not (triple.g.matrix.flags.writeable or triple.j1.flags.writeable or triple.j2.flags.writeable)


def test_custom_reference_changes_nothing_essential():
    rng = np.random.default_rng(67)
    pair = random_crps_pair(1, rng)
    ref = compatible_reference(1, rng)
    triple = build_compatible(pair.omega1, pair.omega2, pair.i_fiber, ref)
    assert triple_invariant_defect(triple, pair.omega1, pair.omega2, pair.i_fiber) < 1e-9
    # g stays I-compatible whatever the admissible reference.
    g = triple.g.matrix
    assert np.max(np.abs(pair.i_fiber.T @ g @ pair.i_fiber - g)) < 1e-9


def test_polar_factor_is_direction_independent():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        pair = random_crps_pair(n, rng)
        for ref in (None, compatible_reference(n, rng)):
            t_rho = build_compatible(pair.omega1, pair.omega2, pair.i_fiber, ref)
            # The contraction in the rotated direction uses A_{j rho} = -A I,
            # i.e. the pair (omega2, -omega1).
            t_jrho = build_compatible(pair.omega2, -pair.omega1, pair.i_fiber, ref)
            # g = L B L^T with the one Cholesky factor L of the reference, so
            # equal metrics mean equal polar factors B.
            assert np.max(np.abs(t_rho.g.matrix - t_jrho.g.matrix)) < 1e-9


def test_j_of_direction_squares_to_minus_norm():
    triple = standard_triple(1)
    rho = np.array([3.0, 4.0])
    m = rho[0] * triple.j1 + rho[1] * triple.j2
    assert np.max(np.abs(m @ m + 25.0 * np.eye(4))) < 1e-9


def test_hundred_seeded_unit_directions():
    rng = np.random.default_rng(73)
    pair = random_crps_pair(2, rng)
    triple = build_compatible(pair.omega1, pair.omega2, pair.i_fiber)
    eye = np.eye(8)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rho = np.array([np.cos(theta), np.sin(theta)])
        m = rho[0] * triple.j1 + rho[1] * triple.j2
        assert np.max(np.abs(m @ m + eye)) < 1e-8
        # The contraction pairing matched to this direction convention.
        target = rho[0] * pair.omega1 + rho[1] * pair.omega2
        assert np.max(np.abs(triple.g.matrix @ m - target)) < 1e-8


def test_rejects_incompatible_reference():
    pair = standard_pair(1)
    bad = SpdMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))  # not I-compatible
    with pytest.raises(ValueError):
        build_compatible(pair.omega1, pair.omega2, pair.i_fiber, bad)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_scaled_reference_gives_the_same_triple(n):
    # Scaling the reference by s scales the musical operator by 1/s and
    # leaves J1 and g unchanged.
    rng = np.random.default_rng(80 + n)
    pair = random_crps_pair(n, rng)
    ref = compatible_reference(n, rng).matrix
    base = build_compatible(pair.omega1, pair.omega2, pair.i_fiber, SpdMatrix(ref))
    for s in (1e-12, 1e-9, 1e-6, 1e3, 1e6):
        triple = build_compatible(pair.omega1, pair.omega2, pair.i_fiber, SpdMatrix(s * ref))
        assert np.max(np.abs(triple.j1 - base.j1)) < 1e-13
        assert np.max(np.abs(triple.g.matrix - base.g.matrix)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 4])
def test_perturbed_reference_is_rejected_at_every_scale(n):
    rng = np.random.default_rng(90 + n)
    pair = random_crps_pair(n, rng)
    ref = compatible_reference(n, rng).matrix
    bump = np.zeros_like(ref)
    bump[0, 0] = 1e-3 * np.max(np.abs(ref))  # I moves e0 to e1, so this is not I-compatible
    for s in (1e-12, 1e-9, 1.0, 1e6):
        with pytest.raises(ValueError, match="reference inner product is not compatible"):
            build_compatible(pair.omega1, pair.omega2, pair.i_fiber, SpdMatrix(s * (ref + bump)))


def conditioned_reference(n, rng, cond, rows=False):
    """An I-compatible SPD reference M^T M, M commuting with I and sqrt(cond) on the first complex pair.

    The pair is M's first two columns, or with ``rows`` its first two rows.
    """
    m = commuting_fiber_map(n, rng)
    if rows:
        m[:2] *= np.sqrt(cond)
    else:
        m[:, :2] *= np.sqrt(cond)
    i_fib = standard_complex_structure(n).fiber_part
    m = 0.5 * (m - i_fib @ m @ i_fib)
    return m.T @ m


@pytest.mark.parametrize("cond", [1e8, 1e10, 1e12])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_badly_conditioned_reference_gives_a_triple(n, cond):
    # max|J1| grows like sqrt(cond): J1^2 + Id, measured against max|J1|^2 and not an
    # absolute 1e-9, and g J_i - omega_i, against max|g| max|J_i|, stay within 1e-9.
    # Scaled rows lose about cond eps in the Cholesky factor, which the final identities absorb.
    for seed, rows in itertools.product(range(10), (False, True)):
        rng = np.random.default_rng(seed)
        pair = random_crps_pair(n, rng)
        ref = SpdMatrix(conditioned_reference(n, rng, cond, rows))
        triple = build_compatible(pair.omega1, pair.omega2, pair.i_fiber, ref)
        g, j1, j2 = triple.g.matrix, triple.j1, triple.j2
        g_size, j1_size, j2_size = (np.max(np.abs(x)) for x in (g, j1, j2))
        eye = np.eye(4 * n)
        assert np.max(np.abs(j1 @ j1 + eye)) <= 1e-9 * j1_size**2
        assert np.max(np.abs(j2 @ j2 + eye)) <= 1e-9 * j2_size**2
        assert np.max(np.abs(j1 @ j2 + j2 @ j1)) <= 1e-9 * j1_size * j2_size
        assert np.max(np.abs(g @ j1 - pair.omega1)) <= 1e-9 * g_size * j1_size
        assert np.max(np.abs(g @ j2 - pair.omega2)) <= 1e-9 * g_size * j2_size


@pytest.mark.parametrize("cond", [1e8, 1e10, 1e12])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_badly_conditioned_incompatible_reference_is_rejected(n, cond):
    # The same references with one diagonal entry bumped by 1e-3 of their size break
    # I-compatibility, and the compatibility check still names it.
    rng = np.random.default_rng(n)
    pair = random_crps_pair(n, rng)
    ref = conditioned_reference(n, rng, cond)
    ref[0, 0] += 1e-3 * np.max(np.abs(ref))  # I moves e0 to e1, so this is not I-compatible
    with pytest.raises(ValueError, match="reference inner product is not compatible"):
        build_compatible(pair.omega1, pair.omega2, pair.i_fiber, SpdMatrix(ref))


def test_rejects_inconsistent_omega2():
    pair = standard_pair(1)
    with pytest.raises(ValueError):
        build_compatible(pair.omega1, 0.5 * pair.omega2, pair.i_fiber)


def test_rejects_singular_omega1():
    pair = standard_pair(1)
    singular = pair.omega1.copy()
    singular[0, :] = 0.0
    singular[:, 0] = 0.0
    with pytest.raises((DegenerateFormError, ValueError)):
        build_compatible(singular, pair.omega2, pair.i_fiber)


def test_rejects_shape_mismatch():
    pair = standard_pair(1)
    with pytest.raises(DimensionMismatchError):
        build_compatible(pair.omega1, pair.omega2, standard_complex_structure(2).fiber_part)
