"""Torus calculus: differences, action, residuals, gradient, serialization."""

import math
import warnings

import numpy as np
import pytest

from crms.errors import DimensionMismatchError
from crms.fields import (
    BUILTIN_HAMILTONIANS,
    COMPLEX_STEP,
    FieldState,
    HamiltonianSpec,
    TorusGrid,
    _operator_on,
    _sum_roundings,
    action,
    bridges_residual,
    diff,
    l2_gradient,
    make_hamiltonian,
    read_state,
    write_state,
)
from crms.linalg import standard_fiber_forms
from crms.sampling import random_smooth_state
from oracles import (
    checked_scaled_gradient,
    momenta_from_positions,
    pairwise_sum,
    richardson_directional,
    roll_diff,
    stacked_bridges_operator,
    with_scaled_gradient,
)


def random_state(grid: TorusGrid, n: int, seed: int, scale: float = 1.0) -> FieldState:
    rng = np.random.default_rng(seed)
    return FieldState(grid, scale * rng.normal(size=(grid.n1, grid.n2, 4 * n)))


# --- grid and diff -----------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(3, 8)
    with pytest.raises(ValueError):
        TorusGrid(8, 8, l1=-1.0)
    # A float size equalled the int one until write_state's header raised struct.error;
    # a bool period was taken as 1.0.
    for size in (8.0, 4.5, True, np.float64(8.0)):
        with pytest.raises(ValueError, match="grid resolution must be an integer"):
            TorusGrid(8, size)
        with pytest.raises(ValueError, match="grid resolution must be an integer"):
            TorusGrid(size, 8)
    for period in (True, np.True_):
        with pytest.raises(ValueError, match="periods must be real numbers"):
            TorusGrid(8, 8, l1=period)
        with pytest.raises(ValueError, match="periods must be real numbers"):
            TorusGrid(8, 8, l2=period)
    grid = TorusGrid(np.int64(8), np.int32(6), 3, np.float64(5.0))
    assert (grid.n1, grid.n2, grid.h1, grid.h2) == (8, 6, 3 / 8, 5 / 6)
    grid = TorusGrid(np.int64(8), np.int32(6), 3, np.float32(5.0))
    assert tuple(map(type, (grid.n1, grid.n2, grid.l1, grid.l2))) == (int, int, float, float)


@pytest.mark.parametrize("periods", [(np.float32(5.0), 5.0), (5.0, np.float32(5.0))])
def test_equal_grids_share_one_operator(periods):
    # The grid with a float32 period equalled the float grid but kept h2 = np.float32(0.8333333);
    # whichever came first filled _operator_on's entry, and the other's gradient moved by 5.3e-8.
    state = random_state(TorusGrid(8, 6, 3.0, 5.0), 1, seed=3)
    ham = make_hamiltonian("cosine", 1)
    _operator_on.cache_clear()
    fresh = l2_gradient(state, ham)
    _operator_on.cache_clear()
    for l2 in periods:
        grid = TorusGrid(8, 6, 3.0, l2)
        assert type(grid.l2) is float
        got = l2_gradient(FieldState(grid, state.values), ham)
        assert got.tobytes() == fresh.tobytes()


def test_diff_of_constant_is_zero():
    grid = TorusGrid(8, 8)
    values = np.full((8, 8, 4), 1.7)
    assert np.max(np.abs(diff(values, grid, 1))) == 0.0
    assert np.max(np.abs(diff(values, grid, 2))) == 0.0


def test_diff_eigenfunction_identity():
    # sin(t1) is an exact eigenfunction: D1 sin = cos(t1) sin(h1)/h1.
    grid = TorusGrid(64, 64)
    t1, _ = grid.coordinates()
    values = np.zeros((64, 64, 4))
    values[..., 0] = np.sin(t1)
    d1 = diff(values, grid, 1)
    expected = np.cos(t1) * (math.sin(grid.h1) / grid.h1)
    assert np.max(np.abs(d1[..., 0] - expected)) < 1e-13
    assert np.max(np.abs(diff(values, grid, 2))) == 0.0


def test_diff_is_skew_adjoint():
    grid = TorusGrid(16, 12, l1=5.0, l2=3.0)
    rng = np.random.default_rng(81)
    for direction in (1, 2):
        for _ in range(5):
            u = rng.normal(size=(16, 12, 4))
            v = rng.normal(size=(16, 12, 4))
            lhs = grid.cell_area * np.sum(diff(u, grid, direction) * v)
            rhs = grid.cell_area * np.sum(u * diff(v, grid, direction))
            assert abs(lhs + rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (17, 33), (32, 32), (9, 4), (4, 9)])
@pytest.mark.parametrize(
    "fiber", [None, 8, "strided", "transposed", "row-sliced"],
    ids=["2d", "3d", "3d-strided", "3d-transposed", "3d-row-sliced"],
)
def test_diff_equals_the_roll_form_bitwise(shape, fiber):
    # 4 points is the smallest resolution in either direction; the flat
    # stencil reads the non-contiguous inputs through a C-ordered copy.
    grid = TorusGrid(*shape, l1=1.3, l2=2.9)
    rng = np.random.default_rng(shape[0] * shape[1])
    if fiber is None:
        values = rng.normal(size=shape)
    elif fiber == "strided":
        # A q-component view such as oracles.momenta_from_positions passes.
        values = rng.normal(size=(*shape, 8))[..., 0::4]
    elif fiber == "transposed":
        values = rng.normal(size=(shape[1], shape[0], 8)).swapaxes(0, 1)
    elif fiber == "row-sliced":
        values = rng.normal(size=(2 * shape[0], shape[1], 8))[::2]
    else:
        values = rng.normal(size=(*shape, fiber))
    values.setflags(write=False)
    before = values.copy()
    for direction in (1, 2):
        got, expected = diff(values, grid, direction), roll_diff(values, grid, direction)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert np.array_equal(values, before)


@pytest.mark.parametrize("ends", [(np.inf, np.inf), (1e308, -1e308)], ids=["inf", "overflow"])
def test_diff_raises_no_warning_from_pairs_across_row_ends(ends):
    # In direction 2 the flat pass also subtracts v[i+1, 0] - v[i, n2-2] and
    # v[i, 1] - v[i-1, n2-1]; the wrapped columns overwrite both.  Here those
    # pairs give inf - inf or overflow, while no pair of the roll form does.
    grid = TorusGrid(5, 6)
    values = np.zeros((5, 6, 4))
    values[2, 0], values[1, 4] = ends
    values[3, 1], values[2, 5] = ends
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = roll_diff(values, grid, 2)
        got = diff(values, grid, 2)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _operator_input(kind: str, shape: tuple[int, int, int], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=shape)
    if kind == "signed-zeros":
        # Random entries with about a third of them +0.0 or -0.0, so zero
        # differences and zero products of either sign meet in one sum.
        v = rng.normal(size=shape)
        v[rng.random(shape) < 0.35] = 0.0
        return np.copysign(v, rng.normal(size=shape))
    return np.full(shape, {"+0.0": 0.0, "-0.0": -0.0, "constant": -0.375}[kind])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "grid",
    [TorusGrid(4, 4), TorusGrid(7, 11), TorusGrid(16, 16), TorusGrid(17, 12, l1=3.0, l2=5.0)],
    ids=["4x4", "7x11", "16x16", "17x12"],
)
@pytest.mark.parametrize("kind", ["random", "signed-zeros", "+0.0", "-0.0", "constant"])
def test_field_operator_is_the_stacked_matmul_form_bitwise(n, grid, kind):
    # Each entry of the two 2-D GEMMs is one product with ±1 plus exact zeros,
    # so the image equals the stacked form's, signed zeros included.
    values = _operator_input(kind, (grid.n1, grid.n2, 4 * n), seed=grid.n1 * grid.n2 + n)
    op = _operator_on(grid, n)
    got = op.apply(values)
    expected = stacked_bridges_operator(values, grid, *standard_fiber_forms(n))
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # Each term is the np.roll difference times its J, and their in-place sum is apply.
    terms = op.terms(values)
    for direction, term, j in zip((1, 2), terms, standard_fiber_forms(n)):
        expected_term = (roll_diff(values, grid, direction) @ j.T).reshape(-1, 4 * n)
        assert term.shape == expected_term.shape
        assert np.array_equal(term.view(np.int64), expected_term.view(np.int64))
    summed, second = terms
    summed += second
    assert np.array_equal(summed.reshape(values.shape).view(np.int64), got.view(np.int64))


# --- Hamiltonians ------------------------------------------------------------


def test_builtin_hamiltonians_construct():
    # The construction check's bound is relative to the complex step's own
    # size, with no floor at 1, so a small lambda passes it as a large one does.
    for name in BUILTIN_HAMILTONIANS:
        for n in (1, 2):
            for lam in [0.7] + [10.0**k for k in range(-12, 13)]:
                assert make_hamiltonian(name, n, lam=lam).fiber_dim == 4 * n
        assert make_hamiltonian(name, np.int64(2)).fiber_dim == 8  # a numpy integer is an int


def test_unknown_hamiltonian_rejected():
    with pytest.raises(ValueError):
        make_hamiltonian("pendulum", 1)


@pytest.mark.parametrize("lam", [True, False, np.True_])
def test_bool_lambda_rejected(lam):
    # lam = True built lambda = 1.0.
    with pytest.raises(ValueError, match="lambda must be a real number"):
        make_hamiltonian("quadratic", 1, lam)


@pytest.mark.parametrize("n", [0, -1, True, False, 1.0, 2.5])
def test_hamiltonian_size_must_be_a_positive_int(n):
    # n = 0 used to fail inside numpy's max of an empty array; n = True built a 4-dimensional H.
    with pytest.raises(ValueError, match="n must be a positive integer"):
        make_hamiltonian("quadratic", n)


@pytest.mark.parametrize("dim", [0, 2, 6, -4, True, 4.0])
def test_hamiltonian_fiber_dimension_must_be_a_positive_multiple_of_4(dim):
    with pytest.raises(DimensionMismatchError, match="fiber dimension must be a positive multiple of 4"):
        HamiltonianSpec("half", dim, lambda z: 0.5 * np.sum(z**2, axis=-1), lambda z: z)

def test_grossly_corrupted_gradient_rejected_at_construction():
    with pytest.raises(ValueError):
        checked_scaled_gradient(make_hamiltonian("quadratic", 1), 1.001)


def test_overflowing_value_rejected_at_construction():
    # The real part overflows to inf, which fails the check; the suite makes
    # any RuntimeWarning of the overflow an error.
    with pytest.raises(ValueError, match="not finite"):
        make_hamiltonian("quartic", 1, lam=1e308)


@pytest.mark.parametrize("name, lam, n", [("quartic", 1e4, 2), ("quadratic", 1e6, 1), ("cosine", 1e5, 2)])
def test_exact_gradient_at_large_lambda_passes_construction(name, lam, n):
    # The complex step subtracts nothing, so a large H costs no cancellation
    # and needs no roundoff floor; a corrupted gradient stays rejected.
    assert make_hamiltonian(name, n, lam=lam).fiber_dim == 4 * n
    with pytest.raises(ValueError, match="disagrees with the complex step"):
        checked_scaled_gradient(make_hamiltonian(name, n, lam=lam), 1.001)


@pytest.mark.parametrize("scale", [1.0 + 3e-6, 1.0 + 1e-9, 1.0 - 1e-12])
def test_subtly_corrupted_gradient_rejected_at_construction(scale):
    # Each is far inside a relative 1e-5, and far outside the bound of about 12 u max|d|.
    with pytest.raises(ValueError, match="disagrees with the complex step"):
        checked_scaled_gradient(make_hamiltonian("quadratic", 1), scale)


def test_custom_hamiltonian_with_wrong_gradient_rejected():
    # The check has no floor at 1: the half gradient of a small H fails it too.
    for s in (1.0, 1e-3, 1e-6, 1e-9, 1e-12):
        with pytest.raises(ValueError, match="disagrees with the complex step"):
            HamiltonianSpec(
                name="broken",
                fiber_dim=4,
                value=lambda z: s * np.sum(z**2, axis=-1),
                gradient=lambda z: s * z,  # off by a factor 2
            )


def test_value_that_is_not_complex_analytic_rejected():
    # |z|^2 built on np.abs has the right real gradient, but its complex step is 0.
    with pytest.raises(ValueError, match="complex-analytic"):
        HamiltonianSpec("abs", 4, lambda z: np.sum(np.abs(z) ** 2, axis=-1), lambda z: 2.0 * z)


def test_sum_roundings_counts_numpy_pairwise_order():
    # The gradient checks' K rests on numpy summing in this order: pin the sums bitwise and the counts.
    rng = np.random.default_rng(12)
    for m in [*range(1, 300), 1440, 2880, 4099, 131072]:
        x = rng.normal(size=m) * np.exp(4.0 * rng.normal(size=m))
        ((total,), depth) = pairwise_sum([(v,) for v in x.tolist()])
        assert total == np.sum(x) and depth == _sum_roundings(m)
        z = x + 1j * rng.normal(size=m)
        ((re, im), depth) = pairwise_sum(list(zip(z.real.tolist(), z.imag.tolist())))
        assert complex(re, im) == np.sum(z) and depth <= _sum_roundings(2 * m)


# At lambda = ±1e308 the built-ins whose values overflow at the check's points; all others pass.
OVERFLOWING_AT_1E308 = {("quadratic", 2), ("quadratic", 3), ("quartic", 1), ("quartic", 2), ("quartic", 3),
                        ("cosine", 2), ("cosine", 3)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", BUILTIN_HAMILTONIANS)
def test_construction_verdicts_across_lambda(name, n):
    # Every built-in passes at every lambda its values do not overflow, and a
    # gradient off by a relative 1e-9 fails unless it is zero.
    lams = [s * 10.0**k for k in range(-12, 13) for s in (1.0, -1.0)] + [0.0, 1e100, 1e200, 1e308, -1e308]
    z = np.random.default_rng(20240901).normal(size=(6, 4 * n))
    k = 9 + _sum_roundings(4 * n)
    worst = 0.0
    for lam in lams:
        if abs(lam) == 1e308 and (name, n) in OVERFLOWING_AT_1E308:
            with pytest.raises(ValueError, match="not finite"):
                make_hamiltonian(name, n, lam)
            continue
        ham = make_hamiltonian(name, n, lam)
        d = ham.value(z + 1j * COMPLEX_STEP * np.eye(4 * n)[:, None, :]).imag.T / COMPLEX_STEP
        bound = k * 2.0**-53 / (1.0 - k * 2.0**-53) * np.max(np.abs(d))
        if bound > 0.0:
            worst = max(worst, np.max(np.abs(ham.gradient(z) - d)) / bound)
        if name == "zero":
            checked_scaled_gradient(ham, 1.0 + 1e-9)
        else:
            with pytest.raises(ValueError, match="disagrees with the complex step"):
                checked_scaled_gradient(ham, 1.0 + 1e-9)
    print(f"{name}, n = {n}: worst construction error / bound {worst:.3e}")


def where_gradient(name: str, n: int, lam: float):
    # Each built-in gradient written as one np.where over the whole fiber.
    pm = np.zeros(4 * n, dtype=bool)
    pm[2::4] = pm[3::4] = True
    return {
        "zero": lambda z: np.zeros_like(z),
        "quadratic_p": lambda z: np.where(pm, z, 0.0),
        "quadratic": lambda z: np.where(pm, z, lam * z),
        "quartic": lambda z: np.where(pm, z, 4.0 * lam * z**3),
        "cosine": lambda z: np.where(pm, z, -lam * np.sin(z)),
    }[name]


def written_value(name: str, n: int, lam: float):
    # Each built-in value written out as the formula its docstring states.
    pm = np.zeros(4 * n, dtype=bool)
    pm[2::4] = pm[3::4] = True
    kinetic = lambda z: 0.5 * np.sum(z[..., pm] ** 2, axis=-1)
    return {
        "zero": lambda z: np.zeros(np.shape(z)[:-1]),
        "quadratic_p": kinetic,
        "quadratic": lambda z: kinetic(z) + 0.5 * lam * np.sum(z[..., ~pm] ** 2, axis=-1),
        "quartic": lambda z: kinetic(z) + lam * np.sum(z[..., ~pm] ** 4, axis=-1),
        "cosine": lambda z: kinetic(z) + lam * np.sum(np.cos(z[..., ~pm]), axis=-1),
    }[name]


@pytest.mark.parametrize("name", BUILTIN_HAMILTONIANS)
@pytest.mark.parametrize("lam", [0.7, -0.6])
@pytest.mark.parametrize("scale", [1.0, 1.0 + 3e-6])
@pytest.mark.parametrize("n", [1, 2])
def test_builtin_values_and_gradients_equal_the_written_formulas_bitwise(name, lam, scale, n):
    # Signed zeros included: a negative lambda leaves the gradient of zero and quadratic_p at +0.0.
    ham = make_hamiltonian(name, n, lam)
    if scale != 1.0:
        ham = with_scaled_gradient(ham, scale)
    value, gradient = written_value(name, n, lam), where_gradient(name, n, lam)
    rng = np.random.default_rng(31)
    for shape in [(6, 4 * n), (7, 11, 4 * n), (4 * n,)]:
        # Magnitudes from 1e-3 to 1e3, so sin leaves its small-argument range.
        z = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        z[rng.random(shape) < 0.25] = 0.0
        z[rng.random(shape) < 0.25] = -0.0
        expected = gradient(z) if scale == 1.0 else scale * gradient(z)
        for got, want in ((ham.value(z), value(z)), (ham.gradient(z), expected)):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_lambda_is_a_number():
    # A mapping or a misspelled keyword is rejected, not read as the default lambda = 1.
    with pytest.raises(ValueError, match="lambda must be a real number"):
        make_hamiltonian("cosine", 1, {"lambda": 5.0})
    with pytest.raises(TypeError):
        make_hamiltonian("cosine", 1, lamda=5.0)
    assert make_hamiltonian("cosine", 1, lam=5.0).value(np.zeros(4)) == 10.0  # 5 (cos 0 + cos 0)


@pytest.mark.parametrize("n", [1, 2])
def test_construction_check_calls_value_once(n):
    ham = make_hamiltonian("cosine", n)
    batches = []

    def value(z):
        batches.append((np.shape(z), z.dtype))
        return ham.value(z)

    HamiltonianSpec(ham.name, ham.fiber_dim, value, ham.gradient)
    assert batches == [((4 * n, 6, 4 * n), np.complex128)]

# --- action ------------------------------------------------------------------


def test_action_of_constant_state_with_zero_hamiltonian():
    grid = TorusGrid(8, 8)
    state = FieldState(grid, np.full((8, 8, 4), 0.3))
    assert action(state, make_hamiltonian("zero", 1)) == 0.0


def test_action_of_constant_hamiltonian_is_minus_volume():
    grid = TorusGrid(8, 8, l1=3.0, l2=5.0)
    state = FieldState(grid, np.zeros((8, 8, 4)))
    c = 0.9
    ham = HamiltonianSpec(
        name="const",
        fiber_dim=4,
        value=lambda z: np.full(np.shape(z)[:-1], c),
        gradient=lambda z: np.zeros_like(z),
    )
    assert action(state, ham) == pytest.approx(-c * 3.0 * 5.0, rel=1e-13)


# Each built-in's density on one complex dimension (q1, q2, P1, P2), written out term by term, lambda = 0.8.
DENSITY_TERMS = {
    "zero": lambda q1, q2, p1, p2: [],
    "quadratic_p": lambda q1, q2, p1, p2: [0.5 * p1 * p1, 0.5 * p2 * p2],
    "quadratic": lambda q1, q2, p1, p2: [0.5 * p1 * p1, 0.5 * p2 * p2, 0.8 * 0.5 * q1 * q1, 0.8 * 0.5 * q2 * q2],
    "quartic": lambda q1, q2, p1, p2: [0.5 * p1 * p1, 0.5 * p2 * p2, 0.8 * q1**4, 0.8 * q2**4],
    "cosine": lambda q1, q2, p1, p2: [0.5 * p1 * p1, 0.5 * p2 * p2, 0.8 * math.cos(q1), 0.8 * math.cos(q2)],
}


@pytest.mark.parametrize("amplitude", [1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", BUILTIN_HAMILTONIANS)
def test_action_against_slow_double_loop_oracle(name, n, amplitude):
    grid = TorusGrid(12, 10, l1=4.0, l2=7.0)
    state = random_state(grid, n, seed=91, scale=amplitude)
    got = action(state, make_hamiltonian(name, n, lam=0.8))

    # Independent oracle: explicit loops, the theta form of the quadratic term and compensated summation.
    v = state.values

    def centered(i, j, a, di, dj, h):
        fwd = v[(i + di) % grid.n1, (j + dj) % grid.n2, 4 * a : 4 * a + 4]
        return (fwd - v[(i - di) % grid.n1, (j - dj) % grid.n2, 4 * a : 4 * a + 4]) / (2 * h)

    terms, sizes = [], []
    for i in range(grid.n1):
        for j in range(grid.n2):
            for a in range(n):
                q1, q2, p1, p2 = v[i, j, 4 * a : 4 * a + 4]
                d1q1, d1q2, d1p1, d1p2 = centered(i, j, a, 1, 0, grid.h1)
                d2q1, d2q2, d2p1, d2p2 = centered(i, j, a, 0, 1, grid.h2)
                theta = [p1 * d1q1, p2 * d1q2, p1 * d2q2, -p2 * d2q1]
                # The q-side products that 1/2 Z·(J1 ∂1 Z + J2 ∂2 Z) also sums; by parts they equal theta's.
                dual = [q1 * d1p1, q2 * d1p2, q2 * d2p1, q1 * d2p2]
                density = DENSITY_TERMS[name](q1, q2, p1, p2)
                terms += theta + [-x for x in density]
                sizes += [abs(x) for x in theta + dual + density]
    expected = grid.cell_area * math.fsum(terms)
    # Recursive summation of all len(sizes) products and densities, each rounded a few times, stays within
    # gamma_n sum|terms| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §4.2).
    u = np.finfo(float).eps / 2
    gamma = len(sizes) * u / (1 - len(sizes) * u)
    assert abs(got - expected) <= gamma * grid.cell_area * math.fsum(sizes)


# --- residuals ---------------------------------------------------------------


def test_bridges_residual_zero_at_flat_critical_point():
    grid = TorusGrid(8, 8)
    state = FieldState(grid, np.zeros((8, 8, 4)))
    r = bridges_residual(state, make_hamiltonian("quadratic_p", 1))
    assert np.max(np.abs(r)) == 0.0


def test_bridges_momentum_block_vanishes_after_elimination():
    grid = TorusGrid(32, 32)
    rng = np.random.default_rng(97)
    state = random_smooth_state(grid, 1, 0.8, rng)
    eliminated = momenta_from_positions(state)
    r = bridges_residual(eliminated, make_hamiltonian("quadratic_p", 1))
    assert np.max(np.abs(r[..., 2::4])) < 1e-14
    assert np.max(np.abs(r[..., 3::4])) < 1e-14
    # And the position block is the wide-stencil Laplacian defect.
    q1 = state.values[..., 0]
    lap = (
        (np.roll(q1, -2, 0) - 2 * q1 + np.roll(q1, 2, 0)) / (2 * grid.h1) ** 2
        + (np.roll(q1, -2, 1) - 2 * q1 + np.roll(q1, 2, 1)) / (2 * grid.h2) ** 2
    )
    assert np.max(np.abs(r[..., 0] - lap)) < 1e-12


# --- gradient ----------------------------------------------------------------


def test_gradient_zero_for_constant_state_zero_hamiltonian():
    grid = TorusGrid(8, 8)
    state = FieldState(grid, np.full((8, 8, 4), 0.4))
    g = l2_gradient(state, make_hamiltonian("zero", 1))
    assert np.max(np.abs(g)) == 0.0


def test_gradient_nonzero_off_criticality():
    grid = TorusGrid(8, 8)
    state = random_state(grid, 1, seed=101, scale=0.5)
    g = l2_gradient(state, make_hamiltonian("quadratic", 1))
    assert grid.cell_area * np.sum(g * g) > 0.0


@pytest.mark.parametrize("grid", [TorusGrid(16, 16), TorusGrid(15, 15), TorusGrid(7, 11, 1.3, 2.9)],
                         ids=["16x16", "15x15", "7x11"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", BUILTIN_HAMILTONIANS)
def test_gradient_is_minus_bridges_residual(grid, n, name):
    # h1 != h2 on the 7x11 torus, so a swapped step would show.
    state = random_state(grid, n, seed=103)
    ham = make_hamiltonian(name, n, lam=0.3)
    g = l2_gradient(state, ham)
    r = bridges_residual(state, ham)
    assert np.max(np.abs(g + r)) < 1e-13


def test_gradient_matches_richardson_differences():
    grid = TorusGrid(16, 16)
    state = random_state(grid, 1, seed=107, scale=0.6)
    ham = make_hamiltonian("quartic", 1, lam=0.5)
    g = l2_gradient(state, ham)
    rng = np.random.default_rng(109)
    for _ in range(5):
        delta = rng.normal(size=state.values.shape)
        pairing = grid.cell_area * np.sum(g * delta)
        fd = richardson_directional(state, ham, delta)
        assert abs(pairing - fd) / (abs(pairing) + 1e-30) < 1e-9


def test_laplace_recovery_identity():
    # Eliminating the momenta turns the position residual into the
    # nonlinear Laplace operator: r_q = Delta_h q + dV/dq, i.e. the gradient
    # block equals -Delta_h q - dV/dq.
    grid = TorusGrid(32, 32)
    lam = 0.7
    ham = make_hamiltonian("quadratic", 1, lam=lam)
    rng = np.random.default_rng(113)
    for _ in range(5):
        state = momenta_from_positions(random_smooth_state(grid, 1, 1.0, rng))
        r = bridges_residual(state, ham)
        for c in (0, 1):
            q = state.values[..., c]
            lap = (
                (np.roll(q, -2, 0) - 2 * q + np.roll(q, 2, 0)) / (2 * grid.h1) ** 2
                + (np.roll(q, -2, 1) - 2 * q + np.roll(q, 2, 1)) / (2 * grid.h2) ** 2
            )
            assert np.max(np.abs(r[..., c] - (lap + lam * q))) < 1e-10


# --- sampling ----------------------------------------------------------------


SMOOTH_MODES = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)]


def smooth_state_by_component(grid: TorusGrid, n: int, rng, modes=SMOOTH_MODES) -> np.ndarray:
    # Unscaled: one (a, b) draw and one cos/sin pass of the whole phase per component and mode.
    t1, t2 = grid.coordinates()
    values = np.zeros((grid.n1, grid.n2, 4 * n))
    for c in range(4 * n):
        for k1, k2 in modes:
            a, b = rng.normal(size=2)
            phase = k1 * (2.0 * np.pi / grid.l1) * t1 + k2 * (2.0 * np.pi / grid.l2) * t2
            values[..., c] += a * np.cos(phase) + b * np.sin(phase)
    return values


def smooth_state_gap(grid: TorusGrid, n: int, amplitude: float, seed: int, expected: np.ndarray):
    """max|random_smooth_state - expected scaled to amplitude|, and the bound the two must meet.

    Each entry of component c sums 50 terms a cos(phi), b sin(phi), |phi| <= Phi = 4π((N1 - 1)/N1 +
    (N2 - 1)/N2).  Both sides share the rounded pieces k_i (2π/l_i)(h_i j): the oracle rounds their sum
    and takes cos/sin of it, the library takes cos/sin of each piece and contracts them through M_c.
    Each term is then off by a few u (1 + Phi) |coefficient| on either side and the sums (50 terms, or
    two 10-term contractions) add at most gamma_50 S_c, S_c the sum of component c's 50 |a|, |b|, so
    unscaled the gap is within gamma_50 (1 + Phi) S_c.  Scaling by amplitude / peak, with peaks that
    differ by at most that gap, at most doubles it relative to the peak, plus two roundings.
    """
    u = np.finfo(float).eps / 2
    gamma50 = 50 * u / (1 - 50 * u)
    phi = 4 * np.pi * ((grid.n1 - 1) / grid.n1 + (grid.n2 - 1) / grid.n2)
    sizes = np.sum(np.abs(np.random.default_rng(seed).normal(size=(4 * n, 50))), axis=1)
    peak = float(np.max(np.abs(expected)))
    bound = amplitude * (2 * gamma50 * (1 + phi) * float(np.max(sizes)) / peak + 2 * u)
    got = random_smooth_state(grid, n, amplitude, np.random.default_rng(seed)).values
    assert got.flags.c_contiguous
    return float(np.max(np.abs(got - expected * (amplitude / peak)))), bound


@pytest.mark.parametrize(
    "n, shape", [(1, (7, 11, 1.3, 2.9)), (3, (7, 11, 1.3, 2.9)), (1, (256, 255))], ids=["1-7x11", "3-7x11", "1-256x255"]
)
def test_random_smooth_state_matches_the_per_component_loop(n, shape):
    grid = TorusGrid(*shape)
    expected = smooth_state_by_component(grid, n, np.random.default_rng(8))
    gap, bound = smooth_state_gap(grid, n, 0.4, 8, expected)
    assert gap <= bound


@pytest.mark.parametrize("n", [1, 3])
def test_random_smooth_state_gap_bound_catches_swapped_modes_and_components(n):
    # Negative controls: the same draws on transposed modes (k2, k1), or in reversed
    # component order, miss the bound by O(1) of the amplitude.
    grid = TorusGrid(7, 11, 1.3, 2.9)
    swapped = smooth_state_by_component(grid, n, np.random.default_rng(8), [(k2, k1) for k1, k2 in SMOOTH_MODES])
    reordered = smooth_state_by_component(grid, n, np.random.default_rng(8))[..., ::-1]
    for expected in (swapped, reordered):
        gap, bound = smooth_state_gap(grid, n, 0.4, 8, expected)
        assert gap > 0.1 * 0.4 > bound


# --- serialization -----------------------------------------------------------


def test_binary_round_trip_is_exact(tmp_path):
    grid = TorusGrid(8, 12, l1=3.5, l2=2.25)
    state = random_state(grid, 2, seed=127)
    path = tmp_path / "state.crms"
    write_state(state, path)
    back = read_state(path)
    assert back.grid == grid
    assert np.array_equal(back.values, state.values)


def test_binary_container_header(tmp_path):
    grid = TorusGrid(4, 4)
    state = FieldState(grid, np.zeros((4, 4, 4)))
    path = tmp_path / "state.crms"
    write_state(state, path)
    raw = path.read_bytes()
    assert raw[:4] == b"CRMS"
    # 4-byte magic, four u32 fields, two f64 periods, then the payload.
    assert len(raw) == 36 + 8 * 4 * 4 * 4


def test_binary_rejects_bad_magic(tmp_path):
    grid = TorusGrid(4, 4)
    state = FieldState(grid, np.zeros((4, 4, 4)))
    path = tmp_path / "state.crms"
    write_state(state, path)
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(ValueError, match="bad magic"):
        read_state(path)


def test_state_validation():
    grid = TorusGrid(8, 8)
    with pytest.raises(DimensionMismatchError):
        FieldState(grid, np.zeros((8, 8, 6)))
    with pytest.raises(ValueError):
        FieldState(grid, np.full((8, 8, 4), np.nan))
