"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the oracles (explicit
congruences, brute-force determinants, roll-based Laplacians, per-mode
Fourier symbols) are implemented in this module, independently of the
library code paths they check.  Criterion 2 checks its frames with
``normal_form_gap``, criterion 4 its gradients with
``richardson_directional`` and criterion 6 builds its states with
``momenta_from_positions``, all from ``tests/oracles.py``; criterion 4 also
runs ``crms gradcheck``'s complex-step check at its own bound, and
criterion 9 checks the chart transitions with ``tests/transition.py``.
"""

import math
import time

import numpy as np

from crms.compatible import build_compatible, standard_triple
from crms.darboux import crms_darboux
from crms.errors import FlowDivergenceError
from crms.fields import (
    BUILTIN_HAMILTONIANS,
    FieldState,
    TorusGrid,
    action,
    bridges_residual,
    gradient_check,
    l2_gradient,
    make_hamiltonian,
)
from crms.flow import FlowConfig, fueter_residual, run_flow
from crms.linalg import (
    AlternatingThreeForm,
    standard_complex_structure,
    standard_crms_form,
    validate_crms,
)
from crms.sampling import (
    break_i_compatibility,
    drop_quadruple_block,
    inject_vertical_triple,
    random_crms_form,
    random_crps_pair,
    random_smooth_state,
)
from crms.symbols import principal_symbol
from oracles import momenta_from_positions, normal_form_gap, richardson_directional
from transition import sample_patch, transition_check


class Criterion:
    """Collects failures and prints the one-line verdict on exit."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.failures: list[str] = []
        self.detail = ""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc is not None:
            self.failures.append(f"unexpected {exc_type.__name__}: {exc}")
        if elapsed > self.budget_s:
            self.failures.append(f"runtime {elapsed:.2f} s exceeds budget {self.budget_s} s")
        status = "PASS" if not self.failures else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        print(f"[criterion {self.number}] {self.label}: {status} ({elapsed:.2f} s){tail}")
        for f in self.failures:
            print(f"    - {f}")
        if exc is not None:
            return False  # re-raise
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_crms_validation():
    with Criterion(1, "CRMS validation with witnesses", budget_s=1.0) as c:
        for n in (1, 2, 3, 4):
            report = validate_crms(standard_crms_form(n), standard_complex_structure(n))
            c.check(report.passed, f"standard form failed for n={n}")

        structure = standard_complex_structure(2)
        broken = inject_vertical_triple(standard_crms_form(2))
        rep = validate_crms(broken, structure)
        # A vertical-triple term necessarily violates compatibility as well
        # (no alternating vertical 3-form is compatibility-neutral), so only
        # require the targeted condition to be flagged with its witness.
        c.check(not rep.horizontal.ok and rep.nondegenerate.ok,
                "vertical-triple injection did not trip condition (ii)")
        c.check(rep.horizontal.witness is not None
                and sorted(rep.horizontal.witness["triple"]) == [2, 3, 4],
                "horizontality witness does not name the injected triple")

        rep = validate_crms(drop_quadruple_block(standard_crms_form(2)), structure)
        c.check(not rep.nondegenerate.ok and rep.horizontal.ok and rep.i_compatible.ok,
                "dropped-block injection not isolated to condition (iii)")
        c.check(rep.nondegenerate.witness is not None and "lift" in rep.nondegenerate.witness,
                "non-degeneracy witness missing")

        structure1 = standard_complex_structure(1)
        rep = validate_crms(break_i_compatibility(standard_crms_form(1)), structure1)
        c.check(not rep.i_compatible.ok and rep.horizontal.ok and rep.nondegenerate.ok,
                "compatibility injection not isolated to condition (iv)")
        c.check(rep.i_compatible.witness is not None and "xi_index" in rep.i_compatible.witness,
                "compatibility witness missing")

        zero = AlternatingThreeForm(np.zeros((6, 6, 6)))
        rep = validate_crms(zero, structure1)
        c.check(not rep.nondegenerate.ok and rep.horizontal.ok and rep.i_compatible.ok,
                "zero-form non-degeneracy break not detected as (iii)")
        c.detail = "n in {1..4} pass; 4 injected violations isolated with witnesses"


def test_criterion_2_darboux_roundtrip():
    with Criterion(2, "Darboux round-trip", budget_s=10.0) as c:
        worst = 0.0
        for n in (1, 2, 3):
            rng = np.random.default_rng(1000 + n)
            for _ in range(50):
                form, structure = random_crms_form(n, rng)
                frame = crms_darboux(form, structure)
                worst = max(worst, normal_form_gap(form, frame.basis, frame.nu))
        c.check(worst < 1e-8, f"reconstruction max error {worst:.3e} >= 1e-8")
        c.detail = f"150 seeded forms, worst reconstruction error {worst:.3e}"


def test_criterion_3_compatibility_construction():
    with Criterion(3, "compatible-triple construction", budget_s=10.0) as c:
        worst_inv = 0.0
        worst_g = 0.0
        for n in (1, 2, 3):
            rng = np.random.default_rng(2000 + n)
            eye = np.eye(4 * n)
            for _ in range(50):
                pair = random_crps_pair(n, rng)
                t = build_compatible(pair.omega1, pair.omega2, pair.i_fiber)
                worst_inv = max(
                    worst_inv,
                    float(np.max(np.abs(t.j1 @ t.j1 + eye))),
                    float(np.max(np.abs(t.j2 @ t.j2 + eye))),
                    float(np.max(np.abs(t.j2 - pair.i_fiber @ t.j1))),
                    float(np.max(np.abs(t.j1 @ t.j2 + t.j2 @ t.j1))),
                    float(np.max(np.abs(t.g.matrix @ t.j1 - pair.omega1))),
                    float(np.max(np.abs(t.g.matrix @ t.j2 - pair.omega2))),
                )
                # With the identity reference g is the polar factor B itself.
                t_rot = build_compatible(pair.omega2, -pair.omega1, pair.i_fiber)
                worst_g = max(worst_g, float(np.max(np.abs(t.g.matrix - t_rot.g.matrix))))
        c.check(worst_inv < 1e-8, f"triple invariant defect {worst_inv:.3e} >= 1e-8")
        c.check(worst_g < 1e-9, f"polar-factor direction dependence {worst_g:.3e} >= 1e-9")
        c.detail = f"150 pairs; invariants {worst_inv:.2e}, B direction gap {worst_g:.2e}"


def test_criterion_4_exact_discrete_gradient():
    with Criterion(4, "exact discrete gradient", budget_s=30.0) as c:
        grid = TorusGrid(32, 32)
        worst = worst_ratio = 0.0
        complex_errors, complex_ratios = [], []
        for n in (1, 2):
            for name in BUILTIN_HAMILTONIANS:
                ham = make_hamiltonian(name, n, lam=0.6)
                # Seeded from the name's bytes: hash() of a str changes with
                # PYTHONHASHSEED, and so would the directions drawn.
                rng = np.random.default_rng([n, *name.encode()])
                state = random_smooth_state(grid, n, 0.4, rng)
                grad = l2_gradient(state, ham)
                # Roundoff floor of the oracle: each action carries an absolute
                # error of about u |A|, which the finest difference divides by
                # its step 1e-5.  With the cosine Hamiltonian |A| is 50-100, so
                # directions with a small pairing fall below the 1e-6 relative
                # bound on roundoff alone.
                floor = np.finfo(float).eps * abs(action(state, ham)) / 1e-5
                deltas = [rng.normal(size=state.values.shape) for _ in range(20)]
                for delta in deltas:
                    pairing = float(grid.cell_area * np.sum(grad * delta))
                    err = abs(pairing - richardson_directional(state, ham, delta))
                    worst = max(worst, err / abs(pairing) if pairing else math.inf)  # as gradcheck reports it
                    worst_ratio = max(worst_ratio, err / (1e-6 * abs(pairing) + floor))
                # The second oracle: gradcheck's complex step at its derived roundoff bound.
                errors, ratios = gradient_check(state, ham, deltas)
                complex_errors += errors
                complex_ratios += ratios
        worst_complex, worst_complex_ratio = np.max(complex_errors), np.max(complex_ratios)  # NaN fails
        c.check(worst_ratio < 1.0,
                f"gradient error reaches {worst_ratio:.3e} x (1e-6 |pairing| + roundoff floor)")
        c.check(worst_complex_ratio <= 1.0,
                f"complex-step error reaches {worst_complex_ratio:.3e} x gradcheck's roundoff bound")
        c.detail = (f"10 Hamiltonian/n combinations x 20 directions, worst relative {worst:.2e},"
                    f" worst error / bound {worst_ratio:.2e}; complex step {worst_complex:.2e},"
                    f" {worst_complex_ratio:.2e} of its bound")


def test_criterion_5_ellipticity_dichotomy():
    with Criterion(5, "ellipticity dichotomy of the symbols", budget_s=1.0) as c:
        angles = [2.0 * math.pi * k / 64 for k in range(64)]
        worst_det = 0.0
        for theta in angles:
            xi = np.array([math.cos(theta), math.sin(theta)])
            for n in (1, 2):
                bridges = principal_symbol("Bridges", xi, n)
                ddw = principal_symbol("DDW", xi, n)
                c.check(bridges.kernel_dim == 0, f"Bridges kernel at angle {theta:.3f}, n={n}")
                c.check(ddw.kernel_dim >= 1, f"DDW kernel trivial at angle {theta:.3f}, n={n}")
                worst_det = max(worst_det, abs(abs(bridges.determinant) - 1.0))
        c.check(worst_det < 1e-10, f"|det| deviates from 1 by {worst_det:.3e}")
        c.detail = f"64 unit covectors, max | |det| - 1 | = {worst_det:.2e}"


def test_criterion_6_laplace_recovery():
    with Criterion(6, "Laplace recovery after momentum elimination", budget_s=5.0) as c:
        grid = TorusGrid(32, 32)
        rng = np.random.default_rng(3000)
        worst = 0.0
        cases = [("quadratic", 0.9), ("quartic", 0.2)]
        for trial in range(20):
            name, lam = cases[trial % 2]
            ham = make_hamiltonian(name, 1, lam=lam)
            state = momenta_from_positions(random_smooth_state(grid, 1, 1.0, rng))
            grad = l2_gradient(state, ham)
            for comp in (0, 1):
                q = state.values[..., comp]
                # Independent wide-stencil Laplacian (composed centered differences).
                lap = (
                    (np.roll(q, -2, 0) - 2 * q + np.roll(q, 2, 0)) / (2 * grid.h1) ** 2
                    + (np.roll(q, -2, 1) - 2 * q + np.roll(q, 2, 1)) / (2 * grid.h2) ** 2
                )
                dv = lam * q if name == "quadratic" else 4.0 * lam * q**3
                # The position block of the gradient is -Delta_h q - dV/dq.
                worst = max(worst, float(np.max(np.abs(grad[..., comp] - (-lap - dv)))))
        c.check(worst < 1e-10, f"operator identity defect {worst:.3e} >= 1e-10")
        c.detail = f"20 seeded states, worst defect {worst:.2e}"


def _quadratic_symbol(grid: TorusGrid, triple, lam: float) -> np.ndarray:
    # Acceptance oracle: for H = |P|^2/2 + lam |q|^2/2 the gradient is linear
    # and translation-invariant, so it acts on each Fourier mode through a
    # 4x4 Hermitian block A(k) = i(s1 J1 + s2 J2) - diag(lam, lam, 1, 1); the
    # centred difference multiplies exp(i k t) by i s with s = sin(k h)/h.
    s1 = np.sin(2.0 * np.pi * np.fft.fftfreq(grid.n1)) / grid.h1
    s2 = np.sin(2.0 * np.pi * np.fft.fftfreq(grid.n2)) / grid.h2
    skew = s1[:, None, None, None] * triple.j1 + s2[None, :, None, None] * triple.j2
    return 1j * skew - np.diag([lam, lam, 1.0, 1.0])


def _monotone(actions: np.ndarray) -> bool:
    return bool(np.all(np.diff(actions) <= 1e-12 * (1.0 + np.abs(actions[:-1]))))


def test_criterion_7_flow_convergence():
    with Criterion(7, "gradient-flow convergence from the stable subspace (quadratic H)",
                   budget_s=60.0) as c:
        grid = TorusGrid(32, 32)
        lam = 1.0
        ham = make_hamiltonian("quadratic", 1, lam=lam)
        triple = standard_triple(1)
        ds = 0.2 * min(grid.h1, grid.h2)
        tol = 1e-6
        cfg = FlowConfig(ds=ds, max_steps=50_000, grad_tolerance=tol, record_every=1000)
        amplitude = 0.1

        symbol = _quadratic_symbol(grid, triple, lam)
        noise = np.random.default_rng(7).normal(size=(grid.n1, grid.n2, 4))
        noise_hat = np.fft.fft2(noise, axes=(0, 1))[..., None]
        grad_hat = np.fft.fft2(l2_gradient(FieldState(grid, noise), ham), axes=(0, 1))
        gap = float(np.max(np.abs((symbol @ noise_hat)[..., 0] - grad_hat)))
        c.check(gap < 1e-12 * float(np.max(np.abs(grad_hat))),
                f"Fourier symbol disagrees with l2_gradient by {gap:.3e}")

        # The action is strongly indefinite: Euler multiplies a mode of
        # eigenvalue mu by 1 - ds mu, so the modes with mu < 0 grow, by at most
        # `growth` per step, from roundoff u * amplitude.  The flow converges
        # from data whose modes all have mu >= mu0, its gradient shrinking by
        # 1 - ds mu0 per step from g0 <= amplitude (1/h1 + 1/h2 + lam) (each
        # centred difference is at most amplitude / h).  mu0 is the smallest
        # rate that reaches tol within the K steps at which the predicted
        # roundoff growth**K * u * amplitude is still below 1e-2 tol.
        eigvals, eigvecs = np.linalg.eigh(symbol)
        growth = 1.0 - ds * float(eigvals.min())
        u = np.finfo(float).eps
        k_max = math.log(1e-2 * tol / (u * amplitude)) / math.log(growth)
        g0_bound = amplitude * (1.0 / grid.h1 + 1.0 / grid.h2 + lam)
        mu0 = (1.0 - (tol / g0_bound) ** (1.0 / k_max)) / ds

        kept = eigvecs * (eigvals >= mu0)[..., None, :]
        stable_hat = kept @ (kept.conj().swapaxes(-1, -2) @ noise_hat)
        stable = np.fft.ifft2(stable_hat[..., 0], axes=(0, 1)).real
        initial = FieldState(grid, amplitude * stable / np.max(np.abs(stable)))

        trace = run_flow(initial, ham, cfg)
        final = trace.final_state
        residual = float(np.max(np.abs(bridges_residual(final, ham))))
        c.check(_monotone(trace.actions),
                "action sequence not monotone non-increasing at 1e-12 relative")
        c.check(trace.converged and residual < 1e-6,
                "flow did not converge to a field-equation solution"
                f" (final residual {residual:.3e})")
        # The limit is the zero section: on the stable subspace |A Z| >= mu0 |Z|
        # in the grid L2 norm.
        z_norm = math.sqrt(grid.cell_area * np.sum(final.values**2))
        grad_norm = math.sqrt(grid.cell_area * np.sum(l2_gradient(final, ham) ** 2))
        c.check(z_norm <= grad_norm / mu0,
                f"final |Z| = {z_norm:.3e} exceeds |grad| / mu0 = {grad_norm / mu0:.3e}")

        # Generic smooth data has unstable modes, which the forward flow
        # amplifies until divergence is caught.
        generic = random_smooth_state(grid, 1, amplitude, np.random.default_rng(7))
        diverged_at = None
        try:
            run_flow(generic, ham, cfg)
        except FlowDivergenceError as err:
            diverged_at = err.step
            prefix = err.trace
            c.check(bool(np.all(np.isfinite(prefix.steps))) and _monotone(prefix.actions),
                    "diverged run's prefix is not finite and monotone")
        c.check(diverged_at is not None, "flow from generic data did not raise FlowDivergenceError")

        c.detail = (
            f"mu0 = {mu0:.3f} (K <= {k_max:.1f} steps), converged in {len(trace.steps) - 1} steps,"
            f" residual {residual:.2e}, |Z| {z_norm:.2e} <= |grad|/mu0 {grad_norm / mu0:.2e},"
            f" symbol gap {gap:.1e}; generic data diverged at step {diverged_at}"
        )


def test_criterion_8_fueter_residual_convergence_order():
    with Criterion(8, "Fueter-residual convergence order", budget_s=120.0) as c:
        ham = make_hamiltonian("quadratic", 1, lam=1.0)

        # Euler: first order in ds at fixed grid.
        grid = TorusGrid(32, 32)
        init = random_smooth_state(grid, 1, 0.05, np.random.default_rng(11))
        euler_res = []
        for ds in (0.02, 0.01, 0.005):
            cfg = FlowConfig(ds=ds, max_steps=int(round(0.4 / ds)), grad_tolerance=1e-30,
                             record_every=1)
            trace = run_flow(init, ham, cfg)
            euler_res.append(fueter_residual(trace.states, cfg, trace.gradients))
        ratios = [b / a for a, b in zip(euler_res, euler_res[1:])]
        for r in ratios:
            c.check(0.4 < r < 0.6, f"Euler halving ratio {r:.3f} outside [0.4, 0.6]")

        # RK4 with ds tied to h: the residual reads the gradients of the discrete
        # operator the flow integrates, so it has no spatial error; it measures the O(ds^2)
        # of its centered s-difference, and halving ds with h cuts it by about 4.
        rk4_res = []
        for size in (32, 64):
            g = TorusGrid(size, size)
            init = random_smooth_state(g, 1, 0.05, np.random.default_rng(13))
            ds = 0.1 * g.h1
            cfg = FlowConfig(ds=ds, max_steps=int(round(0.4 / ds)), grad_tolerance=1e-30,
                             integrator="rk4", record_every=1)
            trace = run_flow(init, ham, cfg)
            rk4_res.append(fueter_residual(trace.states, cfg, trace.gradients))
        rk4_ratio = rk4_res[0] / rk4_res[1]
        c.check(2.8 < rk4_ratio < 5.2, f"RK4 grid-doubling ratio {rk4_ratio:.3f} outside [2.8, 5.2]")
        c.detail = f"Euler ratios {[f'{r:.3f}' for r in ratios]}, RK4 ratio {rk4_ratio:.3f}"


def test_criterion_9_transition_holomorphy():
    with Criterion(9, "transition holomorphy (momentum transformation)", budget_s=5.0) as c:
        t_origin, q_origin = 1.0 + 0.5j, 0.25 + 0.25j
        momenta = np.array([1.0 + 0.5j])
        ratios = {}
        for label, chart_fn in (("t^2", lambda z: z * z), ("e^t", np.exp)):
            defects = []
            for h, size in ((1 / 16, 17), (1 / 32, 33)):
                chart = sample_patch(chart_fn, t_origin, h, size)
                fiber = sample_patch(np.exp, q_origin, h, size)
                defects.append(transition_check(chart, [fiber], momenta))
            ratios[label] = defects[0] / defects[1]
            c.check(3.4 < ratios[label] < 4.6,
                    f"defect ratio for chart {label} is {ratios[label]:.3f}, outside [3.4, 4.6]")
        c.detail = ", ".join(f"{k}: ratio {v:.3f}" for k, v in ratios.items())
