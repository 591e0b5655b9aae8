"""Command-line harness: reproducible experiments from a single JSON config.

Verbs: validate | darboux | symbol | flow | gradcheck.  Global flags
--config, --seed, --out, --grid, --quiet override the corresponding config
entries.  Exit codes: 0 success, 1 check failure, 2 config/usage error,
3 runtime divergence.  All outputs are deterministic functions of
(config, seed) apart from the timestamp field in JSON reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .compatible import standard_triple
from .darboux import crms_darboux, darboux_reconstruction_error
from .errors import ConfigError, CrmsError, CrmsValidationError, FlowDivergenceError
from .fields import (
    BUILTIN_HAMILTONIANS,
    FieldState,
    TorusGrid,
    action,
    bridges_residual,
    l2_gradient,
    make_hamiltonian,
    read_state,
    write_state,
)
from .flow import FlowConfig, fueter_residual, run_flow, write_trace_csv
from .linalg import standard_complex_structure, standard_crms_form, validate_crms
from .sampling import (
    break_i_compatibility,
    drop_quadruple_block,
    inject_vertical_triple,
    random_crms_form,
    random_smooth_state,
)
from .symbols import principal_symbol

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

FORM_SOURCES = ("standard", "standard_plus_nu", "seeded_random_conjugate")
FORM_INJECTIONS = ("vertical_triple", "drop_block", "break_compatibility")
INITIAL_MODES = ("random_smooth", "constant", "file")

# Entries of the largest float array a run may allocate (2 GiB).  Larger n or
# grids are config errors, reported before anything is allocated.
MAX_ARRAY_ENTRIES = 2**28


def _finite_float(value) -> float | None:
    """The value of a finite JSON number as a float, else None.

    bool is an int subclass and does not count; neither does an integer too
    large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _expect(mapping: dict, key: str, kind, default):
    value = mapping.get(key, default)
    if value is None:
        return None
    if kind is float:
        number = _finite_float(value)
        if number is None:
            raise ConfigError(f"config field '{key}' must be a finite number, got {type(value).__name__}")
        return number
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"config field '{key}' must be {kind.__name__}, got {type(value).__name__}")
    return value


@dataclass
class ExperimentConfig:
    n: int = 1
    seed: int = 0
    output_dir: str = "crms_out"
    grid: TorusGrid = field(default_factory=lambda: TorusGrid(32, 32))
    ham_name: str = "quadratic"
    ham_parameters: dict = field(default_factory=dict)
    gradient_scale: float = 1.0
    flow_ds: float | None = None
    flow_max_steps: int = 10000
    flow_tolerance: float = 1e-8
    flow_integrator: str = "explicit_euler"
    flow_record_every: int = 1
    initial_mode: str = "random_smooth"
    initial_amplitude: float = 0.1
    initial_value: float = 0.0
    initial_path: str | None = None
    form_source: str = "standard"
    form_inject: str | None = None
    form_nu_scale: float = 0.5
    symbol_angles: int = 64
    symbol_xi: tuple[float, float] | None = None
    gradcheck_directions: int = 20


def parse_config(raw: dict, command: str) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    known = {"kind", "n", "seed", "output_dir", "grid", "hamiltonian", "flow", "form", "symbol", "gradcheck"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kind = _expect(raw, "kind", str, None)
    if kind is not None and kind != command:
        raise ConfigError(f"config kind '{kind}' does not match command '{command}'")

    cfg = ExperimentConfig()
    cfg.n = _expect(raw, "n", int, 1)
    if cfg.n < 1:
        raise ConfigError("n must be at least 1")
    cfg.seed = _expect(raw, "seed", int, 0)
    if cfg.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    cfg.output_dir = _expect(raw, "output_dir", str, "crms_out")

    grid = raw.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("'grid' must be an object")
    try:
        cfg.grid = TorusGrid(
            n1=_expect(grid, "n1", int, 32),
            n2=_expect(grid, "n2", int, 32),
            l1=_expect(grid, "l1", float, 2.0 * np.pi),
            l2=_expect(grid, "l2", float, 2.0 * np.pi),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None

    ham = raw.get("hamiltonian", {})
    if not isinstance(ham, dict):
        raise ConfigError("'hamiltonian' must be an object")
    cfg.ham_name = _expect(ham, "name", str, "quadratic")
    if cfg.ham_name not in BUILTIN_HAMILTONIANS:
        raise ConfigError(f"unknown Hamiltonian '{cfg.ham_name}'; built-ins: {BUILTIN_HAMILTONIANS}")
    params = ham.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("'hamiltonian.parameters' must be an object")
    cfg.ham_parameters = {k: _finite_float(v) for k, v in params.items()}
    if None in cfg.ham_parameters.values():
        raise ConfigError("'hamiltonian.parameters' must map names to finite numbers")
    cfg.gradient_scale = _expect(ham, "gradient_scale", float, 1.0)

    flow = raw.get("flow", {})
    if not isinstance(flow, dict):
        raise ConfigError("'flow' must be an object")
    cfg.flow_ds = _expect(flow, "ds", float, None)
    cfg.flow_max_steps = _expect(flow, "max_steps", int, 10000)
    cfg.flow_tolerance = _expect(flow, "tolerance", float, 1e-8)
    cfg.flow_integrator = _expect(flow, "integrator", str, "explicit_euler")
    cfg.flow_record_every = _expect(flow, "record_every", int, max(1, cfg.flow_max_steps // 100))
    initial = flow.get("initial", {})
    if not isinstance(initial, dict):
        raise ConfigError("'flow.initial' must be an object")
    cfg.initial_mode = _expect(initial, "mode", str, "random_smooth")
    if cfg.initial_mode not in INITIAL_MODES:
        raise ConfigError(f"initial mode must be one of {INITIAL_MODES}")
    cfg.initial_amplitude = _expect(initial, "amplitude", float, 0.1)
    cfg.initial_value = _expect(initial, "value", float, 0.0)
    cfg.initial_path = _expect(initial, "path", str, None)

    form = raw.get("form", {})
    if not isinstance(form, dict):
        raise ConfigError("'form' must be an object")
    cfg.form_source = _expect(form, "source", str, "standard")
    if cfg.form_source not in FORM_SOURCES:
        raise ConfigError(f"form source must be one of {FORM_SOURCES}")
    cfg.form_inject = _expect(form, "inject", str, None)
    if cfg.form_inject is not None and cfg.form_inject not in FORM_INJECTIONS:
        raise ConfigError(f"form injection must be one of {FORM_INJECTIONS}")
    cfg.form_nu_scale = _expect(form, "nu_scale", float, 0.5)

    symbol = raw.get("symbol", {})
    if not isinstance(symbol, dict):
        raise ConfigError("'symbol' must be an object")
    cfg.symbol_angles = _expect(symbol, "angles", int, 64)
    if cfg.symbol_angles < 1:
        raise ConfigError("symbol.angles must be positive")
    xi = symbol.get("xi")
    if xi is not None:
        xi = tuple(_finite_float(x) for x in xi) if isinstance(xi, list) else ()
        if len(xi) != 2 or None in xi:
            raise ConfigError("symbol.xi must be a 2-element list of finite numbers")
        cfg.symbol_xi = xi

    gradcheck = raw.get("gradcheck", {})
    if not isinstance(gradcheck, dict):
        raise ConfigError("'gradcheck' must be an object")
    cfg.gradcheck_directions = _expect(gradcheck, "directions", int, 20)
    if cfg.gradcheck_directions < 1:
        raise ConfigError("gradcheck.directions must be positive")
    return cfg


def _check_size(cfg: ExperimentConfig, command: str) -> None:
    """Reject an n or grid whose largest array exceeds MAX_ARRAY_ENTRIES.

    That array depends on the verb: the d^3 3-form (d = 4n + 2) of validate
    and darboux, the (4n)^2 symbol matrix, and for flow and gradcheck the
    (4n)^2 compatible triple or one n1 x n2 x 4n field.
    """
    d = 4 * cfg.n
    if command in ("validate", "darboux"):
        largest = (d + 2) ** 3
    elif command == "symbol":
        largest = d * d
    else:
        largest = max(d * d, cfg.grid.n1 * cfg.grid.n2 * d)
    if largest > MAX_ARRAY_ENTRIES:
        raise ConfigError(
            f"{command} with n = {cfg.n} and grid {cfg.grid.n1}x{cfg.grid.n2} needs an array of"
            f" {largest} entries; at most {MAX_ARRAY_ENTRIES} are allowed"
        )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _build_form(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    if cfg.form_source == "standard":
        form = standard_crms_form(cfg.n)
        structure = standard_complex_structure(cfg.n)
    elif cfg.form_source == "standard_plus_nu":
        nu = rng.normal(size=4 * cfg.n) * cfg.form_nu_scale
        form = standard_crms_form(cfg.n, nu=nu)
        structure = standard_complex_structure(cfg.n)
    else:
        form, structure = random_crms_form(cfg.n, rng, nu_scale=cfg.form_nu_scale)
    if cfg.form_inject == "vertical_triple":
        form, _ = inject_vertical_triple(form)
    elif cfg.form_inject == "drop_block":
        form = drop_quadruple_block(cfg.n)
    elif cfg.form_inject == "break_compatibility":
        form = break_i_compatibility(cfg.n)
    return form, structure


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    form, structure = _build_form(cfg)
    report = validate_crms(form, structure)
    payload = {
        "command": "validate",
        "n": cfg.n,
        "seed": cfg.seed,
        "form_source": cfg.form_source,
        "form_inject": cfg.form_inject,
        "report": report.as_dict(),
    }
    _write_json(out / "validate.json", payload)
    _say(quiet, f"validate: {'pass' if report.passed else 'FAIL'} -> {out / 'validate.json'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_darboux(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    form, structure = _build_form(cfg)
    try:
        frame = crms_darboux(form, structure)
    except CrmsValidationError as err:
        payload = {
            "command": "darboux",
            "n": cfg.n,
            "seed": cfg.seed,
            "error": "validation failed",
            "report": err.report.as_dict() if err.report is not None else None,
        }
        _write_json(out / "darboux.json", payload)
        _say(quiet, "darboux: FAIL (input form is not CRMS)")
        return EXIT_CHECK_FAILED
    error = darboux_reconstruction_error(form, frame)
    payload = {
        "command": "darboux",
        "n": cfg.n,
        "seed": cfg.seed,
        "form_source": cfg.form_source,
        "frame": frame.basis.tolist(),
        "nu": frame.nu.tolist(),
        "reconstruction_max_error": error,
    }
    _write_json(out / "darboux.json", payload)
    ok = error < 1e-8
    _say(quiet, f"darboux: reconstruction error {error:.3e} -> {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_symbol(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    if cfg.symbol_xi is not None:
        covectors = [np.asarray(cfg.symbol_xi, dtype=float)]
        if float(np.hypot(*cfg.symbol_xi)) == 0.0:
            raise ConfigError("symbol.xi must be a nonzero covector")
        angles = [float(np.arctan2(cfg.symbol_xi[1], cfg.symbol_xi[0]))]
    else:
        angles = [2.0 * np.pi * k / cfg.symbol_angles for k in range(cfg.symbol_angles)]
        covectors = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    rows = []
    ok = True
    for angle, xi in zip(angles, covectors):
        ddw = principal_symbol("DDW", xi, cfg.n)
        bridges = principal_symbol("Bridges", xi, cfg.n)
        ok = ok and bridges.kernel_dim == 0 and ddw.kernel_dim >= 1
        rows.append((angle, ddw.kernel_dim, bridges.kernel_dim, bridges.determinant))
    path = out / "symbol.csv"
    with open(path, "w", newline="") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        writer.writerow(["angle", "ddw_kernel_dim", "bridges_kernel_dim", "bridges_det"])
        for angle, dk, bk, det in rows:
            writer.writerow([repr(angle), dk, bk, repr(det)])
    _say(quiet, f"symbol: {len(rows)} covectors -> {path} ({'pass' if ok else 'FAIL'})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _initial_state(cfg: ExperimentConfig) -> FieldState:
    if cfg.initial_mode == "random_smooth":
        rng = np.random.default_rng(cfg.seed)
        return random_smooth_state(cfg.grid, cfg.n, cfg.initial_amplitude, rng)
    if cfg.initial_mode == "constant":
        values = np.full((cfg.grid.n1, cfg.grid.n2, 4 * cfg.n), cfg.initial_value)
        return FieldState(cfg.grid, values)
    if cfg.initial_path is None:
        raise ConfigError("initial mode 'file' requires flow.initial.path")
    state = read_state(cfg.initial_path)
    if state.grid != cfg.grid or state.n != cfg.n:
        raise ConfigError("initial state file does not match the configured grid and n")
    return state


def cmd_flow(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    ham = make_hamiltonian(cfg.ham_name, cfg.n, cfg.ham_parameters, cfg.gradient_scale)
    triple = standard_triple(cfg.n)
    ds = cfg.flow_ds
    if ds is None:
        from .flow import STABILITY_KAPPA

        ds = 0.5 * STABILITY_KAPPA[cfg.flow_integrator] * min(cfg.grid.h1, cfg.grid.h2)
    flow_cfg = FlowConfig(
        ds=ds,
        max_steps=cfg.flow_max_steps,
        grad_tolerance=cfg.flow_tolerance,
        integrator=cfg.flow_integrator,
        record_every=cfg.flow_record_every,
    )
    flow_cfg.check_stability(cfg.grid)
    initial = _initial_state(cfg)

    diverged_step = None
    try:
        trace = run_flow(initial, ham, triple, flow_cfg)
    except FlowDivergenceError as err:
        trace = err.trace
        diverged_step = err.step

    if trace is not None:
        write_trace_csv(trace, out / "flow_trace.csv")
        write_state(trace.final_state, out / "flow_final.crms")
    residual = None
    fueter = None
    if trace is not None and diverged_step is None:
        residual = float(np.max(np.abs(bridges_residual(trace.final_state, ham))))
        if len(trace.states) >= 3:
            fueter = fueter_residual(trace.states, flow_cfg.ds * trace.record_stride, ham, triple)
    payload = {
        "command": "flow",
        "n": cfg.n,
        "seed": cfg.seed,
        "hamiltonian": cfg.ham_name,
        "integrator": cfg.flow_integrator,
        "ds": ds,
        "steps_taken": 0 if trace is None else int(len(trace.steps) - 1),
        "converged": bool(trace.converged) if trace is not None else False,
        "diverged_at_step": diverged_step,
        "final_action": float(trace.actions[-1]) if trace is not None and len(trace.steps) else None,
        "final_grad_sup_norm": float(trace.grad_norms[-1]) if trace is not None and len(trace.steps) else None,
        "final_bridges_residual_sup_norm": residual,
        "fueter_residual": fueter,
    }
    _write_json(out / "flow_summary.json", payload)
    if diverged_step is not None:
        _say(quiet, f"flow: diverged at step {diverged_step}")
        return EXIT_DIVERGED
    _say(
        quiet,
        f"flow: {'converged' if trace.converged else 'max steps reached'} "
        f"after {len(trace.steps) - 1} steps, grad sup {trace.grad_norms[-1]:.3e}",
    )
    return EXIT_OK if trace.converged else EXIT_CHECK_FAILED


# Central-difference steps of the gradient check, coarsest first.
RICHARDSON_STEPS = (1e-2, 1e-3, 1e-4)


def _richardson_directional(state: FieldState, ham, delta: np.ndarray) -> float:
    # Central differences Richardson-extrapolated twice; the levels balance
    # truncation against subtraction noise in the action values.
    d = []
    for eps in RICHARDSON_STEPS:
        plus = action(state.with_values(state.values + eps * delta), ham)
        minus = action(state.with_values(state.values - eps * delta), ham)
        d.append((plus - minus) / (2.0 * eps))
    r1 = [(100.0 * d[i + 1] - d[i]) / 99.0 for i in range(2)]
    return (10_000.0 * r1[1] - r1[0]) / 9_999.0


def cmd_gradcheck(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    ham = make_hamiltonian(cfg.ham_name, cfg.n, cfg.ham_parameters, cfg.gradient_scale)
    triple = standard_triple(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    state = random_smooth_state(cfg.grid, cfg.n, 0.5, rng)
    grad = l2_gradient(state, ham, triple)
    # Each action value carries a roundoff error of about u |A|, which the
    # finest difference divides by its step: a direction with a tiny pairing
    # can miss a purely relative bound on roundoff alone.
    floor = np.finfo(float).eps * abs(action(state, ham)) / RICHARDSON_STEPS[-1]
    errors = []
    ratios = []
    for _ in range(cfg.gradcheck_directions):
        delta = rng.normal(size=state.values.shape)
        pairing = float(cfg.grid.cell_area * np.sum(grad * delta))
        err = abs(pairing - _richardson_directional(state, ham, delta))
        errors.append(err / (abs(pairing) + 1e-30))
        ratios.append(err / (1e-6 * abs(pairing) + floor))
    max_err = float(np.max(errors))
    max_ratio = float(np.max(ratios))
    payload = {
        "command": "gradcheck",
        "n": cfg.n,
        "seed": cfg.seed,
        "hamiltonian": cfg.ham_name,
        "gradient_scale": cfg.gradient_scale,
        "directions": cfg.gradcheck_directions,
        "max_relative_error": max_err,
        "max_error_to_bound": max_ratio,
        "relative_errors": errors,
    }
    _write_json(out / "gradcheck.json", payload)
    ok = max_ratio <= 1.0
    _say(
        quiet,
        f"gradcheck: max relative error {max_err:.3e}, max error / bound {max_ratio:.3e}"
        f" -> {'pass' if ok else 'FAIL'}",
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


COMMANDS = {
    "validate": cmd_validate,
    "darboux": cmd_darboux,
    "symbol": cmd_symbol,
    "flow": cmd_flow,
    "gradcheck": cmd_gradcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crms", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=str, default=None, help="override the output directory")
    parser.add_argument("--grid", type=str, default=None, help="override the grid size, e.g. 32x32")
    parser.add_argument("--quiet", action="store_true", help="suppress the one-line summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            try:
                raw = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as err:
                raise ConfigError(f"cannot read config: {err}") from None
        cfg = parse_config(raw, args.command)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        if args.grid is not None:
            try:
                n1_str, n2_str = args.grid.lower().split("x")
                cfg.grid = TorusGrid(int(n1_str), int(n2_str), cfg.grid.l1, cfg.grid.l2)
            except ValueError as err:
                raise ConfigError(f"bad --grid value '{args.grid}': {err}") from None
        _check_size(cfg, args.command)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out, args.quiet)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FlowDivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except CrmsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
