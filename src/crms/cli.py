"""Command-line harness: reproducible experiments from a single JSON config.

Verbs: validate | darboux | symbol | flow | gradcheck.  The flags --seed,
--out and --grid N1xN2 are written into the config entries seed, output_dir
and grid.n1/grid.n2 before the config is parsed; --quiet drops the summary.
Exit codes: 0 success, 1 check failure, 2 config/usage error, 3 runtime
divergence.  All outputs are deterministic functions of (config, seed)
apart from the timestamp field in JSON reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .darboux import crms_darboux
from .errors import ConfigError, CrmsError, CrmsValidationError, FlowDivergenceError
from .fields import (
    BUILTIN_HAMILTONIANS,
    FieldState,
    TorusGrid,
    bridges_residual,
    gradient_check,
    make_hamiltonian,
    read_state,
    write_state,
)
from .flow import INTEGRATORS, FlowConfig, fueter_residual, run_flow, stability_bound, write_trace_csv
from .linalg import _number, standard_complex_structure, standard_crms_form, validate_crms
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
# Each injection breaks the form the configured source built.
FORM_INJECTIONS = {
    "vertical_triple": inject_vertical_triple,
    "drop_block": drop_quadruple_block,
    "break_compatibility": break_i_compatibility,
}
INITIAL_MODES = ("random_smooth", "constant", "file")

# Float entries a run may hold in its largest array, or for flow in its kept
# trajectory (2 GiB).  Larger n, grids or trajectories are config errors,
# reported before anything is allocated.
MAX_ARRAY_ENTRIES = 2**28


def _expect(mapping: dict, key: str, kind, default):
    value = mapping.get(key, default)
    if value is None and default is None:  # null stands for an absent optional entry
        return None
    checked = (value if isinstance(value, str) else None) if kind is str else _number(value, kind)
    if checked is None or kind is float and not math.isfinite(checked):
        expected = "a finite number" if kind is float else kind.__name__
        raise ConfigError(f"config field '{key}' must be {expected}, got {type(value).__name__}")
    return checked


def _section(mapping: dict, path: str, keys: tuple[str, ...]) -> dict:
    """The object under the last name of ``path`` in mapping, {} when absent.

    Raises ConfigError unless it is an object with no keys outside ``keys``.
    """
    section = mapping.get(path.rpartition(".")[2], {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{path}' must be an object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in '{path}': {sorted(unknown)}")
    return section


@dataclass
class ExperimentConfig:
    n: int = 1
    seed: int = 0
    output_dir: str = "crms_out"
    grid: TorusGrid = field(default_factory=lambda: TorusGrid(32, 32))
    ham_name: str = "quadratic"
    ham_lambda: float = 1.0
    flow: FlowConfig | None = None  # parse_config builds it for the final grid
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

    # Each absent entry keeps the ExperimentConfig default.
    cfg = ExperimentConfig()
    cfg.n = _expect(raw, "n", int, cfg.n)
    if cfg.n < 1:
        raise ConfigError("n must be at least 1")
    cfg.seed = _expect(raw, "seed", int, cfg.seed)
    if cfg.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    cfg.output_dir = _expect(raw, "output_dir", str, cfg.output_dir)

    grid = _section(raw, "grid", ("n1", "n2", "l1", "l2"))
    try:
        cfg.grid = TorusGrid(
            n1=_expect(grid, "n1", int, cfg.grid.n1),
            n2=_expect(grid, "n2", int, cfg.grid.n2),
            l1=_expect(grid, "l1", float, cfg.grid.l1),
            l2=_expect(grid, "l2", float, cfg.grid.l2),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None

    ham = _section(raw, "hamiltonian", ("name", "parameters"))
    cfg.ham_name = _expect(ham, "name", str, cfg.ham_name)
    if cfg.ham_name not in BUILTIN_HAMILTONIANS:
        raise ConfigError(f"unknown Hamiltonian '{cfg.ham_name}'; built-ins: {BUILTIN_HAMILTONIANS}")
    params = _section(ham, "hamiltonian.parameters", ("lambda",))
    cfg.ham_lambda = _expect(params, "lambda", float, cfg.ham_lambda)

    flow = _section(raw, "flow", ("ds", "max_steps", "tolerance", "integrator", "record_every", "initial"))
    integrator = _expect(flow, "integrator", str, FlowConfig.integrator)
    if integrator not in INTEGRATORS:
        raise ConfigError(f"flow integrator must be one of {INTEGRATORS}")
    ds = _expect(flow, "ds", float, None)
    if ds is None:
        ds = 0.5 * stability_bound(integrator, cfg.grid)
    max_steps = _expect(flow, "max_steps", int, 10000)
    cfg.flow = FlowConfig(
        ds=ds,
        max_steps=max_steps,
        grad_tolerance=_expect(flow, "tolerance", float, FlowConfig.grad_tolerance),
        integrator=integrator,
        record_every=_expect(flow, "record_every", int, max(1, max_steps // 100)),
    )
    cfg.flow.check_stability(cfg.grid)
    initial = _section(flow, "flow.initial", ("mode", "amplitude", "value", "path"))
    cfg.initial_mode = _expect(initial, "mode", str, cfg.initial_mode)
    if cfg.initial_mode not in INITIAL_MODES:
        raise ConfigError(f"initial mode must be one of {INITIAL_MODES}")
    cfg.initial_amplitude = _expect(initial, "amplitude", float, cfg.initial_amplitude)
    cfg.initial_value = _expect(initial, "value", float, cfg.initial_value)
    cfg.initial_path = _expect(initial, "path", str, cfg.initial_path)

    form = _section(raw, "form", ("source", "inject", "nu_scale"))
    cfg.form_source = _expect(form, "source", str, cfg.form_source)
    if cfg.form_source not in FORM_SOURCES:
        raise ConfigError(f"form source must be one of {FORM_SOURCES}")
    cfg.form_inject = _expect(form, "inject", str, cfg.form_inject)
    if cfg.form_inject is not None and cfg.form_inject not in FORM_INJECTIONS:
        raise ConfigError(f"form injection must be one of {tuple(FORM_INJECTIONS)}")
    cfg.form_nu_scale = _expect(form, "nu_scale", float, cfg.form_nu_scale)

    symbol = _section(raw, "symbol", ("angles", "xi"))
    cfg.symbol_angles = _expect(symbol, "angles", int, cfg.symbol_angles)
    if cfg.symbol_angles < 1:
        raise ConfigError("symbol.angles must be positive")
    xi = symbol.get("xi")
    if xi is not None:
        xi = tuple(_number(x, float) for x in xi) if isinstance(xi, list) else ()
        if len(xi) != 2 or None in xi or not all(map(math.isfinite, xi)):
            raise ConfigError("symbol.xi must be a 2-element list of finite numbers")
        cfg.symbol_xi = xi

    gradcheck = _section(raw, "gradcheck", ("directions",))
    cfg.gradcheck_directions = _expect(gradcheck, "directions", int, cfg.gradcheck_directions)
    if cfg.gradcheck_directions < 1:
        raise ConfigError("gradcheck.directions must be positive")
    return cfg


def _check_size(cfg: ExperimentConfig, command: str) -> None:
    """Reject an n, grid or flow length that needs more than MAX_ARRAY_ENTRIES.

    What is counted depends on the verb: the d^3 3-form (d = 4n + 2) of
    validate and darboux; for symbol the (4n)^2 symbol matrix or, per
    covector, its angle, its two components and its four-field row; for
    gradcheck the (4n)^2 fiber forms, one complex n1 x n2 x 4n field (two
    floats an entry) or the two floats kept per direction; and for flow the forms or the
    max_steps // record_every + 1 states run_flow keeps, each a field and its gradient.
    """
    d = 4 * cfg.n
    field_entries = cfg.grid.n1 * cfg.grid.n2 * d
    if command in ("validate", "darboux"):
        largest = (d + 2) ** 3
    elif command == "symbol":
        largest = max(d * d, 7 * (1 if cfg.symbol_xi is not None else cfg.symbol_angles))
    elif command == "flow":
        largest = max(d * d, 2 * (cfg.flow.max_steps // cfg.flow.record_every + 1) * field_entries)
    else:
        largest = max(d * d, 2 * field_entries, 2 * cfg.gradcheck_directions)
    if largest > MAX_ARRAY_ENTRIES:
        raise ConfigError(
            f"{command} with n = {cfg.n} and grid {cfg.grid.n1}x{cfg.grid.n2} needs"
            f" {largest} float entries; at most {MAX_ARRAY_ENTRIES} are allowed"
        )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _output(out: Path, name: str) -> Path:
    """Path of an output file, making the directory on the first write.

    Verbs call it only after their own config checks, so a config error
    leaves no output directory behind.  An output path that cannot be made
    a directory is a config error.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot make output directory: {err}") from None
    return out / name


def _write_report(out: Path, name: str, command: str, cfg: ExperimentConfig, **fields) -> Path:
    """Write the JSON report ``name``: the run header, ``fields`` and a timestamp, as strict JSON."""
    path = _output(out, name)
    timestamp = datetime.now(timezone.utc).isoformat()
    payload = {"command": command, "n": cfg.n, "seed": cfg.seed, **fields, "timestamp": timestamp}
    # One line: without indent, json runs its C encoder.
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:  # strict JSON has no NaN or Infinity: write each, at any depth, as null
        text = json.dumps(json.loads(json.dumps(payload), parse_constant=lambda _: None), sort_keys=True)
    path.write_text(text + "\n")
    return path


def _build_form(cfg: ExperimentConfig):
    """The configured form and structure; a non-finite form (a nu_scale that overflows nu) is a config error."""
    rng = np.random.default_rng(cfg.seed)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.form_source == "standard":
                form = standard_crms_form(cfg.n)
                structure = standard_complex_structure(cfg.n)
            elif cfg.form_source == "standard_plus_nu":
                nu = rng.normal(size=4 * cfg.n) * cfg.form_nu_scale
                form = standard_crms_form(cfg.n, nu=nu)
                structure = standard_complex_structure(cfg.n)
            else:
                form, structure = random_crms_form(cfg.n, rng, nu_scale=cfg.form_nu_scale)
            if cfg.form_inject is not None:
                form = FORM_INJECTIONS[cfg.form_inject](form)
    except ValueError as err:
        raise ConfigError(f"form with nu_scale {cfg.form_nu_scale!r}: {err}") from None
    return form, structure


def _form_names(cfg: ExperimentConfig) -> dict:
    """The report fields that name the configured form."""
    return {"form_source": cfg.form_source, "form_inject": cfg.form_inject}


# ---------------------------------------------------------------------------
# commands: each returns its exit code and the one-line summary main prints
# ---------------------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig, out: Path) -> tuple[int, str]:
    form, structure = _build_form(cfg)
    report = validate_crms(form, structure)
    path = _write_report(out, "validate.json", "validate", cfg, **_form_names(cfg), report=report.as_dict())
    ok = report.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED, f"validate: {'pass' if ok else 'FAIL'} -> {path}"


def cmd_darboux(cfg: ExperimentConfig, out: Path) -> tuple[int, str]:
    form, structure = _build_form(cfg)
    try:
        frame = crms_darboux(form, structure)
    except CrmsValidationError as err:
        report = err.report.as_dict() if err.report is not None else None
        _write_report(
            out, "darboux.json", "darboux", cfg, **_form_names(cfg), error="validation failed", report=report
        )
        return EXIT_CHECK_FAILED, "darboux: FAIL (input form is not CRMS)"
    error = frame.reconstruction_error
    _write_report(
        out, "darboux.json", "darboux", cfg, **_form_names(cfg),
        frame=frame.basis.tolist(), nu=frame.nu.tolist(), reconstruction_max_error=error,
    )
    ok = error < 1e-8
    summary = f"darboux: reconstruction error {error:.3e} -> {'pass' if ok else 'FAIL'}"
    return EXIT_OK if ok else EXIT_CHECK_FAILED, summary


def cmd_symbol(cfg: ExperimentConfig, out: Path) -> tuple[int, str]:
    if cfg.symbol_xi is not None:
        covectors = [np.asarray(cfg.symbol_xi, dtype=float)]
        radius = math.hypot(*cfg.symbol_xi)  # inf when |xi| overflows
        if radius == 0.0:
            raise ConfigError("symbol.xi must be a nonzero covector")
        # The Bridges determinant |xi|^(4n) must be a normal double; checked in log space.
        if not math.log(sys.float_info.min) <= 4 * cfg.n * math.log(radius) <= math.log(sys.float_info.max):
            raise ConfigError(f"symbol.xi {list(cfg.symbol_xi)}: |xi|^(4n) is not a finite normal double")
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
    path = _output(out, "symbol.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle", "ddw_kernel_dim", "bridges_kernel_dim", "bridges_det"])
        for angle, dk, bk, det in rows:
            writer.writerow([repr(angle), dk, bk, repr(det)])
    summary = f"symbol: {len(rows)} covectors -> {path} ({'pass' if ok else 'FAIL'})"
    return EXIT_OK if ok else EXIT_CHECK_FAILED, summary


def _smooth_state(cfg: ExperimentConfig, amplitude: float, rng: np.random.Generator) -> FieldState:
    """The seeded smooth field; one that is not finite (its mode table overflowed) is a config error."""
    try:
        return random_smooth_state(cfg.grid, cfg.n, amplitude, rng)
    except ValueError as err:
        raise ConfigError(f"seeded field on periods ({cfg.grid.l1!r}, {cfg.grid.l2!r}): {err}") from None


def _initial_state(cfg: ExperimentConfig) -> FieldState:
    if cfg.initial_mode == "random_smooth":
        return _smooth_state(cfg, cfg.initial_amplitude, np.random.default_rng(cfg.seed))
    if cfg.initial_mode == "constant":
        values = np.full((cfg.grid.n1, cfg.grid.n2, 4 * cfg.n), cfg.initial_value)
        return FieldState(cfg.grid, values)
    if cfg.initial_path is None:
        raise ConfigError("initial mode 'file' requires flow.initial.path")
    try:
        state = read_state(cfg.initial_path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read initial state: {err}") from None
    if state.grid != cfg.grid or state.n != cfg.n:
        raise ConfigError("initial state file does not match the configured grid and n")
    return state


def _hamiltonian(cfg: ExperimentConfig):
    """The configured Hamiltonian; one that fails its construction check is a config error."""
    try:
        return make_hamiltonian(cfg.ham_name, cfg.n, cfg.ham_lambda)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def cmd_flow(cfg: ExperimentConfig, out: Path) -> tuple[int, str]:
    ham = _hamiltonian(cfg)
    initial = _initial_state(cfg)
    # An unusable output path fails here, before the flow runs.
    trace_path, final_path = _output(out, "flow_trace.csv"), _output(out, "flow_final.crms")

    diverged_step = None
    try:
        trace = run_flow(initial, ham, cfg.flow)
    except FlowDivergenceError as err:
        trace = err.trace
        diverged_step = err.step

    # run_flow attaches the partial trace to every FlowDivergenceError.
    write_trace_csv(trace, trace_path)
    write_state(trace.final_state, final_path)
    residual = None
    fueter = None
    if diverged_step is None:
        residual = float(np.max(np.abs(bridges_residual(trace.final_state, ham))))
        if len(trace.states) >= 3:
            fueter = fueter_residual(trace.states, cfg.flow, trace.gradients)
    _write_report(
        out, "flow_summary.json", "flow", cfg,
        hamiltonian=cfg.ham_name,
        integrator=cfg.flow.integrator,
        ds=cfg.flow.ds,
        # A divergence in the step-0 diagnostics leaves no trace row.
        steps_taken=max(0, len(trace.steps) - 1),
        converged=trace.converged,
        diverged_at_step=diverged_step,
        final_action=float(trace.actions[-1]) if len(trace.steps) else None,
        final_grad_sup_norm=float(trace.grad_norms[-1]) if len(trace.steps) else None,
        final_bridges_residual_sup_norm=residual,
        fueter_residual=fueter,
    )
    if diverged_step is not None:
        return EXIT_DIVERGED, f"flow: diverged at step {diverged_step}"
    outcome = "converged" if trace.converged else "max steps reached"
    summary = f"flow: {outcome} after {len(trace.steps) - 1} steps, grad sup {trace.grad_norms[-1]:.3e}"
    return EXIT_OK if trace.converged else EXIT_CHECK_FAILED, summary


def cmd_gradcheck(cfg: ExperimentConfig, out: Path) -> tuple[int, str]:
    ham = _hamiltonian(cfg)
    rng = np.random.default_rng(cfg.seed)
    state = _smooth_state(cfg, 0.5, rng)
    deltas = (rng.normal(size=state.values.shape) for _ in range(cfg.gradcheck_directions))
    errors, ratios = gradient_check(state, ham, deltas)
    max_err = float(np.max(errors))
    max_ratio = float(np.max(ratios))
    _write_report(
        out, "gradcheck.json", "gradcheck", cfg,
        hamiltonian=cfg.ham_name,
        directions=cfg.gradcheck_directions,
        max_relative_error=max_err,
        max_error_to_bound=max_ratio,
        relative_errors=errors,
    )
    ok = max_ratio <= 1.0
    summary = f"gradcheck: max relative error {max_err:.3e}, max error / bound {max_ratio:.3e}"
    return EXIT_OK if ok else EXIT_CHECK_FAILED, f"{summary} -> {'pass' if ok else 'FAIL'}"


COMMANDS = {
    "validate": cmd_validate,
    "darboux": cmd_darboux,
    "symbol": cmd_symbol,
    "flow": cmd_flow,
    "gradcheck": cmd_gradcheck,
}


# Built once at import and shared by every main call in the process.
PARSER = argparse.ArgumentParser(prog="crms", description=__doc__)
PARSER.add_argument("command", choices=sorted(COMMANDS))
PARSER.add_argument("--config", type=str, default=None, help="path to the JSON experiment config")
PARSER.add_argument("--seed", type=int, default=None, help="the config entry seed")
PARSER.add_argument("--out", type=str, default=None, help="the config entry output_dir")
PARSER.add_argument("--grid", type=str, default=None, help="the config entries grid.n1, grid.n2 as N1xN2")
PARSER.add_argument("--quiet", action="store_true", help="suppress the one-line summary")


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            try:
                raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (OSError, ValueError, RecursionError) as err:  # ValueError: bad JSON or not UTF-8
                raise ConfigError(f"cannot read config: {err}") from None
        # The flags are config entries; --grid keeps the document's l1 and l2.
        if isinstance(raw, dict):  # parse_config rejects any other document
            for key, value in (("seed", args.seed), ("output_dir", args.out)):
                if value is not None:
                    raw[key] = value
            if args.grid is not None:
                try:
                    n1_str, n2_str = args.grid.lower().split("x")
                    n1, n2 = int(n1_str), int(n2_str)
                except ValueError as err:
                    raise ConfigError(f"bad --grid value '{args.grid}': {err}") from None
                grid = raw.setdefault("grid", {})
                if isinstance(grid, dict):  # parse_config rejects any other grid
                    grid.update(n1=n1, n2=n2)
        cfg = parse_config(raw, args.command)
        _check_size(cfg, args.command)
        code, summary = COMMANDS[args.command](cfg, Path(cfg.output_dir))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CrmsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if not args.quiet:
        print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
