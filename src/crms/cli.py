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


# Every config entry, as (kind, default).  A kind is a type or the tuple of the strings allowed; a
# nested dict is a section.  Null stands for an absent entry only where the default is None; the
# default ... marks an entry parse_config derives from others when it is absent.
SCHEMA = {
    "kind": (str, None),
    "n": (int, 1),
    "seed": (int, 0),
    "output_dir": (str, "crms_out"),
    "grid": {"n1": (int, 32), "n2": (int, 32), "l1": (float, TorusGrid.l1), "l2": (float, TorusGrid.l2)},
    "hamiltonian": {"name": (BUILTIN_HAMILTONIANS, "quadratic"), "parameters": {"lambda": (float, 1.0)}},
    "flow": {
        "ds": (float, None),
        "max_steps": (int, 10000),
        "tolerance": (float, FlowConfig.grad_tolerance),
        "integrator": (INTEGRATORS, FlowConfig.integrator),
        "record_every": (int, ...),
        "initial": {
            "mode": (INITIAL_MODES, "random_smooth"),
            "amplitude": (float, 0.1),
            "value": (float, 0.0),
            "path": (str, None),
        },
    },
    "form": {"source": (FORM_SOURCES, "standard"), "inject": (tuple(FORM_INJECTIONS), None), "nu_scale": (float, 0.5)},
    "symbol": {"angles": (int, 64), "xi": (list, None)},
    "gradcheck": {"directions": (int, 20)},
}


def _read(document: dict, schema: dict, path: str, entries: dict) -> None:
    """Check ``document``, the section at dotted ``path``, against ``schema`` into ``entries``.

    Each entry is stored under its dotted name, an absent one as its default; an entry
    that is absent or null at the default None, or absent at ..., is left out.
    """
    unknown = set(document) - set(schema)
    if unknown:
        where = f"keys in '{path}'" if path else "config keys"
        raise ConfigError(f"unknown {where}: {sorted(unknown)}")
    for key, row in schema.items():
        name = f"{path}.{key}" if path else key
        if isinstance(row, dict):
            section = document.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"'{name}' must be an object")
            _read(section, row, name, entries)
            continue
        kind, default = row
        value = document.get(key, default)
        if value is None and default is None or value is ...:
            continue
        if isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError(f"config field '{key}' must be one of {kind}, got {value!r}")
            entries[name] = value
            continue
        checked = (value if isinstance(value, kind) else None) if kind in (str, list) else _number(value, kind)
        if checked is None or kind is float and not math.isfinite(checked):
            expected = "a finite number" if kind is float else kind.__name__
            raise ConfigError(f"config field '{key}' must be {expected}, got {type(value).__name__}")
        entries[name] = checked


def parse_config(raw: dict, command: str) -> dict:
    """The checked config: each SCHEMA entry by dotted name, and the records 'grid' and 'flow' built from them."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    cfg = {}
    _read(raw, SCHEMA, "", cfg)
    if cfg.get("kind", command) != command:
        raise ConfigError(f"config kind '{cfg['kind']}' does not match command '{command}'")
    if cfg["n"] < 1:
        raise ConfigError("n must be at least 1")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer")
    if cfg["symbol.angles"] < 1:
        raise ConfigError("symbol.angles must be positive")
    if cfg["gradcheck.directions"] < 1:
        raise ConfigError("gradcheck.directions must be positive")
    try:
        cfg["grid"] = TorusGrid(cfg["grid.n1"], cfg["grid.n2"], cfg["grid.l1"], cfg["grid.l2"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    integrator, max_steps = cfg["flow.integrator"], cfg["flow.max_steps"]
    cfg["flow"] = FlowConfig(
        ds=cfg.get("flow.ds", 0.5 * stability_bound(integrator, cfg["grid"])),
        max_steps=max_steps,
        grad_tolerance=cfg["flow.tolerance"],
        integrator=integrator,
        record_every=cfg.get("flow.record_every", max(1, max_steps // 100)),
    )
    cfg["flow"].check_stability(cfg["grid"])
    if "symbol.xi" in cfg:
        xi = tuple(_number(x, float) for x in cfg["symbol.xi"])
        if len(xi) != 2 or None in xi or not all(map(math.isfinite, xi)):
            raise ConfigError("symbol.xi must be a 2-element list of finite numbers")
        cfg["symbol.xi"] = xi
    return cfg


def _check_size(cfg: dict, command: str) -> None:
    """Reject an n, grid or flow length that needs more than MAX_ARRAY_ENTRIES.

    What is counted depends on the verb: the d^3 3-form (d = 4n + 2) of
    validate and darboux; for symbol the (4n)^2 symbol matrix or, per
    covector, its angle, its two components and its four-field row; for
    gradcheck the (4n)^2 fiber forms, one complex n1 x n2 x 4n field (two
    floats an entry) or the two floats kept per direction; and for flow the forms or the
    max_steps // record_every + 1 states run_flow keeps, each a field and its gradient.
    """
    d = 4 * cfg["n"]
    field_entries = cfg["grid"].n1 * cfg["grid"].n2 * d
    if command in ("validate", "darboux"):
        largest = (d + 2) ** 3
    elif command == "symbol":
        largest = max(d * d, 7 * (1 if "symbol.xi" in cfg else cfg["symbol.angles"]))
    elif command == "flow":
        largest = max(d * d, 2 * (cfg["flow"].max_steps // cfg["flow"].record_every + 1) * field_entries)
    else:
        largest = max(d * d, 2 * field_entries, 2 * cfg["gradcheck.directions"])
    if largest > MAX_ARRAY_ENTRIES:
        raise ConfigError(
            f"{command} with n = {cfg['n']} and grid {cfg['grid'].n1}x{cfg['grid'].n2} needs"
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


def _write_report(out: Path, name: str, command: str, cfg: dict, **fields) -> Path:
    """Write the JSON report ``name``: the run header, ``fields`` and a timestamp, as strict JSON."""
    path = _output(out, name)
    timestamp = datetime.now(timezone.utc).isoformat()
    payload = {"command": command, "n": cfg["n"], "seed": cfg["seed"], **fields, "timestamp": timestamp}
    # One line: without indent, json runs its C encoder.
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:  # strict JSON has no NaN or Infinity: write each, at any depth, as null
        text = json.dumps(json.loads(json.dumps(payload), parse_constant=lambda _: None), sort_keys=True)
    path.write_text(text + "\n")
    return path


def _build_form(cfg: dict):
    """The configured form and structure; a non-finite form (a nu_scale that overflows nu) is a config error."""
    rng = np.random.default_rng(cfg["seed"])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg["form.source"] == "standard":
                form = standard_crms_form(cfg["n"])
                structure = standard_complex_structure(cfg["n"])
            elif cfg["form.source"] == "standard_plus_nu":
                nu = rng.normal(size=4 * cfg["n"]) * cfg["form.nu_scale"]
                form = standard_crms_form(cfg["n"], nu=nu)
                structure = standard_complex_structure(cfg["n"])
            else:
                form, structure = random_crms_form(cfg["n"], rng, nu_scale=cfg["form.nu_scale"])
            if "form.inject" in cfg:
                form = FORM_INJECTIONS[cfg["form.inject"]](form)
    except ValueError as err:
        raise ConfigError(f"form with nu_scale {cfg['form.nu_scale']!r}: {err}") from None
    return form, structure


def _form_names(cfg: dict) -> dict:
    """The report fields that name the configured form."""
    return {"form_source": cfg["form.source"], "form_inject": cfg.get("form.inject")}


# ---------------------------------------------------------------------------
# commands: each returns its exit code and the one-line summary main prints
# ---------------------------------------------------------------------------


def cmd_validate(cfg: dict, out: Path) -> tuple[int, str]:
    form, structure = _build_form(cfg)
    report = validate_crms(form, structure)
    path = _write_report(out, "validate.json", "validate", cfg, **_form_names(cfg), report=report.as_dict())
    ok = report.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED, f"validate: {'pass' if ok else 'FAIL'} -> {path}"


def cmd_darboux(cfg: dict, out: Path) -> tuple[int, str]:
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


def cmd_symbol(cfg: dict, out: Path) -> tuple[int, str]:
    if "symbol.xi" in cfg:
        covectors = [np.asarray(cfg["symbol.xi"], dtype=float)]
        radius = math.hypot(*cfg["symbol.xi"])  # inf when |xi| overflows
        if radius == 0.0:
            raise ConfigError("symbol.xi must be a nonzero covector")
        # The Bridges determinant |xi|^(4n) must be a normal double; checked in log space.
        if not math.log(sys.float_info.min) <= 4 * cfg["n"] * math.log(radius) <= math.log(sys.float_info.max):
            raise ConfigError(f"symbol.xi {list(cfg['symbol.xi'])}: |xi|^(4n) is not a finite normal double")
        angles = [float(np.arctan2(cfg["symbol.xi"][1], cfg["symbol.xi"][0]))]
    else:
        angles = [2.0 * np.pi * k / cfg["symbol.angles"] for k in range(cfg["symbol.angles"])]
        covectors = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    rows = []
    ok = True
    for angle, xi in zip(angles, covectors):
        ddw = principal_symbol("DDW", xi, cfg["n"])
        bridges = principal_symbol("Bridges", xi, cfg["n"])
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


def _smooth_state(cfg: dict, amplitude: float, rng: np.random.Generator) -> FieldState:
    """The seeded smooth field; one that is not finite (its mode table overflowed) is a config error."""
    try:
        return random_smooth_state(cfg["grid"], cfg["n"], amplitude, rng)
    except ValueError as err:
        raise ConfigError(f"seeded field on periods ({cfg['grid'].l1!r}, {cfg['grid'].l2!r}): {err}") from None


def _initial_state(cfg: dict) -> FieldState:
    if cfg["flow.initial.mode"] == "random_smooth":
        return _smooth_state(cfg, cfg["flow.initial.amplitude"], np.random.default_rng(cfg["seed"]))
    if cfg["flow.initial.mode"] == "constant":
        values = np.full((cfg["grid"].n1, cfg["grid"].n2, 4 * cfg["n"]), cfg["flow.initial.value"])
        return FieldState(cfg["grid"], values)
    if "flow.initial.path" not in cfg:
        raise ConfigError("initial mode 'file' requires flow.initial.path")
    try:
        state = read_state(cfg["flow.initial.path"])
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read initial state: {err}") from None
    if state.grid != cfg["grid"] or state.n != cfg["n"]:
        raise ConfigError("initial state file does not match the configured grid and n")
    return state


def _hamiltonian(cfg: dict):
    """The configured Hamiltonian; one that fails its construction check is a config error."""
    try:
        return make_hamiltonian(cfg["hamiltonian.name"], cfg["n"], cfg["hamiltonian.parameters.lambda"])
    except ValueError as err:
        raise ConfigError(str(err)) from None


def cmd_flow(cfg: dict, out: Path) -> tuple[int, str]:
    ham = _hamiltonian(cfg)
    initial = _initial_state(cfg)
    # An unusable output path fails here, before the flow runs.
    trace_path, final_path = _output(out, "flow_trace.csv"), _output(out, "flow_final.crms")

    diverged_step = None
    try:
        trace = run_flow(initial, ham, cfg["flow"])
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
            fueter = fueter_residual(trace.states, cfg["flow"], trace.gradients)
    _write_report(
        out, "flow_summary.json", "flow", cfg,
        hamiltonian=cfg["hamiltonian.name"],
        integrator=cfg["flow"].integrator,
        ds=cfg["flow"].ds,
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


def cmd_gradcheck(cfg: dict, out: Path) -> tuple[int, str]:
    ham = _hamiltonian(cfg)
    rng = np.random.default_rng(cfg["seed"])
    state = _smooth_state(cfg, 0.5, rng)
    deltas = (rng.normal(size=state.values.shape) for _ in range(cfg["gradcheck.directions"]))
    errors, ratios = gradient_check(state, ham, deltas)
    max_err = float(np.max(errors))
    max_ratio = float(np.max(ratios))
    _write_report(
        out, "gradcheck.json", "gradcheck", cfg,
        hamiltonian=cfg["hamiltonian.name"],
        directions=cfg["gradcheck.directions"],
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
        code, summary = COMMANDS[args.command](cfg, Path(cfg["output_dir"]))
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
