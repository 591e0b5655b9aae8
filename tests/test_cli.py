"""Exit-code contract and artifact emission of the command-line harness."""

import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crms
import crms.cli
import crms.darboux
import crms.fields
import crms.linalg
from crms.cli import COMMANDS, ExperimentConfig, _check_size, main, parse_config
from crms.errors import ConfigError
from crms.fields import FieldState, TorusGrid, read_state, write_state
from crms.flow import FlowConfig
from crms.linalg import validate_crms
from crms.sampling import break_i_compatibility, drop_quadruple_block, random_crms_form
from oracles import checked_scaled_gradient, with_scaled_gradient


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    # A config without output_dir writes to ./crms_out; keep it under tmp_path.
    monkeypatch.chdir(tmp_path)


def run_cli(tmp_path, command: str, config: dict, *extra: str, quiet: bool = True) -> tuple[int, dict]:
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg_path), *(["--quiet"] if quiet else []), *extra])
    return code, config


def read_json(path):
    return json.loads(path.read_text())


# --- validate ----------------------------------------------------------------


def test_validate_standard_passes(tmp_path):
    out = tmp_path / "out"
    code, _ = run_cli(tmp_path, "validate", {"n": 2, "output_dir": str(out)})
    assert code == 0
    report = read_json(out / "validate.json")["report"]
    assert report["passed"] is True


def test_validate_injected_triple_fails_with_witness(tmp_path):
    out = tmp_path / "out"
    cfg = {"n": 1, "output_dir": str(out), "form": {"source": "standard", "inject": "vertical_triple"}}
    code, _ = run_cli(tmp_path, "validate", cfg)
    assert code == 1
    report = read_json(out / "validate.json")["report"]
    assert report["one_horizontal"]["ok"] is False
    assert sorted(report["one_horizontal"]["witness"]["triple"]) == [2, 3, 4]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "inject, injection",
    [("drop_block", drop_quadruple_block), ("break_compatibility", break_i_compatibility)],
    ids=["drop_block", "break_compatibility"],
)
def test_injection_breaks_the_configured_form(tmp_path, n, inject, injection):
    out = tmp_path / "out"
    form = {"source": "seeded_random_conjugate", "inject": inject}
    assert run_cli(tmp_path, "validate", {"n": n, "seed": 3, "output_dir": str(out), "form": form})[0] == 1
    configured, structure = random_crms_form(n, np.random.default_rng(3), nu_scale=0.5)
    expected = validate_crms(injection(configured), structure).as_dict()
    # The report holds each non-finite float of the check (NaN, Infinity) as null.
    expected = json.loads(json.dumps(expected), parse_constant=lambda token: None)
    assert read_json(out / "validate.json")["report"] == expected


def test_validate_random_conjugate_passes(tmp_path):
    out = tmp_path / "out"
    cfg = {"n": 2, "seed": 5, "output_dir": str(out), "form": {"source": "seeded_random_conjugate"}}
    code, _ = run_cli(tmp_path, "validate", cfg)
    assert code == 0


def test_malformed_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad), "--quiet"]) == 2


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe" + '{"n": 1}'.encode("utf-16-le"), b"[" * 100_000 + b"]" * 100_000],
    ids=["not_utf8", "nested_100000_deep"],
)
def test_undecodable_config_is_a_usage_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["validate", "--config", str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_unknown_config_key_is_a_usage_error(tmp_path):
    assert run_cli(tmp_path, "validate", {"grids": {}})[0] == 2


def test_kind_mismatch_is_a_usage_error(tmp_path):
    assert run_cli(tmp_path, "validate", {"kind": "flow"})[0] == 2


@pytest.mark.parametrize(
    "config",
    [
        {"n": True},
        {"flow": {"ds": float("nan")}},
        {"grid": {"l1": float("inf")}},
        {"flow": {"ds": 10**400}},
        {"hamiltonian": {"parameters": {"lambda": float("nan")}}},
        {"gradcheck": {"directions": 0}},
        {"flow": {"record_every": 0}},
        {"flow": {"integrator": "rk5"}},
        {"n": None},
        {"flow": {"tolerance": None}},
        # Cell areas h1 h2 of 0 and inf leave the L² product undefined.
        {"grid": {"l1": 1e-170, "l2": 1e-170}},
        {"grid": {"l1": 1.7e308, "l2": 1.7e308}},
    ],
)
def test_bad_config_values_are_usage_errors(tmp_path, capsys, config):
    # json.dumps writes bool, nan and inf as true, NaN and Infinity, which
    # json.loads reads back; 10**400 is an int no float can hold.
    assert run_cli(tmp_path, "flow", {"output_dir": str(tmp_path / "out"), **config})[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, path, config",
    [
        ("flow", "grid", {"grid": {"n1": 16, "n_2": 16}}),
        ("flow", "hamiltonian", {"hamiltonian": {"nmae": "cosine"}}),
        ("flow", "hamiltonian.parameters", {"hamiltonian": {"parameters": {"lamda": 3}}}),
        ("flow", "flow", {"n": 1, "grid": {"n1": 16, "n2": 16}, "flow": {"max_step": 3, "integrator": "rk4"}}),
        ("flow", "flow.initial", {"flow": {"initial": {"mode": "constant", "vaule": 0.5}}}),
        ("validate", "form", {"form": {"sources": "standard"}}),
        ("symbol", "symbol", {"symbol": {"angle": 8}}),
        ("gradcheck", "gradcheck", {"gradcheck": {"direction": 2}}),
        ("gradcheck", "hamiltonian", {"hamiltonian": {"gradient_scale": 1.0}}),
    ],
)
def test_misspelled_section_keys_are_usage_errors(tmp_path, capsys, command, path, config):
    # Were the flow case's max_step ignored, the run would take the default
    # 10000 steps and diverge (exit 3).
    out = tmp_path / "out"
    assert run_cli(tmp_path, command, {"output_dir": str(out), **config})[0] == 2
    assert f"'{path}'" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("lam", ["x", None, True, float("nan")], ids=["str", "null", "bool", "nan"])
@pytest.mark.parametrize("command", ["flow", "gradcheck", "validate"])
def test_bad_lambda_is_a_usage_error_naming_the_entry(tmp_path, capsys, command, lam):
    # lambda is read like every other number; null is a bad value, not an absent entry.
    out = tmp_path / "out"
    cfg = {"output_dir": str(out), "hamiltonian": {"parameters": {"lambda": lam}}}
    assert run_cli(tmp_path, command, cfg)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'lambda' must be a finite number, got ")
    assert err.count("\n") == 1
    assert not out.exists()

@pytest.mark.parametrize(
    "command, config, extra",
    [
        ("symbol", {"n": 100_000_000_000}, ()),
        ("flow", {}, ("--grid", "100000000x100000000")),
        # 10001 kept 256^2 x 8 states and their gradients: 1.05e10 entries (84 GB), one field only 5.2e5.
        ("flow", {"n": 2, "flow": {"max_steps": 10000, "record_every": 1}}, ("--grid", "256x256")),
    ],
)
def test_sizes_too_large_to_allocate_are_usage_errors(tmp_path, capsys, monkeypatch, command, config, extra):
    # Were the bound missing, the flow would fail here instead of allocating.
    monkeypatch.setattr(crms.cli, "run_flow", lambda *args: pytest.fail("the flow started"))
    out = tmp_path / "out"
    assert run_cli(tmp_path, command, {"output_dir": str(out), **config}, *extra)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


def test_size_bound_depends_on_the_verb(tmp_path):
    # n = 200 needs an 802^3 3-form (4 GiB) for validate, but only 800^2
    # matrices for symbol.  The check is called directly so that a missing
    # bound fails here instead of allocating the 3-form.
    with pytest.raises(ConfigError, match="validate"):
        _check_size(parse_config({"n": 200}, "validate"), "validate")
    cfg = {"n": 200, "output_dir": str(tmp_path / "out"), "symbol": {"xi": [1.0, 0.0]}}
    assert run_cli(tmp_path, "symbol", cfg)[0] == 0
    # The default record_every keeps 101 of 10000 steps and their gradients: 1.06e8 entries at 256^2, n = 2.
    _check_size(parse_config({"n": 2, "grid": {"n1": 256, "n2": 256}}, "flow"), "flow")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_absent_config_entries_take_the_dataclass_defaults(command):
    parsed, default = parse_config({}, command), ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        if f.name != "flow":
            assert getattr(parsed, f.name) == getattr(default, f.name), f.name
    # The flow takes FlowConfig's tolerance and integrator, 10000 steps, half
    # the Euler stability bound on the default grid as its step, and one kept
    # state per 1% of max_steps.
    h = min(default.grid.h1, default.grid.h2)
    assert parsed.flow == FlowConfig(ds=0.5 * 0.2 * h, max_steps=10000, record_every=100)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize(
    "flow",
    [{"record_every": 0}, {"max_steps": -1}, {"ds": 1.0}],
    ids=["record_every", "max_steps", "ds_over_bound"],
)
def test_a_flow_section_that_flow_config_rejects_is_a_usage_error_for_every_verb(tmp_path, capsys, command, flow):
    # ds = 1 exceeds the Euler bound 0.2 * 2 pi / 32 on the default grid.
    out = tmp_path / "out"
    assert run_cli(tmp_path, command, {"output_dir": str(out), "flow": flow})[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not out.exists()


# --- darboux -----------------------------------------------------------------


def test_darboux_standard(tmp_path):
    out = tmp_path / "out"
    code, _ = run_cli(tmp_path, "darboux", {"n": 1, "output_dir": str(out)})
    assert code == 0
    payload = read_json(out / "darboux.json")
    assert payload["reconstruction_max_error"] < 1e-8
    assert np.allclose(np.array(payload["frame"]), np.eye(6))


def test_darboux_random_conjugate(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 3,
        "seed": 13,
        "output_dir": str(out),
        "form": {"source": "seeded_random_conjugate", "nu_scale": 1.0},
    }
    code, _ = run_cli(tmp_path, "darboux", cfg)
    assert code == 0
    assert read_json(out / "darboux.json")["reconstruction_max_error"] < 1e-8


def test_darboux_rejects_invalid_form(tmp_path):
    out = tmp_path / "out"
    cfg = {"n": 1, "output_dir": str(out), "form": {"source": "standard", "inject": "vertical_triple"}}
    code, _ = run_cli(tmp_path, "darboux", cfg)
    assert code == 1
    payload = read_json(out / "darboux.json")
    assert payload["error"] == "validation failed"
    assert payload["form_source"] == "standard" and payload["form_inject"] == "vertical_triple"


@pytest.mark.parametrize("source", ["standard_plus_nu", "seeded_random_conjugate"])
def test_large_nu_does_not_hide_a_broken_form(tmp_path, source):
    # nu entries of 1e10 set no tolerance: the 0.5 I-compatibility defect fails.
    form = {"source": source, "nu_scale": 1e10, "inject": "break_compatibility"}
    out = tmp_path / "out"
    assert run_cli(tmp_path, "validate", {"n": 2, "output_dir": str(out), "form": form})[0] == 1
    assert read_json(out / "validate.json")["report"]["i_compatible"]["ok"] is False
    assert run_cli(tmp_path, "darboux", {"n": 2, "output_dir": str(out), "form": form})[0] == 1
    assert read_json(out / "darboux.json")["error"] == "validation failed"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("source", ["standard_plus_nu", "seeded_random_conjugate"])
@pytest.mark.parametrize("command", ["validate", "darboux"])
def test_a_form_that_overflows_is_a_usage_error(tmp_path, capsys, command, source, seed):
    # nu_scale is finite, but nu overflows to inf; antisymmetry alone let the
    # form pass (inf + (-inf) is NaN), and an SVD of it did not converge.
    out = tmp_path / "out"
    form = {"source": source, "nu_scale": 1.7e308}
    assert run_cli(tmp_path, command, {"n": 2, "seed": seed, "output_dir": str(out), "form": form})[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "non-finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_darboux_pulls_the_form_back_once(tmp_path, monkeypatch):
    # The reported error comes from the pull-back that gave nu.
    calls = []
    pull_back = crms.darboux.pull_back

    def counting(*args):
        calls.append(args)
        return pull_back(*args)

    monkeypatch.setattr(crms.darboux, "pull_back", counting)
    out = tmp_path / "out"
    cfg = {"n": 4, "seed": 7, "output_dir": str(out), "form": {"source": "seeded_random_conjugate"}}
    assert run_cli(tmp_path, "darboux", cfg)[0] == 0
    assert len(calls) == 1
    assert read_json(out / "darboux.json")["reconstruction_max_error"] < 1e-8


@pytest.mark.parametrize("command, forms", [("validate", 2), ("darboux", 3)])
def test_darboux_builds_three_forms(tmp_path, monkeypatch, command, forms):
    # The seeded form is a standard form pulled back by the conjugator: two
    # forms.  darboux adds the pull-back by the frame; the reconstruction
    # error builds no form of its own.  The hook passes the keyword that the
    # library's own route (_exact_form) gives, so it counts both routes.
    built = []
    post_init = crms.linalg.AlternatingThreeForm.__post_init__

    def counting(self, **kwargs):
        built.append(self)
        post_init(self, **kwargs)

    monkeypatch.setattr(crms.linalg.AlternatingThreeForm, "__post_init__", counting)
    cfg = {"n": 4, "seed": 7, "output_dir": str(tmp_path / "out"), "form": {"source": "seeded_random_conjugate"}}
    assert run_cli(tmp_path, command, cfg)[0] == 0
    assert len(built) == forms


@pytest.mark.parametrize("command", ["validate", "darboux"])
def test_reports_are_one_line_of_json(tmp_path, command):
    out = tmp_path / "out"
    cfg = {"n": 2, "seed": 4, "output_dir": str(out), "form": {"source": "seeded_random_conjugate"}}
    assert run_cli(tmp_path, command, cfg)[0] == 0
    text = (out / f"{command}.json").read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True) + "\n" == text


# --- symbol ------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_symbol_sweep(tmp_path, n):
    out = tmp_path / "out"
    code, _ = run_cli(tmp_path, "symbol", {"n": n, "output_dir": str(out)})
    assert code == 0
    with open(out / "symbol.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    for row in rows:
        assert int(row["bridges_kernel_dim"]) == 0
        assert int(row["ddw_kernel_dim"]) >= 1
        assert abs(abs(float(row["bridges_det"])) - 1.0) < 1e-10


def test_warm_symbol_run_builds_no_fiber_block(tmp_path):
    # After one run the standard pair and I are cached: a second run reads the pair and builds neither.
    cfg = {"n": 3, "output_dir": str(tmp_path / "out")}
    assert run_cli(tmp_path, "symbol", cfg)[0] == 0
    caches = (crms.linalg.standard_fiber_forms, crms.linalg.standard_complex_structure)
    before = [cache.cache_info() for cache in caches]
    assert run_cli(tmp_path, "symbol", cfg)[0] == 0
    after = [cache.cache_info() for cache in caches]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert after[0].hits > before[0].hits


def test_symbol_zero_covector_rejected(tmp_path):
    out = tmp_path / "out"
    cfg = {"n": 1, "output_dir": str(out), "symbol": {"xi": [0.0, 0.0]}}
    assert run_cli(tmp_path, "symbol", cfg)[0] == 2
    assert not out.exists()


@pytest.mark.parametrize("xi", [[1e-320, 0.0], [1e100, 0.0], [1e308, 1e308]])
def test_symbol_covector_whose_determinant_is_not_a_normal_double_is_a_usage_error(tmp_path, capsys, xi):
    # |xi|^4 underflows or overflows at n = 1: no kernel count or
    # determinant of that symbol could be trusted.
    out = tmp_path / "out"
    assert run_cli(tmp_path, "symbol", {"n": 1, "output_dir": str(out), "symbol": {"xi": xi}})[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "symbol.xi" in err
    assert not out.exists()


def test_symbol_covector_near_the_top_of_the_range_passes(tmp_path):
    # |xi|^4 = 1e304 is a normal double; a RuntimeWarning fails the test.
    out = tmp_path / "out"
    assert run_cli(tmp_path, "symbol", {"n": 1, "output_dir": str(out), "symbol": {"xi": [1e76, 0.0]}})[0] == 0
    with open(out / "symbol.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["ddw_kernel_dim"], row["bridges_kernel_dim"]) == ("1", "0")
    assert float(row["bridges_det"]) == pytest.approx(1e304, rel=1e-12)


@pytest.mark.parametrize(
    "command, config, entries",
    [
        # Seven floats per covector: its angle, two components and four-field row.
        ("symbol", {"symbol": {"angles": 15}}, 105),
        # Two floats per direction; the complex 4x4 field at n = 1 holds 128.
        ("gradcheck", {"grid": {"n1": 4, "n2": 4}, "gradcheck": {"directions": 65}}, 130),
        # Two floats per complex field entry: 4 x 4 x 4 of them.
        ("gradcheck", {"grid": {"n1": 4, "n2": 4}, "gradcheck": {"directions": 1}}, 128),
        # Two kept 4x4 states at n = 1, each with its gradient.
        ("flow", {"grid": {"n1": 4, "n2": 4}, "flow": {"max_steps": 1, "record_every": 1}}, 256),
    ],
)
def test_size_bound_counts_symbol_angles_and_gradcheck_directions(tmp_path, capsys, monkeypatch, command, config, entries):
    monkeypatch.setattr(crms.cli, "MAX_ARRAY_ENTRIES", 100)
    out = tmp_path / "out"
    assert run_cli(tmp_path, command, {"n": 1, "output_dir": str(out), **config})[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"needs {entries} float entries" in err
    assert not out.exists()
    monkeypatch.setattr(crms.cli, "MAX_ARRAY_ENTRIES", entries)
    _check_size(parse_config(config, command), command)


def test_symbol_explicit_covector(tmp_path):
    out = tmp_path / "out"
    cfg = {"n": 1, "output_dir": str(out), "symbol": {"xi": [3.0, 4.0]}}
    code, _ = run_cli(tmp_path, "symbol", cfg)
    assert code == 0
    with open(out / "symbol.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert abs(float(rows[0]["bridges_det"]) - 625.0) < 1e-8


# --- flow --------------------------------------------------------------------


def test_flow_zero_hamiltonian_constant_state_converges_immediately(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 16},
        "hamiltonian": {"name": "zero"},
        "flow": {"max_steps": 20, "initial": {"mode": "constant", "value": 0.4}},
    }
    code, _ = run_cli(tmp_path, "flow", cfg)
    assert code == 0
    summary = read_json(out / "flow_summary.json")
    assert summary["converged"] is True
    assert summary["steps_taken"] == 0
    assert (out / "flow_trace.csv").exists()
    final = read_state(out / "flow_final.crms")
    assert np.max(np.abs(final.values - 0.4)) == 0.0


@pytest.mark.parametrize("integrator, per_step", [("explicit_euler", 1), ("rk4", 4)])
def test_flow_evaluates_the_hamiltonian_gradient_once_per_stage(tmp_path, monkeypatch, integrator, per_step):
    # K steps evaluate grad H once per stage and once for the last row; the final
    # residual takes one more, and fueter_residual reads the kept gradients.
    calls = []
    build = crms.cli._hamiltonian

    def counted(cfg):
        ham = build(cfg)

        def gradient(z):
            calls.append(z.shape)
            return ham.gradient(z)

        spec = crms.fields.HamiltonianSpec(ham.name, ham.fiber_dim, ham.value, gradient)
        calls.clear()  # the construction check's call
        return spec

    monkeypatch.setattr(crms.cli, "_hamiltonian", counted)
    out = tmp_path / "out"
    steps = 20
    cfg = {"n": 1, "output_dir": str(out), "grid": {"n1": 12, "n2": 10},
           "hamiltonian": {"name": "cosine", "parameters": {"lambda": 0.5}},
           "flow": {"integrator": integrator, "max_steps": steps, "record_every": 1}}
    assert run_cli(tmp_path, "flow", cfg)[0] == 1
    summary = read_json(out / "flow_summary.json")
    assert summary["steps_taken"] == steps and np.isfinite(summary["fueter_residual"])
    assert len(calls) == per_step * steps + 2 and set(calls) == {(12, 10, 4)}


def test_flow_divergence_in_the_step_0_diagnostics_reports_no_steps(tmp_path):
    # The quadratic H of 1e200 overflows, so the first trace row is never written.
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "output_dir": str(out),
        "grid": {"n1": 8, "n2": 8},
        "hamiltonian": {"name": "quadratic"},
        "flow": {"max_steps": 5, "initial": {"mode": "constant", "value": 1e200}},
    }
    code, _ = run_cli(tmp_path, "flow", cfg)
    assert code == 3
    assert (out / "flow_trace.csv").read_bytes() == b"step,s,action,grad_norm\r\n"
    assert np.array_equal(read_state(out / "flow_final.crms").values, np.full((8, 8, 4), 1e200))
    summary = read_json(out / "flow_summary.json")
    assert summary["diverged_at_step"] == 0
    assert summary["steps_taken"] == 0
    assert summary["converged"] is False
    for key in ("final_action", "final_grad_sup_norm", "final_bridges_residual_sup_norm", "fueter_residual"):
        assert summary[key] is None, key


def test_flow_indefinite_quadratic_diverges(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "seed": 7,
        "output_dir": str(out),
        "grid": {"n1": 32, "n2": 32},
        "hamiltonian": {"name": "quadratic", "parameters": {"lambda": 1.0}},
        "flow": {"max_steps": 50000, "tolerance": 1e-7, "record_every": 500,
                 "initial": {"mode": "random_smooth", "amplitude": 0.1}},
    }
    code, _ = run_cli(tmp_path, "flow", cfg)
    assert code == 3
    summary = read_json(out / "flow_summary.json")
    assert summary["diverged_at_step"] is not None


def test_flow_rk4_stage_overflow_exits_as_divergence(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 20, "l1": 3.0, "l2": 5.0},
        "hamiltonian": {"name": "quartic", "parameters": {"lambda": 0.6}},
        "flow": {"integrator": "rk4", "max_steps": 40},
    }
    code, _ = run_cli(tmp_path, "flow", cfg, "--seed", "5", quiet=False)
    assert code == 3
    assert capsys.readouterr().out == "flow: diverged at step 17\n"
    assert read_json(out / "flow_summary.json")["diverged_at_step"] == 17
    with open(out / "flow_trace.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 18


def test_flow_step_size_over_bound_is_config_error(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 16},
        "hamiltonian": {"name": "quartic"},
        "flow": {"ds": 10.0 * 0.2 * (2.0 * np.pi / 16.0), "max_steps": 10,
                 "initial": {"mode": "constant"}},
    }
    assert run_cli(tmp_path, "flow", cfg)[0] == 2
    assert not out.exists()


def test_flow_initial_file_of_another_grid_is_config_error(tmp_path, capsys):
    state_path = tmp_path / "init.crms"
    write_state(FieldState(TorusGrid(16, 16), np.zeros((16, 16, 4))), state_path)
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 20},
        "flow": {"initial": {"mode": "file", "path": str(state_path)}},
    }
    assert run_cli(tmp_path, "flow", cfg)[0] == 2
    assert "does not match the configured grid" in capsys.readouterr().err
    assert not out.exists()


def test_flow_unknown_hamiltonian_is_config_error(tmp_path):
    cfg = {"hamiltonian": {"name": "maxwell"}}
    assert run_cli(tmp_path, "flow", cfg)[0] == 2


def test_flow_from_file_initial(tmp_path):
    grid = TorusGrid(16, 16)
    state = FieldState(grid, np.zeros((16, 16, 4)))
    state_path = tmp_path / "init.crms"
    write_state(state, state_path)
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 16},
        "hamiltonian": {"name": "quadratic"},
        "flow": {"max_steps": 5, "initial": {"mode": "file", "path": str(state_path)}},
    }
    code, _ = run_cli(tmp_path, "flow", cfg)
    assert code == 0  # zero section is the critical point


# A well-formed 16 x 16, n = 1 container whose payload holds one NaN.
NAN_PAYLOAD = crms.fields._HEADER.pack(b"CRMS", 1, 16, 16, 1, 2 * np.pi, 2 * np.pi) + np.concatenate(
    [[np.nan], np.zeros(16 * 16 * 4 - 1)]
).astype("<f8").tobytes()


@pytest.mark.parametrize("content", [None, b"CRMS\x01", NAN_PAYLOAD], ids=["missing", "truncated", "nan-payload"])
def test_flow_unreadable_initial_file_is_config_error(tmp_path, capsys, content):
    state_path = tmp_path / "init.crms"
    if content is not None:
        state_path.write_bytes(content)
    out = tmp_path / "out"
    cfg = {"output_dir": str(out), "flow": {"initial": {"mode": "file", "path": str(state_path)}}}
    assert run_cli(tmp_path, "flow", cfg)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read initial state") and err.count("\n") == 1
    assert not out.exists()


# --- gradcheck ---------------------------------------------------------------


def test_gradcheck_quadratic_is_machine_exact(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "seed": 3,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 16},
        "hamiltonian": {"name": "quadratic"},
    }
    code, _ = run_cli(tmp_path, "gradcheck", cfg)
    assert code == 0
    assert read_json(out / "gradcheck.json")["max_relative_error"] < 1e-9


CI_GRADCHECK = {"n": 2, "grid": {"l1": 3.0, "l2": 5.0}, "hamiltonian": {"name": "cosine", "parameters": {"lambda": 0.8}}}


@pytest.mark.parametrize(
    "config, grid",
    [
        ({"n": 1, "seed": 4, "hamiltonian": {"name": "cosine", "parameters": {"lambda": 0.8}}}, "16x16"),
        # A large lambda: the construction check subtracts nothing, so no cancellation rejects it.
        ({"n": 2, "seed": 4, "hamiltonian": {"name": "quartic", "parameters": {"lambda": 1e4}}}, "16x16"),
        # CI's cases: 1.6e-3 and 6.8e-5 of the bound.
        (CI_GRADCHECK, "15x12"),
        (CI_GRADCHECK, "128x128"),
    ],
    ids=["cosine", "quartic_lambda_1e4", "ci_15x12", "ci_128x128"],
)
def test_gradcheck_passes_on_nonlinear_hamiltonians(tmp_path, config, grid):
    out = tmp_path / "out"
    code, _ = run_cli(tmp_path, "gradcheck", {**config, "output_dir": str(out)}, "--grid", grid)
    assert code == 0
    assert read_json(out / "gradcheck.json")["max_relative_error"] < 1e-6


@pytest.mark.parametrize(
    "config, grid, scale",
    [
        ({"n": 1, "seed": 5, "hamiltonian": {"name": "quadratic"}}, "16x16", 1.000003),
        # 1 + 1e-9 fails CI's case by 1.5e3 times the bound and the 128^2 case by 19 times.
        (CI_GRADCHECK, "15x12", 1 + 1e-9),
        (CI_GRADCHECK, "128x128", 1 + 1e-9),
    ],
    ids=["quadratic_3e-6", "ci_15x12_1e-9", "ci_128x128_1e-9"],
)
def test_gradcheck_corrupted_gradient_fails(tmp_path, monkeypatch, config, grid, scale):
    # with_scaled_gradient skips the construction check, which rejects each scale too.
    make = crms.cli.make_hamiltonian
    monkeypatch.setattr(crms.cli, "make_hamiltonian", lambda *args: with_scaled_gradient(make(*args), scale))
    out = tmp_path / "out"
    code, _ = run_cli(tmp_path, "gradcheck", {**config, "output_dir": str(out)}, "--grid", grid)
    assert code == 1
    report = read_json(out / "gradcheck.json")
    assert report["max_relative_error"] > 0.5 * (scale - 1.0)
    assert report["max_error_to_bound"] > 10.0


@pytest.mark.parametrize("period", [1e-140, 1e-150])
def test_gradcheck_complex_step_does_not_underflow_on_a_tiny_torus(tmp_path, period):
    # Cell area 9.8e-284 at 1e-140: a step of 1e-200 underflowed h1 h2 Im A to zero (relative error 1).
    out = tmp_path / "out"
    cfg = {"n": 1, "output_dir": str(out), "grid": {"l1": period, "l2": period}, "hamiltonian": {"name": "cosine"}}
    assert run_cli(tmp_path, "gradcheck", cfg, "--grid", "32x32")[0] == 0
    assert read_json(out / "gradcheck.json")["max_relative_error"] < 1e-12


def test_gradcheck_zero_pairing_is_reported_as_null(tmp_path, monkeypatch):
    # A constant field is critical for the zero Hamiltonian, so every pairing is exactly 0.
    constant = lambda grid, n, amplitude, rng: FieldState(grid, np.full((grid.n1, grid.n2, 4 * n), 0.3))
    monkeypatch.setattr(crms.cli, "random_smooth_state", constant)
    out = tmp_path / "out"
    cfg = {"n": 1, "output_dir": str(out), "grid": {"n1": 8, "n2": 8}, "hamiltonian": {"name": "zero"}}
    assert run_cli(tmp_path, "gradcheck", cfg)[0] == 0
    report = read_json(out / "gradcheck.json")
    assert report["max_relative_error"] is None and set(report["relative_errors"]) == {None}
    assert report["max_error_to_bound"] <= 1.0


@pytest.mark.parametrize("period, code", [(1e153, 0), (1e155, 1)])
def test_gradcheck_report_is_strict_json_when_the_differences_overflow(tmp_path, period, code):
    # Periods of 1e153 leave every complex-step value finite; at 1e155 the pairings overflow.
    out = tmp_path / "out"
    cfg = {"n": 2, "output_dir": str(out), "grid": {"l1": period, "l2": period}, "hamiltonian": {"name": "cosine"}}
    assert run_cli(tmp_path, "gradcheck", cfg, "--grid", "16x16")[0] == code

    def reject(token):
        raise ValueError(f"bare {token} token")

    report = json.loads((out / "gradcheck.json").read_text(), parse_constant=reject)
    if code == 0:
        assert None not in report["relative_errors"] and len(report["relative_errors"]) == 20
    else:
        assert report["max_relative_error"] is None and None in report["relative_errors"]


@pytest.mark.parametrize("command", ["flow", "gradcheck"])
def test_hamiltonian_that_fails_its_construction_check_is_config_error(tmp_path, capsys, monkeypatch, command):
    # A gradient 1.001 times cosine's fails the complex-step check that
    # builds the Hamiltonian; lambda = 1e308 overflows quartic's value,
    # which fails it too.
    make = crms.cli.make_hamiltonian
    corrupted = lambda *args: checked_scaled_gradient(make(*args), 1.001)
    for ham, build, message in (
        ({"name": "cosine"}, corrupted, "disagrees with the complex step"),
        ({"name": "quartic", "parameters": {"lambda": 1e308}}, make, "is not finite"),
    ):
        monkeypatch.setattr(crms.cli, "make_hamiltonian", build)
        out = tmp_path / "out"
        cfg = {"n": 1, "output_dir": str(out), "grid": {"n1": 16, "n2": 16}, "hamiltonian": ham}
        assert run_cli(tmp_path, command, cfg)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["flow", "gradcheck"])
def test_seeded_field_that_overflows_is_config_error(tmp_path, capsys, command):
    # 2π/l2 overflows at l2 = 4e-320, so the seeded field's mode table is not
    # finite; the cell area 1.25e-307 is a normal double, so the torus is valid.
    out = tmp_path / "out"
    cfg = {"n": 1, "output_dir": str(out), "grid": {"n1": 8, "n2": 8, "l1": 1e14, "l2": 4e-320}}
    assert run_cli(tmp_path, command, cfg)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seeded field on periods") and err.count("\n") == 1
    assert not out.exists()


def test_gradcheck_bound_absorbs_oracle_roundoff(tmp_path):
    # A direction with pairing -1.5e-6 once gave Richardson a relative error of
    # 6.4e-5; the complex step leaves it at 5.6e-11, 7.2e-5 of the bound.
    out = tmp_path / "out"
    cfg = {"n": 2, "output_dir": str(out), "hamiltonian": {"name": "cosine"}}
    code, _ = run_cli(tmp_path, "gradcheck", cfg, "--grid", "128x128", "--seed", "100")
    assert code == 0
    report = read_json(out / "gradcheck.json")
    assert report["max_relative_error"] < 1e-8
    assert report["max_error_to_bound"] < 1.0


# --- output paths and stdout ----------------------------------------------------


@pytest.mark.parametrize(
    "command, config, out",
    [
        ("validate", {}, "a_file"),
        ("flow", {"hamiltonian": {"name": "zero"}, "flow": {"max_steps": 3}}, "a_file/sub"),
        ("validate", {}, "o\u0000x"),
    ],
    ids=["validate", "flow", "nul_byte"],
)
def test_output_path_that_is_not_a_directory_is_config_error(tmp_path, capsys, monkeypatch, command, config, out):
    # The output path is resolved before the flow starts.
    monkeypatch.setattr(crms.cli, "run_flow", lambda *args: pytest.fail("the flow started"))
    (tmp_path / "a_file").write_text("")
    assert run_cli(tmp_path, command, config, "--grid", "8x8", "--out", str(tmp_path / out))[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", f"{command}.json"]


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("validate", {}, 0),
        ("darboux", {}, 0),
        ("symbol", {"symbol": {"angles": 4}}, 0),
        ("gradcheck", {"gradcheck": {"directions": 2}}, 0),
        ("flow", {"hamiltonian": {"name": "zero"}, "flow": {"max_steps": 3}}, 1),
    ],
    ids=["validate", "darboux", "symbol", "gradcheck", "flow"],
)
def test_each_verb_prints_one_summary_line_unless_quiet(tmp_path, capsys, command, config, code):
    config = {"output_dir": str(tmp_path / "out"), **config}
    assert run_cli(tmp_path, command, config, "--grid", "8x8", quiet=False)[0] == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}:")
    assert run_cli(tmp_path, command, config, "--grid", "8x8")[0] == code
    assert capsys.readouterr().out == ""


# --- overrides and determinism -------------------------------------------------


def test_grid_and_seed_overrides(tmp_path):
    out = tmp_path / "out"
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps({"n": 1, "output_dir": str(out), "hamiltonian": {"name": "quadratic"}}))
    code = main(["gradcheck", "--config", str(cfg_path), "--grid", "16x16", "--seed", "11", "--quiet"])
    assert code == 0
    assert read_json(out / "gradcheck.json")["seed"] == 11


def test_grid_flag_keeps_the_configured_periods(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "output_dir": str(out),
        "grid": {"n1": 4, "n2": 4, "l1": 3.0},
        "hamiltonian": {"name": "zero"},
        "flow": {"max_steps": 2, "initial": {"mode": "constant"}},
    }
    assert run_cli(tmp_path, "flow", cfg, "--grid", "16x16")[0] == 0
    assert read_json(out / "flow_summary.json")["ds"] == 0.5 * 0.2 * min(3.0 / 16, 2.0 * np.pi / 16)


@pytest.mark.parametrize(
    "command, config, extra, named",
    [
        ("validate", {}, ("--seed", "-1"), "seed"),
        ("flow", {"grid": 5}, ("--grid", "8x8"), "'grid'"),
        ("flow", {}, ("--grid", "2x8"), "grid resolution"),
    ],
    ids=["seed", "grid_not_an_object", "grid_too_small"],
)
def test_flags_are_checked_as_the_config_entries_they_set(tmp_path, capsys, command, config, extra, named):
    out = tmp_path / "out"
    assert run_cli(tmp_path, command, {"output_dir": str(out), **config}, *extra)[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and named in err
    assert not out.exists()


def test_reports_are_deterministic_apart_from_timestamp(tmp_path):
    def one_run(out_name: str) -> dict:
        out = tmp_path / out_name
        cfg = {"n": 2, "seed": 9, "output_dir": str(out), "form": {"source": "seeded_random_conjugate"}}
        code, _ = run_cli(tmp_path, "darboux", cfg)
        assert code == 0
        payload = read_json(out / "darboux.json")
        payload.pop("timestamp")
        return payload

    assert one_run("a") == one_run("b")


def test_outputs_are_byte_identical_across_hash_seeds(tmp_path):
    # Each verb in its own interpreter under PYTHONHASHSEED 0 and 1: no output
    # may depend on set or dict order.  JSON reports differ only in timestamp.
    runs = {
        "flow": (["--grid", "16x16"], {"n": 2, "hamiltonian": {"name": "cosine"},
                                      "flow": {"integrator": "rk4", "max_steps": 20}}, 1),
        "validate": (["--seed", "3"], {"n": 4, "form": {"source": "seeded_random_conjugate"}}, 0),
        "darboux": (["--seed", "3"], {"n": 4, "form": {"source": "seeded_random_conjugate"}}, 0),
        "symbol": ([], {"n": 2}, 0),
        "gradcheck": (["--grid", "12x12"], {}, 0),
    }
    src = str(Path(crms.__file__).resolve().parents[1])
    outputs = {}
    for verb, (extra, config, expected) in runs.items():
        cfg_path = tmp_path / f"{verb}.json"
        cfg_path.write_text(json.dumps(config))
        procs = {}
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / seed / verb
            cmd = [sys.executable, "-m", "crms.cli", verb, "--config", str(cfg_path), "--out", str(out), "--quiet",
                   *extra]
            procs[seed] = subprocess.Popen(cmd, env=env, cwd=tmp_path, stderr=subprocess.PIPE)
        errors = {seed: proc.communicate(timeout=60)[1] for seed, proc in procs.items()}
        for seed, proc in procs.items():
            assert proc.returncode == expected, (verb, seed, errors[seed])
            outputs[seed, verb] = {
                f.name: re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', f.read_bytes())
                for f in (tmp_path / seed / verb).iterdir()
            }
        assert outputs["0", verb] == outputs["1", verb], verb
    assert sum(len(files) for files in outputs.values()) == 2 * 7


def test_symbol_csv_bytes_are_reproducible(tmp_path):
    def one_run(out_name: str) -> bytes:
        out = tmp_path / out_name
        code, _ = run_cli(tmp_path, "symbol", {"n": 1, "output_dir": str(out)})
        assert code == 0
        return (out / "symbol.csv").read_bytes()

    assert one_run("a") == one_run("b")


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for k in range(3):
        assert main(["validate", "--out", str(tmp_path / str(k)), "--quiet"]) == 0
    assert built == []
    # The shared parser answers --help and an unknown verb the same way each time.
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: crms")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["nosuchverb"])
        assert exc.value.code == 2
        assert "invalid choice: 'nosuchverb'" in capsys.readouterr().err
