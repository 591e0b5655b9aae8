"""Exit-code contract and artifact emission of the command-line harness."""

import csv
import json

import numpy as np
import pytest

from crms.cli import _check_size, main, parse_config
from crms.errors import ConfigError
from crms.fields import FieldState, TorusGrid, read_state, write_state


def run_cli(tmp_path, command: str, config: dict, *extra: str) -> tuple[int, dict]:
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg_path), "--quiet", *extra])
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


def test_validate_random_conjugate_passes(tmp_path):
    out = tmp_path / "out"
    cfg = {"n": 2, "seed": 5, "output_dir": str(out), "form": {"source": "seeded_random_conjugate"}}
    code, _ = run_cli(tmp_path, "validate", cfg)
    assert code == 0


def test_malformed_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad), "--quiet"]) == 2


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
    ],
)
def test_bad_config_values_are_usage_errors(tmp_path, config):
    # json.dumps writes bool, nan and inf as true, NaN and Infinity, which
    # json.loads reads back; 10**400 is an int no float can hold.
    assert run_cli(tmp_path, "flow", {"output_dir": str(tmp_path / "out"), **config})[0] == 2
    assert not (tmp_path / "out" / "flow_summary.json").exists()


@pytest.mark.parametrize(
    "command, config, extra",
    [
        ("symbol", {"n": 100_000_000_000}, ()),
        ("flow", {}, ("--grid", "100000000x100000000")),
    ],
)
def test_sizes_too_large_to_allocate_are_usage_errors(tmp_path, capsys, command, config, extra):
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
    assert read_json(out / "darboux.json")["error"] == "validation failed"


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


def test_symbol_zero_covector_rejected(tmp_path):
    cfg = {"n": 1, "symbol": {"xi": [0.0, 0.0]}}
    assert run_cli(tmp_path, "symbol", cfg)[0] == 2


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


def test_flow_rk4_stage_overflow_exits_as_divergence(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 20, "l1": 3.0, "l2": 5.0},
        "hamiltonian": {"name": "quartic", "parameters": {"lambda": 0.6}},
        "flow": {"integrator": "rk4", "max_steps": 40},
    }
    code, _ = run_cli(tmp_path, "flow", cfg, "--seed", "5")
    assert code == 3
    assert read_json(out / "flow_summary.json")["diverged_at_step"] == 17
    with open(out / "flow_trace.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 18


def test_flow_step_size_over_bound_is_config_error(tmp_path):
    cfg = {
        "n": 1,
        "grid": {"n1": 16, "n2": 16},
        "hamiltonian": {"name": "quartic"},
        "flow": {"ds": 10.0 * 0.2 * (2.0 * np.pi / 16.0), "max_steps": 10,
                 "initial": {"mode": "constant"}},
    }
    assert run_cli(tmp_path, "flow", cfg)[0] == 2


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


def test_gradcheck_cosine(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "seed": 4,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 16},
        "hamiltonian": {"name": "cosine", "parameters": {"lambda": 0.8}},
    }
    code, _ = run_cli(tmp_path, "gradcheck", cfg)
    assert code == 0
    assert read_json(out / "gradcheck.json")["max_relative_error"] < 1e-6


def test_gradcheck_corrupted_gradient_fails(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "n": 1,
        "seed": 5,
        "output_dir": str(out),
        "grid": {"n1": 16, "n2": 16},
        "hamiltonian": {"name": "quadratic", "gradient_scale": 1.000003},
    }
    code, _ = run_cli(tmp_path, "gradcheck", cfg)
    assert code == 1
    report = read_json(out / "gradcheck.json")
    assert report["max_relative_error"] > 1e-6
    assert report["max_error_to_bound"] > 1.0


def test_gradcheck_bound_absorbs_oracle_roundoff(tmp_path):
    # A direction with pairing -1.5e-6 gives relative error 6.4e-5 from the
    # oracle's roundoff alone; the error stays within 0.3 of the bound.
    out = tmp_path / "out"
    cfg = {"n": 2, "output_dir": str(out), "hamiltonian": {"name": "cosine"}}
    code, _ = run_cli(tmp_path, "gradcheck", cfg, "--grid", "128x128", "--seed", "100")
    assert code == 0
    report = read_json(out / "gradcheck.json")
    assert report["max_relative_error"] > 1e-6
    assert report["max_error_to_bound"] < 1.0


# --- overrides and determinism -------------------------------------------------


def test_grid_and_seed_overrides(tmp_path):
    out = tmp_path / "out"
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps({"n": 1, "output_dir": str(out), "hamiltonian": {"name": "quadratic"}}))
    code = main(["gradcheck", "--config", str(cfg_path), "--grid", "16x16", "--seed", "11", "--quiet"])
    assert code == 0
    assert read_json(out / "gradcheck.json")["seed"] == 11


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


def test_symbol_csv_bytes_are_reproducible(tmp_path):
    def one_run(out_name: str) -> bytes:
        out = tmp_path / out_name
        code, _ = run_cli(tmp_path, "symbol", {"n": 1, "output_dir": str(out)})
        assert code == 0
        return (out / "symbol.csv").read_bytes()

    assert one_run("a") == one_run("b")
