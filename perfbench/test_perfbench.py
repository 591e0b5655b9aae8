"""Self-check of the benchmark: smoke-size runs emit every declared metric and
the traced counts agree with each other and with the program's own outputs.

Run from the repository root with ``python -m pytest perfbench``; it takes
about ten seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FLOW_STEPS = {"flow-rk4-32": 20}
CLI_CALLS = {"flow-rk4-32": 1, "tensor-n4": 2}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request):
    runs = {trace: run_bench(ROOT, request.param, trace) for trace in (0, 1)}
    for run in runs.values():
        assert run.returncode == 0, run.stderr
    return request.param, {t: json.loads(r.stdout.splitlines()[-1]) for t, r in runs.items()}


def test_every_declared_metric_is_emitted(results):
    _, runs = results
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(v["value"] > 0 for v in runs[0]["metrics"].values())


def test_traced_counts_are_consistent(results):
    workload, runs = results
    m = {k: v["value"] for k, v in runs[1]["metrics"].items()}
    assert m["cli.main.calls"] == CLI_CALLS[workload]
    for name in SPAN_NAMES:
        assert m[f"{name}.s"] >= m[f"{name}.self_s"] >= 0.0
    assert m["cli.main.s"] >= m["flow.run_flow.s"] + m["fields.write_state.s"]
    steps = FLOW_STEPS.get(workload)
    if steps is None:
        assert m["flow.flow_step.calls"] == 0 and m["flow.grad_evals_per_step"] == 0
        return
    # grad_evals_per_step divides by the steps the program reports, so this
    # ties the span counts to the program's own trace.
    assert m["flow.flow_step.calls"] == steps
    assert m["fields.l2_gradient.calls"] / m["flow.flow_step.calls"] == pytest.approx(m["flow.grad_evals_per_step"])
    assert m["flow.trace_states_kept"] == m["flow.fueter_residual.states"] == steps + 1
    assert m["fields.FieldState.constructions"] >= steps
    assert m["fields.write_state.bytes"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.on = True
    inner = tracer.wrap("fields.diff", lambda: sum(range(10_000)))
    outer = tracer.wrap("fields.l2_gradient", lambda: inner() + inner())
    outer()
    totals = tracer.layer_totals()
    (_, s0, e0, p0, _), (_, s1, e1, p1, _), (_, s2, e2, p2, _) = tracer.spans
    assert (p0, p1, p2) == (-1, 0, 0)
    assert totals["fields.diff"]["calls"] == 2
    assert totals["fields.l2_gradient"]["self_s"] == pytest.approx((e0 - s0) - (e1 - s1) - (e2 - s2))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    run = run_bench(tmp_path, WORKLOADS[0], 0)
    assert run.returncode != 0
    assert run.stdout.strip() == ""
