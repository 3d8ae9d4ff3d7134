"""Self-test of the benchmark harness at tiny sizes (40 digits, m <= 2).

    python3 -m pytest -q bench/test_harness.py

It checks the result schema and metric names against BENCHMARK.json, that a
seed fixes the inputs, that the trace skips a missing layer, and that the
benchmark refuses to run without the library. It does not measure speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import stagetrace  # noqa: E402  (needs fdsl4 importable)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace_on", [False, True])
def test_result_schema_and_metric_names(name, trace_on):
    result = run.run(name, 7, 0.001, trace_on, workloads.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = _units("per_layer" if trace_on else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units  # every layer exists at this commit: none is absent
    if trace_on:
        assert 0 < result["metrics"]["trace.coverage_frac"]["value"] <= 1
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps(result)


def test_metric_names_are_the_trace_names():
    assert dict(stagetrace.metric_names()) == _units("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_seed_fixes_inputs():
    first = workloads.load("many-small", 11, workloads.TINY)
    again = workloads.load("many-small", 11, workloads.TINY)
    other = workloads.load("many-small", 12, workloads.TINY)
    assert first.inputs == again.inputs and first.checksum == again.checksum
    assert first.checksum != other.checksum
    full = workloads.random_problems(11, workloads.FULL)
    assert full == workloads.random_problems(11, workloads.FULL)
    for r in workloads.DEGREES:  # ranks are stratified within each max degree
        rows = [p for p in full if max(len(q) - 1 for q in p[1:4]) == r]
        per_m = [sum(p[5] == m for p in rows) for m in workloads.FULL.many_m]
        assert max(per_m) - min(per_m) <= 1


def test_missing_layer_is_absent(monkeypatch):
    monkeypatch.setattr(stagetrace, "LAYERS", stagetrace.LAYERS + ("spectral.no_such_stage",))
    tracer = stagetrace.Tracer()
    tracer.install()
    try:
        wl = workloads.load("deep-rank", 1, workloads.TINY)
        wl.ops[0].run()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1.0, 0.0)
    assert not any(k.startswith("spectral.no_such_stage") for k in metrics)
    assert metrics["spectral.solve.calls"][0] == 1
    assert not hasattr(workloads.fdsl4.solve, "__wrapped__")  # unwrapped again


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "deep-rank",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
