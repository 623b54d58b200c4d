"""Smoke tests of the end-to-end benchmark.

    pytest benchmarks/e2e

Every workload runs once untraced and once traced at ``--quick`` size
(about a minute in total).  These tests sit outside the tier-1
``testpaths`` on purpose.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, out: Path) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--quick", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """workload -> {trace flag: (printed line, --out details)}."""
    tmp = tmp_path_factory.mktemp(request.param)
    return request.param, {trace: _run(request.param, trace,
                                       tmp / f"trace{trace}.json")
                           for trace in (0, 1)}


def test_prints_every_declared_metric_with_its_unit(runs):
    _, by_trace = runs
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = by_trace[trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert ({name: m["unit"] for name, m in line["metrics"].items()}
                == {m["name"]: m["unit"] for m in SPEC[section]})
        assert all(isinstance(m["value"], (int, float))
                   for m in line["metrics"].values())


def test_every_operation_succeeds(runs):
    _, by_trace = runs
    for line, _ in by_trace.values():
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1


def test_traced_results_equal_untraced(runs):
    _, by_trace = runs
    untraced, traced = by_trace[0][1]["digests"], by_trace[1][1]["digests"]
    shared = set(untraced) & set(traced)
    assert shared
    assert {k: traced[k] for k in shared} == {k: untraced[k] for k in shared}


def test_hooks_leave_kernel_dispatch_unchanged(runs):
    workload, by_trace = runs
    layers = by_trace[1][0]["metrics"]
    calls = layers["vm.prepare_chunk_calls"]["value"]
    if workload == "fig9-cold":
        assert calls > 0
    elif workload == "mix4-cold":
        assert calls == 0 and layers["loop.accesses"]["value"] > 0


def test_missing_hook_target_degrades_gracefully(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from tracing import TIMED_HOOKS, Tracer

    from repro.workloads.suites import WorkloadSpec, catalog

    original = WorkloadSpec.__dict__["generate"]
    gone = "repro.sim.runner:NoSuchLayer.run"
    tracer = Tracer().install(TIMED_HOOKS + [("gone", gone, True)])
    try:
        catalog()["mcf"].generate(200)
    finally:
        tracer.uninstall()
    assert tracer.missing == [gone]
    assert "not installed" in capsys.readouterr().err
    assert tracer.dump()["layers"]["workloads.generate"][0] == 1
    assert WorkloadSpec.__dict__["generate"] is original


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
