#!/usr/bin/env python3
"""Benchmark the columnar hot-path kernel against the scalar loop.

Runs the same Fig. 9-style sweep as ``bench_engine.py`` (PSA and PSA-SD
speedups over original SPP across the representative workload subset)
twice, cold and serial (``REPRO_JOBS=1``, so every run is in-process)
both times:

1. ``scalar`` — the reference loop, one ``Core.step`` per record,
   selected by substituting ``kernel.fused_enabled`` for the phase;
2. ``vector`` — the columnar kernel (``repro.sim.kernel``).

Both phases start from an empty disk cache and an empty trace memo, so
the measured accesses/s are directly comparable to each other and to the
archived cold-serial baseline in ``results/engine_speedup.txt`` (the
rate recorded before the kernel existed).  The sweep results themselves
must be *identical* between the phases — that is the kernel's bitwise
equivalence contract, enforced here at figure level and by the golden
corpus / differential oracle at digest level.

Emits ``benchmarks/results/BENCH_kernel.json``.

Usage::

    REPRO_SCALE=small python benchmarks/bench_kernel.py
    REPRO_MAX_WORKLOADS=4 python benchmarks/bench_kernel.py   # smoke
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_common import representative_workloads  # noqa: E402

from repro.sim import kernel, runner  # noqa: E402
from repro.sim.config import accesses_for_scale, current_scale  # noqa: E402
from repro.workloads import suites  # noqa: E402

VARIANTS = ["psa", "psa-sd"]
RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_kernel.json"

#: Cold-serial accesses/s of the archived pre-kernel run (same sweep,
#: same REPRO_SCALE=small) from ``results/engine_speedup.txt``.
ARCHIVED_BASELINE_ACC_S = 14273.172


def run_phase(mode: str, workloads, cache_dir: str) -> dict:
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    runner.clear_cache()
    runner.reset_engine_stats()
    suites._generate_memo.clear()   # cold: regenerate every trace
    fused_enabled = kernel.fused_enabled
    if mode == "scalar":
        kernel.fused_enabled = lambda core: False
    try:
        start = time.perf_counter()
        values = {variant: runner.speedups_over_baseline(workloads, "spp",
                                                         variant)
                  for variant in VARIANTS}
        elapsed = time.perf_counter() - start
    finally:
        kernel.fused_enabled = fused_enabled
    stats = runner.engine_stats()
    return {"kernel": mode, "seconds": round(elapsed, 3),
            "simulated_runs": stats.simulated,
            "accesses_per_sec": round(stats.accesses_per_sec, 3),
            "values": values}


def main() -> int:
    workloads = representative_workloads()
    n = accesses_for_scale()
    phases = {}
    with tempfile.TemporaryDirectory() as scalar_dir, \
            tempfile.TemporaryDirectory() as vector_dir:
        phases["scalar"] = run_phase("scalar", workloads, scalar_dir)
        phases["vector"] = run_phase("vector", workloads, vector_dir)

    identical = phases["scalar"]["values"] == phases["vector"]["values"]
    assert identical, "vector kernel diverged from the scalar sweep results"

    scalar_rate = phases["scalar"]["accesses_per_sec"]
    vector_rate = phases["vector"]["accesses_per_sec"]
    payload = {
        "benchmark": "bench_kernel",
        "sweep": (f"{len(workloads)} workloads x {1 + len(VARIANTS)} "
                  f"configs (spp original/psa/psa-sd), cold serial"),
        "scale": current_scale(),
        "accesses_per_run": n,
        "machine": {"cores": os.cpu_count(),
                    "platform": f"{platform.system()} {platform.machine()}",
                    "python": platform.python_version()},
        "archived_baseline_accesses_per_sec": ARCHIVED_BASELINE_ACC_S,
        "scalar": {k: v for k, v in phases["scalar"].items()
                   if k != "values"},
        "vector": {k: v for k, v in phases["vector"].items()
                   if k != "values"},
        "speedup_vs_archived_baseline": round(
            vector_rate / ARCHIVED_BASELINE_ACC_S, 3),
        "speedup_vs_same_host_scalar": round(
            vector_rate / scalar_rate, 3) if scalar_rate else None,
        "results_identical_scalar_vs_vector": identical,
        "note": (
            "The vectorized kernel preserves bitwise-identical results "
            "(sweep values here; state digests in tests/test_kernel.py); "
            "its throughput gain is bounded by the scalar prefetcher "
            "state machines (SPP lookahead emits up to 8 candidates per "
            "access, each walking the inlined cache/MSHR/DRAM path), "
            "which are inherently sequential and remain per-event "
            "Python code."),
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\narchived to {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
