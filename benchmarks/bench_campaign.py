#!/usr/bin/env python3
"""Benchmark the campaign layer's execution modes.

Runs one Fig. 9-style campaign (original + PSA over SPP across the
representative workload subset) through four phases:

1. **cold**    — ``run_missing`` serial against an empty cache and an
   empty store: every cell is simulated.  This is the floor; it prices
   the sweep itself.
2. **resumed** — the same campaign against the now-warm disk cache but
   a *fresh* store (the state after a SIGKILL that lost the sqlite
   index, or a second host joining with a shared cache dir): every cell
   must be synced from the content-addressed cache with zero
   re-simulation.  The cold/resumed ratio is the price of a resume.
3. **parallel** — ``run_missing(jobs=WIDTH)`` against an empty cache:
   the local route at ``WIDTH`` engine jobs.
4. **served**   — ``run_missing(replicas=...)`` against an empty cache,
   through ``WIDTH`` ``repro serve --cluster --jobs 1`` subprocesses
   sharing it: the multi-host route at the same total engine width.
   The served/parallel ratio is what sending a sweep through the
   cluster costs on one host.

Each phase reports cells/sec and the cache-hit-rate (fraction of its
cells served from cache instead of simulated).  Emits
``BENCH_campaign.json`` at the repo root.

Usage::

    REPRO_SCALE=small python benchmarks/bench_campaign.py
    REPRO_MAX_WORKLOADS=4 REPRO_SCALE=tiny python benchmarks/bench_campaign.py
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_common import representative_workloads  # noqa: E402

from repro.campaign import Campaign, CampaignStore, run_missing  # noqa: E402
from repro.serve.client import RetryPolicy, ServeClient  # noqa: E402
from repro.serve.client import ServeClientError  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.sim.config import accesses_for_scale, current_scale  # noqa: E402

RESULTS_PATH = REPO_ROOT / "BENCH_campaign.json"

#: Total engine width of the parallel and served phases.
WIDTH = 2


def bench_campaign(workloads) -> Campaign:
    return Campaign(name="bench-campaign",
                    axes={"workload": list(workloads),
                          "variant": ["original", "psa"]},
                    fixed={"prefetcher": "spp"})


def _fresh_engine(cache_dir: str) -> None:
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    runner.clear_cache()
    runner.reset_engine_stats()


def _hit_rate(total: int, simulated: int) -> float:
    """Fraction of cells served from cache rather than simulated."""
    return round((total - simulated) / total, 4) if total else 0.0


def phase_cold(campaign, cache_dir, db_path) -> dict:
    _fresh_engine(cache_dir)
    with CampaignStore(db_path) as store:
        report = run_missing(campaign, store=store, jobs=1)
    assert report.complete, report.describe()
    assert report.ok == report.total, "cold phase must simulate every cell"
    return {"mode": "run_missing, serial, empty cache",
            "cells": report.total, "simulated": report.ok,
            "synced": report.synced, "seconds": round(report.wall_s, 3),
            "cells_per_sec": round(report.cells_per_sec, 3),
            "cache_hit_rate": _hit_rate(report.total, report.ok)}


def phase_resumed(campaign, cache_dir, db_path) -> dict:
    # Warm disk cache, fresh store: the post-kill / second-host state.
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    runner.clear_cache()           # memo dropped: force the disk path
    runner.reset_engine_stats()
    with CampaignStore(db_path) as store:
        report = run_missing(campaign, store=store, jobs=1)
    assert report.complete, report.describe()
    assert report.scheduled == 0, \
        "resume must re-simulate nothing: " + report.describe()
    return {"mode": "run_missing, fresh store over warm cache",
            "cells": report.total, "simulated": report.ok,
            "synced": report.synced, "seconds": round(report.wall_s, 3),
            "cells_per_sec": round(report.cells_per_sec, 3),
            "cache_hit_rate": _hit_rate(report.total, report.ok)}


def phase_parallel(campaign, cache_dir, db_path) -> dict:
    _fresh_engine(cache_dir)
    with CampaignStore(db_path) as store:
        report = run_missing(campaign, store=store, jobs=WIDTH)
    assert report.complete and report.ok == report.total, report.describe()
    return {"mode": f"run_missing, {WIDTH} engine jobs, empty cache",
            "cells": report.total, "simulated": report.ok,
            "seconds": round(report.wall_s, 3),
            "cells_per_sec": round(report.cells_per_sec, 3)}


def _spawn_replica(cache_dir: str) -> tuple:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir,
               PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--cluster", "--jobs", "1", "--log-level", "warning"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    probe = ServeClient(port=port, timeout=5.0,
                        policy=RetryPolicy(retries=0, backoff_s=0.0))
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            if probe.healthz().ok:
                return port, proc
        except ServeClientError:
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError(f"replica on port {port} never became healthy")


def phase_served(campaign, cache_dir, db_path) -> dict:
    _fresh_engine(cache_dir)
    replicas = []
    try:
        for _ in range(WIDTH):
            replicas.append(_spawn_replica(cache_dir))
        with CampaignStore(db_path) as store:
            report = run_missing(
                campaign, store=store,
                replicas=[("127.0.0.1", port) for port, _ in replicas])
    finally:
        for _, proc in replicas:
            proc.terminate()
            proc.wait(timeout=60)
    assert report.complete and report.ok == report.total, report.describe()
    return {"mode": (f"run_missing through {WIDTH} repro serve --cluster "
                     f"--jobs 1 replicas, empty cache"),
            "cells": report.total, "simulated": report.ok,
            "seconds": round(report.wall_s, 3),
            "cells_per_sec": round(report.cells_per_sec, 3)}


def main() -> int:
    workloads = representative_workloads()
    campaign = bench_campaign(workloads)
    phases = {}
    with tempfile.TemporaryDirectory() as serial_dir:
        db = str(Path(serial_dir) / "bench-a.sqlite")
        phases["cold"] = phase_cold(campaign, serial_dir, db)
        phases["resumed"] = phase_resumed(
            campaign, serial_dir, str(Path(serial_dir) / "bench-b.sqlite"))
    with tempfile.TemporaryDirectory() as parallel_dir:
        phases["parallel"] = phase_parallel(
            campaign, parallel_dir, str(Path(parallel_dir) / "c.sqlite"))
    with tempfile.TemporaryDirectory() as served_dir:
        phases["served"] = phase_served(
            campaign, served_dir, str(Path(served_dir) / "d.sqlite"))

    cold_rate = phases["cold"]["cells_per_sec"]
    payload = {
        "benchmark": "bench_campaign",
        "campaign": (f"{len(workloads)} workloads x spp x "
                     f"original/psa = {phases['cold']['cells']} cells"),
        "campaign_id": campaign.campaign_id,
        "scale": current_scale(),
        "accesses_per_run": accesses_for_scale(),
        "machine": {"cores": os.cpu_count(),
                    "platform": f"{platform.system()} {platform.machine()}",
                    "python": platform.python_version()},
        "phases": phases,
        "resume_speedup_vs_cold": round(
            phases["resumed"]["cells_per_sec"] / cold_rate, 3)
        if cold_rate else None,
        "served_vs_parallel": round(
            phases["served"]["cells_per_sec"]
            / phases["parallel"]["cells_per_sec"], 3),
        "note": (
            "'resumed' rebuilds a lost sqlite store purely from the "
            "content-addressed disk cache (zero re-simulation, enforced "
            "by assertion). 'served' runs the sweep on replicas whose "
            "engine widths sum to 'parallel''s."),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\narchived to {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
