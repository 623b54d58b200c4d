#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload fig9-cold --seed 1 \\
        --seconds 12 --trace 0 [--out result.json] [--quick]
    python3 benchmarks/e2e/run.py --bless        # rewrite expected.json

Each round runs in its own process (``rounds.py``) with a fresh cache
directory and no inherited ``REPRO_*`` setting.  A run repeats rounds
until at least three have run and the timed calls add up to
``--seconds``; every metric is a median over rounds or a percentile over
all timed calls.  ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics instead (see ``tracing.py``).

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to stderr.  The
exit code is 0 only when every result matched ``expected.json``.
See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = ("fig9-cold", "fig9-warm", "mix4-cold", "serve-mixed")
MIN_ROUNDS = 3
#: Throughput is read at this quantile of per-sample rates.
RATE_QUANTILE = 0.9
#: A round that outlives this is killed along with its daemon.
ROUND_TIMEOUT_S = 150.0
#: Layers whose self-time share and call count are reported.
LAYERS = ("workloads.generate", "workloads.columns", "vm.prepare_chunk",
          "vm.walk", "prefetch.l2", "engine.key", "cache.load",
          "cache.store", "campaign.register", "campaign.sync",
          "campaign.record")


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples).

    Kept here rather than imported from ``repro``: a change under test
    must not be able to alter how it is measured.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       max(0, round(fraction * (len(ordered) - 1))))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(rounds: list) -> dict:
    """End-to-end values of one untraced run.

    The shared host has slow phases of a few seconds, so the declared
    throughput and latency use the fast side of many short samples:
    throughput at the 90th percentile of per-sample rates, latency at
    the 25th percentile.  Medians and tails are kept for the ``--out``
    file, where they are informative but too noisy to bound.
    """
    calls = [seconds for r in rounds for _, seconds, _ in r["latencies"]]
    rates = [rate for r in rounds for rate in r["rates"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "results_per_s": percentile(rates, RATE_QUANTILE),
        "call_p25_ms": 1e3 * percentile(calls, 0.25),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "results_per_s_median": statistics.median(rates),
        "call_p50_ms": 1e3 * percentile(calls, 0.50),
        "call_p98_ms": 1e3 * percentile(calls, 0.98),
        "calls": len(calls),
    }
    for kind in ("hit", "miss"):
        samples = [s for r in rounds for k, s, _ in r["latencies"]
                   if k == kind]
        if samples:
            values[f"{kind}_p50_ms"] = 1e3 * percentile(samples, 0.50)
            values[f"{kind}_p80_ms"] = 1e3 * percentile(samples, 0.80)
            values[f"{kind}_p98_ms"] = 1e3 * percentile(samples, 0.98)
    return values


def layer_values(rnd: dict) -> dict:
    """Per-layer values of one traced round."""
    trace = rnd["trace"]
    layers, counts = trace["layers"], trace["counts"]
    wall = rnd["measured_s"]
    values = {}
    for layer in LAYERS + ("loop",):
        calls, _, self_s = layers.get(layer, (0, 0.0, 0.0))
        values[f"{layer}_calls"] = calls
        values[f"{layer}_frac"] = self_s / wall
    values["loop.self_frac"] = values.pop("loop_frac")
    del values["loop_calls"]
    accesses = counts.get("loop.accesses", 0)
    values["loop.accesses"] = accesses
    values["loop.ns_per_access"] = _ratio(
        1e9 * layers.get("loop", (0, 0.0, 0.0))[2], accesses)
    built = counts.get("prefetch.requests_built", 0)
    values["prefetch.requests_built"] = built
    values["prefetch.issue_ratio"] = _ratio(counts.get("pf_issued_l2", 0),
                                            built)
    values["cache.hit_ratio"] = _ratio(counts.get("cache.hits", 0),
                                       values["cache.load_calls"])
    daemon = rnd["extra"].get("daemon", {})
    by_kind = {kind: [s for k, s, _ in rnd["latencies"] if k == kind]
               for kind in ("hit", "miss")}
    values["serve.hit_service_frac"] = _ratio(
        daemon.get("hit_service_p50_s", 0.0),
        percentile(by_kind["hit"], 0.5))
    values["serve.miss_service_frac"] = _ratio(
        daemon.get("miss_service_p50_s", 0.0),
        percentile(by_kind["miss"], 0.5))
    values["serve.worker_utilization"] = daemon.get("worker_utilization",
                                                    0.0)
    return values


def per_layer(untraced: list, traced: list) -> dict:
    """Medians over traced rounds, plus the tracing overhead."""
    table = [layer_values(r) for r in traced]
    values = {name: statistics.median(row[name] for row in table)
              for name in table[0]}
    cost = [statistics.median(r["measured_s"] / max(r["results"], 1)
                              for r in side) for side in (untraced, traced)]
    values["trace.overhead_frac"] = cost[1] / cost[0] - 1.0
    return values


def _clean_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(workdir)
    return env


def _run_child(argv: list, workdir: Path) -> None:
    """Run ``rounds.py`` in its own session; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "rounds.py")] + argv,
                            cwd=ROOT, env=_clean_env(workdir),
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"round exited with code {code}")


def run_round(workload: str, seed: int, budget: float, traced: bool,
              index: int) -> dict:
    workdir = OUT / "tmp" / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report = workdir / "round.json"
    argv = ["--workload", workload, "--seed", str(seed),
            "--budget", repr(budget), "--workdir", str(workdir),
            "--out", str(report), "--spawned-at", repr(time.monotonic())]
    _run_child(argv + (["--trace"] if traced else []), workdir)
    result = json.loads(report.read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    result["traced"] = traced
    return result


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool) -> list:
    """Rounds until the minimum count ran and the budget is measured."""
    minimum = 1 if quick else (MIN_ROUNDS if not trace else 2)
    sides = 2 if trace else 1
    budget = seconds / (minimum * sides)
    rounds: list = []
    while True:
        done = [r for r in rounds if not trace or r["traced"]]
        measured = sum(r["measured_s"] for r in rounds)
        if len(done) >= minimum and measured >= seconds:
            return rounds
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, seed, budget, traced, len(rounds)))
        last = rounds[-1]
        print(f"[e2e] {workload} round {len(rounds)}"
              f"{' traced' if traced else ''}: setup {last['setup_s']:.3f}s"
              f", {last['results']} results in {last['measured_s']:.3f}s",
              file=sys.stderr, flush=True)


def merge_digests(rounds: list) -> tuple:
    """All rounds' results by operation, and how many disagree."""
    merged: dict = {}
    conflicts = 0
    for rnd in rounds:
        for op_id, value in rnd["digests"].items():
            if merged.setdefault(op_id, value) != value:
                conflicts += 1
    return merged, conflicts


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": f"{platform.system()} {platform.machine()}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see README.md).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (BENCHMARK.json "
                             "run_seconds by default)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: print per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one round per side, one-second budget")
    parser.add_argument("--out", type=Path,
                        help="write the full result (rounds, digests)")
    parser.add_argument("--bless", action="store_true",
                        help="recompute expected.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.bless:
        workdir = OUT / "tmp" / f"bless-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        _run_child(["--bless", str(HERE / "expected.json")], workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = _spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seconds = 1.0 if args.quick else (
        args.seconds if args.seconds is not None else spec["run_seconds"])
    rounds = run(args.workload, args.seed, seconds, bool(args.trace),
                 args.quick)
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    values = (per_layer(untraced, traced) if args.trace
              else end_to_end(untraced))
    unknown = [m["name"] for m in declared if m["name"] not in values]
    if unknown:
        print(f"error: BENCHMARK.json names metrics this benchmark does "
              f"not compute: {unknown}", file=sys.stderr)
        return 2

    digests, conflicts = merge_digests(rounds)
    failed = sum(r["failed"] for r in rounds) + conflicts
    for rnd in rounds:
        for error in rnd["errors"][:20]:
            print(f"[e2e] {args.workload}: {error}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "rounds": [r["trace"] for r in traced]}))
    if args.out is not None:
        details = dict(result, workload=args.workload, seed=args.seed,
                       seconds=seconds, trace=args.trace, host=_host(),
                       values=values, digests=digests,
                       rounds=[{k: v for k, v in r.items()
                                if k not in ("trace", "digests")}
                               for r in rounds])
        if args.trace:
            details["layers"] = [layer_values(r) for r in traced]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
