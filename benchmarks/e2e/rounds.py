"""One round of an end-to-end benchmark workload, in its own process.

``run.py`` starts this file once per round with a clean environment: a
fresh ``REPRO_CACHE_DIR`` and no other ``REPRO_*`` variable, so a stray
kernel, check or fault setting cannot change what is measured.  A round
sets up (imports, inputs, caches, daemon), runs its timed calls, checks
every result against ``expected.json`` and writes a JSON report.

Inputs are fixed catalogs of operations whose results ``expected.json``
records; the seed picks which of them a round uses and in what order,
so every seed is checkable and costs about the same.  Access counts are
fixed here and never read from ``REPRO_SCALE``.

    python benchmarks/e2e/rounds.py --workload W --seed N --budget S \\
        --spawned-at T --workdir D --out F [--trace]
    python benchmarks/e2e/rounds.py --bless F
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Workloads that anchor the paper's qualitative claims (lbm walks the
#: page table on most accesses; tc.road is a 4KB-grain graph kernel).
ANCHORS = ["lbm", "milc", "tc.road", "soplex"]
#: Suite-balanced sample of the 80-workload catalog.
REPRESENTATIVE = [
    "lbm", "milc", "mcf", "soplex", "bwaves", "GemsFDTD", "libquantum",
    "fotonik3d_s", "roms_s", "cactuBSSN_s", "gcc_s",
    "pr.road", "tc.road", "graph_analytics", "mlpack_cf",
    "qmm_fp_95", "qmm_fp_67", "qmm_fp_87", "qmm_fp_12", "qmm_int_906",
]
FIG9_VARIANTS = ["original", "psa", "psa-sd"]
PREFETCHER = "spp"

#: Cold calls per round.  Call j runs at ``*_ACCESSES + j`` accesses, so
#: every call misses the cache and the trace memo yet costs the same.
COLD_CALLS = 8
#: fig9-cold: cold Fig. 9 sweeps (mcf chases pointers).
COLD_WORKLOADS = ANCHORS + ["mcf", "pr.road"]
COLD_ACCESSES = 2000
#: fig9-warm: one cached sweep replayed into fresh stores.
WARM_EXTRA = 7
WARM_ACCESSES = 1000
#: mix4-cold: Figs. 14/15 mixes; the seed rotates cores within a mix.
MIX_CATALOG_SEED = 7
MIX_COUNT = 4
MIX_CORES = 4
MIX_ACCESSES = 1500
MIX_VARIANTS = ["original", "psa-sd"]
#: serve-mixed: closed loop, every MISS_EVERY-th request a distinct miss.
SERVE_HIT_WORKLOADS = 10
SERVE_HIT_ACCESSES = 2000
SERVE_HIT_VARIANTS = ["original", "psa"]
#: Misses all simulate one workload (distinct access counts), so every
#: miss costs the same whichever the seed draws.
SERVE_MISS_WORKLOAD = "milc"
SERVE_MISS_VARIANT = "psa-sd"
SERVE_MISS_ACCESSES = 4000
SERVE_MISSES = 160
SERVE_THREADS = 2
SERVE_MISS_EVERY = 10
SERVE_TIMEOUT_S = 120.0


class Round:
    """Timing, accounting and result checks of one round."""

    def __init__(self, workload: str, seed: int, budget: float,
                 spawned_at: float, workdir: Path,
                 tracer: Tracer | None) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.budget = budget
        self.spawned_at = spawned_at
        self.workdir = workdir
        self.tracer = tracer
        self.expected = _load_expected().get(workload, {})
        self.setup_s: float | None = None
        self.measured_s: float | None = None
        self.latencies: list = []        # [kind, seconds, results]
        self.rates: list | None = None   # default: one per call
        self.results = 0
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.errors: list = []
        self.trace: dict | None = None
        self.rss_mb: float | None = None     # default: this process
        self.extra: dict = {}
        self._lock = threading.Lock()

    def start(self) -> None:
        """Mark the end of set-up: the first timed call begins now."""
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.spawned_at
            if self.tracer is not None:
                self.tracer.reset()

    def calls(self, cap: int | None = None):
        """Call indices until the timed calls add up to the budget: at
        least one call, at most *cap*."""
        index = 0
        while (index == 0 or sum(s for _, s, _ in self.latencies)
               < self.budget) and (cap is None or index < cap):
            yield index
            index += 1

    @contextlib.contextmanager
    def call(self, op_id: str, kind: str = "call"):
        """Time one call into the system (and trace it as a span).

        The body sets ``sample["results"]`` to the results the call
        delivered; they count towards the round's totals.
        """
        self.start()
        span = (self.tracer.span("call", op_id) if self.tracer is not None
                else contextlib.nullcontext())
        sample = {"results": 0}
        begin = time.perf_counter()
        with span:
            yield sample
        elapsed = time.perf_counter() - begin
        with self._lock:
            self.latencies.append([kind, elapsed, sample["results"]])
            self.results += sample["results"]

    def stop_measuring(self) -> None:
        """End of the timed part: later checks stay out of the trace."""
        if self.measured_s is None:
            self.measured_s = sum(s for _, s, _ in self.latencies)
        if self.rates is None:
            self.rates = [n / s for _, s, n in self.latencies]
        if self.tracer is not None:
            self.trace = self.tracer.dump()

    def check(self, op_id: str, value) -> bool:
        """Compare one result with ``expected.json``; a mismatch fails it."""
        expected = self.expected.get(op_id)
        with self._lock:
            previous = self.digests.setdefault(op_id, value)
            ok = value is not None and value == expected \
                and previous == value
            if not ok:
                self.failed += 1
                self.errors.append(
                    f"{op_id}: got {value!r}, expected {expected!r}")
        return ok

    def report(self) -> dict:
        return {
            "setup_s": self.setup_s, "measured_s": self.measured_s,
            "results": self.results, "attempted": self.attempted,
            "failed": self.failed, "latencies": self.latencies,
            "rates": self.rates,
            "rss_mb": self.rss_mb if self.rss_mb is not None else (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            "digests": self.digests, "errors": self.errors,
            "trace": self.trace, "extra": self.extra,
        }


def _load_expected() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return {}


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# Operation catalogs (what expected.json covers for every seed)
# ----------------------------------------------------------------------

def _warm_workloads(rng: random.Random) -> list:
    others = [w for w in REPRESENTATIVE if w not in ANCHORS]
    return ANCHORS + rng.sample(others, WARM_EXTRA)


def _mixes() -> list:
    from repro.sim.multicore import generate_mixes

    return generate_mixes(MIX_COUNT, MIX_CORES, seed=MIX_CATALOG_SEED)


def _miss_accesses() -> range:
    return range(SERVE_MISS_ACCESSES, SERVE_MISS_ACCESSES + SERVE_MISSES)


def _fig9_campaign(name: str, workloads: list, variants: list,
                   accesses: int):
    from repro.campaign import Campaign

    return Campaign(name, axes={"workload": workloads, "variant": variants},
                    fixed={"prefetcher": PREFETCHER, "n_accesses": accesses})


def _check_store(rnd: Round, campaign, path: Path, suffix: str = "") -> None:
    from repro.campaign import CampaignStore
    from repro.verify.golden import metrics_digest

    with CampaignStore(path) as store:
        stored = store.metrics_for(campaign)
    for cell in campaign.cells():
        params = cell.param_dict()
        metrics = stored.get(cell.index)
        rnd.check(f"{params['workload']}/{params['variant']}{suffix}",
                  metrics_digest(metrics) if metrics is not None else None)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def fig9_cold(rnd: Round) -> None:
    """Cold Fig. 9 sweeps: empty cache and store each, ``jobs=1``."""
    from repro.campaign import CampaignStore, run_missing

    workloads = _shuffled(rnd.rng, COLD_WORKLOADS)
    variants = _shuffled(rnd.rng, FIG9_VARIANTS)
    swept = []
    for index in rnd.calls(COLD_CALLS):
        accesses = COLD_ACCESSES + index
        campaign = _fig9_campaign(f"e2e-fig9-cold-{accesses}", workloads,
                                  variants, accesses)
        path = rnd.workdir / f"sweep-{index}.sqlite"
        with CampaignStore(path) as store:
            with rnd.call(f"sweep-{index}") as sample:
                report = run_missing(campaign, store, jobs=1)
                sample["results"] = report.ok
        rnd.attempted += report.total
        rnd.failed += report.total - report.ok
        swept.append((campaign, path, f"/{accesses}"))
    rnd.stop_measuring()
    for campaign, path, suffix in swept:
        _check_store(rnd, campaign, path, suffix)


def fig9_warm(rnd: Round) -> None:
    """Replay a cached sweep into fresh stores until the budget is spent."""
    from repro.campaign import CampaignStore, run_missing
    from repro.sim import runner

    campaign = _fig9_campaign(
        "e2e-fig9-warm", _shuffled(rnd.rng, _warm_workloads(rnd.rng)),
        _shuffled(rnd.rng, FIG9_VARIANTS), WARM_ACCESSES)
    with CampaignStore(rnd.workdir / "fill.sqlite") as fill:
        filled = run_missing(campaign, fill, jobs=1)
    if not filled.complete:
        raise RuntimeError(f"cache fill failed: {filled.describe()}")
    kept = []
    for index in rnd.calls():
        path = rnd.workdir / f"replay-{index}.sqlite"
        runner.clear_cache()
        with CampaignStore(path) as store:
            with rnd.call(f"replay-{index}") as sample:
                report = run_missing(campaign, store, jobs=1)
                sample["results"] = report.synced
        rnd.attempted += report.total
        rnd.failed += report.total - report.synced
        if report.scheduled:
            rnd.errors.append(f"replay {index} simulated "
                              f"{report.scheduled} cell(s)")
        kept.append(path)
        if len(kept) > 2:                 # keep the first and the latest
            _remove_sqlite(kept.pop(1))
    rnd.stop_measuring()
    for path in kept:
        _check_store(rnd, campaign, path)


def _remove_sqlite(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def mix4_cold(rnd: Round) -> None:
    """Figs. 14/15 mixes through ``simulate_mix``, in a cold process."""
    from repro.sim import multicore
    from repro.sim.config import SystemConfig

    mixes = _mixes()
    config = multicore.multicore_config(SystemConfig(), MIX_CORES)
    rotations = [rnd.rng.randrange(MIX_CORES) for _ in mixes]
    order = _shuffled(rnd.rng, [(i, v) for i in range(len(mixes))
                                for v in MIX_VARIANTS])
    done = []
    for call in rnd.calls(COLD_CALLS):
        accesses = MIX_ACCESSES + call
        with rnd.call(f"mixes-{call}") as sample:
            for index, variant in order:
                rot = rotations[index]
                specs = mixes[index][rot:] + mixes[index][:rot]
                done.append((f"mix{index}/rot{rot}/{variant}/{accesses}",
                             multicore.simulate_mix(specs, config, PREFETCHER,
                                                    variant, accesses)))
                sample["results"] += 1
        rnd.attempted += len(order)
    rnd.stop_measuring()
    for op_id, result in done:
        rnd.check(op_id, list(result.ipcs))


def serve_mixed(rnd: Round) -> None:
    """Closed loop of hits and distinct misses against a daemon process."""
    from repro.sim.runner import RunRequest, run_batch

    hit_workloads = rnd.rng.sample(REPRESENTATIVE, SERVE_HIT_WORKLOADS)
    hits = [(w, v) for w in hit_workloads for v in SERVE_HIT_VARIANTS]
    run_batch([RunRequest(w, PREFETCHER, v, n_accesses=SERVE_HIT_ACCESSES)
               for w, v in hits], jobs=1)
    misses = _shuffled(rnd.rng, _miss_accesses())
    daemon = _Daemon(rnd.workdir, traced=rnd.tracer is not None)
    try:
        port = daemon.start()
        _closed_loop(rnd, port, hits, misses)
        rnd.stop_measuring()
        _collect_daemon_metrics(rnd, port)
        rnd.rss_mb = daemon.peak_rss_mb()
    finally:
        dump = daemon.stop()
    if rnd.trace is not None and dump is not None:
        _merge_daemon_trace(rnd.trace, dump)


def _closed_loop(rnd: Round, port: int, hits: list, misses: list) -> None:
    from repro.serve.client import ServeClient

    deadline = None
    samples: list = [[] for _ in range(SERVE_THREADS)]
    rnd.rates = []

    def drive(thread: int) -> None:
        """Closed loop; each cycle of MISS_EVERY requests ends on a miss
        and yields one throughput sample (all threads at this pace)."""
        client = ServeClient(port=port, client_id=f"e2e-{thread}",
                             timeout=SERVE_TIMEOUT_S)
        rng = random.Random(f"{rnd.seed}:{thread}")
        own_misses = iter(misses[thread::SERVE_THREADS])
        step = 0
        cycle_start = time.perf_counter()
        while time.perf_counter() < deadline:
            if step % SERVE_MISS_EVERY == SERVE_MISS_EVERY - 1:
                accesses = next(own_misses, None)
                if accesses is None:
                    rnd.errors.append(f"thread {thread} ran out of misses")
                    return
                body = {"workload": SERVE_MISS_WORKLOAD,
                        "variant": SERVE_MISS_VARIANT,
                        "n_accesses": accesses}
                kind = "miss"
                op_id = f"miss/{SERVE_MISS_WORKLOAD}/{accesses}"
            else:
                workload, variant = hits[rng.randrange(len(hits))]
                body = {"workload": workload, "variant": variant,
                        "n_accesses": SERVE_HIT_ACCESSES}
                kind, op_id = "hit", f"hit/{workload}/{variant}"
            try:
                with rnd.call(f"{thread}:{step}", kind):
                    response = client.submit_and_wait(
                        body, timeout=SERVE_TIMEOUT_S)
            except Exception as exc:     # counted, the loop goes on
                response = None
                rnd.errors.append(f"{op_id}: {exc}")
            samples[thread].append((kind, op_id, response))
            step += 1
            if kind == "miss":
                now = time.perf_counter()
                rnd.rates.append(SERVE_THREADS * SERVE_MISS_EVERY
                                 / (now - cycle_start))
                cycle_start = now

    threads = [threading.Thread(target=drive, args=(i,))
               for i in range(SERVE_THREADS)]
    rnd.start()
    begin = time.perf_counter()
    deadline = begin + rnd.budget
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rnd.measured_s = time.perf_counter() - begin
    for kind, op_id, response in (s for per in samples for s in per):
        rnd.attempted += 1
        if _served_ok(rnd, kind, op_id, response):
            rnd.results += 1


def _served_ok(rnd: Round, kind: str, op_id: str, response) -> bool:
    from repro.sim.cache import metrics_from_dict
    from repro.verify.golden import metrics_digest

    result = response.result if response is not None else None
    if result is None or result.get("status") != "ok":
        rnd.failed += 1
        rnd.errors.append(f"{op_id}: no ok result "
                          f"({response.body if response else None})")
        return False
    if (result.get("source") == "cache") != (kind == "hit"):
        rnd.failed += 1
        rnd.errors.append(f"{op_id}: served from {result.get('source')}")
        return False
    return rnd.check(op_id, metrics_digest(
        metrics_from_dict(result["metrics"])))


def _collect_daemon_metrics(rnd: Round, port: int) -> None:
    from repro.serve.client import ServeClient

    body = ServeClient(port=port, timeout=30).metrics().body
    rnd.extra["daemon"] = {
        "hit_service_p50_s": body["service_time_s"]["hit"]["p50"],
        "miss_service_p50_s": body["service_time_s"]["miss"]["p50"],
        "worker_utilization": body["worker_utilization"],
    }


def _merge_daemon_trace(trace: dict, dump: dict) -> None:
    """Fold the daemon's layer totals and spans into the round's trace."""
    for layer, (calls, incl, own) in dump["layers"].items():
        totals = trace["layers"].setdefault(layer, [0, 0.0, 0.0])
        totals[0] += calls
        totals[1] += incl
        totals[2] += own
    for name, value in dump["counts"].items():
        trace["counts"][name] = trace["counts"].get(name, 0) + value
    trace["daemon_spans"] = dump["spans"]
    trace["missing_hooks"] = sorted(set(trace["missing_hooks"])
                                    | set(dump["missing_hooks"]))


class _Daemon:
    """``repro serve`` in its own process (traced through ``daemon.py``)."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.workdir = workdir
        self.dump_path = workdir / "daemon-trace.json" if traced else None
        self.proc: subprocess.Popen | None = None
        self._log = None

    def start(self) -> int:
        args = ["serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                "--quota", "0", "--no-doctor", "--log-level", "warning"]
        if self.dump_path is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(HERE / "daemon.py"),
                   str(self.dump_path)] + args
        self._log = open(self.workdir / "daemon.log", "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        return int(line.split("://", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's status")

    def stop(self) -> dict | None:
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
        if self.dump_path is not None and self.dump_path.exists():
            return json.loads(self.dump_path.read_text())
        return None


WORKLOADS = {
    "fig9-cold": fig9_cold,
    "fig9-warm": fig9_warm,
    "mix4-cold": mix4_cold,
    "serve-mixed": serve_mixed,
}


# ----------------------------------------------------------------------
# Expected results
# ----------------------------------------------------------------------

def bless(path: Path) -> None:
    """Compute the result of every operation any seed can draw."""
    from repro.sim import multicore
    from repro.sim.config import SystemConfig
    from repro.sim.runner import RunRequest, run_batch
    from repro.verify.golden import metrics_digest

    def digests(cells: dict) -> dict:
        """op id -> digest for ``{op_id: (workload, variant, accesses)}``."""
        metrics = run_batch([RunRequest(w, PREFETCHER, v, n_accesses=n)
                             for w, v, n in cells.values()],
                            jobs=1, use_cache=False)
        return {op_id: metrics_digest(m) for op_id, m in zip(cells, metrics)}

    cold_accesses = range(COLD_ACCESSES, COLD_ACCESSES + COLD_CALLS)
    cold = digests({f"{w}/{v}/{n}": (w, v, n) for n in cold_accesses
                    for w in COLD_WORKLOADS for v in FIG9_VARIANTS})
    warm = digests({f"{w}/{v}": (w, v, WARM_ACCESSES)
                    for w in REPRESENTATIVE for v in FIG9_VARIANTS})

    serve = digests({f"hit/{w}/{v}": (w, v, SERVE_HIT_ACCESSES)
                     for w in REPRESENTATIVE for v in SERVE_HIT_VARIANTS})
    serve.update(digests({
        f"miss/{SERVE_MISS_WORKLOAD}/{n}":
            (SERVE_MISS_WORKLOAD, SERVE_MISS_VARIANT, n)
        for n in _miss_accesses()}))

    config = multicore.multicore_config(SystemConfig(), MIX_CORES)
    mix = {}
    for n in range(MIX_ACCESSES, MIX_ACCESSES + COLD_CALLS):
        for index, specs in enumerate(_mixes()):
            for rot in range(MIX_CORES):
                rotated = specs[rot:] + specs[:rot]
                for variant in MIX_VARIANTS:
                    result = multicore.simulate_mix(rotated, config,
                                                    PREFETCHER, variant, n)
                    mix[f"mix{index}/rot{rot}/{variant}/{n}"] = \
                        list(result.ipcs)

    payload = {
        "fig9-cold": cold,
        "fig9-warm": warm,
        "mix4-cold": mix,
        "serve-mixed": serve,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--bless", type=Path)
    args = parser.parse_args(argv)
    if args.bless is not None:
        bless(args.bless)
        return 0
    tracer = Tracer().install() if args.trace else None
    rnd = Round(args.workload, args.seed, args.budget,
                args.spawned_at if args.spawned_at is not None
                else time.monotonic(), args.workdir, tracer)
    WORKLOADS[args.workload](rnd)
    args.out.write_text(json.dumps(rnd.report()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
