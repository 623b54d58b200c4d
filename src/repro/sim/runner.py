"""Experiment engine: batched, parallel, persistently cached simulation.

The benchmarks regenerate many figures from overlapping sets of runs (e.g.
the SPP-original baseline appears in Figs. 4, 5, 8, 10, 11, 12).  The
engine removes that redundancy at three levels:

1. **Deduplication** — ``run_batch`` collapses requests with identical
   fingerprints, so a shared baseline is simulated once per batch.
2. **Caching** — finished ``RunMetrics`` are memoised in-process *and*
   persisted to a content-addressed on-disk cache (``repro.sim.cache``),
   so they survive across pytest sessions and CLI invocations.
3. **Parallelism** — unique uncached runs are fanned out over worker
   processes, ``REPRO_JOBS`` of them (default: all cores; ``1``
   recovers the serial path), then results fan back in request order.
   Runs are deterministic (see the stable allocator seeding in
   ``repro.sim.simulator``), so parallel metrics are bitwise-equal to
   serial ones.
4. **Supervision** — execution is delegated to ``repro.sim.supervisor``:
   per-run watchdog timeouts (``REPRO_RUN_TIMEOUT``), retry with
   exponential backoff for transient failures (``REPRO_MAX_RETRIES``),
   a fresh worker in place of one that died, charged to the one run it
   held, and per-completion checkpointing to the on-disk cache so a
   killed batch resumes where it left off.  ``run_batch(strict=False)``
   returns a ``BatchResult`` of per-request outcomes instead of raising
   on the first failure; deterministic fault injection
   (``REPRO_FAULTS``, see ``repro.sim.faults``) exercises every one of
   those paths.  A Figs. 14/15 multi-core mix is one request like any
   other.

``run``/``speedup``/``speedups_over_baseline``/``variant_sweep``/
``run_many``/``pair_metrics`` are all thin frontends over ``run_batch``.

User parameters become a request through one rule,
:func:`parse_run_request`: a ``repro serve`` ``/submit`` body, a
campaign cell and the ``repro run``/``compare`` flags all pass through
it, so each names a run the same way, and so the same cache address.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.factory import PREFETCHERS, VARIANTS
from repro.sim import cache as disk_cache
from repro.sim import config
from repro.sim import faults, supervisor
from repro.sim.supervisor import (   # re-exported for callers
    BatchResult,
    RunFailure,
    RunOutcome,
)
from repro.sim.config import DuelingConfig, SystemConfig, accesses_for_scale
from repro.sim.metrics import MixResult, RunMetrics
from repro.sim.simulator import L1D_PREFETCHERS, simulate_workload
from repro.workloads.suites import WorkloadSpec, catalog

_CACHE: Dict[tuple, RunMetrics] = {}

#: Set in workers so nested engine calls never start workers of their own.
_IN_WORKER_ENV = "REPRO_IN_WORKER"


def job_count() -> int:
    """Batch width: ``REPRO_JOBS`` env, default ``os.cpu_count()``."""
    if os.environ.get(_IN_WORKER_ENV):
        return 1
    jobs = config.env_int("REPRO_JOBS", 0)
    return jobs if jobs > 0 else (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

#: Types ``_freeze`` returns as they are (exact types, not subclasses).
_LEAF_TYPES = frozenset((int, float, str, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """The field names of dataclass *cls*, or None for any other type
    (looked up once per class, not once per value)."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return None


def _freeze(value):
    """Recursively convert a value into a hashable, order-stable tuple."""
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    names = _field_names(cls)
    if names is not None:
        return tuple((name, _freeze(getattr(value, name)))
                     for name in names)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


@dataclass
class RunRequest:
    """One (workload, prefetcher, variant, configuration) simulation.

    A tuple of ``WorkloadSpec``s, one per core, is a mix on the caller's
    ``multicore_config`` (``resolved`` does not scale it); a mix honours
    only ``prefetcher``, ``variant``, ``n_accesses``, ``config``, ``dueling``.
    """

    workload: Union[str, WorkloadSpec, Tuple[WorkloadSpec, ...]]
    prefetcher: str = "spp"
    variant: str = "psa"
    l1d: str = "none"
    oracle_page_size: bool = False
    n_accesses: Optional[int] = None
    table_scale: float = 1.0
    gb_fraction: float = 0.0
    config: Optional[SystemConfig] = None
    dueling: Optional[DuelingConfig] = None

    def resolved(self) -> "RunRequest":
        """Fill scale/config defaults so the fingerprint is self-contained.

        A ``dueling`` override moves into ``config.dueling``, so the two
        spellings of one Set-Dueling setting share one key.
        """
        config = self.config if self.config is not None else SystemConfig()
        if self.dueling is not None:
            config = dataclasses.replace(config, dueling=self.dueling)
        workload = self.workload
        if isinstance(workload, list):
            workload = tuple(workload)
        return dataclasses.replace(
            self, workload=workload,
            n_accesses=(self.n_accesses if self.n_accesses is not None
                        else accesses_for_scale()),
            config=config, dueling=None)

    def key(self) -> tuple:
        """Complete fingerprint, derived automatically from every field.

        ``_freeze`` recurses through the request and all nested dataclasses
        (``SystemConfig``, its cache/TLB/DRAM/dueling members, a
        ``WorkloadSpec`` workload), so adding a knob anywhere automatically
        widens the key — two different configurations can never collide.
        """
        return ("run", _freeze(self.resolved()))


# ----------------------------------------------------------------------
# Parameters -> requests
# ----------------------------------------------------------------------

class RequestError(ValueError):
    """Run parameters that name no valid run: ``/submit`` answers it
    with HTTP 400, and the CLI exits 2."""


#: The run parameters a request names directly.  A parameter mapping
#: holds these plus ``config``: dotted ``SystemConfig`` paths
#: (``llc.size_bytes``, ``dram.transfer_rate_mts``) to scalar overrides.
REQUEST_AXES = ("workload", "prefetcher", "variant", "l1d",
                "oracle_page_size", "n_accesses", "table_scale",
                "gb_fraction")


@functools.lru_cache(maxsize=None)
def known_workloads() -> frozenset:
    """Workload names a request may name (catalog build memoised)."""
    return frozenset(catalog(include_non_intensive=True))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _check_choice(name: str, value, choices) -> None:
    _require(isinstance(value, str),
             f"{name!r} must be a string, got {type(value).__name__}")
    if value not in choices:
        raise RequestError(
            f"unknown {name} {value!r} (choose from "
            f"{sorted(choices)})")


def _check_number(name: str, value, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            f"{name!r} must be a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise RequestError(f"{name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise RequestError(f"{name!r} must be <= {maximum}, got {value}")
    return value


def resolve_config_attr(config: SystemConfig, path: str):
    """Walk a dotted SystemConfig attribute path to (owner, leaf name)."""
    parts = path.split(".")
    obj = config
    for part in parts[:-1]:
        if not hasattr(obj, part):
            raise RequestError(
                f"unknown configuration path {path!r} "
                f"(no attribute {part!r} on {type(obj).__name__})")
        obj = getattr(obj, part)
    leaf = parts[-1]
    if not dataclasses.is_dataclass(obj) or not hasattr(obj, leaf):
        raise RequestError(
            f"unknown configuration path {path!r} "
            f"(no field {leaf!r} on {type(obj).__name__})")
    return obj, leaf


def apply_override(config: SystemConfig, path: str, value) -> None:
    """Set one dotted-path override, enforcing type compatibility."""
    obj, leaf = resolve_config_attr(config, path)
    current = getattr(obj, leaf)
    if isinstance(current, bool):
        if not isinstance(value, bool):
            raise RequestError(
                f"configuration path {path!r} expects a bool, "
                f"got {value!r}")
    elif isinstance(current, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise RequestError(
                f"configuration path {path!r} expects an int, "
                f"got {value!r}")
    elif isinstance(current, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise RequestError(
                f"configuration path {path!r} expects a number, "
                f"got {value!r}")
    elif isinstance(current, str):
        if not isinstance(value, str):
            raise RequestError(
                f"configuration path {path!r} expects a string, "
                f"got {value!r}")
    else:
        raise RequestError(
            f"configuration path {path!r} targets a non-scalar field "
            f"({type(current).__name__}); address its scalar leaves "
            f"instead")
    setattr(obj, leaf, value)


def parse_run_request(data) -> RunRequest:
    """Validate one parameter mapping into a resolved :class:`RunRequest`.

    Every field is checked against the registries the engine runs on
    (workload catalog, prefetcher/variant/l1d tables, dotted config
    paths), so a bad value raises :class:`RequestError` here and never
    reaches a worker.  ``table_scale`` and ``gb_fraction`` are read as
    floats, so ``1`` and ``1.0`` name one run.  The request is
    ``resolved()``: its fingerprint is the run's cache address.
    """
    _require(isinstance(data, dict),
             f"submission must be a JSON object, got "
             f"{type(data).__name__}")
    fields = REQUEST_AXES + ("config",)
    unknown = sorted(set(data) - set(fields))
    _require(not unknown,
             f"unknown field(s) {unknown} (expected a subset of "
             f"{list(fields)})")
    _require("workload" in data, "submission needs a 'workload' field")

    workload = data["workload"]
    _check_choice("workload", workload, known_workloads())
    prefetcher = data.get("prefetcher", "spp")
    _check_choice("prefetcher", prefetcher, PREFETCHERS)
    variant = data.get("variant", "psa")
    _check_choice("variant", variant, VARIANTS)
    l1d = data.get("l1d", "none")
    _check_choice("l1d", l1d, L1D_PREFETCHERS)

    oracle = data.get("oracle_page_size", False)
    _require(isinstance(oracle, bool), "'oracle_page_size' must be a bool")

    n_accesses = data.get("n_accesses")
    if n_accesses is not None:
        _require(isinstance(n_accesses, int)
                 and not isinstance(n_accesses, bool)
                 and n_accesses >= 1,
                 f"'n_accesses' must be a positive integer, "
                 f"got {n_accesses!r}")

    table_scale = _check_number(
        "table_scale", data.get("table_scale", 1.0), minimum=0.0)
    _require(table_scale > 0, "'table_scale' must be > 0")
    gb_fraction = _check_number(
        "gb_fraction", data.get("gb_fraction", 0.0),
        minimum=0.0, maximum=1.0)

    config = SystemConfig()
    overrides = data.get("config", {})
    _require(isinstance(overrides, dict),
             "'config' must be an object of dotted-path overrides")
    for path, value in sorted(overrides.items()):
        apply_override(config, path, value)
    if overrides:
        try:
            config.validate()
        except ValueError as exc:
            raise RequestError(f"invalid configuration: {exc}") from exc

    return RunRequest(
        workload, prefetcher, variant, l1d=l1d, oracle_page_size=oracle,
        n_accesses=n_accesses, table_scale=float(table_scale),
        gb_fraction=float(gb_fraction), config=config).resolved()


# ----------------------------------------------------------------------
# Engine statistics
# ----------------------------------------------------------------------

@dataclass
class EngineStats:
    """Cumulative accounting of what the engine did this process."""

    requests: int = 0
    deduped: int = 0          # requests collapsed onto an in-batch twin
    memo_hits: int = 0        # served from the in-process memo
    disk_hits: int = 0        # served from the on-disk cache
    simulated: int = 0        # actually executed (and succeeded)
    sim_wall_s: float = 0.0   # summed per-run wall time (all workers)
    batch_wall_s: float = 0.0  # wall time spent inside run_batch
    simulated_accesses: int = 0  # trace records executed (incl. warmup)
    failed: int = 0           # runs that exhausted retries
    timeouts: int = 0         # runs killed by the watchdog
    retries: int = 0          # extra attempts scheduled
    worker_restarts: int = 0  # dead workers replaced

    @property
    def cache_hits(self) -> int:
        return self.deduped + self.memo_hits + self.disk_hits

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def accesses_per_sec(self) -> float:
        """Aggregate simulation throughput over engine wall time."""
        return (self.simulated_accesses / self.batch_wall_s
                if self.batch_wall_s else 0.0)

    def to_dict(self) -> dict:
        """Machine-readable snapshot: every counter plus the derived
        rates, so campaign tooling and outside scripts never have to
        parse ``summary_line`` text."""
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        data["cache_hits"] = self.cache_hits
        data["cache_hit_rate"] = self.cache_hit_rate
        data["accesses_per_sec"] = self.accesses_per_sec
        return data

    def summary_line(self) -> str:
        line = (f"engine: {self.requests} requests "
                f"({self.simulated} simulated, {self.memo_hits} memo, "
                f"{self.disk_hits} disk, {self.deduped} deduped) | "
                f"cache hit-rate {self.cache_hit_rate * 100:.1f}% | "
                f"{self.simulated_accesses:,} accesses in "
                f"{self.batch_wall_s:.2f}s = "
                f"{self.accesses_per_sec:,.0f} accesses/s")
        if (self.failed or self.timeouts or self.retries
                or self.worker_restarts):
            line += (f" | {self.failed} failed, {self.timeouts} timed out, "
                     f"{self.retries} retried, "
                     f"{self.worker_restarts} worker restarts")
        return line


_STATS = EngineStats()


def engine_stats() -> EngineStats:
    """The process-wide cumulative engine statistics."""
    return _STATS


def reset_engine_stats() -> None:
    global _STATS
    _STATS = EngineStats()


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is left untouched)."""
    _CACHE.clear()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _execute(request: RunRequest) -> Union[RunMetrics, MixResult]:
    """Simulate one resolved request, stamping per-run wall time.

    Armed ``REPRO_FAULTS`` fire first, inside the real run call stack.
    The request's fingerprint doubles as the snapshot key: when
    ``REPRO_SNAPSHOT_EVERY`` is set, a retried/resumed attempt of the
    same request picks up its own mid-run checkpoint automatically.
    """
    faults.checkpoint()
    start = time.perf_counter()
    if isinstance(request.workload, tuple):
        # Run without these, a mix would be cached under a key naming them.
        unsupported = [
            name for name in ("l1d", "oracle_page_size", "table_scale",
                              "gb_fraction")
            if getattr(request, name) != getattr(RunRequest, name)]
        if unsupported:
            raise ValueError(f"a mix cannot set {', '.join(unsupported)}")
        from repro.sim.multicore import simulate_mix  # it imports runner
        result = simulate_mix(list(request.workload), request.config,
                              request.prefetcher, request.variant,
                              request.n_accesses)
    else:
        result = simulate_workload(
            request.workload, config=request.config,
            prefetcher=request.prefetcher, variant=request.variant,
            l1d=request.l1d, oracle_page_size=request.oracle_page_size,
            n_accesses=request.n_accesses, table_scale=request.table_scale,
            gb_fraction=request.gb_fraction, dueling=request.dueling,
            snapshot_key=request.key())
    result.wall_time_s = time.perf_counter() - start
    return result


def run_batch(requests: Iterable[RunRequest],
              jobs: Optional[int] = None,
              use_cache: bool = True,
              strict: bool = True,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              pool: Optional[supervisor.WorkerPool] = None,
              on_outcome: Optional[Callable[[int, RunOutcome], None]] = None
              ) -> Union[List[Union[RunMetrics, MixResult]], BatchResult]:
    """Execute a batch of runs under supervision.

    Requests are deduplicated by fingerprint; unique misses (after the
    in-process memo and the on-disk cache) are scheduled across ``jobs``
    worker processes (default ``REPRO_JOBS``; at least 1) under
    ``repro.sim.supervisor``: per-run watchdog ``timeout`` (default
    ``REPRO_RUN_TIMEOUT``), up to ``retries`` extra attempts for
    transient failures (default ``REPRO_MAX_RETRIES``), a fresh worker
    in place of a dead one, and per-completion cache checkpointing.
    With ``use_cache=False`` every request is simulated fresh and
    nothing is read from or written to either cache.  With a ``pool``
    (``supervisor.WorkerPool``) every miss runs on the pool's workers,
    which outlive the batch, and ``jobs`` is not read.

    With ``strict=True`` (the default) the first failure skips the runs
    not yet started and re-raises its original exception, and a plain
    list of results is returned in request order.  With ``strict=False``
    every run is attempted, a :class:`BatchResult` of per-request
    :class:`RunOutcome` records is returned and no exception propagates.
    ``on_outcome(index, outcome)`` is called once per request, by its
    index in *requests*, as soon as its outcome is final: a cache hit
    before anything runs, a simulated run after its cache checkpoint.
    """
    batch_start = time.perf_counter()
    reqs = [r.resolved() for r in requests]
    keys = [r.key() for r in reqs]
    _STATS.requests += len(reqs)

    outcomes: Dict[tuple, RunOutcome] = {}
    pending: List[Tuple[tuple, RunRequest]] = []
    scheduled = set()
    for key, req in zip(keys, reqs):
        if key in outcomes or key in scheduled:
            _STATS.deduped += 1
            continue
        if use_cache:
            memo = _CACHE.get(key)
            if memo is not None:
                outcomes[key] = RunOutcome(status=supervisor.OK,
                                           metrics=memo, source="memo")
                _STATS.memo_hits += 1
                continue
            disk = disk_cache.load(key)
            if disk is not None:
                outcomes[key] = RunOutcome(status=supervisor.OK,
                                           metrics=disk, source="disk")
                _CACHE[key] = disk
                _STATS.disk_hits += 1
                continue
        scheduled.add(key)
        pending.append((key, req))
    plan = faults.plan_from_env(len(pending)) if pending else None

    positions: Dict[tuple, List[int]] = {}
    if on_outcome is not None:
        for position, key in enumerate(keys):
            positions.setdefault(key, []).append(position)
        for key, outcome in outcomes.items():     # the cache hits
            for position in positions[key]:
                on_outcome(position, outcome)

    def _checkpoint(index: int, outcome: RunOutcome) -> None:
        key, req = pending[index]
        if outcome.ok:
            metrics = outcome.metrics
            cores = (len(req.workload) if isinstance(req.workload, tuple)
                     else 1)
            _STATS.simulated += 1
            _STATS.sim_wall_s += metrics.wall_time_s
            _STATS.simulated_accesses += req.n_accesses * cores
            if use_cache:
                _CACHE[key] = metrics
                disk_cache.store(key, metrics)
                for _ in plan.post_store_actions(index) if plan else ():
                    faults.corrupt_file(disk_cache.entry_path(key))
        for position in positions.get(key, ()):
            on_outcome(position, outcome)

    done: List[RunOutcome] = []
    try:
        if pending:
            done, stats = supervisor.supervise(
                [req for _, req in pending],
                width=max(1, min(jobs if jobs is not None
                                 else job_count(), len(pending))),
                timeout=(supervisor.run_timeout() if timeout is None
                         else (timeout if timeout > 0 else None)),
                retries=(supervisor.max_retries() if retries is None
                         else max(0, retries)),
                plan=plan, on_outcome=_checkpoint,
                fail_fast=strict,
                pool=pool)
            _STATS.retries += stats.retries
            _STATS.failed += stats.failed
            _STATS.timeouts += stats.timeouts
            _STATS.worker_restarts += stats.worker_restarts
    finally:
        _STATS.batch_wall_s += time.perf_counter() - batch_start
    bad = [outcome for outcome in done if not outcome.ok]
    if strict and bad:
        supervisor.reraise(
            next((o for o in bad if o.failure is not None), bad[0]))
    outcomes.update(zip((key for key, _ in pending), done))
    ordered = [outcomes[key] for key in keys]
    if strict:
        return [o.metrics for o in ordered]
    return BatchResult(ordered, requests=reqs)


# ----------------------------------------------------------------------
# Frontends (all batched under the hood)
# ----------------------------------------------------------------------

def run(workload: str, prefetcher: str = "spp", variant: str = "psa",
        config: Optional[SystemConfig] = None, l1d: str = "none",
        oracle_page_size: bool = False, n_accesses: Optional[int] = None,
        table_scale: float = 1.0,
        dueling: Optional[DuelingConfig] = None,
        use_cache: bool = True) -> RunMetrics:
    """Simulate one workload under one configuration (cached)."""
    request = RunRequest(
        workload, prefetcher, variant, l1d=l1d,
        oracle_page_size=oracle_page_size, n_accesses=n_accesses,
        table_scale=table_scale, config=config, dueling=dueling)
    return run_batch([request], use_cache=use_cache)[0]


def _sweep(workloads: List, prefetcher: str, variants: List[str],
           baseline: Optional[Tuple[str, str]], config, n_accesses,
           kwargs: dict) -> Tuple[List[List[RunMetrics]], List[RunMetrics]]:
    """The frontends' one batch: a target per (variant, workload) with
    ``**kwargs``, in that order, then a plain ``baseline`` =
    (prefetcher, variant) run per workload.  Returns the targets as one
    row per variant, and the baselines, each in workload order."""
    use_cache = kwargs.pop("use_cache", True)
    requests = [RunRequest(w, prefetcher, v, config=config,
                           n_accesses=n_accesses, **kwargs)
                for v in variants for w in workloads]
    if baseline is not None:
        requests += [RunRequest(w, *baseline, config=config,
                                n_accesses=n_accesses) for w in workloads]
    metrics = run_batch(requests, use_cache=use_cache)
    n = len(workloads)
    rows = [metrics[i * n:(i + 1) * n] for i in range(len(variants))]
    return rows, metrics[len(variants) * n:]


def speedup(workload: str, prefetcher: str, variant: str,
            baseline_variant: str = "original",
            baseline_prefetcher: Optional[str] = None,
            config: Optional[SystemConfig] = None,
            n_accesses: Optional[int] = None,
            **kwargs) -> float:
    """IPC ratio of (prefetcher, variant) over the baseline variant."""
    [[target]], [base] = _sweep(
        [workload], prefetcher, [variant],
        (baseline_prefetcher or prefetcher, baseline_variant), config,
        n_accesses, kwargs)
    return target.speedup_over(base)


def speedups_over_baseline(workloads: Iterable[str], prefetcher: str,
                           variant: str, baseline_variant: str = "original",
                           config: Optional[SystemConfig] = None,
                           n_accesses: Optional[int] = None,
                           **kwargs) -> Dict[str, float]:
    """Per-workload speedups of one variant over the baseline (one batch)."""
    workloads = list(workloads)
    [targets], bases = _sweep(workloads, prefetcher, [variant],
                              (prefetcher, baseline_variant), config,
                              n_accesses, kwargs)
    return {w: t.speedup_over(b)
            for w, t, b in zip(workloads, targets, bases)}


def variant_sweep(workloads: Iterable[str], prefetcher: str,
                  variants: Iterable[str],
                  baseline_variant: str = "original",
                  config: Optional[SystemConfig] = None,
                  n_accesses: Optional[int] = None,
                  **kwargs) -> Dict[str, Dict[str, float]]:
    """variant -> {workload -> speedup over baseline}, as one batch."""
    workloads = list(workloads)
    variants = list(variants)
    rows, bases = _sweep(workloads, prefetcher, variants,
                         (prefetcher, baseline_variant), config, n_accesses,
                         kwargs)
    return {variant: {w: t.speedup_over(b)
                      for w, t, b in zip(workloads, row, bases)}
            for variant, row in zip(variants, rows)}


def run_many(workloads: Iterable[str], prefetcher: str, variant: str,
             config: Optional[SystemConfig] = None,
             n_accesses: Optional[int] = None,
             **kwargs) -> List[RunMetrics]:
    [row], _ = _sweep(list(workloads), prefetcher, [variant], None, config,
                      n_accesses, kwargs)
    return row


def pair_metrics(workload: str, prefetcher: str, variant: str,
                 baseline_variant: str = "original",
                 config: Optional[SystemConfig] = None,
                 n_accesses: Optional[int] = None,
                 **kwargs) -> Tuple[RunMetrics, RunMetrics]:
    """(variant run, baseline run) for delta metrics (Fig. 10)."""
    [[target]], [base] = _sweep([workload], prefetcher, [variant],
                                (prefetcher, baseline_variant), config,
                                n_accesses, kwargs)
    return target, base


def pair_metrics_many(workloads: Iterable[str], prefetcher: str,
                      variant: str, baseline_variant: str = "original",
                      config: Optional[SystemConfig] = None,
                      n_accesses: Optional[int] = None,
                      **kwargs) -> Dict[str, Tuple[RunMetrics, RunMetrics]]:
    """Batched ``pair_metrics`` across workloads (one engine batch)."""
    workloads = list(workloads)
    [targets], bases = _sweep(workloads, prefetcher, [variant],
                              (prefetcher, baseline_variant), config,
                              n_accesses, kwargs)
    return {w: (t, b) for w, t, b in zip(workloads, targets, bases)}
