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
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

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
from repro.sim.simulator import simulate_workload
from repro.workloads.suites import WorkloadSpec

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

def _freeze(value):
    """Recursively convert a value into a hashable, order-stable tuple."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((f.name, _freeze(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
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


def _coerce(request) -> RunRequest:
    if isinstance(request, RunRequest):
        return request
    if isinstance(request, dict):
        return RunRequest(**request)
    raise TypeError(f"expected RunRequest or dict, got {type(request)!r}")


def run_batch(requests: Iterable[Union[RunRequest, dict]],
              jobs: Optional[int] = None,
              use_cache: bool = True,
              strict: bool = True,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              fail_fast: Optional[bool] = None
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
    nothing is read from or written to either cache.

    With ``strict=True`` (the default) the first failure re-raises its
    original exception and a plain list of results is returned in
    request order.  With ``strict=False`` a :class:`BatchResult` of
    per-request :class:`RunOutcome` records is returned and no exception
    propagates.  ``fail_fast`` (default: the value of ``strict``)
    controls whether remaining runs are skipped after the first failure.
    """
    batch_start = time.perf_counter()
    reqs = [_coerce(r).resolved() for r in requests]
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

    def _checkpoint(index: int, metrics) -> None:
        key, req = pending[index]
        cores = len(req.workload) if isinstance(req.workload, tuple) else 1
        _STATS.simulated += 1
        _STATS.sim_wall_s += metrics.wall_time_s
        _STATS.simulated_accesses += req.n_accesses * cores
        if use_cache:
            _CACHE[key] = metrics
            disk_cache.store(key, metrics)
            for _ in plan.post_store_actions(index) if plan else ():
                faults.corrupt_file(disk_cache.entry_path(key))

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
                plan=plan, on_result=_checkpoint,
                fail_fast=strict if fail_fast is None else fail_fast)
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
