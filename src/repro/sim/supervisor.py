"""Supervised execution for the batch engine: watchdogs, retries, fallback.

``repro.sim.runner.run_batch`` delegates the actual execution of cache
misses to :func:`supervise`, which runs each under supervision:

- **Watchdog** — each run gets ``REPRO_RUN_TIMEOUT`` seconds (unset or
  <= 0 disables).  In a pool, workers report ``(run index, pid)`` over a
  queue when they pick up a task, so the parent can time each run and
  ``SIGKILL`` a hung worker.  Serially, a ``SIGALRM`` interval timer
  raises a ``BaseException``-derived timeout the simulator cannot
  swallow (POSIX main thread only; otherwise serial runs are untimed).
- **Retry** — transient failures retry with exponential backoff and
  deterministic jitter up to ``REPRO_MAX_RETRIES`` extra attempts.
  *Permanent* errors (``ValueError``/``TypeError``/... — bad requests,
  malformed traces) fail immediately.  Timeouts are terminal by default;
  with mid-run snapshots enabled (``REPRO_SNAPSHOT_EVERY``) they retry
  like other transients — a resumed attempt continues from the last
  checkpoint instead of re-spending the whole budget — and finalize with
  ``TIMEOUT`` status when retries are exhausted.
- **Pool degradation** — a ``BrokenProcessPool`` rebuilds the pool once;
  a second break degrades to in-process serial execution.  Runs that
  were merely in flight when the pool broke are requeued without an
  attempt penalty; the penalty is charged only when exactly one run was
  started-and-unfinished (unambiguous attribution) and the break was not
  caused by our own watchdog kill.
- **Structured outcomes** — every request resolves to a
  :class:`RunOutcome` (``ok``/``failed``/``timeout``/``skipped``) with a
  :class:`RunFailure` record (exception class, traceback, attempts,
  worker pid) on failure, and completed runs are checkpointed through an
  ``on_result`` callback as they finish, so a killed batch resumes from
  the on-disk cache.

Exceptions raised by a run cross the process boundary as a payload dict
(with the original exception pickled best-effort) rather than through
the future, so an ordinary failure can never poison the pool.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback as traceback_mod
import warnings
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

from repro.sim import config, faults
from repro.sim.metrics import RunMetrics

DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF_S = 0.05

#: Exception types that no retry can cure: bad requests, bad traces.
PERMANENT_EXCEPTIONS = (ValueError, TypeError, KeyError, AttributeError,
                        NotImplementedError)

OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"
SKIPPED = "skipped"


def max_retries() -> int:
    """Extra attempts per run: ``REPRO_MAX_RETRIES`` (default 2)."""
    return max(0, config.env_int("REPRO_MAX_RETRIES", DEFAULT_MAX_RETRIES))


def run_timeout() -> Optional[float]:
    """Per-run watchdog seconds: ``REPRO_RUN_TIMEOUT`` (unset/<=0: off)."""
    value = config.env_float("REPRO_RUN_TIMEOUT", 0.0)
    return value if value > 0 else None


def backoff_delay(run_index: int, attempt: int,
                  base: Optional[float] = None) -> float:
    """Exponential backoff with deterministic per-(run, attempt) jitter."""
    if base is None:
        base = config.env_float("REPRO_RETRY_BACKOFF", DEFAULT_BACKOFF_S)
    jitter = zlib.crc32(f"{run_index}:{attempt}".encode()) % 1024 / 1024
    return base * (2 ** attempt) * (1.0 + jitter)


# ----------------------------------------------------------------------
# Outcome records
# ----------------------------------------------------------------------

@dataclass
class RunFailure:
    """Structured record of why a run failed."""

    kind: str                 # "error" | "crash" | "timeout"
    exc_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    worker_pid: Optional[int] = None
    run_index: int = -1
    permanent: bool = False
    exc_bytes: Optional[bytes] = field(default=None, repr=False)

    def describe(self) -> str:
        pid = f" pid={self.worker_pid}" if self.worker_pid else ""
        return (f"{self.kind}: {self.exc_type}: {self.message} "
                f"(attempt {self.attempts}{pid})")

    def to_dict(self) -> dict:
        """JSON-safe view of the failure (``exc_bytes`` is dropped —
        pickled exceptions don't survive serialization boundaries)."""
        return {
            "kind": self.kind,
            "exc_type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "worker_pid": self.worker_pid,
            "run_index": self.run_index,
            "permanent": self.permanent,
        }


class RunFailureError(RuntimeError):
    """Raised by strict batches for failures whose original exception
    could not be transported across the process boundary."""


class RunTimeoutError(RunFailureError):
    """Raised by strict batches when a run exceeded the watchdog."""


@dataclass
class RunOutcome:
    """Final disposition of one scheduled run (or cached request)."""

    status: str                       # OK | FAILED | TIMEOUT | SKIPPED
    metrics: Optional[RunMetrics] = None
    failure: Optional[RunFailure] = None
    attempts: int = 0
    source: str = "simulated"         # simulated | memo | disk | dedupe

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class SupervisorStats:
    """What the supervision layer had to do for one batch."""

    retries: int = 0
    timeouts: int = 0
    failed: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False


def _label(request) -> str:
    workload = request.workload
    if isinstance(workload, tuple):
        workload = "+".join(spec.name for spec in workload)
    return f"{getattr(workload, 'name', workload)}/{request.variant}"


@dataclass
class BatchResult:
    """Per-request outcomes of a non-strict batch, in request order."""

    outcomes: List[RunOutcome]
    requests: List = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def metrics(self) -> List[Optional[RunMetrics]]:
        return [o.metrics for o in self.outcomes]

    @property
    def failures(self) -> List[Tuple[int, RunFailure]]:
        return [(i, o.failure) for i, o in enumerate(self.outcomes)
                if o.failure is not None]

    def counts(self) -> Dict[str, int]:
        counts = {OK: 0, FAILED: 0, TIMEOUT: 0, SKIPPED: 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def summary_line(self) -> str:
        counts = self.counts()
        parts = [f"{counts[s]} {s}" for s in (FAILED, TIMEOUT, SKIPPED)
                 if counts[s]]
        detail = f" ({', '.join(parts)})" if parts else ""
        return (f"batch: {counts[OK]}/{len(self.outcomes)} ok{detail}")

    def describe_failures(self) -> List[str]:
        lines = []
        for index, failure in self.failures:
            label = (_label(self.requests[index])
                     if index < len(self.requests) else f"request {index}")
            lines.append(f"  FAILED {label}: {failure.describe()}")
        return lines


def reraise(outcome: RunOutcome) -> None:
    """Re-raise a failed outcome's original exception (strict mode)."""
    failure = outcome.failure
    if failure is None:
        raise RunFailureError("run failed without a failure record")
    if failure.exc_bytes is not None:
        try:
            exc = pickle.loads(failure.exc_bytes)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            raise exc
    if outcome.status == TIMEOUT:
        raise RunTimeoutError(failure.describe())
    raise RunFailureError(f"{failure.exc_type}: {failure.message}\n"
                          f"{failure.traceback}")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

_REPORT_QUEUE = None


def _pool_worker_init(report_queue) -> None:
    """Initializer for supervised pool workers."""
    global _REPORT_QUEUE
    _REPORT_QUEUE = report_queue
    os.environ["REPRO_IN_WORKER"] = "1"
    faults.mark_pool_worker()


def _failure_payload(exc: BaseException, pid: int,
                     kind: str = "error") -> dict:
    permanent = (isinstance(exc, PERMANENT_EXCEPTIONS)
                 and not isinstance(exc, faults.InjectedError))
    try:
        exc_bytes = pickle.dumps(exc)
    except Exception:
        exc_bytes = None
    return {
        "ok": False,
        "kind": kind,
        "pid": pid,
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback_mod.format_exc(),
        "permanent": permanent,
        "exc_bytes": exc_bytes,
    }


def _worker_run(task: tuple) -> dict:
    """Execute one (index, request, attempt, actions) task in a worker.

    All ordinary exceptions are converted into a payload dict so they
    never travel through the future (and can never poison the pool).
    """
    from repro.sim.runner import _execute
    index, request, attempt, actions = task
    pid = os.getpid()
    if _REPORT_QUEUE is not None:
        try:
            _REPORT_QUEUE.put(("start", index, pid, attempt))
        except Exception:
            pass
    faults.arm(actions, attempt)
    try:
        metrics = _execute(request)
        return {"ok": True, "pid": pid, "metrics": metrics}
    except faults.InjectedCrash as exc:
        return _failure_payload(exc, pid, kind="crash")
    except Exception as exc:
        return _failure_payload(exc, pid)
    finally:
        faults.disarm()


def _failure_from_payload(payload: dict, run_index: int,
                          attempts: int) -> RunFailure:
    return RunFailure(
        kind=payload["kind"],
        exc_type=payload["exc_type"],
        message=payload["message"],
        traceback=payload.get("traceback", ""),
        attempts=attempts,
        worker_pid=payload.get("pid"),
        run_index=run_index,
        permanent=payload.get("permanent", False),
        exc_bytes=payload.get("exc_bytes"),
    )


# ----------------------------------------------------------------------
# Serial watchdog (SIGALRM)
# ----------------------------------------------------------------------

class _SerialTimeout(BaseException):
    """Raised by the SIGALRM watchdog; BaseException so no ``except
    Exception`` inside the simulator can swallow it."""


def _serial_watchdog_available(warn: bool = False) -> bool:
    """Whether the SIGALRM serial watchdog can be armed here.

    Signal handlers can only be installed on the POSIX main thread.  With
    ``warn=True``, an unarmable watchdog (while a timeout is configured)
    emits a RuntimeWarning instead of silently running untimed — the
    caller asked for a watchdog it cannot have.
    """
    available = (hasattr(signal, "SIGALRM")
                 and threading.current_thread() is threading.main_thread())
    if not available and warn:
        warnings.warn(
            "serial watchdog disabled: SIGALRM requires the POSIX main "
            "thread; serial runs will not be timed",
            RuntimeWarning, stacklevel=3)
    return available


def _execute_with_alarm(execute: Callable, request, timeout: float):
    def _on_alarm(signum, frame):
        raise _SerialTimeout()

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except (ValueError, OSError):
        # Lost the main thread between the availability probe and now
        # (or the platform refuses): run untimed rather than crash.
        warnings.warn(
            "serial watchdog disabled: SIGALRM handler could not be "
            "installed; this run is not timed",
            RuntimeWarning, stacklevel=2)
        return execute(request)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute(request)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Pool construction (module-level so tests can monkeypatch it)
# ----------------------------------------------------------------------

def _make_pool(width: int):
    """Build a supervised pool plus its worker->parent report queue."""
    ctx = mp.get_context()
    report_queue = ctx.Queue()
    pool = ProcessPoolExecutor(max_workers=width, mp_context=ctx,
                               initializer=_pool_worker_init,
                               initargs=(report_queue,))
    return pool, report_queue


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

#: Pool lifetimes before degrading to serial: the initial pool plus one
#: rebuild, per the failure-semantics contract.
_MAX_POOL_LIVES = 2


class _Supervisor:
    def __init__(self, requests: Sequence, width: int,
                 timeout: Optional[float], retries: int,
                 plan: Optional[faults.FaultPlan],
                 on_result: Optional[Callable[[int, RunMetrics], None]],
                 fail_fast: bool):
        self.requests = list(requests)
        self.width = width
        self.timeout = timeout
        self.retries = retries
        self.plan = plan
        self.on_result = on_result
        self.fail_fast = fail_fast
        n = len(self.requests)
        self.outcomes: List[Optional[RunOutcome]] = [None] * n
        self.attempts = [0] * n
        self.not_before = [0.0] * n
        self.stats = SupervisorStats()
        self._stop_new = False
        self._kill_initiated = False
        # With mid-run snapshots on, a timed-out run retries and resumes
        # from its last checkpoint; without them a retry would re-spend
        # the whole budget just to time out again, so it stays terminal.
        from repro.sim import snapshot
        self._retry_timeouts = snapshot.snapshot_enabled()

    # -- helpers -------------------------------------------------------

    def _actions(self, index: int) -> Tuple[faults.FaultAction, ...]:
        if self.plan is None:
            return ()
        return self.plan.checkpoint_actions(index)

    def _unfinished(self) -> List[int]:
        return [i for i, o in enumerate(self.outcomes) if o is None]

    def _eligible(self, now: float) -> List[int]:
        if self._stop_new:
            return []
        return [i for i in self._unfinished() if self.not_before[i] <= now]

    def _finalize_ok(self, index: int, metrics: RunMetrics) -> None:
        self.attempts[index] += 1
        self.outcomes[index] = RunOutcome(
            status=OK, metrics=metrics, attempts=self.attempts[index])
        if self.on_result is not None:
            self.on_result(index, metrics)

    def _finalize_failure(self, index: int, failure: RunFailure,
                          status: str = FAILED) -> None:
        failure.attempts = self.attempts[index]
        failure.run_index = index
        self.outcomes[index] = RunOutcome(
            status=status, failure=failure, attempts=self.attempts[index])
        if status == TIMEOUT:
            self.stats.timeouts += 1
        else:
            self.stats.failed += 1
            if failure.kind == "crash":
                self.stats.crashes += 1
        if self.fail_fast:
            self._stop_new = True

    def _record_attempt_failure(self, index: int,
                                failure: RunFailure) -> None:
        """Charge one failed attempt; schedule a retry or finalize."""
        self.attempts[index] += 1
        transient = not failure.permanent
        if transient and self.attempts[index] <= self.retries:
            self.stats.retries += 1
            self.not_before[index] = (
                time.monotonic()
                + backoff_delay(index, self.attempts[index] - 1))
            return
        self._finalize_failure(
            index, failure,
            status=TIMEOUT if failure.kind == "timeout" else FAILED)

    def _timeout_failure(self, index: int,
                         pid: Optional[int]) -> RunFailure:
        return RunFailure(
            kind="timeout", exc_type="TimeoutError",
            message=f"run exceeded the {self.timeout:g}s watchdog",
            worker_pid=pid, run_index=index)

    # -- pool phase ----------------------------------------------------

    def _pool_phase(self) -> None:
        pool_lives = 0
        while self._unfinished() and not self._stop_new:
            if pool_lives >= _MAX_POOL_LIVES:
                return  # degrade to serial
            try:
                pool, report_queue = _make_pool(self.width)
            except OSError:
                return
            if pool_lives > 0:
                self.stats.pool_rebuilds += 1
            pool_lives += 1
            self._kill_initiated = False
            broke = self._drive(pool, report_queue)
            if not broke:
                return

    def _drive(self, pool, report_queue) -> bool:
        """Run the batch on one pool lifetime; True if the pool broke."""
        futures: Dict[object, int] = {}
        submitted = set()
        running: Dict[int, Tuple[int, float]] = {}   # idx -> (pid, t0)
        broke = False
        try:
            while True:
                now = time.monotonic()
                for index in self._eligible(now):
                    if index in submitted:
                        continue
                    task = (index, self.requests[index],
                            self.attempts[index], self._actions(index))
                    try:
                        future = pool.submit(_worker_run, task)
                    except (BrokenProcessPool, RuntimeError):
                        broke = True
                        break
                    futures[future] = index
                    submitted.add(index)
                if broke:
                    break
                # Wait on every uncollected future: wait() hands back
                # already-done ones immediately, so a future that
                # completed while the parent was busy (checkpointing,
                # draining reports) is collected on the next pass
                # instead of being orphaned.
                pending = list(futures)
                if not pending:
                    waiting = [i for i in self._unfinished()
                               if i not in submitted]
                    if not waiting or self._stop_new:
                        break
                    # Everything left is backing off: sleep to the
                    # soonest retry release.
                    soonest = min(self.not_before[i] for i in waiting)
                    time.sleep(max(0.0, min(soonest - now, 0.5)))
                    continue
                done, _ = wait(pending, timeout=0.05,
                               return_when=FIRST_COMPLETED)
                self._drain_reports(report_queue, running)
                for future in done:
                    index = futures.pop(future)
                    running.pop(index, None)
                    if self.outcomes[index] is not None:
                        continue  # watchdog already resolved it
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broke = True
                        submitted.discard(index)   # requeue, no penalty
                        continue
                    if payload.get("ok"):
                        self._finalize_ok(index, payload["metrics"])
                    else:
                        self._record_attempt_failure(
                            index, _failure_from_payload(
                                payload, index, self.attempts[index] + 1))
                        if self.outcomes[index] is None:
                            submitted.discard(index)  # retry later
                if broke:
                    break
                self._reap_hung(running, submitted)
        finally:
            self._drain_reports(report_queue, running)
            if broke:
                self._harvest_done(futures, running)
                self._attribute_break(futures, submitted, running)
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            try:
                report_queue.close()
                report_queue.cancel_join_thread()
            except Exception:
                pass
        return broke

    def _drain_reports(self, report_queue,
                       running: Dict[int, Tuple[int, float]]) -> None:
        while True:
            try:
                kind, index, pid, attempt = report_queue.get_nowait()
            except Exception:
                return
            # Reports travel on a separate queue from results, so a
            # "start" can arrive after that attempt already failed and
            # a retry was scheduled.  Only the report matching the
            # current attempt may (re)arm the watchdog — a stale one
            # would reset t0 and aim a future SIGKILL at a pid that is
            # by now running a different task.
            if (kind == "start" and self.outcomes[index] is None
                    and attempt == self.attempts[index]):
                running[index] = (pid, time.monotonic())

    def _harvest_done(self, futures: Dict[object, int],
                      running: Dict[int, Tuple[int, float]]) -> None:
        """Collect payloads that completed before a pool break.

        A crash breaks only unfinished futures; payloads already in
        hand must not be discarded with the pool.  Successes would be
        re-simulated, and failures would lose their record and attempt
        charge — letting a permanent error re-execute for free in the
        next pool lifetime instead of failing immediately.
        """
        for future, index in list(futures.items()):
            if not future.done() or self.outcomes[index] is not None:
                continue
            try:
                payload = future.result()
            except Exception:
                continue
            running.pop(index, None)
            futures.pop(future)
            if payload.get("ok"):
                self._finalize_ok(index, payload["metrics"])
            else:
                self._record_attempt_failure(
                    index, _failure_from_payload(
                        payload, index, self.attempts[index] + 1))

    def _reap_hung(self, running: Dict[int, Tuple[int, float]],
                   submitted: Optional[set] = None) -> None:
        """SIGKILL workers whose current run exceeded the watchdog."""
        if self.timeout is None:
            return
        now = time.monotonic()
        for index, (pid, started) in list(running.items()):
            if self.outcomes[index] is not None:
                running.pop(index, None)
                continue
            if now - started > self.timeout:
                if self._retry_timeouts:
                    # Snapshots enabled: charge the attempt, retry —
                    # the resumed attempt continues from the last
                    # checkpoint the killed worker flushed to disk.
                    self._record_attempt_failure(
                        index, self._timeout_failure(index, pid))
                    if self.outcomes[index] is None and submitted is not None:
                        submitted.discard(index)
                else:
                    self.attempts[index] += 1
                    self._finalize_failure(
                        index, self._timeout_failure(index, pid),
                        status=TIMEOUT)
                running.pop(index, None)
                self._kill_initiated = True
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass

    def _attribute_break(self, futures: Dict[object, int],
                         submitted: set,
                         running: Dict[int, Tuple[int, float]]) -> None:
        """Requeue in-flight victims of a pool break.

        An attempt penalty is charged only when exactly one run was
        started-and-unfinished at break time (the crash is unambiguously
        its doing) and the break was not our own watchdog kill.
        Everything else is requeued for free — an innocent neighbour
        must not burn its retry budget on someone else's crash.
        """
        victims = [i for i in running
                   if self.outcomes[i] is None and i in submitted]
        for future, index in list(futures.items()):
            if self.outcomes[index] is None:
                submitted.discard(index)
        if self._kill_initiated or len(victims) != 1:
            return
        index = victims[0]
        pid = running[index][0]
        self._record_attempt_failure(index, RunFailure(
            kind="crash", exc_type="BrokenProcessPool",
            message="worker process died unexpectedly",
            worker_pid=pid, run_index=index))

    # -- serial phase --------------------------------------------------

    def _serial_phase(self, fallback: bool) -> None:
        from repro.sim.runner import _execute
        remaining = self._unfinished()
        if fallback and remaining and not self._stop_new:
            self.stats.serial_fallback = True
        # Arm (or warn about) the watchdog only when runs are left for it.
        use_alarm = (bool(remaining) and self.timeout is not None
                     and _serial_watchdog_available(warn=True))
        progress = True
        while remaining and progress:
            progress = False
            for index in list(remaining):
                if self.outcomes[index] is not None or self._stop_new:
                    continue
                delay = self.not_before[index] - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                faults.arm(self._actions(index), self.attempts[index])
                try:
                    if use_alarm:
                        metrics = _execute_with_alarm(
                            _execute, self.requests[index], self.timeout)
                    else:
                        metrics = _execute(self.requests[index])
                except _SerialTimeout:
                    if self._retry_timeouts:
                        self._record_attempt_failure(
                            index,
                            self._timeout_failure(index, os.getpid()))
                    else:
                        self.attempts[index] += 1
                        self._finalize_failure(
                            index,
                            self._timeout_failure(index, os.getpid()),
                            status=TIMEOUT)
                except faults.InjectedCrash as exc:
                    self._record_attempt_failure(
                        index, _failure_from_payload(
                            _failure_payload(exc, os.getpid(),
                                             kind="crash"),
                            index, self.attempts[index] + 1))
                except Exception as exc:
                    self._record_attempt_failure(
                        index, _failure_from_payload(
                            _failure_payload(exc, os.getpid()),
                            index, self.attempts[index] + 1))
                else:
                    self._finalize_ok(index, metrics)
                finally:
                    faults.disarm()
                progress = True
            remaining = self._unfinished()
            if self._stop_new:
                break

    # -- entry ---------------------------------------------------------

    def run(self) -> Tuple[List[RunOutcome], SupervisorStats]:
        if self.width > 1 and self.requests:
            self._pool_phase()
        self._serial_phase(fallback=self.width > 1)
        for index in self._unfinished():
            self.outcomes[index] = RunOutcome(
                status=SKIPPED, attempts=self.attempts[index])
        return list(self.outcomes), self.stats


def supervise(requests: Sequence, width: int,
              timeout: Optional[float], retries: int,
              plan: Optional[faults.FaultPlan] = None,
              on_result: Optional[Callable[[int, RunMetrics], None]] = None,
              fail_fast: bool = False
              ) -> Tuple[List[RunOutcome], SupervisorStats]:
    """Execute *requests* under supervision; see the module docstring.

    Each request runs as ``runner._execute(request)``: one simulation,
    returning its ``RunMetrics`` (a ``MixResult`` for a mix).  Returns
    one :class:`RunOutcome` per request (in order), plus the
    :class:`SupervisorStats` describing retries/timeouts/degradations.
    ``on_result(index, metrics)`` is invoked as each run completes so
    the caller can checkpoint incrementally.
    """
    supervisor = _Supervisor(requests, width, timeout, retries, plan,
                             on_result, fail_fast)
    return supervisor.run()
