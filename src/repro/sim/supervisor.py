"""Supervised execution for the batch engine: workers, watchdog, retries.

``repro.sim.runner.run_batch`` delegates the actual execution of cache
misses to :func:`supervise`, which runs each under supervision:

- **Workers** — a batch wider than one run, or any batch with a
  watchdog, runs on up to ``width`` worker processes that the
  supervisor owns.  Each has its own pipe and holds one run at a time,
  so the parent knows which run every worker holds: a worker that dies
  costs exactly its own run one attempt, and a fresh worker takes its
  place at the next dispatch.  An untimed width-1 batch runs
  in-process, and so does the rest of a batch when not even one worker
  process can start.
- **Watchdog** — each run gets ``REPRO_RUN_TIMEOUT`` seconds (unset or
  <= 0 disables), timed from its dispatch.  The parent ``SIGKILL``s the
  worker of a run that outlives it, from whatever thread it runs on.
- **Retry** — transient failures retry with exponential backoff and
  deterministic jitter up to ``REPRO_MAX_RETRIES`` extra attempts.
  *Permanent* errors (``ValueError``/``TypeError``/... — bad requests,
  malformed traces) fail immediately.  Timeouts are terminal by default;
  with mid-run snapshots enabled (``REPRO_SNAPSHOT_EVERY``) they retry
  like other transients — a resumed attempt continues from the last
  checkpoint instead of re-spending the whole budget — and finalize with
  ``TIMEOUT`` status when retries are exhausted.
- **Structured outcomes** — every request resolves to a
  :class:`RunOutcome` (``ok``/``failed``/``timeout``/``skipped``) with a
  :class:`RunFailure` record (exception class, traceback, attempts,
  worker pid) on failure, and completed runs are checkpointed through an
  ``on_result`` callback as they finish, so a killed batch resumes from
  the on-disk cache.

Exceptions raised by a run cross the process boundary as a payload dict
(with the original exception pickled best-effort), so an ordinary
failure never costs a worker.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_mod
import warnings
import zlib
from dataclasses import dataclass, field
from multiprocessing.connection import wait
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
    worker_restarts: int = 0   # dead workers replaced (not watchdog kills)


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
    """Execute one (request, attempt, actions) task in a worker.

    All ordinary exceptions are converted into a payload dict, so only
    the death of the worker process is a crash.
    """
    from repro.sim.runner import _execute
    request, attempt, actions = task
    pid = os.getpid()
    faults.arm(actions, attempt)
    try:
        return {"ok": True, "pid": pid, "metrics": _execute(request)}
    except faults.InjectedCrash as exc:
        return _failure_payload(exc, pid, kind="crash")
    except Exception as exc:
        return _failure_payload(exc, pid)
    finally:
        faults.disarm()


def _worker_main(conn, parent_end) -> None:
    """A worker's life: run each task received, answer with its payload,
    and exit on ``None`` or once the supervisor is gone.

    A forked worker inherits *parent_end*, the supervisor's end of its
    own pipe; closing it lets ``conn.recv`` read EOF when the supervisor
    dies, SIGKILL included, instead of blocking forever.
    """
    parent_end.close()
    os.environ["REPRO_IN_WORKER"] = "1"
    faults.mark_pool_worker()
    try:
        for task in iter(conn.recv, None):
            conn.send(_worker_run(task))
    except (EOFError, OSError):
        pass


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


class _Worker:
    """A worker process that the supervisor owns, with its own pipe.

    It holds at most one run: ``index`` names that run (None while the
    worker is idle) and ``started`` is its dispatch time, the watchdog's
    t0.
    """

    def __init__(self) -> None:
        ctx = mp.get_context()
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main,
                                   args=(child, self.conn), daemon=True)
        try:
            self.process.start()
        except OSError:
            self.conn.close()
            raise
        finally:
            # Only the worker keeps the child end, so the parent's end
            # reads EOF once the worker dies.
            child.close()
        self.index: Optional[int] = None
        self.started = 0.0

    def dispatch(self, index: int, task: tuple) -> None:
        self.conn.send(task)
        self.index = index
        self.started = time.monotonic()

    def close(self) -> None:
        """Stop and reap the worker: an idle one is told to exit, and
        killed if it has not within a second; a busy one is killed.
        Closing the pipe would not stop it, because every worker forked
        later holds a copy of this pipe's parent end."""
        if self.index is None:
            try:
                self.conn.send(None)
            except OSError:
                pass    # already dead
            else:
                self.process.join(1.0)
        self.process.kill()
        self.process.join()
        self.conn.close()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

#: How long the parent waits on its busy workers before it looks at the
#: watchdog deadlines and the backoff releases again.
_POLL_S = 0.05


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

    # -- worker phase --------------------------------------------------

    def _worker_phase(self) -> None:
        """Run the batch on owned workers until every run is resolved, or
        after a fail-fast stop until the runs in flight are.  Returns
        early, leaving the rest to the serial phase, only when no worker
        is alive and none can start."""
        workers: List[_Worker] = []
        try:
            while self._dispatch(workers):
                busy = [w for w in workers if w.index is not None]
                if not busy:
                    waiting = [] if self._stop_new else self._unfinished()
                    if not waiting:
                        return
                    # Everything left is backing off: sleep to the
                    # soonest retry release.
                    soonest = min(self.not_before[i] for i in waiting)
                    time.sleep(max(0.0, min(soonest - time.monotonic(),
                                            0.5)))
                    continue
                ready = set(wait([w.conn for w in busy]
                                 + [w.process.sentinel for w in busy],
                                 timeout=_POLL_S))
                now = time.monotonic()
                for worker in busy:
                    if {worker.conn, worker.process.sentinel} & ready:
                        self._collect(worker, workers)
                    elif (self.timeout is not None
                          and now - worker.started > self.timeout):
                        self._kill_overdue(worker, workers)
        finally:
            for worker in workers:
                worker.close()
        if self.timeout is not None:
            warnings.warn(
                "no worker process could start: the rest of the batch "
                "runs in-process, without the watchdog",
                RuntimeWarning, stacklevel=3)

    def _dispatch(self, workers: List[_Worker]) -> bool:
        """Hand each eligible run to an idle worker, starting workers up
        to the width; False when no worker is alive and none can start."""
        held = {w.index for w in workers}
        idle = [w for w in workers if w.index is None]
        for index in self._eligible(time.monotonic()):
            if index in held:
                continue
            if idle:
                worker = idle.pop()
            elif len(workers) < self.width:
                try:
                    worker = _Worker()
                except OSError:
                    return bool(workers)
                workers.append(worker)
            else:
                break
            try:
                worker.dispatch(index, (self.requests[index],
                                        self.attempts[index],
                                        self._actions(index)))
            except OSError:
                # It died while idle: no run was on it.  The run stays
                # eligible for the next pass.
                self._drop(worker, workers)
        return True

    def _drop(self, worker: _Worker, workers: List[_Worker]) -> None:
        workers.remove(worker)
        worker.close()
        self.stats.worker_restarts += 1

    def _collect(self, worker: _Worker, workers: List[_Worker]) -> None:
        """Take a worker's payload, or charge its run for its death."""
        index = worker.index
        try:
            payload = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):
            payload = None
        if payload is None:
            self._drop(worker, workers)
            self._record_attempt_failure(index, RunFailure(
                kind="crash", exc_type="WorkerDied",
                message=(f"worker process exited with code "
                         f"{worker.process.exitcode}"),
                worker_pid=worker.process.pid, run_index=index))
            return
        worker.index = None
        if payload["ok"]:
            self._finalize_ok(index, payload["metrics"])
        else:
            self._record_attempt_failure(
                index, _failure_from_payload(
                    payload, index, self.attempts[index] + 1))

    def _kill_overdue(self, worker: _Worker,
                      workers: List[_Worker]) -> None:
        """SIGKILL a worker whose run outlived the watchdog."""
        index = worker.index
        workers.remove(worker)
        worker.close()
        failure = RunFailure(
            kind="timeout", exc_type="TimeoutError",
            message=f"run exceeded the {self.timeout:g}s watchdog",
            worker_pid=worker.process.pid, run_index=index)
        if self._retry_timeouts:
            # Snapshots enabled: charge the attempt, retry — the resumed
            # attempt continues from the last checkpoint the killed
            # worker flushed to disk.
            self._record_attempt_failure(index, failure)
        else:
            self.attempts[index] += 1
            self._finalize_failure(index, failure, status=TIMEOUT)

    # -- serial phase --------------------------------------------------

    def _serial_phase(self) -> None:
        from repro.sim.runner import _execute
        remaining = self._unfinished()
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
                    metrics = _execute(self.requests[index])
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
        if self.requests and (self.width > 1 or self.timeout is not None):
            self._worker_phase()
        self._serial_phase()
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
    :class:`SupervisorStats` describing retries, timeouts and worker
    restarts.  ``on_result(index, metrics)`` is invoked as each run
    completes so the caller can checkpoint incrementally.
    """
    supervisor = _Supervisor(requests, width, timeout, retries, plan,
                             on_result, fail_fast)
    return supervisor.run()
