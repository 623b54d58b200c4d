"""Deterministic fault injection for the batch engine.

The supervision layer (``repro.sim.supervisor``) is only trustworthy if
its failure paths are exercised; this module makes failures first-class,
reproducible inputs.  A fault *spec* — from the ``REPRO_FAULTS``
environment variable or passed programmatically — describes which runs
of a batch fail and how, in the spec language of
:mod:`repro.sim.faultplan` with a required target: ``@idx`` names
0-based runs, ``~count/seed`` a seeded sample of them.

Examples::

    REPRO_FAULTS="crash@4;hang@9:secs=30"      # the acceptance scenario
    REPRO_FAULTS="error@0:first=1"             # fail attempt 0, then heal
    REPRO_FAULTS="crash~3/42"                  # 3 seeded-random crashes
    REPRO_FAULTS="kill@0:at=1500:first=1"      # die mid-trace once, resume

Parameters: ``secs=<float>`` (hang duration, default 30),
``first=<int>`` (fire only on the first N attempts; 0 = every attempt,
so ``first=1`` models a transient that a retry cures), and
``at=<int>`` (``kill`` only: the access index after which the run dies —
the snapshot/resume acceptance scenario; in a Figs. 14/15 mix it
counts the mix's records in execution order, across all cores).

Indices refer to positions in the batch's *scheduled* run list (after
dedupe and cache hits), which is what makes a schedule deterministic: a
rerun of a partially cached batch renumbers only the cache misses.

Each kind fires at one hook:

    ============ ======================================================
    hook          kinds
    ============ ======================================================
    checkpoint    crash, hang, error, truncate  (start of every run)
    access        kill                          (after access ``at``)
    post-store    corrupt                       (after the cache write)
    ============ ======================================================

The :func:`checkpoint` kinds fire inside the real worker call stack.
``crash`` terminates the worker process with ``os._exit(137)`` when
running in a supervised pool worker (exercising ``BrokenProcessPool``
recovery) and raises :class:`InjectedCrash` in-process otherwise, so
serial fallback resolves persistent crashers without killing the host.
``corrupt`` is applied by the parent *after* the run's cache entry is
written (garbling the entry on disk) to exercise the cache quarantine
path, mix entries included.  A malformed spec raises
:class:`FaultSpecError`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim import faultplan
from repro.workloads.io import TraceFormatError

ENV_VAR = "REPRO_FAULTS"

#: The hook each kind fires at (see module docstring).
_HOOK_FOR_KIND = {
    "crash": ("checkpoint",),
    "hang": ("checkpoint",),
    "error": ("checkpoint",),
    "truncate": ("checkpoint",),
    "corrupt": ("post-store",),
    "kill": ("access",),
}

KINDS = tuple(_HOOK_FOR_KIND)


class FaultSpecError(faultplan.SpecError):
    """A ``REPRO_FAULTS`` spec failed to parse."""


class InjectedError(RuntimeError):
    """Base class for injected failures (treated as transient)."""


class InjectedCrash(InjectedError):
    """An injected worker crash, raised in-process (serial execution)."""


@dataclass(frozen=True)
class FaultAction:
    """What happens when a targeted run reaches a checkpoint."""

    kind: str
    secs: float = 30.0    # hang duration
    first: int = 0        # fire only on attempts < first (0 = always)
    at: int = -1          # kill: die after access index `at` completes

    def fires(self, attempt: int) -> bool:
        return self.first == 0 or attempt < self.first


@dataclass(frozen=True)
class FaultClause:
    """One parsed spec clause: an action plus its run targets."""

    action: FaultAction
    indices: Optional[Tuple[int, ...]] = None   # explicit "@" targets
    count: int = 0                              # seeded "~" sample size
    seed: int = 0

    def resolve(self, n_runs: int) -> Tuple[int, ...]:
        """Concrete run indices for a batch of *n_runs* scheduled runs."""
        if self.indices is not None:
            return tuple(i for i in self.indices if i < n_runs)
        return tuple(sorted(faultplan.sample(self.seed, self.count, n_runs)))


def _clause(kind: str, indices: Optional[Tuple[int, ...]] = None,
            count: int = 0, seed: int = 0, **params) -> FaultClause:
    action = FaultAction(kind=kind, **params)
    if kind == "kill" and action.at < 0:
        raise ValueError("kill requires at=<access index>")
    return FaultClause(action=action, indices=indices, count=count,
                       seed=seed)


PLANE = faultplan.Plane(
    ENV_VAR, _HOOK_FOR_KIND, FaultSpecError,
    params={"secs": ("secs", float), "first": ("first", int),
            "at": ("at", int)},
    target_required=True, make=_clause)

parse = PLANE.parse


@dataclass(frozen=True)
class FaultPlan:
    """A resolved schedule: run index -> the actions targeting it."""

    actions: Dict[int, Tuple[FaultAction, ...]] = field(default_factory=dict)

    def for_run(self, index: int) -> Tuple[FaultAction, ...]:
        return self.actions.get(index, ())

    def checkpoint_actions(self, index: int) -> Tuple[FaultAction, ...]:
        """Actions injected inside the run (everything but ``corrupt``)."""
        return tuple(a for a in self.for_run(index) if a.kind != "corrupt")

    def post_store_actions(self, index: int) -> Tuple[FaultAction, ...]:
        """Actions applied after the run's cache entry is written."""
        return tuple(a for a in self.for_run(index) if a.kind == "corrupt")


def _schedule(clauses: List[FaultClause], n_runs: int) -> FaultPlan:
    actions: Dict[int, List[FaultAction]] = {}
    for clause in clauses:
        for index in clause.resolve(n_runs):
            actions.setdefault(index, []).append(clause.action)
    return FaultPlan({i: tuple(a) for i, a in actions.items()})


def resolve(spec: str, n_runs: int) -> FaultPlan:
    """Resolve a spec against a batch of *n_runs* scheduled runs."""
    return _schedule(parse(spec), n_runs)


def plan_from_env(n_runs: int) -> Optional[FaultPlan]:
    """The plan armed via ``REPRO_FAULTS``, or None when unset/empty."""
    clauses = PLANE.from_env()
    return None if clauses is None else _schedule(clauses, n_runs)


# ----------------------------------------------------------------------
# Injection points
# ----------------------------------------------------------------------

#: True only in a supervised pool worker (set by the pool initializer,
#: NOT inherited through the environment) so ``crash`` hard-kills a real
#: worker but raises in-process during serial execution.
_IN_POOL_WORKER = False

#: The actions armed for the currently executing run attempt.
_ARMED: Tuple[FaultAction, ...] = ()
_ATTEMPT = 0


def mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def arm(actions: Iterable[FaultAction], attempt: int) -> None:
    """Arm *actions* for the run attempt about to execute."""
    global _ARMED, _ATTEMPT
    _ARMED = tuple(actions)
    _ATTEMPT = attempt


def disarm() -> None:
    global _ARMED, _ATTEMPT
    _ARMED = ()
    _ATTEMPT = 0


def checkpoint(site: str = "run") -> None:
    """Fire any armed in-run faults; a no-op when nothing is armed.

    Called by ``runner._execute`` at the start of every run, single-core
    or mix, so injected faults surface inside the real execution stack.
    """
    if not _ARMED:
        return
    for action in _ARMED:
        if not action.fires(_ATTEMPT):
            continue
        if action.kind == "hang":
            time.sleep(action.secs)
        elif action.kind == "crash":
            if _IN_POOL_WORKER:
                os._exit(137)
            raise InjectedCrash(
                f"injected worker crash at {site} checkpoint")
        elif action.kind == "error":
            raise InjectedError(
                f"injected transient error at {site} checkpoint")
        elif action.kind == "truncate":
            raise TraceFormatError(
                "<injected>", "injected trace truncation", line=1)


def kill_armed() -> bool:
    """True when a ``kill`` action could fire for the current attempt
    (so the run loop knows to call :func:`access_checkpoint`)."""
    return any(a.kind == "kill" and a.fires(_ATTEMPT) for a in _ARMED)


def access_checkpoint(index: int) -> None:
    """Fire armed ``kill`` faults once access *index* has completed.

    Called after every access by the single-core run loop, and by a
    mix's ``Core.step`` loop, when a kill is armed.  In a pool worker the
    process dies with ``os._exit(137)`` (a real SIGKILL-style death: no
    cleanup, no snapshot flush beyond what is already on disk); serially
    an :class:`InjectedCrash` is raised, which the supervisor treats as
    transient and retries.
    """
    for action in _ARMED:
        if action.kind != "kill" or not action.fires(_ATTEMPT):
            continue
        if index == action.at:
            if _IN_POOL_WORKER:
                os._exit(137)
            raise InjectedCrash(
                f"injected mid-run kill after access {index}")


def corrupt_file(path) -> bool:
    """Garble an on-disk cache entry in place (``corrupt`` faults).

    Rewrites the file as its first half plus a marker that is not valid
    JSON, modelling a torn write.  Returns False if the file is absent.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return False
    path.write_bytes(data[:len(data) // 2] + b"\x00#CORRUPTED#")
    return True
