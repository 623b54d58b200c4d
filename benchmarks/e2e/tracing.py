"""Per-layer timing hooks for the end-to-end benchmark's traced runs.

``Tracer.install()`` replaces each layer's entry point with a timing
wrapper at class (or module) level, before the workload starts, so every
caller — the fused kernel included, which binds its callbacks per chunk —
goes through the wrapper while dispatch stays unchanged (no type
changes; ``functools.wraps`` keeps signatures visible to
``inspect.signature``).

Per layer and per thread the tracer keeps calls, inclusive seconds and
*self* seconds: a call's duration minus the time its hooked children
cover.  Re-entrant calls of one layer (a page walk that walks, a module
callback reached from another) are timed at the outermost call only.
Coarse layers also record spans ``(name, start, end, parent, run_id)``
in memory; hot layers (L2 callbacks, page walks, request construction)
are only summed.  A hook target that no longer exists is skipped with a
warning: its layer then reads as zero calls and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Spans kept per process; later spans are counted but not stored.
MAX_SPANS = 20000

_L2_CALLBACKS = ("on_l2_access", "on_demand_miss", "on_useful",
                 "on_evicted_unused")
_L2_MODULES = ("repro.core.psa:L2PrefetchModule",
               "repro.core.psa:PSAPrefetchModule",
               "repro.core.composite:CompositePSAPrefetcher")

#: (layer, "module:Qualified.name", keeps spans) for every timed hook.
TIMED_HOOKS = [
    ("workloads.generate", "repro.workloads.suites:WorkloadSpec.generate",
     True),
    ("workloads.columns", "repro.workloads.trace:Trace.columns", True),
    ("vm.prepare_chunk",
     "repro.vm.allocator:PhysicalMemoryAllocator.prepare_chunk", True),
    ("vm.walk", "repro.vm.walker:AddressTranslator.walk", False),
    ("loop", "repro.cpu.core:Core.run", True),
    ("loop", "repro.sim.multicore:simulate_mix", True),
    ("engine.key", "repro.sim.runner:RunRequest.key", False),
    ("cache.load", "repro.sim.cache:load_payload", True),
    ("cache.store", "repro.sim.cache:store", True),
    ("campaign.register", "repro.campaign.store:CampaignStore.register",
     True),
    ("campaign.sync", "repro.campaign.store:CampaignStore.sync_from_cache",
     True),
    ("campaign.record", "repro.campaign.store:CampaignStore.record", True),
] + [("prefetch.l2", f"{cls}.{method}", False)
     for cls in _L2_MODULES for method in _L2_CALLBACKS]


def _resolve(target: str):
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name, value).

    Only attributes an owner defines itself are hooked, so a subclass
    that inherits a callback is reached through its base's wrapper.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if name not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} defines no {name!r}")
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def _loop_accesses(args, kwargs) -> int:
    """Trace records one ``Core.run`` / ``simulate_mix`` call executes."""
    first = args[1] if len(args) > 1 else None
    if hasattr(first, "records"):                 # Core.run(self, trace)
        return len(first.records)
    specs = args[0] if args else kwargs.get("specs", ())
    n_accesses = (args[4] if len(args) > 4
                  else kwargs.get("n_accesses"))
    return len(specs) * (n_accesses or 0)


def _loop_run_id(args) -> str:
    first = args[1] if len(args) > 1 else None
    if hasattr(first, "records"):
        module = getattr(args[0].hierarchy, "l2_module", None)
        return f"{first.name}:{getattr(module, 'name', '?')}"
    return "mix:" + "+".join(spec.name for spec in args[0])


class _Thread:
    """One thread's open frames and totals, kept apart so the hot path
    takes no lock."""

    __slots__ = ("stack", "active", "layers", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []     # [child_s, span index, run id, start]
        self.active: set = set()        # layers with an open outermost call
        self.layers: Dict[str, list] = {}    # [calls, incl_s, self_s]
        self.counts: Dict[str, int] = {}


class Tracer:
    """Layer timers, counters and spans of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.dropped_spans = 0
        self.missing: List[str] = []
        self._threads: List[_Thread] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._restore: List[tuple] = []

    # -- bookkeeping ---------------------------------------------------

    def _thread(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
            return state

    def reset(self) -> None:
        """Forget everything measured so far (hooks stay installed)."""
        with self._lock:
            for state in self._threads:
                state.layers.clear()
                state.counts.clear()
            self.spans.clear()
            self.dropped_spans = 0
            self._origin = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._thread().counts
        counts[name] = counts.get(name, 0) + amount

    def span(self, layer: str, run_id: Optional[str] = None):
        """Context manager timing one benchmark-level call as *layer*."""
        return _SpanContext(self, layer, run_id)

    def _enter(self, state: _Thread, layer: str, keep_span: bool,
               run_id: Optional[str]) -> list:
        state.active.add(layer)
        stack = state.stack
        parent = stack[-1] if stack else None
        if run_id is None and parent is not None:
            run_id = parent[2]
        span_index = -1
        start = time.perf_counter()
        if keep_span:
            with self._lock:
                if len(self.spans) < MAX_SPANS:
                    span_index = len(self.spans)
                    self.spans.append([
                        layer, start - self._origin, None,
                        parent[1] if parent is not None else -1, run_id])
                else:
                    self.dropped_spans += 1
        frame = [0.0, span_index, run_id, start]
        stack.append(frame)
        return frame

    def _exit(self, state: _Thread, layer: str, frame: list) -> None:
        end = time.perf_counter()
        stack = state.stack
        stack.pop()
        state.active.discard(layer)
        duration = end - frame[3]
        if stack:
            stack[-1][0] += duration
        totals = state.layers.get(layer)
        if totals is None:
            totals = state.layers[layer] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[0]
        if 0 <= frame[1] < len(self.spans):
            self.spans[frame[1]][2] = end - self._origin

    # -- hooks ---------------------------------------------------------

    def _timed(self, layer: str, fn: Callable, keep_span: bool) -> Callable:
        tracer = self
        is_loop = layer == "loop"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._thread()
            if layer in state.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(state, layer, keep_span,
                                  _loop_run_id(args) if is_loop else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(state, layer, frame)
            if is_loop:
                tracer.count("loop.accesses", _loop_accesses(args, kwargs))
            elif layer == "cache.load" and result is not None:
                tracer.count("cache.hits")
            return result

        return wrapper

    def _counting(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer._thread().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _pf_issued_before_reset(self, fn: Callable) -> Callable:
        """``MemoryHierarchy.reset_stats`` zeroes ``pf_issued_l2`` at the
        warmup boundary: bank the warmup share first."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(hierarchy, *args, **kwargs):
            tracer.count("pf_issued_l2", getattr(hierarchy, "pf_issued_l2", 0))
            return fn(hierarchy, *args, **kwargs)

        return wrapper

    def _pf_issued_at_finish(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(core, *args, **kwargs):
            result = fn(core, *args, **kwargs)
            tracer.count("pf_issued_l2",
                         getattr(core.hierarchy, "pf_issued_l2", 0))
            return result

        return wrapper

    def install(self, hooks=None) -> "Tracer":
        """Install every hook whose target exists; warn about the rest."""
        hooks = TIMED_HOOKS if hooks is None else hooks
        plan = [(target, functools.partial(self._timed, layer,
                                           keep_span=keep_span))
                for layer, target, keep_span in hooks]
        plan += [
            ("repro.prefetch.base:PrefetchRequest.__init__",
             lambda fn: self._counting("prefetch.requests_built", fn)),
            ("repro.memory.hierarchy:MemoryHierarchy.reset_stats",
             self._pf_issued_before_reset),
            ("repro.cpu.core:Core.finish", self._pf_issued_at_finish),
        ]
        for target, make in plan:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError) as exc:
                self.missing.append(target)
                print(f"warning: trace hook {target} not installed "
                      f"({exc}); its layer reads as zero",
                      file=sys.stderr)
                continue
            setattr(owner, name, make(original))
            self._restore.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def dump(self) -> dict:
        """Totals over all threads, counts, spans and missing hooks."""
        layers: Dict[str, list] = {}
        counts: Dict[str, int] = {}
        with self._lock:
            for state in self._threads:
                for layer, values in state.layers.items():
                    merged = layers.setdefault(layer, [0, 0.0, 0.0])
                    for i, value in enumerate(values):
                        merged[i] += value
                for name, value in state.counts.items():
                    counts[name] = counts.get(name, 0) + value
            return {"layers": layers, "counts": counts,
                    "spans": [list(s) for s in self.spans],
                    "dropped_spans": self.dropped_spans,
                    "missing_hooks": list(self.missing)}


class _SpanContext:
    def __init__(self, tracer: Tracer, layer: str, run_id: Optional[str]):
        self.tracer = tracer
        self.layer = layer
        self.run_id = run_id
        self.state: Optional[_Thread] = None
        self.frame = None

    def __enter__(self):
        self.state = self.tracer._thread()
        self.frame = self.tracer._enter(self.state, self.layer, True,
                                        self.run_id)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._exit(self.state, self.layer, self.frame)
