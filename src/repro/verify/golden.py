"""Golden-trace regression corpus.

A small set of committed trace files (``tests/golden/*.trace.gz``) plus a
frozen digest of the metrics each produces (``tests/golden/digests.json``).
The file also freezes the per-core IPC lists of a few shared-LLC mixes
(``simulate_mix``, the Figs. 14/15 path), generated from the catalog, and,
in its ``prefetchers`` section, the digests of the other L2 prefetchers on
the same traces plus a few longer catalog runs.
Tier-1 tests replay every (trace, variant) pair and compare digests: any
semantic drift in the simulator — intended or not — shows up as a digest
mismatch, and intended drift is recorded by regenerating the file with
``repro verify --golden --bless``.

The digest is a sha256 over the canonical JSON of the run's metrics
(sorted keys, ``wall_time_s`` excluded — it is the one non-deterministic
field).  ``digests.json`` also stores a few headline metrics per entry in
the clear, so a failing diff is readable without re-running anything.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.sim.cache import metrics_to_dict
from repro.sim.metrics import RunMetrics
from repro.sim.simulator import simulate_trace
from repro.workloads.io import load_trace, save_trace
from repro.workloads.suites import catalog

#: Workloads committed to the corpus and their trace lengths.  Small on
#: purpose: the corpus is replayed by tier-1 tests on every run.
GOLDEN_WORKLOADS: Dict[str, int] = {"lbm": 2500, "mcf": 2500, "milc": 2500}

#: Variants each golden trace is replayed under.
GOLDEN_VARIANTS = ("original", "psa", "psa-sd")

GOLDEN_PREFETCHER = "spp"

#: Every other L2 prefetcher, replayed on each golden trace under every
#: golden variant (the ``prefetchers`` section).
GOLDEN_OTHER_PREFETCHERS = ("ppf", "vldp", "bop", "next-line", "sms", "ampm")

#: Catalog runs longer than a golden trace, also in the ``prefetchers``
#: section: ``(workload, accesses, prefetcher, variant)``.  At golden
#: length PPF's perceptron rejects no candidate; mcf at 20,000 accesses
#: under psa-sd rejects 1,248, so this run reaches PPF's reject path.
GOLDEN_LONG_RUNS = (("mcf", 20000, "ppf", "psa-sd"),)

#: Multicore mixes replayed under every golden variant: the cores of a
#: mix share one LLC and DRAM (``multicore_config``).
GOLDEN_MIXES = (("lbm", "mcf"), ("lbm", "mcf", "milc", "soplex"))

#: Trace records per core in a golden mix.
GOLDEN_MIX_ACCESSES = 2500

DIGESTS_FILE = "digests.json"
SCHEMA_VERSION = 1


def default_golden_dir() -> Path:
    """``REPRO_GOLDEN_DIR`` override, else ``<repo>/tests/golden``."""
    override = os.environ.get("REPRO_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def metrics_digest(metrics: RunMetrics) -> str:
    """Canonical content digest of one run's metrics."""
    data = metrics_to_dict(metrics)
    data.pop("wall_time_s", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def ipcs_digest(ipcs: Sequence[float]) -> str:
    """Canonical content digest of one mix's per-core IPC list."""
    canonical = json.dumps(list(ipcs), separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _headline(metrics: RunMetrics) -> dict:
    return {"ipc": metrics.ipc, "l2_mpki": metrics.l2_mpki,
            "l2_coverage": metrics.l2_coverage,
            "pf_issued_l2": metrics.pf_issued_l2}


@dataclass
class GoldenResult:
    """Outcome of replaying one (trace or mix, variant) pair."""

    trace: str                # a trace name, or a mix's "a+b+..." name
    variant: str
    ok: bool
    digest: str
    expected: Optional[str]   # None: no frozen digest yet (needs --bless)
    headline: dict
    section: str = "entries"  # or "mixes" (a multicore mix), "prefetchers"
    prefetcher: str = GOLDEN_PREFETCHER

    @property
    def key(self) -> str:
        """This result's name in its section of ``digests.json``."""
        if self.section == "prefetchers":
            return f"{self.trace}:{self.prefetcher}:{self.variant}"
        return f"{self.trace}:{self.variant}"

    def describe(self) -> str:
        status = "OK  " if self.ok else ("NEW " if self.expected is None
                                         else "FAIL")
        if "ipcs" in self.headline:
            figure = "ipcs=" + ",".join(f"{ipc:.4f}"
                                        for ipc in self.headline["ipcs"])
        else:
            figure = f"ipc={self.headline['ipc']:.4f}"
        name = self.trace
        if self.section == "prefetchers":
            name += f" {self.prefetcher}"
        return (f"{status} {name:<14s} {self.variant:<9s} "
                f"{figure} digest={self.digest[:12]}")


def trace_files(golden_dir: Optional[Path] = None) -> List[Path]:
    golden_dir = golden_dir or default_golden_dir()
    return sorted(golden_dir.glob("*.trace.gz"))


def ensure_traces(golden_dir: Optional[Path] = None) -> List[Path]:
    """Generate any corpus trace file that is not committed yet."""
    golden_dir = golden_dir or default_golden_dir()
    golden_dir.mkdir(parents=True, exist_ok=True)
    specs = catalog(include_non_intensive=True)
    for name, accesses in GOLDEN_WORKLOADS.items():
        path = golden_dir / f"{name}.trace.gz"
        if not path.exists():
            save_trace(specs[name].generate(accesses), path)
    return trace_files(golden_dir)


def load_digests(golden_dir: Optional[Path] = None) -> dict:
    golden_dir = golden_dir or default_golden_dir()
    path = golden_dir / DIGESTS_FILE
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "prefetcher": GOLDEN_PREFETCHER,
                "entries": {}, "mixes": {}, "prefetchers": {}}
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported digest schema "
                         f"{data.get('schema')!r}")
    data.setdefault("mixes", {})
    data.setdefault("prefetchers", {})
    return data


def _replay(digests: dict, section: str, trace, prefetcher: str,
            variant: str, oracle: bool, name: str = "") -> GoldenResult:
    """Simulate one single-core pair and check it against *section*."""
    metrics = simulate_trace(trace, prefetcher=prefetcher, variant=variant,
                             oracle=oracle)
    result = GoldenResult(
        trace=name or trace.name, variant=variant, ok=False,
        digest=metrics_digest(metrics), expected=None,
        headline=_headline(metrics), section=section, prefetcher=prefetcher)
    entry = digests[section].get(result.key)
    result.expected = entry["digest"] if entry else None
    result.ok = result.digest == result.expected
    return result


def run_corpus(golden_dir: Optional[Path] = None,
               oracle: bool = False) -> List[GoldenResult]:
    """Replay every committed trace, golden mix and prefetcher entry.

    With ``oracle=True`` each single-core replay also runs under the
    differential oracle, so a digest regression comes with a
    fast-vs-reference diff.  The oracle cannot shadow a shared LLC, so
    mixes always replay without it.
    """
    golden_dir = golden_dir or default_golden_dir()
    digests = load_digests(golden_dir)
    traces = [load_trace(path) for path in trace_files(golden_dir)]
    results = [_replay(digests, "entries", trace, GOLDEN_PREFETCHER,
                       variant, oracle)
               for trace in traces for variant in GOLDEN_VARIANTS]
    return results + run_mixes(digests) + run_prefetchers(digests, traces,
                                                          oracle)


def run_prefetchers(digests: dict, traces: list,
                    oracle: bool = False) -> List[GoldenResult]:
    """Replay the ``prefetchers`` section: the other L2 prefetchers on
    the golden traces, then the longer catalog runs."""
    results = [_replay(digests, "prefetchers", trace, prefetcher, variant,
                       oracle)
               for trace in traces
               for prefetcher in GOLDEN_OTHER_PREFETCHERS
               for variant in GOLDEN_VARIANTS]
    specs = catalog(include_non_intensive=True)
    for workload, accesses, prefetcher, variant in GOLDEN_LONG_RUNS:
        results.append(_replay(
            digests, "prefetchers", specs[workload].generate(accesses),
            prefetcher, variant, oracle, name=f"{workload}@{accesses}"))
    return results


def run_mixes(digests: dict) -> List[GoldenResult]:
    """Replay every golden mix under every golden variant."""
    from repro.sim.config import SystemConfig
    from repro.sim.multicore import multicore_config, simulate_mix

    specs = catalog(include_non_intensive=True)
    results: List[GoldenResult] = []
    for workloads in GOLDEN_MIXES:
        name = "+".join(workloads)
        config = multicore_config(SystemConfig(), len(workloads))
        for variant in GOLDEN_VARIANTS:
            ipcs = simulate_mix([specs[w] for w in workloads], config,
                                GOLDEN_PREFETCHER, variant,
                                n_accesses=GOLDEN_MIX_ACCESSES).ipcs
            digest = ipcs_digest(ipcs)
            entry = digests["mixes"].get(f"{name}:{variant}")
            expected = entry["digest"] if entry else None
            results.append(GoldenResult(
                trace=name, variant=variant, ok=digest == expected,
                digest=digest, expected=expected,
                headline={"ipcs": list(ipcs)}, section="mixes"))
    return results


def bless(golden_dir: Optional[Path] = None) -> Path:
    """(Re)generate missing traces and freeze the current digests."""
    golden_dir = golden_dir or default_golden_dir()
    ensure_traces(golden_dir)
    sections: Dict[str, dict] = {"entries": {}, "mixes": {},
                                 "prefetchers": {}}
    for result in run_corpus(golden_dir):
        sections[result.section][result.key] = {
            "digest": result.digest, **result.headline}
    payload = {"schema": SCHEMA_VERSION, "prefetcher": GOLDEN_PREFETCHER,
               "variants": list(GOLDEN_VARIANTS),
               "mix_accesses": GOLDEN_MIX_ACCESSES, **sections}
    path = golden_dir / DIGESTS_FILE
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
