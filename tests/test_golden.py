"""Golden-trace regression corpus tests (tier-1).

Replaying the committed traces must reproduce the frozen digests exactly.
A failure here means simulation semantics drifted: either fix the
regression, or — if the change is intended — regenerate the corpus with
``python -m repro verify --bless`` and commit the diff.
"""

import dataclasses
import json

import pytest

from repro.core.factory import PREFETCHERS
from repro.sim.metrics import RunMetrics
from repro.verify import golden
from repro.workloads.io import load_trace

CORPUS = golden.default_golden_dir()


class TestCommittedCorpus:
    def test_corpus_is_committed(self):
        traces = golden.trace_files(CORPUS)
        assert {p.name.split(".")[0] for p in traces} == \
            set(golden.GOLDEN_WORKLOADS)
        assert (CORPUS / golden.DIGESTS_FILE).exists()

    def test_digests_cover_every_pair(self):
        digests = golden.load_digests(CORPUS)
        expected = {f"{name}:{variant}"
                    for name in golden.GOLDEN_WORKLOADS
                    for variant in golden.GOLDEN_VARIANTS}
        assert set(digests["entries"]) == expected

    def test_digests_cover_every_prefetcher(self):
        assert (set(golden.GOLDEN_OTHER_PREFETCHERS)
                | {golden.GOLDEN_PREFETCHER}) == set(PREFETCHERS)
        digests = golden.load_digests(CORPUS)
        expected = {f"{name}:{prefetcher}:{variant}"
                    for name in golden.GOLDEN_WORKLOADS
                    for prefetcher in golden.GOLDEN_OTHER_PREFETCHERS
                    for variant in golden.GOLDEN_VARIANTS}
        expected |= {f"{workload}@{accesses}:{prefetcher}:{variant}"
                     for workload, accesses, prefetcher, variant
                     in golden.GOLDEN_LONG_RUNS}
        assert set(digests["prefetchers"]) == expected

    def test_digests_cover_every_mix(self):
        digests = golden.load_digests(CORPUS)
        expected = {"+".join(mix) + f":{variant}"
                    for mix in golden.GOLDEN_MIXES
                    for variant in golden.GOLDEN_VARIANTS}
        assert set(digests["mixes"]) == expected
        assert digests["mix_accesses"] == golden.GOLDEN_MIX_ACCESSES

    def test_replay_matches_frozen_digests(self):
        results = golden.run_corpus(CORPUS)
        failures = [r.describe() for r in results if not r.ok]
        assert not failures, (
            "golden digests diverged (bless if intended):\n"
            + "\n".join(failures))

    def test_mix_replay_reports_per_core_ipcs(self):
        mixes = [r for r in golden.run_mixes(golden.load_digests(CORPUS))
                 if r.variant == "psa"]
        assert [len(r.headline["ipcs"]) for r in mixes] == \
            [len(mix) for mix in golden.GOLDEN_MIXES]
        assert all(r.ok and "ipcs=" in r.describe() for r in mixes)

    def test_traces_load_cleanly(self):
        for path in golden.trace_files(CORPUS):
            trace = load_trace(path)
            assert len(trace) == golden.GOLDEN_WORKLOADS[trace.name]


class TestDigest:
    def test_deterministic(self):
        a = RunMetrics(workload="w", ipc=1.25, l2_mpki=3.5)
        b = RunMetrics(workload="w", ipc=1.25, l2_mpki=3.5)
        assert golden.metrics_digest(a) == golden.metrics_digest(b)

    def test_sensitive_to_every_metric_field(self):
        base = golden.metrics_digest(RunMetrics())
        for f in dataclasses.fields(RunMetrics):
            if f.name in ("boundary", "wall_time_s"):
                continue
            changed = RunMetrics()
            current = getattr(changed, f.name)
            setattr(changed, f.name,
                    current + 1 if isinstance(current, (int, float))
                    else current + "x")
            assert golden.metrics_digest(changed) != base, f.name

    def test_ipcs_digest_is_order_sensitive(self):
        assert golden.ipcs_digest([1.0, 2.0]) == golden.ipcs_digest((1.0, 2.0))
        assert golden.ipcs_digest([1.0, 2.0]) != golden.ipcs_digest([2.0, 1.0])

    def test_wall_time_excluded(self):
        fast = RunMetrics(ipc=2.0, wall_time_s=0.1)
        slow = RunMetrics(ipc=2.0, wall_time_s=9.9)
        assert golden.metrics_digest(fast) == golden.metrics_digest(slow)


class TestBless:
    @pytest.fixture
    def tiny_corpus(self, monkeypatch, tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_WORKLOADS", {"lbm": 500})
        monkeypatch.setattr(golden, "GOLDEN_VARIANTS", ("psa",))
        monkeypatch.setattr(golden, "GOLDEN_MIXES", (("lbm", "mcf"),))
        monkeypatch.setattr(golden, "GOLDEN_MIX_ACCESSES", 300)
        monkeypatch.setattr(golden, "GOLDEN_OTHER_PREFETCHERS", ("ppf",))
        monkeypatch.setattr(golden, "GOLDEN_LONG_RUNS",
                            (("mcf", 600, "ppf", "psa-sd"),))
        return tmp_path / "golden"

    def test_bless_then_verify_roundtrip(self, tiny_corpus):
        path = golden.bless(tiny_corpus)
        assert path.exists()
        data = json.loads(path.read_text())
        assert set(data["entries"]) == {"lbm:psa"}
        assert set(data["mixes"]) == {"lbm+mcf:psa"}
        assert set(data["prefetchers"]) == {"lbm:ppf:psa",
                                            "mcf@600:ppf:psa-sd"}
        results = golden.run_corpus(tiny_corpus)
        assert all(r.ok for r in results)

    def test_unblessed_entry_reported_as_new(self, tiny_corpus):
        golden.ensure_traces(tiny_corpus)
        results = golden.run_corpus(tiny_corpus)
        assert results and not any(r.ok for r in results)
        assert all(r.expected is None for r in results)
        assert "NEW" in results[0].describe()

    def test_schema_mismatch_rejected(self, tiny_corpus):
        tiny_corpus.mkdir(parents=True)
        (tiny_corpus / golden.DIGESTS_FILE).write_text(
            json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(ValueError, match="unsupported digest schema"):
            golden.load_digests(tiny_corpus)
