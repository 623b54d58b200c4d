"""Tests for the batch experiment engine (repro.sim.runner.run_batch).

Covers request deduplication, result ordering, parallel-vs-serial
bitwise equivalence (REPRO_JOBS workers must reproduce the serial path
exactly), engine statistics, parallel_map, and the stable allocator
seeding that makes cross-process determinism possible.
"""

import os
import subprocess
import sys
import time
import zlib

import pytest

from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.runner import (
    RunRequest,
    engine_stats,
    parallel_map,
    reset_engine_stats,
    run_batch,
)
from repro.sim.simulator import allocator_seed, build_hierarchy
from repro.workloads.suites import catalog

N = 1500


@pytest.fixture(autouse=True)
def fresh_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner.clear_cache()
    reset_engine_stats()
    yield
    runner.clear_cache()
    reset_engine_stats()


def requests():
    return [
        RunRequest("lbm", "spp", "psa", n_accesses=N),
        RunRequest("milc", "spp", "original", n_accesses=N),
        RunRequest("lbm", "spp", "original", n_accesses=N),
    ]


class TestRunBatch:
    def test_results_in_request_order(self):
        metrics = run_batch(requests())
        assert [m.workload for m in metrics] == ["lbm", "milc", "lbm"]
        assert [m.variant for m in metrics] == ["psa", "original", "original"]

    def test_duplicates_collapse_to_one_simulation(self):
        reqs = requests() + [RunRequest("lbm", "spp", "psa", n_accesses=N)]
        metrics = run_batch(reqs)
        assert metrics[0] is metrics[3]
        stats = engine_stats()
        assert stats.simulated == 3
        assert stats.deduped == 1

    def test_dict_requests_accepted(self):
        metrics = run_batch([dict(workload="lbm", prefetcher="spp",
                                  variant="psa", n_accesses=N)])
        assert metrics[0].workload == "lbm"

    def test_memo_hit_on_second_batch(self):
        run_batch(requests())
        reset_engine_stats()
        run_batch(requests())
        stats = engine_stats()
        assert stats.simulated == 0
        assert stats.memo_hits == 3

    def test_wall_time_stamped(self):
        metrics = run_batch([requests()[0]])
        assert metrics[0].wall_time_s > 0.0
        assert metrics[0].accesses_per_sec > 0.0

    def test_stats_summary_line_renders(self):
        run_batch(requests())
        line = engine_stats().summary_line()
        assert "simulated" in line and "accesses/s" in line


class TestParallelEquivalence:
    """REPRO_JOBS>1 must be observationally identical to the serial path."""

    def test_parallel_metrics_bitwise_equal_serial(self):
        serial = run_batch(requests(), jobs=1, use_cache=False)
        parallel = run_batch(requests(), jobs=4, use_cache=False)
        for s, p in zip(serial, parallel):
            assert s == p          # full dataclass equality, incl. boundary

    def test_cached_metrics_equal_serial_uncached(self):
        serial = run_batch(requests(), jobs=1, use_cache=False)
        run_batch(requests(), jobs=4)          # populate memo + disk
        runner.clear_cache()                   # force the disk-cache path
        cached = run_batch(requests())
        assert engine_stats().disk_hits >= 3
        for s, c in zip(serial, cached):
            assert s == c

    def test_jobs_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert runner.job_count() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert runner.job_count() == (os.cpu_count() or 1)
        monkeypatch.delenv("REPRO_JOBS")
        assert runner.job_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_IN_WORKER", "1")
        assert runner.job_count() == 1


def _double(value):
    return value * 2


def _double_crashing_once_at_five(item):
    """Double ``value``, logging each execution under ``scratch``; the
    first execution of item 5 kills its worker process instead.

    Each item takes 50 ms, so the other worker is still on its one item
    in flight when the pool notices the death and stops it.
    """
    value, scratch = item
    with open(os.path.join(scratch, "executions"), "a") as log:
        log.write(f"{value}\n")
    marker = os.path.join(scratch, "crashed")
    if value == 5 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(137)
    time.sleep(0.05)
    return value * 2


class TestParallelMap:
    def test_order_and_values(self):
        assert parallel_map(_double, [1, 2, 3], jobs=2) == [2, 4, 6]

    def test_serial_fallback(self):
        assert parallel_map(_double, [5], jobs=1) == [10]
        assert parallel_map(_double, [], jobs=4) == []

    def test_worker_death_reruns_only_unfinished_items(self, tmp_path):
        items, width = 8, 2
        results = parallel_map(_double_crashing_once_at_five,
                               [(i, str(tmp_path)) for i in range(items)],
                               jobs=width)
        assert results == [2 * i for i in range(items)]
        executions = (tmp_path / "executions").read_text().split()
        # The dead worker's item, plus at most one in flight on each
        # other worker, runs twice; a rerun of the whole map would not
        # fit.
        assert len(executions) <= items + width
        assert engine_stats().pool_rebuilds >= 1


class TestStableSeed:
    """Allocator seeding must not depend on PYTHONHASHSEED (satellite fix)."""

    def test_seed_is_crc32(self):
        assert allocator_seed("lbm") == zlib.crc32(b"lbm") & 0xFFFFFFFF

    def test_known_values_pinned(self):
        # Regression pin: crc32 is platform- and session-stable, unlike
        # hash(), whose PYTHONHASHSEED salting varied per process.  The
        # full 32-bit value is used: the old 16-bit truncation collided
        # distinct trace names onto identical physical layouts.
        assert allocator_seed("lbm") == zlib.crc32(b"lbm") & 0xFFFFFFFF \
            == 0xDA44FF96
        assert allocator_seed("milc") == 0xB2FD1424

    def test_hierarchy_uses_stable_seed(self):
        trace = catalog()["lbm"].generate(64)
        hierarchy, _ = build_hierarchy(trace, SystemConfig(), "spp", "psa")
        assert hierarchy.allocator.seed == allocator_seed("lbm")

    def test_stable_across_hash_randomization(self):
        """Same seeds from interpreters with different PYTHONHASHSEED."""
        program = ("import sys; sys.path.insert(0, 'src'); "
                   "from repro.sim.simulator import allocator_seed; "
                   "print([allocator_seed(n) for n in "
                   "('lbm','milc','tc.road','qmm_fp_95')])")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", program], env=env,
                capture_output=True, text=True,
                cwd=os.path.dirname(os.path.dirname(__file__)))
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1]
