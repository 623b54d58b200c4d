"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def backoff_fast(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--workload", "lbm", "--variant", "psa",
                     "--accesses", "2000", "--baseline", ""])
        out = capsys.readouterr().out
        assert code == 0
        assert "IPC" in out
        assert "L2C coverage %" in out

    def test_run_with_baseline_speedup(self, capsys):
        code = main(["run", "--workload", "lbm", "--variant", "psa",
                     "--accesses", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup over spp-original" in out

    def test_run_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "lbm", "--variant", "turbo"])

    @pytest.mark.parametrize("accesses", ["0", "-5"])
    @pytest.mark.parametrize("command", [
        ["run", "--workload", "lbm"], ["compare", "--workload", "lbm"],
        ["trace", "--workload", "lbm"], ["verify", "lbm"]],
        ids=["run", "compare", "trace", "verify"])
    def test_non_positive_accesses_exit_2(self, command, accesses, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--accesses", accesses])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("command", [
        ["run", "--workload", "lbm"], ["compare", "--workload", "lbm"],
        ["campaign", "run", "--spec", "campaign.json"], ["serve"]],
        ids=["run", "compare", "campaign-run", "serve"])
    def test_non_positive_jobs_exit_2(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--jobs", jobs])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestFailureReporting:
    """A failed run yields a summary and exit 1, not a stack trace."""

    def test_run_reports_failure_summary(self, capsys, monkeypatch,
                                         backoff_fast):
        monkeypatch.setenv("REPRO_FAULTS", "error@0+1")
        code = main(["run", "--workload", "lbm", "--variant", "psa",
                     "--accesses", "2000", "--no-cache", "--retries", "0",
                     "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err
        assert "InjectedError" in captured.err
        assert "0/2 ok" in captured.err
        assert "Traceback" not in captured.err   # summary, not a dump

    def test_run_partial_results_when_baseline_fails(self, capsys,
                                                     monkeypatch,
                                                     backoff_fast):
        monkeypatch.setenv("REPRO_FAULTS", "error@1")
        code = main(["run", "--workload", "lbm", "--variant", "psa",
                     "--accesses", "2000", "--no-cache", "--retries", "0",
                     "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "IPC" in captured.out             # target table still printed
        assert "speedup" not in captured.out     # baseline run failed
        assert "1/2 ok" in captured.err

    def test_run_strict_raises(self, monkeypatch, backoff_fast):
        from repro.sim.faults import InjectedError
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        with pytest.raises(InjectedError):
            main(["run", "--workload", "lbm", "--variant", "psa",
                  "--accesses", "2000", "--baseline", "", "--no-cache",
                  "--retries", "0", "--jobs", "1", "--strict"])

    def test_run_retry_heals_transient(self, capsys, monkeypatch,
                                       backoff_fast):
        monkeypatch.setenv("REPRO_FAULTS", "error@0:first=1")
        code = main(["run", "--workload", "lbm", "--variant", "psa",
                     "--accesses", "2000", "--baseline", "", "--no-cache",
                     "--jobs", "1"])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    @pytest.mark.parametrize("var", ["REPRO_FAULTS", "REPRO_IO_FAULTS"])
    def test_malformed_fault_spec_exits_2(self, capsys, monkeypatch,
                                          tmp_path, var):
        from repro.sim import iofaults, runner
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(var, "bogus@1")
        runner.clear_cache()
        iofaults.disarm()
        try:
            code = main(["run", "--workload", "lbm", "--accesses", "500",
                         "--jobs", "1"])
        finally:
            iofaults.disarm()
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {var} clause 'bogus@1'" in captured.err
        assert "Traceback" not in captured.err

    def test_compare_partial_results(self, capsys, monkeypatch,
                                     backoff_fast):
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        code = main(["compare", "--workload", "lbm",
                     "--variants", "original,psa", "--accesses", "2000",
                     "--no-cache", "--retries", "0", "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        # The surviving variant is promoted to comparison baseline.
        assert "spp-psa" in captured.out
        assert "vs psa %" in captured.out
        assert "1/2 ok" in captured.err


class TestCompare:
    def test_compare_variants(self, capsys):
        code = main(["compare", "--workload", "lbm",
                     "--variants", "original,psa", "--accesses", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spp-original" in out
        assert "spp-psa" in out

    def test_compare_bad_variant(self, capsys):
        code = main(["compare", "--workload", "lbm",
                     "--variants", "original,warp", "--accesses", "2000"])
        assert code == 2
        assert "unknown variant" in capsys.readouterr().err


class TestCatalog:
    def test_lists_80(self, capsys):
        assert main(["catalog"]) == 0
        assert "80 workloads" in capsys.readouterr().out

    def test_suite_filter(self, capsys):
        assert main(["catalog", "--suite", "GAP"]) == 0
        out = capsys.readouterr().out
        assert "6 workloads" in out
        assert "tc.road" in out

    def test_all_includes_non_intensive(self, capsys):
        assert main(["catalog", "--all"]) == 0
        assert "povray" in capsys.readouterr().out


class TestConfig:
    def test_prints_table1(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "352-entry ROB" in out


class TestTrace:
    def test_generate_describe_simulate(self, tmp_path, capsys):
        path = tmp_path / "lbm.trace.gz"
        assert main(["trace", "--workload", "lbm", "--out", str(path),
                     "--accesses", "1000"]) == 0
        assert path.exists()
        assert main(["trace", "--describe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1000" in out
        assert main(["trace", "--simulate", str(path)]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_unknown_workload(self, tmp_path, capsys):
        code = main(["trace", "--workload", "nope",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_arguments(self, capsys):
        assert main(["trace"]) == 2


class TestCache:
    def _populate(self):
        from repro.sim.runner import RunRequest, run_batch
        run_batch([RunRequest("lbm", "spp", "psa", n_accesses=1000)])

    def test_list_empty(self, capsys):
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "list"]) == 0
        assert "no cache entries" in capsys.readouterr().out

    def test_list_shows_entries(self, capsys):
        self._populate()
        assert main(["cache", "list"]) == 0
        out = capsys.readouterr().out
        assert "lbm" in out and "spp" in out and "psa" in out
        assert "yes" in out   # entry written by the current code version

    def test_stats_and_clear(self, capsys):
        self._populate()
        assert main(["cache", "stats"]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "list"]) == 0
        assert "no cache entries" in capsys.readouterr().out

    def test_list_json(self, capsys):
        import json
        from repro.sim import runner
        runner.clear_cache()   # force a real simulation + disk write
        self._populate()
        assert main(["cache", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries, "populated cache must list at least one entry"
        row = next(e for e in entries if e["workload"] == "lbm"
                   and e["variant"] == "psa")
        assert row["prefetcher"] == "spp"
        assert row["current"] is True
        assert row["size_bytes"] > 0

    def test_list_json_empty_is_valid_json(self, capsys):
        import json
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "list", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []


class TestVerify:
    def test_oracle_single_workload(self, capsys):
        assert main(["verify", "lbm", "--variant", "psa",
                     "--accesses", "800"]) == 0
        out = capsys.readouterr().out
        assert "OK   lbm" in out
        assert "counters matched" in out

    def test_oracle_failure_writes_diff(self, tmp_path, capsys,
                                        monkeypatch):
        import repro.core.composite as composite_mod
        import repro.core.psa as psa_mod
        from repro.memory.address import BLOCKS_PER_2M

        def evil(block, page_size):
            lo = block & ~(BLOCKS_PER_2M - 1)
            return lo, lo + BLOCKS_PER_2M - 1

        monkeypatch.setattr(psa_mod, "prefetch_window", evil)
        monkeypatch.setattr(composite_mod, "prefetch_window", evil)
        diff = tmp_path / "diff.txt"
        assert main(["verify", "lbm", "--variant", "psa",
                     "--accesses", "800", "--diff-out", str(diff)]) == 1
        assert "FAIL lbm" in capsys.readouterr().out
        # Caught by the oracle diff — or, under REPRO_CHECK=1, by the
        # runtime invariant that fires before the diff completes.
        assert ("divergence" in diff.read_text()
                or "invariant violation" in diff.read_text())

    def test_golden_roundtrip(self, tmp_path, capsys, monkeypatch):
        from repro.verify import golden
        monkeypatch.setattr(golden, "GOLDEN_WORKLOADS", {"lbm": 400})
        monkeypatch.setattr(golden, "GOLDEN_VARIANTS", ("psa",))
        monkeypatch.setattr(golden, "GOLDEN_OTHER_PREFETCHERS", ("ppf",))
        monkeypatch.setattr(golden, "GOLDEN_LONG_RUNS", ())
        corpus = tmp_path / "golden"
        assert main(["verify", "--bless",
                     "--golden-dir", str(corpus)]) == 0
        assert "blessed" in capsys.readouterr().out
        assert main(["verify", "--golden",
                     "--golden-dir", str(corpus)]) == 0
        assert "OK" in capsys.readouterr().out


class TestCampaign:
    """End-to-end CLI drive of the campaign layer."""

    @pytest.fixture
    def spec(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CAMPAIGN_DB",
                           str(tmp_path / "campaigns.sqlite"))
        path = tmp_path / "spec.json"
        assert main(["campaign", "new", "--name", "cli-t",
                     "--spec", str(path),
                     "--axis", "workload=lbm,milc",
                     "--axis", "variant=original,psa",
                     "--fixed", "prefetcher=spp",
                     "--fixed", "n_accesses=1400"]) == 0
        capsys.readouterr()
        return str(path)

    def test_new_writes_spec_and_describes(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        assert main(["campaign", "new", "--name", "demo",
                     "--spec", str(path),
                     "--axis", "workload=lbm"]) == 0
        out = capsys.readouterr().out
        assert path.exists()
        assert "cells     : 1" in out

    def test_new_unknown_axis_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "new", "--name", "bad",
                     "--spec", str(tmp_path / "bad.json"),
                     "--axis", "warp_factor=9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_status_query_export(self, spec, tmp_path, capsys):
        assert main(["campaign", "run", "--spec", spec,
                     "--jobs", "1"]) == 0
        assert "4/4 cells done" in capsys.readouterr().out

        assert main(["campaign", "status", "--spec", spec]) == 0
        assert "complete" in capsys.readouterr().out

        assert main(["campaign", "query", "--spec", spec,
                     "--speedups"]) == 0
        out = capsys.readouterr().out
        assert "speedup %" in out and "lbm" in out

        assert main(["campaign", "query", "--spec", spec,
                     "--where", "workload=milc"]) == 0
        out = capsys.readouterr().out
        assert "milc" in out and "2 cell(s)" in out

        export = tmp_path / "rows.csv"
        assert main(["campaign", "export", "--spec", spec,
                     "--format", "csv", "--out", str(export)]) == 0
        assert export.read_text().count("\n") == 5   # header + 4 cells

    def test_rerun_schedules_nothing(self, spec, capsys):
        assert main(["campaign", "run", "--spec", spec,
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "--spec", spec,
                     "--jobs", "1"]) == 0
        assert "(4 already stored, 0 synced from cache, 0 simulated)" \
            in capsys.readouterr().out

    def test_serve_drains_grid(self, spec, tmp_path, monkeypatch, capsys):
        from repro.campaign import Campaign, CampaignStore
        from repro.serve.app import start_in_thread

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        handle = start_in_thread(engine_jobs=1, batch_linger_s=0.01)
        address = f"{handle.host}:{handle.port}"
        try:
            assert main(["campaign", "run", "--spec", spec,
                         "--serve", address, "--serve", address]) == 0
            assert "(0 already stored, 0 synced from cache, 4 simulated)" \
                in capsys.readouterr().out
            assert main(["campaign", "run", "--spec", spec,
                         "--serve", address]) == 0
            assert "(4 already stored, 0 synced from cache, 0 simulated)" \
                in capsys.readouterr().out
        finally:
            handle.stop()
        assert main(["campaign", "status", "--spec", spec]) == 0
        assert "complete" in capsys.readouterr().out
        # The replica's engine ran the cells: no local engine row.
        with CampaignStore() as store:
            campaign_id = Campaign.load(spec).campaign_id
            assert store.engine_stats_rows(campaign_id) == []

    @pytest.mark.parametrize("flag", [["--jobs", "1"], ["--no-cache"],
                                      ["--timeout", "5"],
                                      ["--retries", "1"]])
    def test_serve_with_engine_flag_exits_2(self, spec, flag, capsys):
        assert main(["campaign", "run", "--spec", spec,
                     "--serve", "127.0.0.1:9"] + flag) == 2
        assert "replicas" in capsys.readouterr().err

    @pytest.mark.parametrize("address", ["localhost", "localhost:http",
                                         ":8787", "localhost:0",
                                         "localhost:65536"])
    def test_malformed_serve_address_exits_2(self, spec, address, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", "--spec", spec, "--serve", address])
        assert exit_info.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_without_live_replica_exits_1(self, spec, tmp_path,
                                                monkeypatch, capsys):
        import socket
        import time

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with socket.socket() as sock:          # a port nobody listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        begin = time.monotonic()
        assert main(["campaign", "run", "--spec", spec,
                     "--serve", f"127.0.0.1:{port}"]) == 1
        assert time.monotonic() - begin < 30
        assert "no replica answers /healthz" in capsys.readouterr().err

    def test_absorbed_store_write_exits_1(self, spec, capsys):
        from repro.sim import iofaults

        iofaults.arm("eio@0:site=store.commit")   # the registration
        try:
            assert main(["campaign", "run", "--spec", spec,
                         "--jobs", "1"]) == 1
        finally:
            iofaults.disarm()
        out = capsys.readouterr().out
        assert "4/4 cells done" in out and "1 store write(s) failed" in out
        assert main(["campaign", "run", "--spec", spec, "--jobs", "1"]) == 0

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "status",
                     "--spec", str(tmp_path / "absent.json")]) == 2
        assert "no campaign spec" in capsys.readouterr().err

    def test_read_only_status_query_export(self, spec, tmp_path, capsys):
        """``--read-only`` serves status/query/export against a store
        another process owns, without registering or syncing into it."""
        assert main(["campaign", "run", "--spec", spec,
                     "--jobs", "1"]) == 0
        capsys.readouterr()

        assert main(["campaign", "status", "--spec", spec,
                     "--read-only"]) == 0
        assert "complete" in capsys.readouterr().out

        assert main(["campaign", "query", "--spec", spec,
                     "--read-only", "--where", "workload=milc"]) == 0
        out = capsys.readouterr().out
        assert "milc" in out and "2 cell(s)" in out

        export = tmp_path / "ro.csv"
        assert main(["campaign", "export", "--spec", spec,
                     "--read-only", "--format", "csv",
                     "--out", str(export)]) == 0
        assert export.read_text().count("\n") == 5

    def test_read_only_without_database_exits_2(self, tmp_path,
                                                monkeypatch, capsys):
        path = tmp_path / "spec.json"
        assert main(["campaign", "new", "--name", "ro-t",
                     "--spec", str(path),
                     "--axis", "workload=lbm"]) == 0
        monkeypatch.setenv("REPRO_CAMPAIGN_DB",
                           str(tmp_path / "never-created.sqlite"))
        capsys.readouterr()
        assert main(["campaign", "status", "--spec", str(path),
                     "--read-only"]) == 2
        assert "read-only" in capsys.readouterr().err


class TestReport:
    def test_report_concatenates_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig01.txt").write_text("FIGURE-ONE\n")
        (results / "fig02.txt").write_text("FIGURE-TWO\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "FIGURE-ONE" in out and "FIGURE-TWO" in out
        assert "2 artifacts" in out

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", "--results-dir",
                     str(tmp_path / "nope")]) == 2

    def test_report_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "results"
        empty.mkdir()
        assert main(["report", "--results-dir", str(empty)]) == 2
