"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``run``      : simulate one workload under one configuration and print
  its metrics (optionally the speedup over a baseline variant).
- ``compare``  : run several variants side by side on one workload.
- ``catalog``  : list the workload catalog (name, suite, generator, THP).
- ``config``   : print the Table-I system configuration.
- ``trace``    : generate a catalog workload's trace to a file, or
  describe an existing trace file.
- ``report``   : concatenate the archived figure outputs under
  ``benchmarks/results/`` into one reproduction report.
- ``cache``    : inspect, verify (``cache verify [--prune]``), or clear
  the persistent on-disk run cache.
- ``snapshot`` : inspect (``snapshot stats|list``) or prune the
  crash-consistent mid-run snapshots left by interrupted runs.
- ``campaign`` : declare (``campaign new``), execute (``campaign run``
  incrementally, ``campaign worker`` sharded across processes/hosts),
  and query (``campaign status|query|export``, ``--read-only`` for a
  query-only view of a live sweep's store) parameter sweeps backed by a
  sqlite results store.
- ``serve``    : run the simulation-as-a-service HTTP daemon
  (cache-hit admission, bounded queue, per-client quotas, progress
  streaming; see ``repro.serve``).

``run`` and ``compare`` execute through the batch engine
(``repro.sim.runner``): results are deduplicated, parallelised across
``--jobs``/``REPRO_JOBS`` workers, and persisted under
``REPRO_CACHE_DIR`` (default ``~/.cache/repro``) so repeated invocations
are served from disk.  Runs execute under supervision: failures are
reported as a per-run summary alongside whatever partial results
completed (exit code 1) instead of a stack trace; ``--strict`` restores
the raising behaviour, and ``--timeout``/``--retries`` override the
``REPRO_RUN_TIMEOUT``/``REPRO_MAX_RETRIES`` defaults.

Examples::

    python -m repro run --workload lbm --prefetcher spp --variant psa
    python -m repro compare --workload milc --variants original,psa,psa-2mb
    python -m repro catalog --suite GAP
    python -m repro trace --workload lbm --out lbm.trace.gz --accesses 50000
    python -m repro cache stats
    python -m repro cache clear
    python -m repro snapshot list
    python -m repro snapshot prune --all
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.report import format_table
from repro.core.factory import PREFETCHERS, VARIANTS
from repro.sim import cache as disk_cache
from repro.sim.config import SCALE_ACCESSES, SystemConfig
from repro.sim.metrics import RunMetrics
from repro.sim.runner import RunRequest, engine_stats, run_batch
from repro.sim.simulator import L1D_PREFETCHERS, simulate_trace
from repro.workloads.io import load_trace, save_trace
from repro.workloads.suites import catalog


def _metrics_rows(metrics: RunMetrics) -> List[List]:
    return [
        ["IPC", metrics.ipc],
        ["instructions", metrics.instructions],
        ["memory accesses", metrics.memory_accesses],
        ["L1D MPKI", metrics.l1d_mpki],
        ["L2C MPKI", metrics.l2_mpki],
        ["L2C coverage %", metrics.l2_coverage * 100],
        ["L2C accuracy %", metrics.l2_accuracy * 100],
        ["LLC MPKI", metrics.llc_mpki],
        ["prefetches issued", metrics.pf_issued_total],
        ["stall cycles / access", metrics.stalls_per_access],
        ["avg load latency", metrics.avg_load_latency],
        ["STLB miss %", metrics.stlb_miss_ratio * 100],
        ["page walks", metrics.page_walks],
        ["DRAM row-hit %", metrics.dram_row_hit_ratio * 100],
        ["THP usage %", metrics.thp_usage * 100],
        ["discarded @4KB in 2MB", metrics.boundary.discarded_cross_4k_in_2m],
    ]


def _accesses(text: str) -> int:
    """Type of every ``--accesses`` flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_sim_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prefetcher", default="spp",
                        choices=sorted(PREFETCHERS))
    parser.add_argument("--l1d", default="none", choices=L1D_PREFETCHERS)
    parser.add_argument("--accesses", type=_accesses, default=None,
                        help=f"memory accesses to simulate "
                             f"(default: REPRO_SCALE, small="
                             f"{SCALE_ACCESSES['small']})")
    parser.add_argument("--gb-fraction", type=float, default=0.0,
                        help="fraction of memory backed by 1GB pages")
    parser.add_argument("--no-ppm", action="store_true",
                        help="disable the page-size propagation module")
    parser.add_argument("--tlb-prefetch", action="store_true",
                        help="enable the footnote-3 TLB prefetcher")
    parser.add_argument("--jobs", type=int, default=None,
                        help="engine worker processes (default: REPRO_JOBS "
                             "or all cores; 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the in-process and on-disk run caches")
    parser.add_argument("--engine-stats", action="store_true",
                        help="print engine dedup/cache/throughput summary")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run watchdog seconds (default: "
                             "REPRO_RUN_TIMEOUT; <=0 disables)")
    parser.add_argument("--retries", type=int, default=None,
                        help="extra attempts for transient failures "
                             "(default: REPRO_MAX_RETRIES)")
    parser.add_argument("--strict", action="store_true",
                        help="raise on the first run failure instead of "
                             "reporting partial results")


def _config_from(args) -> SystemConfig:
    config = SystemConfig()
    if getattr(args, "no_ppm", False):
        config.ppm_enabled = False
    if getattr(args, "tlb_prefetch", False):
        config.tlb_prefetch = True
    return config


def _engine_epilogue(args) -> None:
    if getattr(args, "engine_stats", False):
        print(f"\n{engine_stats().summary_line()}")


def _request_for(args, config, variant) -> RunRequest:
    return RunRequest(args.workload, args.prefetcher, variant,
                      l1d=args.l1d, n_accesses=args.accesses,
                      gb_fraction=args.gb_fraction, config=config)


def _supervised_batch(args, requests):
    """Run a CLI batch: strict mode raises, default mode returns a
    BatchResult whose failures have already been summarised on stderr."""
    batch = run_batch(requests, jobs=args.jobs,
                      use_cache=not args.no_cache,
                      strict=args.strict, timeout=args.timeout,
                      retries=args.retries)
    if args.strict:
        return batch, 0   # a plain metrics list; failures already raised
    if not batch.ok:
        for line in batch.describe_failures():
            print(line, file=sys.stderr)
        print(batch.summary_line(), file=sys.stderr)
    return batch.metrics, (0 if batch.ok else 1)


def cmd_run(args) -> int:
    config = _config_from(args)
    requests = [_request_for(args, config, args.variant)]
    if args.baseline:
        requests.append(_request_for(args, config, args.baseline))
    results, code = _supervised_batch(args, requests)
    metrics = results[0]
    if metrics is not None:
        title = f"{args.workload}: {args.prefetcher}-{args.variant}"
        print(format_table(["metric", "value"], _metrics_rows(metrics),
                           title=title))
        if args.baseline and results[1] is not None:
            gain = (metrics.speedup_over(results[1]) - 1) * 100
            print(f"\nspeedup over {args.prefetcher}-{args.baseline}: "
                  f"{gain:+.2f}%")
    _engine_epilogue(args)
    return code


def cmd_compare(args) -> int:
    config = _config_from(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for variant in variants:
        if variant not in VARIANTS:
            print(f"error: unknown variant {variant!r} "
                  f"(choose from {VARIANTS})", file=sys.stderr)
            return 2
    metrics_list, code = _supervised_batch(
        args, [_request_for(args, config, variant) for variant in variants])
    results = {v: m for v, m in zip(variants, metrics_list)
               if m is not None}
    if not results:
        _engine_epilogue(args)
        return code
    baseline_variant = next(iter(results))
    baseline = results[baseline_variant]
    rows = []
    for variant, metrics in results.items():
        rows.append([f"{args.prefetcher}-{variant}", metrics.ipc,
                     metrics.l2_mpki, metrics.l2_coverage * 100,
                     (metrics.speedup_over(baseline) - 1) * 100])
    print(format_table(
        ["config", "IPC", "L2 MPKI", "L2 coverage %",
         f"vs {baseline_variant} %"],
        rows, title=f"{args.workload}: variant comparison"))
    _engine_epilogue(args)
    return code


def cmd_cache(args) -> int:
    if args.dir:
        os.environ["REPRO_CACHE_DIR"] = args.dir
    if args.action == "stats":
        print(disk_cache.stats().describe())
        return 0
    if args.action == "list":
        entries = disk_cache.list_entries()
        if args.json:
            import json
            print(json.dumps([e.to_dict() for e in entries], indent=2))
            return 0
        if not entries:
            print(f"no cache entries under {disk_cache.cache_dir()}")
            return 0
        rows = [[e.workload, e.prefetcher, e.variant, e.size_bytes,
                 "yes" if e.current else "stale"] for e in entries]
        print(format_table(
            ["workload", "prefetcher", "variant", "bytes", "current"],
            rows, title=f"{len(entries)} cache entries "
                        f"({disk_cache.cache_dir()})"))
        return 0
    if args.action == "verify":
        report = disk_cache.verify(prune=args.prune)
        print(report.describe())
        return 1 if report.findings and not args.prune else 0
    # clear
    removed = disk_cache.clear()
    print(f"removed {removed} cache entries from {disk_cache.cache_dir()}")
    return 0


def cmd_snapshot(args) -> int:
    from repro.sim import snapshot as snapshot_store

    if args.dir:
        os.environ["REPRO_SNAPSHOT_DIR"] = args.dir
    if args.action == "stats":
        print(snapshot_store.stats().describe())
        return 0
    if args.action == "list":
        entries = snapshot_store.list_entries()
        if not entries:
            print(f"no snapshots under {snapshot_store.snapshot_dir()}")
            return 0
        rows = [[e.key, e.access_index, e.size_bytes,
                 "yes" if e.current else "stale"] for e in entries]
        print(format_table(
            ["run key", "access", "bytes", "current"],
            rows, title=f"{len(entries)} snapshots "
                        f"({snapshot_store.snapshot_dir()})"))
        return 0
    # prune
    removed = snapshot_store.prune(all_entries=args.all)
    scope = ("" if args.all else
             "stale, corrupt (quarantined) or orphaned ")
    print(f"removed {removed} {scope}snapshot file(s) from "
          f"{snapshot_store.snapshot_dir()}")
    return 0


def cmd_doctor(args) -> int:
    import json as json_mod

    from repro.sim import doctor

    if args.dir:
        os.environ["REPRO_CACHE_DIR"] = args.dir
    report = doctor.diagnose(repair=args.repair,
                             lease_ttl_s=args.lease_ttl,
                             tmp_age_s=args.tmp_age)
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    if args.out:
        Path(args.out).write_text(
            json_mod.dumps(report.to_dict(), indent=2) + "\n")
    # Exit 0 when nothing is (left) wrong; 1 when findings remain
    # unrepaired so cron/CI wrappers can alert.
    return 0 if report.healthy else 1


def _campaign_from(args):
    """Load the campaign spec an action targets, honouring --db."""
    from repro.campaign import Campaign

    if getattr(args, "db", None):
        os.environ["REPRO_CAMPAIGN_DB"] = args.db
    return Campaign.load(args.spec)


def cmd_campaign_new(args) -> int:
    from repro.campaign import Campaign
    from repro.campaign.grid import parse_assignment, parse_where

    axes = {}
    for text in args.axis or []:
        name, values = parse_assignment(text)
        axes[name] = values
    fixed = {}
    for text in args.fixed or []:
        name, values = parse_assignment(text)
        if len(values) != 1:
            print(f"error: --fixed {name} takes exactly one value",
                  file=sys.stderr)
            return 2
        fixed[name] = values[0]
    excludes = [parse_where(text.split(","))
                for text in args.exclude or []]
    campaign = Campaign(name=args.name, axes=axes, fixed=fixed,
                        excludes=excludes)
    campaign.save(args.spec)
    print(campaign.describe())
    print(f"spec written to {args.spec}")
    return 0


def cmd_campaign_status(args) -> int:
    from repro.campaign import CampaignStore
    from repro.campaign.worker import active_leases

    campaign = _campaign_from(args)
    read_only = getattr(args, "read_only", False)
    with CampaignStore(read_only=read_only) as store:
        if not read_only:
            store.register(campaign)
            store.sync_from_cache(campaign)
        status = store.status(campaign,
                              leased=len(active_leases(campaign)))
    print(campaign.describe())
    print(status.describe())
    return 0


def cmd_campaign_run(args) -> int:
    from repro.campaign import run_missing

    campaign = _campaign_from(args)
    report = run_missing(campaign, jobs=args.jobs,
                         use_cache=not args.no_cache,
                         timeout=args.timeout, retries=args.retries)
    print(report.describe())
    return 0 if report.complete else 1


def cmd_campaign_worker(args) -> int:
    from repro.campaign import run_worker

    campaign = _campaign_from(args)
    report = run_worker(campaign, worker=args.worker_id, ttl=args.ttl,
                        max_cells=args.max_cells, timeout=args.timeout,
                        retries=args.retries)
    print(report.describe())
    return 0 if not report.failed else 1


def cmd_campaign_query(args) -> int:
    from repro.campaign import CampaignStore
    from repro.campaign.grid import parse_where

    campaign = _campaign_from(args)
    where = parse_where(args.where or [])
    read_only = getattr(args, "read_only", False)
    with CampaignStore(read_only=read_only) as store:
        if not read_only:
            store.register(campaign)
            store.sync_from_cache(campaign)
        if args.speedups:
            rows = store.speedup_rows(campaign,
                                      baseline_value=args.baseline,
                                      where=where or None)
            if not rows:
                print("no speedup rows (baseline cells missing?)")
                return 1
            columns = [k for k in rows[0] if k not in
                       ("ipc", "baseline_ipc", "speedup")]
            table_rows = [[row[c] for c in columns]
                          + [row["ipc"], row["baseline_ipc"],
                             (row["speedup"] - 1) * 100]
                          for row in rows]
            print(format_table(
                columns + ["IPC", "baseline IPC", "speedup %"],
                table_rows,
                title=f"{campaign.name}: speedup over "
                      f"{args.baseline}"))
            return 0
        fields = ([f.strip() for f in args.metrics.split(",")
                   if f.strip()] if args.metrics else ["ipc", "l2_mpki"])
        rows = store.rows(campaign, where=where or None,
                          metrics_fields=fields)
        if not rows:
            print("no matching cells")
            return 1
        columns = [k for k in rows[0]
                   if k not in ("source", "attempts", "wall_time_s")]
        table_rows = [[row.get(c, "") for c in columns] for row in rows]
        print(format_table(columns, table_rows,
                           title=f"{campaign.name}: "
                                 f"{len(rows)} cell(s)"))
    return 0


def cmd_campaign_export(args) -> int:
    from repro.campaign import CampaignStore
    from repro.campaign.grid import parse_where

    campaign = _campaign_from(args)
    where = parse_where(args.where or [])
    read_only = getattr(args, "read_only", False)
    with CampaignStore(read_only=read_only) as store:
        if not read_only:
            store.register(campaign)
            store.sync_from_cache(campaign)
        text = store.export(campaign, fmt=args.format,
                            where=where or None)
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(text)
        print(f"wrote {args.format} export to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_serve(args) -> int:
    import logging

    from repro.serve.app import ServeApp

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(asctime)s %(name)s %(message)s")
    app = ServeApp(host=args.host, port=args.port,
                   queue_depth=args.queue_max, quota=args.quota,
                   engine_jobs=args.jobs,
                   heal_on_start=not args.no_doctor,
                   cluster=args.cluster)
    return app.run()


def cmd_cluster_status(args) -> int:
    import json

    from repro.serve import cluster as cluster_mod

    status = cluster_mod.cluster_status(probe_timeout=args.probe_timeout)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(f"registry : {status['registry']} "
              f"(ttl {status['ttl_s']:g}s)")
        if not status["members"]:
            print("members  : none registered")
        for info in status["members"]:
            extra = ""
            if info.get("queue_depth") is not None:
                extra = f" queue={info['queue_depth']}"
            print(f"  {info['member_id']:24s} "
                  f"{info['host']}:{info['port']} "
                  f"{info['health']:12s} age={info['age_s']:.1f}s"
                  f"{extra}")
        print(f"alive    : {status['alive']}/{len(status['members'])}")
    return 0 if status["alive"] or not status["members"] else 1


def cmd_verify(args) -> int:
    from pathlib import Path

    from repro.verify import golden as golden_mod
    from repro.verify.invariants import InvariantViolation
    from repro.verify.oracle import OracleDivergence
    from repro.sim.simulator import simulate_workload

    golden_dir = Path(args.golden_dir) if args.golden_dir else None
    if args.bless:
        path = golden_mod.bless(golden_dir)
        print(f"blessed golden corpus -> {path}")
        return 0
    failed = 0
    if args.golden:
        results = golden_mod.run_corpus(golden_dir, oracle=args.oracle)
        for result in results:
            print(result.describe())
            if not result.ok:
                failed += 1
        if failed:
            print(f"\n{failed} golden digest(s) diverged; if the change is "
                  f"intended, rerun with --bless", file=sys.stderr)
        return 1 if failed else 0
    # Differential-oracle mode: replay workloads with the reference model.
    names = args.workloads or ["all"]
    if names == ["all"]:
        names = sorted(catalog())
    variants = ([args.variant] if args.variant
                else ["none", "original", "psa", "psa-2mb", "psa-sd"])
    config = _config_from(args)
    for name in names:
        for variant in variants:
            try:
                metrics = simulate_workload(
                    name, config=config, prefetcher=args.prefetcher,
                    variant=variant, l1d=args.l1d,
                    n_accesses=args.accesses, oracle=True)
                report = metrics.oracle_report
                print(f"OK   {name:<14s} {variant:<9s} "
                      f"{report.events} events, "
                      f"{len(report.counters)} counters matched")
            except OracleDivergence as exc:
                failed += 1
                print(f"FAIL {name:<14s} {variant:<9s} "
                      f"{exc.report.total_divergences} divergence(s)")
                if args.diff_out:
                    Path(args.diff_out).write_text(exc.report.to_text()
                                                   + "\n")
                    print(f"     diff written to {args.diff_out}")
                else:
                    for line in exc.report.divergences[:5]:
                        print(f"     {line}")
            except InvariantViolation as exc:
                # REPRO_CHECK tripped before the oracle could finish its
                # diff — still a verification failure, report it as one.
                failed += 1
                print(f"FAIL {name:<14s} {variant:<9s} "
                      f"runtime invariant violated")
                message = f"invariant violation:\n{exc}\n"
                if args.diff_out:
                    Path(args.diff_out).write_text(message)
                    print(f"     diff written to {args.diff_out}")
                else:
                    print(f"     {exc}")
    if failed:
        print(f"\n{failed} (workload, variant) pair(s) diverged from the "
              f"reference model", file=sys.stderr)
    return 1 if failed else 0


def cmd_catalog(args) -> int:
    specs = catalog(include_non_intensive=args.all).values()
    if args.suite:
        specs = [s for s in specs if s.suite == args.suite]
    rows = [[s.name, s.suite, s.kind, s.thp_fraction,
             "yes" if s.intensive else "no"] for s in specs]
    print(format_table(["workload", "suite", "generator", "thp", "intensive"],
                       rows, title=f"{len(rows)} workloads"))
    return 0


def cmd_config(_args) -> int:
    print(SystemConfig().describe())
    return 0


def cmd_trace(args) -> int:
    if args.workload and args.out:
        spec = catalog(include_non_intensive=True).get(args.workload)
        if spec is None:
            print(f"error: unknown workload {args.workload!r}",
                  file=sys.stderr)
            return 2
        trace = spec.generate(args.accesses or SCALE_ACCESSES["small"])
        save_trace(trace, args.out)
        print(f"wrote {len(trace)} records to {args.out}")
        return 0
    if args.describe:
        trace = load_trace(args.describe)
        print(format_table(["field", "value"], [
            ["name", trace.name],
            ["suite", trace.suite],
            ["records", len(trace)],
            ["instructions", trace.instructions],
            ["thp fraction", trace.thp_fraction],
            ["footprint (bytes)", trace.footprint_bytes()],
        ], title=str(args.describe)))
        return 0
    if args.simulate:
        trace = load_trace(args.simulate)
        metrics = simulate_trace(trace, prefetcher=args.prefetcher,
                                 variant=args.variant)
        print(format_table(["metric", "value"], _metrics_rows(metrics),
                           title=f"{trace.name} (from file)"))
        return 0
    print("error: trace needs --workload/--out, --describe, or --simulate",
          file=sys.stderr)
    return 2


def cmd_report(args) -> int:
    from pathlib import Path
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(f"error: no results directory at {results_dir} — run "
              f"'pytest benchmarks/ --benchmark-only' first",
              file=sys.stderr)
        return 2
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(f"error: {results_dir} holds no figure outputs",
              file=sys.stderr)
        return 2
    sections = [path.read_text().rstrip() for path in files]
    banner = ("Page Size Aware Cache Prefetching — regenerated evaluation\n"
              f"({len(files)} artifacts from {results_dir})\n")
    print(banner)
    print(("\n\n" + "-" * 72 + "\n\n").join(sections))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Page Size Aware Cache Prefetching — reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--variant", default="psa", choices=VARIANTS)
    p_run.add_argument("--baseline", default="original",
                       help="variant to compute the speedup against "
                            "('' to skip)")
    _add_sim_arguments(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare variants on a workload")
    p_cmp.add_argument("--workload", required=True)
    p_cmp.add_argument("--variants", default="original,psa,psa-2mb,psa-sd")
    _add_sim_arguments(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_cat = sub.add_parser("catalog", help="list the workload catalog")
    p_cat.add_argument("--suite", default=None)
    p_cat.add_argument("--all", action="store_true",
                       help="include the non-intensive extension")
    p_cat.set_defaults(func=cmd_catalog)

    p_cfg = sub.add_parser("config", help="print the Table-I configuration")
    p_cfg.set_defaults(func=cmd_config)

    p_trace = sub.add_parser("trace", help="generate/describe trace files")
    p_trace.add_argument("--workload", default=None)
    p_trace.add_argument("--out", default=None)
    p_trace.add_argument("--describe", default=None)
    p_trace.add_argument("--simulate", default=None)
    p_trace.add_argument("--accesses", type=_accesses, default=None)
    p_trace.add_argument("--prefetcher", default="spp",
                         choices=sorted(PREFETCHERS))
    p_trace.add_argument("--variant", default="psa", choices=VARIANTS)
    p_trace.set_defaults(func=cmd_trace)

    p_rep = sub.add_parser("report", help="print all regenerated figures")
    p_rep.add_argument("--results-dir", default="benchmarks/results")
    p_rep.set_defaults(func=cmd_report)

    p_ver = sub.add_parser(
        "verify",
        help="differential-oracle and golden-corpus verification")
    p_ver.add_argument("workloads", nargs="*",
                       help="workload names, or 'all' (default)")
    p_ver.add_argument("--accesses", type=_accesses, default=3000,
                       help="trace length per oracle replay (default 3000)")
    p_ver.add_argument("--prefetcher", default="spp",
                       choices=sorted(PREFETCHERS))
    p_ver.add_argument("--variant", default=None, choices=VARIANTS,
                       help="single variant (default: all five)")
    p_ver.add_argument("--l1d", default="none", choices=L1D_PREFETCHERS)
    p_ver.add_argument("--no-ppm", action="store_true",
                       help="disable the page-size propagation module")
    p_ver.add_argument("--tlb-prefetch", action="store_true",
                       help="enable the footnote-3 TLB prefetcher")
    p_ver.add_argument("--golden", action="store_true",
                       help="replay the committed golden-trace corpus")
    p_ver.add_argument("--oracle", action="store_true",
                       help="with --golden: also shadow each replay with "
                            "the differential oracle")
    p_ver.add_argument("--bless", action="store_true",
                       help="regenerate the golden digests (records "
                            "intended semantic changes)")
    p_ver.add_argument("--golden-dir", default=None,
                       help="corpus directory (default: REPRO_GOLDEN_DIR "
                            "or tests/golden)")
    p_ver.add_argument("--diff-out", default=None,
                       help="write the full fast-vs-oracle diff of the "
                            "first failure to this path")
    p_ver.set_defaults(func=cmd_verify)

    p_cache = sub.add_parser("cache",
                             help="inspect/clear the on-disk run cache")
    p_cache.add_argument("action",
                         choices=["stats", "list", "verify", "clear"])
    p_cache.add_argument("--dir", default=None,
                         help="cache directory (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    p_cache.add_argument("--prune", action="store_true",
                         help="with verify: move corrupt/stale entries "
                              "to <cache>/quarantine/")
    p_cache.add_argument("--json", action="store_true",
                         help="with list: emit entries as a JSON array")
    p_cache.set_defaults(func=cmd_cache)

    p_snap = sub.add_parser(
        "snapshot",
        help="inspect/prune the crash-consistent mid-run snapshots")
    p_snap.add_argument("action", choices=["stats", "list", "prune"])
    p_snap.add_argument("--dir", default=None,
                        help="snapshot directory (default: "
                             "REPRO_SNAPSHOT_DIR or <cache>/snapshots)")
    p_snap.add_argument("--all", action="store_true",
                        help="with prune: remove every snapshot, not just "
                             "stale (unlinked) and corrupt (quarantined) ones")
    p_snap.set_defaults(func=cmd_snapshot)

    p_doc = sub.add_parser(
        "doctor",
        help="scan (and --repair) the whole durable state: cache, "
             "snapshots, campaign store, leases")
    p_doc.add_argument("--repair", action="store_true",
                       help="heal what has a safe fix (quarantine "
                            "corrupt entries, sweep orphans, sync the "
                            "store from the cache, free stale leases)")
    p_doc.add_argument("--json", action="store_true",
                       help="emit the DoctorReport as JSON")
    p_doc.add_argument("--out", default=None,
                       help="also write the JSON report to this file")
    p_doc.add_argument("--dir", default=None,
                       help="cache directory (default: REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
    p_doc.add_argument("--lease-ttl", type=float, default=None,
                       help="age in seconds past which a claim lease "
                            "is stale (default: REPRO_LEASE_TTL, else 300)")
    p_doc.add_argument("--tmp-age", type=float, default=None,
                       help="age in seconds past which a writer temp "
                            "file is an orphan (default 60)")
    p_doc.set_defaults(func=cmd_doctor)

    p_camp = sub.add_parser(
        "campaign",
        help="declarative parameter sweeps with a queryable store")
    camp_sub = p_camp.add_subparsers(dest="campaign_command",
                                     required=True)

    def _camp_common(p, jobs=False, engine=False, query=False):
        p.add_argument("--spec", required=True,
                       help="campaign spec JSON (see 'campaign new')")
        p.add_argument("--db", default=None,
                       help="results database (default: "
                            "REPRO_CAMPAIGN_DB or "
                            "<cache>/campaigns.sqlite)")
        if query:
            p.add_argument("--read-only", action="store_true",
                           help="open the store query-only (safe "
                                "against a live sweep writing it; "
                                "skips the register/cache-sync "
                                "writes)")
        if jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="engine worker processes")
            p.add_argument("--no-cache", action="store_true",
                           help="bypass the run caches")
        if engine:
            p.add_argument("--timeout", type=float, default=None,
                           help="per-run watchdog seconds")
            p.add_argument("--retries", type=int, default=None,
                           help="extra attempts for transient failures")

    p_new = camp_sub.add_parser(
        "new", help="declare a campaign grid and write its spec")
    p_new.add_argument("--name", required=True)
    p_new.add_argument("--spec", required=True,
                       help="output path for the spec JSON")
    p_new.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                       help="one swept axis (repeatable); NAME is a "
                            "RunRequest field or a dotted SystemConfig "
                            "path like llc.size_bytes")
    p_new.add_argument("--fixed", action="append", metavar="NAME=V",
                       help="one fixed value applied to every cell "
                            "(repeatable)")
    p_new.add_argument("--exclude", action="append",
                       metavar="K1=V1,K2=V2",
                       help="drop cells matching all pairs (repeatable)")
    p_new.set_defaults(func=cmd_campaign_new)

    p_status = camp_sub.add_parser(
        "status", help="completion summary of a campaign")
    _camp_common(p_status, query=True)
    p_status.set_defaults(func=cmd_campaign_status)

    p_crun = camp_sub.add_parser(
        "run", help="simulate every cell the store is missing")
    _camp_common(p_crun, jobs=True, engine=True)
    p_crun.set_defaults(func=cmd_campaign_run)

    p_worker = camp_sub.add_parser(
        "worker", help="pull-execute cells under an atomic lease "
                       "(run N of these for a sharded sweep)")
    _camp_common(p_worker, engine=True)
    p_worker.add_argument("--worker-id", default=None,
                          help="identity in lease files (default: "
                               "REPRO_WORKER_ID or host-pid)")
    p_worker.add_argument("--ttl", type=float, default=None,
                          help="seconds before a peer's lease is "
                               "presumed dead (default: "
                               "REPRO_LEASE_TTL or 300)")
    p_worker.add_argument("--max-cells", type=int, default=None,
                          help="stop after claiming this many cells")
    p_worker.set_defaults(func=cmd_campaign_worker)

    p_query = camp_sub.add_parser(
        "query", help="tabulate results straight from the store")
    _camp_common(p_query, query=True)
    p_query.add_argument("--where", action="append", metavar="K=V",
                         help="axis filter (repeatable)")
    p_query.add_argument("--speedups", action="store_true",
                         help="IPC speedup of each cell over its "
                              "baseline twin")
    p_query.add_argument("--baseline", default="original",
                         help="baseline variant for --speedups")
    p_query.add_argument("--metrics", default=None,
                         help="comma-separated RunMetrics fields "
                              "(default: ipc,l2_mpki)")
    p_query.set_defaults(func=cmd_campaign_query)

    p_exp = camp_sub.add_parser(
        "export", help="dump result rows as JSON or CSV")
    _camp_common(p_exp, query=True)
    p_exp.add_argument("--format", default="json",
                       choices=["json", "csv"])
    p_exp.add_argument("--where", action="append", metavar="K=V",
                       help="axis filter (repeatable)")
    p_exp.add_argument("--out", default=None,
                       help="write to this file instead of stdout")
    p_exp.set_defaults(func=cmd_campaign_export)

    p_serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP daemon")
    p_serve.add_argument("--host", default=None,
                         help="bind address (default: REPRO_SERVE_HOST "
                              "or 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port (default: REPRO_SERVE_PORT or "
                              "8787; 0 = ephemeral)")
    p_serve.add_argument("--queue-max", type=int, default=None,
                         help="bounded admission-queue depth (default: "
                              "REPRO_QUEUE_MAX or 256)")
    p_serve.add_argument("--quota", type=int, default=None,
                         help="in-flight jobs per client (default: "
                              "REPRO_CLIENT_QUOTA or 64; 0 = unlimited)")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="engine worker processes per batch "
                              "(default: REPRO_JOBS or all cores)")
    p_serve.add_argument("--no-doctor", action="store_true",
                         help="skip the startup doctor --repair pass "
                              "over the durable state")
    p_serve.add_argument("--cluster", action="store_true",
                         help="publish a heartbeat-renewed member "
                              "record into the shared cache dir so "
                              "peers and cluster clients discover "
                              "this replica")
    p_serve.add_argument("--log-level", default="info",
                         choices=["debug", "info", "warning", "error"])
    p_serve.set_defaults(func=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="inspect the multi-daemon cluster over the shared cache")
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command",
                                           required=True)
    p_cstatus = cluster_sub.add_parser(
        "status",
        help="list registered replicas with a live health probe")
    p_cstatus.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_cstatus.add_argument("--probe-timeout", type=float, default=2.0,
                           help="per-replica /healthz timeout "
                                "(default 2s)")
    p_cstatus.set_defaults(func=cmd_cluster_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.campaign.grid import CampaignSpecError
    from repro.sim.config import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CampaignSpecError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
