#!/usr/bin/env python3
"""Compare end-to-end benchmark results of a parent and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py --summary DIR [DIR ...] [--json]

Each directory holds ``run.py --out`` result files.  Parent and change
runs pair up by (workload, seed); run at least ten pairs with the same
``--seconds``, alternating which side runs first.  For every workload x
end-to-end metric the table gives each side's median and quartiles, the
share of pairs the change won (ties count for neither side) and a
verdict, with bounds from BENCHMARK.json:

- improved:   the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's interquartile range;
- regressed:  the change's median is worse than the parent's by more
              than the metric's bound;
- unresolved: the parent's own spread (IQR / median) exceeds the bound
              and not every change run beats every parent run;
- no worse:   otherwise.

Traced results (``--trace 1``) get a per-layer table of medians.  The
command fails when a pair's result digests differ or when the change
failed a larger share of its operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_results(directory: Path) -> dict:
    """(workload, seed) -> result, for every result file in *directory*."""
    results = {}
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if "workload" in data and "metrics" in data:
            results[(data["workload"], data["seed"])] = data
    return results


def stats(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def verdict(parent: list, change: list, higher: bool,
            bound: float) -> tuple:
    """(verdict, win fraction) for paired samples of one metric."""
    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    p, c = stats(parent), stats(change)
    worse_by = ((p["median"] - c["median"]) if higher
                else (c["median"] - p["median"])) / p["median"]
    if (wins >= 0.9 * len(parent)
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        label = "improved"
    elif worse_by > bound:
        label = "regressed"
    elif p["spread"] > bound and not all(better(x, y) for x in change
                                         for y in parent):
        label = "unresolved"
    else:
        label = "no worse"
    return label, wins / len(parent)


def _values(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    parents, changes = load_results(parent_dir), load_results(change_dir)
    keys = sorted(set(parents) & set(changes))
    if not keys:
        print("no (workload, seed) pair appears on both sides",
              file=sys.stderr)
        return 2
    problems = []
    for workload in sorted({w for w, _ in keys}):
        pairs = [(parents[k], changes[k]) for k in keys if k[0] == workload]
        for p, c in pairs:
            # A faster side completes more calls, so compare the
            # operations both sides ran; an operation id fixes its input.
            shared = p["digests"].keys() & c["digests"].keys()
            if not shared:
                problems.append(f"{workload} seed {p['seed']}: no "
                                f"operation in common")
            elif any(p["digests"][k] != c["digests"][k] for k in shared):
                problems.append(f"{workload} seed {p['seed']}: result "
                                f"digests differ")
        rate = [sum(r["failed"] for r in side)
                / max(1, sum(r["attempted"] for r in side))
                for side in zip(*pairs)]
        if rate[1] > rate[0]:
            problems.append(f"{workload}: failed share rose from "
                            f"{rate[0]:.4f} to {rate[1]:.4f}")
        traced = all(p["trace"] and c["trace"] for p, c in pairs)
        print(f"\n{workload}: {len(pairs)} pairs"
              f"{' (traced)' if traced else ''}")
        if traced:
            print(f"  {'metric':30s} {'parent':>12s} {'change':>12s}")
            for name in pairs[0][0]["metrics"]:
                medians = [statistics.median(_values(r)[name] for r in side)
                           for side in zip(*pairs)]
                print(f"  {name:30s} {medians[0]:12.4g} {medians[1]:12.4g}")
            continue
        print(f"  {'metric':16s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict")
        for name, meta in declared.items():
            sides = [[_values(r)[name] for r in side] for side in zip(*pairs)]
            label, wins = verdict(sides[0], sides[1],
                                  meta["better"] == "higher", meta["bound"])
            cells = [stats(s) for s in sides]
            print(f"  {name:16s} " + " ".join(
                f"{s['median']:12.4g} [{s['q1']:9.4g}, {s['q3']:9.4g}]"
                for s in cells) + f" {wins:5.2f}  {label}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def summary(directories: list) -> dict:
    """Median and quartiles per workload x metric for each result set."""
    sets = {}
    for directory in directories:
        results = load_results(directory)
        table: dict = {}
        for workload in sorted({w for w, _ in results}):
            runs = [r for (w, _), r in sorted(results.items())
                    if w == workload]
            table[workload] = {name: stats([_values(r)[name] for r in runs])
                               for name in runs[0]["metrics"]}
        host = next(iter(results.values()))["host"] if results else {}
        sets[str(directory)] = {"host": host, "metrics": table}
    return sets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark results.")
    parser.add_argument("dirs", nargs="+", type=Path)
    parser.add_argument("--summary", action="store_true",
                        help="per-set medians and quartiles only")
    parser.add_argument("--json", action="store_true",
                        help="with --summary: print JSON")
    args = parser.parse_args(argv)
    if args.summary:
        sets = summary(args.dirs)
        if args.json:
            print(json.dumps(sets, indent=1))
            return 0
        for name, data in sets.items():
            print(f"\n{name}: {data['host']}")
            for workload, table in data["metrics"].items():
                print(f"  {workload}")
                for metric, s in table.items():
                    print(f"    {metric:28s} n={s['n']:<3d} median "
                          f"{s['median']:12.5g} [{s['q1']:.5g}, "
                          f"{s['q3']:.5g}] spread {s['spread']:.3f}")
        return 0
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR (or --summary)")
    return compare(*args.dirs)


if __name__ == "__main__":
    raise SystemExit(main())
