"""Figure 14 — 4-core weighted speedups of SPP-PSA and SPP-PSA-SD over
original SPP across random workload mixes.

The paper runs 100 mixes (geomeans +5.6% / +7.7% for SPP); the mix count
here follows REPRO_SCALE (see repro.sim.config.SCALE_MIXES; 100 at
'large').  Reported per variant: the distribution summary the paper's
box/whisker figure shows, plus the geomean.
"""

from bench_common import save_result

from repro.analysis.report import format_table
from repro.analysis.stats import DistributionSummary, geomean_speedup_percent
from repro.sim.config import SystemConfig, mixes_for_scale
from repro.sim.multicore import (
    generate_mixes,
    mix_weighted_speedups,
    multicore_config,
)

CORES = 4
VARIANTS = ["psa", "psa-sd"]


def collect(cores=CORES):
    config = multicore_config(SystemConfig(), cores)
    mixes = generate_mixes(mixes_for_scale(), cores)
    # One engine batch: the isolation runs, then the mixes, each a
    # deduplicated, cached run on the worker pool.
    return mix_weighted_speedups(mixes, config, "spp", VARIANTS)


def render(results, cores):
    rows = []
    for variant, values in results.items():
        summary = DistributionSummary.of([(v - 1) * 100 for v in values])
        rows.append([f"SPP-{variant.upper()}", summary.minimum, summary.p25,
                     summary.median, summary.p75, summary.maximum,
                     geomean_speedup_percent(values)])
    return format_table(
        ["config", "min%", "p25%", "med%", "p75%", "max%", "geomean%"], rows,
        title=f"Fig. {14 if cores == 4 else 15} — {cores}-core weighted "
              f"speedup over original SPP ({len(next(iter(results.values())))} mixes)")


def test_fig14_multicore_4(benchmark):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    save_result("fig14_multicore_4", render(results, CORES))
    for variant, values in results.items():
        # Most mixes benefit; the geomean is positive.
        positive = sum(1 for v in values if v > 1.0)
        assert positive >= len(values) // 2, f"{variant}: most mixes regress"
        assert geomean_speedup_percent(values) > 0.0
