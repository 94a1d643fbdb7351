"""Scheduler shootout: FIFO vs SJF vs the paper's staged design.

Runs the same closed-loop TPC-W workload through three server models
(all sharing identical resources — threads, connections, database)
and compares what each scheduling discipline does to quick-page
latency, lengthy-page tail latency, and total throughput.  This is the
paper's §3.3 claim made executable: the staged design "achieves
effects similar to Shortest Job First scheduling, but without causing
the starvation of lengthy jobs."

Also demonstrates the export API: pass ``--export DIR`` to write the
staged run's figures as gnuplot-ready .dat files.

Run:  python examples/scheduler_shootout.py [--export DIR]
"""

import argparse

from repro.sim.workload import (
    LENGTHY_REPORT_PAGES,
    WorkloadConfig,
    run_tpcw_simulation,
)

CONFIG = WorkloadConfig(
    clients=80, ramp_up=30, measure=300, cool_down=20,
    baseline_workers=26, general_pool=32, lengthy_pool=8,
    header_pool=4, static_pool=4, render_pool=4,
    minimum_reserve=2, maximum_reserve=5, db_cores=80, web_cores=4,
)

# Every row is a topology/discipline *configuration* of the same
# resources — the live servers are built the same way, as stage-graph
# configs over repro.server.pipeline (see StagedServer(render_inline=True)
# for the live twin of the render-inline row).
SERVERS = [
    ("baseline", "FIFO thread-per-request"),
    ("sjf", "Shortest Job First"),
    ("staged", "staged five-pool (the paper)"),
    ("staged-render-inline", "staged, no render pool (ablation)"),
]


def quick_mean(results) -> float:
    response_times = results.mean_response_times()
    values = [
        value for page, value in response_times.items()
        if page not in LENGTHY_REPORT_PAGES
    ]
    return sum(values) / len(values)


def lengthy_stats(results):
    means = []
    worst = 0.0
    summaries = results.response_time_summary()
    for page in LENGTHY_REPORT_PAGES:
        summary = summaries.get(page)
        if summary is not None:
            means.append(summary["mean"])
            worst = max(worst, summary["max"])
    return sum(means) / len(means), worst


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--export", metavar="DIR", default=None,
                        help="write the staged run's figure .dat files")
    args = parser.parse_args()

    print(f"{CONFIG.clients} emulated browsers, "
          f"{CONFIG.measure:.0f}s measured window\n")
    print(f"{'scheduler':32s} {'interactions':>12s} {'quick mean':>11s} "
          f"{'lengthy mean':>13s} {'lengthy worst':>14s}")

    runs = {}
    for kind, label in SERVERS:
        results = run_tpcw_simulation(kind, CONFIG).stats
        runs[kind] = results
        lengthy_mean, lengthy_worst = lengthy_stats(results)
        print(f"{label:32s} {results.total_completions():>12d} "
              f"{quick_mean(results)*1000:>9.0f}ms "
              f"{lengthy_mean:>11.1f}s {lengthy_worst:>12.1f}s")

    print()
    print("Reading the table:")
    print(" - SJF rescues quick pages from FIFO's convoy, but its")
    print("   lengthy worst-case blows out: unlucky big jobs keep")
    print("   getting jumped (starvation).")
    print(" - The staged design protects quick pages even harder")
    print("   (reserved threads beat queue-jumping) while its lengthy")
    print("   pool guarantees forward progress for big jobs.")
    print(" - Render-inline keeps the pools but drops the rendering")
    print("   stage: database connections sit idle during renders and")
    print("   throughput gives back part of the staged gain.")

    if args.export:
        from repro.harness.experiments import ExperimentRunner
        from repro.harness.export import export_figures

        runner = ExperimentRunner(CONFIG)
        runner._results["baseline"] = runs["baseline"]
        runner._results["staged"] = runs["staged"]
        for path in export_figures(runner, args.export):
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
