"""Table 3: per-page mean response times, unmodified vs modified.

This is the primary experiment: it runs (and thereby times) the full
baseline simulated TPC-W run, then prints the table side by side with
the paper's and asserts the response-time *shape*: quick pages improve
by an order of magnitude or more, slow pages stay slow, admin response
regresses.
"""

from repro.harness.report import format_table3
from repro.sim.workload import LENGTHY_REPORT_PAGES, run_tpcw_simulation
from repro.tpcw.mix import PAPER_PAGE_NAMES

LENGTHY_NAMES = {PAPER_PAGE_NAMES[p] for p in LENGTHY_REPORT_PAGES}


def test_table3_baseline_run(benchmark, runner, workload_config):
    """Times one full unmodified-server run (the table's left column)."""
    results = benchmark.pedantic(
        run_tpcw_simulation,
        args=("baseline", workload_config),
        rounds=1, iterations=1,
    ).stats
    assert results.total_completions() > 0
    benchmark.extra_info["completions"] = results.total_completions()


def test_table3_response_times(runner):
    rows = runner.table3()
    print()
    print(format_table3(rows))

    # Quick pages: >= 10x faster (paper: two orders of magnitude).
    for name, (unmodified, modified) in rows.items():
        if name not in LENGTHY_NAMES:
            assert unmodified / max(modified, 1e-9) >= 10.0, name

    # Slow pages keep the same order of magnitude in both servers.
    for name in LENGTHY_NAMES - {"TPC-W admin response"}:
        unmodified, modified = rows[name]
        assert unmodified / 3 < modified < unmodified * 3, name

    # Admin response does not improve (the write-lock page).
    unmodified, modified = rows["TPC-W admin response"]
    assert modified > unmodified * 0.95
