"""The headline reproduction assertions, at reduced-but-loaded scale.

These are the DESIGN.md §4 acceptance criteria: they assert the *shape*
of the paper's results — who wins, by roughly what factor, and what the
queue traces look like — using the quick preset (same structure as the
paper-scale run, scaled client count and window).
"""

import json
from pathlib import Path

import pytest

from repro.harness.experiments import ExperimentRunner
from repro.harness.export import results_document
from repro.sim.workload import LENGTHY_REPORT_PAGES, WorkloadConfig
from repro.tpcw.mix import PAPER_PAGE_NAMES

LENGTHY_NAMES = {PAPER_PAGE_NAMES[p] for p in LENGTHY_REPORT_PAGES}

#: ``python -m repro.harness --export-json`` at the quick preset: the
#: complete results document, pinned byte for byte.
GOLDEN_EXPORT = Path(__file__).with_name("quick_export.golden.json")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(WorkloadConfig.quick())


class TestTable3Shape:
    def test_most_pages_improve(self, runner):
        """Paper: 'For 11 out of the 14 pages ... significantly
        shortens the web interaction response times.'"""
        rows = runner.table3()
        improved = sum(1 for unmod, mod in rows.values() if mod < unmod)
        assert improved >= 10

    def test_quick_pages_improve_by_an_order_of_magnitude(self, runner):
        """Paper: response times of many pages 'are decreased by two
        orders of magnitude'; at reduced scale we require >= 10x on
        every quick page and >= 30x on the best ones."""
        rows = runner.table3()
        speedups = [
            unmod / max(mod, 1e-9)
            for name, (unmod, mod) in rows.items()
            if name not in LENGTHY_NAMES
        ]
        assert min(speedups) >= 10.0
        assert max(speedups) >= 30.0

    def test_slow_pages_stay_slow(self, runner):
        """The three complex pages do not see the quick pages' gains;
        they stay within a small factor of the unmodified server."""
        rows = runner.table3()
        for name in ("TPC-W best sellers", "TPC-W new products",
                     "TPC-W execute search"):
            unmodified, modified = rows[name]
            assert modified > unmodified / 3
            assert modified > 1.0  # still seconds, not milliseconds

    def test_admin_response_regresses(self, runner):
        """Paper: admin response 'is clearly taken longer time to
        respond' on the modified server."""
        unmodified, modified = runner.table3()["TPC-W admin response"]
        assert modified > unmodified * 0.95

    def test_home_page_dramatic_improvement(self, runner):
        unmodified, modified = runner.table3()["TPC-W home interaction"]
        assert unmodified / modified >= 20


class TestTable4Shape:
    def test_throughput_gain_positive_tens_of_percent(self, runner):
        """Paper: +31.3% overall under heavy load.  Accept 15-60% at
        reduced scale."""
        gain = runner.throughput_gain_percent()
        assert 15.0 <= gain <= 60.0

    def test_every_page_type_completes_more(self, runner):
        """Paper Table 4: 'our scheme can increase the throughput of
        each type of web interactions' (allowing the two rare admin
        pages statistical slack at this scale)."""
        rows = runner.table4()
        regressions = [
            name for name, (unmod, mod) in rows.items()
            if mod < unmod and unmod >= 20
        ]
        assert regressions == []

    def test_mix_proportions_preserved(self, runner):
        """Closed loop with a stationary mix: home remains the most
        frequent page on both servers."""
        rows = runner.table4()
        for column in (0, 1):
            top = max(rows, key=lambda name: rows[name][column])
            assert top == "TPC-W home interaction"


class TestQueueShapes:
    def test_fig7_baseline_queue_builds_up(self, runner):
        """Fig 7: the unmodified server's queue 'tends to be very
        large when short requests get stuck behind lengthy requests'."""
        series = runner.figure7()
        assert series.max() >= 10

    def test_fig8a_general_queue_near_zero(self, runner):
        """Fig 8(a): 'short queries are able to execute almost
        immediately because there are threads reserved for them'."""
        general, _ = runner.figure8()
        assert general.mean() < 1.0

    def test_fig8b_lengthy_queue_absorbs_backlog(self, runner):
        """Fig 8(b): 'Many of the lengthy requests get stuck in their
        own queue behind a number of other lengthy requests.'"""
        _, lengthy = runner.figure8()
        assert lengthy.max() >= 5
        general, _ = runner.figure8()
        assert lengthy.max() > general.max()

    def test_fig9_modified_throughput_consistently_higher(self, runner):
        """Fig 9: 'our proposed scheme consistently performs better'."""
        unmodified, modified = runner.figure9()
        higher = sum(
            1 for u, m in zip(unmodified.values, modified.values) if m > u
        )
        assert higher >= len(modified.values) * 0.7

    def test_fig10_gains_for_all_four_classes(self, runner):
        """Fig 10: 'throughput gains are obvious for all the four types
        of requests.'"""
        for request_class, (unmod, mod) in runner.figure10().items():
            assert sum(mod.values) > sum(unmod.values), request_class


class TestReserveDynamics:
    def test_treserve_within_bounds(self, runner):
        staged = runner.staged
        config = runner.config
        values = staged.series("treserve").values
        assert values, "treserve never sampled"
        assert min(values) >= config.minimum_reserve
        assert max(values) <= config.general_pool - 1

    def test_treserve_responds_to_load(self, runner):
        """Under the loaded run, treserve must actually move (the
        adaptive law is engaged, not sitting at the minimum)."""
        values = runner.staged.series("treserve").values
        assert max(values) > min(values)


class TestThroughputCounts:
    def test_figure9_counts_each_request_once(self, runner):
        """Every Figure 9 bucket is the static plus the dynamic bucket
        of Figure 10, on both servers: a dynamic request counts once
        toward the total, as a live completion does."""
        figure10 = runner.figure10()
        for side, overall in enumerate(runner.figure9()):
            static = figure10["static"][side].values
            dynamic = figure10["dynamic"][side].values
            assert overall.values == [s + d for s, d in zip(static, dynamic)]

    def test_dynamic_splits_into_quick_and_lengthy(self, runner):
        figure10 = runner.figure10()
        for side in (0, 1):
            quick = figure10["quick"][side].values
            lengthy = figure10["lengthy"][side].values
            assert figure10["dynamic"][side].values == [
                q + l for q, l in zip(quick, lengthy)]


class TestGoldenExport:
    def test_export_json_is_byte_identical(self, runner):
        """The whole quick-preset document -- every table, series and
        the shape report -- must not drift.  A change that moves it on
        purpose regenerates the file with ``python -m repro.harness
        --export-json tests/integration/quick_export.golden.json`` and
        explains the delta."""
        exported = json.dumps(results_document(runner), indent=2,
                              sort_keys=True)
        assert exported == GOLDEN_EXPORT.read_text(encoding="utf-8")


class TestSeedRobustness:
    """The headline shape must hold across seeds, not just the default."""

    @pytest.mark.parametrize("seed", [2010, 2011, 77])
    def test_gain_band_across_seeds(self, seed):
        import dataclasses

        config = dataclasses.replace(WorkloadConfig.quick(), seed=seed)
        alt = ExperimentRunner(config)
        gain = alt.throughput_gain_percent()
        assert 10.0 <= gain <= 65.0, f"seed {seed}: gain {gain:+.1f}%"

    @pytest.mark.parametrize("seed", [2010])
    def test_quick_page_speedup_across_seeds(self, seed):
        import dataclasses

        config = dataclasses.replace(WorkloadConfig.quick(), seed=seed)
        alt = ExperimentRunner(config)
        rows = alt.table3()
        home_unmod, home_mod = rows["TPC-W home interaction"]
        assert home_unmod / home_mod >= 10
