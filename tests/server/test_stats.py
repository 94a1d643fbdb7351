"""ServerStats tests."""

import threading

import pytest

from repro.core.classifier import RequestClass
from repro.server.stats import ServerStats
from repro.util.clock import ManualClock


@pytest.fixture()
def stats():
    return ServerStats(ManualClock())


class TestCompletions:
    def test_counts_per_page(self, stats):
        stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.1)
        stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.3)
        stats.record_completion("/b", RequestClass.STATIC, 0.01)
        assert stats.completions() == {"/a": 2, "/b": 1}
        assert stats.total_completions() == 3

    def test_mean_response_times(self, stats):
        stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.1)
        stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.3)
        assert stats.mean_response_times()["/a"] == pytest.approx(0.2)

    def test_generation_times_separate(self, stats):
        stats.record_generation_time("/a", 0.5)
        assert stats.mean_generation_times() == {"/a": 0.5}
        assert stats.mean_response_times() == {}

    def test_response_time_summary_percentiles(self, stats):
        for i in range(1, 101):
            stats.record_completion("/a", RequestClass.QUICK_DYNAMIC,
                                    i / 100.0)
        summary = stats.response_time_summary()["/a"]
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.505)
        assert summary["p50"] == pytest.approx(0.50)
        assert summary["p95"] == pytest.approx(0.95)
        assert summary["p99"] == pytest.approx(0.99)
        assert summary["max"] == pytest.approx(1.0)


class TestStageTimings:
    def test_summary_per_stage(self, stats):
        stats.record_stage_timing("header", queue_wait=0.01, service=0.002)
        stats.record_stage_timing("header", queue_wait=0.03, service=0.004)
        stats.record_stage_timing("render", queue_wait=0.5, service=0.1)
        summary = stats.stage_timing_summary()
        assert set(summary) == {"header", "render"}
        assert summary["header"]["queue_wait"]["count"] == 2
        assert summary["header"]["queue_wait"]["mean"] == pytest.approx(0.02)
        assert summary["header"]["service"]["max"] == pytest.approx(0.004)
        assert summary["render"]["queue_wait"]["p50"] == pytest.approx(0.5)

    def test_empty_summary(self, stats):
        assert stats.stage_timing_summary() == {}


class TestClassLabels:
    """Dynamic classes record under 'dynamic' *and* their refined
    label, matching the simulator's Figure 10 convention; exported
    series names stay the strings they always were."""

    def test_static_records_one_series(self, stats):
        stats.record_completion("/x.gif", RequestClass.STATIC, 0.01)
        assert sum(stats.class_throughput_series("static").values) == 1.0
        assert len(stats.class_throughput_series("dynamic")) == 0

    def test_quick_records_dynamic_and_quick(self, stats):
        stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.1)
        assert sum(stats.class_throughput_series("dynamic").values) == 1.0
        assert sum(stats.class_throughput_series("quick").values) == 1.0
        assert len(stats.class_throughput_series("lengthy")) == 0

    def test_lengthy_records_dynamic_and_lengthy(self, stats):
        stats.record_completion("/slow", RequestClass.LENGTHY_DYNAMIC, 3.0)
        assert sum(stats.class_throughput_series("dynamic").values) == 1.0
        assert sum(stats.class_throughput_series("lengthy").values) == 1.0

    def test_enum_resolves_to_refined_series(self, stats):
        stats.record_completion("/slow", RequestClass.LENGTHY_DYNAMIC, 3.0)
        series = stats.class_throughput_series(RequestClass.LENGTHY_DYNAMIC)
        assert sum(series.values) == 1.0

    def test_plain_string_class_rejected(self, stats):
        # Only RequestClass is accepted, and a rejected call leaves no
        # half-recorded completion behind.
        with pytest.raises(KeyError):
            stats.record_completion("/a", "dynamic", 0.1)
        assert stats.completions() == {}
        assert stats.total_completions() == 0
        assert sum(stats.throughput_series().values) == 0
        assert len(stats.class_throughput_series("dynamic")) == 0


class TestSeries:
    def test_queue_sampling(self, stats):
        clock = stats.clock
        stats.sample_queue("general", 3)
        clock.advance(1.0)
        stats.sample_queue("general", 5)
        series = stats.queue_series["general"]
        assert series.values == [3.0, 5.0]
        assert series.times == [0.0, 1.0]

    def test_reserve_sampling(self, stats):
        stats.sample_reserve(tspare=30, treserve=20)
        assert stats.spare_series.values == [30.0]
        assert stats.treserve_series.values == [20.0]

    def test_throughput_series_buckets(self, stats):
        clock = stats.clock
        for _ in range(3):
            stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.1)
        clock.advance(61.0)
        stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.1)
        series = stats.throughput_series(60.0)
        assert series.values == [3.0, 1.0]

    def test_class_throughput_series(self, stats):
        stats.record_completion("/a", RequestClass.STATIC, 0.1)
        stats.record_completion("/b", RequestClass.QUICK_DYNAMIC, 0.1)
        static = stats.class_throughput_series("static", 60.0)
        assert sum(static.values) == 1.0

    def test_unknown_class_empty(self, stats):
        assert len(stats.class_throughput_series("nope")) == 0


class TestConnectionGauges:
    def test_counters_and_parked_sample(self, stats):
        stats.record_idle_reap()
        stats.record_idle_reap()
        stats.record_shed()
        stats.sample_parked(4)
        gauges = stats.connection_gauges()
        assert gauges == {"idle_reaped": 2, "sheds": 1, "parked": 4}

    def test_empty_gauges(self, stats):
        assert stats.connection_gauges() == {
            "idle_reaped": 0, "sheds": 0, "parked": 0,
        }


class TestThreadSafety:
    """Welford updates and TimeSeries appends used to happen outside
    the stats lock; racing real-clock threads could corrupt the
    accumulators or trip the series' monotonic-time check."""

    def test_concurrent_recording_stays_consistent(self):
        stats = ServerStats()  # real monotonic clock: timestamps race
        errors = []
        threads_n, records_n = 8, 200
        barrier = threading.Barrier(threads_n)

        def record():
            try:
                barrier.wait(timeout=5)
                for _ in range(records_n):
                    stats.record_completion(
                        "/a", RequestClass.QUICK_DYNAMIC, 0.25
                    )
                    stats.record_generation_time("/a", 0.125)
                    stats.record_stage_timing("general", 0.0625, 0.5)
                    stats.sample_queue("general", 1)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=record) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        total = threads_n * records_n
        assert stats.total_completions() == total
        assert stats.completions()["/a"] == total
        # Identical samples: a corrupted Welford state would drift.
        assert stats.mean_response_times()["/a"] == pytest.approx(0.25)
        assert stats.mean_generation_times()["/a"] == pytest.approx(0.125)
        stage = stats.stage_timing_summary()["general"]
        assert stage["queue_wait"]["count"] == total
        assert stage["queue_wait"]["mean"] == pytest.approx(0.0625)
        assert stage["service"]["p99"] == pytest.approx(0.5)
        assert len(stats.queue_series["general"]) == total
