"""ServerStats tests."""

import sys
import threading

import pytest

from repro.core.classifier import RequestClass
from repro.server.stats import ServerStats
from repro.util.clock import ManualClock
from repro.util.timeseries import SummaryAccumulator, TimeSeries


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


def _count(stats, request_class=None):
    return sum(stats.throughput_series(60.0, request_class).values)


class TestClassLabels:
    """Dynamic classes record under 'dynamic' *and* their refined
    label (the Figure 10 convention); exported labels stay the strings
    they always were."""

    def test_static_records_one_series(self, stats):
        stats.record_completion("/x.gif", RequestClass.STATIC, 0.01)
        assert _count(stats, "static") == 1.0
        assert _count(stats, "dynamic") == 0.0

    def test_quick_records_dynamic_and_quick(self, stats):
        stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.1)
        assert _count(stats, "dynamic") == 1.0
        assert _count(stats, "quick") == 1.0
        assert _count(stats, "lengthy") == 0.0
        assert _count(stats) == 1.0

    def test_lengthy_records_dynamic_and_lengthy(self, stats):
        stats.record_completion("/slow", RequestClass.LENGTHY_DYNAMIC, 3.0)
        assert _count(stats, "dynamic") == 1.0
        assert _count(stats, "lengthy") == 1.0

    def test_enum_resolves_to_refined_series(self, stats):
        stats.record_completion("/slow", RequestClass.LENGTHY_DYNAMIC, 3.0)
        assert _count(stats, RequestClass.LENGTHY_DYNAMIC) == 1.0

    def test_plain_string_class_rejected(self, stats):
        # Only RequestClass is accepted, and a rejected call leaves no
        # half-recorded completion behind.
        with pytest.raises(KeyError):
            stats.record_completion("/a", "dynamic", 0.1)
        assert stats.completions() == {}
        assert stats.total_completions() == 0
        assert _count(stats) == 0
        assert _count(stats, "dynamic") == 0


class TestSimulatorEntryPoints:
    """The simulator records an interaction (page count and response
    time) apart from its requests (class counts)."""

    def test_interaction_counts_page_but_no_request(self, stats):
        stats.record_interaction("/a", 1.5)
        assert stats.completions() == {"/a": 1}
        assert stats.mean_response_times() == {"/a": 1.5}
        assert _count(stats) == 0

    def test_request_counts_label_and_total(self, stats):
        stats.record_request(RequestClass.STATIC)
        stats.record_request(RequestClass.QUICK_DYNAMIC)
        assert stats.completions() == {}
        assert _count(stats, "static") == 1.0
        assert _count(stats, "dynamic") == 1.0
        assert _count(stats, "quick") == 1.0
        # Each request counts once toward the total (Figure 9), however
        # many class labels it carries.
        assert _count(stats) == 2.0

    @pytest.mark.parametrize("request_class", list(RequestClass))
    def test_request_counts_like_a_live_completion(self, request_class):
        simulated, live = ServerStats(ManualClock()), ServerStats(ManualClock())
        simulated.record_request(request_class)
        live.record_completion("/a", request_class, 0.1)
        for label in (None, "static", "dynamic", "quick", "lengthy"):
            assert _count(simulated, label) == _count(live, label)

    def test_plain_string_label_rejected(self, stats):
        with pytest.raises(KeyError):
            stats.record_request("dynamic")
        assert _count(stats) == 0


class TestSeries:
    def test_queue_sampling(self, stats):
        clock = stats.clock
        stats.sample_queue("general", 3)
        clock.advance(1.0)
        stats.sample_queue("general", 5)
        series = stats.queue_series()["general"]
        assert series.values == [3.0, 5.0]
        assert series.times == [0.0, 1.0]
        assert stats.series("queue/general") is series

    def test_reserve_sampling(self, stats):
        stats.sample_reserve(tspare=30, treserve=20)
        assert stats.series("tspare").values == [30.0]
        assert stats.series("treserve").values == [20.0]
        assert stats.queue_series() == {}

    def test_unsampled_series_empty(self, stats):
        assert len(stats.series("queue/nope")) == 0

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
        static = stats.throughput_series(60.0, "static")
        assert sum(static.values) == 1.0

    def test_unknown_class_empty(self, stats):
        assert _count(stats, "nope") == 0

    def test_window_excludes_outside_seconds(self, stats):
        clock = stats.clock
        for at in (30.0, 90.0, 130.0):
            clock.advance(at - clock.now())
            stats.record_request(RequestClass.STATIC)
        series = stats.throughput_series(60.0, start=0.0, end=120.0)
        assert series.values == [1.0, 1.0]
        assert series.times == [0.0, 60.0]

    def test_per_second_counts_bucket_like_raw_events(self, stats):
        """Whole-second window edges and bucket widths (the only ones
        in use) give exactly the buckets that bucketizing every event's
        own timestamp would."""
        clock = stats.clock
        raw = TimeSeries("raw")
        at = 0.0
        for step in range(2000):
            at += (step * 7919 % 97) / 1000.0   # irregular gaps
            clock.advance(at - clock.now())
            stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.1)
            raw.append(at, 1.0)
        for start, end, width in ((0.0, None, 60.0), (5.0, 95.0, 10.0),
                                  (60.0, 120.0, 60.0), (0.0, 97.0, 1.0)):
            got = stats.throughput_series(width, start=start, end=end)
            want = raw.bucketize(width, start, end)
            assert got.samples() == want.samples(), (start, end, width)


class TestConnectionGauges:
    def test_reads_the_attached_reactor(self, stats):
        stats.reactor_gauges = lambda: {
            "parked": 4, "dispatched": 9, "idle_reaped": 2, "sheds": 1,
        }
        gauges = stats.connection_gauges()
        assert gauges == {"idle_reaped": 2, "sheds": 1, "parked": 4}

    def test_empty_gauges(self, stats):
        assert stats.connection_gauges() == {
            "idle_reaped": 0, "sheds": 0, "parked": 0,
        }


class TestResilience:
    def test_counters_default_to_zero_per_stage(self, stats):
        stats.record_resilience("general", "retries")
        stats.record_resilience("general", "retries")
        stats.record_resilience("", "worker_crashes")
        stages = stats.resilience_report()["stages"]
        assert stages["general"]["retries"] == 2
        assert stages["general"]["worker_crashes"] == 0
        assert stages["?"]["worker_crashes"] == 1

    def test_unknown_counter_rejected(self, stats):
        with pytest.raises(ValueError):
            stats.record_resilience("general", "retried")
        assert stats.resilience_report()["stages"] == {}


class TestBoundedMemory:
    """Completions are kept as per-second counts: what the sink retains
    grows with the run's seconds, not with its requests."""

    @staticmethod
    def _retained_entries(stats):
        """Entries in every container reachable from ``stats``, except
        the percentile reservoirs (bounded by their own ``max_samples``
        and tested in tests/util)."""
        seen, stack, total = set(), [stats], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, SummaryAccumulator):
                continue
            seen.add(id(obj))
            if isinstance(obj, dict):
                total += len(obj)
                stack.extend(obj.keys())
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set)):
                total += len(obj)
                stack.extend(obj)
            elif hasattr(obj, "__dict__") and not isinstance(obj, type):
                stack.append(vars(obj))
        return total

    def test_100k_completions_over_10s_retain_per_second_data(self):
        clock = ManualClock()
        stats = ServerStats(clock)
        for _ in range(100_000):
            stats.record_completion("/a", RequestClass.QUICK_DYNAMIC, 0.01)
            clock.advance(1e-4)
        # 4 labels x ~11 seconds, plus a fixed handful of keys; one
        # timestamp per completion would be 100k entries per label.
        assert self._retained_entries(stats) < 200
        assert stats.total_completions() == 100_000
        assert _count(stats) == 100_000


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
        assert len(stats.queue_series()["general"]) == total

    def test_summaries_read_while_recording(self):
        """The accumulators take no lock of their own: every add and
        every summary runs under the stats lock.  Readers racing the
        writers must never see a torn accumulator, and nothing may be
        lost."""
        stats = ServerStats()
        errors = []
        writers_n, records_n = 4, 1000
        done = threading.Event()
        barrier = threading.Barrier(writers_n + 2)

        def write(stage):
            try:
                barrier.wait(timeout=5)
                for i in range(records_n):
                    stats.record_stage_timing(stage, 0.001 * (i % 10), 0.5)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def read():
            try:
                barrier.wait(timeout=5)
                while not done.is_set():
                    for entry in stats.stage_timing_summary().values():
                        wait, service = entry["queue_wait"], entry["service"]
                        assert wait["count"] == service["count"] > 0
                        assert wait["p50"] <= wait["p99"] <= wait["max"]
                        assert service["mean"] == pytest.approx(0.5)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        stages = ["header", "general"]
        writers = [threading.Thread(target=write, args=(stages[i % 2],))
                   for i in range(writers_n)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        # Switch threads far more often than the default 5 ms, so a
        # reader lands between a writer's steps.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in writers + readers:
                t.start()
            for t in writers:
                t.join(timeout=30)
            done.set()
            for t in readers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        summary = stats.stage_timing_summary()
        per_stage = writers_n // 2 * records_n
        for stage in stages:
            assert summary[stage]["queue_wait"]["count"] == per_stage
            assert summary[stage]["service"]["count"] == per_stage
            assert summary[stage]["queue_wait"]["max"] == pytest.approx(0.009)
            assert summary[stage]["queue_wait"]["mean"] == pytest.approx(0.0045)

