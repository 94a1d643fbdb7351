"""Time series and accumulator tests."""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.util.timeseries import (
    SummaryAccumulator,
    TimeSeries,
    WelfordAccumulator,
)


class TestTimeSeries:
    def test_append_and_read(self):
        series = TimeSeries("q")
        series.append(0.0, 1.0)
        series.append(1.0, 3.0)
        assert series.times == [0.0, 1.0]
        assert series.values == [1.0, 3.0]

    def test_len(self):
        series = TimeSeries()
        assert len(series) == 0
        series.append(0, 0)
        assert len(series) == 1

    def test_rejects_time_going_backwards(self):
        series = TimeSeries("q")
        series.append(2.0, 1.0)
        with pytest.raises(ValueError):
            series.append(1.0, 1.0)

    def test_allows_equal_times(self):
        series = TimeSeries()
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2

    def test_max_and_mean(self):
        series = TimeSeries()
        for t, v in enumerate([1.0, 5.0, 3.0]):
            series.append(t, v)
        assert series.max() == 5.0
        assert series.mean() == 3.0

    def test_max_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("empty").max()

    def test_bucketize_sums_events(self):
        series = TimeSeries()
        for t in [0.1, 0.2, 0.9, 1.5, 2.7]:
            series.append(t, 1.0)
        buckets = series.bucketize(1.0, start=0.0, end=3.0)
        assert buckets.values == [3.0, 1.0, 1.0]
        assert buckets.times == [0.0, 1.0, 2.0]

    def test_bucketize_preserves_total_inside_window(self):
        series = TimeSeries()
        for i in range(100):
            series.append(i * 0.37, 2.0)
        buckets = series.bucketize(5.0, start=0.0, end=37.1)
        assert sum(buckets.values) == 200.0

    def test_bucketize_excludes_outside_window(self):
        series = TimeSeries()
        series.append(0.5, 1.0)
        series.append(5.5, 1.0)
        buckets = series.bucketize(1.0, start=1.0, end=5.0)
        assert sum(buckets.values) == 0.0

    def test_bucketize_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            TimeSeries().bucketize(0.0)

    def test_samples_snapshot(self):
        series = TimeSeries()
        series.append(1, 2)
        snapshot = series.samples()
        series.append(2, 3)
        assert snapshot == [(1.0, 2.0)]

    def test_concurrent_appends(self):
        series = TimeSeries()
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            for _ in range(500):
                series.append(1e9, 1.0)  # same time: always valid

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(series) == 2000


class TestWelfordAccumulator:
    def test_mean_of_known_values(self):
        acc = WelfordAccumulator()
        acc.extend([1.0, 2.0, 3.0, 4.0])
        assert acc.mean == pytest.approx(2.5)
        assert acc.count == 4

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            WelfordAccumulator("x").mean

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_mean_matches_direct_computation(self, values):
        acc = WelfordAccumulator()
        acc.extend(values)
        assert acc.mean == pytest.approx(sum(values) / len(values), rel=1e-9,
                                         abs=1e-6)


class TestSummaryAccumulator:
    def test_percentiles_exact_below_cap(self):
        acc = SummaryAccumulator()
        acc.extend(float(i) for i in range(1, 101))
        summary = acc.summary()
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
        assert summary["max"] == 100.0

    def test_summary_dict_shape(self):
        acc = SummaryAccumulator()
        acc.extend([1.0, 2.0, 3.0, 4.0])
        summary = acc.summary()
        assert summary == {
            "count": 4, "mean": pytest.approx(2.5),
            "p50": 2.0, "p95": 4.0, "p99": 4.0, "max": 4.0,
        }

    def test_empty_summary(self):
        assert SummaryAccumulator("x").summary() == {"count": 0}

    def test_welford_stats_stay_exact_past_cap(self):
        acc = SummaryAccumulator(max_samples=16)
        n = 1000
        acc.extend(float(i) for i in range(n))
        assert acc.count == n  # exact, not decimated
        assert acc.mean == pytest.approx((n - 1) / 2)
        assert acc.summary()["max"] == float(n - 1)

    def test_decimation_bounds_memory_and_keeps_spread(self):
        acc = SummaryAccumulator(max_samples=64)
        acc.extend(float(i) for i in range(10_000))
        assert len(acc._samples) <= 64
        # The retained subsample stays evenly spread: percentiles are
        # approximate but must stay in the right neighbourhood.
        summary = acc.summary()
        assert summary["p50"] == pytest.approx(5000, rel=0.15)
        assert summary["p95"] == pytest.approx(9500, rel=0.15)

    def test_decimation_is_deterministic(self):
        def run():
            acc = SummaryAccumulator(max_samples=32)
            acc.extend(float(i % 97) for i in range(5000))
            return acc.summary()

        assert run() == run()

    def test_max_samples_validation(self):
        with pytest.raises(ValueError):
            SummaryAccumulator(max_samples=1)
