"""Metric collection for simulation runs.

Collects exactly what the paper's Section 4 reports, honouring its
measurement protocol: one-hour runs where "the first five-minute ramp
up time and the last five-minute cool down time are not included" —
completions and response times are only recorded inside the
measurement window, while time series span the whole run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.util.timeseries import TimeSeries, WelfordAccumulator


class SimResults:
    """Per-run metric sink."""

    def __init__(self, measure_start: float = 0.0,
                 measure_end: Optional[float] = None):
        self.measure_start = measure_start
        self.measure_end = measure_end
        self.response_times: Dict[str, WelfordAccumulator] = {}
        self.completions: Dict[str, int] = {}
        self.generation_times: Dict[str, WelfordAccumulator] = {}
        self.completion_events = TimeSeries("completions")
        self.class_events: Dict[str, TimeSeries] = {}
        self.queue_series: Dict[str, TimeSeries] = {}
        self.spare_series = TimeSeries("tspare")
        self.treserve_series = TimeSeries("treserve")
        self.db_active_series = TimeSeries("db-active")
        #: ``SimConnectionPool.utilization_report()`` snapshot, filled
        #: in by the workload runner at end of run — the sim's
        #: connection busy fraction, same shape as the live pool's.
        self.connection_report: Optional[Dict] = None
        #: Chaos runs only: the fault plan's ``fault_report()`` and the
        #: sim harness's ``resilience_report()``, same shape as the
        #: live server's exports (filled in by the workload runner).
        self.fault_report: Optional[Dict] = None
        self.resilience_report: Optional[Dict] = None
        #: Chaos runs only: error responses per page and status, as
        #: ``ServerStats.errors()`` reports them live.
        self.errors: Optional[Dict] = None

    # ------------------------------------------------------------------
    def in_window(self, now: float) -> bool:
        if now < self.measure_start:
            return False
        return self.measure_end is None or now < self.measure_end

    def record_interaction(self, now: float, page: str,
                           response_seconds: float) -> None:
        """A completed web interaction (client-side view, like TPC-W)."""
        if not self.in_window(now):
            return
        self.completions[page] = self.completions.get(page, 0) + 1
        accumulator = self.response_times.get(page)
        if accumulator is None:
            accumulator = WelfordAccumulator(page)
            self.response_times[page] = accumulator
        accumulator.add(response_seconds)

    def record_request(self, now: float, request_class: str) -> None:
        """One completed HTTP request (pages *and* images), for the
        throughput curves of Figures 9–10."""
        self.completion_events.append(now, 1.0)
        series = self.class_events.get(request_class)
        if series is None:
            series = TimeSeries(f"completions/{request_class}")
            self.class_events[request_class] = series
        series.append(now, 1.0)

    def record_generation(self, now: float, page: str, seconds: float) -> None:
        if not self.in_window(now):
            return
        accumulator = self.generation_times.get(page)
        if accumulator is None:
            accumulator = WelfordAccumulator(page)
            self.generation_times[page] = accumulator
        accumulator.add(seconds)

    def sample_queue(self, now: float, name: str, length: int) -> None:
        series = self.queue_series.get(name)
        if series is None:
            series = TimeSeries(f"queue/{name}")
            self.queue_series[name] = series
        series.append(now, length)

    def sample_reserve(self, now: float, tspare: int, treserve: int) -> None:
        self.spare_series.append(now, tspare)
        self.treserve_series.append(now, treserve)

    def sample_db(self, now: float, active: int) -> None:
        self.db_active_series.append(now, active)

    # ------------------------------------------------------------------
    # Views used by the harness
    # ------------------------------------------------------------------
    def mean_response_times(self) -> Dict[str, float]:
        return {
            page: acc.mean
            for page, acc in self.response_times.items()
            if acc.count
        }

    def total_completions(self) -> int:
        return sum(self.completions.values())

    def throughput_series(self, bucket_seconds: float = 60.0,
                          request_class: Optional[str] = None) -> TimeSeries:
        """Requests per bucket over the measurement window."""
        source = (
            self.completion_events
            if request_class is None
            else self.class_events.get(
                request_class, TimeSeries(request_class)
            )
        )
        return source.bucketize(
            bucket_seconds, start=self.measure_start, end=self.measure_end
        )
