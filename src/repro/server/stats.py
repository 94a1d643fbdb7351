"""Server-side metrics: completions, response times, queue samples.

Feeds the experiment harness with exactly what the paper reports:
per-page completion counts (Table 4), per-page response-time averages
(Table 3 is measured client-side; the server keeps its own view), and
queue-length time series for each pool (Figures 7–8) — plus, beyond
the paper, per-stage queue-wait/service-time breakdowns with
percentiles, so the Figure 7/8 queue story is measurable per request
(where did a request's latency go: header vs. general vs. render?).

Request classes are the :class:`repro.core.classifier.RequestClass`
enum end-to-end.  Per-class completion series keep the labels the
simulator and the figure-10 exports have always used: ``static``,
``dynamic`` (all dynamic requests), and the refined ``quick`` /
``lengthy`` — a dynamic completion is recorded under both ``dynamic``
and its refined label, mirroring :mod:`repro.sim.results`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Union

from repro.core.classifier import RequestClass
from repro.util.clock import Clock, MonotonicClock
from repro.util.timeseries import SummaryAccumulator, TimeSeries, WelfordAccumulator

#: Per-class event-series labels for each request class.  Dynamic
#: classes record under "dynamic" *and* their refined label, exactly as
#: the simulator records each dynamic completion twice (Figure 10 b–d).
CLASS_SERIES_LABELS: Dict[RequestClass, tuple] = {
    RequestClass.STATIC: ("static",),
    RequestClass.QUICK_DYNAMIC: ("dynamic", "quick"),
    RequestClass.LENGTHY_DYNAMIC: ("dynamic", "lengthy"),
}


class ServerStats:
    """Thread-safe metric sink shared by all of a server's pools."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else MonotonicClock()
        self.started_at = self.clock.now()
        self._lock = threading.Lock()
        self._completions: Dict[str, int] = {}
        #: page -> {status -> count} for every response sent that was
        #: not a 2xx/3xx (those are completions).
        self._errors: Dict[str, Dict[int, int]] = {}
        self._response_times: Dict[str, SummaryAccumulator] = {}
        self._generation_times: Dict[str, WelfordAccumulator] = {}
        self._stage_queue_waits: Dict[str, SummaryAccumulator] = {}
        self._stage_services: Dict[str, SummaryAccumulator] = {}
        self._completion_events = TimeSeries("completions")
        self._class_events: Dict[str, TimeSeries] = {}
        self.queue_series: Dict[str, TimeSeries] = {}
        self.spare_series = TimeSeries("general-spare")
        self.treserve_series = TimeSeries("treserve")
        self.parked_series = TimeSeries("parked-connections")
        self._connection_counters: Dict[str, int] = {
            "idle_reaped": 0,
            "sheds": 0,
        }
        # Per-stage connection-lease ledger: strategy label, lease
        # count, held/busy second sums, acquire-wait percentiles.
        self._lease_stats: Dict[str, Dict] = {}
        # Resilience ledger: per-stage policy counters, injected-fault
        # counts keyed "site:action", breaker state + transition tally.
        self._resilience: Dict[str, Dict[str, int]] = {}
        self._fault_counts: Dict[str, int] = {}
        self._breaker_state = "closed"
        self._breaker_transitions: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Every recording method computes its timestamp *inside* the lock:
    # TimeSeries.append rejects out-of-order samples, so two threads
    # that read the clock and then raced to append could otherwise
    # blow up (and Welford updates outside the lock corrupted state).
    # ------------------------------------------------------------------
    def record_completion(self, page: str, request_class: RequestClass,
                          response_seconds: float) -> None:
        """One finished web interaction.  A ``request_class`` that is not
        a :class:`RequestClass` raises ``KeyError`` and records nothing."""
        labels = CLASS_SERIES_LABELS[request_class]
        with self._lock:
            now = self.clock.now() - self.started_at
            self._completions[page] = self._completions.get(page, 0) + 1
            accumulator = self._response_times.get(page)
            if accumulator is None:
                accumulator = SummaryAccumulator(page)
                self._response_times[page] = accumulator
            accumulator.add(response_seconds)
            self._completion_events.append(now, 1.0)
            for label in labels:
                series = self._class_events.get(label)
                if series is None:
                    series = TimeSeries(f"completions/{label}")
                    self._class_events[label] = series
                series.append(now, 1.0)

    def record_error(self, page: str, status: int) -> None:
        """One error response (any status outside 2xx/3xx) sent for
        ``page``; it is not a completion."""
        with self._lock:
            by_status = self._errors.setdefault(page, {})
            by_status[status] = by_status.get(status, 0) + 1

    def record_generation_time(self, page: str, seconds: float) -> None:
        """Data-generation time for a dynamic page (server-side view)."""
        with self._lock:
            accumulator = self._generation_times.get(page)
            if accumulator is None:
                accumulator = WelfordAccumulator(page)
                self._generation_times[page] = accumulator
            accumulator.add(seconds)

    def record_stage_timing(self, stage: str, queue_wait: float,
                            service: float) -> None:
        """One pipeline hop: time queued at ``stage`` plus service time.

        Fed by the stage pipeline on every hop, so each request's
        latency decomposes into per-stage waits — the queue dynamics of
        the paper's Figures 7–8, measured per request instead of
        sampled once a second.
        """
        with self._lock:
            waits = self._stage_queue_waits.get(stage)
            if waits is None:
                waits = SummaryAccumulator(f"{stage}/queue-wait")
                self._stage_queue_waits[stage] = waits
            services = self._stage_services.get(stage)
            if services is None:
                services = SummaryAccumulator(f"{stage}/service")
                self._stage_services[stage] = services
            waits.add(queue_wait)
            services.add(service)

    def sample_queue(self, pool_name: str, length: int) -> None:
        with self._lock:
            now = self.clock.now() - self.started_at
            series = self.queue_series.get(pool_name)
            if series is None:
                series = TimeSeries(f"queue/{pool_name}")
                self.queue_series[pool_name] = series
            series.append(now, length)

    def sample_reserve(self, tspare: int, treserve: int) -> None:
        with self._lock:
            now = self.clock.now() - self.started_at
            self.spare_series.append(now, tspare)
            self.treserve_series.append(now, treserve)

    # ------------------------------------------------------------------
    # Connection-reactor gauges
    # ------------------------------------------------------------------
    def sample_parked(self, count: int) -> None:
        """Periodic sample of connections parked in the reactor."""
        with self._lock:
            now = self.clock.now() - self.started_at
            self.parked_series.append(now, count)

    def record_idle_reap(self) -> None:
        """The reactor closed a connection idle past its timeout."""
        with self._lock:
            self._connection_counters["idle_reaped"] += 1

    def record_shed(self) -> None:
        """The reactor shed a connection (cap reached or pool full)."""
        with self._lock:
            self._connection_counters["sheds"] += 1

    def connection_gauges(self) -> Dict[str, int]:
        """Current reactor view: parked connections, reaps, sheds."""
        with self._lock:
            gauges = dict(self._connection_counters)
        values = self.parked_series.values
        gauges["parked"] = int(values[-1]) if values else 0
        return gauges

    # ------------------------------------------------------------------
    # Connection leases (fed by repro.server.resources.LeaseManager)
    # ------------------------------------------------------------------
    def record_lease(self, stage: str, strategy: str, wait_seconds: float,
                     held_seconds: float, busy_seconds: float) -> None:
        """One returned connection lease on ``stage``.

        ``held_seconds`` is checkout-to-return; ``busy_seconds`` is the
        statement-execution time accrued under the lease.  Their ratio
        — the connection busy fraction — is the paper's headline
        resource-efficiency metric, recorded here per stage so the
        report can show *which* stage's ownership wastes connections.
        """
        with self._lock:
            entry = self._lease_stats.get(stage)
            if entry is None:
                entry = {
                    "strategy": strategy,
                    "leases": 0,
                    "held_seconds": 0.0,
                    "busy_seconds": 0.0,
                    "waits": SummaryAccumulator(f"{stage}/acquire-wait"),
                }
                self._lease_stats[stage] = entry
            entry["strategy"] = strategy
            entry["leases"] += 1
            entry["held_seconds"] += held_seconds
            entry["busy_seconds"] += busy_seconds
            entry["waits"].add(wait_seconds)

    def connection_utilization(self) -> Dict[str, Dict]:
        """Per-stage busy-fraction snapshot.

        ``{stage: {strategy, leases, held_seconds, busy_seconds,
        busy_fraction, acquire_wait: {count, mean, p50, p95, p99,
        max}}}``.  Pinned leases return at worker shutdown, so read
        after ``server.stop()`` for complete held-time accounting.
        """
        with self._lock:
            entries = {
                stage: dict(entry) for stage, entry in self._lease_stats.items()
            }
        report: Dict[str, Dict] = {}
        for stage, entry in entries.items():
            held = entry["held_seconds"]
            busy = entry["busy_seconds"]
            report[stage] = {
                "strategy": entry["strategy"],
                "leases": entry["leases"],
                "held_seconds": held,
                "busy_seconds": busy,
                "busy_fraction": (busy / held) if held > 0 else 0.0,
                "acquire_wait": entry["waits"].summary(),
            }
        return report

    # ------------------------------------------------------------------
    # Resilience: fault injection + policy outcomes
    # (fed by FaultPlan.on_inject, the pipeline, and the LeaseManager)
    # ------------------------------------------------------------------
    _RESILIENCE_COUNTERS = (
        "retries", "deadline_expired", "breaker_fast_fail",
        "degraded_served", "late_completions", "worker_crashes",
    )

    def _resilience_entry(self, stage: str) -> Dict[str, int]:
        entry = self._resilience.get(stage)
        if entry is None:
            entry = {name: 0 for name in self._RESILIENCE_COUNTERS}
            self._resilience[stage] = entry
        return entry

    def _bump(self, stage: str, counter: str) -> None:
        with self._lock:
            self._resilience_entry(stage or "?")[counter] += 1

    def record_retry(self, stage: str) -> None:
        """One transient-DB retry issued on ``stage``."""
        self._bump(stage, "retries")

    def record_deadline_expired(self, stage: str) -> None:
        """A request failed 504 at ``stage``: past its deadline."""
        self._bump(stage, "deadline_expired")

    def record_fast_fail(self, stage: str) -> None:
        """The open circuit breaker fast-failed an acquire on ``stage``."""
        self._bump(stage, "breaker_fast_fail")

    def record_degraded(self, stage: str) -> None:
        """A stale fragment-cache copy was served while the breaker
        was open."""
        self._bump(stage, "degraded_served")

    def record_late_completion(self, stage: str) -> None:
        """A completion/failure arrived for an already-finished job
        (e.g. a worker crash after routing) and was suppressed."""
        self._bump(stage, "late_completions")

    def record_worker_crash(self, stage: str) -> None:
        """A pool worker crashed outside its stage handler."""
        self._bump(stage, "worker_crashes")

    def record_fault(self, site: str, action: str) -> None:
        """One injected fault (wired to ``FaultPlan.on_inject``)."""
        with self._lock:
            label = f"{site}:{action}"
            self._fault_counts[label] = self._fault_counts.get(label, 0) + 1

    def record_breaker_transition(self, state: str) -> None:
        """The circuit breaker entered ``state``."""
        with self._lock:
            self._breaker_state = state
            self._breaker_transitions[state] = \
                self._breaker_transitions.get(state, 0) + 1

    def resilience_report(self) -> Dict:
        """Snapshot of fault injections and policy outcomes.

        ``{"stages": {stage: {retries, deadline_expired,
        breaker_fast_fail, degraded_served, late_completions,
        worker_crashes}}, "faults_injected": {"site:action": n},
        "breaker": {"state": ..., "transitions": {...}}}`` — keyed
        identically by the live servers and the sim mirror.
        """
        with self._lock:
            return {
                "stages": {
                    stage: dict(entry)
                    for stage, entry in sorted(self._resilience.items())
                },
                "faults_injected": dict(sorted(self._fault_counts.items())),
                "breaker": {
                    "state": self._breaker_state,
                    "transitions": dict(
                        sorted(self._breaker_transitions.items())
                    ),
                },
            }

    # ------------------------------------------------------------------
    def completions(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._completions)

    def total_completions(self) -> int:
        with self._lock:
            return sum(self._completions.values())

    def errors(self) -> Dict[str, Dict[str, int]]:
        """Error responses per page and status, e.g. ``{"/home":
        {"500": 2}}`` (string statuses, as JSON stores them)."""
        with self._lock:
            return {
                page: {str(status): count
                       for status, count in sorted(by_status.items())}
                for page, by_status in sorted(self._errors.items())
            }

    def mean_response_times(self) -> Dict[str, float]:
        with self._lock:
            accumulators = dict(self._response_times)
        return {
            page: acc.mean for page, acc in accumulators.items() if acc.count
        }

    def response_time_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-page response-time summaries: count/mean/p50/p95/p99/max."""
        with self._lock:
            accumulators = dict(self._response_times)
        return {
            page: acc.summary()
            for page, acc in accumulators.items() if acc.count
        }

    def mean_generation_times(self) -> Dict[str, float]:
        with self._lock:
            accumulators = dict(self._generation_times)
        return {
            page: acc.mean for page, acc in accumulators.items() if acc.count
        }

    def stage_timing_summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-stage queue-wait and service-time percentile summaries.

        ``{stage: {"queue_wait": {count, mean, p50, p95, p99, max},
        "service": {...}}}`` — the per-request answer to "where did the
        latency go" (header vs. general vs. render).
        """
        with self._lock:
            waits = dict(self._stage_queue_waits)
            services = dict(self._stage_services)
        return {
            stage: {
                "queue_wait": waits[stage].summary(),
                "service": services[stage].summary(),
            }
            for stage in waits
        }

    def throughput_series(self, bucket_seconds: float = 60.0) -> TimeSeries:
        """Completions per bucket over the run (paper's Figure 9 shape)."""
        return self._completion_events.bucketize(bucket_seconds)

    def class_throughput_series(self, request_class: Union[RequestClass, str],
                                bucket_seconds: float = 60.0) -> TimeSeries:
        """Per-class completions per bucket (Figure 10).

        Accepts either a series label (``"static"``, ``"dynamic"``,
        ``"quick"``, ``"lengthy"``) or a :class:`RequestClass`, which
        resolves to its refined label.
        """
        if isinstance(request_class, RequestClass):
            label = CLASS_SERIES_LABELS[request_class][-1]
        else:
            label = request_class
        with self._lock:
            series = self._class_events.get(label)
        if series is None:
            return TimeSeries(f"completions/{label}")
        return series.bucketize(bucket_seconds)
