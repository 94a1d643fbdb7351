"""Server-side metrics: the one sink for live and simulated runs.

Feeds the experiment harness with exactly what the paper reports:
per-page completion counts (Table 4), per-page response-time averages
(Table 3), queue-length time series for each pool (Figures 7–8) and
completions per minute (Figures 9–10) — plus, beyond the paper,
per-stage queue-wait/service-time percentiles, connection busy
fractions and resilience counters.

Every number lives in one of four keyed stores under one lock:

- counters, ``family -> {key: number}``: completions, errors, policy
  outcomes, injected faults, breaker transitions and lease totals;
- summaries, ``family -> {key: accumulator}``: response, generation,
  stage queue-wait/service and lease acquire-wait times;
- per-second completion counts, ``label -> {second: count}``;
- 1 Hz samples, ``name -> TimeSeries``: ``queue/<pool>``, ``tspare``
  and ``treserve``.

Completions are counted per whole second of run time, not kept as one
timestamp per request, so memory grows with the run's length and not
with its request count.  Re-bucketing those counts is exact when the
window edges and the bucket width are whole seconds, as they are for
every caller (ramp-ups of 60 s and 300 s, 60 s buckets).

Request classes are the :class:`repro.core.classifier.RequestClass`
enum end-to-end.  Per-class completion counts keep the labels the
figure-10 exports have always used: ``static``, ``dynamic`` (all
dynamic requests), and the refined ``quick`` / ``lengthy`` — a dynamic
completion counts under both ``dynamic`` and its refined label.

The simulator drives the same class on its own clock
(:class:`repro.sim.faults.SimClockAdapter`): it records each
interaction (page count and client-side response time) only inside the
paper's measurement window, and each request's class counts over the
whole run (:meth:`ServerStats.record_interaction`,
:meth:`ServerStats.record_request`).  A live response is both at once
(:meth:`ServerStats.record_completion`).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable, Dict, Hashable, Optional, Tuple, Union

from repro.core.classifier import RequestClass
from repro.util.clock import Clock, MonotonicClock
from repro.util.timeseries import SummaryAccumulator, TimeSeries, WelfordAccumulator

#: Per-class completion labels for each request class.  Dynamic
#: classes count under "dynamic" *and* their refined label (Figure 10
#: b–d).
CLASS_SERIES_LABELS: Dict[RequestClass, Tuple[str, ...]] = {
    RequestClass.STATIC: ("static",),
    RequestClass.QUICK_DYNAMIC: ("dynamic", "quick"),
    RequestClass.LENGTHY_DYNAMIC: ("dynamic", "lengthy"),
}

#: The per-stage policy outcomes :meth:`ServerStats.record_resilience`
#: counts, in the order ``resilience_report()`` lists them.
RESILIENCE_COUNTERS = (
    "retries", "deadline_expired", "breaker_fast_fail",
    "degraded_served", "late_completions", "worker_crashes",
)

#: What one live completion counts toward: the overall total and its
#: class labels.
_COMPLETION_LABELS = {
    request_class: ("all",) + labels
    for request_class, labels in CLASS_SERIES_LABELS.items()
}


def _add(table: Dict, key: Hashable, amount: float = 1) -> None:
    table[key] = table.get(key, 0) + amount


class ServerStats:
    """Thread-safe metric sink shared by all of a server's pools."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else MonotonicClock()
        self.started_at = self.clock.now()
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict] = defaultdict(dict)
        self._summaries: Dict[str, Dict[str, WelfordAccumulator]] = \
            defaultdict(dict)
        self._per_second: Dict[str, Dict[int, int]] = defaultdict(dict)
        self._series: Dict[str, TimeSeries] = {}
        self._lease_strategies: Dict[str, str] = {}
        self._breaker_state = "closed"
        #: Source of :meth:`connection_gauges`: a server with a
        #: :class:`~repro.server.reactor.ConnectionReactor` points it
        #: at ``reactor.gauges``, the one ledger of parks and sheds.
        self.reactor_gauges: Callable[[], Dict[str, int]] = dict

    # ------------------------------------------------------------------
    # Store helpers; callers hold the lock
    # ------------------------------------------------------------------
    def _summary(self, family: str, key: str,
                 kind=SummaryAccumulator) -> WelfordAccumulator:
        table = self._summaries[family]
        accumulator = table.get(key)
        if accumulator is None:
            accumulator = table[key] = kind(key)
        return accumulator

    def _interaction(self, page: str, response_seconds: float) -> None:
        _add(self._counters["completions"], page)
        self._summary("response", page).add(response_seconds)

    def _requests(self, labels: Tuple[str, ...]) -> None:
        second = int(self.clock.now() - self.started_at)
        for label in labels:
            _add(self._per_second[label], second)

    def _sample(self, name: str, now: float, value: float) -> None:
        # Timestamps are read under the lock: TimeSeries.append rejects
        # out-of-order samples, which racing samplers could produce.
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(name)
        series.append(now, value)

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def record_completion(self, page: str, request_class: RequestClass,
                          response_seconds: float) -> None:
        """One response sent with a 2xx/3xx status: an interaction and
        a request at once.  A ``request_class`` that is not a
        :class:`RequestClass` raises ``KeyError`` and records nothing."""
        labels = _COMPLETION_LABELS[request_class]
        with self._lock:
            self._interaction(page, response_seconds)
            self._requests(labels)

    def record_interaction(self, page: str, response_seconds: float) -> None:
        """One completed web interaction, client-side view (TPC-W)."""
        with self._lock:
            self._interaction(page, response_seconds)

    def record_request(self, label: str) -> None:
        """One completed HTTP request under the class ``label``.

        The simulator calls it once per label — ``static``, or
        ``dynamic`` and then ``quick``/``lengthy`` — and each call also
        counts toward the overall total, so the simulated Figure 9
        counts a dynamic request twice, as it always has.
        """
        with self._lock:
            self._requests(("all", label))

    def record_error(self, page: str, status: int) -> None:
        """One error response (any status outside 2xx/3xx) sent for
        ``page``; it is not a completion."""
        with self._lock:
            _add(self._counters["errors"], (page, status))

    def record_generation_time(self, page: str, seconds: float) -> None:
        """Data-generation time for a dynamic page (server-side view)."""
        with self._lock:
            self._summary("generation", page, WelfordAccumulator).add(seconds)

    def record_stage_timing(self, stage: str, queue_wait: float,
                            service: float) -> None:
        """One pipeline hop: time queued at ``stage`` plus service time.

        Fed by the stage pipeline on every hop, so each request's
        latency decomposes into per-stage waits — the queue dynamics of
        the paper's Figures 7–8, measured per request instead of
        sampled once a second.
        """
        with self._lock:
            self._summary("queue_wait", stage).add(queue_wait)
            self._summary("service", stage).add(service)

    # ------------------------------------------------------------------
    # 1 Hz samples
    # ------------------------------------------------------------------
    def sample_queue(self, pool_name: str, length: int) -> None:
        with self._lock:
            now = self.clock.now() - self.started_at
            self._sample(f"queue/{pool_name}", now, length)

    def sample_reserve(self, tspare: int, treserve: int) -> None:
        with self._lock:
            now = self.clock.now() - self.started_at
            self._sample("tspare", now, tspare)
            self._sample("treserve", now, treserve)

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
            self._lease_strategies[stage] = strategy
            _add(self._counters["leases"], stage)
            _add(self._counters["held_seconds"], stage, float(held_seconds))
            _add(self._counters["busy_seconds"], stage, float(busy_seconds))
            self._summary("acquire_wait", stage).add(wait_seconds)

    # ------------------------------------------------------------------
    # Resilience: fault injection + policy outcomes
    # (fed by FaultPlan.on_inject, the pipeline, and the LeaseManager)
    # ------------------------------------------------------------------
    def record_resilience(self, stage: str, counter: str) -> None:
        """One policy outcome on ``stage``; ``counter`` is one of
        :data:`RESILIENCE_COUNTERS` (a transient-DB retry, a 504 past
        the deadline, a breaker fast-fail, a stale copy served, a
        suppressed late completion, a worker crash)."""
        if counter not in RESILIENCE_COUNTERS:
            raise ValueError(f"unknown resilience counter {counter!r}")
        with self._lock:
            _add(self._counters["resilience"], (stage or "?", counter))

    def record_fault(self, site: str, action: str) -> None:
        """One injected fault (wired to ``FaultPlan.on_inject``)."""
        with self._lock:
            _add(self._counters["faults"], f"{site}:{action}")

    def record_breaker_transition(self, state: str) -> None:
        """The circuit breaker entered ``state``."""
        with self._lock:
            self._breaker_state = state
            _add(self._counters["transitions"], state)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def completions(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters["completions"])

    def total_completions(self) -> int:
        with self._lock:
            return sum(self._counters["completions"].values())

    def errors(self) -> Dict[str, Dict[str, int]]:
        """Error responses per page and status, e.g. ``{"/home":
        {"500": 2}}`` (string statuses, as JSON stores them)."""
        with self._lock:
            counts = sorted(self._counters["errors"].items())
        report: Dict[str, Dict[str, int]] = {}
        for (page, status), count in counts:
            report.setdefault(page, {})[str(status)] = count
        return report

    def _summaries_of(self, family: str) -> Dict[str, WelfordAccumulator]:
        # Callers hold the lock; the accumulators lock themselves.
        return {key: acc for key, acc in self._summaries[family].items()
                if acc.count}

    def mean_response_times(self) -> Dict[str, float]:
        with self._lock:
            responses = self._summaries_of("response")
        return {page: acc.mean for page, acc in responses.items()}

    def response_time_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-page response-time summaries: count/mean/p50/p95/p99/max."""
        with self._lock:
            responses = self._summaries_of("response")
        return {page: acc.summary() for page, acc in responses.items()}

    def mean_generation_times(self) -> Dict[str, float]:
        with self._lock:
            generations = self._summaries_of("generation")
        return {page: acc.mean for page, acc in generations.items()}

    def stage_timing_summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-stage queue-wait and service-time percentile summaries.

        ``{stage: {"queue_wait": {count, mean, p50, p95, p99, max},
        "service": {...}}}`` — the per-request answer to "where did the
        latency go" (header vs. general vs. render).
        """
        with self._lock:
            waits = self._summaries_of("queue_wait")
            services = self._summaries_of("service")
        return {
            stage: {"queue_wait": wait.summary(),
                    "service": services[stage].summary()}
            for stage, wait in waits.items()
        }

    def connection_utilization(self) -> Dict[str, Dict]:
        """Per-stage busy-fraction snapshot.

        ``{stage: {strategy, leases, held_seconds, busy_seconds,
        busy_fraction, acquire_wait: {count, mean, p50, p95, p99,
        max}}}``.  Pinned leases return at worker shutdown, so read
        after ``server.stop()`` for complete held-time accounting.
        """
        with self._lock:
            waits = self._summaries_of("acquire_wait")
            strategies = dict(self._lease_strategies)
            leases = dict(self._counters["leases"])
            held = dict(self._counters["held_seconds"])
            busy = dict(self._counters["busy_seconds"])
        return {
            stage: {
                "strategy": strategy,
                "leases": leases[stage],
                "held_seconds": held[stage],
                "busy_seconds": busy[stage],
                "busy_fraction": (busy[stage] / held[stage]
                                  if held[stage] > 0 else 0.0),
                "acquire_wait": waits[stage].summary(),
            }
            for stage, strategy in strategies.items()
        }

    def resilience_report(self) -> Dict:
        """Snapshot of fault injections and policy outcomes.

        ``{"stages": {stage: {retries, deadline_expired,
        breaker_fast_fail, degraded_served, late_completions,
        worker_crashes}}, "faults_injected": {"site:action": n},
        "breaker": {"state": ..., "transitions": {...}}}`` — keyed
        identically by the live servers and the simulator.
        """
        with self._lock:
            outcomes = dict(self._counters["resilience"])
            faults = dict(sorted(self._counters["faults"].items()))
            state = self._breaker_state
            transitions = dict(sorted(self._counters["transitions"].items()))
        stages: Dict[str, Dict[str, int]] = {}
        for (stage, counter), count in outcomes.items():
            stages.setdefault(
                stage, dict.fromkeys(RESILIENCE_COUNTERS, 0))[counter] = count
        return {
            "stages": dict(sorted(stages.items())),
            "faults_injected": faults,
            "breaker": {"state": state, "transitions": transitions},
        }

    def connection_gauges(self) -> Dict[str, int]:
        """Reactor view: parked connections now, idle reaps and sheds
        so far — zeros until a reactor is attached."""
        gauges = self.reactor_gauges()
        return {key: gauges.get(key, 0)
                for key in ("idle_reaped", "sheds", "parked")}

    def series(self, name: str) -> TimeSeries:
        """One 1 Hz sampled series (``queue/<pool>``, ``tspare``,
        ``treserve``); empty if never sampled."""
        with self._lock:
            series = self._series.get(name)
        return series if series is not None else TimeSeries(name)

    def queue_series(self) -> Dict[str, TimeSeries]:
        """Pool name -> its sampled queue lengths (Figures 7–8)."""
        with self._lock:
            return {name[len("queue/"):]: series
                    for name, series in self._series.items()
                    if name.startswith("queue/")}

    def throughput_series(self, bucket_seconds: float = 60.0,
                          request_class: Union[RequestClass, str, None] = None,
                          start: float = 0.0,
                          end: Optional[float] = None) -> TimeSeries:
        """Completions per bucket over ``[start, end)``: all requests
        (Figure 9), or one class (Figure 10).

        ``request_class`` is a label (``"static"``, ``"dynamic"``,
        ``"quick"``, ``"lengthy"``) or a :class:`RequestClass`, which
        resolves to its refined label.  The default ``end`` includes
        the last second that saw a completion.
        """
        if isinstance(request_class, RequestClass):
            label = CLASS_SERIES_LABELS[request_class][-1]
        else:
            label = request_class or "all"
        with self._lock:
            counts = sorted(self._per_second.get(label, {}).items())
        per_second = TimeSeries(f"completions/{label}")
        for second, count in counts:
            per_second.append(second, count)
        return per_second.bucketize(bucket_seconds, start, end)
