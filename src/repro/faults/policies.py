"""Resilience policies: deadlines, retry/backoff, circuit breaker.

These are the mechanisms the fault-injection engine justifies: when
the database can exhaust, stall, or transiently fail, the server needs
policies that bound the damage instead of convoying every stage behind
one stuck resource.

- :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter for *transient* database faults.  Applied only
  under the per-query lease strategy and only to idempotent statements
  (a retried INSERT could double-write; a retried SELECT cannot).
  :meth:`RetryPolicy.run` is the retry loop of one leased statement,
  for the live :class:`~repro.server.resources.PerQueryConnection` and
  the simulator alike.
- :class:`CircuitBreaker` — guards the connection pool: after a run of
  acquire failures it opens and fast-fails (503 + ``Retry-After``)
  instead of letting every request queue against an exhausted pool;
  after ``recovery_timeout`` it admits a single half-open probe, and a
  probe success closes it again.  :meth:`CircuitBreaker.guard` wraps
  one acquire.
- :func:`admit_hop` — the gates every hop passes before its handler,
  on both executors: the ``worker`` fault site, then the deadline.
- :class:`ResilienceConfig` — the declarative bundle a server accepts:
  per-stage deadlines (expired requests fail 504 before consuming a
  connection), the retry policy, the breaker, and degraded serving
  (stale fragment-cache fallback while the breaker is open).

Everything is clock-injected and seed-driven: backoff schedules come
from a caller-provided :class:`random.Random`, breaker transitions
from the shared server clock — the chaos tests script both.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import random
import threading
from typing import Callable, Generator, Iterator, List, Mapping, Optional

from repro.db.errors import PoolTimeoutError, TransientDBError
from repro.faults.errors import CircuitOpenError, DeadlineExpired, WorkerCrash
from repro.faults.plan import SITE_WORKER, FaultPlan
from repro.util.clock import Clock, MonotonicClock


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delays(rng)`` returns the full between-attempt schedule for one
    statement: ``max_attempts - 1`` waits, each the jittered
    exponential clamped to ``max_delay`` and then to the running
    maximum — so the schedule is monotone non-decreasing, bounded by
    ``max_delay * (1 + jitter)``, and bit-reproducible for a given
    RNG state.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def delays(self, rng: random.Random) -> List[float]:
        schedule: List[float] = []
        floor = 0.0
        for attempt in range(self.max_attempts - 1):
            base = min(self.base_delay * (self.multiplier ** attempt),
                       self.max_delay)
            jittered = base * (1.0 + self.jitter * rng.random())
            floor = max(floor, jittered)
            schedule.append(floor)
        return schedule

    def run(self, attempt: Callable[[], Iterator], rng: random.Random,
            stats, stage: str):
        """The retry loop of one leased statement.

        ``yield from`` ``attempt()`` until it returns; after each
        :class:`TransientDBError` count ``retries`` on ``stage`` and
        yield the next backoff wait, re-raising once the schedule is
        spent.  The schedule is drawn from ``rng`` at the statement's
        first transient, so a statement that never fails draws nothing.
        """
        delays: Optional[List[float]] = None
        tries = 0
        while True:
            try:
                return (yield from attempt())
            except TransientDBError:
                if delays is None:
                    delays = self.delays(rng)
                if tries >= len(delays):
                    raise
            if stats is not None:
                stats.record_resilience(stage, "retries")
            yield delays[tries]
            tries += 1


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning knobs."""

    #: Consecutive acquire failures (while closed) that open the breaker.
    failure_threshold: int = 5
    #: Seconds the breaker stays open before admitting a probe.
    recovery_timeout: float = 5.0
    #: Successful half-open probes required to close again.
    half_open_successes: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_timeout < 0:
            raise ValueError("recovery_timeout must be >= 0")
        if self.half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN state machine over an injected clock.

    Invariants (property-tested in ``tests/chaos``):

    - ``allow()`` never returns ``False`` while CLOSED;
    - once OPEN, ``allow()`` returns ``False`` until
      ``recovery_timeout`` clock-seconds have elapsed, then admits
      exactly one in-flight probe at a time;
    - ``half_open_successes`` successful probes close the breaker and
      reset its failure count; one failed probe re-opens it.
    """

    def __init__(self, config: BreakerConfig, clock: Optional[Clock] = None,
                 on_transition: Optional[Callable[[str], None]] = None):
        self.config = config
        self.clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_successes = 0
        self._probe_in_flight = False
        self._on_transition = on_transition
        self.transitions: List[str] = []

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a pool acquire proceed right now?"""
        transitioned = None
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                elapsed = self.clock.now() - self._opened_at
                if elapsed < self.config.recovery_timeout:
                    return False
                transitioned = self._transition(BreakerState.HALF_OPEN)
                self._probe_in_flight = True
                self._probe_successes = 0
            elif self._probe_in_flight:
                # One probe at a time: concurrent requests keep
                # fast-failing until the in-flight probe reports.
                return False
            else:
                self._probe_in_flight = True
        self._notify(transitioned)
        return True

    def record_success(self) -> None:
        transitioned = None
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._probe_successes += 1
                if self._probe_successes >= self.config.half_open_successes:
                    self._failures = 0
                    transitioned = self._transition(BreakerState.CLOSED)
            elif self._state is BreakerState.CLOSED:
                self._failures = 0
        self._notify(transitioned)

    def record_failure(self) -> None:
        transitioned = None
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False
                self._opened_at = self.clock.now()
                transitioned = self._transition(BreakerState.OPEN)
            elif self._state is BreakerState.CLOSED:
                self._failures += 1
                if self._failures >= self.config.failure_threshold:
                    self._opened_at = self.clock.now()
                    transitioned = self._transition(BreakerState.OPEN)
        self._notify(transitioned)

    @contextlib.contextmanager
    def guard(self, stats, stage: str):
        """The breaker around one pool acquire.

        While open it fast-fails with :class:`CircuitOpenError`
        (counted as ``breaker_fast_fail`` on ``stage``) instead of
        queueing another request against an exhausted pool; a
        :class:`PoolTimeoutError` inside the block feeds it a failure,
        a block that completes a success.
        """
        if not self.allow():
            if stats is not None:
                stats.record_resilience(stage, "breaker_fast_fail")
            raise CircuitOpenError(retry_after=self.retry_after())
        try:
            yield
        except PoolTimeoutError:
            self.record_failure()
            raise
        self.record_success()

    def retry_after(self) -> float:
        """Seconds until the breaker will consider a probe (0 if not open)."""
        with self._lock:
            if self._state is not BreakerState.OPEN:
                return 0.0
            remaining = (self._opened_at + self.config.recovery_timeout
                         - self.clock.now())
            return max(0.0, remaining)

    # ------------------------------------------------------------------
    def _transition(self, new_state: BreakerState) -> str:
        self._state = new_state
        self.transitions.append(new_state.value)
        return new_state.value

    def _notify(self, label: Optional[str]) -> None:
        if label is not None and self._on_transition is not None:
            self._on_transition(label)


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """The declarative resilience bundle a live/sim server accepts."""

    #: Request-wide deadline (seconds from arrival); a stage that picks
    #: a job up past its deadline fails it 504 without running the
    #: handler or leasing a connection.
    request_deadline: Optional[float] = None
    #: Per-stage overrides; a stage named here uses its own budget.
    stage_deadlines: Mapping[str, float] = \
        dataclasses.field(default_factory=dict)
    #: Transient-DB retry policy: the per-query lease path replays a
    #: SELECT outside an explicit transaction, nothing else (a write
    #: is never retried).  ``None`` disables retries.
    retry: Optional[RetryPolicy] = None
    #: Connection-pool circuit breaker.  ``None`` disables it.
    breaker: Optional[BreakerConfig] = None
    #: Serve a stale fragment-cache copy when the breaker fast-fails.
    degraded_serving: bool = False
    #: Seeds the retry-jitter stream.
    seed: int = 0

    def deadline_for(self, stage: str) -> Optional[float]:
        specific = self.stage_deadlines.get(stage)
        return specific if specific is not None else self.request_deadline


def admit_hop(stats, stage: str, arrival: float, clock: Clock,
              plan: Optional[FaultPlan],
              resilience: Optional[ResilienceConfig],
              page_key: Optional[str] = None) -> Generator[float, None, None]:
    """The gates a hop passes before its handler runs, live and sim.

    First the ``worker`` site: a hang waits, which ages the request
    toward its deadline, and a crash raises :class:`WorkerCrash`
    (counted as ``worker_crashes``).  Then the deadline: a job older
    than its stage's budget raises :class:`DeadlineExpired` (counted
    as ``deadline_expired``) before it can lease a connection.
    """
    if plan is not None:
        try:
            yield from plan.gate(SITE_WORKER, page_key, stage)
        except WorkerCrash:
            stats.record_resilience(stage, "worker_crashes")
            raise
    deadline = (resilience.deadline_for(stage)
                if resilience is not None else None)
    if deadline is not None and clock.now() - arrival > deadline:
        stats.record_resilience(stage, "deadline_expired")
        raise DeadlineExpired("request deadline expired")
