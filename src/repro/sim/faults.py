"""Simulated-time mirror of the live fault-injection points.

The live servers thread one :class:`repro.faults.plan.FaultPlan`
through the connection pool, the database engine, the template engine,
the sockets, and the worker pools.  The simulator models the same
request lifecycle as generator processes, so this module re-expresses
every injection point — and every resilience policy that reacts to it
— against the discrete-event clock:

==================  ============================  =======================
site                live mechanism                sim mirror
==================  ============================  =======================
``db.pool.acquire``  PoolTimeoutError / sleep      :meth:`SimFaultHarness.lease_gate`
``db.query``         TransientDBError / sleep      :meth:`SimFaultHarness.db_query`
``render``           raise / sleep in the engine   :meth:`SimFaultHarness.render_gate`
``socket.read``      drop / stall on recv          :meth:`SimFaultHarness.on_client_read`
``socket.write``     drop / short write on send    :meth:`SimFaultHarness.on_client_write`
``worker``           crash / hang in the pool      :meth:`SimFaultHarness.worker_start`
==================  ============================  =======================

Both sides evaluate the *same* :class:`FaultPlan` rules with the same
seed, so a scripted plan produces an identical ``fault_report()`` on
the live server and the sim — the parity the chaos tests assert.
Injected delays become ``yield`` suspensions; injected failures become
:class:`SimRequestFailed`, which the server's request walker catches
to abandon the request (the sim analogue of an error response).

Policies mirrored on sim time: per-stage request deadlines
(:meth:`check_deadline` → 504), bounded retry with the same
deterministic-jitter backoff schedule as the live
:class:`~repro.server.resources.LeaseManager` (the sim models the
per-query lease strategy, the only one the live retry applies to), and
a :class:`~repro.faults.policies.CircuitBreaker` guarding the
connection pool.  Counters land in a :class:`ServerStats` driven by
the sim clock, so ``stats.resilience_report()`` exports key-for-key
with the live document.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
    FaultAction,
    FaultPlan,
    FaultRule,
)
from repro.faults.policies import CircuitBreaker, ResilienceConfig
from repro.server.stats import ServerStats
from repro.sim.kernel import Simulation
from repro.util.clock import Clock
from repro.util.rng import RandomStream


class SimClockAdapter(Clock):
    """Expose ``sim.now`` through the live code's Clock interface, so
    FaultPlan windows, breaker timeouts, and ServerStats timestamps all
    read simulated time."""

    def __init__(self, sim: Simulation):
        self._sim = sim

    def now(self) -> float:
        return self._sim.now


class SimRequestFailed(Exception):
    """A simulated request failed (injected fault or policy verdict).

    ``status`` carries the HTTP status the live server would have sent
    (``None`` for a silent client abandon, where the live side sends
    nothing at all).  The server's request walker catches this and
    abandons the request without recording a completion.
    """

    def __init__(self, status: Optional[int], message: str = ""):
        super().__init__(message or f"simulated request failed ({status})")
        self.status = status


def sim_fault_plan(sim: Simulation, rules: Iterable[FaultRule],
                   seed: int = 0) -> FaultPlan:
    """A FaultPlan whose schedule windows run on simulated time."""
    return FaultPlan(rules, seed=seed, clock=SimClockAdapter(sim))


class SimFaultHarness:
    """One per simulated server: the plan, the policies, the counters.

    :class:`repro.sim.server.SimServer` calls the gate methods at the
    same points — and in the same order — as the live request path
    consults the plan: worker hook, deadline check, socket read, pool
    acquire, per-query, render, socket write.
    """

    def __init__(self, sim: Simulation, plan: FaultPlan,
                 resilience: Optional[ResilienceConfig] = None):
        self.sim = sim
        self.plan = plan
        if resilience is None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        clock = SimClockAdapter(sim)
        #: Same counter surface as the live servers' ``server.stats``,
        #: driven by sim time — ``resilience_report()`` exports
        #: key-for-key against the live document.
        self.stats = ServerStats(clock)
        if plan.on_inject is None:
            plan.on_inject = self.stats.record_fault
        self.breaker: Optional[CircuitBreaker] = None
        if resilience.breaker is not None:
            self.breaker = CircuitBreaker(
                resilience.breaker, clock=clock,
                on_transition=self.stats.record_breaker_transition,
            )
        # Same stream name as the live LeaseManager: identical seeds
        # yield the identical backoff schedule.
        self._retry_stream = RandomStream(resilience.seed, "retry-jitter")

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def check_deadline(self, stage: str, arrival: float) -> None:
        """Live ``Pipeline._execute``'s entry check: a job whose age
        exceeds the stage deadline fails 504 before service begins."""
        deadline = self.resilience.deadline_for(stage)
        if deadline is not None and self.sim.now - arrival > deadline:
            self.stats.record_deadline_expired(stage)
            raise SimRequestFailed(504, "request deadline expired")

    def retry_delays(self) -> List[float]:
        if self.resilience.retry is None:
            return []
        return self.resilience.retry.delays(self._retry_stream)

    # ------------------------------------------------------------------
    # Injection gates (one per live site)
    # ------------------------------------------------------------------
    def worker_start(self, stage: str, page: str):
        """``worker`` site: the pool fault hook before the handler."""
        decision = self.plan.decide(SITE_WORKER, page_key=page, stage=stage)
        if decision is None:
            return
        if decision.action is FaultAction.HANG:
            yield decision.delay
        elif decision.action is FaultAction.CRASH:
            # Live: WorkerCrashError → _on_worker_error → 500 while the
            # stage still owns the job.
            self.stats.record_worker_crash(stage)
            raise SimRequestFailed(500, "worker crashed (injected)")

    def on_client_read(self, page: str, stage: str) -> None:
        """``socket.read``: the client stalls (408) or vanishes."""
        decision = self.plan.decide(SITE_SOCKET_READ, page_key=page,
                                    stage=stage)
        if decision is None:
            return
        if decision.action is FaultAction.STALL:
            raise SimRequestFailed(408, "client stalled mid-request")
        # DROP: the peer closed before sending a request — the live
        # handler returns DONE without a response.
        raise SimRequestFailed(None, "client disconnected")

    def on_client_write(self, page: str, stage: str) -> bool:
        """``socket.write``: False when transmission failed (drop or
        short write), in which case the live pipeline records no
        completion — the caller must skip its results recording."""
        decision = self.plan.decide(SITE_SOCKET_WRITE, page_key=page,
                                    stage=stage)
        return decision is None

    def lease_gate(self, stage: str, page: str):
        """``db.pool.acquire`` plus the breaker guarding it.

        Mirrors :meth:`LeaseManager.acquire`: an open breaker fast-
        fails 503 before touching the pool; a pool failure feeds the
        breaker; a successful acquire resets it.
        """
        if self.breaker is not None and not self.breaker.allow():
            self.stats.record_fast_fail(stage)
            raise SimRequestFailed(503, "database circuit breaker open")
        decision = self.plan.decide(SITE_POOL_ACQUIRE, page_key=page,
                                    stage=stage)
        if decision is not None:
            if decision.action is FaultAction.DELAY:
                yield decision.delay
            else:
                if self.breaker is not None:
                    self.breaker.record_failure()
                # Live: PoolTimeoutError → error_response → 500.
                raise SimRequestFailed(500, "connection pool exhausted")
        if self.breaker is not None:
            self.breaker.record_success()

    def db_query(self, stage: str, page: str):
        """``db.query`` with the live retry semantics.

        Each attempt consults the plan exactly as the live
        ``Database.execute_statement`` does; a transient failure backs
        off on the shared jitter schedule and re-decides, so injection
        and retry counts match the live per-query path one for one.
        """
        attempt = 0
        delays: Optional[List[float]] = None
        while True:
            decision = self.plan.decide(SITE_DB_QUERY, page_key=page,
                                        stage=stage)
            if decision is None:
                return
            if decision.action is FaultAction.DELAY:
                yield decision.delay
                return
            if decision.action is FaultAction.TRANSIENT:
                if delays is None:
                    delays = self.retry_delays()
                if attempt >= len(delays):
                    raise SimRequestFailed(500,
                                           "transient database failure")
                self.stats.record_retry(stage)
                yield delays[attempt]
                attempt += 1
                continue
            raise SimRequestFailed(500, "database failure (injected)")

    def render_gate(self, page: str, stage: str):
        """``render``: slow or failing template rendering."""
        decision = self.plan.decide(SITE_RENDER, page_key=page, stage=stage)
        if decision is None:
            return
        if decision.action is FaultAction.DELAY:
            yield decision.delay
        else:
            raise SimRequestFailed(500, "render failure (injected)")
