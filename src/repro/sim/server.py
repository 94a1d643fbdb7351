"""The simulated server: one stage-graph walker for every topology.

A topology's stage table is the live servers' own declaration
(:func:`repro.server.staged.staged_stages`,
:func:`repro.server.baseline.baseline_stages`) over this module's
*steps* — small generators doing a stage's work and returning the
next stage's name (``None`` when the response is ready) — with a
:class:`SimThreadPool` of the declared size per stage.  One walker,
:meth:`SimServer._request`, carries every request through the table
and owns the per-stage lifecycle — acquire a thread, consult the
fault gates in the live consultation order, run the step, release —
so thread-per-request, the paper's five-pool design, and the ablations
differ only in their tables, never in the walker.

Every topology shares the same substrate — a processor-sharing
database host, a processor-sharing web host, reader-preference table
locks — and embeds the *real* :class:`repro.core.SchedulingPolicy`:
dispatch decisions, the service-time tracker, and the treserve
controller run the production code against simulated time.

Every table declares :data:`LeaseStrategy.LEASED_PER_QUERY`, the one
strategy the simulator runs (a table declaring another is rejected):
each modelled statement — a page's read phase, then its write phase —
passes the breaker and the ``db.pool.acquire`` site, then
``db.query``, and only a read is retried, as on the live per-query
path.  A page with no query never touches the pool.  The implicit
pool holds one connection per database thread (the staged pools'
general and lengthy threads, or every thread-per-request worker), so
no lease ever waits and the thread pools carry the whole performance
model.  Connection held/busy accounting lives in the live lease layer
(:class:`repro.server.resources.LeaseManager` feeding
:meth:`repro.server.stats.ServerStats.connection_utilization`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.classifier import RequestClass
from repro.core.dispatch import Dispatcher, DynamicPoolChoice
from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.db.errors import DatabaseError
from repro.faults.errors import (
    CircuitOpenError,
    DeadlineExpired,
    InjectedFault,
)
from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    FaultPlan,
)
from repro.faults.policies import CircuitBreaker, ResilienceConfig, admit_hop
from repro.server.baseline import baseline_stages
from repro.server.pipeline import Stage, failure_outcome
from repro.server.resources import LeaseStrategy
from repro.server.staged import staged_stages
from repro.server.stats import ServerStats
from repro.sim.faults import SimClockAdapter, sim_fault_plan
from repro.sim.kernel import SimEvent, Simulation
from repro.sim.resources import PSServer, SimLockTable, SimThreadPool
from repro.sim.workload import (
    DEFAULT_PROFILES,
    PageProfile,
    WorkloadConfig,
    _report_class,
)
from repro.util.rng import RandomStream

#: What the shared gates raise (PoolTimeoutError and TransientDBError
#: are DatabaseErrors, WorkerCrash an InjectedFault); the walker turns
#: these into error responses and lets anything else, a simulator bug,
#: propagate.
_GATE_ERRORS = (DatabaseError, InjectedFault, CircuitOpenError,
                DeadlineExpired)


class _Request(NamedTuple):
    """One request walking the stage table."""

    kind: str                        # "dynamic" or "static"
    #: Fault-rule page key; statics match no page filter.
    page: str = ""
    profile: Optional[PageProfile] = None
    jitter: float = 1.0
    static_demand: float = 0.0


class SimServer:
    """One simulated web server, its topology named by ``kind``.

    ``kind`` is one of :data:`TOPOLOGIES`: ``"baseline"``
    (thread-per-request, paper Figure 4), ``"staged"`` (the five-pool
    design, Figure 5), ``"staged-render-inline"`` (the same table
    without the render stage, ablation A5), or ``"sjf"`` (the baseline
    table with its queue ordered by each page's tracked mean
    generation time — the paper's §3.3/§5 Shortest-Job-First
    comparison).
    """

    def __init__(self, sim: Simulation, config: WorkloadConfig, kind: str,
                 dispatcher: Optional[Dispatcher] = None):
        if kind not in TOPOLOGIES:
            raise ValueError(f"unknown server kind {kind!r}")
        self.sim = sim
        self.config = config
        #: The run's one metric sink, on simulated time.
        self.stats = ServerStats(SimClockAdapter(sim))
        self.db = PSServer(sim, "database", cores=config.db_cores)
        self.web = PSServer(sim, "webserver", cores=config.web_cores)
        self.locks = SimLockTable(sim)
        #: Sized from the same PolicyConfig fields the live
        #: StagedServer reads; single-pool topologies use only its
        #: service-time tracker (SJF's job-size estimate).
        self.policy = SchedulingPolicy(
            PolicyConfig(
                lengthy_cutoff=config.lengthy_cutoff,
                minimum_reserve=config.minimum_reserve,
                maximum_reserve=config.maximum_reserve,
                general_pool_size=config.general_pool,
                lengthy_pool_size=config.lengthy_pool,
                header_pool_size=config.header_pool,
                static_pool_size=config.static_pool,
                render_pool_size=config.render_pool,
            ),
            dispatcher=dispatcher,
        )
        # An empty plan injects nothing and draws no randomness.
        self.configure_faults(sim_fault_plan(sim, ()))
        self._last_tick = 0.0
        #: Dynamic threads render on their own connection: the
        #: thread-per-request worker, and ablation A5.
        self.render_inline = kind != "staged"
        table = TOPOLOGIES[kind](self)
        strategies = {stage.resources.strategy for stage in table
                      if stage.resources is not None}
        if strategies != {LeaseStrategy.LEASED_PER_QUERY}:
            raise ValueError(
                f"the simulator models per-query leases; the {kind!r} "
                f"table declares {sorted(s.value for s in strategies)}")
        #: What the stage table declares (see the module docstring).
        self.lease_strategy = LeaseStrategy.LEASED_PER_QUERY
        #: name -> (pool, step); the first declared stage is the entry.
        self.stages: Dict[str, Tuple[SimThreadPool, Callable]] = {
            stage.name: (SimThreadPool(sim, stage.name, stage.size),
                         stage.handler)
            for stage in table
        }
        self.entry = table[0].name
        #: Waiter priority on every pool (lowest first); FIFO is 0.
        self._priority: Callable[[_Request], float] = (
            self._estimated_size if kind == "sjf" else lambda request: 0.0)
        if "general" in self.stages:
            # Table 1 dispatch: the classifier routes on tracked
            # generation times and treserve follows the general pool.
            if config.warm_start:
                for path, profile in DEFAULT_PROFILES.items():
                    if profile.db_demand > 0:
                        self.policy.tracker.prime(path, profile.db_demand)
            #: The 1 Hz sample, driven by the workload's sampler process.
            self.sample: Callable[[], None] = self._sample_stage_queues
        else:
            self.sample = self._sample_worker_queue

    def _estimated_size(self, request: _Request) -> float:
        # Statics are known-small: priority 0 (jump lengthy jobs).
        if request.profile is None:
            return 0.0
        estimate = self.policy.tracker.mean_time(request.page)
        return estimate if estimate is not None else 0.0

    # ------------------------------------------------------------------
    def configure_faults(self, plan: FaultPlan,
                         resilience: Optional[ResilienceConfig] = None
                         ) -> None:
        """Run a live server's fault plan and policies on sim time.

        The plan should be built with :func:`repro.sim.faults.
        sim_fault_plan` so its schedule windows read the sim clock.
        Injections, breaker transitions and policy counters land in
        :attr:`stats`, as on a live server.
        """
        self.faults = plan
        if plan.on_inject is None:
            plan.on_inject = self.stats.record_fault
        self.resilience = (resilience if resilience is not None
                           else ResilienceConfig())
        self.breaker: Optional[CircuitBreaker] = None
        if self.resilience.breaker is not None:
            self.breaker = CircuitBreaker(
                self.resilience.breaker, clock=self.stats.clock,
                on_transition=self.stats.record_breaker_transition,
            )
        # The live LeaseManager's stream name: the same seed draws the
        # same backoff schedules.
        self._retry_stream = RandomStream(self.resilience.seed,
                                          "retry-jitter")

    def submit_page(self, profile: PageProfile, jitter: float) -> SimEvent:
        return self.sim.spawn(self._request(
            _Request("dynamic", profile.path, profile, jitter)))

    def submit_static(self, demand: float) -> SimEvent:
        return self.sim.spawn(self._request(
            _Request("static", static_demand=demand)))

    # ------------------------------------------------------------------
    # The walker
    # ------------------------------------------------------------------
    def _request(self, request: _Request):
        """Carry one request through the stage table.

        The gate order is the live request path's: worker site and
        deadline (:func:`admit_hop`), socket read (entry stage only),
        then whatever the step consults (pool acquire, query, render),
        and the socket write of the response or error.  The page is
        unknown until the entry step runs, where the live handler
        parses it.  A failure becomes the status the live pipeline
        sends for it (:func:`failure_outcome`); a dropped or short
        socket write means the response never counts.
        """
        faults = self.faults
        arrival = self.sim.now
        page: Optional[str] = None
        stage: Optional[str] = self.entry
        try:
            while stage is not None:
                pool, step = self.stages[stage]
                yield pool.acquire(request.kind, self._priority(request))
                try:
                    yield from admit_hop(self.stats, stage, arrival,
                                         self.stats.clock, faults,
                                         self.resilience, page)
                    if (stage == self.entry and faults.decide(
                            SITE_SOCKET_READ, stage=stage) is not None):
                        # The client vanished or stalled before sending
                        # a byte: the live handler closes, sending
                        # nothing.
                        return
                    page = request.page
                    last_stage = stage
                    stage = yield from step(request, stage)
                finally:
                    pool.release()
        except _GATE_ERRORS as exc:
            if faults.decide(SITE_SOCKET_WRITE, page, stage) is None:
                self.stats.record_error(page or "?",
                                        failure_outcome(exc).status)
            return
        if faults.decide(SITE_SOCKET_WRITE, page, last_stage) is not None:
            return
        self.stats.record_request(
            RequestClass.STATIC if request.profile is None
            else _report_class(request.page))

    # ------------------------------------------------------------------
    # Steps: generators returning the next stage; falling off the end
    # (None) means the response is ready
    # ------------------------------------------------------------------
    def _worker(self, request: _Request, stage: str):
        """Thread-per-request: the same thread parses, queries, and
        renders; its connection is held (and mostly idle) throughout."""
        if request.profile is not None:
            return (yield from self._dynamic(request, stage, parse=True))
        # Even static serving occupies the worker and its pinned
        # connection — the paper's complaint about the
        # thread-per-request trend.
        yield self.web.serve(request.static_demand)

    def _header(self, request: _Request, stage: str):
        """Header parsing plus Table 1 dispatch.  The request line
        alone sends statics on; dynamic requests are fully parsed here
        so connection-holding threads never parse."""
        if request.profile is None:
            yield self.web.serve(0.0002)  # the request line only
            return "static"
        yield self.web.serve(request.profile.parse_demand)
        choice = self.policy.route(
            request.page, tspare=self.stages["general"][0].spare)
        return "general" if choice is DynamicPoolChoice.GENERAL else "lengthy"

    def _static(self, request: _Request, stage: str):
        yield self.web.serve(request.static_demand)

    def _render(self, request: _Request, stage: str):
        """Template rendering; on the render stage it needs no
        connection."""
        profile = request.profile
        if profile.render_demand > 0:
            yield from self.faults.gate(SITE_RENDER, request.page, stage)
            yield self.web.serve(profile.render_demand * request.jitter)

    def _dynamic(self, request: _Request, stage: str, parse: bool = False):
        """Data generation on a database thread: run the database
        phase and feed the measured time to the classifier, exactly as
        the live server does when the unrendered template is enqueued
        (§3.3).  Without a render stage this thread renders too."""
        profile = request.profile
        if parse:
            yield self.web.serve(profile.parse_demand)
        started = self.sim.now
        yield from self._db_phase(request, stage)
        seconds = self.sim.now - started
        self.policy.record_generation_time(profile.path, seconds)
        if self.config.measuring(self.sim.now):
            self.stats.record_generation_time(profile.path, seconds)
        if self.render_inline:
            yield from self._render(request, stage)
        return None if self.render_inline else "render"

    def _db_phase(self, request: _Request, stage: str):
        """The data-generation phase: read holds, query, optional write
        grace period.  The calling thread (and its held database
        connection) is occupied for the entire phase."""
        profile = request.profile
        tokens = [(table, self.locks.acquire_read(table))
                  for table in sorted(profile.read_tables)]
        try:
            if profile.db_demand > 0:
                yield from self._query(profile.db_demand, request, stage)
        finally:
            for table, token in reversed(tokens):
                self.locks.release_read(table, token)
        if profile.write_table is not None:
            yield self.locks.acquire_write(profile.write_table)
            try:
                yield from self._query(profile.write_demand, request,
                                       stage, retried=False)
            finally:
                self.locks.release_write(profile.write_table)

    def _query(self, demand: float, request: _Request, stage: str,
               retried: bool = True):
        """One modelled statement on the live per-query lease path.

        Each attempt leases (``LeaseManager.acquire``: the breaker
        around the ``db.pool.acquire`` site; no lease waits, see the
        module docstring), passes the engine's ``db.query`` site and
        runs.  A read's transient failure is retried by the live retry
        loop; a write, like the live INSERT, is never replayed.
        """
        page = request.page

        def attempt():
            gate = self.faults.gate(SITE_POOL_ACQUIRE, page, stage)
            if self.breaker is None:
                yield from gate
            else:
                with self.breaker.guard(self.stats, stage):
                    yield from gate
            yield from self.faults.gate(SITE_DB_QUERY, page, stage)
            yield self.db.serve(demand * request.jitter)

        retry = self.resilience.retry
        if retried and retry is not None:
            yield from retry.run(attempt, self._retry_stream, self.stats,
                                 stage)
        else:
            yield from attempt()

    # ------------------------------------------------------------------
    # 1 Hz sampling
    # ------------------------------------------------------------------
    def _sample_worker_queue(self) -> None:
        pool, _ = self.stages["worker"]
        # Figure 7 plots queued *dynamic* requests on the single queue.
        self.stats.sample_queue("dynamic", pool.queued_with_tag("dynamic"))
        self.stats.sample_queue("all", pool.queue_length)

    def _sample_stage_queues(self) -> None:
        now = self.sim.now
        tspare = self.stages["general"][0].spare
        # The once-per-second treserve update (§3.3) rides the sampler,
        # which runs at the same 1 Hz cadence as the real server's timer.
        if now - self._last_tick >= self.policy.config.reserve_update_interval - 1e-9:
            self.policy.tick(tspare)
            self._last_tick = now
        self.stats.sample_reserve(tspare, self.policy.treserve)
        for name, (pool, _) in self.stages.items():
            self.stats.sample_queue(name, pool.queue_length)


#: Server kind -> its stage table, declared by the live servers.  SJF
#: is the thread-per-request table plus its priority.
TOPOLOGIES: Dict[str, Callable[[SimServer], List[Stage]]] = {
    "baseline": lambda server: baseline_stages(
        server.config.baseline_workers, server._worker,
        LeaseStrategy.LEASED_PER_QUERY),
    "staged": lambda server: staged_stages(
        server.policy.config, server._header, server._static,
        server._dynamic, server._render, server.render_inline,
        LeaseStrategy.LEASED_PER_QUERY),
}
TOPOLOGIES["sjf"] = TOPOLOGIES["baseline"]
TOPOLOGIES["staged-render-inline"] = TOPOLOGIES["staged"]
