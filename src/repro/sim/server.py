"""The simulated server: one stage-graph walker for every topology.

Like the live :class:`repro.server.pipeline.Pipeline`, a topology is
data: a table of stages, each a bounded :class:`SimThreadPool` plus a
*step* — a small generator doing that stage's work and returning the
next stage's name (``None`` when the response is ready).  One walker,
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

The simulator models threads, not connections.  Connections are
assigned only to the threads that touch the database (paper §1), one
each: the staged pools' general and lengthy threads, or every worker
of a thread-per-request server.  A connection is therefore never
waited for, and it is held exactly while its thread is held, so the
thread pools already carry the whole resource story.  Connection
held/busy accounting lives in the live lease layer
(:class:`repro.server.resources.LeaseManager` feeding
:meth:`repro.server.stats.ServerStats.connection_utilization`).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.classifier import RequestClass
from repro.core.dispatch import Dispatcher, DynamicPoolChoice
from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.faults.plan import FaultPlan
from repro.faults.policies import ResilienceConfig
from repro.server.stats import ServerStats
from repro.sim.faults import (
    SimClockAdapter,
    SimFaultHarness,
    SimRequestFailed,
    sim_fault_plan,
)
from repro.sim.kernel import SimEvent, Simulation
from repro.sim.resources import PSServer, SimLockTable, SimThreadPool
from repro.sim.workload import (
    DEFAULT_PROFILES,
    PageProfile,
    WorkloadConfig,
    _report_class,
)

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
        #: Fault-injection mirror; an empty plan injects nothing and
        #: draws no randomness.  Replaced by :meth:`configure_faults`.
        self.fault_harness = SimFaultHarness(sim, sim_fault_plan(sim, ()),
                                             self.stats)
        self._last_tick = 0.0
        #: name -> (pool, step); filled in by the topology builder.
        self.stages: Dict[str, Tuple[SimThreadPool, Callable]] = {}
        self.entry = ""
        #: Waiter priority on every pool (lowest first); FIFO is 0.
        self._priority: Callable[[_Request], float] = lambda request: 0.0
        #: The 1 Hz sample, driven by the workload's sampler process.
        self.sample: Callable[[], None] = self._sample_stage_queues
        TOPOLOGIES[kind](self)

    # ------------------------------------------------------------------
    # Topologies: stage tables
    # ------------------------------------------------------------------
    def _add_stage(self, name: str, size: int, step: Callable) -> None:
        if not self.stages:
            self.entry = name
        self.stages[name] = (SimThreadPool(self.sim, name, size), step)

    def _build_thread_per_request(self) -> None:
        """Paper Figure 4: one pool does everything, and every worker
        pins a database connection for its lifetime (pool size =
        workers, §1)."""
        self._add_stage("worker", self.config.baseline_workers, self._worker)
        self.sample = self._sample_worker_queue

    def _build_sjf(self) -> None:
        self._build_thread_per_request()
        self._priority = self._estimated_size

    def _build_staged(self) -> None:
        """Paper Figure 5.  Connections are assigned only to dynamic-
        request threads (§1), one per general or lengthy thread."""
        config = self.config
        if config.warm_start:
            for path, profile in DEFAULT_PROFILES.items():
                if profile.db_demand > 0:
                    self.policy.tracker.prime(path, profile.db_demand)
        self._add_stage("header", config.header_pool, self._header)
        self._add_stage("static", config.static_pool, self._static)
        self._add_stage("general", config.general_pool, self._dynamic)
        self._add_stage("lengthy", config.lengthy_pool, self._dynamic)
        self._add_stage("render", config.render_pool, self._render)

    def _build_staged_render_inline(self) -> None:
        """Ablation A5: the staged table without the render stage, so
        dynamic threads render on their own connection."""
        self._build_staged()
        del self.stages["render"]

    def _estimated_size(self, request: _Request) -> float:
        # Statics are known-small: priority 0 (jump lengthy jobs).
        if request.profile is None:
            return 0.0
        estimate = self.policy.tracker.mean_time(request.page)
        return estimate if estimate is not None else 0.0

    # ------------------------------------------------------------------
    def configure_faults(self, plan: FaultPlan,
                         resilience: Optional[ResilienceConfig] = None
                         ) -> SimFaultHarness:
        """Mirror a live server's fault plan + policies on sim time.

        The plan should be built with :func:`repro.sim.faults.
        sim_fault_plan` so its schedule windows read the sim clock.
        """
        self.fault_harness = SimFaultHarness(self.sim, plan, self.stats,
                                             resilience)
        return self.fault_harness

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

        The gate order is the live request path's: worker hook,
        deadline check, socket read (entry stage only), then whatever
        the step consults (pool acquire, per-query, render), and the
        socket write once the response is ready.
        """
        harness = self.fault_harness
        arrival = self.sim.now
        stage: Optional[str] = self.entry
        try:
            while stage is not None:
                pool, step = self.stages[stage]
                yield pool.acquire(request.kind, self._priority(request))
                try:
                    yield from harness.worker_start(stage, request.page)
                    harness.check_deadline(stage, arrival)
                    if stage == self.entry:
                        harness.on_client_read(request.page, stage)
                    last_stage = stage
                    stage = yield from step(request, stage)
                finally:
                    pool.release()
        except SimRequestFailed as failure:
            # The live side sent an error response (or nothing, for a
            # dropped client); either way no completion is recorded.
            if failure.status is not None:
                self.stats.record_error(request.page or "?", failure.status)
            return
        if not harness.on_client_write(request.page, last_stage):
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
            yield from self.fault_harness.render_gate(request.page, stage)
            yield self.web.serve(profile.render_demand * request.jitter)

    def _dynamic(self, request: _Request, stage: str, parse: bool = False):
        """Data generation on a connection-holding thread: run the
        database phase and feed the measured time to the classifier,
        exactly as the live server does when the unrendered template is
        enqueued (§3.3).  Without a render stage this thread renders
        too, its connection idle.

        The connection is this thread's own (see the module docstring),
        so there is no wait for one; only the pool's fault site and its
        breaker are consulted."""
        profile = request.profile
        render_here = "render" not in self.stages
        yield from self.fault_harness.lease_gate(stage, request.page)
        if parse:
            yield self.web.serve(profile.parse_demand)
        started = self.sim.now
        yield from self._db_phase(request, stage)
        seconds = self.sim.now - started
        self.policy.record_generation_time(profile.path, seconds)
        if self.config.measuring(self.sim.now):
            self.stats.record_generation_time(profile.path, seconds)
        if render_here:
            yield from self._render(request, stage)
        return None if render_here else "render"

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
                                       stage)
            finally:
                self.locks.release_write(profile.write_table)

    def _query(self, demand: float, request: _Request, stage: str):
        """One statement behind the live engine's per-statement
        injection point (delay, transient-with-retry, hard failure)."""
        yield from self.fault_harness.db_query(stage, request.page)
        yield self.db.serve(demand * request.jitter)

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


#: Server kind -> the builder that fills in its stage table.
TOPOLOGIES: Dict[str, Callable[[SimServer], None]] = {
    "baseline": SimServer._build_thread_per_request,
    "staged": SimServer._build_staged,
    "staged-render-inline": SimServer._build_staged_render_inline,
    "sjf": SimServer._build_sjf,
}
