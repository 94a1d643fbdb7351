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
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.dispatch import Dispatcher, DynamicPoolChoice
from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.faults.plan import FaultPlan
from repro.faults.policies import ResilienceConfig
from repro.sim.faults import SimFaultHarness, SimRequestFailed, sim_fault_plan
from repro.sim.kernel import SimEvent, Simulation
from repro.sim.resources import (
    PSServer,
    SimConnectionPool,
    SimLockTable,
    SimThreadPool,
)
from repro.sim.results import SimResults
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

    def __init__(self, sim: Simulation, config: WorkloadConfig,
                 results: SimResults, kind: str,
                 dispatcher: Optional[Dispatcher] = None):
        if kind not in TOPOLOGIES:
            raise ValueError(f"unknown server kind {kind!r}")
        self.sim = sim
        self.config = config
        self.results = results
        self.db = PSServer(sim, "database", cores=config.db_cores)
        self.web = PSServer(sim, "webserver", cores=config.web_cores)
        self.locks = SimLockTable(sim)
        #: Render demands were calibrated against the interpreting
        #: template engine; the knob models the compiled render path.
        self._render_scale = 1.0 / config.render_speedup
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
        self.fault_harness = SimFaultHarness(sim, sim_fault_plan(sim, ()))
        self._last_tick = 0.0
        #: name -> (pool, step); filled in by the topology builder.
        self.stages: Dict[str, Tuple[SimThreadPool, Callable]] = {}
        self.entry = ""
        #: Waiter priority on every pool (lowest first); FIFO is 0.
        self._priority: Callable[[_Request], float] = lambda request: 0.0
        self._sample_queues: Callable[[SimResults], None] = \
            self._sample_stage_queues
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
        self.connections = SimConnectionPool(self.sim,
                                             self.config.baseline_workers)
        self._add_stage("worker", self.config.baseline_workers, self._worker)
        self._sample_queues = self._sample_worker_queue

    def _build_sjf(self) -> None:
        self._build_thread_per_request()
        self._priority = self._estimated_size

    def _build_staged(self) -> None:
        """Paper Figure 5.  Connections are assigned only to dynamic-
        request threads (§1): the pool is sized to the two dynamic
        stages."""
        config = self.config
        if config.warm_start:
            for path, profile in DEFAULT_PROFILES.items():
                if profile.db_demand > 0:
                    self.policy.tracker.prime(path, profile.db_demand)
        self.connections = SimConnectionPool(
            self.sim, config.general_pool + config.lengthy_pool)
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
        self.fault_harness = SimFaultHarness(self.sim, plan, resilience)
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
        except SimRequestFailed:
            # The live side sent an error response (or nothing, for a
            # dropped client); either way no completion is recorded.
            return
        if not harness.on_client_write(request.page, last_stage):
            return
        self.results.record_request(self.sim.now, request.kind)
        if request.profile is not None:
            self.results.record_request(self.sim.now,
                                        _report_class(request.page))

    # ------------------------------------------------------------------
    # Steps: generators returning the next stage; falling off the end
    # (None) means the response is ready
    # ------------------------------------------------------------------
    def _worker(self, request: _Request, stage: str):
        """Thread-per-request: the same thread parses, queries, and
        renders; its connection is held (and mostly idle) throughout."""
        if request.profile is not None:
            return (yield from self._dynamic(request, stage, parse=True))
        # Even static serving occupies the worker's pinned connection —
        # the paper's complaint about the thread-per-request trend.
        lease = self.connections.lease(tag=stage)
        yield lease.granted
        try:
            yield self.web.serve(request.static_demand)
        finally:
            lease.release()

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
            yield self.web.serve(self._render_demand(profile,
                                                     request.jitter))

    def _dynamic(self, request: _Request, stage: str, parse: bool = False):
        """Data generation on a connection-holding thread: lease a
        connection, run the database phase, and feed the measured time
        to the classifier, exactly as the live server does when the
        unrendered template is enqueued (§3.3).  Without a render stage
        this thread renders too, its connection idle."""
        profile = request.profile
        render_here = "render" not in self.stages
        # The connection is held only while this thread works — the
        # paper's scheme, and the source of the busy-fraction gap.
        yield from self.fault_harness.lease_gate(stage, request.page)
        lease = self.connections.lease(tag=stage)
        yield lease.granted
        try:
            if parse:
                yield self.web.serve(profile.parse_demand)
            started = self.sim.now
            yield from self._db_phase(request, lease, stage)
            seconds = self.sim.now - started
            self.policy.record_generation_time(profile.path, seconds)
            self.results.record_generation(self.sim.now, profile.path,
                                           seconds)
            if render_here:
                yield from self._render(request, stage)
        finally:
            lease.release()
        return None if render_here else "render"

    def _render_demand(self, profile: PageProfile, jitter: float) -> float:
        return profile.render_demand * jitter * self._render_scale

    def _db_phase(self, request: _Request, lease, stage: str):
        """The data-generation phase: read holds, query, optional write
        grace period.  The calling thread (and its held database
        connection) is occupied for the entire phase; time actually
        spent serving queries accrues onto ``lease`` as busy time."""
        profile = request.profile
        tokens = [(table, self.locks.acquire_read(table))
                  for table in sorted(profile.read_tables)]
        try:
            if profile.db_demand > 0:
                yield from self._query(profile.db_demand, request, lease,
                                       stage)
        finally:
            for table, token in reversed(tokens):
                self.locks.release_read(table, token)
        if profile.write_table is not None:
            yield self.locks.acquire_write(profile.write_table)
            try:
                yield from self._query(profile.write_demand, request, lease,
                                       stage)
            finally:
                self.locks.release_write(profile.write_table)

    def _query(self, demand: float, request: _Request, lease, stage: str):
        """One statement behind the live engine's per-statement
        injection point (delay, transient-with-retry, hard failure)."""
        yield from self.fault_harness.db_query(stage, request.page)
        started = self.sim.now
        yield self.db.serve(demand * request.jitter)
        lease.note_busy(self.sim.now - started)

    # ------------------------------------------------------------------
    # 1 Hz sampling
    # ------------------------------------------------------------------
    def sample(self, results: SimResults) -> None:
        self._sample_queues(results)
        results.sample_db(self.sim.now, self.db.active_jobs)

    def _sample_worker_queue(self, results: SimResults) -> None:
        pool, _ = self.stages["worker"]
        # Figure 7 plots queued *dynamic* requests on the single queue.
        results.sample_queue(self.sim.now, "dynamic",
                             pool.queued_with_tag("dynamic"))
        results.sample_queue(self.sim.now, "all", pool.queue_length)

    def _sample_stage_queues(self, results: SimResults) -> None:
        now = self.sim.now
        tspare = self.stages["general"][0].spare
        # The once-per-second treserve update (§3.3) rides the sampler,
        # which runs at the same 1 Hz cadence as the real server's timer.
        if now - self._last_tick >= self.policy.config.reserve_update_interval - 1e-9:
            self.policy.tick(tspare)
            self._last_tick = now
        results.sample_reserve(now, tspare, self.policy.treserve)
        for name, (pool, _) in self.stages.items():
            results.sample_queue(now, name, pool.queue_length)


#: Server kind -> the builder that fills in its stage table.
TOPOLOGIES: Dict[str, Callable[[SimServer], None]] = {
    "baseline": SimServer._build_thread_per_request,
    "staged": SimServer._build_staged,
    "staged-render-inline": SimServer._build_staged_render_inline,
    "sjf": SimServer._build_sjf,
}
