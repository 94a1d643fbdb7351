"""Declarative stage graphs: one request lifecycle for every server.

The paper's contribution is a *topology* — five pools wired listener →
header → {static, general, lengthy} → render (Figure 5, Table 1) — and
SEDA-style staged architectures get their power from stages being
declarative and recomposable: the split between stages should be a
configuration, not code baked into a server class.  This module is
that configuration layer.

A :class:`Stage` declares what one pool *is*: its name, thread count,
bounded-queue depth, optional worker init/cleanup hooks (the staged
server pins database connections this way), and a handler.  Handlers
are pure routing logic: they take the travelling :class:`RequestJob`
and return an outcome —

- :class:`RouteTo` — hand the job to another stage's queue;
- :class:`Complete` — transmit a response, record the completion, and
  park (keep-alive) or close the connection;
- :class:`Fail` — transmit an error response and close;
- :data:`DONE` — the handler already disposed of the connection
  (e.g. the peer hung up before sending a request line).

A :class:`Pipeline` owns everything the servers used to copy-paste:
the pools, the submit/overload plumbing (an internal hop whose bounded
queue is full becomes a 503, a hop into a shut-down pool closes the
socket), graceful shutdown in declaration order, and uniform per-stage
queue sampling.  An exception escaping a handler becomes a
:func:`repro.server.gateway.error_response` completion, so one bad
request never kills a worker or leaks a connection.

Every hop is timed.  The :class:`RequestLifecycle` threaded through a
job records, per stage, how long the job sat in the queue and how long
the handler ran, and feeds both into
:meth:`repro.server.stats.ServerStats.record_stage_timing` — the queue
story of the paper's Figures 7–8, measurable per request: where did
this request's latency go, header or general or render?

:class:`PipelineServer` is the network scaffolding shared by
:class:`repro.server.staged.StagedServer` and
:class:`repro.server.baseline.BaselineServer`: listener, connection
reactor, queue sampler, start/stop ordering.  A concrete server is
nothing but a list of stages plus the policy objects its handlers
consult — which is what makes ablations (no render pool, alternate
dispatchers) a constructor argument instead of a bespoke subclass.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.classifier import RequestClass
from repro.db.pool import ConnectionPool
from repro.faults.errors import CircuitOpenError, DeadlineExpired, WorkerCrash
from repro.faults.plan import FaultPlan, drive
from repro.faults.policies import CircuitBreaker, ResilienceConfig, admit_hop
from repro.http.request import HTTPRequest
from repro.http.response import HTTPResponse
from repro.server.app import Application
from repro.server.gateway import UnrenderedPage, error_response, head_strip
from repro.server.netbase import (
    DEFAULT_SOCKET_TIMEOUT,
    ClientConnection,
    Listener,
    PeriodicTask,
)
from repro.server.pools import PoolOverloadedError, ThreadPool
from repro.server.reactor import ConnectionReactor
from repro.server.resources import DatabaseResource, LeaseManager
from repro.server.stats import ServerStats
from repro.util.clock import Clock, MonotonicClock


# ----------------------------------------------------------------------
# Stage outcomes
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RouteTo:
    """Hand the job to another stage's queue."""

    stage: str


@dataclasses.dataclass(frozen=True)
class Complete:
    """Transmit ``response`` and finish the request lifecycle."""

    response: HTTPResponse

    @property
    def status(self) -> int:
        return self.response.status


@dataclasses.dataclass(frozen=True)
class Fail:
    """Transmit an error response and close the connection."""

    status: int
    message: str = ""
    #: Extra response headers (e.g. ``Retry-After`` on a breaker 503).
    headers: Optional[Dict[str, str]] = None


class _Done:
    """Sentinel: the handler already disposed of the connection."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DONE"


#: Returned by a handler that closed (or re-parked) the client itself.
DONE = _Done()

StageOutcome = Union[RouteTo, Complete, Fail, _Done]


def failure_outcome(exc: Exception) -> Union[Complete, Fail]:
    """The response a hop sends for a failure, on both executors.

    An injected worker crash is a 500 and an expired deadline a 504,
    both closing the connection; an open breaker is a 503 with
    ``Retry-After``; anything else a handler raises (a pool timeout, a
    database or render failure, a plain bug) is the
    :func:`error_response` completion, so one bad request never kills
    a worker or leaks a connection.
    """
    if isinstance(exc, WorkerCrash):
        return Fail(500, "worker crashed")
    if isinstance(exc, DeadlineExpired):
        return Fail(504, "request deadline expired")
    if isinstance(exc, CircuitOpenError):
        retry_after = max(1, int(math.ceil(exc.retry_after)))
        return Fail(503, "database circuit breaker open",
                    headers={"Retry-After": str(retry_after)})
    return Complete(error_response(exc))


# ----------------------------------------------------------------------
# Lifecycle record
# ----------------------------------------------------------------------
@dataclasses.dataclass
class StageTiming:
    """One hop: how long the job queued and how long the handler ran."""

    stage: str
    queue_wait: float
    service: float


class RequestLifecycle:
    """The per-request latency ledger threaded through every hop.

    ``arrival`` is the moment the reactor dispatched the connection
    into the pipeline, so the response time recorded at completion
    includes entry-queue wait — a request that sat five seconds in the
    header queue really did take five seconds longer, whether or not a
    thread had picked it up yet.
    """

    __slots__ = ("arrival", "hops", "_enqueued_at")

    def __init__(self, arrival: float):
        self.arrival = arrival
        self.hops: List[StageTiming] = []
        self._enqueued_at = arrival

    def mark_enqueued(self, now: float) -> None:
        """The job just entered some stage's queue."""
        self._enqueued_at = now

    def begin_service(self, now: float) -> float:
        """A worker picked the job up; returns the queue wait."""
        return now - self._enqueued_at

    def record_hop(self, stage: str, queue_wait: float,
                   service: float) -> StageTiming:
        timing = StageTiming(stage, queue_wait, service)
        self.hops.append(timing)
        return timing

    def total_queue_wait(self) -> float:
        return sum(hop.queue_wait for hop in self.hops)

    def total_service(self) -> float:
        return sum(hop.service for hop in self.hops)


@dataclasses.dataclass
class RequestJob:
    """A request travelling through the stage graph."""

    client: ClientConnection
    lifecycle: RequestLifecycle
    request: Optional[HTTPRequest] = None
    page_key: str = ""
    request_class: RequestClass = RequestClass.QUICK_DYNAMIC
    unrendered: Optional[UnrenderedPage] = None
    #: Name of the stage that currently owns this job — the ownership
    #: token a pool's error handler checks before disposing of the
    #: connection, so a worker crash *after* routing never touches a
    #: job that already lives downstream.
    stage: str = ""
    #: Set by the first terminal path (complete/fail/DONE); later
    #: completions are recorded as late and suppressed instead of
    #: double-counting stats or parking a dead socket.
    finished: bool = False

    @property
    def arrival(self) -> float:
        return self.lifecycle.arrival


# ----------------------------------------------------------------------
# Stage declaration
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Stage:
    """Everything one pool *is*, declared as data.

    ``handler(job) -> StageOutcome`` runs on this stage's workers; the
    stage's queue takes the pipeline-wide ``max_queue`` bound.
    """

    name: str
    size: int
    handler: Callable[[RequestJob], StageOutcome]
    #: Declared resource needs.  ``DatabaseResource(...)`` means this
    #: stage's workers touch the database; the pipeline provisions the
    #: connection leases (pinned, per-request, or per-query) as the
    #: workers' init/cleanup hooks — servers declare, they do not bind.
    resources: Optional[DatabaseResource] = None


class Pipeline:
    """A running stage graph: pools, routing, timing, backpressure.

    Parameters
    ----------
    stages:
        Stage declarations.  The first declared stage is the entry: it
        receives freshly dispatched connections.  Pools shut down in
        declaration order, upstream first, so draining stages can still
        route downstream.
    stats:
        Sink for per-stage queue samples, hop timings, completions.
    clock:
        Time source shared with the owning server.
    on_park:
        Called with a keep-alive connection after a completed response;
        expected to return it to the reactor.
    max_queue:
        Bounded-queue depth for every stage.  ``None`` = unbounded.
    leases:
        The :class:`LeaseManager` that provisions declared
        ``Stage.resources``.  Required when any stage declares a
        :class:`DatabaseResource`; stages without resources never
        touch it.
    """

    def __init__(self, stages: Sequence[Stage],
                 stats: ServerStats, clock: Clock,
                 on_park: Callable[[ClientConnection], None],
                 max_queue: Optional[int] = None,
                 leases: Optional[LeaseManager] = None,
                 faults: Optional[FaultPlan] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 on_degraded: Optional[
                     Callable[["RequestJob"], Optional[HTTPResponse]]] = None,
                 stale_store: Optional[
                     Callable[["RequestJob", HTTPResponse], None]] = None):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages = list(stages)
        self.entry = names[0]
        self.stats = stats
        self.clock = clock
        self.leases = leases
        self._on_park = on_park
        #: Fault-injection plan: each hop runs inside its request
        #: context and consults the ``worker`` site before service.
        self._faults = faults
        #: Deadlines and degraded-serving policy; retry/breaker live in
        #: the LeaseManager.
        self._resilience = resilience
        #: Returns a stale-cache response for a breaker-open job, or
        #: ``None`` to fall through to the fast-fail 503.
        self._on_degraded = on_degraded
        #: Called with each successful dynamic completion so degraded
        #: serving has a last-known-good copy to fall back on.
        self._stale_store = stale_store
        self._accepting = True
        self._pools: Dict[str, ThreadPool] = {}
        self._executors: Dict[str, Callable[[RequestJob], None]] = {}
        for stage in self.stages:
            init = cleanup = None
            if stage.resources is not None:
                if leases is None:
                    raise ValueError(
                        f"stage {stage.name!r} declares resources but the "
                        f"pipeline has no LeaseManager"
                    )
                init, cleanup = leases.worker_hooks(stage.name,
                                                    stage.resources)
            self._pools[stage.name] = ThreadPool(
                stage.name,
                stage.size,
                worker_init=init,
                worker_cleanup=cleanup,
                max_queue=max_queue,
                error_handler=functools.partial(
                    self._on_worker_error, stage.name
                ),
            )
            self._executors[stage.name] = functools.partial(
                self._execute, stage
            )

    # ------------------------------------------------------------------
    def pool(self, name: str) -> ThreadPool:
        """The live thread pool behind a stage (for spare/queue reads)."""
        return self._pools[name]

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    # ------------------------------------------------------------------
    # Entry and internal routing
    # ------------------------------------------------------------------
    def dispatch(self, client: ClientConnection) -> None:
        """Admit a ready connection at the entry stage.

        Overload (:class:`PoolOverloadedError`) and shutdown
        (``RuntimeError``) propagate to the caller: the reactor is the
        entry point's error handler, shedding with a 503 or closing
        quietly — the one place the pipeline does *not* own the 503.
        """
        now = self.clock.now()
        job = RequestJob(client=client, lifecycle=RequestLifecycle(now),
                         stage=self.entry)
        self._pools[self.entry].submit(self._executors[self.entry], job)

    def submit(self, name: str, job: RequestJob) -> None:
        """Route a job to stage ``name``, absorbing overload/shutdown.

        Mid-pipeline the pipeline itself owns the failure paths: a full
        bounded queue becomes a 503 to the client, a shut-down pool a
        quiet close.  This is the single submit site the rest of the
        server tree is forbidden to bypass (CI greps for stray
        ``.submit(`` calls).
        """
        pool = self._pools.get(name)
        if pool is None:
            # A topology bug (routing to a stage this graph doesn't
            # have, e.g. "render" under render_inline) must not leak
            # the connection.
            self.fail(job, 500, f"no such stage: {name!r}")
            return
        # Ownership moves to the destination stage *before* the
        # enqueue: if the submitting worker crashes after this point,
        # its error handler sees a job it no longer owns and leaves
        # the downstream stage to finish it.
        job.stage = name
        job.lifecycle.mark_enqueued(self.clock.now())
        try:
            pool.submit(self._executors[name], job)
        except PoolOverloadedError:
            self.fail(job, 503)
        except RuntimeError:
            # Pool shut down mid-flight; nothing useful to send.
            job.client.close()

    # ------------------------------------------------------------------
    # The one worker-side wrapper: timing + outcome interpretation
    # ------------------------------------------------------------------
    def _execute(self, stage: Stage, job: RequestJob) -> None:
        faults = self._faults
        token = None
        refused: Optional[Exception] = None
        try:
            if faults is not None:
                # The whole hop runs in its request context, so every
                # site it reaches sees one (page, stage): the worker
                # site, the socket read, the lease and the queries, and
                # the write of the response the hop produces.
                token = faults.push_context(job.page_key or None,
                                            stage.name)
            if faults is not None or self._resilience is not None:
                # Worker site, then deadline, before the clock is read:
                # a hang ages the request toward its deadline.
                try:
                    drive(admit_hop(self.stats, stage.name, job.arrival,
                                    self.clock, faults, self._resilience),
                          faults.sleep if faults is not None else time.sleep)
                except (WorkerCrash, DeadlineExpired) as exc:
                    refused = exc
            started = self.clock.now()
            queue_wait = job.lifecycle.begin_service(started)
            if refused is not None:
                outcome = failure_outcome(refused)
            else:
                try:
                    scope = None
                    if stage.resources is not None and self.leases is not None:
                        # Per-request leasing provisions here (pinned
                        # and per-query strategies provisioned in
                        # worker hooks and return scope=None).
                        scope = self.leases.request_scope(
                            stage.name, stage.resources
                        )
                    if scope is not None:
                        with scope:
                            outcome = stage.handler(job)
                    else:
                        outcome = stage.handler(job)
                except CircuitOpenError as exc:
                    outcome = self._breaker_outcome(stage, job, exc)
                except Exception as exc:
                    outcome = failure_outcome(exc)
            service = self.clock.now() - started
            job.lifecycle.record_hop(stage.name, queue_wait, service)
            self.stats.record_stage_timing(stage.name, queue_wait, service)
            if isinstance(outcome, RouteTo):
                self.submit(outcome.stage, job)
            elif isinstance(outcome, Complete):
                self.complete(job, outcome.response)
            elif isinstance(outcome, Fail):
                self.fail(job, outcome.status, outcome.message,
                          outcome.headers)
            elif outcome is DONE:
                # The handler disposed of the connection itself; mark
                # the job so a late worker crash cannot resurrect it.
                job.finished = True
            else:
                self.complete(job, error_response(TypeError(
                    f"stage {stage.name!r} returned {outcome!r}, "
                    f"not a StageOutcome"
                )))
        finally:
            if token is not None:
                faults.pop_context(token)

    def _breaker_outcome(self, stage: Stage, job: RequestJob,
                         exc: CircuitOpenError) -> StageOutcome:
        """Map an open breaker to degraded serving or a fast-fail 503."""
        if self._on_degraded is not None:
            degraded = self._on_degraded(job)
            if degraded is not None:
                self.stats.record_resilience(stage.name, "degraded_served")
                return Complete(degraded)
        return failure_outcome(exc)

    # ------------------------------------------------------------------
    # Crash containment
    # ------------------------------------------------------------------
    def _on_worker_error(self, stage_name: str, exc: BaseException,
                         item) -> None:
        """A worker crashed outside its stage handler.

        Fail the client *only* when this stage still owns the job: a
        crash after the job was routed (or completed) must not touch a
        connection that now belongs downstream — closing it here was
        the latent double-close path.
        """
        self.stats.record_resilience(stage_name, "worker_crashes")
        if not isinstance(item, RequestJob):
            return
        if item.finished or item.stage != stage_name:
            self.stats.record_resilience(stage_name, "late_completions")
            return
        self.fail(item, 500, "worker crashed")

    # ------------------------------------------------------------------
    # Terminal paths (shared by every stage)
    # ------------------------------------------------------------------
    def complete(self, job: RequestJob, response: HTTPResponse) -> None:
        """Transmit, record the completion, then park or close.

        Idempotent per job: the second completion of a job (a handler
        that completed and then crashed, a worker crash racing the
        routed response) is counted as late and suppressed — it must
        not double-record the completion or re-park a socket that was
        already parked or closed.
        """
        if job.finished:
            self.stats.record_resilience(job.stage, "late_completions")
            return
        job.finished = True
        response = head_strip(job.request, response)
        keep_alive = (job.request.keep_alive
                      if job.request is not None else False)
        sent = job.client.send_response(response, keep_alive=keep_alive)
        if sent and not 200 <= response.status < 400:
            # e.g. the 500 a raising handler becomes: sent, but an error.
            self.stats.record_error(job.page_key or "?", response.status)
        elif sent:
            # A 0-byte send means the peer was already gone; counting
            # it as a completion would inflate throughput.
            self.stats.record_completion(
                job.page_key or "?",
                job.request_class,
                self.clock.now() - job.arrival,
            )
            if (self._stale_store is not None and response.status == 200
                    and job.request_class is not RequestClass.STATIC
                    and job.page_key):
                self._stale_store(job, response)
        if keep_alive and not job.client.closed and self._accepting:
            # Back to the reactor, not a pool: the connection may stay
            # idle for seconds and must not block a thread.
            self._on_park(job.client)
        elif job.request is None:
            # Completed without ever parsing a request — e.g. a lease
            # failure before the handler could read.  Unread request
            # bytes may still sit in the receive buffer, where a bare
            # close would RST and discard the response in flight.
            job.client.close_after_error()
        else:
            job.client.close()

    def fail(self, job: RequestJob, status: int, message: str = "",
             headers: Optional[Dict[str, str]] = None) -> None:
        """Transmit an error response and close the connection."""
        if job.finished:
            self.stats.record_resilience(job.stage, "late_completions")
            return
        job.finished = True
        response = HTTPResponse.error(status, message)
        if headers:
            response.headers.update(headers)
        if job.client.send_response(response, keep_alive=False):
            self.stats.record_error(job.page_key or "?", status)
        job.client.close_after_error()

    # ------------------------------------------------------------------
    # Observability and shutdown
    # ------------------------------------------------------------------
    def sample_queues(self) -> None:
        """One uniform queue-length sample per stage (Figures 7–8)."""
        for stage in self.stages:
            pool = self._pools[stage.name]
            self.stats.sample_queue(pool.name, pool.queue_length)

    def stop_accepting(self) -> None:
        """Completed keep-alive connections close instead of re-parking."""
        self._accepting = False

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Drain and stop every pool, in declaration order.

        Upstream stages shut down first so a draining downstream stage
        never receives work from a pool that outlived it; a job caught
        routing into an already-stopped pool gets a clean close via
        :meth:`submit`'s ``RuntimeError`` path.
        """
        self.stop_accepting()
        for stage in self.stages:
            self._pools[stage.name].shutdown(wait=wait, timeout=timeout)


# ----------------------------------------------------------------------
# Shared server scaffolding
# ----------------------------------------------------------------------
class PipelineServer:
    """Network scaffolding around a :class:`Pipeline`.

    Owns the pieces every server topology needs and that used to be
    duplicated between the staged and baseline servers: the accepting
    :class:`Listener`, the :class:`ConnectionReactor` parking idle
    keep-alive sockets, the periodic queue sampler, the
    :class:`LeaseManager` that provisions declared stage resources,
    and the start/stop ordering (listener first in, pools last out).

    Subclasses assemble their stage list (bound-method handlers are
    fine — ``worker_init`` runs after this constructor has assigned
    ``app``/``connection_pool``, and handlers only run once traffic
    arrives) and pass it here; they add extra periodic tasks by
    appending to ``self._periodic_tasks`` before :meth:`start`.
    """

    def __init__(self, app: Application, connection_pool: ConnectionPool,
                 stages: Sequence[Stage],
                 host: str = "127.0.0.1", port: int = 0,
                 clock: Optional[Clock] = None,
                 queue_sample_interval: float = 1.0,
                 max_queue: Optional[int] = None,
                 socket_timeout: float = DEFAULT_SOCKET_TIMEOUT,
                 idle_timeout: Optional[float] = None,
                 max_connections: Optional[int] = None,
                 faults: Optional[FaultPlan] = None,
                 resilience: Optional[ResilienceConfig] = None):
        self.app = app
        self.connection_pool = connection_pool
        self.clock = clock if clock is not None else MonotonicClock()
        self.stats = ServerStats(self.clock)
        self.faults = faults
        self.resilience = resilience
        if faults is not None:
            # Thread the one plan through every layer it can break.
            if faults.on_inject is None:
                faults.on_inject = self.stats.record_fault
            connection_pool.faults = faults
            connection_pool.database.faults = faults
            app.templates.faults = faults
        self.breaker: Optional[CircuitBreaker] = None
        if resilience is not None and resilience.breaker is not None:
            self.breaker = CircuitBreaker(
                resilience.breaker, clock=self.clock,
                on_transition=self.stats.record_breaker_transition,
            )
        # Backoff sleeps route through the plan's sleeper when a plan
        # is present, so chaos tests can advance a ManualClock instead
        # of wall time.
        sleeper = faults.sleep if faults is not None else time.sleep
        # One lease manager per server: every stage that declares
        # DatabaseResource gets its connections provisioned (and its
        # held/busy time metered) through this object — no subclass
        # binds connections by hand.
        self.leases = LeaseManager(
            connection_pool, binder=app, stats=self.stats, clock=self.clock,
            breaker=self.breaker,
            retry=resilience.retry if resilience is not None else None,
            retry_seed=resilience.seed if resilience is not None else 0,
            sleeper=sleeper,
        )
        degraded = (resilience is not None and resilience.degraded_serving)
        # Pools start their threads (and run worker_init) inside the
        # Pipeline constructor — app/connection_pool must already be
        # set, which is why they are assigned first.
        self.pipeline = Pipeline(
            stages,
            stats=self.stats,
            clock=self.clock,
            on_park=self._park,
            max_queue=max_queue,
            leases=self.leases,
            faults=faults,
            resilience=resilience,
            on_degraded=self._degraded_response if degraded else None,
            stale_store=self._store_stale if degraded else None,
        )
        self.reactor = ConnectionReactor(
            self.pipeline.dispatch,
            idle_timeout=idle_timeout if idle_timeout is not None
            else socket_timeout,
            max_connections=max_connections,
        )
        self.stats.reactor_gauges = self.reactor.gauges
        self._listener = Listener(host, port, self._on_accept,
                                  socket_timeout=socket_timeout,
                                  faults=faults)
        self._sampler = PeriodicTask(
            queue_sample_interval, self.pipeline.sample_queues,
            name="queue-sampler",
        )
        self._periodic_tasks: List[PeriodicTask] = [self._sampler]
        self._running = False

    # ------------------------------------------------------------------
    @property
    def address(self):
        return self._listener.address

    def start(self) -> "PipelineServer":
        self.reactor.start()
        self._listener.start()
        for task in self._periodic_tasks:
            task.start()
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self.pipeline.stop_accepting()
        self._listener.stop()
        self.reactor.stop()
        for task in self._periodic_tasks:
            task.stop()
        self.pipeline.shutdown()

    def __enter__(self) -> "PipelineServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _on_accept(self, client: ClientConnection) -> None:
        # Park even fresh connections: a client that connects and says
        # nothing must never occupy a worker thread.
        self.reactor.park(client)

    def _park(self, client: ClientConnection) -> None:
        """Pipeline completion hook: keep-alive sockets re-park."""
        self.reactor.park(client)

    def sampler_errors(self) -> int:
        """Exceptions swallowed (but counted) by the periodic tasks."""
        return sum(task.errors for task in self._periodic_tasks)

    # ------------------------------------------------------------------
    # Degraded serving: stale fragment-cache fallback (breaker open)
    # ------------------------------------------------------------------
    def _store_stale(self, job: RequestJob, response: HTTPResponse) -> None:
        """Keep a last-known-good copy of each dynamic page.

        Stored under a reserved ``("#stale", page)`` key so it never
        collides with the template engine's own fragment entries.
        """
        cache = self.app.templates.fragment_cache
        if cache is None:
            return
        cache.put(("#stale", job.page_key),
                  response.body.decode("utf-8", "replace"))

    def _degraded_response(self, job: RequestJob) -> Optional[HTTPResponse]:
        """Serve the stale copy while the breaker is open, if we have one.

        ``get_stale`` deliberately returns expired entries: a stale page
        beats a 503 for read-mostly traffic (paper §2's whole premise is
        that most dynamic content tolerates bounded staleness).
        """
        cache = self.app.templates.fragment_cache
        if cache is None or not job.page_key:
            return None
        body = cache.get_stale(("#stale", job.page_key))
        if body is None:
            return None
        response = HTTPResponse.html(body)
        response.headers["X-Degraded"] = "stale-cache"
        return response

