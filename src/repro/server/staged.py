"""The modified server: five thread pools with staged scheduling.

Paper Figure 5: a single listener thread feeds Header Parsing; header
parsers classify each request from its request line and route it to
Static Requests, General Dynamic Requests, or Lengthy Dynamic Requests
(Table 1's rules against the live ``tspare``/``treserve``); dynamic
threads generate data with their pinned database connections and pass
``(template, data)`` results to Template Rendering, whose threads
render, set the exact Content-Length, and transmit.

The topology is pure configuration: :func:`staged_stages` declares
the :class:`repro.server.pipeline.Stage` list that :class:`StagedServer`
runs over the shared :class:`repro.server.pipeline.Pipeline` core,
which owns all submit/overload/503 plumbing, completion, and shutdown
ordering, and that the simulator walks with its own step generators.
Handlers here only do the paper's routing logic.  That is also what
makes the ablations configuration rather than code: pass
``render_inline=True`` for the no-render-pool variant (dynamic threads
render on their own connection-holding threads, paper §3.2's "why a
separate rendering stage" counterfactual), and pass a policy built
with :class:`repro.core.dispatch.AlwaysGeneralDispatcher` or
:class:`~repro.core.dispatch.StrictSeparationDispatcher` for the
Table 1 dispatch ablations.

Consequences implemented here, straight from §3.2–3.3:

- For *dynamic* requests the header-parsing thread parses everything —
  headers and query string into dictionaries — "because we do not want
  a thread with an open database connection to waste time doing
  anything other than generating data."  For *static* requests the
  serving thread parses its own headers.
- Data-generation time is measured "from when the request is acquired
  through when its unrendered template is placed in the template
  rendering queue" and fed back into the classifier.
- ``treserve`` updates once per second from the general pool's
  measured spare-thread count.
- Handlers that return a pre-rendered string are served directly by
  the dynamic thread (backward compatibility).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.classifier import RequestClass, page_key
from repro.core.dispatch import DynamicPoolChoice
from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.db.pool import ConnectionPool
from repro.faults.errors import CircuitOpenError
from repro.faults.plan import FaultPlan
from repro.faults.policies import ResilienceConfig
from repro.http.errors import HTTPError
from repro.http.response import HTTPResponse
from repro.server.app import Application
from repro.server.gateway import (
    UnrenderedPage,
    error_response,
    interpret_result,
    render_page,
)
from repro.server.netbase import DEFAULT_SOCKET_TIMEOUT, PeriodicTask
from repro.server.pipeline import (
    DONE,
    Complete,
    Fail,
    PipelineServer,
    RequestJob,
    RouteTo,
    Stage,
    StageOutcome,
)
from repro.server.pools import ThreadPool
from repro.server.resources import DatabaseResource, LeaseStrategy
from repro.server.static import serve_static
from repro.util.clock import Clock


def staged_stages(config: PolicyConfig, header: Callable, static: Callable,
                  dynamic: Callable, render: Callable,
                  render_inline: bool = False,
                  lease_strategy: LeaseStrategy = LeaseStrategy.PINNED,
                  ) -> List[Stage]:
    """Figure 5 as data: the staged topology's stage table.

    Pool sizes come from ``config``; the handlers are the per-role
    callables — the live server's bound methods, or the simulator's
    step generators, which walk the very same table.  The header stage
    is declared first, so it is the entry.  ``render_inline`` drops
    the Template Rendering stage (ablation A5); the dynamic handler is
    then the one that renders.

    Only the dynamic stages declare a claim on the database —
    "database connections are assigned only to dynamic-request
    threads" (§1) — and *how* they own it is ``lease_strategy``,
    provisioned by the pipeline's LeaseManager.
    """
    dynamic_db = DatabaseResource(strategy=lease_strategy)
    stages = [
        Stage("header", config.header_pool_size, header),
        Stage("static", config.static_pool_size, static),
        Stage("general", config.general_pool_size, dynamic,
              resources=dynamic_db),
        Stage("lengthy", config.lengthy_pool_size, dynamic,
              resources=dynamic_db),
    ]
    if not render_inline:
        stages.append(Stage("render", config.render_pool_size, render))
    return stages


class StagedServer(PipelineServer):
    """The paper's multiple-thread-pool web server.

    Parameters beyond the usual network knobs:

    policy:
        The full scheduling policy (classifier + reserve controller +
        dispatcher).  Dispatch ablations are a policy configuration:
        ``SchedulingPolicy(config, dispatcher=AlwaysGeneralDispatcher())``.
    render_inline:
        Topology ablation — drop the Template Rendering stage and
        render on the dynamic (connection-holding) threads, like the
        baseline does.  The stage graph simply has four stages instead
        of five; no other code changes.
    lease_strategy:
        How the dynamic stages own their database connections.
        :data:`LeaseStrategy.PINNED` (the default) is the paper's
        scheme — one connection per dynamic worker for its lifetime;
        ``LEASED_PER_REQUEST``/``LEASED_PER_QUERY`` are the
        conventional pooling alternatives the A7 ablation compares it
        against.  The strategy is pure declaration: it changes the
        ``resources=`` field on the dynamic stages, nothing else.
    """

    def __init__(self, app: Application, connection_pool: ConnectionPool,
                 host: str = "127.0.0.1", port: int = 0,
                 policy: Optional[SchedulingPolicy] = None,
                 clock: Optional[Clock] = None,
                 queue_sample_interval: float = 1.0,
                 max_queue: Optional[int] = None,
                 socket_timeout: float = DEFAULT_SOCKET_TIMEOUT,
                 idle_timeout: Optional[float] = None,
                 max_connections: Optional[int] = None,
                 render_inline: bool = False,
                 lease_strategy: LeaseStrategy = LeaseStrategy.PINNED,
                 faults: Optional[FaultPlan] = None,
                 resilience: Optional[ResilienceConfig] = None):
        if policy is None:
            # Default policy sized to the connection pool: dynamic
            # threads consume every connection, split 4:1 between the
            # general and lengthy pools per the paper (§3.3).
            lengthy = max(1, connection_pool.size // 5)
            general = max(1, connection_pool.size - lengthy)
            policy = SchedulingPolicy(PolicyConfig(
                general_pool_size=general,
                lengthy_pool_size=lengthy,
                minimum_reserve=max(1, general // 8),
                header_pool_size=2,
                static_pool_size=2,
                render_pool_size=2,
            ))
        self.policy = policy
        config = self.policy.config
        dynamic_threads = config.general_pool_size + config.lengthy_pool_size
        if (lease_strategy is LeaseStrategy.PINNED
                and dynamic_threads > connection_pool.size):
            # Only pinning consumes one connection per worker for life;
            # the leased strategies share the pool and may oversubscribe.
            raise ValueError(
                f"dynamic threads ({dynamic_threads}) exceed the connection "
                f"pool size ({connection_pool.size}); each dynamic thread "
                f"pins one connection"
            )
        self.render_inline = render_inline
        self.lease_strategy = lease_strategy
        super().__init__(
            app, connection_pool,
            staged_stages(config, self._parse_header, self._serve_static,
                          self._serve_dynamic, self._render,
                          render_inline=render_inline,
                          lease_strategy=lease_strategy),
            host=host, port=port, clock=clock,
            queue_sample_interval=queue_sample_interval,
            max_queue=max_queue, socket_timeout=socket_timeout,
            idle_timeout=idle_timeout, max_connections=max_connections,
            faults=faults, resilience=resilience,
        )
        self._reserve_ticker = PeriodicTask(
            config.reserve_update_interval, self._reserve_tick, name="reserve"
        )
        self._periodic_tasks.append(self._reserve_ticker)

    # ------------------------------------------------------------------
    # Convenience views onto the stage graph (tests, examples, and the
    # harness read pool gauges through these).
    # ------------------------------------------------------------------
    @property
    def header_pool(self) -> ThreadPool:
        return self.pipeline.pool("header")

    @property
    def static_pool(self) -> ThreadPool:
        return self.pipeline.pool("static")

    @property
    def general_pool(self) -> ThreadPool:
        return self.pipeline.pool("general")

    @property
    def lengthy_pool(self) -> ThreadPool:
        return self.pipeline.pool("lengthy")

    @property
    def render_pool(self) -> ThreadPool:
        return self.pipeline.pool("render")

    # ------------------------------------------------------------------
    def _reserve_tick(self) -> None:
        tspare = self.pipeline.pool("general").spare
        self.policy.tick(tspare)
        self.stats.sample_reserve(tspare, self.policy.treserve)

    # ------------------------------------------------------------------
    # Stage: header parsing + dispatch (Table 1)
    # ------------------------------------------------------------------
    def _parse_header(self, job: RequestJob) -> StageOutcome:
        client = job.client
        try:
            request_line = client.read_request_line()
        except HTTPError as exc:
            return Fail(exc.status, exc.message)
        if request_line is None:
            client.close()
            return DONE
        # The request line alone decides static vs. dynamic (§3.2).
        # maxsplit keeps multi/leading-space lines from mis-targeting;
        # the strict parser in finish_request stays authoritative.
        parts = request_line.split(maxsplit=2)
        if len(parts) != 3:
            return Fail(400, f"malformed request line: {request_line!r}")
        path = parts[1]

        if self.policy.classifier.is_static(path):
            # Static threads parse their own headers.
            job.page_key = page_key(path)
            job.request_class = RequestClass.STATIC
            return RouteTo("static")

        # Dynamic: this thread parses the rest of the header data and
        # the query string so connection-holding threads never do.
        try:
            job.request = client.finish_request()
        except HTTPError as exc:
            return Fail(exc.status, exc.message)
        job.page_key = page_key(job.request.path)
        job.request_class = self.policy.classify(job.request.path)
        choice = self.policy.dispatcher.choose_pool(
            job.request_class,
            tspare=self.pipeline.pool("general").spare,
            treserve=self.policy.treserve,
        )
        if choice is DynamicPoolChoice.GENERAL:
            return RouteTo("general")
        return RouteTo("lengthy")

    # ------------------------------------------------------------------
    # Stage: static requests
    # ------------------------------------------------------------------
    def _serve_static(self, job: RequestJob) -> StageOutcome:
        try:
            job.request = job.client.finish_request()
        except HTTPError as exc:
            return Fail(exc.status, exc.message)
        try:
            return Complete(serve_static(self.app, job.request))
        except Exception as exc:
            return Complete(error_response(exc))

    # ------------------------------------------------------------------
    # Stage: dynamic requests (data generation)
    # ------------------------------------------------------------------
    def _serve_dynamic(self, job: RequestJob) -> StageOutcome:
        assert job.request is not None
        generation_started = self.clock.now()
        try:
            result = self.app.invoke(job.request)
        except CircuitOpenError:
            # The pipeline owns this path: degraded serving or a
            # Retry-After 503, never a generic 500.
            raise
        except Exception as exc:
            return Complete(error_response(exc))
        outcome = interpret_result(result)
        # Measure up to the moment the unrendered template would be
        # placed in the rendering queue (§3.3) and feed it back.
        generation_seconds = self.clock.now() - generation_started
        self.policy.record_generation_time(job.page_key, generation_seconds)
        self.stats.record_generation_time(job.page_key, generation_seconds)
        if isinstance(outcome, UnrenderedPage):
            job.unrendered = outcome
            if self.render_inline:
                # Topology ablation: no render stage — this connection-
                # holding thread renders, exactly what §3.2 argues
                # against.  Measured, not asserted.
                return Complete(render_page(self.app, outcome))
            return RouteTo("render")
        # Backward compatibility: a pre-rendered string is sent by
        # this thread directly (§3.2).
        return Complete(HTTPResponse.html(outcome))

    # ------------------------------------------------------------------
    # Stage: template rendering
    # ------------------------------------------------------------------
    def _render(self, job: RequestJob) -> StageOutcome:
        assert job.unrendered is not None
        try:
            return Complete(render_page(self.app, job.unrendered))
        except CircuitOpenError:
            raise
        except Exception as exc:
            return Complete(error_response(exc))
