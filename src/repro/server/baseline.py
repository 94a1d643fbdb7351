"""The unmodified server: thread-per-request with pinned connections.

Paper Figure 4: "an incoming request is first accepted by the single
listener thread.  Then, the request will be dispatched to a separate
thread in the thread pool, which processes the entire request and
returns a result to the client."  Each worker owns one database
connection for its whole lifetime — the trend the paper documents
(§1) — so the worker count equals the connection count, and a
connection sits idle whenever its thread parses headers, serves static
files, or renders templates.

Architecturally this is now just the degenerate stage graph: one
:class:`repro.server.pipeline.Stage` carrying a request start to
finish over the same :class:`~repro.server.pipeline.Pipeline` core the
staged server uses, so both servers share every line of submit,
overload/503, completion, and shutdown plumbing — the comparison in
the paper's experiments measures the *topology*, nothing else.
"""

from __future__ import annotations

from typing import Optional

from repro.core.classifier import RequestClass, page_key
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
from repro.server.netbase import DEFAULT_SOCKET_TIMEOUT
from repro.server.pipeline import (
    DONE,
    Complete,
    Fail,
    PipelineServer,
    RequestJob,
    Stage,
    StageOutcome,
)
from repro.server.pools import ThreadPool
from repro.server.resources import DatabaseResource, LeaseStrategy
from repro.server.static import serve_static
from repro.util.clock import Clock


class BaselineServer(PipelineServer):
    """Conventional thread-per-request CherryPy-style server.

    Parameters
    ----------
    app:
        The web application (routes, templates, statics).
    connection_pool:
        Bounded pool of database connections; each worker pins one at
        startup, so ``workers`` may not exceed the pool size.
    workers:
        Worker thread count; defaults to the connection pool size (the
        paper: "the number of threads cannot exceed the number of
        connections").
    lease_strategy:
        How workers own their database connection.
        :data:`LeaseStrategy.PINNED` (the default) is the documented
        trend the paper baselines against — every worker pins one
        connection for life, so it idles through parsing, statics, and
        rendering; the leased strategies are the conventional pooling
        alternatives measured by ablation A7.
    """

    def __init__(self, app: Application, connection_pool: ConnectionPool,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 clock: Optional[Clock] = None,
                 queue_sample_interval: float = 1.0,
                 max_queue: Optional[int] = None,
                 socket_timeout: float = DEFAULT_SOCKET_TIMEOUT,
                 idle_timeout: Optional[float] = None,
                 max_connections: Optional[int] = None,
                 lease_strategy: LeaseStrategy = LeaseStrategy.PINNED,
                 faults: Optional[FaultPlan] = None,
                 resilience: Optional[ResilienceConfig] = None):
        if workers is None:
            workers = connection_pool.size
        if (lease_strategy is LeaseStrategy.PINNED
                and workers > connection_pool.size):
            # Pinning is what couples worker count to connection count;
            # leased strategies share the pool and may run more workers.
            raise ValueError(
                f"thread-per-request workers ({workers}) cannot exceed the "
                f"connection pool size ({connection_pool.size}): each worker "
                f"pins one connection"
            )
        self.lease_strategy = lease_strategy
        stages = [
            Stage("worker", workers, self._serve_client,
                  resources=DatabaseResource(strategy=lease_strategy)),
        ]
        super().__init__(
            app, connection_pool, stages, entry="worker",
            host=host, port=port, clock=clock,
            queue_sample_interval=queue_sample_interval,
            max_queue=max_queue, socket_timeout=socket_timeout,
            idle_timeout=idle_timeout, max_connections=max_connections,
            faults=faults, resilience=resilience,
        )

    @property
    def worker_pool(self) -> ThreadPool:
        return self.pipeline.pool("worker")

    # ------------------------------------------------------------------
    def _serve_client(self, job: RequestJob) -> StageOutcome:
        """Process one ready request start to finish, then re-park.

        Still the paper's thread-per-request model — parsing, data
        generation, and rendering all happen on this one thread — but
        the *idle* time between keep-alive requests is spent in the
        reactor's selector, not blocking here.
        """
        client = job.client
        try:
            request = client.read_request()
        except HTTPError as exc:
            # 400 for malformed, 408 for stalled, 413 for oversized.
            return Fail(exc.status, exc.message)
        if request is None:
            client.close()
            return DONE
        job.request = request
        job.page_key = page_key(request.path)
        if self.faults is not None:
            # The pipeline pushed the fault context before the request
            # was read; page-filtered rules need the page from here on.
            self.faults.set_context_page(job.page_key)
        if self.app.has_static(request.path):
            job.request_class = RequestClass.STATIC
            try:
                return Complete(serve_static(self.app, request))
            except Exception as exc:
                return Complete(error_response(exc))
        # The baseline never refines quick vs. lengthy — it has no
        # classifier — so dynamic completions record under the
        # classifier's optimistic default class.
        job.request_class = RequestClass.QUICK_DYNAMIC
        try:
            generation_started = self.clock.now()
            result = self.app.invoke(request)
            outcome = interpret_result(result)
            self.stats.record_generation_time(
                job.page_key, self.clock.now() - generation_started
            )
            if isinstance(outcome, UnrenderedPage):
                # Baseline renders inline, on the same thread that holds
                # the database connection.
                return Complete(render_page(self.app, outcome))
            return Complete(HTTPResponse.html(outcome))
        except CircuitOpenError:
            # Breaker fast-fails belong to the pipeline (degraded
            # serving or a Retry-After 503), not the generic 500 path.
            raise
        except Exception as exc:
            return Complete(error_response(exc))
