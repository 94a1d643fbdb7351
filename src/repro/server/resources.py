"""First-class database-connection leases for the stage pipeline.

The paper's whole argument is about *who holds a database connection
and for how long*: "database connections are assigned only to
dynamic-request threads" (§1, §3.2), so a connection never sits idle
while a thread parses headers, serves statics, or renders templates.
This module makes that ownership decision a declared, measured policy
instead of per-server binding code:

- :class:`DatabaseResource` — the declaration a
  :class:`repro.server.pipeline.Stage` carries in its ``resources=``
  field: *this stage's workers need the database*, under one of three
  strategies.
- :class:`LeaseStrategy.PINNED` — one pooled connection per worker for
  the worker's whole life (the paper's scheme; also what the baseline
  thread-per-request server does, which is exactly why its connections
  idle through parse and render).
- :class:`LeaseStrategy.LEASED_PER_REQUEST` — acquire at the start of
  each request's handler, release at the end: the conventional
  "connection per request" pooling the paper implicitly compares
  against.
- :class:`LeaseStrategy.LEASED_PER_QUERY` — acquire around each
  statement: classic per-statement pooling, maximum sharing, maximum
  per-query overhead.

The :class:`LeaseManager` owns every checkout: it wraps the raw
:class:`~repro.db.pool.ConnectionPool` acquire/release pair (the only
sanctioned caller outside the pool itself — ``tools/lint.py``
enforces this in CI), binds connections into
the application's thread-local ``getconn()`` context, and records each
lease's acquire wait, held time, and query-busy time into
:class:`~repro.server.stats.ServerStats` per stage — the one
connection ledger, and how the *connection busy fraction*, the
mechanism behind the paper's Tables 3–4, becomes an exported number
per stage and per strategy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import threading
import time
from typing import Callable, Iterator, Optional, Tuple

from repro.db.connection import Connection, Cursor
from repro.db.errors import ProgrammingError
from repro.faults.plan import drive
from repro.faults.policies import CircuitBreaker, RetryPolicy
from repro.util.clock import Clock, MonotonicClock
from repro.util.rng import RandomStream


class LeaseStrategy(enum.Enum):
    """Who owns a pooled connection, and for how long."""

    #: One connection per worker thread for the thread's lifetime —
    #: the paper's scheme for dynamic stages (§1): zero per-request
    #: acquire cost, but the connection idles whenever its thread does
    #: anything besides querying.
    PINNED = "pinned"
    #: Acquire when a request's handler starts on the stage, release
    #: when it finishes — conventional request-scoped pooling.
    LEASED_PER_REQUEST = "per-request"
    #: Acquire around each statement (and around each explicit
    #: transaction) — conventional statement-scoped pooling.
    LEASED_PER_QUERY = "per-query"


@dataclasses.dataclass(frozen=True)
class DatabaseResource:
    """A stage's declared claim on the database connection pool.

    Attached to a :class:`~repro.server.pipeline.Stage` via its
    ``resources=`` field; the :class:`~repro.server.pipeline.Pipeline`
    provisions the leases as its workers' init/cleanup hooks (or per
    request / per query), so no server class binds connections by
    hand.
    """

    strategy: LeaseStrategy = LeaseStrategy.PINNED
    #: Passed to ``ConnectionPool.acquire``; ``None`` blocks forever.
    acquire_timeout: Optional[float] = None


class Lease:
    """One live checkout of a pooled connection, with its ledger."""

    __slots__ = ("connection", "stage", "strategy", "wait_seconds",
                 "granted_at", "_busy_at_grant", "_released")

    def __init__(self, connection: Connection, stage: str,
                 strategy: LeaseStrategy, wait_seconds: float,
                 granted_at: float):
        self.connection = connection
        self.stage = stage
        self.strategy = strategy
        self.wait_seconds = wait_seconds
        self.granted_at = granted_at
        self._busy_at_grant = connection.busy_seconds
        self._released = False

    def busy_delta(self) -> float:
        """Statement-execution seconds accrued under this lease."""
        return self.connection.busy_seconds - self._busy_at_grant


class LeaseManager:
    """The single owner of connection checkouts for one server.

    Parameters
    ----------
    pool:
        The bounded :class:`ConnectionPool` being leased from.
    binder:
        The application (anything with ``bind_connection``); leases are
        bound into its per-thread ``getconn()`` context so handlers
        keep the paper's ``getconn()`` idiom regardless of strategy.
    stats:
        Optional :class:`~repro.server.stats.ServerStats`; every
        released lease records (stage, strategy, wait, held, busy).
    clock:
        Time source for held-time measurement; share the server's.
    """

    def __init__(self, pool: ConnectionPool, binder=None, stats=None,
                 clock: Optional[Clock] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 retry: Optional[RetryPolicy] = None,
                 retry_seed: int = 0,
                 sleeper: Callable[[float], None] = time.sleep):
        self.pool = pool
        self.binder = binder
        self.stats = stats
        self.clock = clock if clock is not None else MonotonicClock()
        #: Circuit breaker guarding the pool: every acquire consults it
        #: (fast-fail while open), every outcome feeds it.  ``None``
        #: disables the policy.
        self.breaker = breaker
        #: Transient-DB retry policy for per-query leases; ``None``
        #: disables retries.
        self.retry = retry
        self._retry_stream = RandomStream(retry_seed, "retry-jitter")
        self._sleeper = sleeper
        self._mutex = threading.Lock()
        self._outstanding = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # The raw checkout pair every strategy goes through
    # ------------------------------------------------------------------
    def acquire(self, stage: str, strategy: LeaseStrategy,
                timeout: Optional[float] = None) -> Lease:
        started = self.clock.now()
        if self.breaker is None:
            connection = self.pool.acquire(timeout=timeout)
        else:
            # An open breaker raises CircuitOpenError, which the
            # pipeline maps to 503 + Retry-After (or a degraded
            # stale-cache response).
            with self.breaker.guard(self.stats, stage):
                connection = self.pool.acquire(timeout=timeout)
        now = self.clock.now()
        with self._mutex:
            self._outstanding += 1
        return Lease(connection, stage, strategy, now - started, now)

    def release(self, lease: Lease) -> None:
        if lease._released:
            raise ProgrammingError(
                f"lease on connection {lease.connection.connection_id} "
                f"released twice"
            )
        lease._released = True
        held = self.clock.now() - lease.granted_at
        busy = lease.busy_delta()
        self.pool.release(lease.connection)
        with self._mutex:
            self._outstanding -= 1
        if self.stats is not None:
            self.stats.record_lease(
                lease.stage, lease.strategy.value,
                lease.wait_seconds, held, busy,
            )

    @property
    def outstanding(self) -> int:
        """Leases currently held; 0 after a clean pipeline shutdown."""
        with self._mutex:
            return self._outstanding

    # ------------------------------------------------------------------
    # Stage wiring (called by the Pipeline, never by server classes)
    # ------------------------------------------------------------------
    def worker_hooks(
        self, stage_name: str, resource: DatabaseResource,
    ) -> Tuple[Optional[Callable[[], None]], Optional[Callable[[], None]]]:
        """A stage's worker ``(init, cleanup)`` pair: the lease
        provisioning, or ``(None, None)`` for per-request leasing,
        which provisions in :meth:`request_scope` instead."""
        if resource.strategy is LeaseStrategy.PINNED:
            return (functools.partial(self._pinned_init, stage_name,
                                      resource),
                    self._pinned_cleanup)
        if resource.strategy is LeaseStrategy.LEASED_PER_QUERY:
            return (functools.partial(self._per_query_init, stage_name,
                                      resource),
                    self._per_query_cleanup)
        return None, None

    def request_scope(self, stage_name: str, resource: DatabaseResource):
        """A per-request lease context, or ``None`` for strategies that
        do not lease per request.  The pipeline enters it around the
        stage handler."""
        if resource.strategy is not LeaseStrategy.LEASED_PER_REQUEST:
            return None
        return self._request_lease(stage_name, resource)

    @contextlib.contextmanager
    def _request_lease(self, stage_name: str,
                       resource: DatabaseResource) -> Iterator[Lease]:
        lease = self.acquire(stage_name, LeaseStrategy.LEASED_PER_REQUEST,
                             resource.acquire_timeout)
        self._bind(lease.connection)
        try:
            yield lease
        finally:
            self._bind(None)
            self.release(lease)

    # -- pinned ---------------------------------------------------------
    def _pinned_init(self, stage_name: str,
                     resource: DatabaseResource) -> None:
        lease = self.acquire(stage_name, LeaseStrategy.PINNED,
                             resource.acquire_timeout)
        self._local.pinned = lease
        self._bind(lease.connection)

    def _pinned_cleanup(self) -> None:
        lease = getattr(self._local, "pinned", None)
        self._local.pinned = None
        self._bind(None)
        if lease is not None:
            self.release(lease)

    # -- per-query ------------------------------------------------------
    def _per_query_init(self, stage_name: str,
                        resource: DatabaseResource) -> None:
        # One facade per worker thread: it leases around each
        # statement, so it carries no shared mutable state beyond an
        # open explicit transaction (which is thread-local by
        # construction — the facade never leaves this worker).
        self._bind(PerQueryConnection(self, stage_name,
                                      resource.acquire_timeout))

    def _per_query_cleanup(self) -> None:
        self._bind(None)

    # ------------------------------------------------------------------
    def _bind(self, connection) -> None:
        if self.binder is not None:
            self.binder.bind_connection(connection)


class PerQueryConnection:
    """A connection facade that leases a pooled connection per statement.

    Bound into the application context under
    :data:`LeaseStrategy.LEASED_PER_QUERY`, so handlers written against
    the paper's ``getconn()`` idiom run unchanged.  Each ``execute``
    checks a connection out, runs the one statement, and returns it;
    results stay readable afterwards because cursors buffer their rows.
    An explicit transaction (``begin``/``commit``/``rollback`` or
    ``with conn.transaction():``) holds a single lease for its whole
    scope — per-statement pooling cannot split a transaction across
    connections.
    """

    def __init__(self, manager: LeaseManager, stage: str,
                 timeout: Optional[float] = None):
        self._manager = manager
        self._stage = stage
        self._timeout = timeout
        self._sticky: Optional[Lease] = None

    # -- DB-API-ish surface (mirrors repro.db.connection.Connection) ----
    def cursor(self) -> "PerQueryCursor":
        return PerQueryCursor(self)

    def execute(self, sql: str, params=None) -> "PerQueryCursor":
        cursor = self.cursor()
        cursor.execute(sql, params)
        return cursor

    def begin(self) -> None:
        if self._sticky is not None:
            raise ProgrammingError("a transaction is already open")
        lease = self._manager.acquire(
            self._stage, LeaseStrategy.LEASED_PER_QUERY, self._timeout
        )
        try:
            lease.connection.begin()
        except BaseException:
            self._manager.release(lease)
            raise
        self._sticky = lease

    def commit(self) -> None:
        lease = self._end_transaction()
        try:
            lease.connection.commit()
        finally:
            self._manager.release(lease)

    def rollback(self) -> int:
        lease = self._end_transaction()
        try:
            return lease.connection.rollback()
        finally:
            self._manager.release(lease)

    def transaction(self) -> "_LeasedTransactionScope":
        """``with conn.transaction():`` — one lease, commit on success,
        roll back on exception (same contract as a real connection)."""
        return _LeasedTransactionScope(self)

    @property
    def closed(self) -> bool:
        return False

    # -- internals ------------------------------------------------------
    def _end_transaction(self) -> Lease:
        if self._sticky is None:
            raise ProgrammingError("no transaction is open")
        lease = self._sticky
        self._sticky = None
        return lease

    def _run(self, sql: str, params) -> Cursor:
        """Execute one statement, leasing unless a transaction holds.

        Transient failures (:class:`~repro.db.errors.TransientDBError`)
        are retried by the shared loop, :meth:`RetryPolicy.run` — but
        only for idempotent statements outside an explicit transaction:
        a replayed SELECT cannot double-write, and a transaction must
        not be split across leases, let alone replayed piecemeal.  Each
        attempt releases its lease before the backoff, so no connection
        is held while waiting.
        """
        if self._sticky is not None:
            cursor = self._sticky.connection.cursor()
            cursor.execute(sql, params)
            return cursor
        manager = self._manager
        if manager.retry is None or not _is_idempotent(sql):
            return self._leased(sql, params)

        def attempt():
            # The live attempt waits inside the pool and the engine, so
            # as a step of the shared loop it yields nothing itself.
            return self._leased(sql, params)
            yield  # unreachable: it makes this function a generator

        return drive(manager.retry.run(attempt, manager._retry_stream,
                                       manager.stats, self._stage),
                     manager._sleeper)

    def _leased(self, sql: str, params) -> Cursor:
        """One attempt: lease, execute the statement, release."""
        lease = self._manager.acquire(
            self._stage, LeaseStrategy.LEASED_PER_QUERY, self._timeout
        )
        try:
            cursor = lease.connection.cursor()
            cursor.execute(sql, params)
            return cursor
        finally:
            self._manager.release(lease)


def _is_idempotent(sql: str) -> bool:
    """Only reads are safely replayable."""
    return sql.lstrip()[:6].upper() == "SELECT"


class PerQueryCursor:
    """Cursor over :class:`PerQueryConnection`: every ``execute`` runs
    under its own lease; fetches read the buffered result."""

    def __init__(self, binding: PerQueryConnection):
        self._binding = binding
        self._delegate: Optional[Cursor] = None
        self._closed = False

    def execute(self, sql: str, params=None) -> "PerQueryCursor":
        if self._closed:
            raise ProgrammingError("cursor is closed")
        self._delegate = self._binding._run(sql, params)
        return self

    def _require(self) -> Cursor:
        if self._closed:
            raise ProgrammingError("cursor is closed")
        if self._delegate is None:
            raise ProgrammingError("no statement has been executed")
        return self._delegate

    def fetchone(self):
        return self._require().fetchone()

    def fetchall(self):
        return self._require().fetchall()

    def fetchmany(self, size: int = 1):
        return self._require().fetchmany(size)

    def __iter__(self):
        return iter(self._require())

    @property
    def rowcount(self) -> int:
        return self._delegate.rowcount if self._delegate is not None else -1

    @property
    def lastrowid(self):
        return self._delegate.lastrowid if self._delegate is not None else None

    @property
    def description(self):
        return self._delegate.description if self._delegate is not None else None

    def close(self) -> None:
        self._closed = True
        self._delegate = None


class _LeasedTransactionScope:
    """BEGIN on enter, COMMIT/ROLLBACK on exit, one lease throughout."""

    def __init__(self, binding: PerQueryConnection):
        self._binding = binding

    def __enter__(self) -> PerQueryConnection:
        self._binding.begin()
        return self._binding

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._binding.commit()
        else:
            self._binding.rollback()
