"""The bounded database connection pool.

"Connections to such a database are often stored in the web server's
threads ... a limited number of database connections are stored and
shared by the threads" (paper §1, §2.2).  This pool is that limit made
explicit: at most ``size`` connections exist; :meth:`acquire` blocks
when all are out.  It keeps no held/busy ledger of its own: who holds
a connection, and for how long, is measured per lease by
:class:`repro.server.resources.LeaseManager` into
:meth:`repro.server.stats.ServerStats.connection_utilization`.

Raw ``acquire``/``release`` is deliberately low-level (a missed or
doubled release corrupts the scarce resource the whole study is
about); server code goes through :mod:`repro.server.resources`, and
``tools/lint.py`` enforces that in CI.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Optional, Set

from repro.db.connection import Connection
from repro.db.engine import Database
from repro.db.errors import PoolClosedError, PoolReleaseError, PoolTimeoutError
from repro.faults.plan import SITE_POOL_ACQUIRE


class ConnectionPool:
    """A fixed-size, blocking pool of :class:`Connection` objects.

    Connections are created lazily up to ``size`` and recycled on
    release.  ``acquire`` blocks (optionally with a timeout) when the
    pool is exhausted — the situation the thread-per-request model
    creates whenever more workers want the database than connections
    exist.
    """

    def __init__(self, database: Database, size: int,
                 clock: Callable[[], float] = time.monotonic):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.database = database
        self.size = size
        self._clock = clock
        #: Optional :class:`repro.faults.plan.FaultPlan` consulted at
        #: the top of every :meth:`acquire` (delay or exhaust faults).
        #: Assigned by the owning server; the pool stays ignorant of
        #: the plan's structure.
        self.faults = None
        self._idle: Deque[Connection] = deque()
        self._all: list = []
        self._created = 0
        self._in_use = 0
        self._closed = False
        self._mutex = threading.Lock()
        self._available = threading.Condition(self._mutex)
        # Checked-out connections: the release guard — a connection
        # absent from this set was either never issued or already
        # returned.
        self._checked_out: Set[Connection] = set()
        # -- statistics
        self.total_acquires = 0
        self.peak_in_use = 0

    # ------------------------------------------------------------------
    def acquire(self, timeout: Optional[float] = None) -> Connection:
        """Check out a connection, blocking while none are free."""
        if self.faults is not None:
            # An injected DELAY sleeps here (outside the condition, so
            # it does not serialise other acquirers); EXHAUST/FAIL
            # raises PoolTimeoutError exactly as a starved wait would.
            self.faults.consult(SITE_POOL_ACQUIRE)
        with self._available:
            if self._closed:
                raise PoolClosedError("connection pool is closed")
            while not self._idle and self._created >= self.size:
                if not self._available.wait(timeout=timeout):
                    raise PoolTimeoutError(
                        f"no connection available within {timeout}s "
                        f"(pool size {self.size})"
                    )
                if self._closed:
                    raise PoolClosedError("connection pool is closed")
            if self._idle:
                connection = self._idle.popleft()
            else:
                connection = Connection(self.database, clock=self._clock)
                self._all.append(connection)
                self._created += 1
            self._in_use += 1
            self.peak_in_use = max(self.peak_in_use, self._in_use)
            self.total_acquires += 1
            self._checked_out.add(connection)
            return connection

    def release(self, connection: Connection) -> None:
        """Return a connection to the pool.

        Raises :class:`PoolReleaseError` on a double release or on a
        connection this pool never issued — both used to corrupt the
        idle deque and the in-use count silently.
        """
        with self._available:
            if connection not in self._checked_out:
                raise PoolReleaseError(
                    f"connection {connection.connection_id} is not checked "
                    f"out of this pool (double release, or a connection the "
                    f"pool never issued)"
                )
            self._checked_out.remove(connection)
            if connection.closed:
                # A handler closed it outright: replace capacity.
                self._created -= 1
            else:
                self._idle.append(connection)
            self._in_use -= 1
            self._available.notify()

    class _Lease:
        def __init__(self, pool: "ConnectionPool", timeout: Optional[float]):
            self._pool = pool
            self._timeout = timeout
            self.connection: Optional[Connection] = None

        def __enter__(self) -> Connection:
            self.connection = self._pool.acquire(timeout=self._timeout)
            return self.connection

        def __exit__(self, *exc_info) -> None:
            if self.connection is not None:
                self._pool.release(self.connection)
                self.connection = None

    def lease(self, timeout: Optional[float] = None) -> "_Lease":
        """``with pool.lease() as conn:`` acquire/release scope."""
        return self._Lease(self, timeout)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down; waiting acquirers get PoolClosedError."""
        with self._available:
            self._closed = True
            while self._idle:
                self._idle.popleft().close()
            self._available.notify_all()

    @property
    def in_use(self) -> int:
        with self._mutex:
            return self._in_use

    @property
    def idle(self) -> int:
        with self._mutex:
            return len(self._idle)

    def connections(self) -> list:
        """Every connection this pool has created (for statistics)."""
        with self._mutex:
            return list(self._all)

    def total_busy_seconds(self) -> float:
        """Total statement-execution time across all connections."""
        return sum(c.busy_seconds for c in self.connections())
