"""Event-driven connection reactor: idle sockets wait in one epoll set.

The staged design's whole point (paper §3.2) is that scarce threads
never block on work another stage should absorb — yet a blocking
``read_request_line`` parks a header-parsing thread on every silent
keep-alive client for up to the socket timeout.  With a header pool of
two threads, two idle browsers starve header parsing entirely and the
queue dynamics of Figures 7–8 collapse into head-of-line blocking that
has nothing to do with the scheduling policy under test.

The reactor applies the SEDA-style remedy (Welsh & Culler, cited by
the paper; see also Voras & Žagar on multithreading models for
IO-driven servers): sockets with nothing to read wait in a Linux
``epoll`` set watched by one thread, and worker pools only ever
receive connections that have bytes ready.  Both servers use it:

- On accept, the listener *parks* the connection instead of submitting
  it to a pool; the reactor dispatches it the moment bytes arrive.
- After a keep-alive response, the serving thread parks the connection
  again rather than re-entering the header (or worker) pool to block.
- Pipelined leftovers short-circuit: a connection whose next request
  is already buffered in userspace is dispatched immediately, because
  the kernel would never report it readable.

Parking is a hand-off the paper's stage graph does not have, so it
costs no thread switch: the parking thread records the connection and
arms its socket itself, with ``EPOLLONESHOT``.  The kernel disarms a
one-shot socket when it reports it, so the reactor thread only ever
pops the entry and dispatches — it never registers or unregisters.

The reactor also centralises two resource-management duties that were
previously scattered across blocking reads:

- **Idle timeout** — parked connections idle past ``idle_timeout`` are
  reaped (closed) without ever occupying a thread.
- **Connection cap** — ``max_connections`` bounds the parked set; a
  park beyond the cap is shed (closed) instead of accumulating.

Dispatch failure is backpressure, not an exception leak: if the
downstream pool's bounded queue rejects the connection, the reactor
transmits a 503 before closing, so overloaded clients always see a
response instead of a hang or a reset.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from typing import Callable, Dict, Optional

from repro.http.response import HTTPResponse
from repro.server.netbase import DEFAULT_SOCKET_TIMEOUT, ClientConnection
from repro.server.pools import PoolOverloadedError

_ARMED = select.EPOLLIN | select.EPOLLONESHOT


class _Parked:
    """A parked connection and its idle deadline."""

    __slots__ = ("connection", "deadline")

    def __init__(self, connection: ClientConnection, deadline: float):
        self.connection = connection
        self.deadline = deadline


class ConnectionReactor:
    """One epoll thread watching every parked client socket (Linux only).

    Parameters
    ----------
    on_ready:
        Called with a :class:`ClientConnection` that has readable bytes
        (or buffered pipelined data).  Expected to submit the
        connection to a worker pool; a raised
        :class:`PoolOverloadedError` makes the reactor shed the
        connection with a 503, and a ``RuntimeError`` (pool shut down)
        closes it quietly.
    idle_timeout:
        Seconds a parked connection may sit without readable bytes
        before it is reaped.
    max_connections:
        Cap on concurrently parked connections; ``None`` = unbounded.

    ``dispatched``, ``idle_reaped`` and ``sheds`` are the one ledger of
    what the reactor did; ``ServerStats.connection_gauges`` reads them
    through :meth:`gauges`.
    """

    def __init__(self, on_ready: Callable[[ClientConnection], None], *,
                 idle_timeout: float = DEFAULT_SOCKET_TIMEOUT,
                 max_connections: Optional[int] = None,
                 name: str = "reactor"):
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {idle_timeout}")
        if max_connections is not None and max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1 or None, got {max_connections}"
            )
        self._on_ready = on_ready
        self._idle_timeout = idle_timeout
        self._max_connections = max_connections
        self._epoll = select.epoll()
        # Guards the table, the counters and _closed; park() also reads
        # the stopping flag under it (see park).
        self._lock = threading.Lock()
        # fd -> entry.  Deadlines are taken under the lock with one
        # idle_timeout, so insertion order is deadline order: the
        # first entry is always the next to expire.
        self._parked: Dict[int, _Parked] = {}
        # Self-pipe: stop() must wake a reactor sleeping until the
        # next deadline.  Parks never need it (see _plan_wake).
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._epoll.register(self._wake_r.fileno(), select.EPOLLIN)
        self._stopping = threading.Event()
        self._started = False
        self._closed = False
        self.dispatched = 0
        self.idle_reaped = 0
        self.sheds = 0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    # ------------------------------------------------------------------
    @property
    def parked_count(self) -> int:
        """Connections currently waiting in the reactor."""
        with self._lock:
            return len(self._parked)

    def gauges(self) -> Dict[str, int]:
        """Point-in-time reactor metrics."""
        with self._lock:
            return {
                "parked": len(self._parked),
                "dispatched": self.dispatched,
                "idle_reaped": self.idle_reaped,
                "sheds": self.sheds,
            }

    # ------------------------------------------------------------------
    def start(self) -> "ConnectionReactor":
        self._started = True
        self._thread.start()
        return self

    def park(self, connection: ClientConnection) -> None:
        """Watch ``connection`` until it has something to read.

        Callable from any thread, and complete when it returns: the
        connection is parked, dispatched (buffered pipelined data),
        shed (over the cap) or closed (reactor stopping).
        """
        if connection.closed:
            return
        if self._stopping.is_set():
            connection.close()
            return
        if connection.has_buffered_data():
            with self._lock:
                self.dispatched += 1
            self._dispatch(connection)
            return
        fd = connection.fileno()
        entry = None
        with self._lock:
            # Checked in the same critical section as the insert, so a
            # park racing stop() either lands before _cleanup's clear
            # (and is closed by it) or sees the flag.
            stopping = self._stopping.is_set()
            over_cap = (not stopping and self._max_connections is not None
                        and len(self._parked) >= self._max_connections)
            if not stopping and not over_cap:
                # Recorded before arming, so a readiness event always
                # finds its entry.
                entry = _Parked(connection,
                                time.monotonic() + self._idle_timeout)
                self._parked[fd] = entry
        if stopping:
            connection.close()
        elif over_cap:
            # No request is in flight on a parked connection, so there
            # is nothing meaningful to respond to — just shed it.
            self._shed(connection, respond=False)
        else:
            self._arm(fd, entry)

    def stop(self) -> None:
        """Stop the loop and close every parked connection."""
        self._stopping.set()
        try:
            self._wake_w.send(b"\x00")
        except OSError:  # already closed by an earlier stop()
            pass
        if self._started:
            self._thread.join(timeout=2.0)
        self._cleanup()

    # ------------------------------------------------------------------
    def _arm(self, fd: int, entry: _Parked) -> None:
        try:
            try:
                self._epoll.modify(fd, _ARMED)
            except FileNotFoundError:
                # First park of this socket, or an fd number reused
                # after a close (closing a socket drops it from epoll).
                self._epoll.register(fd, _ARMED)
        except (OSError, ValueError):
            # The epoll was closed by stop(), or the socket died.
            with self._lock:
                if self._parked.get(fd) is entry:
                    del self._parked[fd]
            entry.connection.close()

    def _dispatch(self, connection: ClientConnection) -> None:
        try:
            self._on_ready(connection)
        except PoolOverloadedError:
            self._shed(connection, respond=True)
        except RuntimeError:
            # Downstream pool shut down mid-flight.
            connection.close()

    def _shed(self, connection: ClientConnection, respond: bool) -> None:
        with self._lock:
            self.sheds += 1
        if respond:
            connection.send_response(
                HTTPResponse.error(503, "server overloaded"),
                keep_alive=False,
            )
            connection.close_after_error()
        else:
            connection.close()

    # ------------------------------------------------------------------
    # Reactor thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        # The wake pipe is written only by stop(), so it is never
        # drained: the loop condition ends the thread after it fires.
        while not self._stopping.is_set():
            try:
                events = self._epoll.poll(self._plan_wake())
            except (OSError, ValueError):  # epoll closed during shutdown
                return
            ready = []
            with self._lock:
                for fd, _mask in events:
                    parked = self._parked.pop(fd, None)
                    if parked is not None:
                        ready.append(parked.connection)
                self.dispatched += len(ready)
            for connection in ready:
                self._dispatch(connection)
            self._reap_idle(time.monotonic())

    def _plan_wake(self) -> float:
        """Seconds until the earliest deadline, or one idle timeout.

        Planning one idle timeout ahead for an empty table means a
        later park's deadline (taken under the same lock, on the same
        monotonic clock) is never earlier than the planned wake-up, so
        parking never has to interrupt the reactor.
        """
        with self._lock:
            if self._parked:
                wake_at = next(iter(self._parked.values())).deadline
            else:
                wake_at = time.monotonic() + self._idle_timeout
        return max(0.0, wake_at - time.monotonic())

    def _reap_idle(self, now: float) -> None:
        expired = []
        with self._lock:
            for fd, parked in self._parked.items():
                if parked.deadline > now:
                    break
                expired.append(fd)
            expired = [self._parked.pop(fd).connection for fd in expired]
            self.idle_reaped += len(expired)
        for connection in expired:
            # Closing the socket also drops it from the epoll set.
            connection.close()

    def _cleanup(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = [p.connection for p in self._parked.values()]
            self._parked.clear()
        for connection in leftovers:
            connection.close()
        self._epoll.close()
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass
