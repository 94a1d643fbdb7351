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
``epoll`` set, and worker threads only ever receive connections that
have bytes ready.  Both servers use it:

- On accept, the listener *parks* the connection instead of submitting
  it to a pool; it reaches a thread the moment bytes arrive.
- After a keep-alive response, the serving thread parks the connection
  again rather than re-entering the header (or worker) pool to block.
- Pipelined leftovers short-circuit: a connection whose next request
  is already buffered in userspace goes straight to the entry queue,
  because the kernel would never report it readable.

Who waits on the epoll set is the entry stage itself (Voras & Žagar
compare exactly this choice).  An entry worker with an empty queue
calls :meth:`ConnectionReactor.take`, blocks in ``epoll_wait`` and runs
the connection it pops: Figure 5's listener → header hand-off, with no
dispatcher thread in between.  The reactor's own thread is only the
*standby*: it polls while no entry worker is inside ``take()`` — the
entry stage is saturated — and dispatches what it pops into the
entry queue through ``on_ready``, where the queue's bound sheds.

Parking is a hand-off the paper's stage graph does not have, so it
costs no thread switch: the parking thread records the connection and
arms its socket itself, with ``EPOLLONESHOT``.  The kernel disarms a
one-shot socket when it reports it, so exactly one thread sees each
readiness, and no poller ever registers or unregisters.

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

import logging
import select
import socket
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.http.response import HTTPResponse
from repro.server.netbase import DEFAULT_SOCKET_TIMEOUT, ClientConnection
from repro.server.pools import PoolOverloadedError

_log = logging.getLogger(__name__)

_ARMED = select.EPOLLIN | select.EPOLLONESHOT


class _Parked:
    """A parked connection and its idle deadline."""

    __slots__ = ("connection", "deadline")

    def __init__(self, connection: ClientConnection, deadline: float):
        self.connection = connection
        self.deadline = deadline


class ConnectionReactor:
    """One epoll set holding every parked client socket (Linux only).

    Parameters
    ----------
    on_ready:
        Called by the standby thread, and by :meth:`park` for buffered
        pipelined data, with a :class:`ClientConnection` that has bytes
        to read.  Expected to queue the connection at the entry stage;
        a raised :class:`PoolOverloadedError` makes the reactor shed
        the connection with a 503, and a ``RuntimeError`` (pool shut
        down) closes it quietly.
    idle_timeout:
        Seconds a parked connection may sit without readable bytes
        before it is reaped.
    max_connections:
        Cap on concurrently parked connections; ``None`` = unbounded.

    ``taken`` (popped by an entry worker in :meth:`take`), ``queued``
    (handed to ``on_ready``), ``idle_reaped`` and ``sheds`` are the one
    ledger of what the reactor did; ``ServerStats.connection_gauges``
    reads it through :meth:`gauges`.
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
        # Guards the tables, the counters, the taker count and _closed;
        # park() and the wake-socket reads also check the stopping flag
        # under it (see park and stop).
        self._lock = threading.Lock()
        # Notified when the last taker leaves take(): the standby
        # thread and stop() wait on it.
        self._no_takers = threading.Condition(self._lock)
        self._takers = 0
        # fd -> entry.  Deadlines are taken under the lock with one
        # idle_timeout, so insertion order is deadline order: the
        # first entry is always the next to expire.
        self._parked: Dict[int, _Parked] = {}
        # fd -> reaped connection whose socket is shut down but not yet
        # closed (see _reap_idle).
        self._reaped: Dict[int, ClientConnection] = {}
        # Wake socket, level-triggered in the epoll set.  stop() writes
        # one byte nobody reads, which wakes every poller; a pipelined
        # park writes one byte per job it queues while takers wait, and
        # one taker reads it.  Steady-state parks never write it.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._wake_fd = self._wake_r.fileno()
        self._epoll.register(self._wake_fd, select.EPOLLIN)
        self._stopping = threading.Event()
        self._started = False
        self._closed = False
        self.taken = 0
        self.queued = 0
        self.idle_reaped = 0
        self.sheds = 0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    # ------------------------------------------------------------------
    @property
    def dispatched(self) -> int:
        """Ready connections handed on, by a taker or through the queue."""
        return self.taken + self.queued

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
                "dispatched": self.taken + self.queued,
                "taken": self.taken,
                "queued": self.queued,
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
        connection is parked, queued (buffered pipelined data), shed
        (over the cap) or closed (reactor stopping).
        """
        if connection.closed:
            return
        if self._stopping.is_set():
            connection.close()
            return
        if connection.has_buffered_data():
            with self._lock:
                self.queued += 1
            self._queue(connection)
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
            _log.warning("shed a parked connection over the cap of %d",
                         self._max_connections)
            self._shed(connection, respond=False)
        else:
            self._arm(fd, entry)

    def take(self, queued: Callable[[], bool]) -> Optional[ClientConnection]:
        """Block until a parked connection is readable; return it.

        Called by an entry-stage worker instead of waiting on its empty
        queue.  ``queued`` says whether that queue holds work; it is
        read under the reactor lock before the caller counts as a
        taker, and again after each wake, so no job waits in the queue
        while its workers sleep in ``epoll_wait``.

        Returns ``None`` when the caller should read its queue instead:
        it holds work, or the reactor is stopping.
        """
        with self._lock:
            if self._stopping.is_set() or queued():
                return None
            self._takers += 1
        try:
            while True:
                events = self._epoll.poll(-1, 1)
                reaped = None
                with self._lock:
                    for fd, _mask in events:
                        if fd == self._wake_fd:
                            if (self._stopping.is_set()
                                    or (self._read_wake(1) and queued())):
                                self._leave()
                                return None
                            continue
                        entry = self._parked.pop(fd, None)
                        if entry is not None:
                            self.taken += 1
                            self._leave()
                            return entry.connection
                        reaped = self._reaped.pop(fd, None)
                if reaped is not None:
                    reaped.close()
        except (OSError, ValueError):
            # The epoll was closed by a stop() that gave up waiting.
            with self._lock:
                self._leave()
            return None

    def stop(self) -> None:
        """Return every taker, stop the standby, close what is parked.

        Closing an epoll fd does not wake the threads blocked on it, so
        the wake byte does, and the takers are waited for before the
        epoll and the wake sockets close.
        """
        with self._lock:
            # Set under the lock: a wake byte read under it with the
            # flag clear is never this one, so this one stays unread.
            self._stopping.set()
            self._no_takers.notify_all()
        try:
            self._wake_w.send(b"\x00")
        except OSError:  # already closed by an earlier stop()
            pass
        if self._started:
            self._thread.join(timeout=2.0)
        with self._lock:
            self._no_takers.wait_for(lambda: not self._takers, timeout=2.0)
        self._cleanup()

    # ------------------------------------------------------------------
    def _leave(self) -> None:
        """A taker returns; the caller holds the lock."""
        self._takers -= 1
        if not self._takers:
            self._no_takers.notify_all()

    def _read_wake(self, size: int) -> bool:
        """Consume up to ``size`` wake bytes; False if none was left."""
        try:
            return bool(self._wake_r.recv(size))
        except BlockingIOError:
            return False

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

    def _queue(self, connection: ClientConnection) -> None:
        """Hand a counted ready connection to ``on_ready`` (the queue).

        A taker that started waiting before the job landed would sleep
        through it, so each queued job wakes one waiting taker, which
        finds it with its ``queued`` check.
        """
        if not self._dispatch(connection):
            return
        with self._lock:
            wake = self._takers > 0
        if wake:
            try:
                self._wake_w.send(b"\x00")
            except OSError:  # wake buffer full, or stop() closed it
                pass

    def _dispatch(self, connection: ClientConnection) -> bool:
        try:
            self._on_ready(connection)
            return True
        except PoolOverloadedError as exc:
            _log.warning("shed a ready connection with 503: %s", exc)
            self._shed(connection, respond=True)
        except RuntimeError:
            # Downstream pool shut down mid-flight.
            connection.close()
        return False

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
    # Standby thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stopping.is_set():
            with self._lock:
                timeout = self._plan_wake()
                standing_by = self._takers > 0
                if standing_by:
                    # Entry workers wait on the epoll set themselves;
                    # wake for the next deadline or for the last of
                    # them leaving.
                    self._no_takers.wait(timeout)
            if not standing_by:
                try:
                    events = self._epoll.poll(timeout)
                except (OSError, ValueError):  # epoll closed during shutdown
                    return
                self._on_standby_events(events)
            self._reap_idle(time.monotonic())

    def _on_standby_events(self, events) -> None:
        ready: List[ClientConnection] = []
        handed_back: List[int] = []
        closing: List[ClientConnection] = []
        with self._lock:
            # Decided under the lock the takers count themselves under:
            # while one waits, a ready socket goes back to the epoll set
            # for it rather than into the queue.
            hand_back = self._takers > 0
            for fd, _mask in events:
                if fd == self._wake_fd:
                    # A queued job's wake: left for a waiting taker;
                    # with none, the next worker's queue check finds the
                    # job.  stop()'s byte is never read.
                    if not hand_back and not self._stopping.is_set():
                        self._read_wake(4096)
                    continue
                entry = self._parked.get(fd)
                if entry is None:
                    reaped = self._reaped.pop(fd, None)
                    if reaped is not None:
                        closing.append(reaped)
                elif hand_back:
                    handed_back.append(fd)
                else:
                    del self._parked[fd]
                    ready.append(entry.connection)
            self.queued += len(ready)
        for connection in closing:
            connection.close()
        for fd in handed_back:
            try:
                self._epoll.modify(fd, _ARMED)
            except (OSError, ValueError):  # stop() closed the epoll
                pass
        for connection in ready:
            self._queue(connection)

    def _plan_wake(self) -> float:
        """Seconds until the earliest deadline, or one idle timeout.

        Planning one idle timeout ahead for an empty table means a
        later park's deadline (taken under the same lock, on the same
        monotonic clock) is never earlier than the planned wake-up, so
        parking never has to interrupt the standby.  The caller holds
        the lock.
        """
        now = time.monotonic()
        if self._parked:
            return max(0.0, next(iter(self._parked.values())).deadline - now)
        return self._idle_timeout

    def _reap_idle(self, now: float) -> None:
        """Shut down parked connections idle past their deadline.

        A reaped socket is shut down, not closed, and stays in
        ``_reaped`` until the poller that receives its readiness closes
        it.  A taker may already hold that event when the reap runs;
        keeping the fd number allocated until the event is consumed
        means it can never be reused by a new connection in between,
        so no taker pops a stranger's entry.  Shutdown makes the socket
        readable, so the event always comes.
        """
        expired = []
        with self._lock:
            for fd, parked in self._parked.items():
                if parked.deadline > now:
                    break
                expired.append(fd)
            for fd in expired:
                self._reaped[fd] = self._parked.pop(fd).connection
            self.idle_reaped += len(expired)
            reaped = [self._reaped[fd] for fd in expired]
        if reaped:
            _log.debug("reaped %d idle connection(s)", len(reaped))
        for connection in reaped:
            connection.shutdown()

    def _cleanup(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = [p.connection for p in self._parked.values()]
            leftovers.extend(self._reaped.values())
            self._parked.clear()
            self._reaped.clear()
        for connection in leftovers:
            connection.close()
        self._epoll.close()
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass
