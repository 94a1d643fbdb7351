"""Shared socket plumbing for both servers.

Keeps the listener loop, per-client connection state, and response
transmission in one place so :mod:`repro.server.baseline` and
:mod:`repro.server.staged` contain only what differs between the two
designs — the thread-pool topology and scheduling.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Callable, Optional, Tuple

from repro.faults.plan import (
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    FaultAction,
)
from repro.http.errors import BadRequestError, RequestTimeoutError
from repro.http.parser import ParserState, RequestParser
from repro.http.request import HTTPRequest
from repro.http.response import HTTPResponse

#: Sockets idle longer than this are closed; protects worker threads
#: from clients that hold keep-alive connections open silently.
DEFAULT_SOCKET_TIMEOUT = 30.0

_RECV_SIZE = 65536

_log = logging.getLogger(__name__)


class ClientConnection:
    """One accepted client socket plus its parse buffer.

    ``read_request`` blocks until a full request is parsed (baseline
    usage); ``read_request_line`` blocks only until the request line is
    available (the staged server's header-parsing first step) after
    which ``finish_request`` completes the job.  Leftover bytes from
    pipelined requests are retained between reads.
    """

    def __init__(self, sock: socket.socket,
                 timeout: float = DEFAULT_SOCKET_TIMEOUT,
                 faults=None):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._leftover = b""
        self._parser: Optional[RequestParser] = None
        self._send_lock = threading.Lock()
        #: Optional :class:`repro.faults.plan.FaultPlan`: socket-level
        #: drop/stall/short-write faults, threaded from the Listener.
        self.faults = faults
        self.closed = False

    # ------------------------------------------------------------------
    def _ensure_parser(self) -> RequestParser:
        if self._parser is None:
            self._parser = RequestParser()
            if self._leftover:
                data, self._leftover = self._leftover, b""
                self._parser.feed(data)
        return self._parser

    def _recv_into_parser(self, parser: RequestParser) -> bool:
        """One socket read into the parser; False when the peer closed.

        A timeout on a request that has already begun is the client's
        slowness, not a disconnect — raise 408 so the caller can say
        so, instead of misreporting a "client disconnected" 400.
        """
        if self.faults is not None:
            decision = self.faults.decide(SITE_SOCKET_READ)
            if decision is not None:
                if decision.action is FaultAction.STALL:
                    # The peer went quiet mid-request: same contract as
                    # a real socket timeout, without waiting one out.
                    if parser.started:
                        raise RequestTimeoutError(
                            "client stalled mid-request (injected)"
                        )
                    return False
                if decision.action is FaultAction.DROP:
                    self.close()
                    return False
        try:
            data = self._sock.recv(_RECV_SIZE)
        except socket.timeout as exc:
            if parser.started:
                raise RequestTimeoutError(
                    "client stalled mid-request (socket timeout)"
                ) from exc
            return False
        except OSError:
            return False
        if not data:
            return False
        parser.feed(data)
        return True

    def read_request(self) -> Optional[HTTPRequest]:
        """Block until a complete request arrives; None on disconnect."""
        parser = self._ensure_parser()
        while parser.state is not ParserState.COMPLETE:
            if not self._recv_into_parser(parser):
                if parser.state is ParserState.REQUEST_LINE and not parser.request_line:
                    return None  # clean close between requests
                raise BadRequestError("client disconnected mid-request")
        return self._finish_parse(parser)

    def read_request_line(self) -> Optional[str]:
        """Block until the request line is parsed; None on disconnect.

        This is the minimal read the staged server's header-parsing
        thread needs to classify static vs. dynamic (paper §3.2).
        """
        parser = self._ensure_parser()
        while parser.state is ParserState.REQUEST_LINE and parser.request_line is None:
            if not self._recv_into_parser(parser):
                if not parser.request_line:
                    return None
                raise BadRequestError("client disconnected mid-request-line")
        return parser.request_line

    def finish_request(self) -> HTTPRequest:
        """Complete parsing after :meth:`read_request_line`."""
        parser = self._ensure_parser()
        while parser.state is not ParserState.COMPLETE:
            if not self._recv_into_parser(parser):
                raise BadRequestError("client disconnected mid-request")
        return self._finish_parse(parser)

    def _finish_parse(self, parser: RequestParser) -> HTTPRequest:
        request = parser.result()
        self._leftover = parser.leftover
        self._parser = None
        return request

    # ------------------------------------------------------------------
    # Reactor integration
    # ------------------------------------------------------------------
    def fileno(self) -> int:
        """The underlying socket's file descriptor (-1 once closed)."""
        return self._sock.fileno()

    def has_buffered_data(self) -> bool:
        """Whether already-received bytes await parsing (pipelining).

        A connection with buffered data must not be parked in the
        reactor — epoll would never report bytes that sit in our own
        buffers rather than the kernel's.
        """
        if self._leftover:
            return True
        parser = self._parser
        return parser is not None and parser.started

    # ------------------------------------------------------------------
    def send_response(self, response: HTTPResponse, keep_alive: bool) -> int:
        """Serialise and transmit; returns bytes sent (0 if peer gone)."""
        payload = response.serialize(keep_alive=keep_alive)
        if self.faults is not None:
            decision = self.faults.decide(SITE_SOCKET_WRITE)
            if decision is not None:
                if decision.action is FaultAction.DROP:
                    # Peer vanished before transmission: 0 bytes sent,
                    # so the pipeline will not count a completion.
                    self.close()
                    return 0
                if decision.action is FaultAction.SHORT_WRITE:
                    truncated = payload[:max(1, len(payload) // 2)]
                    with self._send_lock:
                        try:
                            self._sock.sendall(truncated)
                        except OSError:
                            pass
                    self.close()
                    return 0
        with self._send_lock:
            try:
                self._sock.sendall(payload)
            except OSError:
                self.close()
                return 0
        return len(payload)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - double close race
                pass

    def shutdown(self) -> None:
        """End both directions but keep the fd until :meth:`close`.

        The peer sees EOF and the socket turns readable, while its fd
        number stays allocated.
        """
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # peer already gone
            pass

    def close_after_error(self) -> None:
        """Close without losing an in-flight error response.

        Closing a socket while unread request bytes sit in the receive
        buffer makes TCP send RST and discard the response we just
        wrote (the client would see a reset instead of the 4xx/503).
        Shut down the write side, drain briefly, then close.
        """
        try:
            self._sock.shutdown(socket.SHUT_WR)
            self._sock.settimeout(0.5)
            while self._sock.recv(_RECV_SIZE):
                pass
        except OSError:
            pass
        self.close()


class Listener:
    """The single listener thread of both server designs (Figures 4–5)."""

    def __init__(self, host: str, port: int,
                 on_accept: Callable[[ClientConnection], None],
                 backlog: int = 128,
                 socket_timeout: float = DEFAULT_SOCKET_TIMEOUT,
                 faults=None):
        self._server_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server_sock.bind((host, port))
        self._server_sock.listen(backlog)
        self._server_sock.settimeout(0.2)  # poll for shutdown
        self._on_accept = on_accept
        self._socket_timeout = socket_timeout
        self._faults = faults
        self._stopping = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name="listener", daemon=True
        )
        self.accepted = 0

    @property
    def address(self) -> Tuple[str, int]:
        return self._server_sock.getsockname()

    def start(self) -> None:
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client_sock, _ = self._server_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.accepted += 1
            client_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._on_accept(ClientConnection(
                client_sock, self._socket_timeout, faults=self._faults
            ))

    def stop(self) -> None:
        self._stopping.set()
        self._thread.join(timeout=2.0)
        try:
            self._server_sock.close()
        except OSError:  # pragma: no cover
            pass


class PeriodicTask:
    """Runs a callback every ``interval`` seconds on its own thread.

    Used for the once-per-second treserve update and queue sampling.
    A crashing callback never kills the thread, but it is *counted*
    (:attr:`errors`, :attr:`last_error`) so tests and operators can
    assert samplers ran clean instead of failing silently.
    """

    def __init__(self, interval: float, callback: Callable[[], None],
                 name: str = "periodic"):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._interval = interval
        self._callback = callback
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.errors = 0
        self.last_error: Optional[BaseException] = None

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stopping.wait(self._interval):
            try:
                self._callback()
            except Exception as exc:  # sampler must not die, but must count
                self.errors += 1
                self.last_error = exc
                _log.error("periodic task %r raised", self._thread.name,
                           exc_info=exc)

    def stop(self) -> None:
        self._stopping.set()
        self._thread.join(timeout=2.0)
