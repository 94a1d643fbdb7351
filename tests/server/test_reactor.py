"""ConnectionReactor unit tests over real socketpairs."""

import socket
import sys
import threading
import time

import pytest

from repro.server.netbase import ClientConnection
from repro.server.pools import PoolOverloadedError
from repro.server.reactor import ConnectionReactor


def _pair():
    """A connected (client socket, server ClientConnection) pair."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname(), timeout=5)
    accepted, _ = server.accept()
    server.close()
    return client, ClientConnection(accepted, timeout=5)


def _pipelined():
    """A server connection with a second request already buffered."""
    client, connection = _socketpair()
    client.sendall(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
    connection.read_request()
    assert connection.has_buffered_data()
    return client, connection


def _socketpair():
    """Like :func:`_pair`, but the server end takes the lowest free fd."""
    server, client = socket.socketpair()
    return client, ClientConnection(server, timeout=5)


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


class _CountingSocket:
    """Stands in for the reactor's wake-pipe writer and counts sends."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = 0

    def send(self, data):
        self.sends += 1
        return self._sock.send(data)

    def close(self):
        self._sock.close()


def _wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestDispatch:
    def test_parked_connection_dispatches_when_readable(self):
        ready = []
        event = threading.Event()

        def on_ready(connection):
            ready.append(connection)
            event.set()

        reactor = ConnectionReactor(on_ready).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert reactor.parked_count == 1
            assert not event.is_set()  # nothing readable yet
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            assert event.wait(timeout=5)
            assert ready == [connection]
            assert reactor.parked_count == 0
            assert reactor.dispatched == 1
        finally:
            reactor.stop()
            client.close()
            connection.close()

    def test_peer_close_dispatches_for_eof_handling(self):
        # EOF is readable too: the worker must get a chance to observe
        # the disconnect and clean up.
        event = threading.Event()
        reactor = ConnectionReactor(lambda c: event.set()).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert reactor.parked_count == 1
            client.close()
            assert event.wait(timeout=5)
        finally:
            reactor.stop()
            connection.close()

    def test_buffered_pipelined_data_dispatches_immediately(self):
        ready = []
        reactor = ConnectionReactor(ready.append).start()
        client, connection = _pair()
        try:
            client.sendall(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            first = connection.read_request()
            assert first.path == "/a"
            assert connection.has_buffered_data()
            reactor.park(connection)
            # Dispatched synchronously on the caller thread — epoll
            # can never report userspace-buffered bytes.
            assert ready == [connection]
            assert reactor.parked_count == 0
        finally:
            reactor.stop()
            client.close()
            connection.close()

    def test_closed_connection_is_not_parked(self):
        reactor = ConnectionReactor(lambda c: None).start()
        client, connection = _pair()
        try:
            connection.close()
            reactor.park(connection)
            assert reactor.parked_count == 0
        finally:
            reactor.stop()
            client.close()


class TestIdleTimeout:
    def test_idle_connection_reaped(self):
        reactor = ConnectionReactor(lambda c: None, idle_timeout=0.2).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert _wait_until(lambda: reactor.idle_reaped == 1, timeout=5)
            assert reactor.parked_count == 0
            # The peer observes the close.
            client.settimeout(5)
            assert client.recv(1) == b""
        finally:
            reactor.stop()
            client.close()

    def test_active_connection_not_reaped(self):
        event = threading.Event()
        reactor = ConnectionReactor(
            lambda c: event.set(), idle_timeout=5.0
        ).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert reactor.parked_count == 1
            client.sendall(b"x")
            assert event.wait(timeout=5)
            assert reactor.idle_reaped == 0
        finally:
            reactor.stop()
            client.close()
            connection.close()


class TestBackpressure:
    def test_max_connections_cap_sheds(self):
        reactor = ConnectionReactor(lambda c: None, max_connections=2).start()
        pairs = [_pair() for _ in range(3)]
        try:
            for _client, connection in pairs:
                reactor.park(connection)
            assert reactor.sheds == 1
            assert reactor.parked_count == 2
            # The shed connection was closed outright.
            assert pairs[2][1].closed
        finally:
            reactor.stop()
            for client, connection in pairs:
                client.close()
                connection.close()

    def test_overloaded_pool_shed_sends_503(self):
        def overloaded(_connection):
            raise PoolOverloadedError("full")

        reactor = ConnectionReactor(overloaded).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert reactor.parked_count == 1
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            client.settimeout(5)
            data = b""
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                data += chunk
            assert data.startswith(b"HTTP/1.1 503")
            assert reactor.sheds == 1
            assert _wait_until(lambda: connection.closed)
        finally:
            reactor.stop()
            client.close()

    def test_shutdown_pool_closes_quietly(self):
        def shut_down(_connection):
            raise RuntimeError("pool 'x' is shut down")

        reactor = ConnectionReactor(shut_down).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert reactor.parked_count == 1
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            assert _wait_until(lambda: connection.closed)
            client.settimeout(5)
            try:
                data = client.recv(65536)
            except ConnectionResetError:
                data = b""  # unread request bytes make close() send RST
            assert data == b""  # either way: no response bytes
        finally:
            reactor.stop()
            client.close()


class TestLifecycle:
    def test_stop_closes_parked_connections(self):
        reactor = ConnectionReactor(lambda c: None).start()
        pairs = [_pair() for _ in range(2)]
        try:
            for _client, connection in pairs:
                reactor.park(connection)
            assert reactor.parked_count == 2
            reactor.stop()
            for _client, connection in pairs:
                assert connection.closed
        finally:
            for client, connection in pairs:
                client.close()
                connection.close()

    def test_park_after_stop_closes(self):
        reactor = ConnectionReactor(lambda c: None).start()
        reactor.stop()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert connection.closed
        finally:
            client.close()

    def test_stop_without_start(self):
        reactor = ConnectionReactor(lambda c: None)
        reactor.stop()  # must not raise

    def test_gauges_shape(self):
        reactor = ConnectionReactor(lambda c: None)
        assert reactor.gauges() == {
            "parked": 0, "dispatched": 0, "idle_reaped": 0, "sheds": 0,
        }
        reactor.stop()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConnectionReactor(lambda c: None, idle_timeout=0)
        with pytest.raises(ValueError):
            ConnectionReactor(lambda c: None, max_connections=0)


class TestOneShot:
    def test_bytes_in_kernel_before_park_dispatch_at_once(self):
        event = threading.Event()
        reactor = ConnectionReactor(lambda c: event.set()).start()
        client, connection = _socketpair()
        try:
            # A Unix socketpair delivers synchronously: the bytes are in
            # the receive buffer before park() arms the socket.
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            reactor.park(connection)
            assert event.wait(timeout=5)
            assert reactor.dispatched == 1
        finally:
            reactor.stop()
            client.close()
            connection.close()

    def test_reused_fd_is_registered_afresh(self):
        # Closing a socket drops it from the epoll set, so arming the
        # next socket that gets the same fd number must register it.
        ready = []
        event = threading.Event()

        def on_ready(connection):
            ready.append(connection)
            event.set()

        reactor = ConnectionReactor(on_ready).start()
        first_client, first = _socketpair()
        try:
            reused_fd = first.fileno()
            reactor.park(first)
            first_client.sendall(b"x")
            assert event.wait(timeout=5)
            first.close()
            first_client.close()
            event.clear()
            client, second = _socketpair()
            try:
                assert second.fileno() == reused_fd
                reactor.park(second)
                assert reactor.parked_count == 1
                client.sendall(b"y")
                assert event.wait(timeout=5)
                assert ready == [first, second]
            finally:
                client.close()
                second.close()
        finally:
            reactor.stop()

    def test_steady_state_parks_do_not_wake_the_reactor(self):
        dispatched = threading.Event()

        def on_ready(connection):
            connection.read_request()
            dispatched.set()

        reactor = ConnectionReactor(on_ready)
        wake = reactor._wake_w = _CountingSocket(reactor._wake_w)
        reactor.start()
        client, connection = _pair()
        try:
            for i in range(50):
                dispatched.clear()
                reactor.park(connection)
                client.sendall(b"GET /%d HTTP/1.1\r\n\r\n" % i)
                assert dispatched.wait(timeout=5)
            assert reactor.dispatched == 50
            assert wake.sends <= 1
        finally:
            reactor.stop()
            client.close()
            connection.close()


class TestConcurrency:
    THREADS = 8

    def test_counters_exact_under_concurrent_parks(self):
        per_thread = 25
        reactor = ConnectionReactor(lambda c: None, max_connections=1).start()
        holder_client, holder = _pair()
        reactor.park(holder)  # fills the cap: every later park is shed
        pipelined = [[_pipelined() for _ in range(per_thread)]
                     for _ in range(self.THREADS)]
        over_cap = [[_socketpair() for _ in range(per_thread)]
                    for _ in range(self.THREADS)]
        barrier = threading.Barrier(self.THREADS)

        def hammer(i):
            barrier.wait(timeout=5)
            for (_c, piped), (_c2, idle) in zip(pipelined[i], over_cap[i]):
                reactor.park(piped)
                reactor.park(idle)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(self.THREADS, hammer)
        finally:
            sys.setswitchinterval(interval)
        try:
            total = self.THREADS * per_thread
            assert reactor.dispatched == total
            assert reactor.sheds == total
            assert reactor.parked_count == 1
            assert all(c.closed for row in over_cap for _c, c in row)
        finally:
            reactor.stop()
            for row in pipelined + over_cap:
                for client, connection in row:
                    client.close()
                    connection.close()
            holder_client.close()

    def test_stop_landing_mid_park_closes_the_connection(self):
        # Deterministic form of the race below: stop() runs after
        # park()'s first stopping check but before its table insert.
        reactor = ConnectionReactor(lambda c: None).start()

        class StopsReactor(ClientConnection):
            def has_buffered_data(self):
                reactor.stop()
                return False

        server, client = socket.socketpair()
        connection = StopsReactor(server, timeout=5)
        try:
            reactor.park(connection)
            assert connection.closed
            assert reactor.parked_count == 0
        finally:
            client.close()
            connection.close()

    def test_park_racing_stop_never_leaks_a_socket(self):
        per_thread = 20
        for _ in range(10):
            reactor = ConnectionReactor(lambda c: None).start()
            pairs = [[_socketpair() for _ in range(per_thread)]
                     for _ in range(self.THREADS)]
            barrier = threading.Barrier(self.THREADS + 1)

            def parker(i):
                barrier.wait(timeout=5)
                for _client, connection in pairs[i]:
                    reactor.park(connection)

            stopper = threading.Thread(
                target=lambda: (barrier.wait(timeout=5), reactor.stop()))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                stopper.start()
                _run_threads(self.THREADS, parker)
                stopper.join(timeout=10)
                assert not stopper.is_alive()
                assert all(connection.closed
                           for row in pairs for _c, connection in row)
            finally:
                sys.setswitchinterval(interval)
                for row in pairs:
                    for client, connection in row:
                        client.close()
                        connection.close()
