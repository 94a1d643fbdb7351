"""Keep-alive starvation and end-to-end backpressure, over live sockets.

The regression this guards: before the connection reactor, an idle
keep-alive client parked a header-parsing (or baseline worker) thread
inside a blocking read for up to the 30 s socket timeout, so
``header_pool_size + k`` silent browsers starved the server entirely.
Now idle sockets wait in the reactor's selector and threads only ever
run ready work, so a fresh request must complete in well under a
second no matter how many connections sit idle.
"""

import socket
import threading
import time

import pytest

from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.http.client import http_request, parse_response_bytes
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.staged import StagedServer
from repro.templates.engine import TemplateEngine

KEEP_ALIVE_REQUEST = b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n"


def build_app(gate=None):
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"
    )
    database.execute("INSERT INTO t (v) VALUES (7)")
    app = Application(templates=TemplateEngine(sources={
        "ok.html": "value={{ v }}",
    }))
    app.add_static("/s.gif", b"GIF89a")

    @app.expose("/ok")
    def ok():
        cursor = app.getconn().cursor()
        cursor.execute("SELECT v FROM t WHERE id = 1")
        return ("ok.html", {"v": cursor.fetchone()[0]})

    if gate is not None:
        @app.expose("/block")
        def block():
            gate.wait(timeout=30)
            return ("ok.html", {"v": 0})

    return app, database


def tiny_staged_policy(header_pool_size=2):
    return SchedulingPolicy(PolicyConfig(
        general_pool_size=2, lengthy_pool_size=1, minimum_reserve=1,
        header_pool_size=header_pool_size, static_pool_size=1,
        render_pool_size=1,
    ))


def _read_response(sock, timeout=5.0):
    """Read one complete (Content-Length-framed) HTTP response."""
    sock.settimeout(timeout)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return head + b"\r\n\r\n" + rest


def _idle_keepalive_connections(host, port, count):
    """Open ``count`` keep-alive connections that each complete one
    request and then go silent — the head-of-line-blocking scenario."""
    socks = []
    for _ in range(count):
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(KEEP_ALIVE_REQUEST)
        response = _read_response(sock)
        assert b"200" in response.split(b"\r\n", 1)[0]
        socks.append(sock)
    return socks


def _wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestKeepAliveStarvation:
    def test_staged_idle_keepalive_does_not_starve_header_pool(self):
        """8 parked keep-alive clients, header_pool_size=2: a fresh
        request must complete in well under the 30 s socket timeout.
        The pre-reactor code blocked both header threads here."""
        app, database = build_app()
        server = StagedServer(
            app, ConnectionPool(database, 3),
            policy=tiny_staged_policy(header_pool_size=2),
        ).start()
        try:
            host, port = server.address
            idle = _idle_keepalive_connections(host, port, 8)
            # The parked connections occupy the reactor, not threads.
            assert _wait_until(lambda: server.reactor.parked_count == 8)
            # No header thread blocks on the idle sockets.
            assert _wait_until(lambda: server.header_pool.spare == 2)
            started = time.time()
            response = http_request(host, port, "/ok", timeout=5)
            elapsed = time.time() - started
            assert response.status == 200
            assert elapsed < 1.0, (
                f"fresh request took {elapsed:.2f}s behind idle keep-alive "
                f"clients — header pool is head-of-line blocked"
            )
            for sock in idle:
                sock.close()
        finally:
            server.stop()

    def test_staged_parked_connection_still_usable(self):
        app, database = build_app()
        server = StagedServer(
            app, ConnectionPool(database, 3), policy=tiny_staged_policy(),
        ).start()
        try:
            host, port = server.address
            idle = _idle_keepalive_connections(host, port, 4)
            # A parked connection wakes up and is served again.
            idle[0].sendall(KEEP_ALIVE_REQUEST)
            response = parse_response_bytes(_read_response(idle[0]))
            assert response.status == 200
            assert response.body == b"value=7"
            for sock in idle:
                sock.close()
        finally:
            server.stop()

    def test_staged_fresh_silent_connections_occupy_no_threads(self):
        app, database = build_app()
        server = StagedServer(
            app, ConnectionPool(database, 3),
            policy=tiny_staged_policy(header_pool_size=2),
        ).start()
        try:
            host, port = server.address
            silent = [socket.create_connection((host, port), timeout=5)
                      for _ in range(4)]
            assert _wait_until(lambda: server.reactor.parked_count == 4)
            started = time.time()
            assert http_request(host, port, "/ok", timeout=5).status == 200
            assert time.time() - started < 1.0
            for sock in silent:
                sock.close()
        finally:
            server.stop()

    def test_baseline_idle_keepalive_does_not_starve_workers(self):
        app, database = build_app()
        server = BaselineServer(app, ConnectionPool(database, 2)).start()
        try:
            host, port = server.address
            idle = _idle_keepalive_connections(host, port, 6)
            assert _wait_until(lambda: server.reactor.parked_count == 6)
            # park() precedes the worker's return; allow it to finish.
            assert _wait_until(lambda: server.worker_pool.spare == 2)
            started = time.time()
            assert http_request(host, port, "/ok", timeout=5).status == 200
            assert time.time() - started < 1.0
            for sock in idle:
                sock.close()
        finally:
            server.stop()

    def test_parked_gauge_reads_the_reactor(self):
        app, database = build_app()
        server = StagedServer(
            app, ConnectionPool(database, 3), policy=tiny_staged_policy(),
        ).start()
        try:
            host, port = server.address
            idle = _idle_keepalive_connections(host, port, 3)
            assert _wait_until(
                lambda: server.stats.connection_gauges()["parked"] == 3
            )
            assert server.reactor.parked_count == 3
            for sock in idle:
                sock.close()
        finally:
            server.stop()


class TestIdleReaping:
    @pytest.mark.parametrize("kind", ["baseline", "staged"])
    def test_idle_connections_reaped_centrally(self, kind):
        app, database = build_app()
        if kind == "baseline":
            server = BaselineServer(app, ConnectionPool(database, 2),
                                    idle_timeout=0.3)
        else:
            server = StagedServer(app, ConnectionPool(database, 3),
                                  policy=tiny_staged_policy(),
                                  idle_timeout=0.3)
        server.start()
        try:
            host, port = server.address
            idle = _idle_keepalive_connections(host, port, 3)
            assert _wait_until(lambda: server.reactor.idle_reaped == 3)
            assert server.stats.connection_gauges()["idle_reaped"] == 3
            # Peers see the close.
            for sock in idle:
                sock.settimeout(5)
                assert sock.recv(1) == b""
                sock.close()
        finally:
            server.stop()

    def test_max_connections_cap_sheds_and_counts(self):
        app, database = build_app()
        server = StagedServer(app, ConnectionPool(database, 3),
                              policy=tiny_staged_policy(),
                              max_connections=2).start()
        try:
            host, port = server.address
            silent = [socket.create_connection((host, port), timeout=5)
                      for _ in range(4)]
            assert _wait_until(lambda: server.reactor.sheds >= 2)
            assert server.reactor.parked_count <= 2
            assert server.stats.connection_gauges()["sheds"] >= 2
            for sock in silent:
                sock.close()
        finally:
            server.stop()

    def test_gauges_equal_the_reactor_counters_exactly(self):
        """One ledger: after 3 sheds and 2 reaps the stats gauges are
        the reactor's own counters, not a second tally of them."""
        app, database = build_app()
        server = StagedServer(app, ConnectionPool(database, 3),
                              policy=tiny_staged_policy(),
                              max_connections=2, idle_timeout=1.0).start()
        try:
            host, port = server.address
            silent = [socket.create_connection((host, port), timeout=5)
                      for _ in range(5)]
            assert _wait_until(lambda: server.reactor.sheds == 3)
            assert _wait_until(lambda: server.reactor.idle_reaped == 2)
            reactor = server.reactor.gauges()
            assert server.stats.connection_gauges() == {
                "idle_reaped": reactor["idle_reaped"],
                "sheds": reactor["sheds"],
                "parked": reactor["parked"],
            } == {"idle_reaped": 2, "sheds": 3, "parked": 0}
            for sock in silent:
                sock.close()
        finally:
            server.stop()


class TestEndToEndBackpressure:
    def test_flooded_dynamic_pool_sheds_503_not_hangs(self):
        """All five pools bounded: flooding the 1-deep general pool
        gets overflow clients an immediate 503, never a hang, and the
        rejected counters advance."""
        gate = threading.Event()
        app, database = build_app(gate=gate)
        server = StagedServer(
            app, ConnectionPool(database, 3),
            policy=tiny_staged_policy(header_pool_size=2),
            max_queue=1,
        ).start()
        try:
            host, port = server.address
            statuses = []
            statuses_lock = threading.Lock()

            def flood():
                try:
                    response = http_request(host, port, "/block", timeout=10)
                    with statuses_lock:
                        statuses.append(response.status)
                except OSError:
                    with statuses_lock:
                        statuses.append(None)  # reset after shed

            threads = [threading.Thread(target=flood) for _ in range(8)]
            for thread in threads:
                thread.start()
                time.sleep(0.1)  # let each engage before the next
            # Overflow clients got their 503 *before* the gate opens.
            assert _wait_until(
                lambda: statuses.count(503) >= 1, timeout=8
            ), f"no 503 among {statuses}"
            gate.set()
            for thread in threads:
                thread.join(timeout=15)
            rejected = (server.general_pool.rejected
                        + server.lengthy_pool.rejected
                        + server.header_pool.rejected)
            assert rejected >= 1
            assert statuses.count(200) >= 1  # admitted work completed
            assert len(statuses) == 8  # nobody hung
        finally:
            gate.set()
            server.stop()

    def test_render_pool_overflow_sends_503(self):
        gate = threading.Event()
        database = Database()
        app = Application(templates=TemplateEngine(sources={
            "slow.html": "{{ v }}",
        }))

        @app.expose("/page")
        def page():
            return ("slow.html", {"v": "x"})

        # A render pool of 1 thread, queue depth 1, with the single
        # render worker blocked: the third render submission overflows.
        policy = tiny_staged_policy()
        server = StagedServer(app, ConnectionPool(database, 3),
                              policy=policy, max_queue=1).start()
        original_render = server.app.templates.render

        def slow_render(name, data):
            gate.wait(timeout=30)
            return original_render(name, data)

        server.app.templates.render = slow_render
        try:
            host, port = server.address
            statuses = []
            lock = threading.Lock()

            def fetch():
                try:
                    response = http_request(host, port, "/page", timeout=10)
                    with lock:
                        statuses.append(response.status)
                except OSError:
                    with lock:
                        statuses.append(None)

            threads = [threading.Thread(target=fetch) for _ in range(4)]
            for thread in threads:
                thread.start()
                time.sleep(0.1)
            assert _wait_until(lambda: 503 in statuses, timeout=8), (
                f"render overflow never produced a 503: {statuses}"
            )
            assert server.render_pool.rejected >= 1
            gate.set()
            for thread in threads:
                thread.join(timeout=15)
            assert len(statuses) == 4  # nobody hung
        finally:
            gate.set()
            server.app.templates.render = original_render
            server.stop()


class TestSlowClientTimeout:
    @pytest.mark.parametrize("kind", ["baseline", "staged"])
    def test_stalled_mid_request_gets_408_not_400(self, kind):
        """A merely-slow client that stalls mid-request is told 408
        Request Timeout, not blamed for a disconnect with a 400."""
        app, database = build_app()
        if kind == "baseline":
            server = BaselineServer(app, ConnectionPool(database, 2),
                                    socket_timeout=0.4)
        else:
            server = StagedServer(app, ConnectionPool(database, 3),
                                  policy=tiny_staged_policy(),
                                  socket_timeout=0.4)
        server.start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"GET /ok HTTP/1.1\r\nHost:")  # stall mid-headers
                data = _read_response(sock)
            assert data.startswith(b"HTTP/1.1 408"), data.split(b"\r\n", 1)[0]
            # The server is unharmed.
            assert http_request(host, port, "/ok").status == 200
        finally:
            server.stop()


class TestMalformedRequestLine:
    @pytest.mark.parametrize("raw_line", [
        b"GET  /ok  HTTP/1.1",        # multiple spaces
        b" GET /ok HTTP/1.1",         # leading space
        b"GET /ok",                   # missing version
        b"GET",                       # method only
        b"GET /ok HTTP/1.1 extra x",  # trailing junk
    ])
    @pytest.mark.parametrize("kind", ["baseline", "staged"])
    def test_malformed_spacing_is_400_never_misroute(self, kind, raw_line):
        app, database = build_app()
        if kind == "baseline":
            server = BaselineServer(app, ConnectionPool(database, 2))
        else:
            server = StagedServer(app, ConnectionPool(database, 3),
                                  policy=tiny_staged_policy())
        server.start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(raw_line + b"\r\nHost: x\r\n\r\n")
                data = _read_response(sock)
            assert data.split(b"\r\n", 1)[0].startswith(b"HTTP/1.1 400"), data
            assert http_request(host, port, "/ok").status == 200
        finally:
            server.stop()
