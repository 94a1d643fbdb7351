"""Integration tests: both servers over real loopback sockets."""

import threading

import pytest

from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.http.client import http_request
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.resources import LeaseStrategy
from repro.server.staged import StagedServer
from repro.templates.engine import TemplateEngine


def build_app():
    database = Database()
    database.executescript(
        "CREATE TABLE page (pageid INT PRIMARY KEY, title VARCHAR(40))"
    )
    database.execute("INSERT INTO page (pageid, title) VALUES (1, 'One')")
    engine = TemplateEngine(sources={
        "page.html": "<title>{{ title }}</title>",
    })
    app = Application(templates=engine)
    app.add_static("/img/x.gif", b"GIF89a-data")

    @app.expose("/page")
    def page(pageid="1"):
        cursor = app.getconn().cursor()
        cursor.execute("SELECT title FROM page WHERE pageid=%s", int(pageid))
        row = cursor.fetchone()
        return ("page.html", {"title": row[0] if row else "?"})

    @app.expose("/legacy")
    def legacy():
        return "<html>pre-rendered</html>"

    @app.expose("/boom")
    def boom():
        raise RuntimeError("handler exploded")

    return app, database


def small_staged_policy():
    return SchedulingPolicy(PolicyConfig(
        general_pool_size=4, lengthy_pool_size=1, minimum_reserve=1,
        header_pool_size=2, static_pool_size=2, render_pool_size=2,
    ))


@pytest.fixture(params=["baseline", "staged"])
def server(request):
    app, database = build_app()
    if request.param == "baseline":
        instance = BaselineServer(app, ConnectionPool(database, 4),
                                  queue_sample_interval=0.05)
    else:
        instance = StagedServer(
            app, ConnectionPool(database, 8), policy=small_staged_policy(),
            queue_sample_interval=0.05,
        )
    instance.start()
    yield instance
    instance.stop()
    # Samplers must have run clean the whole session: swallowed
    # exceptions are counted, and CI asserts there were none.
    assert instance.sampler_errors() == 0, repr(
        instance._sampler.last_error
    )


class TestBothServers:
    def test_dynamic_page_rendered(self, server):
        host, port = server.address
        response = http_request(host, port, "/page?pageid=1")
        assert response.status == 200
        assert response.body == b"<title>One</title>"
        assert response.headers["content-length"] == "18"

    def test_static_file(self, server):
        host, port = server.address
        response = http_request(host, port, "/img/x.gif")
        assert response.status == 200
        assert response.headers["content-type"] == "image/gif"
        assert response.body == b"GIF89a-data"

    def test_legacy_string_handler(self, server):
        host, port = server.address
        response = http_request(host, port, "/legacy")
        assert response.body == b"<html>pre-rendered</html>"

    def test_missing_page_404(self, server):
        host, port = server.address
        assert http_request(host, port, "/nope").status == 404

    def test_missing_static_404(self, server):
        host, port = server.address
        assert http_request(host, port, "/missing.gif").status == 404

    def test_handler_exception_500(self, server):
        host, port = server.address
        response = http_request(host, port, "/boom")
        assert response.status == 500
        assert b"RuntimeError" in response.body

    def test_raising_handler_is_an_error_not_a_completion(self, server):
        host, port = server.address
        assert http_request(host, port, "/boom").status == 500
        assert _eventually(lambda: server.stats.errors()) == {
            "/boom": {"500": 1}}
        assert server.stats.total_completions() == 0

    def test_failed_request_is_counted_as_an_error(self, server):
        import socket

        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            sock.recv(65536)
        assert _eventually(lambda: server.stats.errors()) == {"?": {"400": 1}}
        assert server.stats.total_completions() == 0

    def test_head_request_no_body(self, server):
        host, port = server.address
        response = http_request(host, port, "/page?pageid=1", method="HEAD")
        assert response.status == 200
        assert response.headers["content-length"] == "18"
        assert response.body == b""

    def test_malformed_request_400(self, server):
        import socket

        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_concurrent_clients(self, server):
        host, port = server.address
        errors = []

        def client():
            try:
                for _ in range(10):
                    response = http_request(host, port, "/page?pageid=1")
                    assert response.status == 200
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors

    def test_completions_recorded(self, server):
        host, port = server.address
        http_request(host, port, "/page?pageid=1")
        http_request(host, port, "/img/x.gif")
        completions = server.stats.completions()
        assert completions.get("/page") == 1
        assert completions.get("/img/x.gif") == 1


class TestBaselineSpecifics:
    def test_workers_cannot_exceed_connections(self):
        app, database = build_app()
        with pytest.raises(ValueError):
            BaselineServer(app, ConnectionPool(database, 2), workers=3)

    def test_workers_default_to_pool_size(self):
        app, database = build_app()
        server = BaselineServer(app, ConnectionPool(database, 3))
        assert server.worker_pool.size == 3
        server.stop()


class TestStagedSpecifics:
    def test_dynamic_threads_cannot_exceed_connections(self):
        app, database = build_app()
        with pytest.raises(ValueError):
            StagedServer(
                app, ConnectionPool(database, 2),
                policy=small_staged_policy(),  # needs 5 connections
            )

    def test_generation_time_fed_back_to_policy(self):
        app, database = build_app()
        server = StagedServer(
            app, ConnectionPool(database, 8), policy=small_staged_policy()
        ).start()
        try:
            host, port = server.address
            http_request(host, port, "/page?pageid=1")
            assert server.policy.tracker.sample_count("/page") == 1
        finally:
            server.stop()

    def test_render_inline_topology_serves_pages(self):
        """The no-render-pool ablation is a four-stage graph config,
        not a subclass: dynamic threads render on their own."""
        app, database = build_app()
        server = StagedServer(
            app, ConnectionPool(database, 8), policy=small_staged_policy(),
            render_inline=True,
        ).start()
        try:
            host, port = server.address
            response = http_request(host, port, "/page?pageid=1")
            assert response.status == 200
            assert response.body == b"<title>One</title>"
            assert server.pipeline.stage_names() == [
                "header", "static", "general", "lengthy"
            ]
            summary = server.stats.stage_timing_summary()
            assert "render" not in summary
            assert summary["general"]["service"]["count"] == 1
        finally:
            server.stop()

    def test_keep_alive_two_requests_one_connection(self):
        import socket

        app, database = build_app()
        server = StagedServer(
            app, ConnectionPool(database, 8), policy=small_staged_policy()
        ).start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                request = (
                    b"GET /legacy HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                sock.sendall(request)
                first = _read_one_response(sock)
                sock.sendall(request)
                second = _read_one_response(sock)
            assert b"pre-rendered" in first
            assert b"pre-rendered" in second
        finally:
            server.stop()


class TestHeadRequestsBothServers:
    """HEAD handling (head_strip) through the pipeline completion path."""

    def test_head_static_no_body(self, server):
        host, port = server.address
        response = http_request(host, port, "/img/x.gif", method="HEAD")
        assert response.status == 200
        assert response.body == b""
        assert response.headers["content-length"] == str(len(b"GIF89a-data"))

    def test_head_keep_alive_reparks_then_get(self):
        """A HEAD response must re-park the connection like any other
        keep-alive completion: a follow-up GET on the same socket works
        and gets a full body."""
        import socket

        app, database = build_app()
        for factory in (
            lambda: BaselineServer(app, ConnectionPool(database, 4)),
            lambda: StagedServer(app, ConnectionPool(database, 8),
                                 policy=small_staged_policy()),
        ):
            server = factory().start()
            try:
                host, port = server.address
                with socket.create_connection((host, port), timeout=5) as sock:
                    sock.sendall(b"HEAD /legacy HTTP/1.1\r\nHost: x\r\n\r\n")
                    # HEAD advertises Content-Length but sends no body:
                    # read just the header block.
                    head = b""
                    while b"\r\n\r\n" not in head:
                        head += sock.recv(65536)
                    assert b"200" in head.split(b"\r\n", 1)[0]
                    assert b"Content-Length: 25" in head
                    assert b"pre-rendered" not in head  # body stripped
                    sock.sendall(b"GET /legacy HTTP/1.1\r\nHost: x\r\n\r\n")
                    full = _read_one_response(sock)
                    assert b"pre-rendered" in full
            finally:
                server.stop()


class TestStageTimingsBothServers:
    def test_lifecycle_timings_recorded_per_stage(self, server):
        host, port = server.address
        http_request(host, port, "/page?pageid=1")
        http_request(host, port, "/img/x.gif")
        summary = server.stats.stage_timing_summary()
        if isinstance(server, StagedServer):
            # Dynamic: header -> general -> render; static: header -> static.
            assert {"header", "static", "general", "render"} <= set(summary)
            assert summary["header"]["service"]["count"] >= 2
            assert summary["render"]["queue_wait"]["count"] >= 1
        else:
            assert set(summary) == {"worker"}
            assert summary["worker"]["service"]["count"] >= 2
        for timings in summary.values():
            for kind in ("queue_wait", "service"):
                if timings[kind]["count"]:
                    assert timings[kind]["p95"] >= 0

    def test_query_variants_share_one_page_key(self, server):
        host, port = server.address
        http_request(host, port, "/page?pageid=1")
        http_request(host, port, "/page?pageid=2")
        assert server.stats.completions().get("/page") == 2


class TestKeepAliveBothServers:
    def test_keep_alive_round_trips(self, server):
        import socket

        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            request = b"GET /legacy HTTP/1.1\r\nHost: x\r\n\r\n"
            for _ in range(3):
                sock.sendall(request)
                assert b"pre-rendered" in _read_one_response(sock)

    def test_pipelined_requests_both_served(self, server):
        import socket
        import time

        host, port = server.address
        request = b"GET /legacy HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request + request)  # back to back, one write
            # Both responses may share one segment; read the stream.
            data = b""
            deadline = time.time() + 5
            while data.count(b"pre-rendered") < 2 and time.time() < deadline:
                sock.settimeout(max(0.1, deadline - time.time()))
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:
                    break
                if not chunk:
                    break
                data += chunk
        assert data.count(b"pre-rendered") == 2


class TestStopLeavesNothingBehind:
    @pytest.mark.parametrize("strategy", list(LeaseStrategy))
    @pytest.mark.parametrize("kind", ["baseline", "staged"])
    def test_stop_joins_every_server_thread(self, kind, strategy):
        """Start, serve a keep-alive and a pipelined request, stop: no
        thread the server started survives, twice in one process (as a
        benchmark's repeated set-ups do)."""
        import socket

        request = b"GET /legacy HTTP/1.1\r\nHost: x\r\n\r\n"
        for _ in range(2):
            before = set(threading.enumerate())
            app, database = build_app()
            if kind == "baseline":
                server = BaselineServer(app, ConnectionPool(database, 2),
                                        lease_strategy=strategy)
            else:
                server = StagedServer(app, ConnectionPool(database, 8),
                                      policy=small_staged_policy(),
                                      lease_strategy=strategy)
            server.start()
            with socket.create_connection(server.address, timeout=5) as sock:
                try:
                    sock.sendall(request)
                    assert b"pre-rendered" in _read_one_response(sock)
                    sock.sendall(request + request)
                    data = b""
                    while data.count(b"pre-rendered") < 2:
                        chunk = sock.recv(65536)
                        assert chunk, "connection closed early"
                        data += chunk
                finally:
                    # Stopped with the keep-alive connection parked.
                    server.stop()
            left = [thread for thread in threading.enumerate()
                    if thread not in before and thread.is_alive()]
            assert left == []
            assert server.reactor.parked_count == 0


def _eventually(read, timeout: float = 5.0):
    """``read()`` once it is truthy: the server records a response
    just after sending it, so the client can see it first."""
    import time

    deadline = time.monotonic() + timeout
    while not read() and time.monotonic() < deadline:
        time.sleep(0.01)
    return read()


def _read_one_response(sock) -> bytes:
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(65536)
    head, _, rest = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        rest += sock.recv(65536)
    return head + b"\r\n\r\n" + rest[:length]
