"""The overload and crash paths log through module loggers.

None of these paths runs per request on a healthy server; each one
that does run leaves one record an operator can see.
"""

import logging
import socket
import threading
import time

from repro.server.netbase import ClientConnection, PeriodicTask
from repro.server.pipeline import (
    DONE,
    Pipeline,
    RequestJob,
    RequestLifecycle,
    Stage,
)
from repro.server.pools import PoolOverloadedError, ThreadPool
from repro.server.reactor import ConnectionReactor
from repro.server.stats import ServerStats


def _records(caplog, logger, level):
    return [record for record in caplog.records
            if record.name == logger and record.levelno == level]


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def _socketpair():
    server, client = socket.socketpair()
    return client, ClientConnection(server, timeout=5)


class TestReactorLogs:
    def test_503_shed_is_a_warning(self, caplog):
        def overloaded(_connection):
            raise PoolOverloadedError("pool 'header' queue is full")

        reactor = ConnectionReactor(overloaded).start()
        client, connection = _socketpair()
        try:
            reactor.park(connection)
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            client.settimeout(5)
            assert client.recv(65536).startswith(b"HTTP/1.1 503")
            assert _wait_for(lambda: _records(
                caplog, "repro.server.reactor", logging.WARNING))
            record, = _records(caplog, "repro.server.reactor",
                               logging.WARNING)
            assert "503" in record.getMessage()
            assert "queue is full" in record.getMessage()
        finally:
            reactor.stop()
            client.close()

    def test_over_cap_shed_is_a_warning(self, caplog):
        reactor = ConnectionReactor(lambda c: None, max_connections=1)
        pairs = [_socketpair() for _ in range(2)]
        try:
            for _client, connection in pairs:
                reactor.park(connection)
            record, = _records(caplog, "repro.server.reactor",
                               logging.WARNING)
            assert "cap of 1" in record.getMessage()
        finally:
            reactor.stop()
            for client, connection in pairs:
                client.close()
                connection.close()

    def test_idle_reap_is_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.server.reactor")
        reactor = ConnectionReactor(lambda c: None, idle_timeout=0.1).start()
        client, connection = _socketpair()
        try:
            reactor.park(connection)
            assert _wait_for(lambda: _records(
                caplog, "repro.server.reactor", logging.DEBUG))
            record, = _records(caplog, "repro.server.reactor", logging.DEBUG)
            assert "reaped 1 idle" in record.getMessage()
        finally:
            reactor.stop()
            client.close()


class TestCrashLogs:
    def test_pool_task_error_logs_the_traceback(self, caplog):
        failed = threading.Event()

        def boom(_item):
            raise ZeroDivisionError("bad task")

        pool = ThreadPool("t", 1, error_handler=lambda e, i: failed.set())
        try:
            pool.submit(boom, None)
            assert failed.wait(timeout=5)
            record, = _records(caplog, "repro.server.pools", logging.ERROR)
            assert "'t'" in record.getMessage()
            assert record.exc_info[0] is ZeroDivisionError
        finally:
            pool.shutdown()

    def test_periodic_task_error_logs_the_traceback(self, caplog):
        raised = threading.Event()

        def flaky():
            raised.set()
            raise RuntimeError("sampler bug")

        task = PeriodicTask(0.01, flaky, name="sampler")
        task.start()
        try:
            assert raised.wait(timeout=5)
            assert _wait_for(lambda: _records(
                caplog, "repro.server.netbase", logging.ERROR))
        finally:
            task.stop()
        record = _records(caplog, "repro.server.netbase", logging.ERROR)[0]
        assert "'sampler'" in record.getMessage()
        assert record.exc_info[0] is RuntimeError

    def test_worker_crash_is_a_warning(self, caplog):
        stats = ServerStats()
        pipeline = Pipeline([Stage("only", 1, lambda job: DONE)],
                            stats=stats, clock=stats.clock,
                            on_park=lambda c: None)
        client, connection = _socketpair()
        try:
            job = RequestJob(client=connection,
                             lifecycle=RequestLifecycle(0.0), stage="only")
            job.page_key = "/page"
            pipeline._on_worker_error("only", RuntimeError("boom"), job)
            record, = _records(caplog, "repro.server.pipeline",
                               logging.WARNING)
            assert "'only'" in record.getMessage()
            assert "/page" in record.getMessage()
            assert "500" in record.getMessage()
        finally:
            pipeline.shutdown()
            client.close()
            connection.close()
