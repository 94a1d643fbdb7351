"""The lease layer: strategies, worker hooks, the connection ledger,
concurrency safety."""

import random
import threading

import pytest

from repro.db.engine import Database
from repro.db.errors import IntegrityError, ProgrammingError
from repro.db.pool import ConnectionPool
from repro.faults.plan import (
    SITE_POOL_ACQUIRE,
    FaultAction,
    FaultPlan,
    FaultRule,
)
from repro.server.app import Application
from repro.server.resources import (
    DatabaseResource,
    LeaseManager,
    LeaseStrategy,
    PerQueryConnection,
)
from repro.server.stats import ServerStats
from repro.util.clock import ManualClock


@pytest.fixture()
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"
    )
    database.execute("INSERT INTO t (v) VALUES (1), (2), (3)")
    return database


def make_manager(db, size=2, stats=None):
    pool = ConnectionPool(db, size=size)
    app = Application()
    return LeaseManager(pool, binder=app, stats=stats), pool, app


class TickingDatabase(Database):
    """Every statement costs 0.25 manual-clock seconds."""

    def __init__(self, manual):
        super().__init__()
        self._manual = manual

    def execute_statement(self, statement, params=(), connection_id=None):
        self._manual.advance(0.25)
        return super().execute_statement(
            statement, params, connection_id=connection_id
        )


def manual_ledger(database=None):
    """A lease manager, its pool, app and stats, all on one ManualClock.

    Statements run on ``TickingDatabase`` unless ``database`` is given
    (then they cost no clock time)."""
    clock = ManualClock()
    if database is None:
        database = TickingDatabase(clock)
        database.executescript("CREATE TABLE u (id INT PRIMARY KEY)")
    stats = ServerStats(clock)
    pool = ConnectionPool(database, size=2, clock=clock.now)
    app = Application()
    manager = LeaseManager(pool, binder=app, stats=stats, clock=clock)
    return manager, app, stats, clock


class TestAcquireRelease:
    def test_acquire_grants_and_meters(self, db):
        stats = ServerStats(ManualClock())
        manager, pool, _ = make_manager(db, stats=stats)
        lease = manager.acquire("general", LeaseStrategy.PINNED)
        assert manager.outstanding == 1
        assert pool.in_use == 1
        lease.connection.execute("SELECT v FROM t")
        manager.release(lease)
        assert manager.outstanding == 0
        assert pool.in_use == 0
        utilization = stats.connection_utilization()
        assert utilization["general"]["strategy"] == "pinned"
        assert utilization["general"]["leases"] == 1
        assert utilization["general"]["busy_seconds"] > 0.0

    def test_double_release_raises(self, db):
        manager, _, _ = make_manager(db)
        lease = manager.acquire("general", LeaseStrategy.PINNED)
        manager.release(lease)
        with pytest.raises(ProgrammingError):
            manager.release(lease)
        assert manager.outstanding == 0


class TestPinnedHooks:
    def test_init_binds_cleanup_releases(self, db):
        manager, pool, app = make_manager(db)
        init, cleanup = manager.worker_hooks("general", DatabaseResource())
        init()
        assert app.getconn().execute("SELECT 1").fetchone() == (1,)
        assert pool.in_use == 1
        cleanup()
        assert pool.in_use == 0
        assert manager.outstanding == 0
        with pytest.raises(RuntimeError):
            app.getconn()


class TestPerRequestScope:
    def test_scope_leases_around_request(self, db):
        stats = ServerStats(ManualClock())
        manager, pool, app = make_manager(db, stats=stats)
        resource = DatabaseResource(strategy=LeaseStrategy.LEASED_PER_REQUEST)
        init, cleanup = manager.worker_hooks("worker", resource)
        assert init is None and cleanup is None  # nothing per worker
        scope = manager.request_scope("worker", resource)
        assert scope is not None
        with scope:
            assert app.getconn().execute("SELECT 1").fetchone() == (1,)
            assert pool.in_use == 1
        assert pool.in_use == 0
        with pytest.raises(RuntimeError):
            app.getconn()
        entry = stats.connection_utilization()["worker"]
        assert entry["strategy"] == "per-request"
        assert entry["leases"] == 1

    def test_scope_releases_on_handler_error(self, db):
        manager, pool, _ = make_manager(db)
        resource = DatabaseResource(strategy=LeaseStrategy.LEASED_PER_REQUEST)
        with pytest.raises(ValueError):
            with manager.request_scope("worker", resource):
                raise ValueError("handler bug")
        assert pool.in_use == 0
        assert manager.outstanding == 0

    def test_other_strategies_have_no_request_scope(self, db):
        manager, _, _ = make_manager(db)
        assert manager.request_scope("s", DatabaseResource()) is None
        assert manager.request_scope(
            "s", DatabaseResource(strategy=LeaseStrategy.LEASED_PER_QUERY)
        ) is None


class TestPerQueryStrategy:
    def _bound_connection(self, db, stats=None, size=2):
        manager, pool, app = make_manager(db, size=size, stats=stats)
        init, cleanup = manager.worker_hooks(
            "worker", DatabaseResource(strategy=LeaseStrategy.LEASED_PER_QUERY)
        )
        init()
        return manager, pool, app, cleanup

    def test_each_statement_leases_and_returns(self, db):
        stats = ServerStats(ManualClock())
        manager, pool, app, cleanup = self._bound_connection(db, stats=stats)
        connection = app.getconn()
        assert isinstance(connection, PerQueryConnection)
        cursor = connection.cursor()
        cursor.execute("SELECT v FROM t ORDER BY v")
        # The lease is already back; the buffered result still reads.
        assert pool.in_use == 0
        assert cursor.fetchall() == [(1,), (2,), (3,)]
        connection.execute("SELECT 1")
        assert pool.total_acquires == 2  # one checkout per statement
        assert stats.connection_utilization()["worker"]["leases"] == 2
        cleanup()
        assert manager.outstanding == 0

    def test_transaction_holds_one_sticky_lease(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        with connection.transaction():
            assert pool.in_use == 1
            cursor = connection.cursor()
            cursor.execute("INSERT INTO t (v) VALUES (9)")
            inserted = cursor.lastrowid
            connection.execute("SELECT v FROM t WHERE id = %s", inserted)
            assert pool.in_use == 1  # still the same single checkout
        assert pool.in_use == 0
        # BEGIN + INSERT + SELECT + COMMIT rode one checkout.
        assert pool.total_acquires == 1
        assert db.execute("SELECT v FROM t WHERE id = %s",
                          (inserted,)).rows == [(9,)]
        cleanup()

    def test_transaction_rolls_back_on_error(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        before = db.execute("SELECT COUNT(*) FROM t").rows[0][0]
        with pytest.raises(IntegrityError):
            with connection.transaction():
                connection.execute("INSERT INTO t (v) VALUES (10)")
                # Duplicate primary key: the engine raises mid-txn.
                connection.execute("INSERT INTO t (id, v) VALUES (1, 1)")
        after = db.execute("SELECT COUNT(*) FROM t").rows[0][0]
        assert after == before  # rolled back
        assert pool.in_use == 0
        assert manager.outstanding == 0
        cleanup()

    def test_cursor_metadata_proxies(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        cursor = connection.execute("SELECT id, v FROM t")
        assert [d[0] for d in cursor.description] == ["id", "v"]
        assert cursor.rowcount == 3
        assert [row[1] for row in cursor] == [1, 2, 3]
        cleanup()

    def test_misuse_raises(self, db):
        manager, pool, app, cleanup = self._bound_connection(db)
        connection = app.getconn()
        with pytest.raises(ProgrammingError):
            connection.commit()  # no transaction open
        connection.begin()
        with pytest.raises(ProgrammingError):
            connection.begin()  # already open
        connection.rollback()
        cursor = connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.fetchone()  # nothing executed yet
        cursor.close()
        with pytest.raises(ProgrammingError):
            cursor.execute("SELECT 1")
        cleanup()
        assert manager.outstanding == 0


class TestLeaseHammer:
    """Racing acquire/release across all three strategies must never
    leak, double-free, or over-subscribe the pool."""

    THREADS = 8
    ITERATIONS = 40
    POOL_SIZE = 3

    def test_concurrent_strategies_conserve_the_pool(self, db):
        stats = ServerStats(ManualClock())
        manager, pool, app = make_manager(
            db, size=self.POOL_SIZE, stats=stats
        )
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def pinned_style(rng):
            lease = manager.acquire("pinned-stage", LeaseStrategy.PINNED,
                                    timeout=10.0)
            try:
                if rng.random() < 0.5:
                    lease.connection.execute("SELECT v FROM t")
            finally:
                manager.release(lease)

        def per_request_style(rng):
            resource = DatabaseResource(
                strategy=LeaseStrategy.LEASED_PER_REQUEST,
                acquire_timeout=10.0,
            )
            with manager.request_scope("request-stage", resource):
                app.getconn().execute("SELECT v FROM t")
                app.getconn()  # re-entrant getconn under the lease

        def per_query_style(rng):
            binding = PerQueryConnection(manager, "query-stage", timeout=10.0)
            binding.execute("SELECT v FROM t").fetchall()
            if rng.random() < 0.3:
                with binding.transaction():
                    binding.execute("SELECT 1")

        styles = [pinned_style, per_request_style, per_query_style]

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()
            try:
                for _ in range(self.ITERATIONS):
                    rng.choice(styles)(rng)
                    assert pool.in_use <= self.POOL_SIZE
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert manager.outstanding == 0
        assert pool.in_use == 0
        assert pool.idle <= self.POOL_SIZE
        # Every lease that was granted was also returned and recorded.
        utilization = stats.connection_utilization()
        recorded = sum(entry["leases"] for entry in utilization.values())
        assert recorded == pool.total_acquires
        assert pool.peak_in_use <= self.POOL_SIZE


class TestConnectionLedger:
    """Exact held/busy/wait accounting: ``LeaseManager`` feeding
    ``ServerStats.connection_utilization()`` is the one connection
    ledger, so every number here is checked on a ManualClock."""

    def test_held_vs_busy_accounting(self, db):
        manager, _, stats, clock = manual_ledger(db)
        lease = manager.acquire("general", LeaseStrategy.PINNED)
        clock.advance(1.0)  # held but idle
        lease.connection.execute("SELECT v FROM t")  # costs no clock time
        clock.advance(1.0)
        manager.release(lease)
        entry = stats.connection_utilization()["general"]
        assert entry["held_seconds"] == pytest.approx(2.0)
        assert entry["busy_seconds"] == pytest.approx(0.0)
        assert entry["busy_fraction"] == 0.0
        assert entry["leases"] == 1
        assert entry["strategy"] == "pinned"

    def test_busy_fraction_counts_query_time_only(self):
        manager, _, stats, clock = manual_ledger()
        lease = manager.acquire("general", LeaseStrategy.PINNED)
        clock.advance(0.5)
        lease.connection.execute("SELECT id FROM u")
        clock.advance(0.25)
        manager.release(lease)
        entry = stats.connection_utilization()["general"]
        assert entry["held_seconds"] == pytest.approx(1.0)
        assert entry["busy_seconds"] == pytest.approx(0.25)
        assert entry["busy_fraction"] == pytest.approx(0.25)

    def test_in_flight_lease_not_counted(self, db):
        manager, _, stats, clock = manual_ledger(db)
        lease = manager.acquire("general", LeaseStrategy.PINNED)
        clock.advance(5.0)
        assert stats.connection_utilization() == {}
        manager.release(lease)
        entry = stats.connection_utilization()["general"]
        assert entry["held_seconds"] == pytest.approx(5.0)
        assert entry["leases"] == 1

    def test_acquire_wait_summary_shape(self, db):
        manager, _, stats, _ = manual_ledger(db)
        manager.release(manager.acquire("general", LeaseStrategy.PINNED))
        wait = stats.connection_utilization()["general"]["acquire_wait"]
        assert wait["count"] == 1
        assert wait["max"] == 0.0
        assert set(wait) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_empty_report(self, db):
        manager, _, stats, _ = manual_ledger(db)
        assert stats.connection_utilization() == {}
        # A lease held for no time at all divides by nothing.
        manager.release(manager.acquire("general", LeaseStrategy.PINNED))
        entry = stats.connection_utilization()["general"]
        assert entry["held_seconds"] == 0.0
        assert entry["busy_fraction"] == 0.0

    def test_acquire_wait_is_time_spent_in_the_pool(self, db):
        manager, _, stats, clock = manual_ledger(db)
        manager.pool.faults = FaultPlan(
            [FaultRule(SITE_POOL_ACQUIRE, FaultAction.DELAY, delay=0.5)],
            clock=clock, sleeper=clock.advance,
        )
        lease = manager.acquire("general", LeaseStrategy.PINNED)
        assert lease.wait_seconds == pytest.approx(0.5)
        clock.advance(1.0)
        manager.release(lease)
        entry = stats.connection_utilization()["general"]
        assert entry["acquire_wait"]["mean"] == pytest.approx(0.5)
        # Held time starts at the grant, not at the request.
        assert entry["held_seconds"] == pytest.approx(1.0)

    def test_pinned_lease_spans_the_worker_lifetime(self):
        manager, app, stats, clock = manual_ledger()
        init, cleanup = manager.worker_hooks("general", DatabaseResource())
        init()
        clock.advance(3.0)  # the worker parses, renders, idles
        app.getconn().execute("SELECT id FROM u")
        clock.advance(0.75)
        cleanup()
        entry = stats.connection_utilization()["general"]
        assert entry["held_seconds"] == pytest.approx(4.0)
        assert entry["busy_seconds"] == pytest.approx(0.25)
        assert entry["busy_fraction"] == pytest.approx(0.0625)

    def test_per_request_lease_spans_the_handler(self):
        manager, app, stats, clock = manual_ledger()
        resource = DatabaseResource(strategy=LeaseStrategy.LEASED_PER_REQUEST)
        clock.advance(2.0)  # before the handler: not held
        with manager.request_scope("worker", resource):
            clock.advance(1.0)
            app.getconn().execute("SELECT id FROM u")
        clock.advance(2.0)  # after the handler: not held
        entry = stats.connection_utilization()["worker"]
        assert entry["held_seconds"] == pytest.approx(1.25)
        assert entry["busy_seconds"] == pytest.approx(0.25)

    def test_per_query_leases_are_always_busy(self):
        manager, app, stats, clock = manual_ledger()
        init, cleanup = manager.worker_hooks(
            "worker", DatabaseResource(strategy=LeaseStrategy.LEASED_PER_QUERY)
        )
        init()
        connection = app.getconn()
        connection.execute("SELECT id FROM u")
        clock.advance(10.0)  # idle between statements: no lease held
        connection.execute("SELECT id FROM u")
        cleanup()
        entry = stats.connection_utilization()["worker"]
        assert entry["leases"] == 2
        assert entry["held_seconds"] == pytest.approx(0.5)
        assert entry["busy_fraction"] == pytest.approx(1.0)
