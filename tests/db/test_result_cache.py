"""SELECT result reuse in the engine: a hit charges, sleeps and locks
exactly as executing would; every kind of write, rollback and schema
change invalidates; a change that lands mid-statement is never stored;
the cache is a bounded LRU."""

import threading
import time

import pytest

from repro.db import engine as engine_module
from repro.db.connection import Connection
from repro.db.cost import CostModel, SleepingCostModel
from repro.db.engine import Database
from repro.db.errors import IntegrityError
from repro.db.locks import LockMode
from repro.db.table import Column

SCAN = "SELECT name FROM t WHERE v = %s ORDER BY id"
#: The join-product counters of a run whose SELECTs join nothing.
NO_PRODUCTS = dict(product_hits=0, product_misses=0, product_refused=0)


class SettlingCostModel(CostModel):
    """Records each statement's settled cost."""

    def __init__(self):
        super().__init__()
        self.settled = []

    def settle(self, statement_cost):
        super().settle(statement_cost)
        self.settled.append(statement_cost)


def make_db(cost_model=None):
    database = Database(cost_model=cost_model or SettlingCostModel())
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), v INT);"
        "CREATE TABLE u (id INT PRIMARY KEY, w INT);"
    )
    for i, name in enumerate(["alpha", "beta", "gamma", "delta"]):
        database.execute("INSERT INTO t (id, name, v) VALUES (%s, %s, %s)",
                         (i, name, i % 2))
    return database


@pytest.fixture
def db():
    return make_db()


def stats(database):
    return database.result_cache_stats()


def charged(database, sql, params=()):
    """``(rows, counts delta, costs settled)`` of one execution."""
    cost = database.cost_model
    counts, settled = cost.counts(), len(cost.settled)
    rows = database.execute(sql, params).rows
    after = cost.counts()
    return (rows, {op: after[op] - counts[op] for op in after},
            cost.settled[settled:])


class TestExactness:
    def test_hit_replays_counts_cost_and_statements(self, db):
        miss = charged(db, SCAN, (1,))
        hit = charged(db, SCAN, (1,))
        assert stats(db)["hits"] == 1
        assert hit == miss
        assert miss[0] == [("beta",), ("delta",)] and len(miss[2]) == 1
        assert db.cost_model.statements == 8  # 2 CREATEs, 4 INSERTs, miss, hit

    def test_join_group_and_subquery_replay(self, db):
        db.execute("INSERT INTO u (id, w) VALUES (1, 5), (3, 7)")
        sql = ("SELECT t.v, COUNT(*) FROM t JOIN u ON u.id = t.id "
               "WHERE t.id IN (SELECT id FROM u WHERE w > %s) GROUP BY t.v")
        miss = charged(db, sql, (4,))
        hit = charged(db, sql, (4,))
        assert stats(db)["hits"] == 1
        assert hit == miss and miss[0] == [(1, 2)]

    def test_hit_sleeps_what_the_miss_slept(self):
        slept = []
        database = make_db(SleepingCostModel(scale=2.0, sleep=slept.append))
        del slept[:]
        database.execute(SCAN, (0,))
        miss = list(slept)
        database.execute(SCAN, (0,))
        assert stats(database)["hits"] == 1
        assert len(miss) == 1 and slept == miss + miss

    def test_hit_returns_its_own_rows_list(self, db):
        first = db.execute(SCAN, (1,))
        first.rows.append(("junk",))
        second = db.execute(SCAN, (1,))
        second.rows.clear()
        assert db.execute(SCAN, (1,)).rows == [("beta",), ("delta",)]
        assert stats(db)["hits"] == 2

    def test_parameters_are_keyed_by_type(self, db):
        sql = "SELECT %s FROM t WHERE id = 0"
        for value in (1, 1.0, True, 0.0, -0.0):
            [(echo,)] = db.execute(sql, (value,)).rows
            assert type(echo) is type(value) and repr(echo) == repr(value)
        assert stats(db) == dict(NO_PRODUCTS, hits=0, misses=5, refused=0,
                                 evictions=0, entries=5)

    def test_unhashable_parameters_bypass_the_cache(self, db):
        sql = "SELECT id FROM t WHERE name = %s"
        for _ in range(2):
            assert db.execute(sql, (["alpha"],)).rows == []
        assert stats(db) == dict(NO_PRODUCTS, hits=0, misses=0, refused=0,
                                 evictions=0, entries=0)


class TestInvalidation:
    def assert_invalidated(self, db, write, expected):
        db.execute(SCAN, (1,))
        write(db)
        before = stats(db)
        assert db.execute(SCAN, (1,)).rows == expected
        assert stats(db)["misses"] == before["misses"] + 1

    def test_insert(self, db):
        self.assert_invalidated(
            db, lambda d: d.execute("INSERT INTO t (id, name, v) VALUES "
                                    "(9, 'omega', 1)"),
            [("beta",), ("delta",), ("omega",)])

    def test_update(self, db):
        self.assert_invalidated(
            db, lambda d: d.execute("UPDATE t SET v = 1 WHERE id = 0"),
            [("alpha",), ("beta",), ("delta",)])

    def test_update_that_fails_partway(self, db):
        """MyISAM keeps a failed UPDATE's earlier column changes; so must
        a cached read of them."""
        sql = "SELECT name FROM t WHERE id = 0"
        assert db.execute(sql).rows == [("alpha",)]
        with pytest.raises(IntegrityError):
            db.execute("UPDATE t SET name = 'omega', id = 1 WHERE id = 0")
        assert db.execute(sql).rows == [("omega",)]

    def test_delete(self, db):
        self.assert_invalidated(
            db, lambda d: d.execute("DELETE FROM t WHERE id = 1"),
            [("delta",)])

    def test_rolled_back_transaction(self, db):
        connection = Connection(db)
        connection.begin()
        connection.execute("DELETE FROM t WHERE id = 1")
        assert connection.execute(SCAN, (1,)).fetchall() == [("delta",)]
        connection.rollback()
        assert db.execute(SCAN, (1,)).rows == [("beta",), ("delta",)]
        assert stats(db)["hits"] == 0

    def test_sql_create_index(self, db):
        self.assert_invalidated(
            db, lambda d: d.execute("CREATE INDEX idx_v ON t (v)"),
            [("beta",), ("delta",)])

    def test_direct_create_index_moves_charges_to_a_probe(self, db):
        scan = charged(db, SCAN, (1,))
        db.table("t").create_index("idx_v", "v")
        probe = charged(db, SCAN, (1,))
        assert stats(db)["hits"] == 0
        assert probe[0] == scan[0]
        assert (scan[1]["row_scan"], scan[1]["index_probe"]) == (4, 0)
        assert (probe[1]["row_scan"], probe[1]["index_probe"]) == (0, 1)

    def test_create_table_and_drop_table(self, db):
        db.execute(SCAN, (1,))
        db.create_table("x", [Column("a", "INT")])
        assert stats(db)["entries"] == 0
        db.execute(SCAN, (1,))
        db.drop_table("x")
        assert stats(db)["entries"] == 0
        db.execute(SCAN, (1,))
        assert stats(db)["hits"] == 0

    def test_write_to_another_table_keeps_the_entry(self, db):
        db.execute(SCAN, (1,))
        db.execute("INSERT INTO u (id, w) VALUES (1, 1)")
        db.execute(SCAN, (1,))
        assert stats(db)["hits"] == 1

    @pytest.mark.parametrize("sql", [
        "SELECT name FROM t WHERE id IN (SELECT id FROM u)",
        "SELECT id, id IN (SELECT id FROM u) FROM t ORDER BY id",
        "SELECT name FROM t ORDER BY id IN (SELECT id FROM u), id",
        "SELECT COUNT(*) FROM t GROUP BY id IN (SELECT id FROM u)",
        "SELECT SUM(id IN (SELECT id FROM u)) FROM t",
        "SELECT v FROM t GROUP BY v HAVING MAX(v) IN (SELECT w FROM u)",
        "SELECT name FROM t WHERE 1 IN (id IN (SELECT id FROM u), 2)",
        "SELECT name FROM t WHERE (id IN (SELECT id FROM u)) IN (1)",
        "SELECT name FROM t WHERE id BETWEEN (id IN (SELECT id FROM u)) "
        "+ id AND 9",
        "SELECT name FROM t WHERE 'True' LIKE (id IN (SELECT id FROM u))",
        "SELECT name FROM t WHERE id IN "
        "(SELECT id FROM t WHERE id IN (SELECT id FROM u))",
    ], ids=["where", "select-list", "order-by", "group-by", "aggregate",
            "having", "in-list", "in-operand", "between", "like", "nested"])
    def test_subquery_table_write_invalidates(self, db, sql):
        """A subquery's table is read wherever the parser accepts one, so
        a write to it must invalidate wherever it sits."""
        before = db.execute(sql).rows
        write = "INSERT INTO u (id, w) VALUES (2, 1)"
        db.execute(write)
        uncached = make_db()
        uncached.execute(write)
        expected = uncached.execute(sql).rows
        assert expected != before
        assert db.execute(sql).rows == expected
        assert stats(db)["hits"] == 0


class InsertingCostModel(CostModel):
    """Inserts one row into ``table`` at its first ``row_scan`` charge:
    a MyISAM concurrent insert landing mid-statement."""

    def __init__(self):
        super().__init__()
        self.table = None

    def charge(self, operation, count=1):
        if operation == "row_scan" and self.table is not None:
            table, self.table = self.table, None
            table.insert({"id": 9, "name": "omega", "v": 1})
        return super().charge(operation, count)


def test_change_during_a_miss_is_not_stored():
    database = make_db(InsertingCostModel())
    database.cost_model.table = database.table("t")
    database.execute(SCAN, (1,))
    assert stats(database)["refused"] == 1
    assert stats(database)["entries"] == 0
    assert database.execute(SCAN, (1,)).rows == [
        ("beta",), ("delta",), ("omega",)]
    assert stats(database)["misses"] == 2
    database.execute(SCAN, (1,))
    assert stats(database)["hits"] == 1


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def test_hit_queues_behind_a_waiting_writer(db):
    """FIFO: a SELECT whose result is cached still takes its shared
    lock, so it waits behind a queued UPDATE and then sees its write."""
    db.execute(SCAN, (1,))
    db.locks.acquire("t", LockMode.SHARED)
    order = []
    results = []

    def writer():
        db.execute("UPDATE t SET v = 1 WHERE id = 0")
        order.append("writer")

    def reader():
        results.append(db.execute(SCAN, (1,)).rows)
        order.append("reader")

    threads = [threading.Thread(target=writer)]
    threads[0].start()
    wait_until(lambda: db.locks.queue_length("t") == 1)
    threads.append(threading.Thread(target=reader))
    threads[1].start()
    wait_until(lambda: db.locks.queue_length("t") == 2)
    assert order == []
    db.locks.release("t", LockMode.SHARED)
    for thread in threads:
        thread.join(timeout=10)
    assert order == ["writer", "reader"]
    assert results == [[("alpha",), ("beta",), ("delta",)]]


def test_faults_fire_on_hits(db):
    class CountingFaults:
        calls = 0

        def on_db_query(self):
            self.calls += 1

    db.faults = CountingFaults()
    for _ in range(3):
        db.execute(SCAN, (1,))
    assert db.faults.calls == 3
    assert stats(db)["hits"] == 2


def test_bounded_lru():
    database = make_db()
    limit = engine_module.RESULT_CACHE_LIMIT
    sql = "SELECT name FROM t WHERE id = %s"
    for key in range(limit + 3):
        database.execute(sql, (key,))
        database.execute(SCAN, (1,))  # kept fresh: never the oldest
    assert stats(database)["entries"] == limit
    assert stats(database)["evictions"] == 4  # keys 0..3 (1 entry is SCAN)
    before = stats(database)["hits"]
    database.execute(SCAN, (1,))
    database.execute(sql, (limit + 2,))
    assert stats(database)["hits"] == before + 2
    database.execute(sql, (0,))
    assert stats(database)["hits"] == before + 2
