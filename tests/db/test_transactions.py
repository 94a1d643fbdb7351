"""Transaction tests: BEGIN/COMMIT/ROLLBACK atomicity."""

import threading

import pytest

from repro.db.connection import Connection
from repro.db.cost import CostModel
from repro.db.engine import Database
from repro.db.transactions import TransactionError, UndoLog


@pytest.fixture()
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT, "
        "name VARCHAR(20))"
    )
    database.execute("INSERT INTO t (v, name) VALUES (1, 'one'), (2, 'two')")
    return database


@pytest.fixture()
def conn(db):
    return Connection(db)


class TestCommit:
    def test_commit_keeps_writes(self, conn, db):
        conn.begin()
        conn.execute("INSERT INTO t (v, name) VALUES (3, 'three')")
        conn.commit()
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(3,)]

    def test_sql_level_statements(self, conn, db):
        conn.execute("START TRANSACTION")
        conn.execute("UPDATE t SET v = 10 WHERE id = 1")
        conn.execute("COMMIT")
        assert db.execute("SELECT v FROM t WHERE id = 1").rows == [(10,)]

    def test_writes_visible_before_commit(self, conn, db):
        # MyISAM-style: atomicity, not isolation (DESIGN.md).
        conn.begin()
        conn.execute("INSERT INTO t (v, name) VALUES (3, 'x')")
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(3,)]
        conn.commit()


class TestRollback:
    def test_rollback_undoes_insert(self, conn, db):
        conn.begin()
        conn.execute("INSERT INTO t (v, name) VALUES (3, 'three')")
        undone = conn.rollback()
        assert undone == 1
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(2,)]

    def test_rollback_undoes_update(self, conn, db):
        conn.begin()
        conn.execute("UPDATE t SET v = 99, name = 'changed' WHERE id = 1")
        conn.rollback()
        assert db.execute(
            "SELECT v, name FROM t WHERE id = 1"
        ).rows == [(1, "one")]

    def test_rollback_undoes_delete(self, conn, db):
        conn.begin()
        conn.execute("DELETE FROM t WHERE id = 2")
        conn.rollback()
        assert db.execute(
            "SELECT v, name FROM t WHERE id = 2"
        ).rows == [(2, "two")]

    def test_rollback_restores_indexes(self, conn, db):
        conn.begin()
        conn.execute("DELETE FROM t WHERE id = 2")
        conn.rollback()
        # PK index must find the restored row again.
        before = db.cost_model.counts()["row_scan"]
        assert db.execute("SELECT name FROM t WHERE id = 2").rows == [("two",)]
        assert db.cost_model.counts()["row_scan"] == before

    def test_rollback_multi_statement_lifo(self, conn, db):
        conn.begin()
        conn.execute("INSERT INTO t (v, name) VALUES (3, 'a')")
        conn.execute("UPDATE t SET v = v + 100 WHERE id = 1")
        conn.execute("DELETE FROM t WHERE id = 2")
        conn.rollback()
        rows = db.execute("SELECT id, v, name FROM t ORDER BY id").rows
        assert rows == [(1, 1, "one"), (2, 2, "two")]

    def test_rollback_update_of_inserted_row(self, conn, db):
        conn.begin()
        cursor = conn.execute("INSERT INTO t (v, name) VALUES (3, 'a')")
        new_id = cursor.lastrowid
        conn.execute("UPDATE t SET v = 9 WHERE id = %s", (new_id,))
        conn.rollback()
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE id = %s", (new_id,)
        ).rows == [(0,)]

    def test_multi_row_statement_fully_undone(self, conn, db):
        conn.begin()
        conn.execute("UPDATE t SET v = 0")
        conn.rollback()
        assert db.execute("SELECT SUM(v) FROM t").rows == [(3,)]


class TestTransactionScope:
    def test_scope_commits_on_success(self, conn, db):
        with conn.transaction():
            conn.execute("INSERT INTO t (v, name) VALUES (3, 'x')")
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(3,)]

    def test_scope_rolls_back_on_exception(self, conn, db):
        with pytest.raises(RuntimeError):
            with conn.transaction():
                conn.execute("INSERT INTO t (v, name) VALUES (3, 'x')")
                raise RuntimeError("handler bug mid-purchase")
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(2,)]

    def test_tpcw_buy_confirm_atomicity(self):
        """The motivating case: a failed buy-confirm leaves no
        half-written order behind."""
        from repro.db.pool import ConnectionPool
        from repro.tpcw.population import PopulationScale, populate
        from repro.tpcw.schema import create_schema

        database = Database()
        create_schema(database)
        populate(database, PopulationScale.tiny())
        pool = ConnectionPool(database, 1)
        before = database.row_counts()
        with pool.lease() as connection:
            with pytest.raises(RuntimeError):
                with connection.transaction():
                    connection.execute(
                        "INSERT INTO orders (o_c_id, o_date, o_total, "
                        "o_status) VALUES (1, '2008-06-01', 10.0, 'PENDING')"
                    )
                    connection.execute(
                        "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty) "
                        "VALUES (999, 1, 1)"
                    )
                    raise RuntimeError("payment authorisation failed")
        assert database.row_counts() == before


class TestErrors:
    def test_nested_begin_rejected(self, conn):
        conn.begin()
        with pytest.raises(TransactionError):
            conn.begin()

    def test_commit_without_begin_rejected(self, conn):
        with pytest.raises(TransactionError):
            conn.commit()

    def test_rollback_without_begin_rejected(self, conn):
        with pytest.raises(TransactionError):
            conn.rollback()

    def test_transactions_per_connection_independent(self, db):
        a, b = Connection(db), Connection(db)
        a.begin()
        b.begin()
        a.execute("INSERT INTO t (v, name) VALUES (10, 'a')")
        b.execute("INSERT INTO t (v, name) VALUES (20, 'b')")
        a.rollback()
        b.commit()
        values = {row[0] for row in db.execute("SELECT v FROM t")}
        assert 20 in values and 10 not in values

    def test_writes_outside_transaction_not_logged(self, conn, db):
        conn.execute("INSERT INTO t (v, name) VALUES (3, 'x')")
        with pytest.raises(TransactionError):
            conn.rollback()
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(3,)]


class TestUndoLog:
    def test_rollback_returns_count_and_clears(self, db):
        log = UndoLog()
        table = db.table("t")
        table.insert({"v": 5, "name": "x"})
        log.record_insert(table, table.last_internal_row_id)
        assert len(log) == 1
        assert log.rollback() == 1
        assert len(log) == 0
        assert log.rollback() == 0

    def test_undo_insert_tolerates_already_deleted(self, db):
        log = UndoLog()
        table = db.table("t")
        table.insert({"v": 5, "name": "x"})
        row_id = table.last_internal_row_id
        log.record_insert(table, row_id)
        table.delete_row(row_id)
        log.rollback()  # must not raise


class _PausingCostModel(CostModel):
    """Parks the first row write, once armed, until ``resume`` is set."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.paused = threading.Event()
        self.resume = threading.Event()

    def charge(self, operation, count=1):
        cost = super().charge(operation, count)
        if operation == "row_write" and self.armed:
            self.armed = False
            self.paused.set()
            self.resume.wait(timeout=10)
        return cost


class TestConcurrentStatements:
    def test_rollback_survives_a_statement_run_mid_insert(self):
        """Per-statement executor state is not shared: a SELECT that
        runs while a transactional INSERT is between rows must not
        detach the INSERT's undo log, so ROLLBACK removes every row."""
        cost = _PausingCostModel()
        database = Database(cost_model=cost)
        database.execute(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)")
        conn = Connection(database)
        errors = []

        def writer():
            try:
                conn.begin()
                conn.execute("INSERT INTO t (v) VALUES (1), (2)")
                conn.rollback()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        cost.armed = True
        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert cost.paused.wait(timeout=10)
            # The writer is parked after its first row; MyISAM-style
            # concurrent insert lets this SELECT run to completion.
            assert database.execute("SELECT COUNT(*) FROM t").rows == [(1,)]
        finally:
            cost.resume.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not errors
        assert database.execute("SELECT COUNT(*) FROM t").rows == [(0,)]
