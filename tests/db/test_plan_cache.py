"""Compiled-plan caching in the engine: compile once per statement (its
plan and its table lock needs), recompile after schema changes, share
plans safely across threads."""

import sys
import threading

import pytest

from repro.db import engine as engine_module
from repro.db.engine import Database
from repro.db.errors import ColumnError, TableError
from repro.db.locks import LockMode
from repro.db.table import Column


@pytest.fixture
def compiles(monkeypatch):
    """Counts calls of the engine's statement compiler."""
    calls = []
    real = engine_module.compile_statement

    def counting(statement, tables):
        calls.append(statement)
        return real(statement, tables)

    monkeypatch.setattr(engine_module, "compile_statement", counting)
    return calls


@pytest.fixture
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), v INT);"
    )
    for i, name in enumerate(["alpha", "beta", "gamma", "alphabet"]):
        database.execute("INSERT INTO t (id, name, v) VALUES (%s, %s, %s)",
                         (i, name, i % 2))
    return database


def test_repeated_statement_compiles_once(db, compiles):
    for value in range(5):
        db.execute("SELECT name FROM t WHERE v = %s", (value % 2,))
    assert len(compiles) == 1


def test_create_index_recompiles_and_the_plan_uses_it(db, compiles):
    sql = "SELECT name FROM t WHERE v = %s"
    db.cost_model.reset()
    db.execute(sql, (1,))
    assert db.cost_model.counts()["row_scan"] == 4
    db.execute("CREATE INDEX idx_v ON t (v)")
    db.cost_model.reset()
    assert sorted(db.execute(sql, (1,)).rows) == [("alphabet",), ("beta",)]
    counts = db.cost_model.counts()
    assert (counts["row_scan"], counts["index_probe"]) == (0, 1)
    assert len(compiles) == 3  # SELECT, CREATE INDEX, SELECT again


def test_lock_needs_are_computed_with_the_plan(db, monkeypatch):
    calls = []
    real = Database._lock_needs

    def counting(self, statement):
        calls.append(statement)
        return real(self, statement)

    monkeypatch.setattr(Database, "_lock_needs", counting)
    sql = "UPDATE t SET v = %s WHERE id IN (SELECT id FROM t WHERE v = %s)"
    for value in range(3):
        db.execute(sql, (value, value % 2))
    assert len(calls) == 1
    assert db._compiled(db.prepare(sql))[2] == {"t": LockMode.EXCLUSIVE}
    db.execute("CREATE INDEX idx_v ON t (v)")
    db.execute(sql, (0, 1))
    assert len(calls) == 3  # UPDATE, CREATE INDEX, UPDATE again


@pytest.mark.parametrize("sql, needs", [
    ("SELECT id IN (SELECT id FROM u) FROM t",
     {"t": LockMode.SHARED, "u": LockMode.SHARED}),
    ("UPDATE t SET v = id IN (SELECT id FROM u) WHERE id = 1",
     {"t": LockMode.EXCLUSIVE, "u": LockMode.SHARED}),
    ("INSERT INTO t (id, v) VALUES (9, 1 IN (SELECT id FROM u))",
     {"t": LockMode.SHARED, "u": LockMode.SHARED}),
])
def test_lock_needs_reach_subqueries_outside_where(db, sql, needs):
    db.execute("CREATE TABLE u (id INT PRIMARY KEY)")
    db.execute(sql)
    assert db._compiled(db.prepare(sql))[2] == needs


def test_recreated_table_binds_its_new_columns(db):
    sql = "SELECT w FROM t"
    with pytest.raises(ColumnError):
        db.execute(sql)
    db.drop_table("t")
    with pytest.raises(TableError):
        db.execute(sql)
    db.create_table("t", [Column("w", "INT")])
    db.table("t").insert({"w": 7})
    assert db.execute(sql).rows == [(7,)]


def test_unknown_column_raises_only_when_a_row_is_evaluated(db):
    sql = "SELECT nope FROM t WHERE id = %s"
    assert db.execute(sql, (99,)).rows == []
    with pytest.raises(ColumnError, match="unknown column 'nope'"):
        db.execute(sql, (1,))


def test_threads_share_plans_without_mixing_parameters(db):
    """More threads than cores hammer the same cached plans with
    different parameters under a tiny switch interval; every result
    must equal the serial one."""
    for i in range(4, 300):
        db.execute("INSERT INTO t (id, name, v) VALUES (%s, %s, %s)",
                   (i, f"{'ab'[i % 2]}{i}x", i % 3))
    queries = [
        ("SELECT id FROM t WHERE name LIKE %s ORDER BY id", (pattern,))
        for pattern in ("alpha%", "%ta", "%a%", "a1%", "%0x", "zzz")
    ] + [("SELECT name FROM t WHERE id = %s", (i,)) for i in range(4)]
    expected = [db.execute(sql, params).rows for sql, params in queries]
    errors = []

    def worker(offset):
        try:
            for step in range(100):
                index = (offset + step) % len(queries)
                sql, params = queries[index]
                assert db.execute(sql, params).rows == expected[index]
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
