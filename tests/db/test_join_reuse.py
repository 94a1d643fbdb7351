"""Join reuse: a SELECT that fully scans its driving table and joins at
least one table keeps its pre-WHERE product per plan, and later
executions with any parameters only filter it and replay the charges
that built it.  Every execution must return, charge, settle and sleep
exactly what building afresh would; every write to a joined table, a
rollback and an index change must rebuild; a change that lands
mid-build is never kept; and a WHERE that raises leaves the same
charges as the fused scan-and-filter loop did."""

import pytest

from repro.db.connection import Connection
from repro.db.cost import SleepingCostModel
from repro.db.engine import Database
from repro.db.errors import ProgrammingError

#: Three-way join: ``orders`` by its primary-key index, ``customer`` by
#: a hash table built over the unindexed ``ref`` (a LEFT JOIN: orders
#: 7-12 have no customer), grouped, ordered and limited.
GROUPED = ("SELECT c.region, COUNT(*), SUM(l.qty) FROM line l "
           "JOIN orders o ON l.o_id = o.id "
           "LEFT JOIN customer c ON o.c_ref = c.ref "
           "WHERE o.total > %s AND l.qty < %s "
           "GROUP BY c.region ORDER BY 3 DESC, 1 LIMIT 3")
#: The same join ungrouped: ties in ``o.total`` keep the product's order.
ORDERED = ("SELECT l.id, o.total, c.region FROM line l "
           "JOIN orders o ON l.o_id = o.id "
           "LEFT JOIN customer c ON o.c_ref = c.ref "
           "WHERE o.total > %s AND l.qty < %s "
           "ORDER BY o.total DESC LIMIT 7")
#: Filtered on the driving table's ``tag``, which no index covers.
BY_TAG = ("SELECT l.id, o.total, c.region FROM line l "
          "JOIN orders o ON l.o_id = o.id "
          "LEFT JOIN customer c ON o.c_ref = c.ref "
          "WHERE l.tag = %s ORDER BY l.id")
PARAMETERS = [(0, 9), (10, 5), (25, 3), (49, 9), (-1, 0), (3, 8), (30, 6)]
LINES = 40


class RecordingCostModel(SleepingCostModel):
    """Records every charge call, every settled statement cost and
    every sleep, without sleeping."""

    def __init__(self):
        self.sleeps = []
        super().__init__(scale=1.0, sleep=self.sleeps.append)
        self.calls = []
        self.settled = []

    def charge(self, operation, count=1):
        self.calls.append((operation, count))
        return super().charge(operation, count)

    def settle(self, statement_cost):
        self.settled.append(statement_cost)
        super().settle(statement_cost)


def make_db(cost_model=None):
    database = Database(cost_model=cost_model or RecordingCostModel())
    database.executescript(
        "CREATE TABLE customer (id INT PRIMARY KEY, ref INT, region VARCHAR(8));"
        "CREATE TABLE orders (id INT PRIMARY KEY, c_ref INT, total INT);"
        "CREATE TABLE line (id INT PRIMARY KEY, o_id INT, qty INT, tag VARCHAR(4));"
    )
    for i in range(1, 7):
        database.execute("INSERT INTO customer (id, ref, region) VALUES (%s, %s, %s)",
                         (i, 9 + i, ["north", "south", "east"][i % 3]))
    for i in range(1, 13):
        database.execute("INSERT INTO orders (id, c_ref, total) VALUES (%s, %s, %s)",
                         (i, 9 + i, i * 7 % 50))
    for i in range(1, LINES + 1):
        database.execute("INSERT INTO line (id, o_id, qty, tag) VALUES (%s, %s, %s, %s)",
                         (i, i % 13 + 1, i % 9, "abc"[i % 3]))
    return database


def stats(database):
    return database.result_cache_stats()


def run(database, sql, params):
    """``(rows, counts delta, charge calls, settled costs, sleeps)`` of
    one execution."""
    cost = database.cost_model
    counts = cost.counts()
    marks = len(cost.calls), len(cost.settled), len(cost.sleeps)
    rows = database.execute(sql, params).rows
    after = cost.counts()
    return (rows, {op: after[op] - counts[op] for op in after},
            cost.calls[marks[0]:], cost.settled[marks[1]:], cost.sleeps[marks[2]:])


class TestExactness:
    @pytest.mark.parametrize("sql", [GROUPED, ORDERED], ids=["grouped", "ordered"])
    def test_reuse_equals_a_fresh_build(self, sql):
        database = make_db()
        reused = [run(database, sql, params) for params in PARAMETERS]
        fresh = [run(make_db(), sql, params) for params in PARAMETERS]
        assert reused == fresh
        assert stats(database)["product_misses"] == 1
        assert stats(database)["product_hits"] == len(PARAMETERS) - 1
        # The parameters matter: not every value reads the same rows.
        assert len({repr(record[0]) for record in fresh}) > 3

    def test_charges_come_in_the_fused_loop_order(self):
        database = make_db()
        for params in PARAMETERS[:2]:  # a build, then a reuse
            _, counts, calls, settled, sleeps = run(database, GROUPED, params)
            assert calls[:2] == [("statement", 1), ("row_scan", LINES)]
            # Each join's build scan (none for the index), probes and
            # matches, then grouping, sorting and emitting.
            assert [op for op, _ in calls[2:]] == [
                "index_probe", "index_row", "row_scan", "join_probe",
                "row_emit", "row_group", "row_sort", "row_emit"]
            assert calls[4] == ("row_scan", 6)
            assert settled == sleeps and len(settled) == 1
        assert stats(database)["product_hits"] == 1

    def test_result_cache_records_the_replayed_charges(self):
        database = make_db()
        run(database, GROUPED, PARAMETERS[0])
        reuse = run(database, GROUPED, PARAMETERS[1])
        hit = run(database, GROUPED, PARAMETERS[1])
        assert stats(database)["hits"] == 1
        assert hit == reuse

    def test_probe_driven_selects_keep_nothing(self):
        database = make_db()
        sql = BY_TAG.replace("l.tag = %s", "l.id = %s")
        for key in (1, 2, 3):
            assert run(database, sql, (key,))[1]["row_scan"] == 6
        assert stats(database)["product_misses"] == 0
        assert stats(database)["product_hits"] == 0

    def test_single_table_scans_keep_nothing(self):
        database = make_db()
        for tag in "abc":
            database.execute("SELECT id FROM line WHERE tag = %s", (tag,))
        assert stats(database)["product_misses"] == 0


def rebuilt(database, write, expected_change=True):
    """Build the product, apply ``write`` to this database and to a
    fresh one, and check the next execution rebuilds and matches."""
    fresh = make_db()
    before = fresh.execute(BY_TAG, ("b",)).rows
    database.execute(BY_TAG, ("a",))
    write(database)
    write(fresh)
    misses = stats(database)["product_misses"]
    rows = database.execute(BY_TAG, ("b",)).rows
    assert rows == fresh.execute(BY_TAG, ("b",)).rows
    assert (rows != before) == expected_change
    assert stats(database)["product_misses"] == misses + 1
    assert stats(database)["product_hits"] == 0


class TestInvalidation:
    @pytest.mark.parametrize("sql", [
        "INSERT INTO line (id, o_id, qty, tag) VALUES (100, 2, 1, 'b')",
        "INSERT INTO orders (id, c_ref, total) VALUES (13, 10, 5)",
        "INSERT INTO customer (id, ref, region) VALUES (7, 16, 'west')",
        "UPDATE line SET o_id = 3 WHERE id = 1",
        "UPDATE orders SET total = 99 WHERE id = 2",
        "UPDATE customer SET region = 'up' WHERE id = 1",
        "DELETE FROM line WHERE id = 4",
        "DELETE FROM orders WHERE id = 2",
        "DELETE FROM customer WHERE id = 1",
    ])
    def test_write_to_any_joined_table(self, sql):
        rebuilt(make_db(), lambda database: database.execute(sql))

    def test_rolled_back_transaction(self):
        database = make_db()

        def write_and_roll_back(db):
            if db is database:
                connection = Connection(db)
                connection.begin()
                connection.execute("UPDATE customer SET region = 'up' WHERE id = 1")
                assert ("up",) in {row[2:] for row in
                                   connection.execute(BY_TAG, ("c",)).fetchall()}
                connection.rollback()

        rebuilt(database, write_and_roll_back, expected_change=False)

    def test_sql_create_index_on_the_driving_column_probes(self):
        database = make_db()
        scan = run(database, BY_TAG, ("a",))
        database.execute("CREATE INDEX idx_tag ON line (tag)")
        probe = run(database, BY_TAG, ("b",))
        fresh = make_db()
        assert probe[0] == fresh.execute(BY_TAG, ("b",)).rows
        assert scan[1]["row_scan"] == LINES + 6
        assert probe[1]["row_scan"] == 6  # only the customer hash table
        # One probe of idx_tag, then one orders probe per 'b' line only.
        b_lines = sum(1 for i in range(1, LINES + 1) if "abc"[i % 3] == "b")
        assert scan[1]["index_probe"] == LINES
        assert probe[1]["index_probe"] == 1 + b_lines
        assert stats(database)["product_misses"] == 1

    def test_direct_create_index_on_the_driving_column_probes(self):
        database = make_db()
        run(database, BY_TAG, ("a",))
        database.table("line").create_index("idx_tag", "tag")
        probe = run(database, BY_TAG, ("b",))
        assert probe[1]["row_scan"] == 6
        assert stats(database)["product_misses"] == 1
        assert stats(database)["product_hits"] == 0

    def test_create_index_on_a_join_column_probes_it(self):
        database = make_db()
        hashed = run(database, BY_TAG, ("a",))
        database.execute("CREATE INDEX idx_ref ON customer (ref)")
        indexed = run(database, BY_TAG, ("b",))
        fresh = make_db()
        fresh.execute("CREATE INDEX idx_ref ON customer (ref)")
        assert indexed[0] == fresh.execute(BY_TAG, ("b",)).rows
        assert hashed[1]["join_probe"] > 0 and indexed[1]["join_probe"] == 0
        assert indexed[1]["index_probe"] == (hashed[1]["index_probe"]
                                             + hashed[1]["join_probe"])
        assert indexed[1]["row_scan"] == LINES
        assert stats(database)["product_misses"] == 2
        assert stats(database)["product_hits"] == 0


class InsertingCostModel(RecordingCostModel):
    """Inserts ``pending`` at the first ``row_scan`` charge: a MyISAM
    concurrent insert landing while the product is built."""

    pending = None

    def charge(self, operation, count=1):
        if operation == "row_scan" and self.pending is not None:
            (table, row), self.pending = self.pending, None
            table.insert(row)
        return super().charge(operation, count)


def test_insert_during_the_build_is_not_kept():
    database = make_db(InsertingCostModel())
    row = {"id": 100, "o_id": 2, "qty": 1, "tag": "b"}
    database.cost_model.pending = (database.table("line"), row)
    database.execute(BY_TAG, ("a",))
    assert stats(database)["product_refused"] == 1
    rows = database.execute(BY_TAG, ("b",)).rows
    assert stats(database)["product_misses"] == 2
    assert stats(database)["product_hits"] == 0
    fresh = make_db()
    fresh.table("line").insert(row)
    assert rows == fresh.execute(BY_TAG, ("b",)).rows
    database.execute(BY_TAG, ("c",))
    assert stats(database)["product_hits"] == 1


class TestErrorPath:
    def test_where_that_raises_leaves_only_the_driving_charges(self):
        """As the fused loop did: the statement and the driving scan are
        charged, no join is, and nothing settles; built or reused."""
        database = make_db()
        cost = database.cost_model
        for _ in range(2):
            marks = len(cost.calls), len(cost.settled)
            with pytest.raises(ProgrammingError, match="at least 2 parameters"):
                database.execute(GROUPED, (-1,))
            assert cost.calls[marks[0]:] == [("statement", 1), ("row_scan", LINES)]
            assert len(cost.settled) == marks[1]
        assert stats(database)["product_misses"] == 1
        assert stats(database)["product_hits"] == 1

    def test_a_reuse_after_an_error_is_exact(self):
        database = make_db()
        with pytest.raises(ProgrammingError):
            database.execute(GROUPED, (-1,))
        assert run(database, GROUPED, (0, 9)) == run(make_db(), GROUPED, (0, 9))
