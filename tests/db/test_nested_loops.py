"""Join edge cases of the generated scan: each join is a nested loop
over its bucket, and these pin what a join-at-a-time evaluation gives
— rows, row order and charged counts."""

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.schema import create_schema


@pytest.fixture
def db():
    database = Database()
    database.executescript("""
        CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(20),
                           i_a_id INT, i_tag VARCHAR(10));
        CREATE TABLE author (a_id INT PRIMARY KEY, a_lname VARCHAR(20),
                             a_tag VARCHAR(10));
        CREATE TABLE empty (e_id INT PRIMARY KEY, e_tag VARCHAR(10));
    """)
    database.execute("INSERT INTO author (a_id, a_lname, a_tag) VALUES "
                     "(1, 'Doe', 'x'), (2, 'Roe', 'y'), (3, 'Poe', 'x')")
    database.execute("INSERT INTO item (i_id, i_title, i_a_id, i_tag) VALUES "
                     "(10, 'Alpha', 1, 'x'), (11, 'Orphan', 99, 'z'), "
                     "(12, 'Beta', 2, 'y')")
    return database


def counted(database, sql, params=()):
    """Rows of one statement and the counts it charged."""
    database.cost_model.reset()
    rows = database.execute(sql, params).rows
    counts = {op: n for op, n in database.cost_model.counts().items() if n}
    return rows, counts


def test_left_join_without_match_pads_with_nulls_and_counts_no_match(db):
    rows, counts = counted(
        db, "SELECT i_title, a_lname FROM item "
            "LEFT JOIN author ON i_a_id = a_id WHERE i_id = 11")
    assert rows == [("Orphan", None)]
    # One driving probe plus one join probe; neither fetched a row for
    # the join, only the driving row.
    assert counts == {"statement": 1, "index_probe": 2, "index_row": 1,
                      "row_emit": 1}


def test_inner_join_without_match_drops_the_row(db):
    rows, counts = counted(
        db, "SELECT i_title, a_lname FROM item "
            "JOIN author ON i_a_id = a_id WHERE i_id = 11")
    assert rows == []
    assert counts == {"statement": 1, "index_probe": 2, "index_row": 1}


def test_left_join_on_a_row_deleted_in_the_same_transaction(db):
    with ConnectionPool(db, size=1).lease() as connection:
        connection.begin()
        connection.execute("DELETE FROM author WHERE a_id = %s", (2,))
        cursor = connection.execute(
            "SELECT i_title, a_lname FROM item "
            "LEFT JOIN author ON i_a_id = a_id ORDER BY i_id")
        assert cursor.fetchall() == [
            ("Alpha", "Doe"), ("Orphan", None), ("Beta", None)]
        connection.rollback()
    assert db.execute("SELECT a_lname FROM author WHERE a_id = 2").rows == [
        ("Roe",)]


def test_unindexed_join_under_empty_driving_table_charges_its_build_scan(db):
    rows, counts = counted(
        db, "SELECT e_id, a_lname FROM empty JOIN author ON e_tag = a_tag")
    assert rows == []
    # The driving scan saw no rows; the join still scanned author's
    # three rows to build its hash table, and probed nothing.
    assert counts == {"statement": 1, "row_scan": 3}


def test_unindexed_join_charges_build_probes_and_matches(db):
    rows, counts = counted(
        db, "SELECT i_title, a_lname FROM item JOIN author ON i_tag = a_tag")
    assert rows == [("Alpha", "Doe"), ("Alpha", "Poe"), ("Beta", "Roe")]
    assert counts == {"statement": 1, "row_scan": 3 + 3, "join_probe": 3,
                      "row_emit": 3 + 3}


def test_multi_match_index_join_keeps_bucket_order():
    database = Database()
    database.executescript("""
        CREATE TABLE orders (o_id INT PRIMARY KEY);
        CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT);
        CREATE INDEX idx_order_line_order ON order_line (ol_o_id);
    """)
    database.execute("INSERT INTO orders (o_id) VALUES (1), (2), (3)")
    # Interleaved, so each order's lines are not adjacent row ids.
    for ol_id, o_id in [(50, 2), (40, 1), (30, 2), (20, 3), (10, 1)]:
        database.execute("INSERT INTO order_line (ol_id, ol_o_id) "
                         "VALUES (%s, %s)", (ol_id, o_id))
    rows = database.execute(
        "SELECT o_id, ol_id FROM orders JOIN order_line ON ol_o_id = o_id"
    ).rows
    assert rows == [(1, 40), (1, 10), (2, 50), (2, 30), (3, 20)]


def test_order_line_join_order_matches_join_at_a_time_on_tpcw():
    """Orders driving a join on ``order_line.ol_o_id`` (a non-unique
    index): rows come in driving order, and within one order in the
    order of a copy of its index bucket."""
    database = Database()
    create_schema(database)
    populate(database, PopulationScale.tiny())
    orders, lines = database.table("orders"), database.table("order_line")
    buckets = lines.index_on("ol_o_id").buckets
    expected = [
        (order["o_id"], lines.rows[row_id]["ol_id"])
        for order in orders.rows.values()
        for row_id in set(buckets.get(order["o_id"], ()))
    ]
    rows = database.execute(
        "SELECT o_id, ol_id FROM orders JOIN order_line ON ol_o_id = o_id"
    ).rows
    assert len(rows) == len(lines.rows)
    assert rows == expected
