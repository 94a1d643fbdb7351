"""Hostile text through the generated SQL plans: string literals,
parameters and LIKE patterns that look like Python come back as data,
and none of them reaches the generated source."""

import pytest

from repro.db.engine import Database
from repro.db.sql.executor import compile_statement

HOSTILE = [
    "__import__('os').system('echo owned')",
    "') or __import__('os') or ('",
    '" + __import__("os").getcwd() + "',
    "back\\slash\\' and \\\"quotes\\\"",
    "line one\nline two\r\n\tindented",
    "x'; DROP TABLE t; --",
    "{0.__class__.__mro__}",
]


def sql_string(text):
    """``text`` as a SQL string literal (quotes doubled)."""
    return "'" + text.replace("'", "''") + "'"


@pytest.fixture
def db():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(200), n INT);"
        "CREATE TABLE u (u_id INT PRIMARY KEY, u_name VARCHAR(200));"
    )
    for i, text in enumerate(HOSTILE):
        database.execute("INSERT INTO t (id, name, n) VALUES (%s, %s, %s)",
                         (i, text, i))
        database.execute("INSERT INTO u (u_id, u_name) VALUES (%s, %s)",
                         (i, text))
    return database


def assert_not_in_source(database, sql, texts):
    source = compile_statement(database.prepare(sql), database.tables).generated_source
    assert source.startswith("def ")
    for text in texts:
        assert text not in source
    assert "__import__" not in source and "DROP" not in source


@pytest.mark.parametrize("index", range(len(HOSTILE)))
def test_literal_compares_and_projects_as_data(db, index):
    text = HOSTILE[index]
    sql = (f"SELECT id, {sql_string(text)} AS echo FROM t "
           f"WHERE name = {sql_string(text)}")
    assert db.execute(sql).rows == [(index, text)]
    assert_not_in_source(db, sql, [text])


@pytest.mark.parametrize("index", range(len(HOSTILE)))
def test_parameters_bind_as_data(db, index):
    text = HOSTILE[index]
    sql = ("SELECT t.id, u_name FROM t JOIN u ON u_id = n "
           "WHERE u_name = %s AND name IN (%s, 'x') ORDER BY t.id")
    assert db.execute(sql, (text, text)).rows == [(index, text)]
    assert_not_in_source(db, sql, [text])


@pytest.mark.parametrize("index", range(len(HOSTILE)))
def test_like_patterns_match_as_data(db, index):
    text = HOSTILE[index]
    constant = f"SELECT id FROM t WHERE name LIKE {sql_string(text)}"
    parameterised = "SELECT id FROM t WHERE name LIKE %s"
    # Each text, as a pattern, matches only itself; so does any long
    # enough suffix of it after a %.
    assert db.execute(constant).rows == [(index,)]
    assert db.execute(parameterised, (text,)).rows == [(index,)]
    assert db.execute(parameterised, ("%" + text[3:],)).rows == [(index,)]
    assert_not_in_source(db, constant, [text])


def test_writes_bind_hostile_values_as_data(db):
    text = HOSTILE[0]
    statements = [
        f"INSERT INTO t (id, name, n) VALUES (100, {sql_string(text)}, 1)",
        f"UPDATE t SET name = {sql_string(text + '!')} WHERE name = {sql_string(text)}",
        f"DELETE FROM t WHERE name LIKE {sql_string(text + '%')} AND n = %s",
    ]
    for sql in statements:
        assert_not_in_source(db, sql, [text])
    db.execute(statements[0])
    assert db.execute(statements[1]).rowcount == 2
    assert db.execute("SELECT id FROM t WHERE name = %s ORDER BY id",
                      (text + "!",)).rows == [(0,), (100,)]
    assert db.execute(statements[2], (1,)).rowcount == 1
