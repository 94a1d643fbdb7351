"""The executor against stdlib ``sqlite3`` on every TPC-W statement.

The same population is loaded into both databases.  A browsing-mix
session (every page once, then a sampled run of the mix) executes
through the TPC-W handlers; each statement the profile module's
statement recorder captures is replayed on sqlite with the same
parameters, in lockstep, and the results must agree:

- SELECT rows as a multiset, in order where ORDER BY fixes it.  Rows
  tied on every ORDER BY key may come in any order, and where a LIMIT
  cuts through such a tie either database may keep any of the tied
  rows, so sqlite's un-limited result is the reference there;
- INSERT ``lastrowid`` and every write's ``rowcount``.
"""

from __future__ import annotations

import collections
import re
import sqlite3
from typing import Dict, List, Sequence

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.db.sql.ast import (
    Begin, ColumnRef, Commit, Literal, Placeholder, Rollback, Select,
)
from repro.tpcw.app import PAGES, TPCWApplication
from repro.tpcw.mix import BrowsingMix
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.profile import _StatementRecorder
from repro.tpcw.schema import create_schema
from repro.util.rng import RandomStream

#: Sampled interactions after the every-page pass.
MIX_INTERACTIONS = 150

_AFFINITY = {"INT": "INTEGER", "INTEGER": "INTEGER", "BIGINT": "INTEGER",
             "FLOAT": "REAL", "DOUBLE": "REAL", "DECIMAL": "REAL",
             "NUMERIC": "REAL", "VARCHAR": "TEXT", "CHAR": "TEXT",
             "TEXT": "TEXT"}
_LIMIT = re.compile(r"\s+LIMIT\s+\d+\s*$", re.IGNORECASE)


def load_into_sqlite(database: Database) -> sqlite3.Connection:
    """Copy every table (schema and rows) into an in-memory sqlite."""
    # Autocommit, so the application's own BEGIN/COMMIT pass through.
    oracle = sqlite3.connect(":memory:", isolation_level=None)
    for name, table in database.tables.items():
        columns = []
        for column in table.columns:
            # DATE-like columns get no affinity: values stay as stored.
            declared = _AFFINITY.get(column.base_type, "")
            if column.primary_key:
                declared += " PRIMARY KEY"
            columns.append(f"{column.name} {declared}")
        oracle.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        marks = ", ".join("?" for _ in table.column_names)
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(row[c] for c in table.column_names)
             for row in table.rows.values()])
    return oracle


def check_select(statement: Select, params: Sequence, ours,
                 theirs_full: List[tuple]) -> None:
    """``ours`` agrees with sqlite's result before any LIMIT."""
    limit = statement.limit
    if isinstance(limit, Placeholder):
        limit = params[limit.index]
    elif isinstance(limit, Literal):
        limit = limit.value
    if limit is None:
        assert len(ours.rows) == len(theirs_full)
    else:
        assert len(ours.rows) == min(limit, len(theirs_full))
    if not statement.order_by:
        if limit is None:
            assert collections.Counter(ours.rows) == \
                collections.Counter(theirs_full)
        else:
            assert not collections.Counter(ours.rows) - \
                collections.Counter(theirs_full)
        return
    positions = []
    for item in statement.order_by:
        assert isinstance(item.expression, ColumnRef), item
        positions.append(ours.columns.index(item.expression.name))

    def key(row):
        return tuple(row[p] for p in positions)

    # The ORDER BY keys must come in the same sequence ...
    assert [key(r) for r in ours.rows] == \
        [key(r) for r in theirs_full[:len(ours.rows)]]
    # ... and each tie group must hold the same rows, except the one a
    # LIMIT cuts through, which must hold a subset of sqlite's group.
    groups: Dict[tuple, collections.Counter] = collections.defaultdict(
        collections.Counter)
    for row in theirs_full:
        groups[key(row)][row] += 1
    mine: Dict[tuple, collections.Counter] = collections.defaultdict(
        collections.Counter)
    for row in ours.rows:
        mine[key(row)][row] += 1
    cut = key(ours.rows[-1]) if ours.rows and len(ours.rows) < len(
        theirs_full) else None
    for group_key, rows in mine.items():
        if group_key == cut:
            assert not rows - groups[group_key]
        else:
            assert rows == groups[group_key]


class LockstepOracle:
    """Runs each recorded statement on sqlite right after our engine."""

    def __init__(self, database: Database, oracle: sqlite3.Connection):
        self.database = database
        self.oracle = oracle
        self.recorder = _StatementRecorder(database)
        self.compared = 0

    def execute(self, original, sql: str, params: Sequence):
        self.recorder.observe(sql, params)
        ours = original(sql, params)
        statement = self.database.prepare(sql)
        lite_sql = sql.replace("%s", "?")
        if isinstance(statement, Select):
            theirs = self.oracle.execute(_LIMIT.sub("", lite_sql),
                                         tuple(params)).fetchall()
            try:
                check_select(statement, params, ours, theirs)
            except AssertionError as exc:
                raise AssertionError(
                    f"{sql} {tuple(params)}: ours {ours.rows[:8]} vs "
                    f"sqlite {theirs[:8]}") from exc
        elif isinstance(statement, (Begin, Commit, Rollback)):
            self.oracle.execute(lite_sql)
        else:
            cursor = self.oracle.execute(lite_sql, tuple(params))
            assert ours.rowcount == cursor.rowcount, sql
            if ours.lastrowid is not None:
                assert ours.lastrowid == cursor.lastrowid, sql
        self.compared += 1
        return ours


@pytest.fixture(scope="module", params=["tiny", "default"])
def session(request):
    """One browsing session replayed in lockstep on both databases."""
    scale = getattr(PopulationScale, request.param)()
    database = Database()
    create_schema(database)
    populate(database, scale)
    oracle = LockstepOracle(database, load_into_sqlite(database))
    app = TPCWApplication(database)
    mix = BrowsingMix(RandomStream(scale.seed, "sqlite-oracle"),
                      customers=scale.customers, items=scale.items)
    visits = [(path, mix.params_for(path)) for path in PAGES]
    pool = ConnectionPool(database, size=1)
    with pool.lease() as connection:
        original = connection._execute
        connection._execute = (  # type: ignore[method-assign]
            lambda sql, params: oracle.execute(original, sql, params))
        app.bind_connection(connection)
        try:
            for step in range(len(PAGES) + MIX_INTERACTIONS):
                path, params = (visits[step] if step < len(visits)
                                else mix.next_interaction())
                _template, data = app.handler_for(path)(**params)
                if path == "/shopping_cart":
                    mix.note_cart(data["sc_id"])
        finally:
            app.bind_connection(None)
            connection._execute = original  # type: ignore[method-assign]
    return oracle


def test_every_statement_agrees_with_sqlite(session):
    assert session.compared == len(session.recorder.log) > 0


def test_every_kind_of_statement_was_replayed(session):
    """The session covered the application's SQL, not a corner of it."""
    distinct = {sql for sql, _params in session.recorder.log}
    kinds = {sql.split()[0] for sql in distinct}
    assert kinds == {"SELECT", "INSERT", "UPDATE", "DELETE", "BEGIN", "COMMIT"}
    assert len(distinct) >= 25
