"""The database engine: schema registry, statement cache, locking."""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db.cost import CostModel
from repro.db.errors import TableError
from repro.db.locks import LockManager, LockMode, LockScope
from repro.db.sql.ast import (
    Begin,
    Commit,
    CreateIndex,
    CreateTable,
    Delete,
    Insert,
    Rollback,
    Select,
    Statement,
    Update,
)
from repro.db.sql.executor import Executor, Plan, ResultSet, compile_statement
from repro.db.sql.parser import parse_sql
from repro.db.table import Column, Table
from repro.db.transactions import TransactionManager

#: Compiled plans kept before the plan cache starts over (it only grows
#: past the statement cache when callers execute ad-hoc parsed ASTs).
PLAN_CACHE_LIMIT = 4096


class Database:
    """An in-process SQL database.

    One :class:`Database` plays the role of the paper's MySQL server.
    Statements execute under table-level shared (reads) or exclusive
    (writes) locks, and every statement's work is charged to the
    configured :class:`CostModel` — plug in a
    :class:`~repro.db.cost.SleepingCostModel` to make query cost real
    wall-clock time, as the live server examples do.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 lock_timeout: Optional[float] = 60.0):
        self.tables: Dict[str, Table] = {}
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.locks = LockManager(default_timeout=lock_timeout)
        #: Optional :class:`repro.faults.plan.FaultPlan` consulted per
        #: real statement (never for BEGIN/COMMIT/ROLLBACK): latency
        #: spikes, transient failures, hard failures.  Assigned by the
        #: owning server.
        self.faults = None
        self._statement_cache: Dict[str, Statement] = {}
        #: id(statement) -> (statement, compiled plan), valid for the
        #: schema it was compiled against; see :meth:`_schema_changed`.
        self._plan_cache: Dict[int, Tuple[Statement, Plan]] = {}
        self._schema_version = 0
        self._cache_lock = threading.Lock()
        self._schema_lock = threading.Lock()
        self._append_latches: Dict[str, threading.Lock] = {}
        self._latch_guard = threading.Lock()
        self.transactions = TransactionManager()

    # ------------------------------------------------------------------
    # Schema helpers (programmatic alternative to CREATE TABLE SQL)
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[Column]) -> Table:
        with self._schema_lock:
            if name in self.tables:
                raise TableError(f"table {name!r} already exists")
            table = Table(name, columns)
            self.tables[name] = table
        self._schema_changed()
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise TableError(f"no such table: {name!r}")

    def drop_table(self, name: str) -> None:
        with self._schema_lock:
            if name not in self.tables:
                raise TableError(f"no such table: {name!r}")
            del self.tables[name]
        self._schema_changed()

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> Statement:
        """Parse (with caching) one SQL statement."""
        with self._cache_lock:
            statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse_sql(sql)
            with self._cache_lock:
                self._statement_cache.setdefault(sql, statement)
        return statement

    def _plan(self, statement: Statement) -> Plan:
        """The statement's compiled plan, compiled on first use."""
        entry = self._plan_cache.get(id(statement))
        if entry is not None and entry[0] is statement:
            return entry[1]
        version = self._schema_version
        plan = compile_statement(statement, self.tables)
        with self._cache_lock:
            # A plan compiled while the schema changed is used once,
            # not kept.
            if version == self._schema_version:
                if len(self._plan_cache) >= PLAN_CACHE_LIMIT:
                    self._plan_cache.clear()
                self._plan_cache[id(statement)] = (statement, plan)
        return plan

    def _schema_changed(self) -> None:
        """Drop every compiled plan: they bind the column layout of the
        tables they read.  Called after each CREATE/DROP TABLE and
        CREATE INDEX."""
        with self._cache_lock:
            self._schema_version += 1
            self._plan_cache.clear()

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Parse, lock, and run one statement.

        Locking follows MySQL 5.0's default MyISAM storage engine, the
        semantics the paper's evaluation exhibits:

        - SELECT takes a shared lock on every referenced table.
        - INSERT takes a shared lock plus a per-table append latch —
          MyISAM's *concurrent insert*: new rows append while readers
          read, so TPC-W buy-confirm stays fast even while best-sellers
          scans ``order_line`` for seconds.
        - UPDATE and DELETE take the full table write (exclusive) lock
          and therefore wait for every in-flight reader — the exact
          mechanism behind the admin-response slowdown the paper
          reports ("it must acquire a lock on a database table,
          forcing it to wait for other threads to finish").
        """
        statement = self.prepare(sql)
        return self.execute_statement(statement, params)

    def execute_statement(self, statement: Statement,
                          params: Sequence[Any] = (),
                          connection_id: Optional[int] = None) -> ResultSet:
        """Run a parsed statement, optionally inside a connection's
        open transaction (writes are then undo-logged)."""
        if isinstance(statement, Begin):
            self.transactions.begin(self._txn_key(connection_id))
            return ResultSet()
        if isinstance(statement, Commit):
            self.transactions.commit(self._txn_key(connection_id))
            return ResultSet()
        if isinstance(statement, Rollback):
            undone = self._rollback(connection_id)
            return ResultSet(rowcount=undone)
        if self.faults is not None:
            # Injection point: only for statements that do work —
            # failing transaction control would break rollback paths
            # no real backend fails this way.
            self.faults.on_db_query()
        transaction = self.transactions.current(self._txn_key(connection_id))
        undo = transaction.undo if transaction is not None else None
        executor = Executor(self.tables, self.cost_model, undo)
        plan = self._plan(statement)
        needs = self._lock_needs(statement)
        with LockScope(self.locks, needs):
            if isinstance(statement, Insert):
                with self._append_latch(statement.table):
                    return executor.execute(statement, params, plan)
            if isinstance(statement, (CreateTable, CreateIndex)):
                try:
                    return executor.execute(statement, params, plan)
                finally:
                    self._schema_changed()
            return executor.execute(statement, params, plan)

    def _rollback(self, connection_id: Optional[int]) -> int:
        """Roll back under exclusive locks on every touched table (undo
        entries mutate rows/indexes directly)."""
        key = self._txn_key(connection_id)
        transaction = self.transactions.current(key)
        if transaction is None:
            # Raise the standard error through the manager.
            return self.transactions.rollback(key)
        needs = {name: LockMode.EXCLUSIVE for name in self.tables}
        with LockScope(self.locks, needs):
            return self.transactions.rollback(key)

    @staticmethod
    def _txn_key(connection_id: Optional[int]) -> int:
        # Statements executed without a connection (engine-level calls)
        # share a single anonymous transaction scope.
        return connection_id if connection_id is not None else -1

    def _append_latch(self, table: str) -> threading.Lock:
        with self._latch_guard:
            latch = self._append_latches.get(table)
            if latch is None:
                latch = threading.Lock()
                self._append_latches[table] = latch
            return latch

    def _lock_needs(self, statement: Statement) -> Dict[str, LockMode]:
        if isinstance(statement, Select):
            needs: Dict[str, LockMode] = {}
            self._select_read_tables(statement, needs)
            return needs
        if isinstance(statement, Insert):
            # MyISAM concurrent insert: readers keep reading.
            return {statement.table: LockMode.SHARED}
        if isinstance(statement, Update):
            needs = {statement.table: LockMode.EXCLUSIVE}
            self._where_subquery_tables(statement.where, needs)
            return needs
        if isinstance(statement, Delete):
            needs = {statement.table: LockMode.EXCLUSIVE}
            self._where_subquery_tables(statement.where, needs)
            return needs
        if isinstance(statement, (CreateTable, CreateIndex)):
            # Schema changes serialise on the schema lock instead.
            return {}
        return {}

    def _select_read_tables(self, select: Select,
                            needs: Dict[str, LockMode]) -> None:
        """Shared locks for a SELECT, including IN (SELECT ...) tables."""
        if select.table is not None:
            needs.setdefault(select.table, LockMode.SHARED)
        for join in select.joins:
            needs.setdefault(join.table, LockMode.SHARED)
        self._where_subquery_tables(select.where, needs)
        self._where_subquery_tables(select.having, needs)

    def _where_subquery_tables(self, expr, needs: Dict[str, LockMode]) -> None:
        from repro.db.sql.ast import (
            Between as _Between,
            BinaryOp as _BinaryOp,
            InSubquery as _InSubquery,
            IsNull as _IsNull,
            Like as _Like,
            UnaryOp as _UnaryOp,
        )

        if expr is None:
            return
        if isinstance(expr, _InSubquery):
            self._select_read_tables(expr.subquery, needs)
        elif isinstance(expr, _BinaryOp):
            self._where_subquery_tables(expr.left, needs)
            self._where_subquery_tables(expr.right, needs)
        elif isinstance(expr, _UnaryOp):
            self._where_subquery_tables(expr.operand, needs)
        elif isinstance(expr, _Like):
            self._where_subquery_tables(expr.operand, needs)
        elif isinstance(expr, _Between):
            self._where_subquery_tables(expr.operand, needs)
        elif isinstance(expr, _IsNull):
            self._where_subquery_tables(expr.operand, needs)

    # ------------------------------------------------------------------
    def executescript(self, script: str) -> None:
        """Run a semicolon-separated list of statements (no parameters).

        Statement boundaries respect string literals, so values may
        contain semicolons.
        """
        for sql in split_statements(script):
            self.execute(sql)

    def row_counts(self) -> Dict[str, int]:
        """Table name -> row count, for population sanity checks."""
        return {name: len(table) for name, table in self.tables.items()}


def split_statements(script: str) -> List[str]:
    """Split a SQL script on semicolons outside string literals."""
    statements: List[str] = []
    current: List[str] = []
    quote: Optional[str] = None
    for ch in script:
        if quote:
            current.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            current.append(ch)
            quote = ch
        elif ch == ";":
            text = "".join(current).strip()
            if text:
                statements.append(text)
            current = []
        else:
            current.append(ch)
    text = "".join(current).strip()
    if text:
        statements.append(text)
    return statements
