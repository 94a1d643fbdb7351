"""The database engine: schema registry, statement cache, locking."""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
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
from repro.db.table import Column, Table, table_versions
from repro.db.transactions import TransactionManager
from repro.faults.plan import SITE_DB_QUERY

#: Compiled plans kept before the plan cache starts over (it only grows
#: past the statement cache when callers execute ad-hoc parsed ASTs).
PLAN_CACHE_LIMIT = 4096
#: SELECT results kept for reuse; past it the least recently used goes.
#: Sized by measurement (DESIGN §3.8, *Result reuse*): 256 entries lost
#: throughput on the browsing mix, 4096 gained none over this.
RESULT_CACHE_LIMIT = 1024

#: A plan cache entry: the statement (guarding against ``id`` reuse),
#: its compiled plan, its table lock needs, and the schema version the
#: plan was compiled against.
_Compiled = Tuple[Statement, Plan, Dict[str, LockMode], int]
#: A result cache entry: the statement, the ``(table, version)`` of each
#: table it locks when the result was computed, the result's columns,
#: rows and rowcount, and the ``(operation, count)`` charges that
#: computed it, in order.  Every entry was computed under the current schema: a schema
#: change clears them all.
_Result = Tuple[Statement, Tuple, Tuple[str, ...], Tuple[Tuple, ...], int,
                Tuple[Tuple[str, int], ...]]


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
        #: id(statement) -> its :data:`_Compiled` entry, valid for the
        #: schema it was compiled against; see :meth:`_schema_changed`.
        self._plan_cache: Dict[int, _Compiled] = {}
        #: (id(statement), typed params) -> :data:`_Result`; see
        #: :meth:`_select`.
        self._results: "OrderedDict[Tuple, _Result]" = OrderedDict()
        self._result_counts = dict.fromkeys(
            ("hits", "misses", "refused", "evictions", "product_hits",
             "product_misses", "product_refused"), 0)
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

    def _compiled(self, statement: Statement) -> _Compiled:
        """The statement's plan and lock needs, computed on first use."""
        entry = self._plan_cache.get(id(statement))
        if entry is not None and entry[0] is statement:
            return entry
        version = self._schema_version
        entry = (statement, compile_statement(statement, self.tables),
                 self._lock_needs(statement), version)
        with self._cache_lock:
            # A plan compiled while the schema changed is used once,
            # not kept.
            if version == self._schema_version:
                if len(self._plan_cache) >= PLAN_CACHE_LIMIT:
                    self._plan_cache.clear()
                self._plan_cache[id(statement)] = entry
        return entry

    def _schema_changed(self) -> None:
        """Drop every compiled plan, and every cached result with them:
        plans bind the column layout of the tables they read.  Called
        after each CREATE/DROP TABLE and CREATE INDEX."""
        with self._cache_lock:
            self._schema_version += 1
            self._plan_cache.clear()
            self._results.clear()

    def result_cache_stats(self) -> Dict[str, int]:
        """SELECT result reuse: hits, misses (lookups that executed;
        SELECTs with unhashable parameters skip the cache uncounted),
        stores refused because a table changed mid-statement, LRU
        evictions, and the entries held.  Join products (see
        :func:`repro.db.sql.executor._compile_scan`): ``product_hits``
        (scans that reused one), ``product_misses`` (full-scan joins that
        built one) and ``product_refused`` (builds not kept because a
        table changed mid-build)."""
        with self._cache_lock:
            return dict(self._result_counts, entries=len(self._results))

    def _count_products(self, executor: Executor) -> None:
        """Add a finished statement's join-product events to the
        counters."""
        if executor.product_reuse:
            with self._cache_lock:
                for event in executor.product_reuse:
                    self._result_counts[event] += 1

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
            self.faults.consult(SITE_DB_QUERY)
        _, plan, needs, schema = self._compiled(statement)
        if isinstance(statement, Select):
            return self._select(statement, params, plan, needs, schema)
        transaction = self.transactions.current(self._txn_key(connection_id))
        undo = transaction.undo if transaction is not None else None
        executor = Executor(self.tables, self.cost_model, undo)
        try:
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
        finally:
            self._count_products(executor)

    def _select(self, statement: Select, params: Sequence[Any], plan: Plan,
                needs: Dict[str, LockMode], schema: int) -> ResultSet:
        """Run a SELECT under its shared locks, or reuse its result.

        A result is kept under ``(id(statement), params)``, each
        parameter tagged by its type, with the identity and
        :attr:`~repro.db.table.Table.version` of every table the SELECT
        locks (:func:`~repro.db.table.table_versions`), and reused while
        those are unchanged.  It is
        kept only if the schema its plan was compiled against
        (``schema``) is still current, and a schema change clears the
        cache, so every entry belongs to the current schema.  A reuse
        takes the same locks and replays the recorded charges, in order,
        before settling their total, so the cost model counts, totals
        and sleeps exactly what executing would have.

        Why a reuse is never staler than executing: a table bumps its
        version only after its change is visible, so a result stored at
        version *v* saw every change whose bump came before it.  On a
        miss the versions are read before and after executing, and the
        result is stored only if they are equal, so a concurrent insert
        (MyISAM's, which runs under a shared lock) that lands mid-scan
        leaves nothing behind.  UPDATE and DELETE cannot run under the
        shared locks held here.  That leaves a hit in the short window
        between a racing insert becoming visible and its bump: it
        returns the result without the new row, which is what a racing
        reader executing the SELECT could also have returned.
        """
        key = _result_key(statement, params)
        with LockScope(self.locks, needs):
            versions = table_versions(self.tables, needs)
            if key is not None:
                with self._cache_lock:
                    entry = self._results.get(key)
                    if (entry is not None and entry[0] is statement
                            and entry[1] == versions):
                        self._results.move_to_end(key)
                        self._result_counts["hits"] += 1
                    else:
                        entry = None
                        self._result_counts["misses"] += 1
                if entry is not None:
                    return self._replay(entry)
            executor = Executor(self.tables, self.cost_model)
            try:
                result = executor.execute(statement, params, plan)
            finally:
                self._count_products(executor)
            if key is not None:
                unchanged = table_versions(self.tables, needs) == versions
                with self._cache_lock:
                    if unchanged and schema == self._schema_version:
                        self._results[key] = (
                            statement, versions, tuple(result.columns),
                            tuple(result.rows), result.rowcount,
                            tuple(executor.charges))
                        self._results.move_to_end(key)
                        if len(self._results) > RESULT_CACHE_LIMIT:
                            self._results.popitem(last=False)
                            self._result_counts["evictions"] += 1
                    else:
                        self._result_counts["refused"] += 1
            return result

    def _replay(self, entry: _Result) -> ResultSet:
        """Charge and settle a cached result's recorded cost; return a
        copy of it (a new rows list over the shared row tuples)."""
        cost = self.cost_model
        total = 0.0
        for operation, count in entry[5]:
            total += cost.charge(operation, count)
        cost.settle(total)
        return ResultSet(columns=list(entry[2]), rows=list(entry[3]),
                         rowcount=entry[4])

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
        if isinstance(statement, Insert):
            # MyISAM concurrent insert: readers keep reading.
            needs = {statement.table: LockMode.SHARED}
        elif isinstance(statement, (Update, Delete)):
            needs = {statement.table: LockMode.EXCLUSIVE}
        elif isinstance(statement, Select):
            needs = {}
        else:
            # Schema changes serialise on the schema lock instead.
            return {}
        _read_tables(statement, needs)
        return needs

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


def _read_tables(node: Any, needs: Dict[str, LockMode]) -> None:
    """Add a shared need for every table a SELECT within ``node`` reads.

    The walk visits every field of every AST node, so it finds an
    ``IN (SELECT ...)`` wherever the parser accepts an expression: the
    select list, WHERE, GROUP BY, HAVING, ORDER BY, aggregate arguments,
    IN lists, BETWEEN bounds, LIKE patterns, INSERT values and UPDATE
    assignments.  Result reuse depends on it: a cached result is valid
    only while the tables found here are unchanged.
    """
    if isinstance(node, Select):
        if node.table is not None:
            needs.setdefault(node.table, LockMode.SHARED)
        for join in node.joins:
            needs.setdefault(join.table, LockMode.SHARED)
    if isinstance(node, tuple):
        for child in node:
            _read_tables(child, needs)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            _read_tables(getattr(node, field.name), needs)


def _result_key(statement: Statement, params: Sequence[Any]) -> Optional[Tuple]:
    """The result cache key, or None if a parameter cannot be hashed.

    Each parameter is tagged with its type, so ``1``, ``1.0`` and
    ``True`` never share an entry; a float is keyed by its exact bits,
    so ``0.0`` and ``-0.0`` do not either."""
    key = (id(statement), tuple([
        (value.__class__, value.hex() if value.__class__ is float else value)
        for value in params]))
    try:
        hash(key)
    except TypeError:
        return None
    return key


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
