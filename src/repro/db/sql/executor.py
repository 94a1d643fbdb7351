"""SQL executor: compiles parsed statements into plans and runs them.

Plans are simple but cost-faithful: equality predicates on indexed
columns become index probes; everything else scans.  Every operator's
work is charged to the :class:`~repro.db.cost.CostModel`, which is how
the TPC-W fast/slow page dichotomy emerges.

:func:`compile_statement` does the per-statement work once: it binds
each column to a fixed slot of the FROM/JOIN layout, picks operator
functions, compiles constant LIKE patterns, and turns every expression
into a closure ``f(env, run)`` — ``env`` a tuple of row dicts, one per
alias, ``run`` the :class:`Executor` carrying the parameters.  What the
compiler finds wrong (an unknown column, a missing table) becomes a
closure that raises when execution reaches it.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.cost import CostModel
from repro.db.errors import ColumnError, ProgrammingError, SQLSyntaxError, TableError
from repro.db.sql.ast import (
    Begin, Between, BinaryOp, ColumnRef, Commit, CreateIndex, CreateTable,
    Delete, Expression, FuncCall, InList, InSubquery, Insert, IsNull, Like,
    Literal, Placeholder, Rollback, Select, SelectItem, Statement, UnaryOp,
    Update,
)
from repro.db.table import Table

#: One joined row: a row dict per FROM/JOIN alias, in declaration order.
Env = Tuple[Dict[str, Any], ...]
#: The FROM/JOIN layout a statement's expressions are compiled against:
#: ``(alias, column names)`` per slot of :data:`Env`.
Scope = Tuple[Tuple[str, Tuple[str, ...]], ...]
#: A compiled expression: ``f(env, run)``, or ``f(group, run)`` in
#: grouped context.
RowFn = Callable[[Any, "Executor"], Any]
#: A compiled statement: runs on an executor, returns the result.
Plan = Callable[["Executor"], "ResultSet"]


@dataclasses.dataclass
class ResultSet:
    """The outcome of one statement."""

    columns: List[str] = dataclasses.field(default_factory=list)
    rows: List[Tuple] = dataclasses.field(default_factory=list)
    rowcount: int = 0
    lastrowid: Optional[int] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@functools.lru_cache(maxsize=4096)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)


class Executor:
    """Runs one statement's plan against a dict of tables.

    The instance carries that statement's state — its parameters, its
    running cost, the active transaction's undo log, the subquery
    cache — so each statement runs on its own executor and concurrent
    statements never see each other's, while the compiled plan itself
    is shared.  The executor holds no locks itself;
    :class:`repro.db.engine.Database` wraps each call in the
    appropriate :class:`LockScope`.
    """

    def __init__(self, tables: Dict[str, Table], cost: CostModel,
                 undo=None):
        self._tables = tables
        self._cost = cost
        self._undo = undo  # the active transaction's UndoLog, if any
        self._subquery_cache: Dict[Plan, frozenset] = {}
        self._statement_cost = 0.0
        self.params: Sequence[Any] = ()

    def execute(self, statement: Statement, params: Sequence[Any] = (),
                plan: Optional[Plan] = None) -> ResultSet:
        """Run ``statement``; ``plan`` is its compiled form, if cached."""
        self._statement_cost = self._cost.charge("statement")
        if plan is None:
            plan = compile_statement(statement, self._tables)
        self.params = params
        result = plan(self)
        self._cost.settle(self._statement_cost)
        return result

    def _charge(self, operation: str, count: int = 1) -> None:
        if count:
            self._statement_cost += self._cost.charge(operation, count)

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"no such table: {name!r}")

    def _subquery_values(self, plan: Plan) -> frozenset:
        """Materialise an uncorrelated subquery once per statement."""
        cached = self._subquery_cache.get(plan)
        if cached is None:
            result = plan(self)
            if result.rows and len(result.rows[0]) != 1:
                raise ProgrammingError(
                    "IN (SELECT ...) subquery must project exactly one column"
                )
            cached = frozenset(row[0] for row in result.rows)
            self._subquery_cache[plan] = cached
        return cached


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------

def compile_statement(statement: Statement, tables: Dict[str, Table]) -> Plan:
    """Compile ``statement`` against the current schema.  Never raises:
    problems become plans or closures that raise when run."""
    if isinstance(statement, Select):
        return _compile_select(statement, tables)
    if isinstance(statement, Insert):
        return _compile_insert(statement, tables)
    if isinstance(statement, (Update, Delete)):
        return _compile_write(statement, tables)
    if isinstance(statement, CreateTable):
        return functools.partial(_create_table, statement)
    if isinstance(statement, CreateIndex):
        return functools.partial(_create_index, statement)
    if isinstance(statement, (Begin, Commit, Rollback)):
        return _raiser(ProgrammingError, "transaction statements are handled "
                       "by the engine, not the executor")
    return _raiser(ProgrammingError, f"cannot execute {type(statement).__name__}")


def _compile_select(select: Select, tables: Dict[str, Table]) -> Plan:
    sources = ([(select.alias or select.table, select.table)]
               if select.table is not None else [])
    sources += [(join.alias, join.table) for join in select.joins]
    aliases = [alias for alias, _ in sources]
    duplicate = next((alias for i, alias in enumerate(aliases)
                      if alias in aliases[:i]), None)
    scope: Scope = tuple((alias, _table_columns(tables, name))
                         for alias, name in sources)
    produce = _compile_from(select, tables, scope, duplicate)
    where = _compile(select.where, scope, tables) if select.where is not None else None
    columns, project, columns_error = _compile_projection(select, scope, tables)
    grouped = bool(select.group_by) or _has_aggregate(select.items)
    if grouped:
        project = _compile_grouping(select, scope, tables)
    order = _compile_order(select, columns, scope, tables, grouped)
    offset, limit = (None if expr is None else _compile(expr, (), tables)
                     for expr in (select.offset, select.limit))
    distinct = select.distinct

    def run_select(run: Executor) -> ResultSet:
        envs = produce(run)
        if where is not None:
            envs = [env for env in envs if where(env, run)]
        if columns_error is not None:
            raise columns_error
        if grouped:
            rows, envs = project(envs, run), None
        else:
            rows = [project(env, run) for env in envs]
        if distinct:
            first = {}
            for i, row in enumerate(rows):
                first.setdefault(row, i)
            rows = list(first)
            if envs is not None:
                envs = [envs[i] for i in first.values()]
        if order is not None:
            rows = order(rows, envs, run)
        skip = offset((), run) if offset is not None else 0
        if skip:
            rows = rows[int(skip):]
        if limit is not None:
            count = limit((), run)
            if count is not None:
                rows = rows[: int(count)]
        run._charge("row_emit", len(rows))
        return ResultSet(columns=list(columns), rows=rows, rowcount=len(rows))

    return run_select


def _compile_from(select: Select, tables: Dict[str, Table], scope: Scope,
                  duplicate: Optional[str]) -> Callable[[Executor], List[Env]]:
    """The driving table's rows (index probe or charged scan), then each
    join in declaration order."""
    if select.table is None:
        return lambda run: [()]
    name = select.table
    probes = _probe_candidates(scope[0], select.where, tables)
    joins = [_compile_join(join, tables, scope[: i + 1])
             for i, join in enumerate(select.joins)]

    def produce(run: Executor) -> List[Env]:
        table = run._table(name)
        if duplicate is not None:
            raise SQLSyntaxError(f"duplicate table alias {duplicate!r}")
        rows = table.rows
        envs = [(rows[row_id],) for row_id in _candidate_ids(run, table, probes)
                if row_id in rows]
        for join in joins:
            envs = join(envs, run)
        return envs

    return produce


def _compile_join(join, tables: Dict[str, Table], scope: Scope):
    """One equi-join step: index probe per row if the joined column is
    indexed, else a transient hash table built by one scan.  Charges
    its probes and matches once, with their totals."""
    table = tables.get(join.table)
    if table is None:
        return _raiser(TableError, f"no such table: {join.table!r}")
    # Determine which side of ON belongs to the joined table.
    if join.left.table == join.alias:
        inner_col, outer_ref = join.left.name, join.right
    elif join.right.table == join.alias:
        inner_col, outer_ref = join.right.name, join.left
    elif table.has_column(join.left.name) and join.left.table is None:
        inner_col, outer_ref = join.left.name, join.right
    elif table.has_column(join.right.name) and join.right.table is None:
        inner_col, outer_ref = join.right.name, join.left
    else:
        return _raiser(SQLSyntaxError,
                       f"cannot attribute ON columns of join to {join.alias!r}")
    if not table.has_column(inner_col):
        return _raiser(ColumnError,
                       f"join table {join.table!r} has no column {inner_col!r}")
    outer_value = _compile(outer_ref, scope, tables)
    null_row = {name: None for name in table.column_names}
    left_outer = join.outer

    def apply_join(envs: List[Env], run: Executor) -> List[Env]:
        table = run._table(join.table)
        index = table.index_on(inner_col)
        if index is None:
            # Snapshot first: concurrent inserts (MyISAM-style shared
            # lock) may grow the dict while we iterate.
            snapshot = list(table.rows.items())
            run._charge("row_scan", len(snapshot))
            buckets: Dict[Any, Any] = {}
            for row_id, row in snapshot:
                buckets.setdefault(row[inner_col], []).append(row_id)
            probe_op, match_op, copy = "join_probe", "row_emit", tuple
        else:
            # Index buckets are live sets: a concurrent insert may grow
            # one, so each is copied (as HashIndex.lookup does).
            buckets = index.buckets
            probe_op, match_op, copy = "index_probe", "index_row", set
        bucket_of, row_of = buckets.get, table.rows.get
        joined: List[Env] = []
        matched = 0
        for env in envs:
            value = outer_value(env, run)
            row_ids = bucket_of(value) if value is not None else None
            found = 0
            if row_ids:
                for row_id in copy(row_ids):
                    match = row_of(row_id)
                    if match is not None:
                        joined.append(env + (match,))
                        found += 1
            if found:
                matched += found
            elif left_outer:
                joined.append(env + (null_row,))
        run._charge(probe_op, len(envs))
        run._charge(match_op, matched)
        return joined

    return apply_join


def _probe_candidates(slot: Tuple[str, Tuple[str, ...]],
                      where: Optional[Expression],
                      tables: Dict[str, Table]) -> List[Tuple[str, RowFn]]:
    """``col = constant`` among the top-level AND conjuncts, with ``col``
    a column of this slot's table; whether ``col`` is indexed is looked
    up per execution."""
    alias, columns = slot
    candidates = []
    for conjunct in _conjuncts(where):
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            continue
        for ref_side, value_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (isinstance(ref_side, ColumnRef)
                    and ref_side.table in (None, alias)
                    and ref_side.name in columns
                    and isinstance(value_side, (Literal, Placeholder))):
                candidates.append(
                    (ref_side.name, _compile(value_side, (), tables)))
    return candidates


def _candidate_ids(run: Executor, table: Table,
                   candidates: List[Tuple[str, RowFn]]) -> Iterable[int]:
    """Row ids from the first candidate with an index, else every row
    id: a charged full scan."""
    for column, value_of in candidates:
        index = table.index_on(column)
        if index is not None:
            value = _coerce_for_column(table, column, value_of((), run))
            run._charge("index_probe")
            row_ids = index.lookup(value)
            run._charge("index_row", len(row_ids))
            return row_ids
    # A snapshot: concurrent inserts may grow the dict meanwhile.
    run._charge("row_scan", len(table.rows))
    return list(table.rows)


# -- projection -----------------------------------------------------------
def _compile_projection(select: Select, scope: Scope, tables: Dict[str, Table]):
    """Output column names plus the per-row projection; a bad star alias
    is returned as the error the projection step raises."""
    columns: List[str] = []
    getters: List[RowFn] = []
    positions = {alias: i for i, (alias, _) in enumerate(scope)}
    for item in select.items:
        if not item.star:
            columns.append(item.alias or _expression_label(item.expression))
            getters.append(_compile(item.expression, scope, tables))
            continue
        for alias in ([item.star_table] if item.star_table is not None
                      else list(positions)):
            if alias not in positions:
                error = ColumnError(f"unknown alias {alias!r} in star projection")
                return columns, None, error
            slot = positions[alias]
            for name in scope[slot][1]:
                columns.append(name)
                getters.append(_column_getter(slot, name))
    return columns, (lambda env, run: tuple([get(env, run) for get in getters])), None


def _compile_grouping(select: Select, scope: Scope, tables: Dict[str, Table]):
    """GROUP BY (or one group of everything), HAVING, and the grouped
    projection: aggregates reduce over the group, bare columns use the
    group's first row (MySQL's permissive ONLY_FULL_GROUP_BY-off
    behaviour)."""
    keys = [_compile(expr, scope, tables) for expr in select.group_by]
    having = (_compile(select.having, scope, tables, grouped=True)
              if select.having is not None else None)
    items = [
        _raiser(SQLSyntaxError,
                "SELECT * cannot be combined with GROUP BY/aggregates")
        if item.star else _compile(item.expression, scope, tables, grouped=True)
        for item in select.items
    ]

    def project_groups(envs: List[Env], run: Executor) -> List[Tuple]:
        run._charge("row_group", len(envs))
        if keys:
            groups: Dict[Tuple, List[Env]] = {}
            for env in envs:
                key = (tuple([key_of(env, run) for key_of in keys])
                       if len(keys) > 1 else (keys[0](env, run),))
                group = groups.get(key)
                if group is None:
                    groups[key] = [env]
                else:
                    group.append(env)
            grouped = list(groups.values())
        else:
            grouped = [envs]
        rows = []
        for group in grouped:
            if having is not None and not having(group, run):
                continue
            rows.append(tuple([item(group, run) for item in items]))
        return rows

    return project_groups


def _compile_order(select: Select, columns: List[str], scope: Scope,
                   tables: Dict[str, Table], grouped: bool):
    """ORDER BY: every row's rank is computed once per item, then one
    stable sort per item, last to first."""
    if not select.order_by:
        return None
    positions = {name: i for i, name in enumerate(columns)}
    items = []
    for item in select.order_by:
        expr = item.expression
        if (isinstance(expr, ColumnRef) and expr.table is None
                and expr.name in positions):
            position = positions[expr.name]
            value_of = lambda envs, i, row, run, p=position: row[p]
        elif isinstance(expr, Literal) and isinstance(expr.value, int):
            # ORDER BY 2 → second output column (1-based); out of range
            # orders as NULL.
            position = expr.value - 1
            value_of = (lambda envs, i, row, run, p=position: row[p]
                        if 0 <= p < len(row) else None)
        elif not grouped:
            on_env = _compile(expr, scope, tables)
            value_of = lambda envs, i, row, run, f=on_env: f(envs[i], run)
        else:
            message = (f"ORDER BY expression {expr!r} does not name an "
                       f"output column of a grouped query")
            value_of = _raiser(ColumnError, message)
        items.append((value_of, item.ascending))

    def order(rows: List[Tuple], envs: Optional[List[Env]],
              run: Executor) -> List[Tuple]:
        run._charge("row_sort", len(rows))
        ranks = [[_rank(value_of(envs, i, row, run)) for i, row in enumerate(rows)]
                 for value_of, _ in items]
        permutation = list(range(len(rows)))
        for (_, ascending), rank in zip(reversed(items), reversed(ranks)):
            permutation.sort(key=rank.__getitem__, reverse=not ascending)
        return [rows[i] for i in permutation]

    return order


def _rank(value: Any) -> Tuple:
    """Sort rank: NULLs first, then numbers (bools as 0/1), then
    everything else as text, so mixed types order without raising."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


# -- INSERT / UPDATE / DELETE / CREATE -------------------------------------
def _compile_insert(insert: Insert, tables: Dict[str, Table]) -> Plan:
    rows = [[_compile(expr, (), tables) for expr in row] for row in insert.rows]

    def run_insert(run: Executor) -> ResultSet:
        table = run._table(insert.table)
        columns = list(insert.columns) if insert.columns else table.column_names
        lastrowid = None
        for value_row in rows:
            if len(value_row) != len(columns):
                raise ProgrammingError(
                    f"INSERT row has {len(value_row)} values for "
                    f"{len(columns)} columns"
                )
            values = {column: value_of((), run)
                      for column, value_of in zip(columns, value_row)}
            lastrowid = table.insert(values)
            if run._undo is not None:
                run._undo.record_insert(table, table.last_internal_row_id)
            run._charge("row_write")
        return ResultSet(rowcount=len(rows), lastrowid=lastrowid)

    return run_insert


def _compile_write(statement, tables: Dict[str, Table]) -> Plan:
    """UPDATE or DELETE: find the matching rows (index probe or scan,
    then WHERE), then write each one, charged per row."""
    name = statement.table
    scope: Scope = ((name, _table_columns(tables, name)),)
    probes = _probe_candidates(scope[0], statement.where, tables)
    where = (_compile(statement.where, scope, tables)
             if statement.where is not None else None)
    is_update = isinstance(statement, Update)
    assignments = [(column, _compile(expr, scope, tables))
                   for column, expr in (statement.assignments if is_update else ())]

    def run_write(run: Executor) -> ResultSet:
        table = run._table(name)
        candidates = _candidate_ids(run, table, probes)
        if where is None:
            row_ids = list(candidates)
        else:
            rows = table.rows
            row_ids = [row_id for row_id in candidates
                       if row_id in rows and where((rows[row_id],), run)]
        undo = run._undo
        for row_id in row_ids:
            row = table.rows[row_id]
            if is_update:
                changes = {column: value_of((row,), run)
                           for column, value_of in assignments}
                if undo is not None:
                    undo.record_update(table, row_id,
                                       {column: row[column] for column in changes})
                table.update_row(row_id, changes)
            else:
                if undo is not None:
                    undo.record_delete(table, row)
                table.delete_row(row_id)
            run._charge("row_write")
        return ResultSet(rowcount=len(row_ids))

    return run_write


def _create_table(create: CreateTable, run: Executor) -> ResultSet:
    if create.name in run._tables:
        raise TableError(f"table {create.name!r} already exists")
    run._tables[create.name] = Table(create.name, list(create.columns))
    return ResultSet()


def _create_index(create: CreateIndex, run: Executor) -> ResultSet:
    run._table(create.table).create_index(create.name, create.column)
    return ResultSet()


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

def _compile(expr: Expression, scope: Scope, tables: Dict[str, Table],
             grouped: bool = False) -> RowFn:
    """Compile ``expr`` into ``f(env, run)``, or with ``grouped`` into
    ``f(group, run)`` over a list of envs: aggregates reduce over the
    group, operators combine their grouped operands, and anything else
    reads the group's first row (MySQL's permissive
    ONLY_FULL_GROUP_BY-off behaviour)."""
    if isinstance(expr, BinaryOp):
        left = _compile(expr.left, scope, tables, grouped)
        right = _compile(expr.right, scope, tables, grouped)
        if expr.op == "AND":
            return lambda env, run: bool(left(env, run)) and bool(right(env, run))
        if expr.op == "OR":
            return lambda env, run: bool(left(env, run)) or bool(right(env, run))
        if expr.op in _COMPARE:
            return _compile_comparison(_COMPARE[expr.op], left, right)
        return _compile_arithmetic(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = _compile(expr.operand, scope, tables, grouped)
        if expr.op == "NOT":
            return lambda env, run: not operand(env, run)
        if expr.op == "-":
            return lambda env, run: _negate(operand(env, run))
        return _raiser(ProgrammingError, f"unknown unary operator {expr.op!r}")
    if grouped:
        if isinstance(expr, FuncCall):
            return _compile_aggregate(expr, scope, tables)
        on_row, on_empty = _compile(expr, scope, tables), _compile(expr, (), tables)
        return lambda group, run: on_row(group[0], run) if group else on_empty((), run)
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env, run: value
    if isinstance(expr, Placeholder):
        return _placeholder(expr.index)
    if isinstance(expr, ColumnRef):
        return _compile_column(expr, scope)
    if isinstance(expr, (InSubquery, InList, Like, Between, IsNull)):
        return _compile_predicate(expr, scope, tables)
    if isinstance(expr, FuncCall):
        return _raiser(ProgrammingError,
                       f"aggregate {expr.name} used outside SELECT projections")
    return _raiser(ProgrammingError, f"cannot evaluate {type(expr).__name__}")


def _compile_aggregate(call: FuncCall, scope: Scope,
                       tables: Dict[str, Table]) -> RowFn:
    if call.star:
        return lambda group, run: len(group)
    assert call.argument is not None
    argument = _compile(call.argument, scope, tables)
    distinct, is_count = call.distinct, call.name == "COUNT"
    reduce = _AGGREGATES.get(call.name) or _raiser(
        ProgrammingError, f"unknown aggregate {call.name!r}")

    def aggregate(group: List[Env], run: Executor) -> Any:
        values = [value for value in [argument(env, run) for env in group]
                  if value is not None]
        if distinct:
            values = list(dict.fromkeys(values))
        if is_count:
            return len(values)
        return reduce(values) if values else None

    return aggregate


_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


def _compile_column(ref: ColumnRef, scope: Scope) -> RowFn:
    """Bind a column to its slot; unknown or ambiguous columns raise
    when a row is evaluated."""
    name = ref.name
    if ref.table is not None:
        slots = [i for i, (alias, _) in enumerate(scope) if alias == ref.table]
        if not slots:
            return _raiser(ColumnError,
                           f"unknown table alias {ref.table!r} in {ref}")
        if name not in scope[slots[0]][1]:
            return _raiser(ColumnError,
                           f"no column {name!r} in alias {ref.table!r}")
        return _column_getter(slots[0], name)
    slots = [i for i, (_, columns) in enumerate(scope) if name in columns]
    if not slots:
        return _raiser(ColumnError, f"unknown column {name!r}")
    if len(slots) > 1:
        matches = sorted(scope[i][0] for i in slots)
        return _raiser(ColumnError, f"ambiguous column {name!r} (in {matches})")
    return _column_getter(slots[0], name)


def _column_getter(slot: int, name: str) -> RowFn:
    return lambda env, run: env[slot][name]


def _placeholder(index: int) -> RowFn:
    def placeholder(env: Env, run: Executor) -> Any:
        try:
            return run.params[index]
        except IndexError:
            raise ProgrammingError(
                f"statement requires at least {index + 1} parameters, "
                f"got {len(run.params)}"
            ) from None
    return placeholder


def _compile_comparison(compare: Callable[[Any, Any], bool],
                        left: RowFn, right: RowFn) -> RowFn:
    """NULL never compares true; a number and a numeric string compare
    numerically; incomparable types compare false."""
    def comparison(env: Env, run: Executor) -> bool:
        lhs, rhs = left(env, run), right(env, run)
        if lhs is None or rhs is None:
            return False
        if lhs.__class__ is not rhs.__class__:
            lhs, rhs = _coerce_pair(lhs, rhs)
        try:
            return compare(lhs, rhs)
        except TypeError:
            return False
    return comparison


def _compile_arithmetic(op: str, left: RowFn, right: RowFn) -> RowFn:
    """NULL in, NULL out; MySQL makes division by zero NULL too."""
    apply = _ARITHMETIC.get(op)
    if apply is None:
        return _raiser(ProgrammingError, f"unknown operator {op!r}")

    def arithmetic(env: Env, run: Executor) -> Any:
        lhs, rhs = left(env, run), right(env, run)
        return None if lhs is None or rhs is None else apply(lhs, rhs)
    return arithmetic


_COMPARE: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}
_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda lhs, rhs: None if rhs == 0 else lhs / rhs,
}


def _negate(value: Any) -> Any:
    return None if value is None else -value


def _compile_predicate(expr: Expression, scope: Scope,
                       tables: Dict[str, Table]) -> RowFn:
    """IN (SELECT ...), IN (...), LIKE, BETWEEN and IS NULL.  All but
    IS NULL are false when their operand is NULL."""
    operand, negated = _compile(expr.operand, scope, tables), expr.negated
    if isinstance(expr, IsNull):
        return lambda env, run: (operand(env, run) is None) != negated
    if isinstance(expr, InSubquery):
        subquery = _compile_select(expr.subquery, tables)
        members = lambda env, run: run._subquery_values(subquery)
    elif isinstance(expr, InList):
        options = [_compile(option, scope, tables) for option in expr.options]
        members = lambda env, run: [option(env, run) for option in options]
    elif isinstance(expr, Between):
        low, high = _compile(expr.low, scope, tables), _compile(expr.high, scope, tables)

        def between(env: Env, run: Executor) -> bool:
            value, lo, hi = operand(env, run), low(env, run), high(env, run)
            if value is None or lo is None or hi is None:
                return False
            return (lo <= value <= hi) != negated
        return between
    else:
        return _compile_like(operand, expr.pattern, negated, scope, tables)

    def member_of(env: Env, run: Executor) -> bool:
        value = operand(env, run)
        if value is None:
            return False
        return (value in members(env, run)) != negated
    return member_of


def _compile_like(operand: RowFn, pattern_expr: Expression, negated: bool,
                  scope: Scope, tables: Dict[str, Table]) -> RowFn:
    if isinstance(pattern_expr, Literal) and pattern_expr.value is not None:
        match = _like_regex(str(pattern_expr.value)).match

        def like_constant(env: Env, run: Executor) -> bool:
            value = operand(env, run)
            if value is None:
                return False
            return (match(str(value)) is not None) != negated
        return like_constant
    pattern = _compile(pattern_expr, scope, tables)
    # The last pattern seen and its regex, swapped as one tuple so
    # threads sharing the plan never see a torn pair: a parameterised
    # pattern costs one cache lookup per execution, not one per row.
    last: List[Tuple[Optional[str], Any]] = [(None, None)]

    def like(env: Env, run: Executor) -> bool:
        value, text = operand(env, run), pattern(env, run)
        if value is None or text is None:
            return False
        seen, regex = last[0]
        if str(text) != seen:
            regex = _like_regex(str(text))
            last[0] = (str(text), regex)
        return (regex.match(str(value)) is not None) != negated
    return like


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _raiser(error: type, message: str) -> Callable[..., Any]:
    """A closure that raises ``error(message)`` whenever it is called."""
    def raise_error(*_args: Any) -> Any:
        raise error(message)
    return raise_error


def _table_columns(tables: Dict[str, Table], name: str) -> Tuple[str, ...]:
    table = tables.get(name)
    return tuple(table.column_names) if table is not None else ()


def _coerce_for_column(table: Table, column: str, value: Any) -> Any:
    """Coerce a literal toward a column's type for exact index lookup.

    MySQL compares a numeric string against an integer column
    numerically; hash indexes need the coercion applied before probing
    (``WHERE i_id = '3'`` must hit the row whose i_id is 3).
    """
    base = table.column(column).base_type
    if isinstance(value, str) and base in (
        "INT", "INTEGER", "BIGINT", "FLOAT", "DOUBLE", "DECIMAL", "NUMERIC",
    ):
        try:
            numeric = float(value)
        except ValueError:
            return value
        if base in ("INT", "INTEGER", "BIGINT") and numeric.is_integer():
            return int(numeric)
        return numeric
    if isinstance(value, (int, float)) and base in ("VARCHAR", "CHAR", "TEXT"):
        return str(value)
    return value


def _coerce_pair(left: Any, right: Any) -> Tuple[Any, Any]:
    """MySQL-flavoured implicit coercion for comparisons: a number and a
    numeric string compare numerically."""
    if isinstance(left, str) and isinstance(right, (int, float)):
        try:
            return float(left), float(right)
        except ValueError:
            return left, str(right)
    if isinstance(right, str) and isinstance(left, (int, float)):
        try:
            return float(left), float(right)
        except ValueError:
            return str(left), right
    return left, right


def _conjuncts(where: Optional[Expression]) -> Iterable[Expression]:
    """Flatten top-level ANDs into a list of conjuncts."""
    if where is None:
        return
    stack = [where]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "AND":
            stack.append(node.left)
            stack.append(node.right)
        else:
            yield node


def _has_aggregate(items: Sequence[SelectItem]) -> bool:
    return any(
        _contains_aggregate(item.expression) for item in items if not item.star
    )


def _contains_aggregate(expr: Expression) -> bool:
    if isinstance(expr, FuncCall):
        return True
    if isinstance(expr, BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return _contains_aggregate(expr.operand)
    return False


def _expression_label(expr: Expression) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        return f"{expr.name}({_expression_label(expr.argument)})"
    if isinstance(expr, Literal):
        return repr(expr.value)
    return "expr"
