"""SQL executor: runs parsed statements against the storage layer.

Plans are simple but cost-faithful: equality predicates on indexed
columns become index probes; everything else scans.  Every elementary
operation is charged to the :class:`~repro.db.cost.CostModel`, which is
how the TPC-W fast/slow page dichotomy emerges.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.cost import CostModel
from repro.db.errors import ColumnError, ProgrammingError, SQLSyntaxError, TableError
from repro.db.sql.ast import (
    Begin,
    Between,
    BinaryOp,
    Commit,
    ColumnRef,
    InSubquery,
    CreateIndex,
    CreateTable,
    Delete,
    Expression,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    Literal,
    OrderItem,
    Placeholder,
    Rollback,
    Select,
    SelectItem,
    Statement,
    UnaryOp,
    Update,
)
from repro.db.table import Table

#: An environment maps table alias -> row dict.
Env = Dict[str, Dict[str, Any]]


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
    """Executes one AST statement against a dict of tables.

    The instance carries that statement's state — its running cost,
    the active transaction's undo log, the subquery cache — so each
    statement runs on its own executor and concurrent statements never
    see each other's.  The executor holds no locks itself;
    :class:`repro.db.engine.Database` wraps each call in the
    appropriate :class:`LockScope`.
    """

    def __init__(self, tables: Dict[str, Table], cost: CostModel,
                 undo=None):
        self._tables = tables
        self._cost = cost
        self._undo = undo  # the active transaction's UndoLog, if any
        self._subquery_cache: Dict[int, frozenset] = {}
        self._statement_cost = 0.0

    # ------------------------------------------------------------------
    def execute(self, statement: Statement,
                params: Sequence[Any] = ()) -> ResultSet:
        self._statement_cost = self._cost.charge("statement")
        if isinstance(statement, Select):
            result = self._execute_select(statement, params)
        elif isinstance(statement, Insert):
            result = self._execute_insert(statement, params)
        elif isinstance(statement, Update):
            result = self._execute_update(statement, params)
        elif isinstance(statement, Delete):
            result = self._execute_delete(statement, params)
        elif isinstance(statement, CreateTable):
            result = self._execute_create_table(statement)
        elif isinstance(statement, CreateIndex):
            result = self._execute_create_index(statement)
        elif isinstance(statement, (Begin, Commit, Rollback)):
            raise ProgrammingError(
                "transaction statements are handled by the engine, not "
                "the executor"
            )
        else:
            raise ProgrammingError(f"cannot execute {type(statement).__name__}")
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

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: Expression, env: Env, params: Sequence[Any]) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Placeholder):
            if expr.index >= len(params):
                raise ProgrammingError(
                    f"statement requires at least {expr.index + 1} parameters, "
                    f"got {len(params)}"
                )
            return params[expr.index]
        if isinstance(expr, ColumnRef):
            return self._resolve_column(expr, env)
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, env, params)
        if isinstance(expr, UnaryOp):
            value = self._eval(expr.operand, env, params)
            if expr.op == "NOT":
                return not _truthy(value)
            if expr.op == "-":
                return None if value is None else -value
            raise ProgrammingError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, InSubquery):
            value = self._eval(expr.operand, env, params)
            if value is None:
                return False
            members = self._subquery_values(expr, params)
            found = value in members
            return (not found) if expr.negated else found
        if isinstance(expr, InList):
            value = self._eval(expr.operand, env, params)
            if value is None:
                return False
            members = [self._eval(option, env, params) for option in expr.options]
            found = value in members
            return (not found) if expr.negated else found
        if isinstance(expr, Like):
            value = self._eval(expr.operand, env, params)
            pattern = self._eval(expr.pattern, env, params)
            if value is None or pattern is None:
                return False
            matched = bool(_like_regex(str(pattern)).match(str(value)))
            return (not matched) if expr.negated else matched
        if isinstance(expr, Between):
            value = self._eval(expr.operand, env, params)
            low = self._eval(expr.low, env, params)
            high = self._eval(expr.high, env, params)
            if value is None or low is None or high is None:
                return False
            inside = low <= value <= high
            return (not inside) if expr.negated else inside
        if isinstance(expr, IsNull):
            value = self._eval(expr.operand, env, params)
            is_null = value is None
            return (not is_null) if expr.negated else is_null
        if isinstance(expr, FuncCall):
            raise ProgrammingError(
                f"aggregate {expr.name} used outside SELECT projections"
            )
        raise ProgrammingError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binary(self, expr: BinaryOp, env: Env, params: Sequence[Any]) -> Any:
        op = expr.op
        if op == "AND":
            return (
                _truthy(self._eval(expr.left, env, params))
                and _truthy(self._eval(expr.right, env, params))
            )
        if op == "OR":
            return (
                _truthy(self._eval(expr.left, env, params))
                or _truthy(self._eval(expr.right, env, params))
            )
        left = self._eval(expr.left, env, params)
        right = self._eval(expr.right, env, params)
        if op in ("+", "-", "*", "/"):
            if left is None or right is None:
                return None
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if right == 0:
                return None  # MySQL: division by zero yields NULL
            return left / right
        # Comparisons: NULL never compares true.
        if left is None or right is None:
            return False
        left, right = _coerce_pair(left, right)
        try:
            if op == "=":
                return left == right
            if op == "<>":
                return left != right
            if op == "<":
                return left < right
            if op == ">":
                return left > right
            if op == "<=":
                return left <= right
            if op == ">=":
                return left >= right
        except TypeError:
            return False
        raise ProgrammingError(f"unknown operator {op!r}")

    def _subquery_values(self, expr: InSubquery,
                         params: Sequence[Any]) -> frozenset:
        """Materialise an uncorrelated subquery once per statement."""
        key = id(expr)
        cached = self._subquery_cache.get(key)
        if cached is None:
            result = self._execute_select(expr.subquery, params)
            if result.rows and len(result.rows[0]) != 1:
                raise ProgrammingError(
                    "IN (SELECT ...) subquery must project exactly one column"
                )
            cached = frozenset(row[0] for row in result.rows)
            self._subquery_cache[key] = cached
        return cached

    def _resolve_column(self, ref: ColumnRef, env: Env) -> Any:
        if ref.table is not None:
            row = env.get(ref.table)
            if row is None:
                raise ColumnError(f"unknown table alias {ref.table!r} in {ref}")
            if ref.name not in row:
                raise ColumnError(f"no column {ref.name!r} in alias {ref.table!r}")
            return row[ref.name]
        matches = [alias for alias, row in env.items() if ref.name in row]
        if not matches:
            raise ColumnError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise ColumnError(
                f"ambiguous column {ref.name!r} (in {sorted(matches)})"
            )
        return env[matches[0]][ref.name]

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _execute_select(self, select: Select, params: Sequence[Any]) -> ResultSet:
        envs = self._produce_envs(select, params)
        if select.where is not None:
            envs = [
                env for env in envs
                if _truthy(self._eval(select.where, env, params))
            ]

        if select.group_by or _has_aggregate(select.items):
            out_columns, out_rows = self._project_grouped(select, envs, params)
            env_for_order = None
        else:
            out_columns, out_rows, env_for_order = self._project_plain(
                select, envs, params
            )

        if select.distinct:
            seen = set()
            unique_rows = []
            unique_envs = [] if env_for_order is not None else None
            for i, row in enumerate(out_rows):
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
                    if unique_envs is not None:
                        unique_envs.append(env_for_order[i])
            out_rows = unique_rows
            if unique_envs is not None:
                env_for_order = unique_envs

        if select.order_by:
            out_rows = self._order_rows(
                select.order_by, out_columns, out_rows, env_for_order, params
            )

        offset = self._eval_scalar(select.offset, params, default=0)
        limit = self._eval_scalar(select.limit, params, default=None)
        if offset:
            out_rows = out_rows[int(offset):]
        if limit is not None:
            out_rows = out_rows[: int(limit)]

        self._charge("row_emit", len(out_rows))
        return ResultSet(columns=out_columns, rows=out_rows, rowcount=len(out_rows))

    def _eval_scalar(self, expr: Optional[Expression], params: Sequence[Any],
                     default: Any) -> Any:
        if expr is None:
            return default
        return self._eval(expr, {}, params)

    def _produce_envs(self, select: Select, params: Sequence[Any]) -> List[Env]:
        if select.table is None:
            return [{}]
        base = self._table(select.table)
        base_alias = select.alias or select.table
        known_aliases = {base_alias}
        for join in select.joins:
            if join.alias in known_aliases:
                raise SQLSyntaxError(f"duplicate table alias {join.alias!r}")
            known_aliases.add(join.alias)

        envs = [
            {base_alias: row}
            for row in self._base_rows(base, base_alias, select.where, params)
        ]
        for join in select.joins:
            envs = self._apply_join(envs, join, params)
        return envs

    def _base_rows(self, table: Table, alias: str,
                   where: Optional[Expression],
                   params: Sequence[Any]) -> List[Dict[str, Any]]:
        """Rows of the driving table, via index when the WHERE clause has
        a usable top-level equality conjunct, else a charged full scan."""
        probe = self._find_index_probe(table, alias, where, params)
        if probe is not None:
            index, value = probe
            self._charge("index_probe")
            row_ids = index.lookup(value)
            self._charge("index_row", len(row_ids))
            return [table.rows[row_id] for row_id in row_ids
                    if row_id in table.rows]
        self._charge("row_scan", len(table.rows))
        return list(table.rows.values())

    def _find_index_probe(self, table: Table, alias: str,
                          where: Optional[Expression],
                          params: Sequence[Any]):
        """Look for ``col = constant`` among top-level AND conjuncts where
        ``col`` is an indexed column of this table."""
        for conjunct in _conjuncts(where):
            if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
                continue
            for ref_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(ref_side, ColumnRef):
                    continue
                if ref_side.table is not None and ref_side.table != alias:
                    continue
                if not table.has_column(ref_side.name):
                    continue
                if not _is_constant(value_side):
                    continue
                index = table.index_on(ref_side.name)
                if index is None:
                    continue
                value = self._eval(value_side, {}, params)
                value = _coerce_for_column(table, ref_side.name, value)
                return index, value
        return None

    def _apply_join(self, envs: List[Env], join, params: Sequence[Any]) -> List[Env]:
        table = self._table(join.table)
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
            raise SQLSyntaxError(
                f"cannot attribute ON columns of join to {join.alias!r}"
            )
        if not table.has_column(inner_col):
            raise ColumnError(
                f"join table {join.table!r} has no column {inner_col!r}"
            )

        index = table.index_on(inner_col)
        if index is None:
            # Build a transient hash table: one scan of the joined table.
            # Snapshot first: concurrent inserts (MyISAM-style shared
            # lock) may grow the dict while we iterate.
            snapshot = list(table.rows.values())
            self._charge("row_scan", len(snapshot))
            buckets: Dict[Any, List[Dict[str, Any]]] = {}
            for row in snapshot:
                buckets.setdefault(row[inner_col], []).append(row)
            lookup: Callable[[Any], List[Dict[str, Any]]] = (
                lambda v: buckets.get(v, [])
            )
            probe_op = "join_probe"
        else:
            lookup = lambda v: [
                table.rows[rid] for rid in index.lookup(v) if rid in table.rows
            ]
            probe_op = "index_probe"

        null_row = {name: None for name in table.column_names}
        joined: List[Env] = []
        for env in envs:
            outer_value = self._eval(outer_ref, env, params)
            self._charge(probe_op)
            matches = lookup(outer_value) if outer_value is not None else []
            if matches:
                self._charge("index_row" if index is not None else "row_emit",
                             len(matches))
                for match in matches:
                    new_env = dict(env)
                    new_env[join.alias] = match
                    joined.append(new_env)
            elif join.outer:
                new_env = dict(env)
                new_env[join.alias] = null_row
                joined.append(new_env)
        return joined

    # -- projection -----------------------------------------------------
    def _output_columns(self, select: Select) -> List[str]:
        columns: List[str] = []
        for item in select.items:
            if item.star:
                if item.star_table is not None:
                    aliases = [item.star_table]
                else:
                    aliases = self._all_aliases(select)
                for alias in aliases:
                    columns.extend(self._alias_columns(select, alias))
            else:
                columns.append(item.alias or _expression_label(item.expression))
        return columns

    def _all_aliases(self, select: Select) -> List[str]:
        aliases = []
        if select.table is not None:
            aliases.append(select.alias or select.table)
        aliases.extend(join.alias for join in select.joins)
        return aliases

    def _alias_columns(self, select: Select, alias: str) -> List[str]:
        name = None
        if select.table is not None and (select.alias or select.table) == alias:
            name = select.table
        else:
            for join in select.joins:
                if join.alias == alias:
                    name = join.table
                    break
        if name is None:
            raise ColumnError(f"unknown alias {alias!r} in star projection")
        return list(self._table(name).column_names)

    def _project_env(self, select: Select, env: Env,
                     params: Sequence[Any]) -> Tuple:
        values: List[Any] = []
        for item in select.items:
            if item.star:
                aliases = (
                    [item.star_table] if item.star_table is not None
                    else self._all_aliases(select)
                )
                for alias in aliases:
                    if alias not in env:
                        raise ColumnError(f"unknown alias {alias!r}")
                    table_columns = self._alias_columns(select, alias)
                    values.extend(env[alias][c] for c in table_columns)
            else:
                values.append(self._eval(item.expression, env, params))
        return tuple(values)

    def _project_plain(self, select: Select, envs: List[Env],
                       params: Sequence[Any]):
        columns = self._output_columns(select)
        rows = [self._project_env(select, env, params) for env in envs]
        return columns, rows, envs

    def _project_grouped(self, select: Select, envs: List[Env],
                         params: Sequence[Any]):
        columns = self._output_columns(select)
        if select.group_by:
            groups: Dict[Tuple, List[Env]] = {}
            order: List[Tuple] = []
            for env in envs:
                key = tuple(
                    self._eval(expr, env, params) for expr in select.group_by
                )
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(env)
                self._charge("row_group")
            grouped = [groups[key] for key in order]
        else:
            # Aggregates without GROUP BY: one group of everything.
            self._charge("row_group", len(envs))
            grouped = [envs]

        rows: List[Tuple] = []
        for group in grouped:
            if not group and not select.group_by:
                # e.g. COUNT(*) over an empty table still yields a row.
                group_env_list: List[Env] = []
            else:
                group_env_list = group
            if select.having is not None:
                having_value = self._eval_grouped(
                    select.having, group_env_list, params
                )
                if not _truthy(having_value):
                    continue
            values = []
            for item in select.items:
                if item.star:
                    raise SQLSyntaxError(
                        "SELECT * cannot be combined with GROUP BY/aggregates"
                    )
                values.append(
                    self._eval_grouped(item.expression, group_env_list, params)
                )
            rows.append(tuple(values))
        return columns, rows

    def _eval_grouped(self, expr: Expression, group: List[Env],
                      params: Sequence[Any]) -> Any:
        """Evaluate an expression in grouped context: aggregates reduce
        over the group; bare columns use the group's first row (MySQL's
        permissive ONLY_FULL_GROUP_BY-off behaviour)."""
        if isinstance(expr, FuncCall):
            return self._eval_aggregate(expr, group, params)
        if isinstance(expr, BinaryOp):
            if expr.op in ("AND", "OR"):
                left = self._eval_grouped(expr.left, group, params)
                if expr.op == "AND":
                    return _truthy(left) and _truthy(
                        self._eval_grouped(expr.right, group, params)
                    )
                return _truthy(left) or _truthy(
                    self._eval_grouped(expr.right, group, params)
                )
            rebuilt = BinaryOp(
                expr.op,
                Literal(self._eval_grouped(expr.left, group, params)),
                Literal(self._eval_grouped(expr.right, group, params)),
            )
            return self._eval_binary(rebuilt, {}, params)
        if isinstance(expr, UnaryOp):
            inner = self._eval_grouped(expr.operand, group, params)
            if expr.op == "NOT":
                return not _truthy(inner)
            return None if inner is None else -inner
        representative = group[0] if group else {}
        return self._eval(expr, representative, params)

    def _eval_aggregate(self, call: FuncCall, group: List[Env],
                        params: Sequence[Any]) -> Any:
        if call.star:
            return len(group)
        assert call.argument is not None
        values = [
            self._eval(call.argument, env, params) for env in group
        ]
        values = [v for v in values if v is not None]
        if call.distinct:
            values = list(dict.fromkeys(values))
        name = call.name
        if name == "COUNT":
            return len(values)
        if not values:
            return None
        if name == "SUM":
            return sum(values)
        if name == "AVG":
            return sum(values) / len(values)
        if name == "MIN":
            return min(values)
        if name == "MAX":
            return max(values)
        raise ProgrammingError(f"unknown aggregate {name!r}")

    # -- ordering ---------------------------------------------------------
    def _order_rows(self, order_by: Sequence[OrderItem], columns: List[str],
                    rows: List[Tuple], envs: Optional[List[Env]],
                    params: Sequence[Any]) -> List[Tuple]:
        self._charge("row_sort", len(rows))
        column_positions = {name: i for i, name in enumerate(columns)}

        def key_parts(index_row: Tuple[int, Tuple]) -> Tuple:
            i, row = index_row
            parts = []
            for item in order_by:
                value = None
                expr = item.expression
                if (
                    isinstance(expr, ColumnRef)
                    and expr.table is None
                    and expr.name in column_positions
                ):
                    value = row[column_positions[expr.name]]
                elif isinstance(expr, Literal) and isinstance(expr.value, int):
                    # ORDER BY 2 → second output column (1-based)
                    position = expr.value - 1
                    if 0 <= position < len(row):
                        value = row[position]
                elif envs is not None:
                    value = self._eval(expr, envs[i], params)
                else:
                    raise ColumnError(
                        f"ORDER BY expression {expr!r} does not name an "
                        f"output column of a grouped query"
                    )
                parts.append(_SortKey(value, item.ascending))
            return tuple(parts)

        decorated = sorted(enumerate(rows), key=key_parts)
        return [row for _, row in decorated]

    # ------------------------------------------------------------------
    # INSERT / UPDATE / DELETE / CREATE
    # ------------------------------------------------------------------
    def _execute_insert(self, insert: Insert, params: Sequence[Any]) -> ResultSet:
        table = self._table(insert.table)
        columns = list(insert.columns) if insert.columns else table.column_names
        lastrowid = None
        for value_row in insert.rows:
            if len(value_row) != len(columns):
                raise ProgrammingError(
                    f"INSERT row has {len(value_row)} values for "
                    f"{len(columns)} columns"
                )
            values = {
                column: self._eval(expr, {}, params)
                for column, expr in zip(columns, value_row)
            }
            lastrowid = table.insert(values)
            if self._undo is not None:
                self._undo.record_insert(table, table.last_internal_row_id)
            self._charge("row_write")
        return ResultSet(rowcount=len(insert.rows), lastrowid=lastrowid)

    def _matching_row_ids(self, table: Table, alias: str,
                          where: Optional[Expression],
                          params: Sequence[Any]) -> List[int]:
        probe = self._find_index_probe(table, alias, where, params)
        if probe is not None:
            index, value = probe
            self._charge("index_probe")
            candidates = index.lookup(value)
            self._charge("index_row", len(candidates))
        else:
            self._charge("row_scan", len(table.rows))
            candidates = list(table.rows.keys())
        if where is None:
            return list(candidates)
        matched = []
        for row_id in candidates:
            row = table.rows.get(row_id)
            if row is None:
                continue
            if _truthy(self._eval(where, {alias: row}, params)):
                matched.append(row_id)
        return matched

    def _execute_update(self, update: Update, params: Sequence[Any]) -> ResultSet:
        table = self._table(update.table)
        row_ids = self._matching_row_ids(table, update.table, update.where, params)
        for row_id in row_ids:
            row = table.rows[row_id]
            env = {update.table: row}
            changes = {
                column: self._eval(expr, env, params)
                for column, expr in update.assignments
            }
            if self._undo is not None:
                before = {column: row[column] for column in changes}
                self._undo.record_update(table, row_id, before)
            table.update_row(row_id, changes)
            self._charge("row_write")
        return ResultSet(rowcount=len(row_ids))

    def _execute_delete(self, delete: Delete, params: Sequence[Any]) -> ResultSet:
        table = self._table(delete.table)
        row_ids = self._matching_row_ids(table, delete.table, delete.where, params)
        for row_id in row_ids:
            if self._undo is not None:
                self._undo.record_delete(table, table.rows[row_id])
            table.delete_row(row_id)
            self._charge("row_write")
        return ResultSet(rowcount=len(row_ids))

    def _execute_create_table(self, create: CreateTable) -> ResultSet:
        if create.name in self._tables:
            raise TableError(f"table {create.name!r} already exists")
        self._tables[create.name] = Table(create.name, list(create.columns))
        return ResultSet()

    def _execute_create_index(self, create: CreateIndex) -> ResultSet:
        table = self._table(create.table)
        table.create_index(create.name, create.column)
        return ResultSet()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _truthy(value: Any) -> bool:
    return bool(value)


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


def _is_constant(expr: Expression) -> bool:
    return isinstance(expr, (Literal, Placeholder))


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


class _SortKey:
    """Orders values with NULLs first and mixed types without raising."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool):
        self.value = value
        self.ascending = ascending

    def _rank(self) -> Tuple:
        value = self.value
        if value is None:
            return (0, 0)
        if isinstance(value, bool):
            return (1, int(value))
        if isinstance(value, (int, float)):
            return (1, value)
        return (2, str(value))

    def __lt__(self, other: "_SortKey") -> bool:
        if self.ascending:
            return self._rank() < other._rank()
        return self._rank() > other._rank()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortKey):
            return NotImplemented
        return self._rank() == other._rank()
