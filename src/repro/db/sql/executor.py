"""SQL executor: compiles parsed statements into plans and runs them.

Plans are simple but cost-faithful: equality predicates on indexed
columns become index probes; everything else scans.  Every operator's
work is charged to the :class:`~repro.db.cost.CostModel`, which is how
the TPC-W fast/slow page dichotomy emerges.

:func:`compile_statement` does the per-statement work once.  Each
expression is compiled to Python source over row locals ``r0, r1, ...``
(one row dict per FROM/JOIN alias) and parameters ``P``; bound values
never enter that source, they are namespace constants.  A SELECT's
scan and joins become one generated function of nested loops, and its
WHERE a generated filter over what they produce (see
:func:`_compile_scan`); every other expression — projections,
grouping, ORDER BY, LIMIT, INSERT values, UPDATE SET/WHERE — becomes a
small generated function ``f(env, run)``, ``env`` a tuple of row dicts
and ``run`` the :class:`Executor` carrying the parameters.  What the
compiler finds wrong (an unknown column, a missing table) compiles to a
call that raises when execution reaches it.
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
from repro.db.table import Table, table_versions

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
    running cost and the charges that make it up, the active
    transaction's undo log, the subquery cache — so each statement runs
    on its own executor and concurrent statements never see each
    other's, while the compiled plan itself is shared.  The executor
    holds no locks itself; :class:`repro.db.engine.Database` wraps each
    call in the appropriate :class:`LockScope`.
    """

    #: ``"product_hits"``, ``"product_misses"`` and ``"product_refused"``
    #: events of the join products this statement's scans looked up (see
    #: :func:`_compile_scan`), for the engine's counters.
    product_reuse: Tuple[str, ...] = ()

    def __init__(self, tables: Dict[str, Table], cost: CostModel,
                 undo=None):
        self._tables = tables
        self._cost = cost
        self._undo = undo  # the active transaction's UndoLog, if any
        self._subquery_cache: Dict[Plan, frozenset] = {}
        self._statement_cost = 0.0
        #: Every ``(operation, count)`` charged so far, in order: the
        #: engine replays them when it reuses this statement's result.
        self.charges: List[Tuple[str, int]] = []
        self.params: Sequence[Any] = ()

    def execute(self, statement: Statement, params: Sequence[Any] = (),
                plan: Optional[Plan] = None) -> ResultSet:
        """Run ``statement``; ``plan`` is its compiled form, if cached."""
        self._statement_cost = self._cost.charge("statement")
        self.charges = [("statement", 1)]
        if plan is None:
            plan = compile_statement(statement, self._tables)
        self.params = params
        result = plan(self)
        self._cost.settle(self._statement_cost)
        return result

    def _charge(self, operation: str, count: int = 1) -> None:
        if count:
            self._statement_cost += self._cost.charge(operation, count)
            self.charges.append((operation, count))

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


class _Params(tuple):
    """Fewer parameters than the statement reads: a missing one raises
    when execution reaches it, not before."""

    def __getitem__(self, index):
        if index < len(self):
            return tuple.__getitem__(self, index)
        raise ProgrammingError(f"statement requires at least {index + 1} "
                               f"parameters, got {len(self)}")


def _bind_params(run: Executor, arity: int) -> None:
    if len(run.params) < arity:
        run.params = _Params(run.params)


class _Codegen:
    """One statement's generated code: the namespace its functions
    share (helpers, and every bound value as a ``_k<n>`` constant), the
    source of each function, and how many parameters they read."""

    def __init__(self, tables: Dict[str, Table]) -> None:
        self.tables = tables
        self.namespace: Dict[str, Any] = dict(_HELPERS)
        self.sources: List[str] = []
        self.arity = 0
        self._count = 0

    def name(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def const(self, value: Any) -> str:
        name = self.name("_k")
        self.namespace[name] = value
        return name

    def define(self, signature: str, body: List[str]) -> Callable[..., Any]:
        name = self.name("_f")
        source = "\n".join([f"def {name}({signature}):"]
                           + ["    " + line for line in body])
        self.sources.append(source)
        exec(compile(source, "<sql plan>", "exec"), self.namespace)
        return self.namespace[name]

    def closure(self, source: str, slots: int, over: str = "env") -> RowFn:
        """``f(env, run)`` returning ``source``; with ``over="G"``,
        ``f(group, run)`` whose row locals hold the group's first row."""
        body = ["P = run.params"]
        if slots:
            body.append(f"{_rows(slots)} = env" if over == "env"
                        else f"if G: {_rows(slots)} = G[0]")
        return self.define(f"{over}, run", body + [f"return {source}"])


def _rows(slots: int) -> str:
    """The row locals of ``slots`` aliases, as an assignment target."""
    return ", ".join(f"r{slot}" for slot in range(slots)) + "," if slots else "()"


def _tuple(parts: Sequence[str]) -> str:
    return f"({', '.join(parts)},)" if parts else "()"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------

def compile_statement(statement: Statement, tables: Dict[str, Table]) -> Plan:
    """Compile ``statement`` against the current schema.  Never raises:
    problems become plans or generated code that raise when run.  A
    compiled SELECT/INSERT/UPDATE/DELETE plan carries every source it
    generated as ``generated_source``."""
    gen = _Codegen(tables)
    if isinstance(statement, Select):
        plan = _compile_select(statement, gen)
    elif isinstance(statement, Insert):
        plan = _compile_insert(statement, gen)
    elif isinstance(statement, (Update, Delete)):
        plan = _compile_write(statement, gen)
    elif isinstance(statement, CreateTable):
        return functools.partial(_create_table, statement)
    elif isinstance(statement, CreateIndex):
        return functools.partial(_create_index, statement)
    elif isinstance(statement, (Begin, Commit, Rollback)):
        return _raiser(ProgrammingError, "transaction statements are handled "
                       "by the engine, not the executor")
    else:
        return _raiser(ProgrammingError,
                       f"cannot execute {type(statement).__name__}")
    plan.generated_source = "\n\n".join(gen.sources)  # type: ignore[attr-defined]
    return plan


def _compile_select(select: Select, gen: _Codegen) -> Plan:
    sources = ([(select.alias or select.table, select.table)]
               if select.table is not None else [])
    sources += [(join.alias, join.table) for join in select.joins]
    aliases = [alias for alias, _ in sources]
    duplicate = next((alias for i, alias in enumerate(aliases)
                      if alias in aliases[:i]), None)
    scope: Scope = tuple((alias, _table_columns(gen.tables, name))
                         for alias, name in sources)
    produce = _compile_scan(select, scope, duplicate, gen)
    columns, project, columns_error = _compile_projection(select, scope, gen)
    grouped = bool(select.group_by) or _has_aggregate(select.items)
    if grouped:
        project = _compile_grouping(select, scope, gen)
    order = _compile_order(select, columns, scope, gen, grouped)
    offset, limit = (None if expr is None else gen.closure(_compile(expr, (), gen), 0)
                     for expr in (select.offset, select.limit))
    distinct = select.distinct

    def run_select(run: Executor) -> ResultSet:
        _bind_params(run, gen.arity)
        envs = produce(run)
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


def _compile_scan(select: Select, scope: Scope, duplicate: Optional[str],
                  gen: _Codegen) -> Callable[[Executor], List[Env]]:
    """The driving rows (an index probe or a charged scan) and each join
    as one generated function that builds the *product*, each joined
    row's row dicts appended to one list per alias, and WHERE as a
    second that filters it into envs: the driving rows are the outer
    ``for``, each join a nested ``for`` over its bucket.  Parallel
    lists, not a tuple per joined row, so a build allocates nothing
    the collector counts, however many rows it joins.

    Depth-first, the product is in the order a join-at-a-time
    evaluation would emit, the filter keeps that order, and the per-join
    probe/match totals are the same.  Each operator is charged once,
    with its total: the driving scan before the loop, then each join's
    build scan, probes and matches after the filter, so a WHERE that
    raises leaves only the driving charges.

    *Join reuse.*  A product built from a full scan of the driving
    table, with at least one join, reads no parameter.  The plan keeps
    the latest such product in one slot, with the charges that built it,
    keyed by the identity and :attr:`~repro.db.table.Table.version` of
    the driving table and of every joined table; any later execution,
    whatever its parameters, filters it and replays those charges until
    one of those tables changes.  Why a reuse is never staler than
    building: the argument of :meth:`repro.db.engine.Database._select`,
    per plan.  A table bumps its version only after its change is
    visible; the versions are read before and after building and the
    product is kept only if they are equal, so a concurrent insert that
    lands mid-build leaves nothing behind.  The slot is one tuple,
    swapped whole, and dies with the plan on a schema change.  Nothing
    after the filter mutates the env list (a SELECT without WHERE passes
    the product on as it is), so a kept product is shared read-only."""
    joins = [_compile_join(join, scope[: i + 1], gen)
             for i, join in enumerate(select.joins)]
    build = gen.define("driving, joins", _product_body(scope, joins, gen))
    keep = gen.define("run, product", _filter_body(select.where, scope, gen))
    name = select.table
    probes = _probe_candidates(scope[0], select.where, gen) if scope else []
    names = [name] + [join.table for join in select.joins]
    #: (versions, driving charges, product, join charges), or None.
    kept: Optional[Tuple] = None

    def produce(run: Executor) -> List[Env]:
        nonlocal kept
        if name is None:
            return keep(run, build([()], [])[0])
        table = run._table(name)
        if duplicate is not None:
            raise SQLSyntaxError(f"duplicate table alias {duplicate!r}")
        # Only a joined full scan keeps its product, and only a full scan
        # reuses one: an index, once added, is never removed, so a
        # product kept at a version where one had appeared is never used.
        probe = _driving_index(table, probes)
        versions = (table_versions(run._tables, names)
                    if joins and probe is None else None)
        held = kept
        if versions is not None and held is not None and held[0] == versions:
            run.product_reuse += ("product_hits",)
            _, scanned, product, charges = held
            for operation, count in scanned:
                run._charge(operation, count)
        else:
            mark = len(run.charges)
            row_ids, rows = _candidate_ids(run, table, probe), table.rows
            driving = (list(rows.values()) if row_ids is None
                       else [rows[row_id] for row_id in row_ids if row_id in rows])
            opened = [open_join(run) for open_join, _, _ in joins]
            product, totals = build(driving, [access for access, _, _ in opened])
            charges = []
            for k, (_, built, (probe_op, match_op)) in enumerate(opened):
                charges += [("row_scan", built), (probe_op, totals[2 * k]),
                            (match_op, totals[2 * k + 1])]
            if versions is not None:
                run.product_reuse += ("product_misses",)
                if table_versions(run._tables, names) == versions:
                    kept = (versions, run.charges[mark:], product, charges)
                else:
                    run.product_reuse += ("product_refused",)
        envs = keep(run, product)
        for operation, count in charges:
            run._charge(operation, count)
        return envs

    return produce


def _product_body(scope: Scope, joins, gen: _Codegen) -> List[str]:
    """Source of ``f(driving, joins)``: the nested loops of
    :func:`_compile_scan`, returning the product, one list per alias in
    parallel, and each join's probe and match totals."""
    if not joins:
        return ["return (driving,), ()"]
    slots = range(len(scope))
    body = [f"o{s} = []; e{s} = o{s}.append" for s in slots]
    body += [f"b{k}, c{k}, g{k} = joins[{k - 1}]" for k in range(1, len(joins) + 1)]
    counts = [f"{kind}{k}" for k in range(1, len(joins) + 1) for kind in "pm"]
    body.append(" = ".join(counts + ["0"]))
    body.append("for r0 in driving:")
    indent = "    "
    for k, (_, outer, null_row) in enumerate(joins, 1):
        body += [f"{indent}p{k} += 1", f"{indent}v{k} = {outer}"]
        if null_row is not None:  # LEFT JOIN: the matches, or the null row
            body += [f"{indent}q{k} = [r for r in map(g{k}, c{k}(b{k}(v{k}) or ())) "
                     f"if r is not None] if v{k} is not None else []",
                     f"{indent}m{k} += len(q{k})",
                     f"{indent}for r{k} in q{k} or {gen.const((null_row,))}:"]
            indent += "    "
            continue
        body += [f"{indent}if v{k} is not None and (s{k} := b{k}(v{k})):",
                 f"{indent}    for i{k} in c{k}(s{k}):",
                 f"{indent}        r{k} = g{k}(i{k})",
                 f"{indent}        if r{k} is None:",
                 f"{indent}            continue",
                 f"{indent}        m{k} += 1"]
        indent += "        "
    return body + [indent + "; ".join(f"e{s}(r{s})" for s in slots),
                   f"return {_tuple([f'o{s}' for s in slots])}, {_tuple(counts)}"]


def _filter_body(where: Optional[Expression], scope: Scope,
                 gen: _Codegen) -> List[str]:
    """Source of ``f(run, product)``: the envs of the product that pass
    WHERE, in product order, as a new list; the product is not changed.
    Only the envs kept are built, so filtering a large product allocates
    little the collector tracks."""
    names = [f"r{slot}" for slot in range(len(scope))]
    if where is None:
        return ["return list(zip(*product))" if names else "return [()]"]
    rows = ("zip(*product)" if len(names) > 1
            else "product[0]" if names else "((),)")
    return ["P = run.params", "out = []", "emit = out.append",
            f"for {', '.join(names) or '()'} in {rows}:",
            f"    if {_compile(where, scope, gen)}:",
            f"        emit({_tuple(names)})",
            "return out"]


def _compile_join(join, scope: Scope, gen: _Codegen):
    """One equi-join step: ``(open, outer, null_row)``.  ``outer`` is the
    source of the ON value from the rows before it, ``null_row`` the row
    a LEFT JOIN pads with (None for an inner join), and ``open(run)``
    returns the per-execution ``((bucket_of, copy, row_of), build scan,
    (probe op, match op))``: the index's buckets if the joined column is
    indexed, else a transient hash table built by one scan."""
    table = gen.tables.get(join.table)
    if table is None:
        return _raiser(TableError, f"no such table: {join.table!r}"), "None", None
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
        return _raiser(SQLSyntaxError, f"cannot attribute ON columns of join "
                       f"to {join.alias!r}"), "None", None
    if not table.has_column(inner_col):
        return _raiser(ColumnError, f"join table {join.table!r} has no column "
                       f"{inner_col!r}"), "None", None
    null_row = ({name: None for name in table.column_names}
                if join.outer else None)

    def open_join(run: Executor):
        table = run._table(join.table)
        index = table.index_on(inner_col)
        if index is not None:
            # Index buckets are live sets: a concurrent insert may grow
            # one, so each is copied (as HashIndex.lookup does).
            return ((index.buckets.get, set, table.rows.get), 0,
                    ("index_probe", "index_row"))
        # Snapshot first: concurrent inserts (MyISAM-style shared
        # lock) may grow the dict while we iterate.
        snapshot = list(table.rows.items())
        buckets: Dict[Any, List[int]] = {}
        for row_id, row in snapshot:
            buckets.setdefault(row[inner_col], []).append(row_id)
        return ((buckets.get, tuple, table.rows.get), len(snapshot),
                ("join_probe", "row_emit"))

    return open_join, _compile(outer_ref, scope, gen), null_row


def _probe_candidates(slot: Tuple[str, Tuple[str, ...]],
                      where: Optional[Expression],
                      gen: _Codegen) -> List[Tuple[str, RowFn]]:
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
                    (ref_side.name, gen.closure(_compile(value_side, (), gen), 0)))
    return candidates


def _driving_index(table: Table, candidates: List[Tuple[str, RowFn]]
                   ) -> Optional[Tuple[str, RowFn, Any]]:
    """The first candidate column with an index on ``table``, as
    ``(column, value_of, index)``; None when every row is scanned."""
    for column, value_of in candidates:
        index = table.index_on(column)
        if index is not None:
            return column, value_of, index
    return None


def _candidate_ids(run: Executor, table: Table,
                   probe: Optional[Tuple[str, RowFn, Any]]) -> Optional[Iterable[int]]:
    """Row ids from ``probe`` (see :func:`_driving_index`); None after
    charging a full scan (every row is a candidate)."""
    if probe is None:
        run._charge("row_scan", len(table.rows))
        return None
    column, value_of, index = probe
    value = _coerce_for_column(table, column, value_of((), run))
    run._charge("index_probe")
    row_ids = index.lookup(value)
    run._charge("index_row", len(row_ids))
    return row_ids


# -- projection -----------------------------------------------------------
def _compile_projection(select: Select, scope: Scope, gen: _Codegen):
    """Output column names plus the per-row projection; a bad star alias
    is returned as the error the projection step raises."""
    columns: List[str] = []
    parts: List[str] = []
    positions = {alias: i for i, (alias, _) in enumerate(scope)}
    for item in select.items:
        if not item.star:
            columns.append(item.alias or _expression_label(item.expression))
            parts.append(_compile(item.expression, scope, gen))
            continue
        for alias in ([item.star_table] if item.star_table is not None
                      else list(positions)):
            if alias not in positions:
                error = ColumnError(f"unknown alias {alias!r} in star projection")
                return columns, None, error
            slot = positions[alias]
            for name in scope[slot][1]:
                columns.append(name)
                parts.append(f"r{slot}[{name!r}]")
    return columns, gen.closure(_tuple(parts), len(scope)), None


def _compile_grouping(select: Select, scope: Scope, gen: _Codegen):
    """GROUP BY (or one group of everything), HAVING, and the grouped
    projection: aggregates reduce over the group, bare columns use the
    group's first row (MySQL's permissive ONLY_FULL_GROUP_BY-off
    behaviour)."""
    slots = len(scope)
    key_of = (gen.closure(_tuple([_compile(expr, scope, gen)
                                  for expr in select.group_by]), slots)
              if select.group_by else None)
    having = (gen.closure(_compile(select.having, scope, gen, grouped=True),
                          slots, over="G")
              if select.having is not None else None)
    items = gen.closure(_tuple([
        _fail(gen, SQLSyntaxError,
              "SELECT * cannot be combined with GROUP BY/aggregates")
        if item.star else _compile(item.expression, scope, gen, grouped=True)
        for item in select.items
    ]), slots, over="G")

    def project_groups(envs: List[Env], run: Executor) -> List[Tuple]:
        run._charge("row_group", len(envs))
        if key_of is not None:
            groups: Dict[Tuple, List[Env]] = {}
            for env in envs:
                key = key_of(env, run)
                group = groups.get(key)
                if group is None:
                    groups[key] = [env]
                else:
                    group.append(env)
            grouped = list(groups.values())
        else:
            grouped = [envs]
        return [items(group, run) for group in grouped
                if having is None or having(group, run)]

    return project_groups


def _compile_order(select: Select, columns: List[str], scope: Scope,
                   gen: _Codegen, grouped: bool):
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
            on_env = gen.closure(_compile(expr, scope, gen), len(scope))
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
def _compile_insert(insert: Insert, gen: _Codegen) -> Plan:
    rows = [(len(row), gen.closure(_tuple([_compile(expr, (), gen)
                                           for expr in row]), 0))
            for row in insert.rows]

    def run_insert(run: Executor) -> ResultSet:
        _bind_params(run, gen.arity)
        table = run._table(insert.table)
        columns = list(insert.columns) if insert.columns else table.column_names
        lastrowid = None
        for width, values_of in rows:
            if width != len(columns):
                raise ProgrammingError(
                    f"INSERT row has {width} values for "
                    f"{len(columns)} columns"
                )
            lastrowid = table.insert(dict(zip(columns, values_of((), run))))
            if run._undo is not None:
                run._undo.record_insert(table, table.last_internal_row_id)
            run._charge("row_write")
        return ResultSet(rowcount=len(rows), lastrowid=lastrowid)

    return run_insert


def _compile_write(statement, gen: _Codegen) -> Plan:
    """UPDATE or DELETE: find the matching rows (index probe or scan,
    then WHERE), then write each one, charged per row."""
    name = statement.table
    scope: Scope = ((name, _table_columns(gen.tables, name)),)
    probes = _probe_candidates(scope[0], statement.where, gen)
    where = (gen.closure(_compile(statement.where, scope, gen), 1)
             if statement.where is not None else None)
    is_update = isinstance(statement, Update)
    assignments = [(column, gen.closure(_compile(expr, scope, gen), 1))
                   for column, expr in (statement.assignments if is_update else ())]

    def run_write(run: Executor) -> ResultSet:
        _bind_params(run, gen.arity)
        table = run._table(name)
        candidates = _candidate_ids(run, table, _driving_index(table, probes))
        if candidates is None:
            candidates = list(table.rows)
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

def _compile(expr: Expression, scope: Scope, gen: _Codegen,
             grouped: bool = False) -> str:
    """Python source for ``expr`` over the row locals of ``scope`` and
    the parameters ``P``.  With ``grouped`` it is evaluated over a list
    of envs ``G``: aggregates reduce over the group, operators combine
    their grouped operands, and anything else reads the group's first
    row (MySQL's permissive ONLY_FULL_GROUP_BY-off behaviour).  Every
    operand is evaluated, in order, before its operator decides."""
    if isinstance(expr, BinaryOp):
        left = _compile(expr.left, scope, gen, grouped)
        right = _compile(expr.right, scope, gen, grouped)
        if expr.op in ("AND", "OR"):
            word = "and" if expr.op == "AND" else "or"
            return f"({_truth(expr.left, left)} {word} {_truth(expr.right, right)})"
        lhs, rhs = gen.name("_t"), gen.name("_t")
        if expr.op in _COMPARE:
            symbol, compare = _COMPARE[expr.op]
            # NULL never compares true; a number and a numeric string
            # compare numerically; incomparable types compare false.
            return (f"({lhs} {symbol} {rhs} if ({lhs} := {left}).__class__ is "
                    f"({rhs} := {right}).__class__ and {lhs}.__class__ in _SCALARS "
                    f"else _compare({gen.const(compare)}, {lhs}, {rhs}))")
        if expr.op not in _ARITHMETIC:
            return _fail(gen, ProgrammingError, f"unknown operator {expr.op!r}")
        # NULL in, NULL out; MySQL makes division by zero NULL too.
        value = (f"(None if {rhs} == 0 else {lhs} / {rhs})" if expr.op == "/"
                 else f"{lhs} {_ARITHMETIC[expr.op]} {rhs}")
        return (f"({value} if (({lhs} := {left}) is not None) & "
                f"(({rhs} := {right}) is not None) else None)")
    if isinstance(expr, UnaryOp):
        operand = _compile(expr.operand, scope, gen, grouped)
        if expr.op == "NOT":
            return f"(not {operand})"
        if expr.op == "-":
            value = gen.name("_t")
            return f"(None if ({value} := {operand}) is None else -{value})"
        return _fail(gen, ProgrammingError, f"unknown unary operator {expr.op!r}")
    if isinstance(expr, (InSubquery, InList, Like, Between, IsNull)):
        return _compile_predicate(expr, scope, gen, grouped)
    if grouped:
        if isinstance(expr, FuncCall):
            return _compile_aggregate(expr, scope, gen)
        return f"({_compile(expr, scope, gen)} if G else {_compile(expr, (), gen)})"
    if isinstance(expr, Literal):
        return gen.const(expr.value)
    if isinstance(expr, Placeholder):
        gen.arity = max(gen.arity, expr.index + 1)
        return f"P[{expr.index:d}]"
    if isinstance(expr, ColumnRef):
        return _compile_column(expr, scope, gen)
    if isinstance(expr, FuncCall):
        return _fail(gen, ProgrammingError,
                     f"aggregate {expr.name} used outside SELECT projections")
    return _fail(gen, ProgrammingError, f"cannot evaluate {type(expr).__name__}")


def _truth(expr: Expression, source: str) -> str:
    """``source`` as a bool (AND/OR yield bools, as SQL's do)."""
    boolean = (isinstance(expr, (InSubquery, InList, Like, Between, IsNull))
               or (isinstance(expr, BinaryOp)
                   and (expr.op in _COMPARE or expr.op in ("AND", "OR")))
               or (isinstance(expr, UnaryOp) and expr.op == "NOT"))
    return source if boolean else f"bool({source})"


def _compile_aggregate(call: FuncCall, scope: Scope, gen: _Codegen) -> str:
    if call.star:
        return "len(G)"
    assert call.argument is not None
    argument = _compile(call.argument, scope, gen)
    reduce = _AGGREGATES.get(call.name) or _raiser(
        ProgrammingError, f"unknown aggregate {call.name!r}")
    return (f"_aggregate({gen.const(reduce)}, {bool(call.distinct)!r}, "
            f"{call.name == 'COUNT'!r}, "
            f"[{argument} for {_rows(len(scope))} in G])")


def _aggregate(reduce: Callable[[List[Any]], Any], distinct: bool,
               is_count: bool, values: List[Any]) -> Any:
    values = [value for value in values if value is not None]
    if distinct:
        values = list(dict.fromkeys(values))
    if is_count:
        return len(values)
    return reduce(values) if values else None


_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


def _compile_column(ref: ColumnRef, scope: Scope, gen: _Codegen) -> str:
    """Bind a column to its slot's row local; unknown or ambiguous
    columns raise when a row is evaluated."""
    name = ref.name
    if ref.table is not None:
        slots = [i for i, (alias, _) in enumerate(scope) if alias == ref.table]
        if not slots:
            return _fail(gen, ColumnError,
                         f"unknown table alias {ref.table!r} in {ref}")
        if name not in scope[slots[0]][1]:
            return _fail(gen, ColumnError,
                         f"no column {name!r} in alias {ref.table!r}")
        return f"r{slots[0]}[{name!r}]"
    slots = [i for i, (_, columns) in enumerate(scope) if name in columns]
    if not slots:
        return _fail(gen, ColumnError, f"unknown column {name!r}")
    if len(slots) > 1:
        matches = sorted(scope[i][0] for i in slots)
        return _fail(gen, ColumnError, f"ambiguous column {name!r} (in {matches})")
    return f"r{slots[0]}[{name!r}]"


def _compare(compare: Callable[[Any, Any], bool], lhs: Any, rhs: Any) -> bool:
    """A comparison off the same-class fast path (see :func:`_compile`)."""
    if lhs is None or rhs is None:
        return False
    if lhs.__class__ is not rhs.__class__:
        lhs, rhs = _coerce_pair(lhs, rhs)
    try:
        return compare(lhs, rhs)
    except TypeError:
        return False


#: SQL comparison -> (Python operator, the function :func:`_compare` uses).
_COMPARE: Dict[str, Tuple[str, Callable[[Any, Any], bool]]] = {
    "=": ("==", operator.eq), "<>": ("!=", operator.ne),
    "<": ("<", operator.lt), ">": (">", operator.gt),
    "<=": ("<=", operator.le), ">=": (">=", operator.ge),
}
_ARITHMETIC = {"+": "+", "-": "-", "*": "*", "/": "/"}


def _compile_predicate(expr: Expression, scope: Scope, gen: _Codegen,
                       grouped: bool) -> str:
    """IN (SELECT ...), IN (...), LIKE, BETWEEN and IS NULL, over
    operands compiled in the same (row or grouped) context.  All but
    IS NULL are false when their operand is NULL."""
    operand, negated = _compile(expr.operand, scope, gen, grouped), expr.negated
    if isinstance(expr, IsNull):
        return f"({operand} is {'not ' if negated else ''}None)"
    if isinstance(expr, Between):
        low, high = (_compile(bound, scope, gen, grouped)
                     for bound in (expr.low, expr.high))
        return f"_between({operand}, {low}, {high}, {bool(negated)!r})"
    value = gen.name("_t")
    if isinstance(expr, InSubquery):
        subquery = gen.const(_compile_select(expr.subquery, gen))
        test = f"{value} in run._subquery_values({subquery})"
    elif isinstance(expr, InList):
        options = [_compile(option, scope, gen, grouped) for option in expr.options]
        test = f"{value} in {_tuple(options)}"
    elif isinstance(expr.pattern, Literal) and expr.pattern.value is not None:
        match = gen.const(_like_regex(str(expr.pattern.value)).match)
        test = f"{match}(str({value})) is not None"
    else:
        text = gen.name("_t")
        pattern = _compile(expr.pattern, scope, gen, grouped)
        return (f"((({value} := {operand}) is not None) & "
                f"(({text} := {pattern}) is not None) and "
                f"({gen.const(_last_regex())}(str({text})).match(str({value})) "
                f"is {'' if negated else 'not '}None))")
    return (f"(({value} := {operand}) is not None and "
            f"{'not ' if negated else ''}({test}))")


def _between(value: Any, low: Any, high: Any, negated: bool) -> bool:
    if value is None or low is None or high is None:
        return False
    return (low <= value <= high) != negated


def _last_regex() -> Callable[[str], "re.Pattern[str]"]:
    """A parameterised LIKE pattern's regex, for one plan: the last
    pattern seen and its regex are swapped as one tuple, so threads
    sharing the plan never see a torn pair, and a pattern costs one
    cache lookup per execution, not one per row."""
    last: List[Tuple[Optional[str], Any]] = [(None, None)]

    def regex_of(text: str) -> "re.Pattern[str]":
        seen, regex = last[0]
        if text != seen:
            regex = _like_regex(text)
            last[0] = (text, regex)
        return regex
    return regex_of


_HELPERS = {"_compare": _compare, "_aggregate": _aggregate,
            "_between": _between, "_SCALARS": frozenset({int, float, str, bool})}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _raiser(error: type, message: str) -> Callable[..., Any]:
    """A closure that raises ``error(message)`` whenever it is called."""
    def raise_error(*_args: Any) -> Any:
        raise error(message)
    return raise_error


def _fail(gen: _Codegen, error: type, message: str) -> str:
    """Source that raises ``error(message)`` when evaluated."""
    return f"{gen.const(_raiser(error, message))}()"


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
