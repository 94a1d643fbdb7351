#!/usr/bin/env python3
"""Lint: structural rules CI enforces over the source and chaos trees.

Each rule names a root, the files under it allowed to break the rule,
and what to do instead.  Files are parsed, not grepped, so comments and
strings never count, and a method is caught whether it is called or
only referenced (``f = pool.submit`` would dodge a call-site grep).

- ``submit``: ``ThreadPool.submit`` belongs to ``server/pipeline.py``.
  The pipeline owns all submit/overload/503 plumbing; a direct submit
  elsewhere reintroduces the copy-pasted error paths it removed.
- ``acquire``: ``.acquire`` belongs to the resource layers.  A raw
  ``ConnectionPool.acquire``/``release`` pair is the ad-hoc wiring the
  lease layer removed: a missed or doubled release corrupts the pool,
  and an unmetered checkout escapes the busy-fraction accounting.  The
  rule is deliberately broad (it also matches lock-manager and
  simulated thread-pool acquires): every legitimate acquire lives in an
  allow-listed resource module, so a new match is either a connection
  checkout that must become a lease or a resource primitive that
  belongs in one of those files.
- ``codegen``: ``exec``, ``eval`` and the builtin ``compile`` belong to
  the two code generators, ``templates/compiler.py`` and
  ``db/sql/executor.py``, which build their source from parsed trees
  and keep it as ``generated_source``.  Running text anywhere else is
  an injection surface nobody reviews as one.
- ``metrics``: ``TimeSeries``, ``SummaryAccumulator`` and
  ``WelfordAccumulator`` are constructed only by ``util/timeseries.py``
  and ``server/stats.py``, plus the client emulator
  (``tpcw/emulator.py``), which keeps its own client-side response
  times.  Every server metric goes through ``ServerStats``; a private
  ledger elsewhere is the second sink that ``ServerStats`` replaced.
- ``table-rows``: only ``db/table.py`` mutates a table's ``.rows`` or
  a row dict reached from it (a subscript store or ``del``, or
  ``.pop``, ``.popitem``, ``.clear``, ``.update`` or ``.setdefault``,
  on ``table.rows``, ``table.rows[rid]`` or ``table.rows.get(rid)``).
  ``Table``'s methods bump ``Table.version`` with every change, and the
  engine's result cache trusts that version: a write that bypasses them
  serves stale results.  The rule reads expressions, not values, so it
  cannot see a write through a name bound earlier (``rows =
  table.rows; rows[k] = v``, or a row dict taken from ``Table.scan()``),
  nor a rebinding of ``.rows`` itself (``ResultSet`` has a ``rows``
  attribute too).  Those stay a review matter.
- ``sleep-free``: the chaos suite never sleeps.  Injected delays, retry
  backoff and breaker timeouts run on a ``ManualClock`` or the sim
  clock, so ``time.sleep`` there hides a race behind wall time.

Usage: python tools/lint.py [--root PATH] [RULE ...]
Runs the named rules (default: all) over their roots (``--root``
overrides the root, for one rule).  Exit status 0 if clean, 1 with a
listing of offending lines otherwise.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import os
import sys
from typing import Callable, FrozenSet, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _uses_method(name: str) -> Callable[[ast.AST], bool]:
    def match(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.ctx, ast.Load))
    return match


def _uses_time_sleep(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        # Importing sleep out of time just renames the same wait.
        return node.module == "time" and any(
            alias.name == "sleep" for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "sleep"
            and isinstance(node.value, ast.Name) and node.value.id == "time")


def _uses_builtin(*names: str) -> Callable[[ast.AST], bool]:
    def match(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id in names
                and isinstance(node.ctx, ast.Load))
    return match


#: dict methods that change the dict in place.
_DICT_MUTATORS = frozenset({"pop", "popitem", "clear", "update", "setdefault"})


def _is_rows(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "rows"


def _reaches_rows(node: ast.AST) -> bool:
    """Whether ``node`` is a ``.rows`` or is reached from one through
    subscripts, attributes and calls (``table.rows[rid]``,
    ``table.rows.get(rid)``): the rows dict or a live row dict in it."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Call)):
        if _is_rows(node):
            return True
        node = node.func if isinstance(node, ast.Call) else node.value
    return False


def _mutates_rows(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        return (isinstance(node.ctx, (ast.Store, ast.Del))
                and _reaches_rows(node.value))
    return (isinstance(node, ast.Attribute) and node.attr in _DICT_MUTATORS
            and _reaches_rows(node.value))


def _constructs(*names: str) -> Callable[[ast.AST], bool]:
    def match(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return ((isinstance(func, ast.Name) and func.id in names)
                or (isinstance(func, ast.Attribute) and func.attr in names))
    return match


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    root: str                  # relative to the repository
    allowed: FrozenSet[str]    # paths relative to the root
    match: Callable[[ast.AST], bool]
    message: str


RULES = {rule.name: rule for rule in (
    Rule("submit", "src", frozenset({
        os.path.join("repro", "server", "pipeline.py"),
    }), _uses_method("submit"),
        "direct ThreadPool.submit sites outside server/pipeline.py "
        "(route through Pipeline.submit)"),
    Rule("acquire", "src", frozenset({
        # The pool itself: creates connections, implements lease().
        os.path.join("repro", "db", "pool.py"),
        # Table-lock manager: lock.acquire(mode, timeout).
        os.path.join("repro", "db", "locks.py"),
        # THE lease layer — the one sanctioned ConnectionPool.acquire.
        os.path.join("repro", "server", "resources.py"),
        # The sim server acquires simulated *thread-pool* tokens; it
        # models no connection pool (connections = leasing threads).
        os.path.join("repro", "sim", "server.py"),
    }), _uses_method("acquire"),
        "raw .acquire sites outside the resource layers (lease through "
        "repro.server.resources or pool.lease())"),
    Rule("codegen", "src", frozenset({
        os.path.join("repro", "templates", "compiler.py"),
        os.path.join("repro", "db", "sql", "executor.py"),
    }), _uses_builtin("exec", "eval", "compile"),
        "exec/eval/compile outside the two code generators "
        "(templates/compiler.py, db/sql/executor.py)"),
    Rule("metrics", "src", frozenset({
        os.path.join("repro", "util", "timeseries.py"),
        # THE metric sink, live and simulated.
        os.path.join("repro", "server", "stats.py"),
        # The client emulator's own client-side response times.
        os.path.join("repro", "tpcw", "emulator.py"),
    }), _constructs("TimeSeries", "SummaryAccumulator",
                    "WelfordAccumulator"),
        "metric containers built outside the metric sink (record into "
        "repro.server.stats.ServerStats)"),
    Rule("table-rows", "src", frozenset({
        os.path.join("repro", "db", "table.py"),
    }), _mutates_rows,
        "table rows mutated outside db/table.py (go through Table.insert, "
        "update_row or delete_row, which bump Table.version)"),
    Rule("sleep-free", os.path.join("tests", "chaos"), frozenset(),
         _uses_time_sleep,
         "time.sleep in the chaos suite (drive the ManualClock or sim "
         "clock instead)"),
)}


def find_violations(rule: Rule, root: str) -> List[Tuple[str, int, str]]:
    """``(relative path, line number, line)`` for every offending node."""
    violations = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, root)
            if not filename.endswith(".py") or relative in rule.allowed:
                continue
            with open(path, encoding="utf-8") as f:
                source = f.read()
            lines = source.splitlines()
            tree = ast.parse(source, filename=path)
            linenos = sorted({node.lineno for node in ast.walk(tree)
                              if rule.match(node)})
            violations.extend((relative, lineno, lines[lineno - 1])
                              for lineno in linenos)
    return violations


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rules", nargs="*", metavar="RULE",
                        help=", ".join(RULES))
    parser.add_argument("--root", help="tree to check (one rule only)")
    args = parser.parse_args(argv)
    names = args.rules or list(RULES)
    unknown = [name for name in names if name not in RULES]
    if unknown:
        parser.error(f"unknown rule(s): {', '.join(unknown)}")
    if args.root is not None and len(names) != 1:
        parser.error("--root needs exactly one RULE")
    status = 0
    for name in names:
        rule = RULES[name]
        root = args.root or os.path.join(REPO_ROOT, rule.root)
        violations = find_violations(rule, root)
        if violations:
            status = 1
            print(f"{name}: {rule.message}:")
            for relative, lineno, line in violations:
                print(f"  {relative}:{lineno}: {line.strip()}")
        else:
            print(f"{name}: clean")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
