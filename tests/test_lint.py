"""The CI lint rules (tools/lint.py): each fails on a violation and
passes clean code."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "lint.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
from lint import RULES, find_violations  # noqa: E402

#: rule -> (offending file, its source, offending line).
CASES = {
    "submit": (
        os.path.join("repro", "server", "rogue.py"),
        "def f(pool, job):\n    pool.submit(handler, job)\n", 2,
    ),
    "acquire": (
        os.path.join("repro", "server", "rogue.py"),
        "def f(pool):\n    conn = pool.acquire()\n", 2,
    ),
    "codegen": (
        os.path.join("repro", "server", "rogue.py"),
        "def f(source):\n    exec(source)\n", 2,
    ),
    "metrics": (
        os.path.join("repro", "server", "rogue.py"),
        "from repro.util import timeseries\n\n"
        "LEDGER = timeseries.TimeSeries('completions')\n", 3,
    ),
    "table-rows": (
        os.path.join("repro", "db", "rogue.py"),
        "def f(table, row_id):\n    del table.rows[row_id]\n", 2,
    ),
    "sleep-free": (
        "test_rogue.py",
        "import time\n\ndef test_x():\n    time.sleep(0.5)\n", 4,
    ),
}

#: Clean code that mentions each rule's name in prose or uses a
#: look-alike that is not the forbidden operation.
CLEAN_SOURCES = {
    "submit": "# never call pool.submit(handler) directly\n"
              "doc = 'pool.submit(x)'\nexecutor_submitted = 1\n",
    "acquire": "# never call pool.acquire() directly\n"
               "doc = 'pool.acquire()'\nwith pool.lease() as conn:\n"
               "    pass\n",
    "codegen": "# never exec(source) here\nimport re\n"
               "doc = 'eval(x)'\npattern = re.compile('x')\n"
               "template = engine.compile(nodes)\n",
    "metrics": "# never TimeSeries() here\n"
               "from repro.util.timeseries import TimeSeries\n"
               "doc = 'SummaryAccumulator()'\n"
               "def trace(stats) -> TimeSeries:\n"
               "    return stats.series('tspare')\n",
    "table-rows": "# never del table.rows[row_id]\n"
                  "doc = 'table.rows.clear()'\nrows = table.rows\n"
                  "first = table.rows[1]\nresult.rows.append(row)\n"
                  "local = {}\nlocal[1] = 2\nlocal.pop(1)\n"
                  "row_ids = list(table.rows.keys())\n"
                  "value = table.rows[1]['v']\n"
                  "copy = dict(table.rows.get(1))\ncopy['v'] = 2\n",
    "sleep-free": "# never time.sleep() in chaos tests\nimport time\n\n"
                  "def test_x(clock):\n    t = time.monotonic()\n"
                  "    clock.advance(5.0)\n",
}


def write(root, relative, source):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)


@pytest.mark.parametrize("name", sorted(CASES))
class TestFindViolations:
    def test_repo_tree_is_clean(self, name):
        rule = RULES[name]
        assert find_violations(rule, os.path.join(REPO_ROOT, rule.root)) == []

    def test_detects_violation(self, name, tmp_path):
        relative, source, lineno = CASES[name]
        write(tmp_path, relative, source)
        assert find_violations(RULES[name], str(tmp_path)) == [
            (relative, lineno, source.splitlines()[lineno - 1])
        ]

    def test_method_reference_counts_as_use(self, name, tmp_path):
        # metrics forbids construction, so its use is a call.
        attribute = {"submit": "pool.submit", "acquire": "pool.acquire",
                     "codegen": "eval", "sleep-free": "time.sleep",
                     "metrics": "WelfordAccumulator()",
                     "table-rows": "table.rows.pop"}[name]
        write(tmp_path, "alias.py", f"x = 1\nwait = {attribute}\n")
        assert [v[1] for v in find_violations(RULES[name],
                                              str(tmp_path))] == [2]

    def test_comments_strings_and_lookalikes_pass(self, name, tmp_path):
        write(tmp_path, "notes.py", CLEAN_SOURCES[name])
        assert find_violations(RULES[name], str(tmp_path)) == []

    def test_non_python_files_ignored(self, name, tmp_path):
        _, source, _ = CASES[name]
        write(tmp_path, "README.md", source)
        assert find_violations(RULES[name], str(tmp_path)) == []

    def test_exit_one_with_listing_on_violation(self, name, tmp_path):
        relative, source, lineno = CASES[name]
        write(tmp_path, relative, source)
        result = subprocess.run(
            [sys.executable, CHECKER, name, "--root", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert f"{relative}:{lineno}" in result.stdout


@pytest.mark.parametrize("name,allowed", [
    (name, allowed) for name in sorted(RULES)
    for allowed in sorted(RULES[name].allowed)
])
def test_allow_listed_file_passes(name, allowed, tmp_path):
    _, source, _ = CASES[name]
    write(tmp_path, allowed, source)
    assert find_violations(RULES[name], str(tmp_path)) == []


def test_sleep_imported_from_time_counts(tmp_path):
    write(tmp_path, "test_alias.py",
          "from time import sleep\n\ndef test_x():\n    sleep(1)\n")
    violations = find_violations(RULES["sleep-free"], str(tmp_path))
    assert [v[1] for v in violations] == [1]


@pytest.mark.parametrize("statement", [
    "table.rows[row_id] = row",
    "self.rows[row_id] += 1",
    "del table.rows[row_id]",
    "table.rows.pop(row_id)",
    "table.rows.popitem()",
    "table.rows.clear()",
    "table.rows.update(other)",
    "table.rows.setdefault(row_id, row)",
    "table.rows[row_id][column] = value",
    "table.rows[row_id][column] += 1",
    "del table.rows[row_id][column]",
    "table.rows[row_id].update(changes)",
    "table.rows.get(row_id).pop(column)",
])
def test_every_rows_mutation_counts(statement, tmp_path):
    write(tmp_path, "rogue.py", f"x = 1\n{statement}\n")
    violations = find_violations(RULES["table-rows"], str(tmp_path))
    assert [v[1] for v in violations] == [2]


def test_exit_zero_on_clean_repo():
    result = subprocess.run(
        [sys.executable, CHECKER], capture_output=True, text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("clean") == len(RULES)
