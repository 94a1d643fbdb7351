"""LIKE-pattern regex memoization in the executor."""

from repro.db.engine import Database
from repro.db.sql.executor import _like_regex


class TestLikeRegexCache:
    def setup_method(self):
        _like_regex.cache_clear()

    def test_pattern_semantics(self):
        regex = _like_regex("The%_ook")
        assert regex.match("The Blue Book")
        assert regex.match("the cook")  # case-insensitive
        assert not regex.match("The Bk")

    def test_repeat_compilations_hit_the_cache(self):
        _like_regex("%abc%")
        assert _like_regex.cache_info().hits == 0
        _like_regex("%abc%")
        _like_regex("%abc%")
        info = _like_regex.cache_info()
        assert info.hits == 2
        assert info.misses == 1
        assert info.currsize == 1

    def test_query_evaluation_reuses_compiled_pattern(self):
        database = Database()
        database.executescript(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(30));"
        )
        for i, name in enumerate(["Alpha", "Beta", "Alphabet"]):
            database.execute(
                "INSERT INTO t (id, name) VALUES (%s, %s)", (i, name)
            )
        before = _like_regex.cache_info()
        executions = 3
        for _ in range(executions):
            rows = database.execute(
                "SELECT name FROM t WHERE name LIKE 'Alpha%'"
            ).rows
            assert len(rows) == 2
        info = _like_regex.cache_info()
        # One compile for the pattern, and at most one lookup per
        # execution: rows never consult the cache.
        assert info.misses == before.misses + 1
        lookups = info.hits + info.misses - before.hits - before.misses
        assert lookups <= executions
