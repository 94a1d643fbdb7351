"""Fragment/page cache: bounds, timeouts, invalidation, the tag."""

import pytest

from repro.templates import (
    FragmentCache,
    TemplateEngine,
    TemplateRenderError,
    data_signature,
)
from tests.templates.oracle import OracleEngine


def engine_class(compiled):
    """The compiling engine, or the node-walk oracle."""
    return TemplateEngine if compiled else OracleEngine


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestDataSignature:
    def test_equal_dicts_equal_signatures(self):
        assert data_signature({"a": 1, "b": [2, 3]}) == \
            data_signature({"b": [2, 3], "a": 1})

    def test_signatures_are_hashable(self):
        sig = data_signature({"a": {"b": [1, {2}]}, "c": object()})
        hash(sig)

    def test_different_data_different_signatures(self):
        assert data_signature({"a": 1}) != data_signature({"a": 2})

    def test_sets_are_order_insensitive(self):
        assert data_signature({3, 1, 2}) == data_signature({1, 2, 3})


class TestFragmentCache:
    def test_put_get_roundtrip(self):
        cache = FragmentCache()
        cache.put("k", "<p>hi</p>")
        assert cache.get("k") == "<p>hi</p>"

    def test_miss_returns_default(self):
        cache = FragmentCache()
        assert cache.get("nope") is None
        assert cache.get("nope", "") == ""

    def test_bounded_with_lru_eviction(self):
        cache = FragmentCache(maxsize=2)
        cache.put("a", "1")
        cache.put("b", "2")
        cache.get("a")  # a is now most recently used
        cache.put("c", "3")
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            FragmentCache(maxsize=0)

    def test_timeout_expires_entries(self):
        clock = FakeClock()
        cache = FragmentCache(clock=clock)
        cache.put("k", "v", timeout=10)
        clock.now = 9.0
        assert cache.get("k") == "v"
        clock.now = 10.0
        assert cache.get("k") is None
        assert cache.stats()["expirations"] == 1

    def test_default_timeout_applies(self):
        clock = FakeClock()
        cache = FragmentCache(default_timeout=5, clock=clock)
        cache.put("k", "v")
        clock.now = 6.0
        assert cache.get("k") is None

    def test_invalidate_single_key(self):
        cache = FragmentCache()
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.invalidate(key="a") == 1
        assert cache.get("a") is None and cache.get("b") == "2"

    def test_invalidate_prefix_family(self):
        cache = FragmentCache()
        cache.put(("home.html", "x"), "1")
        cache.put(("home.html", "y"), "2")
        cache.put(("other.html", "x"), "3")
        assert cache.invalidate(prefix="home.html") == 2
        assert cache.get(("other.html", "x")) == "3"

    def test_invalidate_everything(self):
        cache = FragmentCache()
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2

    def test_hit_rate(self):
        cache = FragmentCache()
        cache.put("a", "1")
        cache.get("a")
        cache.get("b")
        assert cache.stats()["hit_rate"] == 0.5


class TestCacheTag:
    SOURCES = {
        "page.html": "A{% cache sidebar_key %}[{{ n }}]{% endcache %}B",
    }

    def test_off_by_default_renders_through(self):
        engine = TemplateEngine(sources=dict(self.SOURCES))
        assert engine.fragment_cache is None
        assert engine.render("page.html", {"sidebar_key": "s", "n": 1}) == "A[1]B"
        assert engine.render("page.html", {"sidebar_key": "s", "n": 2}) == "A[2]B"

    @pytest.mark.parametrize("compiled", [True, False])
    def test_tag_caches_fragment(self, compiled):
        engine = engine_class(compiled)(sources=dict(self.SOURCES))
        engine.enable_fragment_cache()
        assert engine.render("page.html", {"sidebar_key": "s", "n": 1}) == "A[1]B"
        # Same key: the stale fragment is served, by design.
        assert engine.render("page.html", {"sidebar_key": "s", "n": 2}) == "A[1]B"
        # A different key renders fresh.
        assert engine.render("page.html", {"sidebar_key": "t", "n": 2}) == "A[2]B"
        assert engine.fragment_cache.stats()["hits"] == 1

    def test_tag_with_vary_on(self):
        sources = {"p.html":
                   "{% cache 'k' 60 user %}{{ n }}{% endcache %}"}
        engine = TemplateEngine(sources=sources)
        engine.enable_fragment_cache()
        assert engine.render("p.html", {"user": "u1", "n": 1}) == "1"
        assert engine.render("p.html", {"user": "u2", "n": 2}) == "2"
        assert engine.render("p.html", {"user": "u1", "n": 3}) == "1"

    def test_tag_timeout_expires(self):
        clock = FakeClock()
        sources = {"p.html": "{% cache 'k' 30 %}{{ n }}{% endcache %}"}
        engine = TemplateEngine(sources=sources)
        engine.enable_fragment_cache(clock=clock)
        assert engine.render("p.html", {"n": 1}) == "1"
        clock.now = 29.0
        assert engine.render("p.html", {"n": 2}) == "1"
        clock.now = 31.0
        assert engine.render("p.html", {"n": 3}) == "3"

    @pytest.mark.parametrize("compiled", [True, False])
    def test_bad_timeout_raises(self, compiled):
        sources = {"p.html": "{% cache 'k' junk %}x{% endcache %}"}
        engine = engine_class(compiled)(sources=sources)
        engine.enable_fragment_cache()
        with pytest.raises(TemplateRenderError, match="is not a number"):
            engine.render("p.html", {"junk": "zz"})

    def test_explicit_invalidation_refreshes(self):
        engine = TemplateEngine(sources=dict(self.SOURCES))
        engine.enable_fragment_cache()
        assert engine.render("page.html", {"sidebar_key": "s", "n": 1}) == "A[1]B"
        engine.fragment_cache.invalidate()
        assert engine.render("page.html", {"sidebar_key": "s", "n": 2}) == "A[2]B"


class TestRenderCached:
    SOURCES = {"p.html": "<{{ n }}>"}

    def test_without_cache_is_plain_render(self):
        engine = TemplateEngine(sources=dict(self.SOURCES))
        assert engine.render_cached("p.html", {"n": 1}) == "<1>"
        assert engine.render_cached("p.html", {"n": 2}) == "<2>"

    def test_same_data_hits(self):
        engine = TemplateEngine(sources=dict(self.SOURCES))
        engine.enable_fragment_cache()
        assert engine.render_cached("p.html", {"n": 1}) == "<1>"
        assert engine.render_cached("p.html", {"n": 1}) == "<1>"
        stats = engine.fragment_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_data_misses(self):
        engine = TemplateEngine(sources=dict(self.SOURCES))
        engine.enable_fragment_cache()
        assert engine.render_cached("p.html", {"n": 1}) == "<1>"
        assert engine.render_cached("p.html", {"n": 2}) == "<2>"

    def test_explicit_key_overrides_signature(self):
        engine = TemplateEngine(sources=dict(self.SOURCES))
        engine.enable_fragment_cache()
        assert engine.render_cached("p.html", {"n": 1}, key="k") == "<1>"
        assert engine.render_cached("p.html", {"n": 2}, key="k") == "<1>"

    def test_prefix_invalidation_by_template(self):
        engine = TemplateEngine(sources=dict(self.SOURCES))
        engine.enable_fragment_cache()
        engine.render_cached("p.html", {"n": 1})
        assert engine.fragment_cache.invalidate(prefix="p.html") == 1
