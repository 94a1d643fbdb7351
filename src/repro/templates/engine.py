"""Template loading, compilation caching, and rendering."""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Dict, List, Optional

from repro.faults.plan import SITE_RENDER
from repro.templates.compiler import compile_template
from repro.templates.context import Context
from repro.templates.errors import TemplateNotFoundError
from repro.templates.fragcache import FragmentCache, data_signature
from repro.templates.parser import TemplateParser


class Template:
    """A compiled template: render with a data dict or a Context.

    The source is parsed and lowered to one generated Python function
    by :mod:`repro.templates.compiler`.  ``{% include %}`` and ``{%
    extends %}`` need ``engine`` to load other templates.
    """

    def __init__(self, source: str, name: str = "<string>", engine=None):
        self.name = name
        self.source = source
        self._render_fn = compile_template(
            TemplateParser(source, name, engine).parse(), name)
        #: Templates whose source was inlined by the compiler; the
        #: engine cache drops this template when any of them changes.
        self._dependencies = self._render_fn.dependencies
        self._last_use = 0  # LRU stamp maintained by the engine cache

    def render(self, data: Optional[Dict[str, Any]] = None,
               autoescape: bool = True) -> str:
        """Render with a plain data dict (the common handler case)."""
        context = data if isinstance(data, Context) else Context(data, autoescape)
        return self.render_context(context)

    def render_context(self, context: Context) -> str:
        parts: List[str] = []
        self.render_into(context, parts)
        return "".join(parts)

    def render_into(self, context: Context, parts: List[str]) -> None:
        """Append rendered output to ``parts`` (called by the generated
        code of dynamic includes and of child templates)."""
        self._render_fn(context, parts)


class TemplateEngine:
    """A template loader with a bounded compiled-template cache.

    Templates come either from a directory of files or from an in-memory
    mapping (used heavily in tests and by the TPC-W package, which ships
    its templates as package data).  Compilation happens once per name.

    The cache is shared by many rendering threads in the staged server,
    so the hot path is lock-free: a CPython dict read is atomic under
    the GIL, and the lock guards only compile-and-insert (plus explicit
    invalidation).  The cache is bounded by ``cache_size`` with
    least-recently-used eviction; hit/miss/eviction counters are
    approximate under contention (racy increments) but exact
    single-threaded.

    A :class:`~repro.templates.fragcache.FragmentCache` can be attached —
    at construction or via :meth:`enable_fragment_cache` — to activate
    ``{% cache %}`` tags and the :meth:`render_cached` page cache; it
    is off by default.
    """

    def __init__(self, directory: Optional[str] = None,
                 sources: Optional[Dict[str, str]] = None,
                 cache_size: Optional[int] = 256,
                 fragment_cache: Optional[FragmentCache] = None):
        if cache_size is not None and cache_size < 1:
            raise ValueError("cache_size must be >= 1 (or None for unbounded)")
        self.directory = directory
        self.cache_size = cache_size
        self.fragment_cache = fragment_cache
        #: Optional :class:`repro.faults.plan.FaultPlan` consulted on
        #: every :meth:`render` (slow render / render-time crash).
        #: Assigned by the owning server.
        self.faults = None
        self._sources: Dict[str, str] = dict(sources) if sources else {}
        self._cache: Dict[str, Template] = {}
        self._lock = threading.Lock()
        self._use_counter = itertools.count(1)  # thread-safe in CPython
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def add_source(self, name: str, source: str) -> None:
        """Register (or replace) an in-memory template."""
        with self._lock:
            self._sources[name] = source
            self._drop_locked(name)

    def _drop_locked(self, name: str) -> None:
        """Drop ``name`` and every cached template that compile-time
        inlined it (call with the lock held)."""
        self._cache.pop(name, None)
        dependents = [cached_name for cached_name, template
                      in self._cache.items()
                      if name in template._dependencies]
        for cached_name in dependents:
            del self._cache[cached_name]

    def get_template(self, name: str) -> Template:
        """Load and compile ``name``, consulting the cache first.

        The hit path takes no lock: dict reads are atomic in CPython,
        and the LRU stamp is a single attribute store.
        """
        cached = self._cache.get(name)
        if cached is not None:
            cached._last_use = next(self._use_counter)
            self._hits += 1
            return cached
        self._misses += 1
        source = self._load_source(name)
        template = Template(source, name, engine=self)
        with self._lock:
            # A racing thread may have compiled it first; keep the
            # existing entry so includes see a single instance.
            existing = self._cache.get(name)
            if existing is not None:
                return existing
            if self.cache_size is not None:
                while len(self._cache) >= self.cache_size:
                    oldest = min(self._cache,
                                 key=lambda key: self._cache[key]._last_use)
                    del self._cache[oldest]
                    self._evictions += 1
            template._last_use = next(self._use_counter)
            self._cache[name] = template
            return template

    def render(self, name: str, data: Optional[Dict[str, Any]] = None) -> str:
        """Convenience: load + render in one call."""
        if self.faults is not None:
            self.faults.consult(SITE_RENDER)
        return self.get_template(name).render(data)

    # ------------------------------------------------------------------
    # Fragment / page cache
    # ------------------------------------------------------------------
    def enable_fragment_cache(self, maxsize: int = 512,
                              default_timeout: Optional[float] = None,
                              clock=None) -> FragmentCache:
        """Attach (and return) a fragment cache, activating both the
        ``{% cache %}`` tag and :meth:`render_cached`."""
        self.fragment_cache = FragmentCache(
            maxsize=maxsize, default_timeout=default_timeout, clock=clock
        )
        return self.fragment_cache

    def render_cached(self, name: str, data: Optional[Dict[str, Any]] = None,
                      *, key: Any = None,
                      timeout: Optional[float] = None) -> str:
        """Render via the page cache, keyed ``(template, data-signature)``.

        Intended for static-ish pages/fragments (promotional listings,
        best-seller sidebars): identical ``(name, data)`` pairs return
        the cached HTML without touching the render path.  ``key``
        overrides the derived key; without a fragment cache this is
        plain :meth:`render`.
        """
        cache = self.fragment_cache
        if cache is None:
            return self.render(name, data)
        if key is None:
            payload = data.flatten() if isinstance(data, Context) else data
            key = (name, data_signature(payload))
        cached = cache.get(key)
        if cached is not None:
            return cached
        html = self.render(name, data)
        cache.put(key, html, timeout)
        return html

    # ------------------------------------------------------------------
    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop one cached template (plus anything that compile-time
        inlined it), or the whole cache."""
        with self._lock:
            if name is None:
                self._cache.clear()
            else:
                self._drop_locked(name)

    def cache_stats(self) -> Dict[str, Any]:
        """Template-cache observability (counters are approximate under
        heavy contention; see class docstring)."""
        return {
            "size": len(self._cache),
            "capacity": self.cache_size,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }

    def _load_source(self, name: str) -> str:
        if name in self._sources:
            return self._sources[name]
        if self.directory is not None:
            path = os.path.normpath(os.path.join(self.directory, name))
            # Refuse path traversal out of the template directory.
            root = os.path.abspath(self.directory)
            if os.path.commonpath([root, os.path.abspath(path)]) == root:
                if os.path.isfile(path):
                    with open(path, "r", encoding="utf-8") as f:
                        return f.read()
        raise TemplateNotFoundError(name)
