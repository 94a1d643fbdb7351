"""Bounded LRU cache for rendered template fragments and whole pages.

Vcache-style (*Caching Dynamic Documents*): most of a dynamic page is
static markup that only changes when the underlying data does, so the
render stage can skip re-rendering it.  This cache sits on the render
stage — the pool the paper separates out — and stores finished HTML
keyed however the caller likes:

- the engine-level API (:meth:`repro.templates.engine.TemplateEngine.
  render_cached`) keys whole pages by ``(template_name,
  data_signature(data))``;
- the ``{% cache key timeout %}`` tag keys fragments by its explicit
  key plus vary-on values.

The cache is strictly opt-in: a :class:`TemplateEngine` consults it
only after ``enable_fragment_cache()`` (or an instance passed at
construction), and the ``{% cache %}`` tag is transparent without one.
Entries carry an optional timeout, the store is bounded with
oldest-first (LRU) eviction, and every outcome — hit, miss, eviction,
expiration, invalidation — is counted for observability.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.templates.errors import TemplateRenderError


def data_signature(data: Any) -> Hashable:
    """A stable, hashable signature of a handler's data dict.

    Dicts become key-sorted tuples, sequences become tuples, sets are
    sorted for determinism, and anything non-primitive falls back to
    its ``repr``.  Two calls with equal data produce equal signatures,
    which is what makes ``(template, data-signature)`` a usable page
    cache key.
    """
    if isinstance(data, dict):
        return tuple(sorted(
            ((str(key), data_signature(value)) for key, value in data.items()),
            key=lambda pair: pair[0],
        ))
    if isinstance(data, (list, tuple)):
        return tuple(data_signature(value) for value in data)
    if isinstance(data, (set, frozenset)):
        return ("#set",) + tuple(sorted(repr(data_signature(v)) for v in data))
    if data is None or isinstance(data, (str, int, float, bool, bytes)):
        return data
    return repr(data)


class FragmentCache:
    """A thread-safe, bounded, timeout-aware LRU cache of rendered HTML."""

    def __init__(self, maxsize: int = 512,
                 default_timeout: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None):
        if maxsize < 1:
            raise ValueError("FragmentCache maxsize must be >= 1")
        self.maxsize = maxsize
        self.default_timeout = default_timeout
        self._clock = clock if clock is not None else time.monotonic
        self._data: "OrderedDict[Hashable, Tuple[str, Optional[float]]]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Optional[str] = None) -> Optional[str]:
        """Return the cached fragment, or ``default`` on miss/expiry."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return default
            value, expires = entry
            if expires is not None and self._clock() >= expires:
                del self._data[key]
                self.expirations += 1
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def get_stale(self, key: Hashable,
                  default: Optional[str] = None) -> Optional[str]:
        """Return the cached fragment even if expired (degraded serving).

        Vcache's argument: an out-of-date document beats no document
        when the backend is unavailable.  Unlike :meth:`get`, an
        expired entry is returned *and retained* — the circuit breaker
        will close eventually and the normal path will refresh it.
        """
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: str,
            timeout: Optional[float] = None) -> None:
        """Store a fragment; ``timeout`` seconds (None = no expiry,
        falling back to ``default_timeout``)."""
        if timeout is None:
            timeout = self.default_timeout
        expires = None if timeout is None else self._clock() + float(timeout)
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = (value, expires)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: Optional[Hashable] = None,
                   prefix: Optional[Any] = None) -> int:
        """Drop one entry, a prefix family, or (no arguments) everything.

        ``prefix`` matches tuple keys on their first element and string
        keys by ``startswith`` — so ``invalidate(prefix="home.html")``
        drops every cached variant of one template.  Returns the number
        of entries removed.
        """
        with self._lock:
            if key is None and prefix is None:
                removed = len(self._data)
                self._data.clear()
            else:
                removed = 0
                if key is not None and key in self._data:
                    del self._data[key]
                    removed += 1
                if prefix is not None:
                    doomed = [k for k in self._data if _matches_prefix(k, prefix)]
                    for k in doomed:
                        del self._data[k]
                    removed += len(doomed)
            self.invalidations += removed
            return removed

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Peek without touching LRU order or counters."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return False
            value, expires = entry
            return expires is None or self._clock() < expires

    def stats(self) -> Dict[str, float]:
        with self._lock:
            size = len(self._data)
        total = self.hits + self.misses
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


def _matches_prefix(key: Hashable, prefix: Any) -> bool:
    if isinstance(key, tuple) and key and key[0] == prefix:
        return True
    return isinstance(key, str) and isinstance(prefix, str) \
        and key.startswith(prefix)


def render_fragment(engine, context, parts: List[str],
                    body_fn: Callable[[Any, List[str]], None],
                    key_expr, timeout_expr, vary_exprs) -> None:
    """``{% cache %}`` semantics, called by the compiler's generated
    code with the tag's compiled body as ``body_fn``.

    Without a configured cache the body simply renders in place.
    """
    cache = getattr(engine, "fragment_cache", None) if engine is not None \
        else None
    if cache is None:
        body_fn(context, parts)
        return
    key_value = key_expr.resolve(context, default=None)
    vary = tuple(str(expr.resolve(context, default=None))
                 for expr in vary_exprs)
    key = ("#tag", str(key_value), vary)
    cached = cache.get(key)
    if cached is not None:
        parts.append(cached)
        return
    sub: List[str] = []
    body_fn(context, sub)
    fragment = "".join(sub)
    timeout = None
    if timeout_expr is not None:
        raw = timeout_expr.resolve(context, default=None)
        if raw is not None:
            try:
                timeout = float(raw)
            except (TypeError, ValueError):
                raise TemplateRenderError(
                    f"{{% cache %}} timeout {raw!r} is not a number"
                )
    cache.put(key, fragment, timeout)
    parts.append(fragment)
