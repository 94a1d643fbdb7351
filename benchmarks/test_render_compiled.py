"""Compiled template rendering vs the node-walk oracle on the TPC-W layout.

Templates always compile.  The "interpreted" side here is the
test-only node walk in ``tests/templates/oracle.py`` that the
equivalence suite checks the compiler against.  These benchmarks guard
the render stage: the compiled path must stay at least 2x faster than
that walk on the real ``{% extends %}``/``{% include %}`` page layout,
and a fragment-cache hit must undercut even the compiled render.  The
measured ratios are exported to ``BENCH_render.json`` when
pytest-benchmark timing is on; a ``--benchmark-disable`` smoke pass
checks the same gates and leaves the committed file alone.

Run from the repository root with ``python -m pytest`` so the
``tests`` package is importable.
"""

import time

import pytest

from repro.harness.export import export_bench_json
from repro.templates.engine import TemplateEngine
from repro.tpcw.names import SUBJECTS
from repro.tpcw.templates_source import TEMPLATES
from tests.templates.oracle import OracleEngine

#: The home interaction's data shape (five promotional items plus the
#: subject sidebar), synthesized so the benchmark isolates rendering.
HOME_DATA = {
    "page_title": "Home",
    "customer": {"fname": "Wendell", "lname": "Berry"},
    "promotions": [
        {
            "i_id": i,
            "title": f"Book Title {i}",
            "author": f"Author {i}",
            "thumbnail": f"/img/thumb_{i}.gif",
            "cost": 12.5 + i,
        }
        for i in range(5)
    ],
    "subjects": SUBJECTS[:8],
}


def compiled_engine():
    return TemplateEngine(sources=dict(TEMPLATES))


def interpreted_engine():
    """The test oracle: walks the node tree, never runs generated code."""
    return OracleEngine(sources=dict(TEMPLATES))


def best_times(*fns, repeats=5, number=400):
    """Best-of-N mean CPU seconds per call of each function.

    The functions run round by round, interleaved, and each round is
    timed with ``time.process_time()``: a burst of load from another
    process then lands on every side alike and is not counted as this
    process's time, where wall-timing one side's rounds after the
    other's let it skew the ratio."""
    for fn in fns:
        fn()  # warm caches and code objects
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.process_time()
            for _ in range(number):
                fn()
            best[i] = min(best[i], (time.process_time() - start) / number)
    return best


def test_layout_render_compiled(benchmark):
    engine = compiled_engine()
    html = benchmark(engine.render, "home.html", HOME_DATA)
    # Two product links per included item row, five promotions.
    assert "</html>" in html and html.count("/product_detail?i_id=") == 10


def test_layout_render_interpreted(benchmark):
    engine = interpreted_engine()
    html = benchmark(engine.render, "home.html", HOME_DATA)
    # Two product links per included item row, five promotions.
    assert "</html>" in html and html.count("/product_detail?i_id=") == 10


def test_fragment_cache_hit(benchmark):
    engine = compiled_engine()
    engine.enable_fragment_cache()
    engine.render("home.html", HOME_DATA)  # prime the sidebar fragment
    html = benchmark(engine.render, "home.html", HOME_DATA)
    assert "</html>" in html
    assert engine.fragment_cache.stats()["hits"] > 0


def test_page_cache_hit(benchmark):
    engine = compiled_engine()
    engine.enable_fragment_cache()
    engine.render_cached("home.html", HOME_DATA)
    html = benchmark(engine.render_cached, "home.html", HOME_DATA)
    assert "</html>" in html


def test_compiled_speedup_and_export(pytestconfig):
    """The acceptance gate: >= 2x on the layout, byte-identical output,
    with the measured baseline exported to BENCH_render.json (timed
    runs only)."""
    compiled = compiled_engine()
    interpreted = interpreted_engine()
    assert compiled.render("home.html", HOME_DATA) == \
        interpreted.render("home.html", HOME_DATA)

    cached = compiled_engine()
    cached.enable_fragment_cache()
    cached.render_cached("home.html", HOME_DATA)
    interpreted_s, compiled_s, cached_s = best_times(
        lambda: interpreted.render("home.html", HOME_DATA),
        lambda: compiled.render("home.html", HOME_DATA),
        lambda: cached.render_cached("home.html", HOME_DATA))

    speedup = interpreted_s / compiled_s
    document = {
        "benchmark": "tpcw home.html (extends + include layout)",
        "interpreted": "test oracle (tests/templates/oracle.py node walk)",
        "interpreted_us": round(interpreted_s * 1e6, 2),
        "compiled_us": round(compiled_s * 1e6, 2),
        "page_cache_hit_us": round(cached_s * 1e6, 2),
        "compiled_speedup": round(speedup, 2),
        "page_cache_speedup": round(interpreted_s / cached_s, 2),
        "promotions": len(HOME_DATA["promotions"]),
        "subjects": len(HOME_DATA["subjects"]),
    }
    if not pytestconfig.getoption("benchmark_disable"):
        export_bench_json(document, "BENCH_render.json")
    print(f"\ncompiled {compiled_s*1e6:.1f}us vs oracle "
          f"{interpreted_s*1e6:.1f}us ({speedup:.2f}x), "
          f"page-cache hit {cached_s*1e6:.1f}us")
    assert speedup >= 2.0, f"compiled layout render only {speedup:.2f}x"
    assert cached_s < compiled_s
