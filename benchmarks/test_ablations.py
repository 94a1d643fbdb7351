"""Ablations of the design choices the paper calls out.

A1  Single shared dynamic pool (no lengthy diversion) — removes the
    quick/lengthy separation while keeping the other four pools.
A2  Strict separation (every lengthy request to the lengthy pool,
    ignoring spare capacity) — removes the adaptive spillover of
    Table 1's second rule.
A3  Frozen reserve (maximum_reserve == minimum_reserve) — removes the
    treserve adaptation of §3.3.
A4  Baseline pool-size sensitivity — the paper does not report its
    pool sizes; this quantifies how the headline throughput gain
    depends on the unmodified server's thread/connection count
    relative to the staged server's (DESIGN.md §6).
A5  No-render-pool topology, live — ``StagedServer(render_inline=True)``
    drops the Template Rendering stage from the stage graph (four
    stages instead of five); dynamic threads render inline and the
    paper's pipelining win disappears.
A6  Single-pool dispatch, live — the same live :class:`StagedServer`
    with ``AlwaysGeneralDispatcher``: quick requests convoy behind
    slow ones exactly like the baseline, despite the five pools.
A7  Lease strategies, live — pinned vs. per-request vs. per-query
    connection leasing (``lease_strategy=``) on both topologies.  The
    paper's efficiency claim in connection terms: a pinned connection
    on a staged dynamic thread spends a far larger fraction of its
    held time actually querying than a pinned connection on a baseline
    worker, because header parsing and template rendering happen in
    stages that hold no connection at all.

A1–A4 run in the discrete-event simulator; A5–A7 run the real threaded
server over loopback sockets.  All seven are *configurations* — a
dispatcher object, a topology flag, or a lease strategy — not server
subclasses: the stage-pipeline core (`repro.server.pipeline`) makes
the graph itself the configuration surface.
"""

import dataclasses
import threading
import time

import pytest

from repro.core.dispatch import AlwaysGeneralDispatcher, StrictSeparationDispatcher
from repro.core.policy import PolicyConfig, SchedulingPolicy
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.http.client import http_request
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.resources import LeaseStrategy
from repro.server.staged import StagedServer
from repro.sim.workload import (
    LENGTHY_REPORT_PAGES,
    WorkloadConfig,
    run_tpcw_simulation,
)
from repro.templates.engine import TemplateEngine
from repro.templates.filters import FILTERS, register_filter
from repro.tpcw.mix import PAPER_PAGE_NAMES

QUICK_PAGE = "/home"


def ablation_config(**overrides):
    base = dict(
        clients=60, ramp_up=30, measure=240, cool_down=20,
        baseline_workers=20, general_pool=24, lengthy_pool=6,
        header_pool=4, static_pool=4, render_pool=4,
        minimum_reserve=2, maximum_reserve=4, db_cores=60, web_cores=4,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def quick_mean(results):
    rts = results.mean_response_times()
    quick = [
        value for page, value in rts.items()
        if page not in LENGTHY_REPORT_PAGES
    ]
    return sum(quick) / len(quick)


def lengthy_mean(results):
    rts = results.mean_response_times()
    values = [rts[p] for p in LENGTHY_REPORT_PAGES if p in rts]
    return sum(values) / len(values)


@pytest.fixture(scope="module")
def paper_policy_run():
    return run_tpcw_simulation("staged", ablation_config()).stats


def test_a1_single_dynamic_pool(benchmark, paper_policy_run):
    """Without the quick/lengthy split, quick pages lose their
    protection: their mean response degrades by multiples."""
    merged = benchmark.pedantic(
        run_tpcw_simulation,
        args=("staged", ablation_config()),
        kwargs={"dispatcher": AlwaysGeneralDispatcher()},
        rounds=1, iterations=1,
    ).stats
    protected = quick_mean(paper_policy_run)
    unprotected = quick_mean(merged)
    print(f"\nA1 quick-page mean: paper policy {protected:.3f}s vs "
          f"single pool {unprotected:.3f}s")
    assert unprotected > protected * 3

    benchmark.extra_info["quick_mean_paper_policy_s"] = round(protected, 3)
    benchmark.extra_info["quick_mean_single_pool_s"] = round(unprotected, 3)


def test_a2_strict_separation(benchmark, paper_policy_run):
    """Without adaptive spillover, the lengthy pool alone must carry
    every slow request: slow pages get substantially slower than under
    the paper's Table 1 policy."""
    strict = benchmark.pedantic(
        run_tpcw_simulation,
        args=("staged", ablation_config()),
        kwargs={"dispatcher": StrictSeparationDispatcher()},
        rounds=1, iterations=1,
    ).stats
    adaptive = lengthy_mean(paper_policy_run)
    separated = lengthy_mean(strict)
    print(f"\nA2 lengthy-page mean: adaptive {adaptive:.2f}s vs "
          f"strict separation {separated:.2f}s")
    assert separated > adaptive * 1.3
    # Quick pages remain protected either way.
    assert quick_mean(strict) < 1.0


def test_a3_frozen_reserve(benchmark, paper_policy_run):
    """Freezing treserve at its minimum removes spike response; the
    run still works (the minimum still shields some capacity) but the
    adaptive controller must not be *worse* for quick pages."""
    frozen = benchmark.pedantic(
        run_tpcw_simulation,
        args=("staged", ablation_config(minimum_reserve=2,
                                        maximum_reserve=2)),
        rounds=1, iterations=1,
    ).stats
    adaptive_quick = quick_mean(paper_policy_run)
    frozen_quick = quick_mean(frozen)
    print(f"\nA3 quick-page mean: adaptive {adaptive_quick:.3f}s vs "
          f"frozen reserve {frozen_quick:.3f}s")
    assert adaptive_quick <= frozen_quick * 1.5


def test_a4_baseline_sizing_sensitivity(benchmark):
    """The headline gain shrinks as the baseline pool grows toward the
    staged server's dynamic capacity: with slow-page concurrency the
    binding resource, the gain is a decreasing function of baseline
    size.  This is the reproduction's most important caveat (the paper
    reports no pool sizes)."""
    staged = run_tpcw_simulation("staged", ablation_config()).stats
    gains = {}

    def sweep():
        for workers in (14, 20, 30):
            config = ablation_config(baseline_workers=workers)
            baseline = run_tpcw_simulation("baseline", config).stats
            gains[workers] = 100 * (
                staged.total_completions() / baseline.total_completions() - 1
            )
        return gains

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nA4 throughput gain vs baseline pool size:")
    for workers, gain in gains.items():
        print(f"   baseline_workers={workers:3d}: {gain:+6.1f}%")
        benchmark.extra_info[f"gain_at_{workers}_workers_pct"] = round(gain, 1)

    ordered = [gains[w] for w in sorted(gains)]
    assert ordered[0] > ordered[-1], "gain must shrink as baseline grows"
    assert ordered[0] > 15.0, "undersized baseline must show a large gain"


# ----------------------------------------------------------------------
# Live-topology ablations: the real threaded server, alternate stage
# graphs, no subclasses.
# ----------------------------------------------------------------------
RENDER_SECONDS = 0.12
RENDER_REQUESTS = 6
SLOW_SECONDS = 0.6


@pytest.fixture()
def slow_render_filter():
    register_filter(
        "ablation_slow_render",
        lambda value, arg=None: (time.sleep(RENDER_SECONDS), str(value))[1],
    )
    yield
    del FILTERS["ablation_slow_render"]


def build_render_heavy_app():
    database = Database()
    app = Application(templates=TemplateEngine(sources={
        "heavy.html": "rendered: {{ v|ablation_slow_render }}",
    }))

    @app.expose("/page")
    def page(v="x"):
        return ("heavy.html", {"v": v})  # instant data generation

    return app, database


def small_policy(dispatcher=None, render_pool=3):
    return SchedulingPolicy(
        PolicyConfig(
            general_pool_size=1, lengthy_pool_size=1, minimum_reserve=1,
            header_pool_size=2, static_pool_size=1,
            render_pool_size=render_pool,
        ),
        dispatcher=dispatcher,
    )


def render_makespan(host, port):
    """Fire RENDER_REQUESTS concurrent requests; return total wall time."""
    errors = []

    def client(i):
        try:
            response = http_request(host, port, f"/page?v={i}", timeout=30)
            assert response.status == 200
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(RENDER_REQUESTS)]
    started = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    return time.monotonic() - started


def test_a5_no_render_pool_topology_live(benchmark, slow_render_filter):
    """Dropping the render stage (four-stage graph, ``render_inline``)
    serialises render-heavy traffic on the connection-holding dynamic
    thread; the five-stage graph overlaps renders in its render pool.
    Same server class, different stage graph."""
    times = {}

    def measure():
        for label, render_inline in (("five-stage", False),
                                     ("four-stage-inline", True)):
            app, database = build_render_heavy_app()
            server = StagedServer(
                app, ConnectionPool(database, 2), policy=small_policy(),
                render_inline=render_inline,
            ).start()
            try:
                times[label] = render_makespan(*server.address)
            finally:
                server.stop()
        return times

    benchmark.pedantic(measure, rounds=1, iterations=1)
    serial_floor = RENDER_REQUESTS * RENDER_SECONDS
    print(f"\nA5 makespan: five-stage {times['five-stage']:.2f}s vs "
          f"render-inline {times['four-stage-inline']:.2f}s "
          f"(serial floor {serial_floor:.2f}s)")
    benchmark.extra_info["five_stage_s"] = round(times["five-stage"], 3)
    benchmark.extra_info["inline_s"] = round(times["four-stage-inline"], 3)
    # Inline: the one general thread renders serially.
    assert times["four-stage-inline"] > serial_floor * 0.8
    # Render pool of 3 overlaps: well under the inline makespan.
    assert times["five-stage"] < times["four-stage-inline"] * 0.6


def test_a6_always_general_dispatch_live(benchmark):
    """A1's single-pool dispatch on the *live* server: with
    ``AlwaysGeneralDispatcher`` a quick request convoys behind a slow
    one in the general pool; the paper's Table 1 dispatcher diverts
    the slow request and the quick one sails through.  Same stage
    graph, different dispatcher object."""
    def build_convoy_app():
        database = Database()
        app = Application(
            templates=TemplateEngine(sources={"p.html": "done {{ which }}"})
        )

        @app.expose("/slow")
        def slow():
            time.sleep(SLOW_SECONDS)  # a lengthy database query
            return ("p.html", {"which": "slow"})

        @app.expose("/fast")
        def fast():
            return ("p.html", {"which": "fast"})

        return app, database

    def fast_latency(server):
        host, port = server.address
        slow_started = threading.Event()

        def slow_client():
            slow_started.set()
            http_request(host, port, "/slow", timeout=30)

        slow_thread = threading.Thread(target=slow_client)
        slow_thread.start()
        slow_started.wait(timeout=5)
        time.sleep(0.05)  # let /slow occupy its worker
        started = time.monotonic()
        response = http_request(host, port, "/fast", timeout=30)
        elapsed = time.monotonic() - started
        slow_thread.join(timeout=30)
        assert response.status == 200
        return elapsed

    latencies = {}

    def measure():
        for label, dispatcher in (("table1", None),
                                  ("always-general",
                                   AlwaysGeneralDispatcher())):
            app, database = build_convoy_app()
            policy = small_policy(dispatcher=dispatcher, render_pool=1)
            # Warm start: the classifier already knows /slow is lengthy.
            policy.tracker.prime("/slow", 10.0)
            server = StagedServer(app, ConnectionPool(database, 2),
                                  policy=policy).start()
            try:
                latencies[label] = fast_latency(server)
            finally:
                server.stop()
        return latencies

    benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nA6 /fast latency: Table 1 dispatch {latencies['table1']:.3f}s "
          f"vs always-general {latencies['always-general']:.3f}s")
    benchmark.extra_info["table1_s"] = round(latencies["table1"], 3)
    benchmark.extra_info["always_general_s"] = round(
        latencies["always-general"], 3)
    # Table 1 diverts /slow to the lengthy pool; /fast sails through.
    assert latencies["table1"] < SLOW_SECONDS * 0.5
    # Single-pool dispatch: /fast convoys behind /slow's sleep.
    assert latencies["always-general"] > SLOW_SECONDS * 0.6


# ----------------------------------------------------------------------
# A7: lease strategies on both topologies — connection busy fraction.
# ----------------------------------------------------------------------
A7_RENDER_SECONDS = 0.35
A7_DB_SCANS = 30
A7_REQUESTS = 12


@pytest.fixture()
def a7_slow_render_filter():
    register_filter(
        "a7_slow_render",
        lambda value, arg=None: (time.sleep(A7_RENDER_SECONDS),
                                 str(value))[1],
    )
    yield
    del FILTERS["a7_slow_render"]


def build_lease_lab_app():
    """Real query time plus real render time, so held-vs-busy fractions
    come from measured work rather than sleeps alone."""
    database = Database()
    database.executescript(
        "CREATE TABLE item (id INT PRIMARY KEY AUTO_INCREMENT,"
        " title VARCHAR(60))"
    )
    for start in range(0, 2000, 100):
        values = ", ".join(
            f"('title-{i}-xyz')" for i in range(start, start + 100)
        )
        database.execute(f"INSERT INTO item (title) VALUES {values}")
    app = Application(templates=TemplateEngine(sources={
        "lab.html": "matched: {{ matched|a7_slow_render }}",
    }))

    @app.expose("/page")
    def page(v="x"):
        matched = 0
        for _ in range(A7_DB_SCANS):  # ~0.1 s of genuine query work
            result = app.getconn().execute(
                "SELECT COUNT(*) FROM item WHERE title LIKE '%xyz%'"
            )
            matched = result.fetchone()[0]
        return ("lab.html", {"matched": matched})

    return app, database


def a7_run(topology, strategy):
    """Saturate one server build with dynamic requests; return its
    per-stage connection utilization."""
    app, database = build_lease_lab_app()
    if topology == "baseline":
        server = BaselineServer(app, ConnectionPool(database, 2),
                                workers=2, lease_strategy=strategy)
    else:
        policy = SchedulingPolicy(PolicyConfig(
            general_pool_size=2, lengthy_pool_size=1, minimum_reserve=1,
            header_pool_size=2, static_pool_size=1, render_pool_size=6,
        ))
        server = StagedServer(app, ConnectionPool(database, 3),
                              policy=policy, lease_strategy=strategy)
    server.start()
    try:
        host, port = server.address
        errors = []

        def client(i):
            try:
                response = http_request(host, port, f"/page?v={i}",
                                        timeout=60)
                assert response.status == 200, response.status
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(A7_REQUESTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
    finally:
        server.stop()
    assert server.leases.outstanding == 0
    utilization = server.stats.connection_utilization()
    assert utilization, (topology, strategy)
    for entry in utilization.values():
        assert entry["strategy"] == strategy.value
        assert entry["held_seconds"] >= entry["busy_seconds"] >= 0.0
    return utilization


def busy_fraction(utilization):
    """Aggregate busy fraction across every stage that held leases."""
    held = sum(e["held_seconds"] for e in utilization.values())
    busy = sum(e["busy_seconds"] for e in utilization.values())
    return busy / held if held else 0.0


def test_a7_lease_strategies_live(benchmark, a7_slow_render_filter):
    """The paper's resource-efficiency claim, measured: under PINNED
    (the paper's scheme) the staged server's dynamic-stage connections
    show a strictly higher busy fraction than the baseline's workers,
    because baseline workers hold their pinned connection through
    parsing and rendering.  Per-query leasing pushes the fraction near
    1.0 on either topology — the connection is only ever held while a
    statement runs."""
    fractions = {}

    def measure():
        for topology in ("baseline", "staged"):
            for strategy in (LeaseStrategy.PINNED,
                             LeaseStrategy.LEASED_PER_REQUEST,
                             LeaseStrategy.LEASED_PER_QUERY):
                utilization = a7_run(topology, strategy)
                fractions[(topology, strategy.value)] = (
                    busy_fraction(utilization)
                )
        return fractions

    benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nA7 connection busy fraction by topology and strategy:")
    for (topology, strategy), fraction in sorted(fractions.items()):
        print(f"   {topology:8s} {strategy:11s}: {fraction:6.1%}")
        benchmark.extra_info[f"{topology}_{strategy}_busy_fraction"] = (
            round(fraction, 3)
        )

    # The headline comparison: same pinning scheme, different topology.
    pinned_staged = fractions[("staged", "pinned")]
    pinned_baseline = fractions[("baseline", "pinned")]
    assert pinned_staged > pinned_baseline * 1.2, (
        "staged dynamic stages must keep pinned connections busier"
    )
    # Per-query leases barely outlive their statement on any topology.
    for topology in ("baseline", "staged"):
        per_query = fractions[(topology, "per-query")]
        assert per_query > fractions[(topology, "pinned")]
        assert per_query > 0.5
