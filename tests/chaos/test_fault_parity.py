"""Sim/live fault parity: one scripted FaultPlan, two worlds.

The same rules with the same seed are interpreted by a live server
(real sockets, real threads, ManualClock) and by :class:`SimServer`
with the same topology (generator processes on the discrete-event
clock), for the staged server, its render-inline ablation, and the
thread-per-request baseline.  Both worlds must produce the identical
``fault_report()`` — same rules, same per-rule injection counts — and
the identical ``resilience_report()`` counters, and a second live run
with the same seed must reproduce the first bit for bit.
"""

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    FaultAction,
    FaultPlan,
    FaultRule,
)
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.http.client import http_request
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.resources import LeaseStrategy
from repro.server.staged import StagedServer
from repro.sim.faults import sim_fault_plan
from repro.sim.kernel import Simulation
from repro.sim.results import SimResults
from repro.sim.server import SimServer
from repro.sim.workload import PageProfile, WorkloadConfig
from repro.templates.engine import TemplateEngine
from repro.util.clock import ManualClock

from tests.chaos.conftest import small_policy

pytestmark = pytest.mark.chaos

PARITY_SEED = 1304

#: The scripted plan: a transient DB wobble on /alpha (retried to
#: success), a slow render on /beta, one pool exhaustion on /gamma.
#: All probability 1.0 — parity is about injection *sites*, the
#: probability streams are covered by tests/chaos/test_fault_plan.py.
PARITY_RULES = (
    FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
              page_key="/alpha", max_times=2),
    FaultRule(site=SITE_RENDER, action=FaultAction.DELAY,
              page_key="/beta", delay=0.01, max_times=1),
    FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
              page_key="/gamma", max_times=1),
)

PARITY_RESILIENCE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=3, base_delay=0.02, multiplier=2.0,
                      max_delay=0.5, jitter=0.1),
    seed=PARITY_SEED,
)

#: Two requests per page, in this order, on both worlds.
SCRIPT = ("/alpha", "/alpha", "/beta", "/beta", "/gamma", "/gamma")

#: /alpha's transients are retried to success; /gamma's first acquire
#: hits the injected exhaustion (500), its second succeeds.
EXPECTED_STATUSES = (200, 200, 200, 200, 500, 200)

EXPECTED_INJECTED = {
    "db.pool.acquire:exhaust": 1,
    "db.query:transient": 2,
    "render:delay": 1,
}


def build_parity_app():
    database = Database()
    database.executescript(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"
    )
    database.execute("INSERT INTO t (v) VALUES (7)")
    engine = TemplateEngine(sources={"page.html": "value={{ v }}"})
    app = Application(templates=engine)

    def db_page():
        cursor = app.getconn().cursor()
        cursor.execute("SELECT v FROM t WHERE id = 1")
        return ("page.html", {"v": cursor.fetchone()[0]})

    app.expose("/alpha")(db_page)
    app.expose("/gamma")(db_page)

    @app.expose("/beta")
    def beta():
        return ("page.html", {"v": 0})

    return app, database


#: Topology kind -> live server factory; the sim side is
#: ``SimServer(..., kind)`` with the same kind string.
LIVE_SERVERS = {
    "staged": lambda app, pool, **kw: StagedServer(
        app, pool, policy=small_policy(), **kw),
    "staged-render-inline": lambda app, pool, **kw: StagedServer(
        app, pool, policy=small_policy(), render_inline=True, **kw),
    "baseline": lambda app, pool, **kw: BaselineServer(app, pool, **kw),
}

#: The stage that runs the SELECT (and so retries it) per topology.
QUERY_STAGE = {"staged": "general", "staged-render-inline": "general",
               "baseline": "worker"}


def run_live(kind):
    """The script against a real server; returns the reports."""
    clock = ManualClock()
    plan = FaultPlan(PARITY_RULES, seed=PARITY_SEED, clock=clock,
                     sleeper=clock.advance)
    app, database = build_parity_app()
    server = LIVE_SERVERS[kind](
        app, ConnectionPool(database, 4),
        lease_strategy=LeaseStrategy.LEASED_PER_QUERY, clock=clock,
        faults=plan, resilience=PARITY_RESILIENCE,
    )
    server.start()
    try:
        host, port = server.address
        statuses = tuple(http_request(host, port, path).status
                         for path in SCRIPT)
    finally:
        server.stop()
    return statuses, plan.fault_report(), server.stats.resilience_report()


#: Sim twins of the parity pages: tiny demands, no table locks — the
#: parity contract is about *which gates fire*, not service times.
SIM_PROFILES = {
    "/alpha": PageProfile("/alpha", db_demand=0.001, render_demand=0.001,
                          read_tables=()),
    "/beta": PageProfile("/beta", db_demand=0.0, render_demand=0.001,
                         read_tables=()),
    "/gamma": PageProfile("/gamma", db_demand=0.001, render_demand=0.001,
                          read_tables=()),
}


def run_sim(kind):
    """The same script through the SimServer with the same topology."""
    sim = Simulation()
    config = WorkloadConfig.quick(seed=PARITY_SEED)
    server = SimServer(sim, config, SimResults(), kind)
    harness = server.configure_faults(
        sim_fault_plan(sim, PARITY_RULES, seed=PARITY_SEED),
        PARITY_RESILIENCE,
    )

    def driver():
        # Sequential, like the live client: each request completes (or
        # is abandoned by an injected fault) before the next is sent.
        for path in SCRIPT:
            yield server.submit_page(SIM_PROFILES[path], jitter=1.0)

    sim.spawn(driver())
    sim.run()
    return harness.plan.fault_report(), harness.stats.resilience_report()


@pytest.mark.parametrize("kind", sorted(LIVE_SERVERS))
class TestFaultParity:
    def test_live_matches_expectations(self, kind):
        statuses, fault_report, resilience = run_live(kind)
        assert statuses == EXPECTED_STATUSES
        assert fault_report["seed"] == PARITY_SEED
        assert fault_report["total_injected"] == 4
        assert fault_report["injected"] == EXPECTED_INJECTED
        # Both transients hit the same SELECT and were retried on the
        # connection-holding stage.
        assert resilience["stages"][QUERY_STAGE[kind]]["retries"] == 2

    def test_sim_mirrors_live_key_for_key(self, kind):
        _statuses, live_faults, live_resilience = run_live(kind)
        sim_faults, sim_resilience = run_sim(kind)
        assert sim_faults == live_faults
        assert sim_resilience == live_resilience

    def test_two_consecutive_live_runs_are_identical(self, kind):
        first = run_live(kind)
        second = run_live(kind)
        assert first == second
