"""Sim/live fault parity: one scripted FaultPlan, two worlds.

The same rules with the same seed are interpreted by a live server
(real sockets, real threads, ManualClock) and by :class:`SimServer`
with the same topology (generator processes on the discrete-event
clock), for the staged server, its render-inline ablation, and the
thread-per-request baseline.  Both worlds must produce the identical
``fault_report()`` — same rules, same per-rule injection counts — the
identical ``resilience_report()`` counters and the identical error
responses (``stats.errors()``), and a second live run with the same
seed must reproduce the first bit for bit.

Beyond the scripted plan, one rule set per fault site checks that
each site sees the same ``(page, stage)`` on both sides: page- and
stage-filtered socket writes, the write of an error response, a
page-filtered worker crash on the entry stage (where no page is known
yet), and socket reads, which decide before the request is parsed.
Three more pin the lease path the simulator declares, per-query: a
page without SQL never acquires, a write is never retried, and an
entry-stage crash is recorded under ``"?"``.  The live servers run the
lease strategy the simulator's stage table declares.
"""

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
    FaultAction,
    FaultPlan,
    FaultRule,
)
from repro.faults.policies import ResilienceConfig, RetryPolicy
from repro.http.client import http_request
from repro.http.errors import BadRequestError
from repro.server.app import Application
from repro.server.baseline import BaselineServer
from repro.server.staged import StagedServer
from repro.sim.faults import sim_fault_plan
from repro.sim.kernel import Simulation
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

    @app.expose("/delta")
    def delta():
        app.getconn().execute("INSERT INTO t (v) VALUES (8)")
        return ("page.html", {"v": 8})

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

#: The stage that sends a dynamic page's response per topology.
RESPONSE_STAGE = {"staged": "render", "staged-render-inline": "general",
                  "baseline": "worker"}

#: The first declared stage, which reads the request, per topology.
ENTRY_STAGE = {"staged": "header", "staged-render-inline": "header",
               "baseline": "worker"}


def site_cases(kind):
    """Case name -> (rules, script, injections the live run makes)."""
    drop = FaultAction.DROP
    return {
        "write-drop-by-page": (
            (FaultRule(site=SITE_SOCKET_WRITE, action=drop,
                       page_key="/beta", max_times=1),),
            SCRIPT, 1),
        "write-drop-by-stage": (
            (FaultRule(site=SITE_SOCKET_WRITE, action=drop,
                       stage=RESPONSE_STAGE[kind], max_times=1),),
            SCRIPT, 1),
        # The dropped write is the 500 of the exhausted acquire, so the
        # error is never recorded and the later 200 goes out.
        "write-drop-on-error": (
            (FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
                       page_key="/gamma", max_times=1),
             FaultRule(site=SITE_SOCKET_WRITE, action=drop, max_times=1)),
            ("/gamma", "/gamma"), 2),
        # The entry stage's worker site decides before the request is
        # parsed: a page filter there never matches.
        "entry-worker-crash-by-page": (
            (FaultRule(site=SITE_WORKER, action=FaultAction.CRASH,
                       page_key="/beta", stage=ENTRY_STAGE[kind]),),
            SCRIPT, 0),
        "read-stall": (
            (FaultRule(site=SITE_SOCKET_READ, action=FaultAction.STALL,
                       max_times=1),),
            SCRIPT, 1),
        "read-drop": (
            (FaultRule(site=SITE_SOCKET_READ, action=drop, max_times=1),),
            SCRIPT, 1),
        # On the baseline "general" is no stage at all.
        "worker-hang-by-page-and-stage": (
            (FaultRule(site=SITE_WORKER, action=FaultAction.HANG,
                       page_key="/beta", stage="general", delay=0.01),),
            SCRIPT, 0 if kind == "baseline" else 2),
        **{case: (rules, script, 1)
           for case, (rules, script, _errors) in DRIFT_CASES.items()},
    }


#: Cases where the simulator once ran per-request leasing, retried
#: writes, or named an entry-stage error by its page: case ->
#: (rules, script, the live errors).
DRIFT_CASES = {
    # Only a statement leases a connection: /beta issues none, so the
    # one exhaustion falls on /alpha's SELECT.
    "exhaust-first-acquire": (
        (FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
                   max_times=1),),
        ("/beta", "/alpha"), {"/alpha": {"500": 1}}),
    # An INSERT is never replayed: its transient is the page's 500.
    "write-transient": (
        (FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
                   page_key="/delta", max_times=1),),
        ("/delta",), {"/delta": {"500": 1}}),
    # The entry stage crashes before the request is parsed: no page.
    "entry-crash-unfiltered": (
        (FaultRule(site=SITE_WORKER, action=FaultAction.CRASH,
                   max_times=1),),
        ("/alpha", "/beta"), {"?": {"500": 1}}),
}


SITE_CASES = sorted(site_cases("staged"))


def fetch_status(host, port, path):
    """The response status, or ``None`` when the server sent nothing
    (an empty reply, or a reset when it closed with the request unread)."""
    try:
        return http_request(host, port, path).status
    except (BadRequestError, ConnectionResetError):
        return None


def sim_lease_strategy(kind):
    """The lease strategy the simulator's stage table declares."""
    return SimServer(Simulation(), WorkloadConfig.quick(seed=PARITY_SEED),
                     kind).lease_strategy


def run_live(kind, rules=PARITY_RULES, script=SCRIPT):
    """The script against a real server; returns statuses and reports."""
    clock = ManualClock()
    plan = FaultPlan(rules, seed=PARITY_SEED, clock=clock,
                     sleeper=clock.advance)
    app, database = build_parity_app()
    server = LIVE_SERVERS[kind](
        app, ConnectionPool(database, 4),
        lease_strategy=sim_lease_strategy(kind), clock=clock,
        faults=plan, resilience=PARITY_RESILIENCE,
    )
    server.start()
    try:
        host, port = server.address
        statuses = tuple(fetch_status(host, port, path) for path in script)
    finally:
        server.stop()
    return (statuses, plan.fault_report(),
            server.stats.resilience_report(), server.stats.errors())


#: Sim twins of the parity pages: tiny demands, no table locks — the
#: parity contract is about *which gates fire*, not service times.
SIM_PROFILES = {
    "/alpha": PageProfile("/alpha", db_demand=0.001, render_demand=0.001,
                          read_tables=()),
    "/beta": PageProfile("/beta", db_demand=0.0, render_demand=0.001,
                         read_tables=()),
    "/gamma": PageProfile("/gamma", db_demand=0.001, render_demand=0.001,
                          read_tables=()),
    "/delta": PageProfile("/delta", db_demand=0.0, render_demand=0.001,
                          read_tables=(), write_table="t",
                          write_demand=0.001),
}


def run_sim(kind, rules=PARITY_RULES, script=SCRIPT):
    """The same script through the SimServer with the same topology."""
    sim = Simulation()
    config = WorkloadConfig.quick(seed=PARITY_SEED)
    server = SimServer(sim, config, kind)
    plan = sim_fault_plan(sim, rules, seed=PARITY_SEED)
    server.configure_faults(plan, PARITY_RESILIENCE)

    def driver():
        # Sequential, like the live client: each request completes (or
        # is abandoned by an injected fault) before the next is sent.
        for path in script:
            yield server.submit_page(SIM_PROFILES[path], jitter=1.0)

    sim.spawn(driver())
    sim.run()
    return (plan.fault_report(), server.stats.resilience_report(),
            server.stats.errors())


@pytest.mark.parametrize("kind", sorted(LIVE_SERVERS))
class TestFaultParity:
    def test_live_matches_expectations(self, kind):
        statuses, fault_report, resilience, errors = run_live(kind)
        assert statuses == EXPECTED_STATUSES
        assert fault_report["seed"] == PARITY_SEED
        assert fault_report["total_injected"] == 4
        assert fault_report["injected"] == EXPECTED_INJECTED
        # Both transients hit the same SELECT and were retried on the
        # connection-holding stage.
        assert resilience["stages"][QUERY_STAGE[kind]]["retries"] == 2
        assert errors == {"/gamma": {"500": 1}}

    def test_sim_mirrors_live_key_for_key(self, kind):
        _statuses, *live = run_live(kind)
        assert list(run_sim(kind)) == live

    @pytest.mark.parametrize("case", SITE_CASES)
    def test_each_site_sees_the_same_context(self, kind, case):
        rules, script, injected = site_cases(kind)[case]
        _statuses, *live = run_live(kind, rules, script)
        assert live[0]["total_injected"] == injected
        assert list(run_sim(kind, rules, script)) == live

    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    def test_drift_cases_pin_the_live_outcome(self, kind, case):
        rules, script, errors = DRIFT_CASES[case]
        _statuses, _faults, resilience, live_errors = run_live(
            kind, rules, script)
        assert live_errors == errors
        assert all(stage["retries"] == 0
                   for stage in resilience["stages"].values())

    def test_two_consecutive_live_runs_are_identical(self, kind):
        first = run_live(kind)
        second = run_live(kind)
        assert first == second


def test_socket_read_rules_cannot_filter_by_page():
    with pytest.raises(ValueError, match="page_key"):
        FaultRule(site=SITE_SOCKET_READ, action=FaultAction.DROP,
                  page_key="/alpha")
