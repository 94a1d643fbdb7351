"""Unit tests for the declarative fault-injection engine itself:
matching, scheduling windows, probability streams, and reporting —
all on a ManualClock, no servers involved."""

import pytest

from repro.db.errors import DatabaseError, PoolTimeoutError, TransientDBError
from repro.faults.errors import InjectedFault
from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_WORKER,
    FaultAction,
    FaultPlan,
    FaultRule,
    worker_decision_applies,
)
from repro.util.clock import ManualClock

pytestmark = pytest.mark.chaos


def make_plan(rules, seed=0, clock=None):
    return FaultPlan(rules, seed=seed,
                     clock=clock if clock is not None else ManualClock())


class TestRuleValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultRule(site="db.rm_rf", action=FaultAction.FAIL)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
                      probability=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            FaultRule(site=SITE_RENDER, action=FaultAction.DELAY, delay=-1.0)


class TestMatching:
    def test_first_match_wins(self):
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT),
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL),
        ])
        decision = plan.decide(SITE_DB_QUERY)
        assert decision.rule_index == 0
        assert decision.action is FaultAction.TRANSIENT
        counts = [r["injected"] for r in plan.fault_report()["rules"]]
        assert counts == [1, 0]

    def test_site_mismatch_never_fires(self):
        plan = make_plan([
            FaultRule(site=SITE_RENDER, action=FaultAction.FAIL),
        ])
        assert plan.decide(SITE_DB_QUERY) is None
        assert plan.injected_total() == 0

    def test_page_key_filter(self):
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
                      page_key="/alpha"),
        ])
        assert plan.decide(SITE_DB_QUERY, page_key="/beta") is None
        assert plan.decide(SITE_DB_QUERY, page_key="/alpha") is not None

    def test_stage_filter(self):
        plan = make_plan([
            FaultRule(site=SITE_WORKER, action=FaultAction.CRASH,
                      stage="lengthy"),
        ])
        assert plan.decide(SITE_WORKER, stage="general") is None
        assert plan.decide(SITE_WORKER, stage="lengthy") is not None

    def test_context_fills_missing_page_and_stage(self):
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
                      page_key="/p", stage="general"),
        ])
        # No context, no explicit match args: the rule cannot match.
        assert plan.decide(SITE_DB_QUERY) is None
        token = plan.push_context("/p", "general")
        try:
            assert plan.decide(SITE_DB_QUERY) is not None
        finally:
            plan.pop_context(token)
        # Context restored: back to no match.
        assert plan.decide(SITE_DB_QUERY) is None

    def test_page_named_after_push_keeps_stage_until_pop(self):
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
                      page_key="/p", stage="worker"),
        ])
        token = plan.push_context(None, "worker")
        try:
            assert plan.decide(SITE_DB_QUERY) is None
            plan.set_context_page("/p")
            assert plan.decide(SITE_DB_QUERY) is not None
        finally:
            plan.pop_context(token)
        assert plan.decide(SITE_DB_QUERY) is None

    def test_explicit_args_override_context(self):
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
                      page_key="/p"),
        ])
        token = plan.push_context("/other", None)
        try:
            assert plan.decide(SITE_DB_QUERY, page_key="/p") is not None
        finally:
            plan.pop_context(token)


class TestScheduling:
    def test_after_until_window_on_manual_clock(self):
        clock = ManualClock()
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL,
                      after=5.0, until=10.0),
        ], clock=clock)
        # First decision sets the epoch; elapsed 0 < after.
        assert plan.decide(SITE_DB_QUERY) is None
        clock.advance(5.0)
        assert plan.decide(SITE_DB_QUERY) is not None
        clock.advance(4.9)  # elapsed 9.9, still inside
        assert plan.decide(SITE_DB_QUERY) is not None
        clock.advance(0.1)  # elapsed 10.0: until is exclusive
        assert plan.decide(SITE_DB_QUERY) is None

    def test_max_times_caps_total_injections(self):
        plan = make_plan([
            FaultRule(site=SITE_RENDER, action=FaultAction.FAIL,
                      max_times=2),
        ])
        fired = [plan.decide(SITE_RENDER) for _ in range(5)]
        assert [d is not None for d in fired] == \
            [True, True, False, False, False]
        assert plan.injected_total() == 2


class TestDeterminism:
    RULE = FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
                     probability=0.5)

    def pattern(self, plan, n=100):
        return [plan.decide(SITE_DB_QUERY) is not None for _ in range(n)]

    def test_same_seed_same_decisions(self):
        assert self.pattern(make_plan([self.RULE], seed=7)) == \
            self.pattern(make_plan([self.RULE], seed=7))

    def test_different_seed_different_decisions(self):
        assert self.pattern(make_plan([self.RULE], seed=1)) != \
            self.pattern(make_plan([self.RULE], seed=2))

    def test_unrelated_sites_do_not_consume_randomness(self):
        reference = self.pattern(make_plan([self.RULE], seed=3))
        plan = make_plan([
            self.RULE,
            FaultRule(site=SITE_RENDER, action=FaultAction.FAIL,
                      probability=0.5),
        ], seed=3)
        interleaved = []
        for _ in range(100):
            plan.decide(SITE_RENDER)  # other site: must not perturb
            interleaved.append(plan.decide(SITE_DB_QUERY) is not None)
        assert interleaved == reference

    def test_appending_a_rule_preserves_earlier_streams(self):
        reference = self.pattern(make_plan([self.RULE], seed=4))
        extended = make_plan([
            self.RULE,
            FaultRule(site=SITE_SOCKET_READ, action=FaultAction.DROP,
                      probability=0.5),
        ], seed=4)
        assert self.pattern(extended) == reference


class TestInterpreterHelpers:
    def test_pool_exhaust_raises_pool_timeout(self):
        plan = make_plan([
            FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST),
        ])
        with pytest.raises(PoolTimeoutError):
            plan.on_pool_acquire()

    def test_db_transient_and_hard_failures(self):
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
                      max_times=1),
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL),
        ])
        with pytest.raises(TransientDBError):
            plan.on_db_query()
        with pytest.raises(DatabaseError):
            plan.on_db_query()

    def test_render_failure_raises_injected_fault(self):
        plan = make_plan([
            FaultRule(site=SITE_RENDER, action=FaultAction.FAIL),
        ])
        with pytest.raises(InjectedFault):
            plan.on_render("page.html")

    def test_delay_routes_through_sleeper(self):
        clock = ManualClock()
        plan = FaultPlan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.DELAY,
                      delay=2.5),
        ], clock=clock, sleeper=clock.advance)
        plan.on_db_query()  # must not raise
        assert clock.now() == pytest.approx(2.5)

    def test_zero_sleep_skips_sleeper(self):
        calls = []
        plan = FaultPlan([], sleeper=calls.append)
        plan.sleep(0.0)
        assert calls == []


class TestReporting:
    def test_fault_report_shape_and_counts(self):
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
                      page_key="/a", max_times=2),
            FaultRule(site=SITE_RENDER, action=FaultAction.DELAY,
                      delay=0.1),
        ], seed=11)
        for _ in range(3):
            plan.decide(SITE_DB_QUERY, page_key="/a")
        plan.decide(SITE_RENDER)
        report = plan.fault_report()
        assert report["seed"] == 11
        assert report["total_injected"] == 3
        assert report["injected"] == {
            "db.query:transient": 2, "render:delay": 1,
        }
        assert [r["injected"] for r in report["rules"]] == [2, 1]
        assert report["rules"][0]["page_key"] == "/a"

    def test_on_inject_observer_sees_every_injection(self):
        seen = []
        plan = make_plan([
            FaultRule(site=SITE_DB_QUERY, action=FaultAction.FAIL),
        ])
        plan.on_inject = lambda site, action: seen.append((site, action))
        plan.decide(SITE_DB_QUERY)
        plan.decide(SITE_RENDER)  # no rule: no injection, no callback
        assert seen == [(SITE_DB_QUERY, "fail")]

    def test_worker_decision_applies(self):
        plan = make_plan([
            FaultRule(site=SITE_WORKER, action=FaultAction.CRASH,
                      max_times=1),
            FaultRule(site=SITE_WORKER, action=FaultAction.HANG, delay=1.0),
        ])
        assert worker_decision_applies(plan.decide(SITE_WORKER))
        assert worker_decision_applies(plan.decide(SITE_WORKER))
        assert not worker_decision_applies(None)
