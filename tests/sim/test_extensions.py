"""Tests for the simulation extensions: the SJF and render-inline
topologies, and the priority-ordered pool queue behind SJF."""

import pytest

from repro.sim.kernel import Simulation
from repro.sim.resources import SimThreadPool
from repro.sim.workload import (
    LENGTHY_REPORT_PAGES,
    WorkloadConfig,
    run_tpcw_simulation,
)
from tests.sim.test_workload_server import fast_profiles, tiny_config


class TestPriorityPool:
    def test_lowest_priority_served_first(self):
        sim = Simulation()
        pool = SimThreadPool(sim, "p", 1)
        order = []

        def worker(name, priority, hold):
            yield pool.acquire(tag=name, priority=priority)
            order.append(name)
            yield hold
            pool.release()

        sim.spawn(worker("first", 0.0, 1.0))   # grabs the only thread
        sim.spawn(worker("slow", 10.0, 1.0))
        sim.spawn(worker("fast", 0.1, 1.0))
        sim.run()
        assert order == ["first", "fast", "slow"]

    def test_equal_priority_is_fifo(self):
        sim = Simulation()
        pool = SimThreadPool(sim, "p", 1)
        order = []

        def worker(name):
            yield pool.acquire(priority=1.0)
            order.append(name)
            yield 0.5
            pool.release()

        for name in ("a", "b", "c"):
            sim.spawn(worker(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_queue_length_and_tags(self):
        sim = Simulation()
        pool = SimThreadPool(sim, "p", 1)
        pool.acquire(tag="x")  # granted
        pool.acquire(tag="dynamic", priority=5.0)
        pool.acquire(tag="static", priority=0.0)
        assert pool.queue_length == 2
        assert pool.queued_with_tag("dynamic") == 1
        assert pool.queued_with_tag("static") == 1

    def test_release_without_acquire(self):
        sim = Simulation()
        pool = SimThreadPool(sim, "p", 1)
        with pytest.raises(RuntimeError):
            pool.release()


class TestSJFServer:
    def test_runs_and_completes(self):
        results = run_tpcw_simulation("sjf", tiny_config(),
                                      profiles=fast_profiles()).stats
        assert results.total_completions() > 50

    def test_learns_sizes_and_favours_quick(self):
        """With learned size estimates, quick pages must beat the FIFO
        baseline under identical load."""
        config = tiny_config(clients=40)
        profiles = fast_profiles(slow_demand=2.0)
        sjf = run_tpcw_simulation("sjf", config, profiles=profiles).stats
        fifo = run_tpcw_simulation("baseline", config, profiles=profiles).stats

        def quick_mean(results):
            rts = results.mean_response_times()
            values = [
                v for p, v in rts.items() if p not in LENGTHY_REPORT_PAGES
            ]
            return sum(values) / len(values)

        assert quick_mean(sjf) <= quick_mean(fifo)

    def test_queue_series_recorded(self):
        results = run_tpcw_simulation("sjf", tiny_config(),
                                      profiles=fast_profiles()).stats
        assert "dynamic" in results.queue_series()


class TestRenderInline:
    def test_runs_and_completes(self):
        results = run_tpcw_simulation("staged-render-inline", tiny_config(),
                                      profiles=fast_profiles()).stats
        assert results.total_completions() > 50

    def test_deterministic(self):
        a = run_tpcw_simulation("staged-render-inline", tiny_config(seed=3),
                                profiles=fast_profiles()).stats
        b = run_tpcw_simulation("staged-render-inline", tiny_config(seed=3),
                                profiles=fast_profiles()).stats
        assert a.completions() == b.completions()

    def test_never_beats_separated_rendering(self):
        """The separated render pool frees connections during render;
        inlining must not complete more interactions."""
        config = tiny_config(clients=40)
        profiles = fast_profiles()
        inline = run_tpcw_simulation("staged-render-inline", config,
                                     profiles=profiles).stats
        separated = run_tpcw_simulation("staged", config,
                                        profiles=profiles).stats
        assert separated.total_completions() >= (
            inline.total_completions() * 0.95
        )


class TestWarmStart:
    def test_tracker_primed_from_profiles(self):
        from repro.sim.kernel import Simulation
        from repro.sim.server import SimServer
        from repro.sim.workload import DEFAULT_PROFILES

        config = tiny_config(warm_start=True)
        server = SimServer(Simulation(), config, "staged")
        bs_demand = DEFAULT_PROFILES["/best_sellers"].db_demand
        assert server.policy.tracker.mean_time("/best_sellers") == bs_demand

    def test_cold_start_tracker_empty(self):
        from repro.sim.kernel import Simulation
        from repro.sim.server import SimServer

        server = SimServer(Simulation(), tiny_config(), "staged")
        assert server.policy.tracker.mean_time("/best_sellers") is None

    def test_warm_start_first_lengthy_routed_correctly(self):
        """Cold start misroutes the first slow request to the general
        pool (no history yet); warm start sends it to the lengthy pool
        whenever tspare <= treserve."""
        from repro.core.dispatch import DynamicPoolChoice
        from repro.sim.kernel import Simulation
        from repro.sim.server import SimServer

        config = tiny_config(warm_start=True)
        server = SimServer(Simulation(), config, "staged")
        choice = server.policy.route("/best_sellers", tspare=0)
        assert choice is DynamicPoolChoice.LENGTHY

        cold = SimServer(Simulation(), tiny_config(), "staged")
        choice = cold.policy.route("/best_sellers", tspare=0)
        assert choice is DynamicPoolChoice.GENERAL

    def test_warm_start_run_completes(self):
        results = run_tpcw_simulation(
            "staged", tiny_config(warm_start=True), profiles=fast_profiles()
        ).stats
        assert results.total_completions() > 50
