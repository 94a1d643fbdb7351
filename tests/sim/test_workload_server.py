"""Simulated server model + workload tests (reduced scale)."""

import dataclasses

import pytest

from repro.core.dispatch import StrictSeparationDispatcher
from repro.server.baseline import baseline_stages
from repro.server.resources import LeaseStrategy
from repro.sim import server as sim_server
from repro.sim.kernel import Simulation
from repro.sim.server import SimServer
from repro.sim.workload import (
    DEFAULT_PROFILES,
    LENGTHY_REPORT_PAGES,
    PageProfile,
    WorkloadConfig,
    run_tpcw_simulation,
)

TINY = dict(clients=20, ramp_up=10, measure=120, cool_down=10,
            baseline_workers=8, general_pool=8, lengthy_pool=2,
            header_pool=2, static_pool=2, render_pool=2,
            minimum_reserve=2, maximum_reserve=4, db_cores=20, web_cores=4)


def tiny_config(**overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return WorkloadConfig(**merged)


def fast_profiles(slow_demand=1.0):
    """Reduced demands so tiny runs finish plenty of interactions."""
    out = {}
    for path, profile in DEFAULT_PROFILES.items():
        demand = slow_demand if path in LENGTHY_REPORT_PAGES else (
            profile.db_demand
        )
        out[path] = dataclasses.replace(profile, db_demand=demand, images=1)
    return out


class TestPageProfile:
    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            PageProfile("/x", db_demand=-1, render_demand=0, read_tables=())

    def test_write_table_requires_demand(self):
        with pytest.raises(ValueError):
            PageProfile("/x", db_demand=1, render_demand=0, read_tables=(),
                        write_table="item", write_demand=0.0)

    def test_negative_images_rejected(self):
        with pytest.raises(ValueError):
            PageProfile("/x", db_demand=1, render_demand=0, read_tables=(),
                        images=-1)

    def test_default_profiles_cover_browsing_mix(self):
        from repro.tpcw.mix import BROWSING_MIX

        assert set(DEFAULT_PROFILES) == set(BROWSING_MIX)

    def test_slow_pages_above_cutoff(self):
        """Default profiles: the lengthy report pages must exceed the
        2 s classification cutoff so the staged dispatcher engages."""
        for path in LENGTHY_REPORT_PAGES:
            assert DEFAULT_PROFILES[path].db_demand > 2.0


class TestWorkloadConfig:
    def test_duration(self):
        config = WorkloadConfig(ramp_up=10, measure=100, cool_down=5)
        assert config.duration == 115

    def test_quick_preset_smaller_than_paper(self):
        quick, paper = WorkloadConfig.quick(), WorkloadConfig.paper()
        assert quick.clients < paper.clients
        assert quick.measure < paper.measure

    def test_invalid_clients(self):
        with pytest.raises(ValueError):
            WorkloadConfig(clients=0)

    def test_reserve_bounded_by_pool(self):
        with pytest.raises(ValueError):
            WorkloadConfig(general_pool=4, minimum_reserve=10)


class TestStageTables:
    """Each kind walks the live servers' declared stages, in order."""

    STAGED = [("header", 2), ("static", 2), ("general", 8), ("lengthy", 2),
              ("render", 2)]

    @pytest.mark.parametrize("kind, expected", [
        ("baseline", [("worker", 8)]),
        ("sjf", [("worker", 8)]),
        ("staged", STAGED),
        ("staged-render-inline", STAGED[:-1]),
    ])
    def test_declared_names_sizes_and_order(self, kind, expected):
        server = SimServer(Simulation(), tiny_config(), kind)
        assert [(name, pool.size) for name, (pool, _step)
                in server.stages.items()] == expected
        assert server.entry == expected[0][0]

    @pytest.mark.parametrize("kind", sorted(sim_server.TOPOLOGIES))
    def test_tables_declare_per_query_leases(self, kind):
        server = SimServer(Simulation(), tiny_config(), kind)
        assert server.lease_strategy is LeaseStrategy.LEASED_PER_QUERY

    def test_table_with_another_lease_strategy_rejected(self, monkeypatch):
        monkeypatch.setitem(sim_server.TOPOLOGIES, "baseline",
                            lambda server: baseline_stages(8, server._worker))
        with pytest.raises(ValueError, match="per-query"):
            SimServer(Simulation(), tiny_config(), "baseline")


class TestSimulationRuns:
    @pytest.mark.parametrize("kind", ["baseline", "staged"])
    def test_completes_interactions(self, kind):
        results = run_tpcw_simulation(kind, tiny_config(),
                                      profiles=fast_profiles()).stats
        assert results.total_completions() > 50
        assert results.mean_response_times()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_tpcw_simulation("hybrid", tiny_config())

    def test_deterministic_given_seed(self):
        a = run_tpcw_simulation("staged", tiny_config(seed=7),
                                profiles=fast_profiles()).stats
        b = run_tpcw_simulation("staged", tiny_config(seed=7),
                                profiles=fast_profiles()).stats
        assert a.completions() == b.completions()
        assert a.mean_response_times() == b.mean_response_times()

    def test_different_seeds_differ(self):
        a = run_tpcw_simulation("staged", tiny_config(seed=1),
                                profiles=fast_profiles()).stats
        b = run_tpcw_simulation("staged", tiny_config(seed=2),
                                profiles=fast_profiles()).stats
        assert a.completions() != b.completions()

    def test_measurement_window_respected(self):
        config = tiny_config()
        results = run_tpcw_simulation("baseline", config,
                                      profiles=fast_profiles()).stats
        # Queue samples span the whole run; completions only the window.
        times = results.series("queue/dynamic").times
        assert times[0] < config.ramp_up
        assert times[-1] >= config.ramp_up + config.measure
        assert 0 < results.total_completions()

    def test_queue_series_recorded(self):
        baseline = run_tpcw_simulation("baseline", tiny_config(),
                                       profiles=fast_profiles()).stats
        assert "dynamic" in baseline.queue_series()
        staged = run_tpcw_simulation("staged", tiny_config(),
                                     profiles=fast_profiles()).stats
        assert {"general", "lengthy", "static", "render",
                "header"} <= set(staged.queue_series())

    def test_reserve_series_only_for_staged(self):
        staged = run_tpcw_simulation("staged", tiny_config(),
                                     profiles=fast_profiles()).stats
        assert len(staged.series("treserve")) > 0
        assert len(staged.series("tspare")) > 0

    def test_custom_dispatcher_ablation(self):
        results = run_tpcw_simulation(
            "staged", tiny_config(), profiles=fast_profiles(),
            dispatcher=StrictSeparationDispatcher(),
        ).stats
        assert results.total_completions() > 0

    def test_figure10_classes_recorded(self):
        results = run_tpcw_simulation("staged", tiny_config(),
                                      profiles=fast_profiles()).stats
        for request_class in ("static", "dynamic", "quick", "lengthy"):
            series = results.throughput_series(60.0, request_class)
            assert sum(series.values) > 0, request_class

    def test_generation_excludes_render(self):
        """Generation time is the DB phase only; response time includes
        queues, render, and images — so response >= generation."""
        results = run_tpcw_simulation("staged", tiny_config(),
                                      profiles=fast_profiles()).stats
        responses = results.mean_response_times()
        generation = results.mean_generation_times()
        assert generation
        for page, mean in generation.items():
            if page in responses:
                assert responses[page] >= mean * 0.5


class TestMeasurementWindow:
    def test_window_is_half_open_after_ramp_up(self):
        config = tiny_config(ramp_up=10, measure=10)
        assert not config.measuring(5.0)     # ramp-up
        assert config.measuring(10.0)
        assert config.measuring(15.0)
        assert not config.measuring(20.0)    # cool-down
