"""The calibrated render-speedup knob on the simulated servers."""

import dataclasses

import pytest

from repro.sim.kernel import Simulation
from repro.sim.results import SimResults
from repro.sim.server import SimServer
from repro.sim.workload import (
    DEFAULT_PROFILES,
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


def render_heavy_profiles(scale=20.0):
    """Profiles where rendering dominates, so the knob is visible."""
    return {
        path: dataclasses.replace(
            profile, db_demand=min(profile.db_demand, 0.02),
            render_demand=profile.render_demand * scale, images=1,
        )
        for path, profile in DEFAULT_PROFILES.items()
    }


class TestKnob:
    def test_default_is_identity(self):
        assert WorkloadConfig(**TINY).render_speedup == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="render_speedup"):
            tiny_config(render_speedup=0.0)
        with pytest.raises(ValueError, match="render_speedup"):
            tiny_config(render_speedup=-2.0)

    def test_demand_divided_by_speedup(self):
        config = tiny_config(render_speedup=4.0)
        server = SimServer(Simulation(), config, SimResults(), "baseline")
        profile = DEFAULT_PROFILES["/home"]
        expected = profile.render_demand * 1.3 / 4.0
        assert server._render_demand(profile, 1.3) == pytest.approx(expected)


class TestEndToEnd:
    @pytest.mark.parametrize("kind", ["baseline", "staged", "sjf"])
    def test_speedup_lowers_response_times(self, kind):
        slow = run_tpcw_simulation(kind, tiny_config(seed=11),
                                   profiles=render_heavy_profiles())
        fast = run_tpcw_simulation(
            kind, tiny_config(seed=11, render_speedup=4.0),
            profiles=render_heavy_profiles(),
        )
        assert fast.total_completions() > 0
        slow_mean = sum(slow.mean_response_times().values())
        fast_mean = sum(fast.mean_response_times().values())
        assert fast_mean < slow_mean

    def test_identity_speedup_changes_nothing(self):
        a = run_tpcw_simulation("staged", tiny_config(seed=5),
                                profiles=render_heavy_profiles())
        b = run_tpcw_simulation(
            "staged", tiny_config(seed=5, render_speedup=1.0),
            profiles=render_heavy_profiles(),
        )
        assert a.completions == b.completions
        assert a.mean_response_times() == b.mean_response_times()
