"""Profiler tests: demands derived from the real implementation."""

import pytest

from repro.tpcw.app import PAGES
from repro.tpcw.profile import (
    build_profiles,
    format_measurements,
    measure_pages,
)


@pytest.fixture(scope="module")
def measurements(request):
    # Build app/db locally (module-scoped for speed; read-mostly).
    from repro.db.engine import Database
    from repro.tpcw.app import TPCWApplication
    from repro.tpcw.population import PopulationScale, populate
    from repro.tpcw.schema import create_schema

    database = Database()
    create_schema(database)
    populate(database, PopulationScale.tiny())
    app = TPCWApplication(database, bestseller_window=50)
    return measure_pages(app, repetitions=2)


class TestMeasurements:
    def test_all_pages_measured(self, measurements):
        assert set(measurements) == set(PAGES)

    def test_fast_slow_dichotomy_emerges(self, measurements):
        """The paper's §4.2.1 split must come from the real query
        plans: the three complex pages dwarf the index-probe pages."""
        slow = {"/best_sellers", "/new_products", "/execute_search",
                "/admin_response"}
        slowest_quick = max(
            m.db_seconds for path, m in measurements.items()
            if path not in slow
        )
        fastest_slow = min(measurements[p].db_seconds for p in slow)
        assert fastest_slow > slowest_quick

    def test_best_sellers_is_slowest_family(self, measurements):
        assert measurements["/best_sellers"].db_seconds == max(
            m.db_seconds for m in measurements.values()
        )

    def test_form_pages_have_no_db_cost(self, measurements):
        assert measurements["/search_request"].db_seconds == 0.0
        assert measurements["/order_inquiry"].db_seconds == 0.0

    def test_admin_response_writes_item(self, measurements):
        assert "item" in measurements["/admin_response"].tables_written

    def test_buy_confirm_does_not_write_item(self, measurements):
        assert "item" not in measurements["/buy_confirm"].tables_written

    def test_render_seconds_track_output_size(self, measurements):
        big = measurements["/execute_search"]
        small = measurements["/order_inquiry"]
        assert big.output_bytes > small.output_bytes
        assert big.render_seconds > small.render_seconds

    def test_format_is_readable(self, measurements):
        text = format_measurements(measurements)
        assert "/best_sellers" in text
        assert "db (ms)" in text


class TestBuildProfiles:
    def test_anchor_scaling(self, measurements):
        profiles = build_profiles(measurements, anchor_page="/best_sellers",
                                  anchor_db_seconds=11.0)
        assert profiles["/best_sellers"].db_demand == pytest.approx(11.0)

    def test_relative_ratios_preserved(self, measurements):
        profiles = build_profiles(measurements)
        measured_ratio = (
            measurements["/new_products"].db_seconds
            / measurements["/best_sellers"].db_seconds
        )
        profile_ratio = (
            profiles["/new_products"].db_demand
            / profiles["/best_sellers"].db_demand
        )
        assert profile_ratio == pytest.approx(measured_ratio)

    def test_write_tables_carried_over(self, measurements):
        profiles = build_profiles(measurements)
        assert profiles["/admin_response"].write_table == "item"
        assert profiles["/home"].write_table is None

    def test_unknown_anchor_rejected(self, measurements):
        with pytest.raises(ValueError):
            build_profiles(measurements, anchor_page="/nope")

    def test_profiles_usable_in_simulation(self, measurements):
        from repro.sim.workload import WorkloadConfig, run_tpcw_simulation

        profiles = build_profiles(
            measurements, anchor_db_seconds=2.0,
            images={path: 1 for path in PAGES},
        )
        config = WorkloadConfig.quick(
            clients=10, ramp_up=5, measure=40, cool_down=5,
        )
        results = run_tpcw_simulation("staged", config, profiles=profiles).stats
        assert results.total_completions() > 0
