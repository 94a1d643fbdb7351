"""Watching the adaptive reserve ride out a traffic spike.

Two views of the §3.3 controller:

1. The paper's own worked example — Table 2's tspare trace replayed
   through the production ReserveController, matching the paper row
   for row.
2. A simulated staged-server run whose browsing mix is deliberately
   skewed toward lengthy pages mid-spike, showing tspare dipping,
   treserve climbing, lengthy requests diverted, and the general
   queue staying empty throughout.

Run:  python examples/traffic_spike.py
"""

import dataclasses

from repro.harness.experiments import run_table2
from repro.harness.report import format_series, format_table2
from repro.sim.workload import (
    DEFAULT_PROFILES,
    WorkloadConfig,
    run_tpcw_simulation,
)


def replay_paper_table2() -> None:
    print(format_table2(run_table2()))
    print()


def simulate_spike() -> None:
    # Skew the mix toward the slow pages (a best-sellers stampede) to
    # provoke sustained pressure on the general pool.
    spiky_mix = {
        "/home": 400, "/product_detail": 250, "/search_request": 100,
        "/best_sellers": 600, "/new_products": 500, "/execute_search": 450,
        "/shopping_cart": 30, "/customer_registration": 10,
        "/buy_request": 10, "/buy_confirm": 10, "/order_inquiry": 5,
        "/order_display": 5, "/admin_request": 2, "/admin_response": 2,
    }
    profiles = {
        path: dataclasses.replace(profile, images=1)
        for path, profile in DEFAULT_PROFILES.items()
    }
    config = WorkloadConfig.quick(
        clients=80, ramp_up=30, measure=240, cool_down=10,
        mix_weights=spiky_mix,
    )
    print("simulating a lengthy-page stampede against the staged server...")
    results = run_tpcw_simulation("staged", config, profiles=profiles).stats

    print()
    print(format_series(results.series("tspare"), "tspare (general pool spare threads)"))
    print()
    print(format_series(results.series("treserve"), "treserve (adaptive reserve)"))
    print()
    print(format_series(results.series("queue/general"),
                        "general-pool queue (quick requests protected)"))
    print()
    print(format_series(results.series("queue/lengthy"),
                        "lengthy-pool queue (absorbing the stampede)"))

    quick_pages = ("/home", "/product_detail", "/search_request")
    response_times = results.mean_response_times()
    print("\nquick pages under the stampede:")
    for page in quick_pages:
        if page in response_times:
            print(f"   {page:18s} {response_times[page]*1000:8.1f} ms")
    print("\nlengthy pages (the stampede itself):")
    for page in ("/best_sellers", "/new_products", "/execute_search"):
        if page in response_times:
            print(f"   {page:18s} {response_times[page]:8.2f} s")


def main() -> None:
    print("=" * 72)
    print("1. The paper's Table 2, replayed through ReserveController")
    print("=" * 72)
    replay_paper_table2()

    print("=" * 72)
    print("2. A simulated traffic spike")
    print("=" * 72)
    simulate_spike()


if __name__ == "__main__":
    main()
