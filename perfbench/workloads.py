"""The three benchmark workloads: a traffic mix plus a cost model each.

The server configuration is identical for every workload (see
``server.py``); only the page weights and whether the database spends
its charged cost as real sleep (``SleepingCostModel(scale=1.0)``, the
emulated MySQL latency the cost model was calibrated for) change.
README.md records why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet

from repro.tpcw.mix import BROWSING_MIX

#: The four pages that run scans/joins/sorts (or the UPDATE behind a
#: grouped join); every other page is an index probe or no DB work.
SCAN_PAGES: FrozenSet[str] = frozenset({
    "/best_sellers", "/new_products", "/execute_search", "/admin_response",
})

#: The ten index-probe pages, whose WIRT feeds ``quick_wirt_*``.
QUICK_PAGES: FrozenSet[str] = frozenset(BROWSING_MIX) - SCAN_PAGES

#: The TPC-W specification's ordering mix (percent of interactions).
ORDERING_MIX: Dict[str, float] = {
    "/home": 9.12,
    "/new_products": 0.46,
    "/best_sellers": 0.46,
    "/product_detail": 12.35,
    "/search_request": 14.53,
    "/execute_search": 13.08,
    "/shopping_cart": 13.53,
    "/customer_registration": 12.86,
    "/buy_request": 12.73,
    "/buy_confirm": 10.18,
    "/order_inquiry": 0.25,
    "/order_display": 0.22,
    "/admin_request": 0.12,
    "/admin_response": 0.11,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Relative page weights (normalised by the page picker).
    weights: Dict[str, float]
    #: Run the database under ``SleepingCostModel(scale=1.0)``.
    emulated_latency: bool


WORKLOADS: Dict[str, Workload] = {
    "browsing": Workload("browsing", dict(BROWSING_MIX), False),
    "quick": Workload(
        "quick", {p: w for p, w in BROWSING_MIX.items() if p in QUICK_PAGES},
        False,
    ),
    "ordering": Workload("ordering", dict(ORDERING_MIX), True),
}
