"""Every TPC-W page's cost charges and returned data, pinned.

Each page handler runs with fixed parameters, in a fixed order, on a
fresh ``PopulationScale.default()`` database.  For every call the test
compares the ``CostModel.counts()`` delta and the handler's returned
data with ``page_pins.json``.  The cost charges are what the simulator's
``DEFAULT_PROFILES`` were calibrated from, so any executor change that
moves them (or the rows, or their order) fails here.  A page that wrote
nothing runs a second time at once, so its SELECTs reuse their cached
results; that repeat must match the same pin.

Regenerate the file only for an intended change of plan or data::

    PYTHONPATH=src python tests/db/test_page_pins.py --regenerate
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Tuple

import pytest

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.tpcw.app import TPCWApplication
from repro.tpcw.names import user_name
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.schema import create_schema

PINS = pathlib.Path(__file__).with_name("page_pins.json")

#: (path, params) in call order; writes come between reads so later
#: pages see the rows earlier ones added.
CALLS: List[Tuple[str, Dict[str, str]]] = [
    ("/home", {"c_id": "17", "i_id": "5"}),
    ("/home", {"c_id": "", "i_id": "999"}),
    ("/product_detail", {"i_id": "1"}),
    ("/product_detail", {"i_id": "640"}),
    ("/search_request", {}),
    ("/execute_search", {"search_type": "title", "search_string": "the"}),
    ("/execute_search", {"search_type": "author", "search_string": "an"}),
    ("/execute_search", {"search_type": "subject",
                         "search_string": "HISTORY"}),
    ("/execute_search", {"search_type": "title", "search_string": "zzzz"}),
    ("/new_products", {"subject": "ARTS"}),
    ("/new_products", {"subject": "COOKING"}),
    ("/best_sellers", {"subject": "ARTS"}),
    ("/best_sellers", {"subject": "SCIENCE-FICTION"}),
    ("/shopping_cart", {"sc_id": "0", "i_id": "12", "qty": "2"}),
    ("/shopping_cart", {"sc_id": "1", "i_id": "12", "qty": "1"}),
    ("/shopping_cart", {"sc_id": "1", "i_id": "300", "qty": "3"}),
    ("/customer_registration", {"sc_id": "1", "uname": user_name(42)}),
    ("/customer_registration", {"sc_id": "1", "uname": "nobody"}),
    ("/buy_request", {"sc_id": "1", "uname": user_name(42)}),
    ("/buy_request", {"sc_id": "1", "uname": ""}),
    ("/buy_confirm", {"sc_id": "1", "c_id": "42"}),
    ("/order_inquiry", {}),
    ("/order_display", {"uname": user_name(42)}),
    ("/order_display", {"uname": user_name(7)}),
    ("/admin_request", {"i_id": "12"}),
    ("/admin_response", {"i_id": "12", "cost": "19.5"}),
    ("/admin_response", {"i_id": "300"}),
    ("/home", {"c_id": "42", "i_id": "12"}),
    ("/best_sellers", {"subject": "ARTS"}),
    ("/new_products", {"subject": "ARTS"}),
]


def run_calls(repeat_reads: bool = False) -> List[Dict[str, Any]]:
    """Run ``CALLS`` on a fresh default-scale database.  With
    ``repeat_reads``, each call that changed no table runs again at
    once, and its record gains that repeat's record and how many
    result-cache hits it made."""
    database = Database()
    create_schema(database)
    populate(database, PopulationScale.default())
    app = TPCWApplication(database)
    pool = ConnectionPool(database, size=1)
    cost = database.cost_model

    def call(path, params):
        before = cost.counts()
        template, data = app.handler_for(path)(**params)
        after = cost.counts()
        return {
            "path": path,
            "params": params,
            "template": template,
            "counts": {op: after[op] - before[op] for op in after
                       if after[op] != before[op]},
            # A JSON round trip turns tuples into lists, exactly as the
            # committed file stores them.
            "data": json.loads(json.dumps(data)),
        }

    def versions():
        return {name: table.version for name, table in database.tables.items()}

    records = []
    with pool.lease() as connection:
        app.bind_connection(connection)
        try:
            for path, params in CALLS:
                written = versions()
                record = call(path, params)
                if repeat_reads and versions() == written:
                    hits = database.result_cache_stats()["hits"]
                    record["repeat"] = call(path, params)
                    record["repeat_hits"] = (
                        database.result_cache_stats()["hits"] - hits)
                records.append(record)
        finally:
            app.bind_connection(None)
    return records


@pytest.fixture(scope="module")
def records():
    return run_calls(repeat_reads=True)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_same_calls_as_the_pinned_file(records, pinned):
    assert [(r["path"], r["params"]) for r in records] == [
        (p["path"], p["params"]) for p in pinned
    ]


@pytest.mark.parametrize("position", range(len(CALLS)))
def test_page_charges_and_data_match(records, pinned, position):
    record, expected = records[position], pinned[position]
    assert record["counts"] == expected["counts"], record["path"]
    assert record["template"] == expected["template"]
    assert record["data"] == expected["data"], record["path"]
    if "repeat" in record:
        repeat = record["repeat"]
        # Every statement of the repeat is a reused SELECT.
        assert record["repeat_hits"] == expected["counts"].get("statement", 0)
        assert repeat["counts"] == expected["counts"], record["path"]
        assert repeat["template"] == expected["template"]
        assert repeat["data"] == expected["data"], record["path"]


def test_read_only_pages_repeat(records):
    """Every page but the writing ones is repeated from the cache."""
    assert {r["path"] for r in records if "repeat" not in r} == {
        "/shopping_cart", "/buy_request", "/buy_confirm", "/admin_response"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    PINS.write_text(json.dumps(run_calls(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
