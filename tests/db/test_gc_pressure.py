"""The generated scan builds no intermediate row lists, and keeps its
join product once per table version in tuples the collector untracks,
so even the heaviest TPC-W statement leaves too little live garbage to
reach the old generations — whose collections traverse the whole
population's index buckets."""

import gc

from repro.db.engine import Database
from repro.tpcw.names import SUBJECTS
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.schema import create_schema

from tests.db.test_charge_calls import best_sellers_statement


def test_best_sellers_triggers_no_old_generation_collection():
    database = Database()
    create_schema(database)
    populate(database, PopulationScale.default())
    sql, params = best_sellers_statement(database)
    assert "GROUP BY" in sql
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    insert = ("INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, ol_discount,"
              " ol_comments) VALUES (%s, %s, %s, %s, %s)")
    before = database.result_cache_stats()
    gc.collect()
    gc.callbacks.append(record)
    try:
        # A subject each, so every statement misses the result cache; an
        # order line before every second one, as buy_confirm adds them,
        # so the window rebuilds the join product (dropping the previous
        # one) five times and filters a kept one five times.
        for i, subject in enumerate(SUBJECTS[:10]):
            if i % 2 == 0:
                database.execute(insert, (1, 1, 1, 0.0, ""))
            database.execute(sql, (params[0], subject))
    finally:
        gc.callbacks.remove(record)
    after = database.result_cache_stats()
    assert started.count(1) == 0 and started.count(2) == 0, started
    assert after["product_misses"] - before["product_misses"] == 5
    assert after["product_hits"] - before["product_hits"] == 5
