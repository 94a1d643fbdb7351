"""The generated scan keeps only the rows that pass WHERE, so even the
heaviest TPC-W statement leaves too little live garbage to reach the
old generations — whose collections traverse the whole population's
index buckets."""

import gc

from repro.db.engine import Database
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

    gc.collect()
    gc.callbacks.append(record)
    try:
        for _ in range(10):
            database.execute(sql, params)
    finally:
        gc.callbacks.remove(record)
    assert started.count(1) == 0 and started.count(2) == 0, started
