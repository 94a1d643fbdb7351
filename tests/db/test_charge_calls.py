"""Per-operator charging: a statement charges each operator's work once,
with its total count, however many rows flow through it."""

import collections

from repro.db.cost import CostModel
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.tpcw.app import TPCWApplication
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.schema import create_schema


class CountingCostModel(CostModel):
    """Counts ``charge`` calls per operation (not the units charged)."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def charge(self, operation, count=1):
        self.calls[operation] += 1
        return super().charge(operation, count)


def best_sellers_statement(database):
    """The best-sellers page's grouped four-way join, as the page
    sends it: (sql, params)."""
    app = TPCWApplication(database)
    sent = []
    with ConnectionPool(database, size=1).lease() as connection:
        original = connection._execute

        def recording(sql, params):
            sent.append((sql, params))
            return original(sql, params)

        connection._execute = recording  # type: ignore[method-assign]
        app.bind_connection(connection)
        try:
            app.best_sellers(subject="ARTS")
        finally:
            app.bind_connection(None)
            connection._execute = original  # type: ignore[method-assign]
    return sent[-1]


def test_best_sellers_charges_once_per_operator():
    cost = CountingCostModel()
    database = Database(cost_model=cost)
    create_schema(database)
    populate(database, PopulationScale.tiny())
    sql, params = best_sellers_statement(database)
    assert "GROUP BY" in sql
    cost.reset()
    cost.calls.clear()

    database.execute(sql, params)

    # One scan of order_line, then three indexed joins (orders, item,
    # author): one probe charge and one fetched-rows charge each.
    assert cost.calls == {
        "statement": 1, "row_scan": 1, "index_probe": 3, "index_row": 3,
        "row_group": 1, "row_sort": 1, "row_emit": 1,
    }
    counts = cost.counts()
    assert counts["index_probe"] == 3 * counts["row_scan"]
    assert counts["row_scan"] > 100  # rows, not calls
