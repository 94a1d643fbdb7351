"""Server runner: one benchmark server in its own process.

Usage (started by ``run.py`` with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/server.py --workload browsing --setups 5 [--trace]

Builds the server ``--setups`` times (populate, app build, start, until
the port listens) and keeps the last one.  It then talks JSON lines:
it prints ``ready`` with the port and, for each set-up, its seconds and
the mean calibration chunk time around it, answers each
``mark <label>`` on stdin with a snapshot taken at that moment, and on
``stop`` stops the server and prints the final report.

Every workload gets the same server: ``PopulationScale.default()``,
compiled templates without fragment cache, the default
``StagedServer`` policy over a 3-connection ``ConnectionPool`` (2
general + 1 lengthy dynamic threads, reserve 1, the paper's 2 s lengthy
cutoff) and PINNED leases.  Only the cost model differs per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from typing import Dict, Optional

from repro.db.cost import CostModel, SleepingCostModel
from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.server.resources import LeaseStrategy
from repro.server.staged import StagedServer
from repro.tpcw.app import TPCWApplication
from repro.tpcw.population import PopulationScale, populate
from repro.tpcw.schema import create_schema

from calibrate import chunk
from tracing import Tracer, install
from workloads import WORKLOADS

POOL_SIZE = 3
#: Calibration chunks timed just before and just after each set-up.
GAUGE_CHUNKS = 20


def gauge() -> float:
    """Mean wall seconds of one calibration chunk on this thread, now."""
    started = time.perf_counter()
    for _ in range(GAUGE_CHUNKS):
        chunk()
    return (time.perf_counter() - started) / GAUGE_CHUNKS


def build(emulated_latency: bool, sleep) -> StagedServer:
    """Populate a database and start the benchmark's server on it."""
    cost = (SleepingCostModel(scale=1.0, sleep=sleep) if emulated_latency
            else CostModel())
    database = Database(cost_model=cost)
    create_schema(database)
    populate(database, PopulationScale.default())
    app = TPCWApplication(database, compiled_templates=True,
                          fragment_cache=False)
    return StagedServer(app, ConnectionPool(database, POOL_SIZE),
                        lease_strategy=LeaseStrategy.PINNED).start()


def snapshot(server: StagedServer) -> Dict:
    """The counters run.py differences between two marks."""
    database = server.connection_pool.database
    return {
        "t": time.perf_counter(),
        "cpu_s": time.process_time(),
        "cost": database.cost_model.counts(),
        "template_misses": server.app.templates.cache_stats()["misses"],
        "gauges": server.stats.connection_gauges(),
    }


def emit(message: Dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome-trace", default="")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer: Optional[Tracer] = None
    sleep = time.sleep
    if args.trace:
        tracer = Tracer()
        install(tracer)
        sleep = tracer.wrap("db.sleep", time.sleep)

    # Each set-up is bracketed by calibration chunks on the same thread,
    # so run.py can scale it by how fast this core ran at that moment.
    setups = []
    server = None
    for _ in range(args.setups):
        if server is not None:
            server.stop()
            server = None
        gc.collect()
        before = gauge()
        started = time.perf_counter()
        server = build(workload.emulated_latency, sleep)
        seconds = time.perf_counter() - started
        setups.append([seconds, (before + gauge()) / 2])
    orders = server.connection_pool.database.table("orders")
    marks = {"ready": snapshot(server)}
    emit({"event": "ready", "port": server.address[1],
          "setups": setups, "orders": len(orders)})

    for line in sys.stdin:
        command = line.split()
        if command[:1] == ["mark"]:
            marks[command[1]] = snapshot(server)
            emit({"event": "marked", "label": command[1]})
        elif command[:1] == ["stop"]:
            break
    marks["stop"] = snapshot(server)
    server.stop()
    report = {
        "event": "report",
        "marks": marks,
        "total_completions": server.stats.total_completions(),
        "orders": len(orders),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "utilization": server.stats.connection_utilization(),
    }
    if tracer is not None:
        report["trace"] = {
            "probe": tracer.summarize(marks["ready"]["t"],
                                      marks["measure"]["t"]),
            "measure": tracer.summarize(marks["measure"]["t"],
                                        marks["stop"]["t"]),
        }
        if args.chrome_trace:
            report["chrome_events"] = tracer.write_chrome_trace(
                args.chrome_trace)
    emit(report)


if __name__ == "__main__":
    main()
