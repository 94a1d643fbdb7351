"""Measure per-page service demands from the real implementation.

The discrete-event simulator needs each page's database demand, render
demand, and lock footprint.  Rather than inventing them, this module
executes every TPC-W handler against the real in-process database and
reports:

- the *deterministic* cost-model charge of its queries (seconds of
  simulated database work, independent of host speed);
- the rendered output size and a render-demand estimate;
- which tables its statements read and write (from the SQL ASTs).

``build_profiles`` converts a measured profile into the simulator's
:class:`~repro.sim.workload.PageProfile` objects, scaling demands so a
chosen page hits a target (e.g. best-sellers at the paper's measured
magnitude) — this is how the shipped ``DEFAULT_PROFILES`` were
calibrated, and the function lets users re-derive them for any
population scale.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.engine import Database
from repro.db.pool import ConnectionPool
from repro.db.sql.ast import Delete, Insert, Select, Update
from repro.sim.workload import PageProfile
from repro.tpcw.app import PAGES, TPCWApplication
from repro.tpcw.mix import BrowsingMix
from repro.util.rng import RandomStream

#: Render-demand model: per-byte cost of 2009-era Python template
#: rendering plus fixed overhead.  ~25 KB/ms matched Django-on-2009
#: hardware anecdotes; only relative page-to-page weights matter.
RENDER_SECONDS_PER_BYTE = 4e-6
RENDER_FIXED_SECONDS = 0.002


@dataclasses.dataclass
class PageMeasurement:
    """One page's measured footprint."""

    path: str
    db_seconds: float          # deterministic cost-model charge
    statements: int
    output_bytes: int
    tables_read: Tuple[str, ...]
    tables_written: Tuple[str, ...]

    @property
    def render_seconds(self) -> float:
        return RENDER_FIXED_SECONDS + self.output_bytes * RENDER_SECONDS_PER_BYTE


class _StatementRecorder:
    """Wraps a Database to record which tables each page touches, and
    every statement with its parameters (``log``)."""

    def __init__(self, database: Database):
        self.database = database
        self.reads: set = set()
        self.writes: set = set()
        self.statements = 0
        self.log: List[Tuple[str, Tuple]] = []

    def start_page(self) -> None:
        self.reads = set()
        self.writes = set()
        self.statements = 0

    def observe(self, sql: str, params: Sequence = ()) -> None:
        self.statements += 1
        self.log.append((sql, tuple(params)))
        statement = self.database.prepare(sql)
        if isinstance(statement, Select):
            if statement.table is not None:
                self.reads.add(statement.table)
            for join in statement.joins:
                self.reads.add(join.table)
        elif isinstance(statement, (Insert, Update, Delete)):
            self.writes.add(statement.table)


def measure_pages(app: TPCWApplication, seed: int = 7,
                  repetitions: int = 3) -> Dict[str, PageMeasurement]:
    """Run every page ``repetitions`` times; average the footprints.

    The application's database must already be populated.  Uses a
    session-consistent :class:`BrowsingMix` for realistic parameters.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    database = app.database
    pool = ConnectionPool(database, size=1)
    recorder = _StatementRecorder(database)

    items = len(database.table("item"))
    customers = len(database.table("customer"))
    mix = BrowsingMix(RandomStream(seed, "profile"), customers=customers,
                      items=items)
    results: Dict[str, PageMeasurement] = {}
    # Scoped checkout (the lint forbids raw acquire/release pairs);
    # interpose on the connection's execute path to observe statements.
    with pool.lease() as connection:
        original_execute = connection._execute

        def recording_execute(sql, params):
            recorder.observe(sql, params)
            return original_execute(sql, params)

        connection._execute = recording_execute  # type: ignore[method-assign]
        app.bind_connection(connection)
        try:
            for path in PAGES:
                handler = app.handler_for(path)
                total_db = 0.0
                total_bytes = 0
                total_statements = 0
                reads: set = set()
                writes: set = set()
                for _ in range(repetitions):
                    params = mix.params_for(path)
                    recorder.start_page()
                    before = database.cost_model.total_seconds
                    result = handler(**params)
                    total_db += database.cost_model.total_seconds - before
                    template_name, data = result
                    html = app.templates.render(template_name, data)
                    total_bytes += len(html.encode("utf-8"))
                    total_statements += recorder.statements
                    reads |= recorder.reads
                    writes |= recorder.writes
                    if path == "/shopping_cart":
                        mix.note_cart(data["sc_id"])
                results[path] = PageMeasurement(
                    path=path,
                    db_seconds=total_db / repetitions,
                    statements=total_statements // repetitions,
                    output_bytes=total_bytes // repetitions,
                    tables_read=tuple(sorted(reads - writes)),
                    tables_written=tuple(sorted(writes)),
                )
        finally:
            app.bind_connection(None)
            connection._execute = original_execute  # type: ignore[method-assign]
    return results


def build_profiles(measurements: Dict[str, PageMeasurement],
                   anchor_page: str = "/best_sellers",
                   anchor_db_seconds: float = 11.0,
                   images: Optional[Dict[str, int]] = None,
                   write_demand: float = 0.02) -> Dict[str, PageProfile]:
    """Convert measurements into simulator profiles.

    Database demands are scaled so ``anchor_page`` costs
    ``anchor_db_seconds`` — anchoring the laptop-scale population to
    the paper's 1M-book magnitudes while preserving every relative
    ratio the real query plans produce.
    """
    if anchor_page not in measurements:
        raise ValueError(f"anchor page {anchor_page!r} was not measured")
    anchor = measurements[anchor_page].db_seconds
    if anchor <= 0:
        raise ValueError(f"anchor page {anchor_page!r} has zero DB cost")
    scale = anchor_db_seconds / anchor
    image_counts = images or {}
    profiles: Dict[str, PageProfile] = {}
    for path, m in measurements.items():
        write_table = m.tables_written[0] if m.tables_written else None
        profiles[path] = PageProfile(
            path=path,
            db_demand=m.db_seconds * scale,
            render_demand=m.render_seconds,
            read_tables=m.tables_read,
            write_table=write_table,
            write_demand=write_demand if write_table else 0.0,
            images=image_counts.get(path, 1),
        )
    return profiles


def format_measurements(measurements: Dict[str, PageMeasurement]) -> str:
    """A human-readable profile table."""
    lines: List[str] = [
        f"{'page':25s} {'db (ms)':>9s} {'stmts':>6s} {'bytes':>8s} "
        f"{'render (ms)':>12s}  tables"
    ]
    for path in sorted(measurements):
        m = measurements[path]
        tables = ",".join(m.tables_read)
        if m.tables_written:
            tables += " w:" + ",".join(m.tables_written)
        lines.append(
            f"{path:25s} {m.db_seconds*1000:9.2f} {m.statements:6d} "
            f"{m.output_bytes:8d} {m.render_seconds*1000:12.2f}  {tables}"
        )
    return "\n".join(lines)
