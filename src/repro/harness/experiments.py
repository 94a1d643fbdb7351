"""One entry point per paper table/figure."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.reserve import ReserveController
from repro.server.stats import ServerStats
from repro.sim.workload import (
    DEFAULT_PROFILES,
    LENGTHY_REPORT_PAGES,
    PageProfile,
    WorkloadConfig,
    run_tpcw_simulation,
)
from repro.tpcw.mix import PAPER_PAGE_NAMES
from repro.util.timeseries import TimeSeries

#: The paper's Table 3 values (seconds), for side-by-side comparison.
PAPER_TABLE3: Dict[str, Tuple[float, float]] = {
    "TPC-W admin request": (4.89, 0.62),
    "TPC-W admin response": (12.35, 18.85),
    "TPC-W best sellers": (18.49, 12.88),
    "TPC-W buy confirm": (3.86, 0.18),
    "TPC-W buy request": (3.74, 0.07),
    "TPC-W customer registration": (4.46, 0.01),
    "TPC-W execute search": (11.05, 13.21),
    "TPC-W home interaction": (2.54, 0.03),
    "TPC-W new products": (20.30, 21.39),
    "TPC-W order display": (2.78, 0.54),
    "TPC-W order inquiry": (4.84, 0.04),
    "TPC-W product detail": (1.10, 0.01),
    "TPC-W search request": (5.44, 0.01),
    "TPC-W shopping cart interaction": (6.82, 0.27),
}

#: The paper's Table 4 completion counts.
PAPER_TABLE4: Dict[str, Tuple[int, int]] = {
    "TPC-W admin request": (74, 81),
    "TPC-W admin response": (71, 72),
    "TPC-W best sellers": (7602, 9646),
    "TPC-W buy confirm": (395, 547),
    "TPC-W buy request": (429, 596),
    "TPC-W customer registration": (469, 642),
    "TPC-W execute search": (7307, 9723),
    "TPC-W home interaction": (19586, 25608),
    "TPC-W new products": (7406, 9758),
    "TPC-W order display": (184, 206),
    "TPC-W order inquiry": (219, 255),
    "TPC-W product detail": (14002, 18608),
    "TPC-W search request": (7994, 10543),
    "TPC-W shopping cart interaction": (1173, 1536),
}

#: Paper Table 2: the worked treserve example (min treserve = 20).
PAPER_TABLE2_TSPARE = [35, 24, 17, 21, 30, 36, 38, 37, 35, 39]
PAPER_TABLE2_ROWS = [
    (1, 35, 20, 0), (2, 24, 20, 0), (3, 17, 20, 6), (4, 21, 26, 5),
    (5, 30, 31, 1), (6, 36, 32, -2), (7, 38, 30, -4), (8, 37, 26, -5),
    (9, 35, 21, -1), (10, 39, 20, 0),
]

PAPER_THROUGHPUT_GAIN = 31.3  # percent


@dataclasses.dataclass
class Table2Result:
    """The replayed Table 2 trace: (second, tspare, treserve, delta)."""

    rows: List[Tuple[int, int, int, int]]

    @property
    def matches_paper(self) -> bool:
        return self.rows == PAPER_TABLE2_ROWS


def run_table2(minimum: int = 20,
               tspare_trace: Optional[List[int]] = None) -> Table2Result:
    """Replay the paper's Table 2 through the real ReserveController."""
    trace = tspare_trace if tspare_trace is not None else PAPER_TABLE2_TSPARE
    controller = ReserveController(minimum=minimum)
    rows = [
        (second, tspare, before, delta)
        for second, (tspare, before, delta) in enumerate(
            controller.run_trace(trace), start=1
        )
    ]
    return Table2Result(rows)


class ExperimentRunner:
    """Runs (and memoizes) the baseline/staged pair behind §4.

    All of Table 3, Table 4, and Figures 7–10 come from the same two
    simulated one-hour runs, exactly as in the paper.
    """

    def __init__(self, config: Optional[WorkloadConfig] = None,
                 profiles: Optional[Dict[str, PageProfile]] = None):
        self.config = config if config is not None else WorkloadConfig()
        self.profiles = profiles if profiles is not None else DEFAULT_PROFILES
        self._results: Dict[str, ServerStats] = {}

    def results(self, kind: str) -> ServerStats:
        """The finished run's stats, on simulated time."""
        if kind not in ("baseline", "staged"):
            raise ValueError(f"unknown server kind {kind!r}")
        if kind not in self._results:
            self._results[kind] = run_tpcw_simulation(
                kind, self.config, profiles=self.profiles
            ).stats
        return self._results[kind]

    @property
    def baseline(self) -> ServerStats:
        return self.results("baseline")

    @property
    def staged(self) -> ServerStats:
        return self.results("staged")

    def _throughput(self, stats: ServerStats, bucket_seconds: float,
                    request_class: Optional[str] = None) -> TimeSeries:
        """Completions per bucket over the measurement window."""
        start = self.config.ramp_up
        return stats.throughput_series(bucket_seconds, request_class,
                                       start, start + self.config.measure)

    # ------------------------------------------------------------------
    # Table 3: per-page mean response times
    # ------------------------------------------------------------------
    def table3(self) -> Dict[str, Tuple[float, float]]:
        """Page name -> (unmodified, modified) mean response seconds."""
        base = self.baseline.mean_response_times()
        staged = self.staged.mean_response_times()
        rows = {}
        for path, name in PAPER_PAGE_NAMES.items():
            if path in base or path in staged:
                rows[name] = (base.get(path, 0.0), staged.get(path, 0.0))
        return rows

    # ------------------------------------------------------------------
    # Table 4: per-page completed interactions + overall gain
    # ------------------------------------------------------------------
    def table4(self) -> Dict[str, Tuple[int, int]]:
        base = self.baseline.completions()
        staged = self.staged.completions()
        rows = {}
        for path, name in PAPER_PAGE_NAMES.items():
            if path in base or path in staged:
                rows[name] = (base.get(path, 0), staged.get(path, 0))
        return rows

    def throughput_gain_percent(self) -> float:
        base = self.baseline.total_completions()
        staged = self.staged.total_completions()
        if base == 0:
            raise ValueError("baseline run completed no interactions")
        return 100.0 * (staged / base - 1.0)

    # ------------------------------------------------------------------
    # Figure 7: dynamic-request queue length, unmodified server
    # ------------------------------------------------------------------
    def figure7(self) -> TimeSeries:
        return self.baseline.series("queue/dynamic")

    # ------------------------------------------------------------------
    # Figure 8: general / lengthy queue lengths, modified server
    # ------------------------------------------------------------------
    def figure8(self) -> Tuple[TimeSeries, TimeSeries]:
        staged = self.staged
        return staged.series("queue/general"), staged.series("queue/lengthy")

    # ------------------------------------------------------------------
    # Figure 9: overall throughput (requests/min) over the run
    # ------------------------------------------------------------------
    def figure9(self, bucket_seconds: float = 60.0
                ) -> Tuple[TimeSeries, TimeSeries]:
        return (
            self._throughput(self.baseline, bucket_seconds),
            self._throughput(self.staged, bucket_seconds),
        )

    # ------------------------------------------------------------------
    # Figure 10: throughput by request class
    # ------------------------------------------------------------------
    FIGURE10_CLASSES = ("static", "dynamic", "quick", "lengthy")

    def figure10(self, bucket_seconds: float = 60.0
                 ) -> Dict[str, Tuple[TimeSeries, TimeSeries]]:
        out = {}
        for request_class in self.FIGURE10_CLASSES:
            out[request_class] = (
                self._throughput(self.baseline, bucket_seconds,
                                 request_class),
                self._throughput(self.staged, bucket_seconds, request_class),
            )
        return out

    # ------------------------------------------------------------------
    # Shape checks (the acceptance criteria from DESIGN.md §4)
    # ------------------------------------------------------------------
    def shape_report(self) -> Dict[str, object]:
        """Quantified comparison against the paper's qualitative claims."""
        table3 = self.table3()
        lengthy_names = {PAPER_PAGE_NAMES[p] for p in LENGTHY_REPORT_PAGES}
        quick_rows = {
            name: row for name, row in table3.items()
            if name not in lengthy_names
        }
        improved = {
            name: row[0] / max(row[1], 1e-9) for name, row in table3.items()
            if row[0] > row[1]
        }
        quick_speedups = [
            row[0] / max(row[1], 1e-9) for row in quick_rows.values()
        ]
        admin = table3.get("TPC-W admin response", (0.0, 0.0))
        return {
            "pages_improved": len(improved),
            "pages_total": len(table3),
            "min_quick_speedup": min(quick_speedups) if quick_speedups else 0.0,
            "max_quick_speedup": max(quick_speedups) if quick_speedups else 0.0,
            "admin_response_slower": admin[1] > admin[0],
            "throughput_gain_percent": self.throughput_gain_percent(),
            "baseline_queue_peak": self.figure7().max(),
            "staged_general_queue_peak": self.figure8()[0].max(),
            "staged_lengthy_queue_peak": self.figure8()[1].max(),
        }
