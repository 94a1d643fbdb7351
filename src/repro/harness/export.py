"""Export experiment results to JSON and gnuplot-style data files.

The paper's figures are line plots; ``export_figures`` writes one
whitespace-separated ``.dat`` file per figure (time in the first
column, one series per remaining column) so any plotting tool can
regenerate them, and ``export_json`` writes the complete result set —
tables, series, shape report — as one JSON document for downstream
analysis.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.harness.experiments import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    ExperimentRunner,
    run_table2,
)
from repro.util.timeseries import TimeSeries


def results_document(runner: ExperimentRunner) -> Dict:
    """The full reproduction as one JSON-serialisable document."""
    table2 = run_table2()
    general, lengthy = runner.figure8()
    fig9_unmod, fig9_mod = runner.figure9()
    fig10 = runner.figure10()
    return {
        "config": {
            "clients": runner.config.clients,
            "measure_seconds": runner.config.measure,
            "seed": runner.config.seed,
            "baseline_workers": runner.config.baseline_workers,
            "general_pool": runner.config.general_pool,
            "lengthy_pool": runner.config.lengthy_pool,
        },
        "table2": {
            "rows": table2.rows,
            "matches_paper": table2.matches_paper,
        },
        "table3": {
            name: {
                "unmodified": unmodified,
                "modified": modified,
                "paper": PAPER_TABLE3.get(name),
            }
            for name, (unmodified, modified) in runner.table3().items()
        },
        "table4": {
            name: {
                "unmodified": unmodified,
                "modified": modified,
                "paper": PAPER_TABLE4.get(name),
            }
            for name, (unmodified, modified) in runner.table4().items()
        },
        "throughput_gain_percent": runner.throughput_gain_percent(),
        "figure7": _series_samples(runner.figure7()),
        "figure8": {
            "general": _series_samples(general),
            "lengthy": _series_samples(lengthy),
        },
        "figure9": {
            "unmodified": _series_samples(fig9_unmod),
            "modified": _series_samples(fig9_mod),
        },
        "figure10": {
            request_class: {
                "unmodified": _series_samples(unmodified),
                "modified": _series_samples(modified),
            }
            for request_class, (unmodified, modified) in fig10.items()
        },
        "shape_report": runner.shape_report(),
    }


def export_json(runner: ExperimentRunner, path: str) -> str:
    """Write the full document to ``path``; returns the path."""
    document = results_document(runner)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
    return path


def export_bench_json(document: Dict, path: str) -> str:
    """Write a micro-benchmark baseline document (e.g.
    ``BENCH_render.json``) as stable, diff-friendly JSON; returns the
    path.  The document is whatever the benchmark measured — timings,
    speedups, cache hit rates — plus enough configuration to rerun it."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def server_stats_document(stats) -> Dict:
    """A live server's ``ServerStats`` as one JSON-serialisable document.

    Includes the per-stage queue-wait/service-time breakdown (with
    p50/p95/p99) the stage pipeline records on every hop, per-page
    response-time percentile summaries, and the per-stage connection
    busy fraction (held vs. query-busy seconds per lease strategy, the
    paper's headline resource-efficiency metric) — the labels are the
    same ones the simulator exports (``static``/``dynamic``/``quick``/
    ``lengthy`` for classes, stage names for pools), so downstream
    tooling can compare live runs against simulated ones.
    """
    return {
        "completions": stats.completions(),
        "total_completions": stats.total_completions(),
        "errors": stats.errors(),
        "response_times": stats.response_time_summary(),
        "generation_times": stats.mean_generation_times(),
        "stage_timings": stats.stage_timing_summary(),
        "queue_series": {
            name: _series_samples(series)
            for name, series in stats.queue_series().items()
        },
        "connection_gauges": stats.connection_gauges(),
        "connection_utilization": stats.connection_utilization(),
        "resilience": stats.resilience_report(),
    }


def export_server_stats_json(stats, path: str) -> str:
    """Write a server's stats document to ``path``; returns the path."""
    document = server_stats_document(stats)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def export_figures(runner: ExperimentRunner, directory: str) -> List[str]:
    """Write one ``.dat`` file per figure into ``directory``.

    Each file has a ``#``-comment header naming its columns; rows are
    whitespace-separated, one sample per line — directly plottable
    with gnuplot (``plot 'fig9.dat' using 1:2 with lines``).
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    general, lengthy = runner.figure8()
    fig9_unmod, fig9_mod = runner.figure9()
    written.append(_write_dat(
        os.path.join(directory, "fig7_queue_unmodified.dat"),
        ["time_s", "queued_dynamic"],
        [runner.figure7()],
    ))
    written.append(_write_dat(
        os.path.join(directory, "fig8_queues_modified.dat"),
        ["time_s", "general_queue", "lengthy_queue"],
        [general, lengthy],
    ))
    written.append(_write_dat(
        os.path.join(directory, "fig9_throughput.dat"),
        ["time_s", "unmodified_per_bucket", "modified_per_bucket"],
        [fig9_unmod, fig9_mod],
    ))
    for request_class, (unmodified, modified) in runner.figure10().items():
        written.append(_write_dat(
            os.path.join(directory, f"fig10_{request_class}.dat"),
            ["time_s", "unmodified_per_bucket", "modified_per_bucket"],
            [unmodified, modified],
        ))
    return written


def _series_samples(series: TimeSeries) -> List[List[float]]:
    return [[t, v] for t, v in series.samples()]


def _write_dat(path: str, columns: List[str],
               series_list: List[TimeSeries]) -> str:
    """Align series on the first one's timestamps and write columns."""
    primary = series_list[0].samples()
    others = [dict(series.samples()) for series in series_list[1:]]
    with open(path, "w", encoding="utf-8") as f:
        f.write("# " + " ".join(columns) + "\n")
        for t, value in primary:
            row = [f"{t:.3f}", f"{value:g}"]
            for other in others:
                row.append(f"{other.get(t, 0.0):g}")
            f.write(" ".join(row) + "\n")
    return path
