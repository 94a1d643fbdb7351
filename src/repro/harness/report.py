"""Render experiment results in the paper's table/figure layouts.

Figures render as ASCII sparkline-style series summaries (this is a
terminal-first reproduction); the raw series are available from the
:class:`~repro.harness.experiments.ExperimentRunner` for plotting.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.harness.experiments import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    ExperimentRunner,
    Table2Result,
)
from repro.util.timeseries import TimeSeries

_BLOCKS = " ▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float], width: int = 60) -> str:
    if not values:
        return "(no samples)"
    if len(values) > width:
        # Downsample by maximum per bucket (peaks matter for queues).
        bucket = len(values) / width
        values = [
            max(values[int(i * bucket): max(int(i * bucket) + 1,
                                            int((i + 1) * bucket))])
            for i in range(width)
        ]
    top = max(values) or 1.0
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int(v / top * (len(_BLOCKS) - 1)))]
        for v in values
    )


def format_series(series: TimeSeries, label: str, unit: str = "") -> str:
    values = series.values
    if not values:
        return f"{label}: (no samples)"
    return (
        f"{label}\n"
        f"  {_sparkline(values)}\n"
        f"  min {min(values):.0f}{unit}  mean {sum(values)/len(values):.1f}"
        f"{unit}  max {max(values):.0f}{unit}  ({len(values)} samples)"
    )


def format_table2(result: Table2Result) -> str:
    lines = [
        "Table 2: Changes to treserve over an example 10-second period",
        f"{'time':>6s} {'tspare':>8s} {'treserve':>9s} {'delta':>7s}",
    ]
    for second, tspare, treserve, delta in result.rows:
        lines.append(
            f"{second:>5d}s {tspare:>8d} {treserve:>9d} {delta:>+7d}"
        )
    lines.append(
        "matches paper exactly" if result.matches_paper
        else "DOES NOT match the paper's table"
    )
    return "\n".join(lines)


def format_table3(rows: Dict[str, Tuple[float, float]],
                  include_paper: bool = True) -> str:
    header = f"{'web page name':34s} {'unmodified':>11s} {'modified':>10s}"
    if include_paper:
        header += f"   {'paper unmod':>11s} {'paper mod':>10s}"
    lines = [
        "Table 3: TPC-W pages and their average response times (seconds)",
        header,
    ]
    for name in sorted(rows):
        unmodified, modified = rows[name]
        line = f"{name:34s} {unmodified:>11.2f} {modified:>10.2f}"
        if include_paper and name in PAPER_TABLE3:
            paper_unmod, paper_mod = PAPER_TABLE3[name]
            line += f"   {paper_unmod:>11.2f} {paper_mod:>10.2f}"
        lines.append(line)
    return "\n".join(lines)


def format_table4(rows: Dict[str, Tuple[int, int]],
                  gain_percent: Optional[float] = None,
                  include_paper: bool = True) -> str:
    header = f"{'web page name':34s} {'unmodified':>11s} {'modified':>10s}"
    if include_paper:
        header += f"   {'paper unmod':>11s} {'paper mod':>10s}"
    lines = [
        "Table 4: total completed web interactions per page type",
        header,
    ]
    total_unmod = total_mod = 0
    for name in sorted(rows):
        unmodified, modified = rows[name]
        total_unmod += unmodified
        total_mod += modified
        line = f"{name:34s} {unmodified:>11d} {modified:>10d}"
        if include_paper and name in PAPER_TABLE4:
            paper_unmod, paper_mod = PAPER_TABLE4[name]
            line += f"   {paper_unmod:>11d} {paper_mod:>10d}"
        lines.append(line)
    lines.append(f"{'TOTAL':34s} {total_unmod:>11d} {total_mod:>10d}")
    if gain_percent is not None:
        lines.append(
            f"overall throughput gain: {gain_percent:+.1f}% "
            f"(paper: +31.3%)"
        )
    return "\n".join(lines)


def format_figure7(series: TimeSeries) -> str:
    return format_series(
        series,
        "Figure 7: queued dynamic requests, unmodified server",
    )


def format_figure8(general: TimeSeries, lengthy: TimeSeries) -> str:
    return "\n".join([
        format_series(
            general, "Figure 8(a): general-pool queue, modified server"
        ),
        format_series(
            lengthy, "Figure 8(b): lengthy-pool queue, modified server"
        ),
    ])


def format_figure9(unmodified: TimeSeries, modified: TimeSeries) -> str:
    return "\n".join([
        "Figure 9: throughput, all requests (per-minute buckets)",
        format_series(unmodified, "  unmodified", unit="/min"),
        format_series(modified, "  modified", unit="/min"),
    ])


def format_figure10(
    by_class: Dict[str, Tuple[TimeSeries, TimeSeries]]
) -> str:
    captions = {
        "static": "Figure 10(a): static requests",
        "dynamic": "Figure 10(b): all dynamic requests",
        "quick": "Figure 10(c): quick dynamic requests",
        "lengthy": "Figure 10(d): lengthy dynamic requests",
    }
    sections = []
    for request_class, (unmodified, modified) in by_class.items():
        sections.append("\n".join([
            captions.get(request_class, request_class),
            format_series(unmodified, "  unmodified", unit="/min"),
            format_series(modified, "  modified", unit="/min"),
        ]))
    return "\n".join(sections)


def _format_summary_cells(summary: Dict[str, float]) -> str:
    if not summary.get("count"):
        return f"{'-':>8s} {'-':>8s} {'-':>8s} {'-':>8s} {0:>7d}"
    return (
        f"{summary['mean']:>8.4f} {summary['p50']:>8.4f} "
        f"{summary['p95']:>8.4f} {summary['p99']:>8.4f} "
        f"{summary['count']:>7d}"
    )


def format_stage_breakdown(stats) -> str:
    """Per-stage latency breakdown from a live server's ``ServerStats``.

    Two rows per stage — queue wait and service time — each with
    mean/p50/p95/p99 in seconds.  This is where a request's latency
    went (header vs. general vs. render): the paper's Figure 7/8 queue
    story, measured per request by the stage pipeline instead of
    sampled once a second.
    """
    breakdown = stats.stage_timing_summary()
    lines = [
        "Per-stage latency breakdown (seconds)",
        f"{'stage':<18s} {'mean':>8s} {'p50':>8s} {'p95':>8s} "
        f"{'p99':>8s} {'count':>7s}",
    ]
    if not breakdown:
        lines.append("(no stage timings recorded)")
        return "\n".join(lines)
    for stage in sorted(breakdown):
        timings = breakdown[stage]
        lines.append(f"{stage + ' (queued)':<18s} "
                     + _format_summary_cells(timings["queue_wait"]))
        lines.append(f"{stage + ' (service)':<18s} "
                     + _format_summary_cells(timings["service"]))
    return "\n".join(lines)


def format_connection_utilization(stats) -> str:
    """Per-stage connection busy fraction from ``ServerStats``.

    One row per connection-holding stage: lease strategy, lease count,
    held vs. query-busy seconds, the busy fraction (the paper's
    headline resource-efficiency metric — held-but-idle connections are
    the waste the staged design removes), and the p95 acquire wait.
    Pinned leases return at worker shutdown, so render this after
    ``server.stop()`` for complete held-time accounting.
    """
    utilization = stats.connection_utilization()
    lines = [
        "Connection utilization per stage (busy fraction = "
        "query-busy / held)",
        f"{'stage':<12s} {'strategy':<12s} {'leases':>7s} {'held(s)':>9s} "
        f"{'busy(s)':>9s} {'busy%':>7s} {'wait p95':>9s}",
    ]
    if not utilization:
        lines.append("(no connection leases recorded)")
        return "\n".join(lines)
    for stage in sorted(utilization):
        entry = utilization[stage]
        wait = entry["acquire_wait"]
        wait_p95 = f"{wait['p95']:>9.4f}" if wait.get("count") else f"{'-':>9s}"
        lines.append(
            f"{stage:<12s} {entry['strategy']:<12s} {entry['leases']:>7d} "
            f"{entry['held_seconds']:>9.3f} {entry['busy_seconds']:>9.3f} "
            f"{entry['busy_fraction'] * 100:>6.1f}% {wait_p95}"
        )
    return "\n".join(lines)


def format_page_percentiles(stats) -> str:
    """Per-page response-time percentile summary from ``ServerStats``."""
    summaries = stats.response_time_summary()
    lines = [
        "Per-page response-time percentiles (seconds)",
        f"{'page':<34s} {'mean':>8s} {'p50':>8s} {'p95':>8s} "
        f"{'p99':>8s} {'count':>7s}",
    ]
    if not summaries:
        lines.append("(no completions recorded)")
        return "\n".join(lines)
    for page in sorted(summaries):
        lines.append(f"{page:<34s} " + _format_summary_cells(summaries[page]))
    return "\n".join(lines)


def full_report(runner: ExperimentRunner) -> str:
    """The complete §4 reproduction as one text report."""
    from repro.harness.experiments import run_table2

    general, lengthy = runner.figure8()
    fig9_unmod, fig9_mod = runner.figure9()
    sections = [
        format_table2(run_table2()),
        "",
        format_table3(runner.table3()),
        "",
        format_table4(runner.table4(), runner.throughput_gain_percent()),
        "",
        format_figure7(runner.figure7()),
        "",
        format_figure8(general, lengthy),
        "",
        format_figure9(fig9_unmod, fig9_mod),
        "",
        format_figure10(runner.figure10()),
        "",
        f"shape report: {runner.shape_report()}",
    ]
    return "\n".join(sections)
