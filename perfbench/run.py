"""Live TPC-W benchmark of the staged server over loopback.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload browsing --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced then traced, and prints the per-layer metrics
(``--chrome-trace FILE`` also writes the traced run's spans as Chrome
trace-event JSON).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it repeat each metric with its sample count.  See README.md.

Each run starts ``server.py`` as a separate process and drives it from
this process with two emulated browsers in a closed loop (think time 0),
one on the main thread and one on a second thread, each on one
keep-alive socket.  The run has three phases:

1. set-up, timed inside the server process (``setup_s``);
2. a probe, which also warms every cache: 40 interactions per EB,
   issued strictly in turn from the main thread, so the database
   evolves identically for a given seed and the probe's work counts
   repeat exactly (``probe.*``);
3. ``--seconds`` of concurrent measurement.

Beside the server runs ``calibrate.py``, which times a fixed chunk of
Python work every 50 ms.  The end-to-end times are scaled to the
reference host speed that chunk defines, so that the shared host's
swings in speed do not read as changes in the server.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Emulated browsers: one per core of the two-core reference machine.
EBS = 2
#: Probe interactions per EB (phase 2).
PROBE_PER_EB = 40
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Seconds the calibration chunk (``calibrate.py``) takes at reference
#: host speed.  That is about its median on the 2-core reference
#: machine, in wall and in CPU time, spaced out (the calibrator) or
#: back to back (around each set-up).
REFERENCE_CHUNK_S = 1.0e-3
#: Seconds to wait for any one message from the server process.
SERVER_TIMEOUT = 60.0

STAGES = ("header", "static", "general", "lengthy", "render")
COST_COUNTS = {
    "db.rows_scanned_per_wi": "row_scan",
    "db.index_probes_per_wi": "index_probe",
    "db.rows_sorted_per_wi": "row_sort",
    "db.rows_grouped_per_wi": "row_group",
    "db.join_probes_per_wi": "join_probe",
    "db.rows_written_per_wi": "row_write",
}


class ServerProcess:
    """``server.py`` in a child process, spoken to in JSON lines."""

    def __init__(self, workload: str, setups: int, trace: bool,
                 chrome_trace: str = ""):
        command = [sys.executable, str(HERE / "server.py"),
                   "--workload", workload, "--setups", str(setups)]
        if trace:
            command.append("--trace")
        if chrome_trace:
            command += ["--chrome-trace", chrome_trace]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH", "")] if p])
        # A fixed string-hash seed keeps dict and set layouts
        # identical from run to run.
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(command, cwd=str(ROOT), env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)
        self._buffer = b""

    def receive(self, event: str) -> Dict:
        deadline = time.monotonic() + SERVER_TIMEOUT
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"server sent no {event!r} in time")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise RuntimeError(f"server exited before {event!r}")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"expected {event!r}, got {message!r}")
        return message

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode("ascii") + b"\n")
        self.proc.stdin.flush()

    def mark(self, label: str) -> None:
        self.send(f"mark {label}")
        self.receive("marked")

    def close(self) -> None:
        """EOF on stdin stops the server; kill it if it hangs."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def stop_calibrator(calibrator: subprocess.Popen) -> List[List[float]]:
    """EOF stops the calibrator; returns its samples."""
    try:
        out, _ = calibrator.communicate(timeout=SERVER_TIMEOUT)
    except subprocess.TimeoutExpired:
        calibrator.kill()
        calibrator.communicate()
        return []
    return json.loads(out) if out.strip() else []


def host_speed(samples: List[List[float]], start: float, end: float,
               clock: int) -> float:
    """How fast the host ran between ``start`` and ``end``: the
    calibration chunk's reference time over its mean time then, on
    ``clock`` 1 (wall) or 2 (CPU)."""
    chunks = [sample[clock] for sample in samples if start <= sample[0] < end]
    return REFERENCE_CHUNK_S / statistics.fmean(chunks) if chunks else 1.0


def run_concurrently(browsers, seconds: float) -> List:
    """Every EB in a closed loop until the deadline; returns the
    interactions in start order."""
    deadline = time.perf_counter() + seconds
    results = [[] for _ in browsers]
    helpers = [threading.Thread(target=browser.run_until,
                                args=(deadline, out), daemon=True)
               for browser, out in zip(browsers[1:], results[1:])]
    for helper in helpers:
        helper.start()
    browsers[0].run_until(deadline, results[0])
    for helper in helpers:
        helper.join()
    return sorted((i for out in results for i in out),
                  key=lambda interaction: interaction.started)


def run_phase(workload, seed: int, seconds: float, trace: bool,
              setups: int, chrome_trace: str = "") -> Dict:
    """Set up a server, probe, measure; returns raw results."""
    from repro.db.engine import Database
    from repro.tpcw.app import TPCWApplication
    from repro.tpcw.population import PopulationScale

    from loadgen import EmulatedBrowser

    app = TPCWApplication(Database())
    scale = PopulationScale.default()
    calibrator = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    server = None
    browsers = []
    try:
        server = ServerProcess(workload.name, setups, trace, chrome_trace)
        ready = server.receive("ready")
        browsers = [EmulatedBrowser(i, seed, workload.weights,
                                    scale.customers, scale.items,
                                    "127.0.0.1", ready["port"], app)
                    for i in range(EBS)]
        probe = []
        for _ in range(PROBE_PER_EB):
            for browser in browsers:
                probe.append(browser.interact())
        server.mark("measure")
        cpu0, t0 = time.process_time(), time.perf_counter()
        measured = run_concurrently(browsers, seconds)
        client_cpu = time.process_time() - cpu0
        server.send("stop")
        report = server.receive("report")
    finally:
        for browser in browsers:
            browser.close()
        if server is not None:
            server.close()
        samples = stop_calibrator(calibrator)

    everything = probe + measured
    # Interactions still running at the deadline count in every metric
    # but throughput: an EB that starts a 4 s page just before the
    # deadline must not stretch the window while the other EB idles.
    done = [i for i in measured if i.ok and i.started + i.wirt - t0 <= seconds]
    checks = {
        "server completions equal client OK requests":
            report["total_completions"] == sum(i.ok_requests for i in everything),
        "orders growth equals successful buy_confirm":
            report["orders"] - ready["orders"] == sum(
                1 for i in everything if i.ok and i.path == "/buy_confirm"),
        "every interaction passed its checks": all(i.ok for i in everything),
    }
    return {"ready": ready, "report": report, "probe": probe,
            "measured": measured, "completed_in_window": len(done),
            "wips": len(done) / seconds,
            "wall": max(i.started + i.wirt for i in measured) - t0,
            "client_cpu": client_cpu,
            "speed": host_speed(samples, t0, t0 + seconds, 1),
            "cpu_speed": host_speed(samples, t0, t0 + seconds, 2),
            "setup_s": [took * REFERENCE_CHUNK_S / chunk
                        for took, chunk in ready["setups"]],
            "checks": checks, "errors": [i.error for i in everything if i.error]}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class Metrics:
    """Named metrics in output order, with the sample count of each
    percentile for the report lines."""

    def __init__(self):
        self.values: Dict[str, Dict] = {}
        self.samples: Dict[str, int] = {}

    def add(self, name: str, value: float, unit: str,
            samples: Optional[int] = None) -> None:
        self.values[name] = {"value": value, "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def lines(self) -> List[str]:
        out = []
        for name, entry in self.values.items():
            count = self.samples.get(name)
            suffix = f"  (n={count})" if count is not None else ""
            out.append(f"{name:40s} {entry['value']:14.6g} {entry['unit']}{suffix}")
        return out


def _ok(interactions) -> List:
    return [i for i in interactions if i.ok]


def _delta(report: Dict, key: str, start: str, end: str) -> Dict[str, float]:
    first, last = report["marks"][start][key], report["marks"][end][key]
    return {name: last[name] - first[name] for name in last}


def end_to_end(phase: Dict, workload) -> Metrics:
    """The user-visible metrics, with times at reference host speed.

    CPU times always scale with the calibration chunk's CPU time.
    Wall-clock times scale with its wall time, except under emulated
    latency, where sleeps set them.
    """
    from tracing import percentile
    from workloads import QUICK_PAGES

    metrics = Metrics()
    wall = 1.0 if workload.emulated_latency else phase["speed"]
    ok = _ok(phase["measured"])
    wi = len(ok)
    wirt = [i.wirt * 1000 * wall for i in ok]
    quick = [i.wirt * 1000 * wall for i in ok if i.path in QUICK_PAGES]
    report = phase["report"]
    cpu = report["marks"]["stop"]["cpu_s"] - report["marks"]["measure"]["cpu_s"]
    metrics.add("wips", phase["wips"] / wall, "1/s", phase["completed_in_window"])
    metrics.add("wirt_p50_ms", percentile(wirt, 50), "ms", len(wirt))
    metrics.add("wirt_p95_ms", percentile(wirt, 95), "ms", len(wirt))
    metrics.add("quick_wirt_p50_ms", percentile(quick, 50), "ms", len(quick))
    metrics.add("quick_wirt_p95_ms", percentile(quick, 95), "ms", len(quick))
    metrics.add("ok_frac", wi / max(1, len(phase["measured"])), "fraction",
                len(phase["measured"]))
    metrics.add("server_cpu_ms_per_wi",
                cpu * 1000 * phase["cpu_speed"] / max(1, wi), "ms")
    setups = phase["setup_s"]
    metrics.add("setup_s", statistics.median(setups), "s", len(setups))
    metrics.add("peak_rss_mb", report["peak_rss_mb"], "MB")
    return metrics


def _span(summary: Dict, name: str) -> Dict[str, float]:
    return summary["spans"].get(
        name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
               "p50_s": 0.0, "p95_s": 0.0})


def per_layer(base: Dict, traced: Dict) -> Metrics:
    from repro.tpcw.app import PAGES

    metrics = Metrics()
    add = metrics.add
    report = traced["report"]
    summary = report["trace"]["measure"]
    wi = max(1, len(_ok(traced["measured"])))
    span = functools.partial(_span, summary)
    requests = summary["requests"]

    add("http.read_us_p50", summary["read_per_request_p50_s"] * 1e6, "us",
        requests)
    send = span("http.send_response")
    add("http.send_us_p50", send["p50_s"] * 1e6, "us", send["count"])
    add("http.requests_per_wi", requests / wi, "count")

    gauges = _delta(report, "gauges", "measure", "stop")
    add("reactor.parks_per_wi", span("reactor.park")["count"] / wi, "count")
    add("reactor.sheds", gauges["sheds"], "count")
    add("reactor.idle_reaped", gauges["idle_reaped"], "count")

    stages = summary["stages"]
    for stage in STAGES:
        entry = stages.get(stage, {"hops": 0, "queue_wait_p95_s": 0.0,
                                   "service_p50_s": 0.0, "service_p95_s": 0.0})
        hops = entry["hops"]
        add(f"stage.{stage}.hops_per_wi", hops / wi, "count")
        add(f"stage.{stage}.queue_wait_ms_p95", entry["queue_wait_p95_s"] * 1e3,
            "ms", hops)
        add(f"stage.{stage}.service_ms_p50", entry["service_p50_s"] * 1e3,
            "ms", hops)
        add(f"stage.{stage}.service_ms_p95", entry["service_p95_s"] * 1e3,
            "ms", hops)

    classify = span("core.classify")
    add("core.classify_us_p50", classify["p50_s"] * 1e6, "us", classify["count"])
    general = stages.get("general", {}).get("hops", 0)
    lengthy = stages.get("lengthy", {}).get("hops", 0)
    add("core.lengthy_share", lengthy / max(1, general + lengthy), "fraction",
        general + lengthy)

    utilization = report["utilization"]
    for stage in ("general", "lengthy"):
        add(f"lease.{stage}.busy_frac",
            utilization.get(stage, {}).get("busy_fraction", 0.0), "fraction")
    waits = [entry["acquire_wait"] for entry in utilization.values()
             if entry["acquire_wait"].get("count")]
    add("lease.acquire_wait_ms_p95",
        max((wait["p95"] for wait in waits), default=0.0) * 1e3, "ms",
        sum(wait["count"] for wait in waits))

    invoke = span("app.invoke")
    add("app.invoke_ms_p50", invoke["p50_s"] * 1e3, "ms", invoke["count"])
    add("app.self_ms_per_wi", invoke["self_s"] * 1e3 / wi, "ms")

    statement, lock, sleep = (span("db.statement"), span("db.lock_wait"),
                              span("db.sleep"))
    add("db.statements_per_wi", statement["count"] / wi, "count")
    add("db.stmt_us_p50", statement["p50_s"] * 1e6, "us", statement["count"])
    add("db.stmt_ms_p95", statement["p95_s"] * 1e3, "ms", statement["count"])
    add("db.exec_cpu_ms_per_wi", (statement["total_s"] - lock["total_s"]
                                  - sleep["total_s"]) * 1e3 / wi, "ms")
    add("db.sleep_ms_per_wi", sleep["total_s"] * 1e3 / wi, "ms")
    add("db.lock_wait_ms_per_wi", lock["total_s"] * 1e3 / wi, "ms")
    add("db.lock_wait_ms_p95", lock["p95_s"] * 1e3, "ms", lock["count"])
    add("db.parse_misses", span("db.parse")["count"], "count")
    cost = _delta(report, "cost", "measure", "stop")
    for name, key in COST_COUNTS.items():
        add(name, cost[key] / wi, "count")

    render = span("templates.render")
    add("templates.renders_per_wi", render["count"] / wi, "count")
    add("templates.render_us_p50", render["p50_s"] * 1e6, "us", render["count"])
    add("templates.render_ms_per_wi", render["total_s"] * 1e3 / wi, "ms")
    misses = report["marks"]["stop"]["template_misses"] \
        - report["marks"]["measure"]["template_misses"]
    add("templates.compile_misses", misses, "count")

    static = span("static.serve")
    add("static.serve_us_p50", static["p50_s"] * 1e6, "us", static["count"])
    not_modified = summary["tags"].get("static.serve", {}).get("304", 0)
    add("static.not_modified_frac", not_modified / max(1, static["count"]),
        "fraction", static["count"])

    record = sum(entry["total_s"] for name, entry in summary["spans"].items()
                 if name.startswith("stats.record_"))
    add("stats.record_us_per_wi", record * 1e6 / wi, "us")

    pages = summary["pages"]
    for route in PAGES:
        entry = pages.get(route, {"count": 0, "p50_s": 0.0, "p95_s": 0.0})
        add(f"page.{route[1:]}.server_ms_p50", entry["p50_s"] * 1e3, "ms",
            entry["count"])
        add(f"page.{route[1:]}.server_ms_p95", entry["p95_s"] * 1e3, "ms",
            entry["count"])

    # Process totals come from the untraced run, which tracing does not
    # slow; the overhead compares the two runs' throughput.
    base_report = base["report"]
    cpu = (base_report["marks"]["stop"]["cpu_s"]
           - base_report["marks"]["measure"]["cpu_s"])
    marks = base_report["marks"]
    add("proc.server_cores", cpu / (marks["stop"]["t"] - marks["measure"]["t"]),
        "cores")
    add("proc.client_cores", base["client_cpu"] / base["wall"], "cores")
    add("host.speed", base["speed"], "ratio")
    add("trace.overhead_frac", 1 - traced["wips"] / base["wips"], "fraction")
    add("trace.unexplained_ms_per_wi", summary["unexplained_s"] * 1e3 / wi,
        "ms")
    add("trace.unexplained_frac",
        summary["unexplained_s"] / max(1e-9, summary["server_s"]), "fraction")
    attempted = len(base["measured"]) + len(traced["measured"])
    failed = attempted - len(_ok(base["measured"])) - wi
    add("failed_frac", failed / max(1, attempted), "fraction", attempted)

    # Work counts over the probe, which repeats exactly for a seed.
    probe = report["trace"]["probe"]
    probe_wi = len(traced["probe"])
    add("probe.http.requests_per_wi", probe["requests"] / probe_wi, "count")
    add("probe.reactor.parks_per_wi",
        _span(probe, "reactor.park")["count"] / probe_wi, "count")
    for stage in STAGES:
        hops = probe["stages"].get(stage, {}).get("hops", 0)
        add(f"probe.stage.{stage}.hops_per_wi", hops / probe_wi, "count")
    add("probe.db.statements_per_wi",
        _span(probe, "db.statement")["count"] / probe_wi, "count")
    add("probe.db.parse_misses", _span(probe, "db.parse")["count"], "count")
    cost = _delta(report, "cost", "ready", "measure")
    for name, key in COST_COUNTS.items():
        add(f"probe.{name}", cost[key] / probe_wi, "count")
    add("probe.templates.renders_per_wi",
        _span(probe, "templates.render")["count"] / probe_wi, "count")
    add("probe.templates.compile_misses",
        report["marks"]["measure"]["template_misses"]
        - report["marks"]["ready"]["template_misses"], "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Live TPC-W benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome-trace", default="",
                        help="with --trace 1, write the traced run's spans "
                             "here as Chrome trace-event JSON")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    chrome = str(Path(args.chrome_trace).resolve()) if args.chrome_trace else ""

    if args.trace:
        base = run_phase(workload, args.seed, args.seconds, False, 1)
        traced = run_phase(workload, args.seed, args.seconds, True, 1, chrome)
        phases = [base, traced]
        metrics = per_layer(base, traced)
    else:
        phases = [run_phase(workload, args.seed, args.seconds, False, SETUPS)]
        metrics = end_to_end(phases[0], workload)

    attempted = sum(len(phase["measured"]) for phase in phases)
    failed = sum(len(phase["measured"]) - len(_ok(phase["measured"]))
                 for phase in phases)
    correct = all(all(phase["checks"].values()) for phase in phases)
    for phase in phases:
        for check, passed in phase["checks"].items():
            print(f"check {'ok  ' if passed else 'FAIL'} {check}")
        for error in phase["errors"][:10]:
            print(f"error {error}")
    for line in metrics.lines():
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics.values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
