"""Host-speed calibrator: times a fixed chunk of Python work, periodically.

Usage (started by ``run.py``)::

    python3 perfbench/calibrate.py

Every ``PERIOD`` seconds it runs :func:`chunk` once and records the
``time.perf_counter()`` at which the chunk started, the wall time it
took and the CPU time it took.  When standard input reaches end of
file it prints the samples as one JSON list of ``[start, wall, cpu]``
triples and exits.

The benchmark's host shares its cores with other machines, and the
same interpreter work takes up to 40% longer from one minute, or one
second, to the next.  The server's CPU-bound work slows with it, so
``run.py`` scales its timings by how fast this chunk ran during the
same window: wall-clock metrics by the chunk's wall time, which also
catches the host stalling the machine, and CPU metrics by its CPU
time.  The calibrator costs about 2% of one core.
"""

from __future__ import annotations

import json
import select
import sys
import time

#: Seconds between chunks.
PERIOD = 0.05


def chunk() -> int:
    """About 1 ms of the interpreter work a request handler does: dict
    and attribute traffic, string building and a sort."""
    total = 0
    for i in range(400):
        row = {"id": i, "name": "item-%d" % i, "cost": i * 3 % 17}
        text = "<td>" + row["name"] + "</td><td>" + str(row["cost"]) + "</td>"
        parts = text.split("><")
        total += len(parts) + row["cost"]
        keys = sorted(row, key=len)
        total += len(keys[0])
    return total


def main() -> None:
    samples = []
    fd = sys.stdin.fileno()
    while True:
        readable, _, _ = select.select([fd], [], [], PERIOD)
        if readable and not sys.stdin.buffer.read1(4096):
            break
        started, cpu = time.perf_counter(), time.thread_time()
        chunk()
        samples.append([started, time.perf_counter() - started,
                        time.thread_time() - cpu])
    sys.stdout.write(json.dumps(samples) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
