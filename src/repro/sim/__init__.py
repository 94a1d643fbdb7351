"""Discrete-event simulation of the servers at the paper's scale.

The paper's evaluation ran 400 emulated browsers against a three-host
testbed for an hour per configuration.  This package runs the same
closed queueing system in simulated time, so every paper table is
reproducible in seconds:

- :mod:`repro.sim.kernel` — a generator-based discrete-event kernel.
- :mod:`repro.sim.resources` — thread pools (FIFO or priority-ordered
  waiter queues, which are the plotted queue lengths),
  processor-sharing hosts, and reader-preference table locks.  The
  lock model differs from the live :mod:`repro.db.locks` on purpose:
  it reproduces Table 4's admin-response slowdown.  There is no
  simulated connection pool: connections equal the threads that
  lease them (see :mod:`repro.sim.server`).
- :mod:`repro.sim.server` — :class:`SimServer`, one stage-graph walker
  whose stage table names the topology (thread-per-request, the
  five-pool design, its render-inline ablation, or SJF), embedding the
  *real* :class:`repro.core.SchedulingPolicy`.
- :mod:`repro.sim.faults` — the live fault-injection sites and
  resilience policies, re-expressed on simulated time.
- :mod:`repro.sim.workload` — per-page service-demand profiles and the
  closed-loop emulated browsers.

Metrics land in the simulated server's ``stats``, the same
:class:`repro.server.stats.ServerStats` the live servers keep, driven
by the sim clock.
"""

from repro.sim.kernel import Simulation, SimEvent
from repro.sim.resources import (
    PSServer,
    SimLockTable,
    SimThreadPool,
)
from repro.sim.server import SimServer
from repro.sim.workload import (
    DEFAULT_PROFILES,
    PageProfile,
    WorkloadConfig,
    run_tpcw_simulation,
)

__all__ = [
    "Simulation",
    "SimEvent",
    "PSServer",
    "SimLockTable",
    "SimThreadPool",
    "SimServer",
    "DEFAULT_PROFILES",
    "PageProfile",
    "WorkloadConfig",
    "run_tpcw_simulation",
]
