"""Fault plans on simulated time.

The simulator has no fault code of its own.  :class:`SimServer` runs
the live interpreters — :meth:`FaultPlan.gate` for the
``db.pool.acquire``, ``db.query``, ``render`` and ``worker`` sites,
:func:`repro.faults.policies.admit_hop`, :meth:`CircuitBreaker.guard`
and :meth:`RetryPolicy.run` — with ``yield from``, so an injected wait
is sim time, and maps a failure to its status with the pipeline's own
:func:`repro.server.pipeline.failure_outcome` (DESIGN §3.7).  This
module only puts a plan's schedule windows, and the server's stats,
on the sim clock.
"""

from __future__ import annotations

from typing import Iterable

from repro.faults.plan import FaultPlan, FaultRule
from repro.sim.kernel import Simulation
from repro.util.clock import Clock


class SimClockAdapter(Clock):
    """Expose ``sim.now`` through the live code's Clock interface, so
    FaultPlan windows, breaker timeouts, and ServerStats timestamps all
    read simulated time."""

    def __init__(self, sim: Simulation):
        self._sim = sim

    def now(self) -> float:
        return self._sim.now


def sim_fault_plan(sim: Simulation, rules: Iterable[FaultRule],
                   seed: int = 0) -> FaultPlan:
    """A FaultPlan whose schedule windows run on simulated time."""
    return FaultPlan(rules, seed=seed, clock=SimClockAdapter(sim))
