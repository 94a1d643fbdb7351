"""The chaos experiment: fault injection over the simulated TPC-W run.

Runs the paper's workload on both topologies with a deterministic
:class:`~repro.faults.plan.FaultPlan` active — transient database
failures, connection-pool exhaustion windows, render slowdowns, worker
crashes — and the full resilience stack (per-stage deadlines, bounded
retry with backoff, a circuit breaker over the connection pool)
reacting to it.  The report shows what each design absorbs: how many
faults were injected per site, how many requests were saved by a
retry, shed by the breaker, or expired at a deadline.

Everything is seeded: the same ``--seed`` reproduces the identical
fault schedule and the identical report, which is what makes the
numbers reviewable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.faults.plan import (
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_WORKER,
    FaultAction,
    FaultRule,
)
from repro.faults.policies import (
    BreakerConfig,
    ResilienceConfig,
    RetryPolicy,
)
from repro.sim.workload import WorkloadConfig, run_tpcw_simulation


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """One chaos run: the workload plus the fault schedule knobs."""

    workload: WorkloadConfig
    #: Seed for the fault plan's per-rule probability streams (the
    #: workload's own seed lives in ``workload.seed``).
    fault_seed: int = 7
    #: Probability a database query fails transiently (retried).
    transient_rate: float = 0.02
    #: Probability a render call is slowed by ``render_delay`` seconds.
    render_slow_rate: float = 0.05
    render_delay: float = 0.05
    #: Probability a worker crashes picking up a job.
    crash_rate: float = 0.001
    #: A pool-exhaustion outage window (simulated seconds from run
    #: start) during which every connection acquire fails — the event
    #: the breaker exists for.
    outage_start: float = 120.0
    outage_end: float = 150.0


def default_rules(config: ChaosConfig) -> List[FaultRule]:
    """The standard chaos schedule for :func:`run_chaos`."""
    return [
        FaultRule(site=SITE_DB_QUERY, action=FaultAction.TRANSIENT,
                  probability=config.transient_rate),
        FaultRule(site=SITE_RENDER, action=FaultAction.DELAY,
                  probability=config.render_slow_rate,
                  delay=config.render_delay),
        FaultRule(site=SITE_WORKER, action=FaultAction.CRASH,
                  probability=config.crash_rate),
        FaultRule(site=SITE_POOL_ACQUIRE, action=FaultAction.EXHAUST,
                  after=config.outage_start, until=config.outage_end),
    ]


def default_resilience(config: ChaosConfig) -> ResilienceConfig:
    return ResilienceConfig(
        request_deadline=30.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.02,
                          multiplier=2.0, max_delay=0.5),
        breaker=BreakerConfig(failure_threshold=5, recovery_timeout=5.0),
        seed=config.fault_seed,
    )


def run_chaos(config: Optional[ChaosConfig] = None) -> Dict:
    """Both topologies under the same fault schedule; one document."""
    if config is None:
        config = ChaosConfig(workload=WorkloadConfig.quick())
    rules = default_rules(config)
    resilience = default_resilience(config)
    document: Dict = {
        "fault_seed": config.fault_seed,
        "workload_seed": config.workload.seed,
        "servers": {},
    }
    for kind in ("baseline", "staged"):
        server = run_tpcw_simulation(
            kind, config=config.workload,
            fault_rules=rules, fault_seed=config.fault_seed,
            resilience=resilience,
        )
        document["servers"][kind] = {
            "completed": server.stats.total_completions(),
            "fault_report": server.faults.fault_report(),
            "resilience_report": server.stats.resilience_report(),
            "errors": server.stats.errors(),
        }
    return document


def format_chaos_report(document: Dict) -> str:
    """The chaos document as a terminal report."""
    lines = [
        "Chaos run: identical fault schedule on both topologies "
        f"(fault seed {document['fault_seed']}, "
        f"workload seed {document['workload_seed']})",
    ]
    for kind in sorted(document["servers"]):
        entry = document["servers"][kind]
        fault_report = entry["fault_report"]
        resilience = entry["resilience_report"]
        lines.append("")
        lines.append(f"--- {kind} ---")
        lines.append(f"completed requests: {entry['completed']}")
        lines.append(
            f"faults injected: {fault_report['total_injected']} "
            + ", ".join(f"{site}={count}" for site, count
                        in sorted(fault_report["injected"].items()))
        )
        totals = {key: 0 for key in
                  ("retries", "deadline_expired", "breaker_fast_fail",
                   "degraded_served", "worker_crashes")}
        for stage_entry in resilience["stages"].values():
            for key in totals:
                totals[key] += stage_entry[key]
        lines.append(
            "policies: "
            + ", ".join(f"{key}={value}"
                        for key, value in sorted(totals.items()))
        )
        by_status: Dict[str, int] = {}
        for page_errors in entry["errors"].values():
            for status, count in page_errors.items():
                by_status[status] = by_status.get(status, 0) + count
        lines.append("error responses: " + (", ".join(
            f"{status}={count}" for status, count in sorted(by_status.items()))
            or "none"))
        breaker = resilience["breaker"]
        transitions = ", ".join(
            f"{state}×{count}"
            for state, count in sorted(breaker["transitions"].items())
        ) or "none"
        lines.append(f"breaker: state={breaker['state']} "
                     f"transitions: {transitions}")
    return "\n".join(lines)
