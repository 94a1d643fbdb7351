"""Deterministic fault injection and the resilience policies it tests.

See :mod:`repro.faults.plan` for the injection engine (FaultPlan /
FaultRule / FaultAction and the named sites) and
:mod:`repro.faults.policies` for deadlines, retry/backoff, the
circuit breaker, and degraded serving.
"""

from repro.faults.errors import CircuitOpenError, InjectedFault
from repro.faults.plan import (
    ALL_SITES,
    SITE_DB_QUERY,
    SITE_POOL_ACQUIRE,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
    FaultAction,
    FaultDecision,
    FaultPlan,
    FaultRule,
)
from repro.faults.policies import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
)

__all__ = [
    "ALL_SITES",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultAction",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "ResilienceConfig",
    "RetryPolicy",
    "SITE_DB_QUERY",
    "SITE_POOL_ACQUIRE",
    "SITE_RENDER",
    "SITE_SOCKET_READ",
    "SITE_SOCKET_WRITE",
    "SITE_WORKER",
]
