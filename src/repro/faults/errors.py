"""Errors raised by injected faults and resilience policies."""

from __future__ import annotations


class InjectedFault(RuntimeError):
    """Base class for failures raised by a :class:`~repro.faults.plan.
    FaultPlan` at an injection point.  Deliberately *not* a
    :class:`~repro.db.errors.DatabaseError`: an injected render or
    worker fault must surface through the generic error path, exactly
    like the organic bug it stands in for."""


class CircuitOpenError(RuntimeError):
    """The circuit breaker guarding the connection pool is open.

    Raised by :meth:`repro.server.resources.LeaseManager.acquire`
    instead of blocking on an exhausted pool; the pipeline maps it to
    a fast-fail 503 with ``Retry-After`` (or a degraded stale-cache
    response when degraded serving is enabled).
    """

    def __init__(self, message: str = "circuit breaker is open",
                 retry_after: float = 0.0):
        super().__init__(message)
        #: Seconds until the breaker will allow a half-open probe.
        self.retry_after = retry_after


class WorkerCrash(InjectedFault):
    """An injected ``worker`` crash: the hop fails 500 before its
    handler runs, and its stage counts ``worker_crashes``."""


class DeadlineExpired(RuntimeError):
    """A job picked up past its stage deadline: the hop fails 504
    before its handler runs, so a doomed request never leases a
    connection."""
