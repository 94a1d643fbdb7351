"""Declarative, seeded, clock-driven fault injection.

A :class:`FaultPlan` is a list of :class:`FaultRule` declarations —
*what* goes wrong (:class:`FaultAction`), *where* (a named injection
site), *for whom* (an optional page key and stage), *when* (an
``after``/``until`` window on the plan's clock), and *how often*
(a probability drawn from a per-rule seeded stream, plus an optional
``max_times`` cap).  The live server threads the same plan object
through every layer it can break — the connection pool, the query
engine, the template engine, the client sockets, and the stage pools —
and the simulator drives the identical rules off the sim clock, so a
scripted chaos scenario produces the same :meth:`fault_report` counts
in both worlds.

Determinism is the design requirement: every probabilistic decision
comes from a :class:`repro.util.rng.RandomStream` derived from the
plan seed and the rule's position, and every schedule decision comes
from the injected clock.  Two runs with the same seed, clock script,
and request sequence inject bit-for-bit identical faults.

The plan deliberately knows nothing about servers: call sites either
use the interpreter helpers (:meth:`on_pool_acquire`,
:meth:`on_db_query`, :meth:`on_render`) which raise/sleep on the
caller's behalf, or call :meth:`decide` directly and interpret the
returned :class:`FaultDecision` themselves (sockets, workers, and the
simulator, where "sleep" means yielding sim time).
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.db.errors import DatabaseError, PoolTimeoutError, TransientDBError
from repro.faults.errors import InjectedFault
from repro.util.clock import Clock, MonotonicClock
from repro.util.rng import RandomStream

# ----------------------------------------------------------------------
# Injection sites: the named points the servers thread the plan through.
# ----------------------------------------------------------------------
#: ``ConnectionPool.acquire`` — delay the checkout or exhaust the pool.
SITE_POOL_ACQUIRE = "db.pool.acquire"
#: ``Database.execute_statement`` — latency spike, transient or hard
#: failure (transaction-control statements are never injected).
SITE_DB_QUERY = "db.query"
#: ``TemplateEngine.render`` — slow render or render-time crash.
SITE_RENDER = "render"
#: ``ClientConnection`` socket reads — peer drops or stalls mid-request.
SITE_SOCKET_READ = "socket.read"
#: ``ClientConnection`` socket writes — drop before, or short-write
#: during, response transmission.
SITE_SOCKET_WRITE = "socket.write"
#: Stage pool workers — crash (escapes the handler) or hang.
SITE_WORKER = "worker"

ALL_SITES = (
    SITE_POOL_ACQUIRE,
    SITE_DB_QUERY,
    SITE_RENDER,
    SITE_SOCKET_READ,
    SITE_SOCKET_WRITE,
    SITE_WORKER,
)


class FaultAction(enum.Enum):
    """What an injected fault does at its site."""

    #: Raise the site's hard error (DatabaseError, InjectedFault, ...).
    FAIL = "fail"
    #: Raise :class:`~repro.db.errors.TransientDBError` (db.query only)
    #: — the class the retry policy is allowed to retry.
    TRANSIENT = "transient"
    #: Sleep ``delay`` seconds (sim: yield that much sim time).
    DELAY = "delay"
    #: Pool acquire behaves as if no connection ever frees up.
    EXHAUST = "exhaust"
    #: Socket: the peer vanishes (read returns nothing / write fails).
    DROP = "drop"
    #: Socket: the peer stalls mid-request (read times out).
    STALL = "stall"
    #: Socket write transmits a truncated response, then drops.
    SHORT_WRITE = "short_write"
    #: Worker raises :class:`~repro.faults.errors.WorkerCrashError`
    #: *outside* the stage handler.
    CRASH = "crash"
    #: Worker blocks ``delay`` seconds before touching the job.
    HANG = "hang"


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One declarative fault: site + action + match + schedule.

    ``page_key``/``stage`` of ``None`` match everything; a set value
    must equal the request's page key / the executing stage.  The
    ``after``/``until`` window is measured in plan-clock seconds from
    the first decision the plan makes (so scripts compose with both
    ``ManualClock`` and the sim clock without absolute epochs).
    ``probability`` is evaluated per matching decision from the rule's
    own seeded stream; ``max_times`` caps total injections.
    """

    site: str
    action: FaultAction
    probability: float = 1.0
    page_key: Optional[str] = None
    stage: Optional[str] = None
    after: float = 0.0
    until: Optional[float] = None
    max_times: Optional[int] = None
    #: Seconds for DELAY/STALL/HANG actions.
    delay: float = 0.0
    message: str = ""

    def __post_init__(self):
        if self.site not in ALL_SITES:
            raise ValueError(
                f"unknown injection site {self.site!r}; expected one of "
                f"{sorted(ALL_SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be within [0, 1], got {self.probability}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


@dataclasses.dataclass(frozen=True)
class FaultDecision:
    """The outcome of one matching :meth:`FaultPlan.decide` call."""

    rule_index: int
    site: str
    action: FaultAction
    delay: float = 0.0
    message: str = ""


class FaultPlan:
    """A seeded, clock-driven interpreter over :class:`FaultRule` s.

    Parameters
    ----------
    rules:
        Evaluated in order; the first rule that matches *and* passes
        its probability draw fires (first-match-wins keeps scripted
        scenarios predictable).
    seed:
        Root seed; each rule gets its own
        :class:`~repro.util.rng.RandomStream` named by site and
        position, so adding a rule never perturbs another's draws.
    clock:
        Time source for ``after``/``until`` windows.  The live servers
        share their server clock; the sim adapter reads ``sim.now``.
    sleeper:
        How DELAY/HANG faults spend time on the live path.  Defaults
        to ``time.sleep``; chaos tests pass ``manual_clock.advance`` so
        injected latency moves the test clock instead of wall time.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0,
                 clock: Optional[Clock] = None,
                 sleeper: Callable[[float], None] = time.sleep):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self.clock = clock if clock is not None else MonotonicClock()
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._epoch: Optional[float] = None
        self._streams = [
            RandomStream(seed, f"{rule.site}:{index}")
            for index, rule in enumerate(self.rules)
        ]
        self._rule_counts = [0] * len(self.rules)
        self._site_counts: Dict[str, int] = {}
        #: Optional observer ``(site, action_label) -> None``; the
        #: servers wire this to ``ServerStats.record_fault`` so every
        #: injection lands in the exported metrics.
        self.on_inject: Optional[Callable[[str, str], None]] = None

    # ------------------------------------------------------------------
    # Request context: the pipeline brackets handler execution so
    # deep call sites (pool, engine) match page/stage without plumbing.
    # ------------------------------------------------------------------
    def push_context(self, page_key: Optional[str],
                     stage: Optional[str]) -> Tuple:
        previous = getattr(self._tls, "ctx", (None, None))
        self._tls.ctx = (page_key, stage)
        return previous

    def pop_context(self, token: Tuple) -> None:
        self._tls.ctx = token

    def set_context_page(self, page_key: str) -> None:
        """Name the page of the current context, for a handler that
        learns it only after the context was pushed."""
        self._tls.ctx = (page_key, self._context()[1])

    def _context(self) -> Tuple[Optional[str], Optional[str]]:
        return getattr(self._tls, "ctx", (None, None))

    # ------------------------------------------------------------------
    def decide(self, site: str, page_key: Optional[str] = None,
               stage: Optional[str] = None) -> Optional[FaultDecision]:
        """First matching rule that fires, or ``None``.

        Only rules whose ``site`` matches consume randomness, so rules
        for unrelated sites never perturb each other's streams and
        reports stay reproducible across topologies that visit sites
        in different orders.
        """
        if not self.rules:
            return None
        ctx_page, ctx_stage = self._context()
        if page_key is None:
            page_key = ctx_page
        if stage is None:
            stage = ctx_stage
        fired: Optional[FaultDecision] = None
        with self._lock:
            now = self.clock.now()
            if self._epoch is None:
                self._epoch = now
            elapsed = now - self._epoch
            for index, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if rule.page_key is not None and rule.page_key != page_key:
                    continue
                if rule.stage is not None and rule.stage != stage:
                    continue
                if elapsed < rule.after:
                    continue
                if rule.until is not None and elapsed >= rule.until:
                    continue
                if (rule.max_times is not None
                        and self._rule_counts[index] >= rule.max_times):
                    continue
                if rule.probability < 1.0:
                    if self._streams[index].random() >= rule.probability:
                        continue
                self._rule_counts[index] += 1
                label = f"{site}:{rule.action.value}"
                self._site_counts[label] = self._site_counts.get(label, 0) + 1
                fired = FaultDecision(
                    rule_index=index, site=site, action=rule.action,
                    delay=rule.delay, message=rule.message,
                )
                break
        if fired is not None and self.on_inject is not None:
            self.on_inject(fired.site, fired.action.value)
        return fired

    def sleep(self, seconds: float) -> None:
        """Spend injected latency through the configured sleeper."""
        if seconds > 0:
            self._sleeper(seconds)

    # ------------------------------------------------------------------
    # Interpreter helpers for call sites with obvious semantics.  The
    # sim does not use these (it yields sim time instead of sleeping);
    # it interprets decide() directly.
    # ------------------------------------------------------------------
    def on_pool_acquire(self) -> None:
        """Consulted at the top of ``ConnectionPool.acquire``."""
        decision = self.decide(SITE_POOL_ACQUIRE)
        if decision is None:
            return
        if decision.action is FaultAction.DELAY:
            self.sleep(decision.delay)
            return
        raise PoolTimeoutError(
            decision.message or "injected: connection pool exhausted"
        )

    def on_db_query(self) -> None:
        """Consulted by ``Database.execute_statement`` for real
        statements (transaction control is never injected)."""
        decision = self.decide(SITE_DB_QUERY)
        if decision is None:
            return
        if decision.action is FaultAction.DELAY:
            self.sleep(decision.delay)
            return
        if decision.action is FaultAction.TRANSIENT:
            raise TransientDBError(
                decision.message or "injected transient database failure"
            )
        raise DatabaseError(
            decision.message or "injected database failure"
        )

    def on_render(self, template: Optional[str] = None) -> None:
        """Consulted by ``TemplateEngine.render``."""
        decision = self.decide(SITE_RENDER)
        if decision is None:
            return
        if decision.action is FaultAction.DELAY:
            self.sleep(decision.delay)
            return
        raise InjectedFault(
            decision.message or f"injected render failure ({template})"
        )

    # ------------------------------------------------------------------
    def injected_total(self) -> int:
        with self._lock:
            return sum(self._rule_counts)

    def fault_report(self) -> Dict:
        """Deterministic summary of everything injected so far.

        Keyed identically on the live servers and the sim mirror —
        the parity tests compare these documents verbatim.
        """
        with self._lock:
            per_rule = [
                {
                    "site": rule.site,
                    "action": rule.action.value,
                    "page_key": rule.page_key,
                    "stage": rule.stage,
                    "injected": self._rule_counts[index],
                }
                for index, rule in enumerate(self.rules)
            ]
            return {
                "seed": self.seed,
                "total_injected": sum(self._rule_counts),
                "injected": dict(sorted(self._site_counts.items())),
                "rules": per_rule,
            }


def worker_decision_applies(decision: Optional[FaultDecision]) -> bool:
    """Whether a ``SITE_WORKER`` decision is one the pool hook acts on."""
    return decision is not None and decision.action in (
        FaultAction.CRASH, FaultAction.HANG,
    )
