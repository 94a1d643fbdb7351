"""Simulated resources: thread pools, PS hosts, table locks."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.sim.kernel import SimEvent, Simulation


class SimThreadPool:
    """A token resource modelling one bounded thread pool.

    ``acquire`` yields an event fired when a thread becomes available;
    the waiter queue *is* the pool's synchronized request queue, so
    ``queue_length`` is exactly the quantity plotted in the paper's
    Figures 7 and 8, and ``spare`` is the paper's ``tspare``.

    Waiters are served lowest ``priority`` first, ties in arrival
    order: callers that pass no priority get a FIFO queue, while a
    size estimate as the priority gives Shortest-Job-First over one
    pool (Cherkasova-style, the paper's §5 comparison point).  Waiters
    carry a ``tag`` so queue lengths can be reported per request class
    (Figure 7 plots queued *dynamic* requests).
    """

    def __init__(self, sim: Simulation, name: str, size: int):
        if size < 1:
            raise ValueError(f"pool {name!r} size must be >= 1, got {size}")
        self.sim = sim
        self.name = name
        self.size = size
        self.busy = 0
        self._waiters: List[Tuple[float, int, SimEvent, str]] = []
        self._arrivals = 0
        self._tag_counts: Dict[str, int] = {}

    @property
    def spare(self) -> int:
        return self.size - self.busy

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def queued_with_tag(self, *tags: str) -> int:
        return sum(self._tag_counts.get(tag, 0) for tag in tags)

    def acquire(self, tag: str = "work", priority: float = 0.0) -> SimEvent:
        """Returns an event fired once a thread is granted."""
        event = self.sim.event()
        if self.busy < self.size and not self._waiters:
            self.busy += 1
            event.fire()
        else:
            self._arrivals += 1
            heapq.heappush(self._waiters,
                           (priority, self._arrivals, event, tag))
            self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        return event

    def release(self) -> None:
        if self.busy <= 0:
            raise RuntimeError(f"pool {self.name!r}: release without acquire")
        if self._waiters:
            _, _, event, tag = heapq.heappop(self._waiters)
            self._tag_counts[tag] -= 1
            event.fire()  # busy count transfers to the waiter
        else:
            self.busy -= 1


class PSServer:
    """A processor-sharing server with ``cores`` units of capacity.

    Models the database host (and optionally the web host's CPUs): all
    active jobs progress simultaneously; each job's instantaneous rate
    is ``min(1, cores / n_active)``, i.e. a core is never left idle
    while jobs exist, and a job never runs faster than real time.  This
    is how a DBMS timeslices concurrent queries across a fixed core
    count, and is what makes quick TPC-W queries stay quick while slow
    scans run alongside (a FIFO server would wrongly stall them).
    """

    class _Job:
        __slots__ = ("remaining", "done")

        def __init__(self, demand: float, done: SimEvent):
            self.remaining = demand
            self.done = done

    def __init__(self, sim: Simulation, name: str, cores: int):
        if cores < 1:
            raise ValueError(f"PS server {name!r} needs >= 1 core, got {cores}")
        self.sim = sim
        self.name = name
        self.cores = cores
        self._jobs: List[PSServer._Job] = []
        self._last_update = 0.0
        self._wakeup_seq = 0  # invalidates stale completion callbacks
        self.total_demand_served = 0.0
        self.jobs_served = 0

    # ------------------------------------------------------------------
    def current_rate(self) -> float:
        n = len(self._jobs)
        if n == 0:
            return 0.0
        return min(1.0, self.cores / n)

    def serve(self, demand: float) -> SimEvent:
        """Submit a job; the returned event fires on completion."""
        if demand < 0:
            raise ValueError(f"demand must be >= 0, got {demand}")
        done = self.sim.event()
        if demand == 0:
            done.fire()
            return done
        self._advance()
        self._jobs.append(PSServer._Job(demand, done))
        self._reschedule()
        return done

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Apply progress since the last state change."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0 or not self._jobs:
            return
        progress = elapsed * self.current_rate()
        for job in self._jobs:
            job.remaining -= progress

    def _reschedule(self) -> None:
        self._wakeup_seq += 1
        if not self._jobs:
            return
        rate = self.current_rate()
        next_remaining = min(job.remaining for job in self._jobs)
        delay = max(0.0, next_remaining / rate)
        self.sim.call_later(delay, self._on_wakeup, self._wakeup_seq)

    def _on_wakeup(self, seq: int) -> None:
        if seq != self._wakeup_seq:
            return  # state changed since this wakeup was scheduled
        self._advance()
        finished = [job for job in self._jobs if job.remaining <= 1e-12]
        if not finished:
            self._reschedule()
            return
        self._jobs = [job for job in self._jobs if job.remaining > 1e-12]
        for job in finished:
            self.jobs_served += 1
            job.done.fire()
        self._reschedule()


class SimLockTable:
    """Reader-preference table locks with writer grace periods.

    Readers (SELECTs) are never blocked: MVCC-style, matching the
    paper's observation that every read page stayed fast while only the
    one UPDATE page suffered.  A writer must wait for all readers that
    were *in flight when it arrived* to drain — the grace period behind
    the admin-response slowdown: "it must acquire a lock on a database
    table, forcing it to wait for other threads to finish the use of
    the table.  Ironically, this page is slower to respond for our
    modified server because the other pages are so much more efficient"
    (§4.2.1) — busier readers mean longer overlapping holds to drain.
    Writers on the same table serialise among themselves (FIFO).
    """

    class _Reader:
        """One granted read hold; identity matters for grace periods."""

        __slots__ = ("released",)

        def __init__(self) -> None:
            self.released = False

    class _TableState:
        __slots__ = ("readers", "writer_active", "writer_queue")

        def __init__(self) -> None:
            self.readers: List["SimLockTable._Reader"] = []
            self.writer_active = False
            self.writer_queue: Deque[Tuple[SimEvent, List["SimLockTable._Reader"]]] = deque()

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._tables: Dict[str, SimLockTable._TableState] = {}

    def _state(self, table: str) -> "_TableState":
        state = self._tables.get(table)
        if state is None:
            state = SimLockTable._TableState()
            self._tables[table] = state
        return state

    # ------------------------------------------------------------------
    def acquire_read(self, table: str) -> "SimLockTable._Reader":
        """Grant a read hold immediately; returns the token to release.

        Readers never wait (no event needed): the grant is synchronous.
        """
        state = self._state(table)
        reader = SimLockTable._Reader()
        state.readers.append(reader)
        return reader

    def release_read(self, table: str, token: "SimLockTable._Reader") -> None:
        state = self._state(table)
        if token.released:
            raise RuntimeError(f"table {table!r}: reader token released twice")
        token.released = True
        state.readers.remove(token)
        self._try_grant_writer(state)

    def acquire_write(self, table: str) -> SimEvent:
        """Queue a writer; fires after its grace period.

        The writer waits for *exactly the readers in flight at arrival*
        to finish (identity-based, i.e. the full residual of the longest
        overlapping scan) — so the busier the readers, the longer the
        wait, which is the paper's admin-response irony.  Writers on the
        same table serialise FIFO among themselves.
        """
        event = self.sim.event()
        state = self._state(table)
        snapshot = [r for r in state.readers if not r.released]
        if not state.writer_active and not state.writer_queue and not snapshot:
            state.writer_active = True
            event.fire()
        else:
            state.writer_queue.append((event, snapshot))
            self._try_grant_writer(state)
        return event

    def release_write(self, table: str) -> None:
        state = self._state(table)
        if not state.writer_active:
            raise RuntimeError(f"table {table!r}: writer release w/o hold")
        state.writer_active = False
        self._try_grant_writer(state)

    def waiting(self, table: str) -> int:
        return len(self._state(table).writer_queue)

    def active_readers(self, table: str) -> int:
        return len(self._state(table).readers)

    def _try_grant_writer(self, state: "_TableState") -> None:
        if state.writer_active or not state.writer_queue:
            return
        event, snapshot = state.writer_queue[0]
        if any(not reader.released for reader in snapshot):
            return  # grace period not over yet
        state.writer_queue.popleft()
        state.writer_active = True
        event.fire()
