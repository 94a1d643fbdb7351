"""Bounded worker thread pools over synchronized queues.

"Each thread pool waits on its own synchronized queue" (paper §3.2).
The pool exposes the two live measurements the scheduling policy needs:
``spare`` (idle workers — the paper's ``tspare`` when read from the
general pool) and ``queue_length`` (the series plotted in Figures 7–8).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Optional

_SHUTDOWN = object()


class PoolOverloadedError(RuntimeError):
    """Raised by submit() when a bounded queue is full (maps to 503)."""


class ThreadPool:
    """A fixed-size pool of worker threads consuming one task queue.

    Tasks are ``(handler, item)`` pairs: ``handler(item)`` runs on a
    worker.  Exceptions escaping a handler are routed to
    ``error_handler`` (default: stored on :attr:`last_error` and
    counted) so one bad request never kills a worker thread.
    """

    def __init__(self, name: str, size: int,
                 worker_init: Optional[Callable[[], None]] = None,
                 worker_cleanup: Optional[Callable[[], None]] = None,
                 error_handler: Optional[Callable[[BaseException, Any], None]] = None,
                 max_queue: Optional[int] = None):
        if size < 1:
            raise ValueError(f"pool {name!r} size must be >= 1, got {size}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(
                f"pool {name!r} max_queue must be >= 1 or None, got {max_queue}"
            )
        self.name = name
        self.size = size
        self.max_queue = max_queue
        self.rejected = 0
        # SimpleQueue hands tasks over in C; the bound is enforced by
        # the waiting count, checked and bumped under _lock with the
        # put, so concurrent submits cannot overshoot it.
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        # Guards _waiting, _busy, _shutdown and rejected.
        self._lock = threading.Lock()
        self._waiting = 0
        self._busy = 0
        self._worker_init = worker_init
        self._worker_cleanup = worker_cleanup
        self._error_handler = error_handler
        self._shutdown = False
        self.tasks_completed = 0
        self.errors = 0
        self.last_error: Optional[BaseException] = None
        self._threads = [
            threading.Thread(
                target=self._run_worker, name=f"{name}-{i}", daemon=True
            )
            for i in range(size)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(self, handler: Callable[[Any], None], item: Any = None) -> None:
        """Enqueue one task.

        With ``max_queue`` set, an over-full queue rejects the task
        with :class:`PoolOverloadedError` instead of growing without
        bound — admission control in the spirit of the overload work
        the paper cites (Welsh & Culler's load shedding).
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError(f"pool {self.name!r} is shut down")
            if self.max_queue is not None and self._waiting >= self.max_queue:
                self.rejected += 1
                raise PoolOverloadedError(
                    f"pool {self.name!r} queue is full "
                    f"({self.max_queue} waiting)"
                )
            self._waiting += 1
            self._queue.put((handler, item))

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting (not yet picked up by a worker)."""
        return self._waiting

    @property
    def busy(self) -> int:
        """Workers currently executing a task."""
        with self._lock:
            return self._busy

    @property
    def spare(self) -> int:
        """Idle workers — the paper's ``tspare`` for this pool."""
        with self._lock:
            return self.size - self._busy

    # ------------------------------------------------------------------
    def _run_worker(self) -> None:
        if self._worker_init is not None:
            try:
                self._worker_init()
            except Exception as exc:  # pragma: no cover - startup failure
                self._record_error(exc, None)
                return
        try:
            while True:
                task = self._queue.get()
                if task is _SHUTDOWN:
                    return
                handler, item = task
                with self._lock:
                    self._waiting -= 1
                    self._busy += 1
                try:
                    handler(item)
                    self.tasks_completed += 1
                except Exception as exc:
                    self._record_error(exc, item)
                finally:
                    with self._lock:
                        self._busy -= 1
        finally:
            if self._worker_cleanup is not None:
                try:
                    self._worker_cleanup()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass

    def _record_error(self, exc: BaseException, item: Any) -> None:
        self.errors += 1
        self.last_error = exc
        if self._error_handler is not None:
            try:
                self._error_handler(exc, item)
            except Exception:
                # The error handler is a best-effort notification; a
                # bug in it must not kill the worker thread too.
                pass

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop all workers after the queue drains."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        # One sentinel per worker, queued behind every admitted task.
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
