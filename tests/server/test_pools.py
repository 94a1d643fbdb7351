"""ThreadPool tests: queueing, spare counting, error isolation."""

import queue
import threading
import time

import pytest

from repro.server.pools import PoolOverloadedError, ThreadPool


class TestBasics:
    def test_executes_tasks(self):
        pool = ThreadPool("t", 2)
        done = threading.Event()
        pool.submit(lambda item: done.set(), None)
        assert done.wait(timeout=5)
        pool.shutdown()

    def test_item_passed_to_handler(self):
        pool = ThreadPool("t", 1)
        received = []
        event = threading.Event()

        def handler(item):
            received.append(item)
            event.set()

        pool.submit(handler, "payload")
        assert event.wait(timeout=5)
        assert received == ["payload"]
        pool.shutdown()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadPool("t", 0)

    def test_tasks_completed_counter(self):
        pool = ThreadPool("t", 2)
        for _ in range(10):
            pool.submit(lambda _x: None, None)
        pool.shutdown(wait=True)
        assert pool.tasks_completed == 10


class TestSpareAndQueue:
    def test_spare_reflects_busy_workers(self):
        pool = ThreadPool("t", 3)
        release = threading.Event()
        started = threading.Barrier(3)

        def block(_item):
            started.wait(timeout=5)
            release.wait(timeout=5)

        for _ in range(2):
            pool.submit(block, None)
        # Third party to the barrier: the test itself, once both run.
        time.sleep(0.05)
        assert pool.busy == 2
        assert pool.spare == 1
        started.wait(timeout=5)
        release.set()
        pool.shutdown()

    def test_queue_length_counts_waiting_tasks(self):
        pool = ThreadPool("t", 1)
        release = threading.Event()
        pool.submit(lambda _x: release.wait(timeout=10), None)
        time.sleep(0.05)
        for _ in range(5):
            pool.submit(lambda _x: None, None)
        assert pool.queue_length == 5
        release.set()
        pool.shutdown()
        assert pool.queue_length == 0


class TestErrorIsolation:
    def test_worker_survives_handler_exception(self):
        pool = ThreadPool("t", 1)
        done = threading.Event()

        def boom(_item):
            raise ValueError("handler bug")

        pool.submit(boom, None)
        pool.submit(lambda _x: done.set(), None)
        assert done.wait(timeout=5)
        assert pool.errors == 1
        assert isinstance(pool.last_error, ValueError)
        pool.shutdown()

    def test_error_handler_invoked(self):
        captured = []
        pool = ThreadPool(
            "t", 1, error_handler=lambda exc, item: captured.append((exc, item))
        )
        pool.submit(lambda item: 1 / 0, "ctx")
        pool.shutdown(wait=True)
        assert len(captured) == 1
        assert isinstance(captured[0][0], ZeroDivisionError)
        assert captured[0][1] == "ctx"


class TestLifecycle:
    def test_worker_init_and_cleanup(self):
        events = []
        pool = ThreadPool(
            "t", 2,
            worker_init=lambda: events.append("init"),
            worker_cleanup=lambda: events.append("cleanup"),
        )
        pool.shutdown(wait=True)
        assert events.count("init") == 2
        assert events.count("cleanup") == 2

    def test_submit_after_shutdown_rejected(self):
        pool = ThreadPool("t", 1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda _x: None, None)

    def test_shutdown_drains_queue_first(self):
        pool = ThreadPool("t", 1)
        results = []
        for i in range(5):
            pool.submit(lambda item: results.append(item), i)
        pool.shutdown(wait=True)
        assert results == [0, 1, 2, 3, 4]

    def test_double_shutdown_is_noop(self):
        pool = ThreadPool("t", 1)
        pool.shutdown()
        pool.shutdown()


class TestAdmissionControl:
    def test_bounded_queue_rejects_overflow(self):
        from repro.server.pools import PoolOverloadedError

        pool = ThreadPool("t", 1, max_queue=2)
        release = threading.Event()
        pool.submit(lambda _x: release.wait(timeout=10), None)
        time.sleep(0.05)  # worker now busy
        pool.submit(lambda _x: None, None)
        pool.submit(lambda _x: None, None)
        with pytest.raises(PoolOverloadedError):
            pool.submit(lambda _x: None, None)
        assert pool.rejected == 1
        release.set()
        pool.shutdown()

    def test_shutdown_of_a_full_bounded_queue_drains_it(self):
        pool = ThreadPool("t", 1, max_queue=2)
        running, release = threading.Event(), threading.Event()
        results = []
        pool.submit(lambda _x: (running.set(), release.wait(timeout=10)), None)
        assert running.wait(timeout=5)
        pool.submit(results.append, 1)
        pool.submit(results.append, 2)
        started = time.monotonic()
        pool.shutdown(wait=False)  # must not wait for queue room
        assert time.monotonic() - started < 1.0
        release.set()
        pool.shutdown()  # no-op: already shut down
        for thread in pool._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert results == [1, 2]
        assert pool.queue_length == 0

    def test_unbounded_by_default(self):
        pool = ThreadPool("t", 1)
        release = threading.Event()
        pool.submit(lambda _x: release.wait(timeout=10), None)
        for _ in range(100):
            pool.submit(lambda _x: None, None)
        assert pool.rejected == 0
        release.set()
        pool.shutdown()

    def test_invalid_max_queue(self):
        with pytest.raises(ValueError):
            ThreadPool("t", 1, max_queue=0)


class TestSubmitRaces:
    """The old submit() read qsize() and _shutdown without a lock, so
    concurrent submits could overshoot the bound or enqueue into a
    shut-down pool.  These hammer the atomic put_nowait path."""

    def test_concurrent_submits_never_overshoot_bound(self):
        from repro.server.pools import PoolOverloadedError

        pool = ThreadPool("t", 1, max_queue=5)
        release = threading.Event()
        pool.submit(lambda _x: release.wait(timeout=30), None)
        deadline = time.time() + 5
        while pool.busy != 1 and time.time() < deadline:
            time.sleep(0.01)
        assert pool.busy == 1  # the blocker is running, queue is empty

        admitted = []
        admitted_lock = threading.Lock()
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait(timeout=5)
            for _ in range(50):
                try:
                    pool.submit(lambda _x: None, None)
                except PoolOverloadedError:
                    continue
                with admitted_lock:
                    admitted.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # With the worker blocked, nothing drains: exactly max_queue
        # submissions may succeed, never one more.
        assert len(admitted) == 5
        assert pool.queue_length == 5
        assert pool.rejected == 8 * 50 - 5
        release.set()
        pool.shutdown()

    def test_concurrent_submit_and_shutdown(self):
        from repro.server.pools import PoolOverloadedError

        for _ in range(10):
            pool = ThreadPool("t", 2, max_queue=4)
            barrier = threading.Barrier(5)
            outcomes = []
            outcomes_lock = threading.Lock()

            def submitter():
                barrier.wait(timeout=5)
                for _ in range(20):
                    try:
                        pool.submit(lambda _x: None, None)
                        result = "ok"
                    except PoolOverloadedError:
                        result = "full"
                    except RuntimeError:
                        result = "shutdown"
                    with outcomes_lock:
                        outcomes.append(result)

            def stopper():
                barrier.wait(timeout=5)
                pool.shutdown(wait=False)

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            threads.append(threading.Thread(target=stopper))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            # Every submit resolved one of the three ways; none crashed
            # a worker or slipped into the closed queue unnoticed.
            assert len(outcomes) == 80
            with pytest.raises(RuntimeError):
                pool.submit(lambda _x: None, None)


class _Feed:
    """Stands in for the reactor's ``take``: hands each waiting worker
    the next task put here, or ``None`` (read your queue)."""

    def __init__(self, log=None):
        self._tasks = queue.SimpleQueue()
        self.waiting = threading.Semaphore(0)
        self._log = log if log is not None else []

    def take(self, queued):
        if queued():
            return None
        self._log.append("take")
        self.waiting.release()
        return self._tasks.get()

    def put(self, task):
        self._tasks.put(task)


class TestTakenTasks:
    def test_taken_task_skips_the_queue_and_its_bound(self):
        feed = _Feed()
        pool = ThreadPool("t", 2, max_queue=1, take=feed.take)
        running = threading.Event()
        release = threading.Event()
        seen = []

        def hold(_item):
            seen.append((pool.busy, pool.queue_length))
            running.set()
            release.wait(timeout=5)

        try:
            for _ in range(2):
                assert feed.waiting.acquire(timeout=5)
            # Both workers wait in take(): spare, not busy.
            assert (pool.spare, pool.busy, pool.queue_length) == (2, 0, 0)
            feed.put((hold, "taken"))
            assert running.wait(timeout=5)
            assert seen == [(1, 0)]
            # The taken task holds no slot of max_queue.
            ran = threading.Event()
            pool.submit(lambda _x: ran.set(), None)
            with pytest.raises(PoolOverloadedError):
                pool.submit(lambda _x: None, None)
            assert pool.queue_length == 1
            # None from take sends the other worker to its queue.
            feed.put(None)
            assert ran.wait(timeout=5)
            assert pool.queue_length == 0
        finally:
            release.set()
            feed.put(None)
            feed.put(None)
            pool.shutdown()
        assert pool.tasks_completed == 2

    def test_worker_with_queued_work_does_not_take(self):
        log = []
        feed = _Feed(log)
        pool = ThreadPool("t", 1, take=feed.take)
        gate = threading.Event()
        second = threading.Event()
        try:
            assert feed.waiting.acquire(timeout=5)
            # One taken task holds the worker while two queue behind it.
            feed.put((lambda _x: (log.append("taken"),
                                  gate.wait(timeout=5)), None))
            pool.submit(log.append, 1)
            pool.submit(lambda item: (log.append(item), second.set()), 2)
            gate.set()
            assert second.wait(timeout=5)
            # The worker went back to take() only once its queue was empty.
            assert log[:4] == ["take", "taken", 1, 2]
        finally:
            feed.put(None)
            pool.shutdown()
