"""Unit tests for the declarative stage-pipeline core.

These drive a :class:`Pipeline` directly with a fake client — no
sockets — so routing, lifecycle timing, overload mapping, and shutdown
semantics are each testable in isolation from any server topology.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.classifier import RequestClass
from repro.server.pipeline import (
    DONE,
    Complete,
    Fail,
    Pipeline,
    RequestJob,
    RequestLifecycle,
    RouteTo,
    Stage,
)
from repro.server.pools import PoolOverloadedError
from repro.server.stats import ServerStats
from repro.http.response import HTTPResponse


class FakeClient:
    """Just enough of ClientConnection for the pipeline's terminal paths."""

    def __init__(self):
        self.responses = []
        self.closed = False
        self.error_closed = False
        self.done = threading.Event()

    def send_response(self, response, keep_alive):
        self.responses.append((response, keep_alive))
        self.done.set()
        return len(response.serialize()) if hasattr(response, "serialize") \
            else 1

    def close(self):
        self.closed = True
        self.done.set()

    def close_after_error(self):
        self.error_closed = True
        self.closed = True
        self.done.set()


def make_request(keep_alive=False, method="GET"):
    return SimpleNamespace(keep_alive=keep_alive, method=method)


def build_pipeline(stages, entry, on_park=None, max_queue=None):
    stats = ServerStats()
    parked = []
    pipeline = Pipeline(
        stages, entry=entry, stats=stats, clock=stats.clock,
        on_park=on_park if on_park is not None else parked.append,
        max_queue=max_queue,
    )
    return pipeline, stats, parked


def wait(client, timeout=5.0):
    assert client.done.wait(timeout), "pipeline never finished the job"


class TestRoutingAndCompletion:
    def test_two_stage_route_then_complete(self):
        def first(job):
            job.page_key = "/page"
            job.request_class = RequestClass.QUICK_DYNAMIC
            return RouteTo("second")

        def second(job):
            return Complete(HTTPResponse.html("<done>"))

        pipeline, stats, _ = build_pipeline(
            [Stage("first", 1, first), Stage("second", 1, second)], "first"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            response, keep_alive = client.responses[0]
            assert response.body == b"<done>"
            assert keep_alive is False
            assert client.closed  # no request => no keep-alive
            # Give the completion recording (same thread, right before
            # close) no chance to race: it happened before send.
            assert stats.completions() == {"/page": 1}
            summary = stats.stage_timing_summary()
            assert set(summary) == {"first", "second"}
            assert summary["first"]["service"]["count"] == 1
        finally:
            pipeline.shutdown()

    def test_lifecycle_records_every_hop(self):
        seen = {}

        def first(job):
            return RouteTo("second")

        def second(job):
            seen["job"] = job
            return Complete(HTTPResponse.html("x"))

        pipeline, _, _ = build_pipeline(
            [Stage("first", 1, first), Stage("second", 1, second)], "first"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            # The completing hop's timing is recorded before terminal
            # actions run, so by send time both hops are present.
            hops = seen["job"].lifecycle.hops
            assert [hop.stage for hop in hops] == ["first", "second"]
            assert all(hop.queue_wait >= 0 for hop in hops)
            assert all(hop.service >= 0 for hop in hops)
            total = seen["job"].lifecycle
            assert total.total_queue_wait() == pytest.approx(
                sum(h.queue_wait for h in hops))
            assert total.total_service() == pytest.approx(
                sum(h.service for h in hops))
        finally:
            pipeline.shutdown()

    def test_fail_outcome_sends_error_and_closes(self):
        pipeline, stats, _ = build_pipeline(
            [Stage("only", 1, lambda job: Fail(400, "bad"))], "only"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            response, keep_alive = client.responses[0]
            assert response.status == 400
            assert keep_alive is False
            assert client.error_closed
            assert stats.total_completions() == 0
        finally:
            pipeline.shutdown()

    def test_done_outcome_touches_nothing(self):
        def handler(job):
            job.client.close()
            return DONE

        pipeline, stats, _ = build_pipeline(
            [Stage("only", 1, handler)], "only"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            assert client.responses == []
            assert client.closed
        finally:
            pipeline.shutdown()

    def test_handler_exception_becomes_500(self):
        def handler(job):
            raise RuntimeError("stage exploded")

        pipeline, _, _ = build_pipeline([Stage("only", 1, handler)], "only")
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            response, _ = client.responses[0]
            assert response.status == 500
            assert b"RuntimeError" in response.body
        finally:
            pipeline.shutdown()

    def test_non_outcome_return_becomes_500(self):
        pipeline, _, _ = build_pipeline(
            [Stage("only", 1, lambda job: "oops")], "only"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            response, _ = client.responses[0]
            assert response.status == 500
        finally:
            pipeline.shutdown()

    def test_route_to_unknown_stage_is_500_not_leak(self):
        pipeline, _, _ = build_pipeline(
            [Stage("only", 1, lambda job: RouteTo("missing"))], "only"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            response, _ = client.responses[0]
            assert response.status == 500
            assert client.error_closed
        finally:
            pipeline.shutdown()


class TestKeepAlive:
    def test_keep_alive_parks_via_hook(self):
        def handler(job):
            job.request = make_request(keep_alive=True)
            return Complete(HTTPResponse.html("x"))

        pipeline, _, parked = build_pipeline(
            [Stage("only", 1, handler)], "only"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            assert parked == [client]
            assert not client.closed
        finally:
            pipeline.shutdown()

    def test_after_stop_accepting_closes_instead(self):
        def handler(job):
            job.request = make_request(keep_alive=True)
            return Complete(HTTPResponse.html("x"))

        pipeline, _, parked = build_pipeline(
            [Stage("only", 1, handler)], "only"
        )
        try:
            pipeline.stop_accepting()
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            assert parked == []
            assert client.closed
        finally:
            pipeline.shutdown()

    def test_head_strip_on_completion(self):
        def handler(job):
            job.request = make_request(method="HEAD")
            return Complete(HTTPResponse.html("<body-bytes>"))

        pipeline, _, _ = build_pipeline([Stage("only", 1, handler)], "only")
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            response, _ = client.responses[0]
            assert response.body == b""
            assert response.headers["Content-Length"] == "12"
        finally:
            pipeline.shutdown()


class TestBackpressure:
    def test_internal_overload_becomes_503(self):
        release = threading.Event()

        def slow(job):
            release.wait(5)
            return Complete(HTTPResponse.html("x"))

        pipeline, stats, _ = build_pipeline(
            [Stage("slow", 1, slow)], "slow", max_queue=1
        )
        try:
            # Occupy the worker, then fill the queue of 1.
            busy, queued = FakeClient(), FakeClient()
            pipeline.dispatch(busy)
            deadline = time.time() + 5
            while pipeline.pool("slow").busy < 1 and time.time() < deadline:
                time.sleep(0.005)
            pipeline.dispatch(queued)
            # An *internal* hop to the full stage maps to a 503.
            overflow = FakeClient()
            job = RequestJob(client=overflow,
                             lifecycle=RequestLifecycle(0.0))
            pipeline.submit("slow", job)
            wait(overflow)
            response, _ = overflow.responses[0]
            assert response.status == 503
            assert overflow.error_closed
        finally:
            release.set()
            pipeline.shutdown()

    def test_entry_overload_propagates_to_caller(self):
        release = threading.Event()

        def slow(job):
            release.wait(5)
            return Complete(HTTPResponse.html("x"))

        pipeline, _, _ = build_pipeline(
            [Stage("slow", 1, slow)], "slow", max_queue=1
        )
        try:
            pipeline.dispatch(FakeClient())
            deadline = time.time() + 5
            while pipeline.pool("slow").busy < 1 and time.time() < deadline:
                time.sleep(0.005)
            pipeline.dispatch(FakeClient())
            # The reactor owns the entry point's 503, so dispatch lets
            # the overload propagate.
            with pytest.raises(PoolOverloadedError):
                pipeline.dispatch(FakeClient())
        finally:
            release.set()
            pipeline.shutdown()

    def test_submit_after_shutdown_closes_quietly(self):
        pipeline, _, _ = build_pipeline(
            [Stage("only", 1, lambda job: DONE)], "only"
        )
        pipeline.shutdown()
        client = FakeClient()
        job = RequestJob(client=client, lifecycle=RequestLifecycle(0.0))
        pipeline.submit("only", job)
        assert client.closed
        assert client.responses == []

    def test_every_stage_takes_the_pipeline_bound(self):
        pipeline, _, _ = build_pipeline(
            [Stage("a", 1, lambda job: DONE),
             Stage("b", 1, lambda job: DONE)],
            "a", max_queue=3,
        )
        try:
            assert pipeline.pool("a").max_queue == 3
            assert pipeline.pool("b").max_queue == 3
        finally:
            pipeline.shutdown()


class TestCrashContainment:
    """Regressions for the late-completion path: a worker crash after
    a job was routed (or already finished) must not double-record
    stats, close a connection that now belongs downstream, or re-park
    a dead socket."""

    @staticmethod
    def resilience(stats, stage, counter):
        return stats.resilience_report()["stages"][stage][counter]

    def test_second_completion_suppressed_and_counted_late(self):
        pipeline, stats, parked = build_pipeline(
            [Stage("only", 1, lambda job: DONE)], "only"
        )
        try:
            client = FakeClient()
            job = RequestJob(client=client, lifecycle=RequestLifecycle(0.0),
                            stage="only")
            job.request = make_request(keep_alive=True)
            pipeline.complete(job, HTTPResponse.html("first"))
            assert parked == [client]
            pipeline.complete(job, HTTPResponse.html("second"))
            # One transmit, one recorded completion, no second park.
            assert len(client.responses) == 1
            assert stats.total_completions() == 1
            assert parked == [client]
            assert self.resilience(stats, "only", "late_completions") == 1
        finally:
            pipeline.shutdown()

    def test_fail_after_completion_suppressed(self):
        pipeline, stats, _ = build_pipeline(
            [Stage("only", 1, lambda job: DONE)], "only"
        )
        try:
            client = FakeClient()
            job = RequestJob(client=client, lifecycle=RequestLifecycle(0.0),
                            stage="only")
            job.request = make_request()
            pipeline.complete(job, HTTPResponse.html("x"))
            pipeline.fail(job, 500, "late crash")
            assert len(client.responses) == 1
            assert not client.error_closed
            assert self.resilience(stats, "only", "late_completions") == 1
        finally:
            pipeline.shutdown()

    def test_crash_after_routing_leaves_downstream_job_alone(self):
        pipeline, stats, _ = build_pipeline(
            [Stage("first", 1, lambda job: DONE),
             Stage("second", 1, lambda job: DONE)], "first"
        )
        try:
            client = FakeClient()
            job = RequestJob(client=client, lifecycle=RequestLifecycle(0.0),
                            stage="second")  # ownership moved on submit
            pipeline._on_worker_error("first", RuntimeError("boom"), job)
            # The crashed stage no longer owns the job: the connection
            # must be untouched for the downstream stage to finish.
            assert client.responses == []
            assert not client.closed
            assert self.resilience(stats, "first", "worker_crashes") == 1
            assert self.resilience(stats, "first", "late_completions") == 1
        finally:
            pipeline.shutdown()

    def test_crash_while_owning_unfinished_job_fails_it(self):
        pipeline, stats, _ = build_pipeline(
            [Stage("only", 1, lambda job: DONE)], "only"
        )
        try:
            client = FakeClient()
            job = RequestJob(client=client, lifecycle=RequestLifecycle(0.0),
                            stage="only")
            pipeline._on_worker_error("only", RuntimeError("boom"), job)
            response, _ = client.responses[0]
            assert response.status == 500
            assert client.error_closed
            assert self.resilience(stats, "only", "worker_crashes") == 1
            assert self.resilience(stats, "only", "late_completions") == 0
        finally:
            pipeline.shutdown()

    def test_done_outcome_marks_job_finished(self):
        seen = {}

        def handler(job):
            seen["job"] = job
            job.client.close()
            return DONE

        pipeline, stats, _ = build_pipeline(
            [Stage("only", 1, handler)], "only"
        )
        try:
            client = FakeClient()
            pipeline.dispatch(client)
            wait(client)
            # A crash arriving after DONE must see finished=True and be
            # suppressed rather than resurrecting the closed socket.
            assert seen["job"].finished
            pipeline._on_worker_error("only", RuntimeError("late"),
                                      seen["job"])
            assert client.responses == []
            assert self.resilience(stats, "only", "late_completions") == 1
        finally:
            pipeline.shutdown()


class TestConstruction:
    def test_duplicate_stage_names_rejected(self):
        stats = ServerStats()
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline(
                [Stage("x", 1, lambda j: DONE),
                 Stage("x", 1, lambda j: DONE)],
                entry="x", stats=stats, clock=stats.clock,
                on_park=lambda c: None,
            )

    def test_unknown_entry_rejected(self):
        stats = ServerStats()
        with pytest.raises(ValueError, match="entry"):
            Pipeline(
                [Stage("x", 1, lambda j: DONE)],
                entry="y", stats=stats, clock=stats.clock,
                on_park=lambda c: None,
            )

    def test_empty_pipeline_rejected(self):
        stats = ServerStats()
        with pytest.raises(ValueError):
            Pipeline([], entry="x", stats=stats, clock=stats.clock,
                     on_park=lambda c: None)

    def test_stage_names_in_declaration_order(self):
        pipeline, _, _ = build_pipeline(
            [Stage("a", 1, lambda j: DONE), Stage("b", 1, lambda j: DONE)],
            "a",
        )
        try:
            assert pipeline.stage_names() == ["a", "b"]
        finally:
            pipeline.shutdown()

    def test_queue_sampling_covers_every_stage(self):
        pipeline, stats, _ = build_pipeline(
            [Stage("a", 1, lambda j: DONE), Stage("b", 1, lambda j: DONE)],
            "a",
        )
        try:
            pipeline.sample_queues()
            assert set(stats.queue_series()) == {"a", "b"}
        finally:
            pipeline.shutdown()
