"""In-memory spans around the server's layer boundaries.

The server runner calls :func:`install` before it builds the server, so
the wrappers replace the names the callers resolve (class attributes
and module-level imports) and the source tree stays untouched.  Each
wrapped call appends one span ``(name, start, end, parent, rid, tag)``
to a per-thread buffer: ``parent`` is the index of the enclosing span
on the same thread (a per-thread stack), ``rid`` the request id, which
the wrapper around ``Pipeline._execute`` assigns to the travelling
``RequestJob`` and holds for the duration of each stage hop.  Spans
stay in memory until :meth:`Tracer.summarize` and
:meth:`Tracer.write_chrome_trace` read them at the end of the run.

A layer's self time is its span time minus the time of its direct
child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

#: Spans that are the pipeline's own glue rather than a layer: a stage
#: hop (``stage.<name>``) and the completion path.  Their self time is
#: the server time no layer explains.
GLUE_PREFIXES = ("stage.", "pipeline.")

#: Spans whose per-request sum is the HTTP read time.
READ_SPANS = ("http.read_request", "http.read_request_line",
              "http.finish_request")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


class _ThreadState:
    __slots__ = ("tid", "name", "spans", "stack", "rid", "requests")

    def __init__(self, tid: int, name: str):
        self.tid = tid
        self.name = name
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.rid = 0
        #: One record per completed request: (end, page, response
        #: seconds, ((stage, queue wait, service), ...)).
        self.requests: List[tuple] = []


class Tracer:
    """Per-thread span buffers plus the wrappers that fill them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._name_ids: Dict[str, int] = {}
        self.names: List[str] = []
        self._rids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads),
                                     threading.current_thread().name)
                self._threads.append(state)
            self._local.state = state
        return state

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _run(self, nid: int, fn: Callable, args, kwargs,
             tag: Optional[Callable] = None):
        state = self._state()
        spans, stack = state.spans, state.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stack.pop()
            spans[index] = (nid, start, time.perf_counter(), parent,
                            state.rid, None)
            raise
        end = time.perf_counter()
        stack.pop()
        spans[index] = (nid, start, end, parent, state.rid,
                        tag(result) if tag is not None else None)
        return result

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             tag: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(nid, fn, args, kwargs, tag)
        return traced

    def wrap_hop(self, execute: Callable) -> Callable:
        """``Pipeline._execute``: a ``stage.<name>`` span per hop that
        tags every span inside it with the job's request id."""
        nids: Dict[str, int] = {}

        @functools.wraps(execute)
        def traced(pipeline, stage, job):
            rid = job.__dict__.get("bench_rid")
            if rid is None:
                rid = job.bench_rid = next(self._rids)
            nid = nids.get(stage.name)
            if nid is None:
                nid = nids[stage.name] = self._name_id(f"stage.{stage.name}")
            state = self._state()
            outer, state.rid = state.rid, rid
            try:
                return self._run(nid, execute, (pipeline, stage, job), {})
            finally:
                state.rid = outer
        return traced

    def wrap_complete(self, complete: Callable) -> Callable:
        """``Pipeline.complete``: a span plus one request record."""
        nid = self._name_id("pipeline.complete")

        @functools.wraps(complete)
        def traced(pipeline, job, response):
            result = self._run(nid, complete, (pipeline, job, response), {})
            self._state().requests.append((
                time.perf_counter(), job.page_key,
                pipeline.clock.now() - job.arrival,
                tuple((hop.stage, hop.queue_wait, hop.service)
                      for hop in job.lifecycle.hops),
            ))
            return result
        return traced

    # ------------------------------------------------------------------
    def summarize(self, t0: float, t1: float) -> Dict:
        """Aggregates over spans started and requests ended in [t0, t1)."""
        durations: Dict[str, List[float]] = {}
        self_seconds: Dict[str, float] = {}
        reads: Dict[int, float] = {}
        tags: Dict[str, List] = {}
        layer_self = 0.0
        for state in list(self._threads):
            spans = list(state.spans)
            children = [0.0] * len(spans)
            for span in spans:
                if span is not None and span[3] >= 0:
                    children[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                if span is None or not t0 <= span[1] < t1:
                    continue
                nid, start, end, _parent, rid, tag = span
                name = self.names[nid]
                duration = end - start
                own = duration - children[index]
                durations.setdefault(name, []).append(duration)
                self_seconds[name] = self_seconds.get(name, 0.0) + own
                if tag is not None:
                    tags.setdefault(name, []).append(tag)
                if rid and name in READ_SPANS:
                    reads[rid] = reads.get(rid, 0.0) + duration
                if rid and not name.startswith(GLUE_PREFIXES):
                    layer_self += own
        spans_out = {
            name: {
                "count": len(values),
                "total_s": sum(values),
                "self_s": self_seconds[name],
                "p50_s": percentile(values, 50),
                "p95_s": percentile(values, 95),
            }
            for name, values in durations.items()
        }
        requests = [record for state in list(self._threads)
                    for record in state.requests if t0 <= record[0] < t1]
        stages: Dict[str, Dict[str, List[float]]] = {}
        pages: Dict[str, List[float]] = {}
        queue_wait = 0.0
        for _end, page, seconds, hops in requests:
            pages.setdefault(page, []).append(seconds)
            for stage, wait, service in hops:
                entry = stages.setdefault(stage, {"wait": [], "service": []})
                entry["wait"].append(wait)
                entry["service"].append(service)
                queue_wait += wait
        server_seconds = sum(record[2] for record in requests)
        return {
            "spans": spans_out,
            "tags": {name: {str(t): values.count(t) for t in set(values)}
                     for name, values in tags.items()},
            "read_per_request_p50_s": percentile(list(reads.values()), 50),
            "requests": len(requests),
            "stages": {
                stage: {
                    "hops": len(entry["service"]),
                    "queue_wait_p95_s": percentile(entry["wait"], 95),
                    "service_p50_s": percentile(entry["service"], 50),
                    "service_p95_s": percentile(entry["service"], 95),
                }
                for stage, entry in stages.items()
            },
            "pages": {
                page: {"count": len(values),
                       "p50_s": percentile(values, 50),
                       "p95_s": percentile(values, 95)}
                for page, values in pages.items()
            },
            "server_s": server_seconds,
            "queue_wait_s": queue_wait,
            "unexplained_s": server_seconds - queue_wait - layer_self,
        }

    def write_chrome_trace(self, path: str) -> int:
        """Every span as a Chrome trace-event ``X`` event; returns the
        number of events written."""
        states = list(self._threads)
        starts = [span[1] for state in states for span in state.spans
                  if span is not None]
        origin = min(starts) if starts else 0.0
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            first = True
            for state in states:
                events = [{"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": state.tid, "args": {"name": state.name}}]
                for span in state.spans:
                    if span is None:
                        continue
                    nid, start, end, _parent, rid, _tag = span
                    name = self.names[nid]
                    events.append({
                        "name": name, "cat": name.split(".", 1)[0],
                        "ph": "X", "pid": 1, "tid": state.tid,
                        "ts": round((start - origin) * 1e6, 3),
                        "dur": round((end - start) * 1e6, 3),
                        "args": {"rid": rid},
                    })
                for event in events:
                    out.write(("" if first else ",\n") + json.dumps(event))
                    first = False
                written += len(events) - 1
            out.write("\n]}\n")
        return written


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; call before the server is built."""
    from repro.core.policy import SchedulingPolicy
    from repro.db import engine as db_engine
    from repro.db.locks import LockManager
    from repro.server import staged
    from repro.server.app import Application
    from repro.server.netbase import ClientConnection
    from repro.server.pipeline import Pipeline
    from repro.server.reactor import ConnectionReactor
    from repro.server.stats import ServerStats
    from repro.templates.engine import TemplateEngine

    def patch(owner, attribute: str, name: str, tag=None) -> None:
        setattr(owner, attribute,
                tracer.wrap(name, getattr(owner, attribute), tag))

    patch(ClientConnection, "read_request", "http.read_request")
    patch(ClientConnection, "read_request_line", "http.read_request_line")
    patch(ClientConnection, "finish_request", "http.finish_request")
    patch(ClientConnection, "send_response", "http.send_response")
    patch(ConnectionReactor, "park", "reactor.park")
    patch(SchedulingPolicy, "classify", "core.classify")
    patch(Application, "invoke", "app.invoke")
    patch(db_engine.Database, "execute_statement", "db.statement")
    # parse_sql runs only when Database.prepare misses its cache.
    patch(db_engine, "parse_sql", "db.parse")
    patch(LockManager, "acquire", "db.lock_wait")
    patch(TemplateEngine, "render", "templates.render")
    patch(staged, "serve_static", "static.serve",
          tag=lambda response: response.status)
    for attribute in dir(ServerStats):
        if attribute.startswith("record_"):
            patch(ServerStats, attribute, f"stats.{attribute}")
    Pipeline._execute = tracer.wrap_hop(Pipeline._execute)
    Pipeline.complete = tracer.wrap_complete(Pipeline.complete)
