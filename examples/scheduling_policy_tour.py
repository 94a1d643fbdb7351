"""A guided tour of the scheduling policy's pieces (paper §3).

Walks through classification, measurement feedback, Table 1 dispatch,
the treserve dynamics, and the declarative stage pipeline the servers
are built from — all via the library's public API directly, with no
sockets and no simulator.  Useful as executable documentation of
:mod:`repro.core` and :mod:`repro.server.pipeline`.

Run:  python examples/scheduling_policy_tour.py
"""

from repro.core import (
    PolicyConfig,
    RequestClass,
    SchedulingPolicy,
)
from repro.core.dispatch import DynamicPoolChoice


def show(title: str) -> None:
    print()
    print(f"--- {title} " + "-" * max(0, 60 - len(title)))


def main() -> None:
    policy = SchedulingPolicy(PolicyConfig(
        general_pool_size=80, lengthy_pool_size=20, minimum_reserve=20,
        lengthy_cutoff=2.0,
    ))

    show("1. Header parsing classifies from the request line (§3.2)")
    for target in ("/img/flowers.gif", "/homepage?userid=5&popups=no",
                   "/style.css?v=2", "/best_sellers?subject=ARTS"):
        klass = policy.classify(target)
        print(f"   GET {target:38s} -> {klass.value}")

    show("2. Unknown dynamic pages start as quick")
    print(f"   /best_sellers classifies as "
          f"{policy.classify('/best_sellers').value!r} before any "
          f"measurement")

    show("3. Data-generation times feed the classifier (§3.3)")
    for sample in (4.2, 3.8, 4.5):
        policy.record_generation_time("/best_sellers?subject=ARTS", sample)
    mean = policy.tracker.mean_time("/best_sellers")
    print(f"   after samples 4.2s, 3.8s, 4.5s: mean {mean:.2f}s "
          f"(> 2.0s cutoff)")
    print(f"   /best_sellers now classifies as "
          f"{policy.classify('/best_sellers').value!r}")
    assert policy.classify("/best_sellers") is RequestClass.LENGTHY_DYNAMIC

    show("4. Table 1: dispatch depends on tspare vs treserve")
    print(f"   treserve = {policy.treserve} (the configured minimum)")
    for tspare in (35, 20, 5):
        choice = policy.route("/best_sellers", tspare=tspare)
        rule = "tspare > treserve" if tspare > policy.treserve else (
            "tspare <= treserve"
        )
        print(f"   lengthy request, tspare={tspare:2d} ({rule:18s}) "
              f"-> {choice.value} pool")
    quick = policy.route("/homepage", tspare=0)
    assert quick is DynamicPoolChoice.GENERAL
    print("   quick request, tspare= 0 (always)             "
          "-> general pool")

    show("5. The once-per-second treserve update (Table 2)")
    print(f"   {'tick':>4s} {'tspare':>7s} {'treserve':>9s} {'delta':>6s}")
    for tick, tspare in enumerate([35, 24, 17, 21, 30, 36, 38, 37, 35, 39],
                                  start=1):
        before = policy.treserve
        delta = policy.tick(tspare)
        print(f"   {tick:3d}s {tspare:7d} {before:9d} {delta:+6d}")
    print("   (identical to the paper's Table 2)")

    show("6. A spike pins tspare low; the reserve climbs, bounded")
    for _ in range(6):
        policy.tick(tspare=0)
    print(f"   after six zero-spare ticks: treserve = {policy.treserve} "
          f"(capped below the general pool size of "
          f"{policy.config.general_pool_size})")
    for _ in range(80):
        policy.tick(tspare=80)  # the pool is fully idle again
    print(f"   after the spike clears: treserve decays to "
          f"{policy.treserve}")

    show("7. The topology itself is configuration (stage pipeline)")
    demo_stage_pipeline()


def demo_stage_pipeline() -> None:
    """The servers are stage graphs over ``repro.server.pipeline``:
    a list of Stage declarations, an entry point, and handlers that
    return route/complete outcomes.  Here is a miniature two-stage
    graph driven without any sockets, showing the per-hop lifecycle
    record every request carries."""
    import threading

    from repro.http.response import HTTPResponse
    from repro.server import Complete, Pipeline, RouteTo, Stage
    from repro.server.stats import ServerStats

    done = threading.Event()

    class StubClient:  # the pipeline only needs these four methods
        closed = False

        def send_response(self, response, keep_alive):
            done.set()
            return 1

        def close(self):
            pass

        close_after_error = close

    captured = {}

    def parse(job):
        job.page_key = "/demo"
        return RouteTo("serve")

    def serve(job):
        captured["job"] = job
        return Complete(HTTPResponse.html("<demo>"))

    stats = ServerStats()
    pipeline = Pipeline(
        [Stage("parse", size=1, handler=parse),
         Stage("serve", size=2, handler=serve)],
        stats=stats, clock=stats.clock,
        on_park=lambda client: None,
    )
    print(f"   stage graph: {' -> '.join(pipeline.stage_names())}")
    pipeline.dispatch(StubClient())
    done.wait(timeout=5)
    pipeline.shutdown()
    for hop in captured["job"].lifecycle.hops:
        print(f"   hop {hop.stage:6s}: queued {hop.queue_wait*1e6:6.0f}us, "
              f"service {hop.service*1e6:6.0f}us")
    print("   (StagedServer declares the paper's five stages this way;")
    print("    BaselineServer is the same core with a single stage, and")
    print("    ablations like render_inline=True just drop a stage.)")


if __name__ == "__main__":
    main()
