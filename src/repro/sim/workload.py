"""Service-demand profiles and the closed-loop TPC-W workload.

A :class:`PageProfile` captures what one page *costs*: database demand
at an unloaded server, which tables its statement(s) hold shared locks
on, an optional exclusive write phase, template-render demand, and how
many embedded images a browser fetches afterwards.  The defaults below
are calibrated from profiling the real implementation
(:mod:`repro.tpcw.profile`) and scaled to the paper's operating regime:
ten inherently fast pages (index probes, a few ms), three slow pages
(scan + join + sort, hundreds of ms of *intrinsic* demand that queueing
stretches into the paper's 10–20 s under 400 clients), and
admin-response, whose UPDATE takes the ``item`` table write lock.

Everything is driven by seeded streams; runs are bit-reproducible.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.core.classifier import RequestClass
from repro.sim.kernel import Simulation
from repro.tpcw.mix import BROWSING_MIX, BrowsingMix
from repro.util.rng import RandomStream

#: Pages whose data generation is inherently lengthy (the paper's three
#: "large and very complex queries" plus the locking admin page).  Used
#: for *reporting* (Figure 10 c/d); the staged server's own dispatching
#: uses the live measured classifier, not this list.
LENGTHY_REPORT_PAGES = frozenset({
    "/best_sellers", "/new_products", "/execute_search", "/admin_response",
})


@dataclasses.dataclass(frozen=True)
class PageProfile:
    """Service demands for one dynamic page."""

    path: str
    db_demand: float                 # seconds, unloaded DB
    render_demand: float             # seconds of template rendering
    read_tables: Tuple[str, ...]     # shared locks held during the query
    write_table: Optional[str] = None  # exclusive write phase, if any
    write_demand: float = 0.0
    images: int = 2                  # embedded images fetched afterwards
    parse_demand: float = 0.0008     # header parsing CPU

    def __post_init__(self) -> None:
        if self.db_demand < 0 or self.render_demand < 0 or self.write_demand < 0:
            raise ValueError(f"profile {self.path!r} has a negative demand")
        if self.images < 0:
            raise ValueError(f"profile {self.path!r} has negative image count")
        if self.write_table is not None and self.write_demand <= 0:
            raise ValueError(
                f"profile {self.path!r} declares a write table without demand"
            )


#: Demand to serve one static image (file read + 100 Mb LAN transfer of
#: a few-KB GIF, in 2009-era Python).
STATIC_DEMAND = 0.003

#: Calibrated page profiles.  The fast/slow split mirrors the real
#: TPC-W implementation's query plans (repro/tpcw/profile.py measures
#: them; repro/tpcw/app.py writes them): ten pages are index probes or
#: appends (milliseconds), while execute-search, new-products, and
#: best-sellers scan/join/sort at the paper's 1M-book population —
#: their absolute demands here are set to land the *unmodified* server
#: in the paper's measured 11-20 s band under the 400-client closed
#: loop.  Render demands reflect 2009-era Python template rendering
#: (roughly proportional to output size); image counts reflect the
#: per-page thumbnails of our templates with TPC-W's image caching.
DEFAULT_PROFILES: Dict[str, PageProfile] = {
    profile.path: profile
    for profile in [
        PageProfile("/home", db_demand=0.012, render_demand=0.080,
                    read_tables=("item", "author", "customer"), images=6),
        PageProfile("/product_detail", db_demand=0.005, render_demand=0.036,
                    read_tables=("item", "author"), images=2),
        PageProfile("/search_request", db_demand=0.0, render_demand=0.044,
                    read_tables=(), images=1),
        PageProfile("/execute_search", db_demand=8.5, render_demand=0.160,
                    read_tables=("item", "author"), images=4),
        PageProfile("/new_products", db_demand=17.0, render_demand=0.150,
                    read_tables=("item", "author"), images=4),
        PageProfile("/best_sellers", db_demand=11.0, render_demand=0.120,
                    read_tables=("order_line", "orders", "item", "author"),
                    images=1),
        PageProfile("/shopping_cart", db_demand=0.014, render_demand=0.050,
                    read_tables=("shopping_cart", "shopping_cart_line", "item"),
                    write_table="shopping_cart_line", write_demand=0.004,
                    images=2),
        PageProfile("/customer_registration", db_demand=0.004,
                    render_demand=0.030, read_tables=("customer",), images=1),
        PageProfile("/buy_request", db_demand=0.014, render_demand=0.050,
                    read_tables=("customer", "address", "country",
                                 "shopping_cart_line", "item"), images=1),
        PageProfile("/buy_confirm", db_demand=0.022, render_demand=0.040,
                    read_tables=("customer", "shopping_cart_line", "item"),
                    write_table="shopping_cart_line", write_demand=0.005,
                    images=1),
        PageProfile("/order_inquiry", db_demand=0.0, render_demand=0.020,
                    read_tables=(), images=1),
        PageProfile("/order_display", db_demand=0.012, render_demand=0.044,
                    read_tables=("customer", "orders", "order_line", "item"),
                    images=1),
        PageProfile("/admin_request", db_demand=0.004, render_demand=0.024,
                    read_tables=("item",), images=1),
        PageProfile("/admin_response", db_demand=7.5, render_demand=0.030,
                    read_tables=("order_line", "orders", "item"),
                    write_table="item", write_demand=0.020, images=1),
    ]
}


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """One simulated TPC-W run.

    Paper defaults: 400 emulated browsers, one-hour run with the first
    and last five minutes excluded, think time 0.7–7 s, an 8-core
    database host, and a web server whose dynamic threads equal its
    database connections.
    """

    clients: int = 400
    ramp_up: float = 300.0
    measure: float = 3000.0
    cool_down: float = 300.0
    think_range: Tuple[float, float] = (0.7, 7.0)
    seed: int = 2009
    #: The database host is latency-bound (disk-seek dominated, I/O
    #: overlapped across queries) per TPC-W's disk-bound design: with
    #: far more capacity units than the web tier has connections, a
    #: query's latency is its intrinsic demand, and *connections* —
    #: not DB CPU — are the contended resource, as the paper argues.
    db_cores: int = 400
    web_cores: int = 8
    #: Baseline: thread-per-request pool; each worker pins a database
    #: connection for life, so this is also its connection count.  The
    #: paper does not report pool sizes; see DESIGN.md §6 and the A4
    #: ablation for the sensitivity of the headline gain to this value.
    baseline_workers: int = 137
    #: Staged pools: general is 4x lengthy (§3.3); the general size
    #: makes Table 2's observed tspare range (17-39) plausible.
    general_pool: int = 148
    lengthy_pool: int = 37
    header_pool: int = 8
    static_pool: int = 8
    render_pool: int = 8
    minimum_reserve: int = 4
    maximum_reserve: Optional[int] = 16
    lengthy_cutoff: float = 2.0
    #: Prime the staged server's service-time tracker from the profiles
    #: at startup (a warm start from a previous run's measurements), so
    #: the very first lengthy request is classified correctly instead
    #: of landing in the general pool.
    warm_start: bool = False
    demand_jitter: Tuple[float, float] = (0.6, 1.4)
    sample_interval: float = 1.0
    customers: int = 2880
    items: int = 1000
    mix_weights: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.measure <= 0:
            raise ValueError("measure window must be positive")
        if self.general_pool < self.minimum_reserve:
            raise ValueError(
                "minimum_reserve cannot exceed the general pool size"
            )

    @property
    def duration(self) -> float:
        return self.ramp_up + self.measure + self.cool_down

    def measuring(self, now: float) -> bool:
        """Whether ``now`` is inside the paper's measurement window:
        "the first five-minute ramp up time and the last five-minute
        cool down time are not included"."""
        return self.ramp_up <= now < self.ramp_up + self.measure

    @classmethod
    def paper(cls, **overrides) -> "WorkloadConfig":
        """The full paper-scale run (400 EBs, 50 min measured)."""
        return cls(**overrides)

    @classmethod
    def quick(cls, **overrides) -> "WorkloadConfig":
        """A scaled-down run for CI benchmarks: same structure, shorter
        window and fewer clients.  Loads the system into the same
        overloaded regime by scaling pools with the client count."""
        defaults = dict(
            clients=120,
            ramp_up=60.0,
            measure=480.0,
            cool_down=60.0,
            baseline_workers=39,
            general_pool=44,
            lengthy_pool=11,
            header_pool=4,
            static_pool=4,
            render_pool=4,
            minimum_reserve=2,
            maximum_reserve=6,
            db_cores=120,
            web_cores=8,
        )
        defaults.update(overrides)
        return cls(**defaults)


def _report_class(path: str) -> RequestClass:
    """The class a completed page counts under in Figure 10."""
    return (RequestClass.LENGTHY_DYNAMIC if path in LENGTHY_REPORT_PAGES
            else RequestClass.QUICK_DYNAMIC)


def run_tpcw_simulation(server_kind: str,
                        config: Optional[WorkloadConfig] = None,
                        profiles: Optional[Dict[str, PageProfile]] = None,
                        dispatcher=None,
                        fault_rules=None,
                        fault_seed: int = 0,
                        resilience=None):
    """Run one complete simulated TPC-W experiment.

    ``server_kind`` names the topology (see
    :data:`repro.sim.server.TOPOLOGIES`): ``"baseline"``
    (thread-per-request), ``"staged"`` (the paper's five-pool design),
    ``"staged-render-inline"`` or ``"sjf"``.  Returns the finished
    :class:`repro.sim.server.SimServer`; its ``stats`` — a
    :class:`repro.server.stats.ServerStats` on simulated time, like a
    live server's — hold everything the harness needs.  Interactions
    and generation times count only inside the measurement window
    (:meth:`WorkloadConfig.measuring`); request counts and 1 Hz samples
    span the whole run.

    ``fault_rules`` (a sequence of :class:`repro.faults.plan.FaultRule`)
    turns the run into a chaos experiment: the rules are evaluated on
    simulated time at the same injection points the live servers
    expose, with ``resilience`` (a :class:`ResilienceConfig`) governing
    deadlines, retry, and the circuit breaker.  The plan's report is
    then ``server.fault_harness.plan.fault_report()``.
    """
    from repro.sim.server import SimServer

    if config is None:
        config = WorkloadConfig()
    if profiles is None:
        profiles = DEFAULT_PROFILES
    missing = set(BROWSING_MIX) - set(profiles)
    if missing and config.mix_weights is None:
        raise ValueError(f"profiles missing for pages: {sorted(missing)}")

    sim = Simulation()
    server = SimServer(sim, config, kind=server_kind, dispatcher=dispatcher)
    if fault_rules is not None:
        from repro.sim.faults import sim_fault_plan

        server.configure_faults(
            sim_fault_plan(sim, fault_rules, seed=fault_seed), resilience)

    for index in range(config.clients):
        rng = RandomStream(config.seed, f"browser-{index}")
        mix = BrowsingMix(
            rng, customers=config.customers, items=config.items,
            weights=config.mix_weights,
        )
        sim.spawn(_browser(sim, server, mix, profiles, config, rng))
    sim.spawn(_sampler(sim, server, config))

    sim.run(until=config.duration)
    return server


def _browser(sim: Simulation, server, mix: BrowsingMix,
             profiles: Dict[str, PageProfile], config: WorkloadConfig,
             rng: RandomStream):
    """One emulated browser: page, embedded images, think, repeat."""
    # Staggered arrival over the ramp-up window.
    yield rng.uniform(0.0, max(config.ramp_up, 1.0) * 0.9)
    while sim.now < config.duration:
        path, _ = mix.next_interaction()
        profile = profiles[path]
        started = sim.now
        jitter = rng.uniform(*config.demand_jitter)
        yield server.submit_page(profile, jitter)
        for _ in range(profile.images):
            yield server.submit_static(STATIC_DEMAND)
        if config.measuring(sim.now):
            server.stats.record_interaction(path, sim.now - started)
        yield rng.think_time(*config.think_range)


def _sampler(sim: Simulation, server, config: WorkloadConfig):
    """1 Hz sampling of queues and tspare/treserve."""
    while sim.now < config.duration:
        yield config.sample_interval
        server.sample()
