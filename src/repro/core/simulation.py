"""The :class:`Simulation`: wiring, traffic generation and the run loop.

A simulation owns one event queue, one topology, one router per topology
position (wired through their bidirectional ports), one routing mechanism,
one traffic pattern and one stats collector.  ``run()`` executes
``warmup + measure`` cycles with a deadlock watchdog and returns a
:class:`repro.core.results.SimulationResult`.
"""

from __future__ import annotations

from math import log

from repro.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.engine import OP_GEN, EventQueue
from repro.engine.kernel import (
    make_packet,
    next_gap,
    prebuild_records,
    resolve_backend,
)
from repro.engine.soa import SoAStore
from repro.errors import OracleError, SimulationError
from repro.hardware.packet import Packet
from repro.hardware.router import Router
from repro.metrics.collector import StatsCollector
from repro.metrics.oracle import SimOracle
from repro.routing.factory import make_routing
from repro.topology.dragonfly import DragonflyTopology
from repro.traffic.patterns import make_traffic
from repro.utils.rng import geometric_gap, make_rng, split_seed

__all__ = ["Simulation", "run_simulation"]

# RNG sub-stream ids (see repro.utils.rng.split_seed)
_STREAM_TRAFFIC = 1
_STREAM_ROUTING = 2
_STREAM_PATTERN = 3

# ----------------------------------------------------------------------
# Topology warm-start cache (engine-level; multiplies every speedup by
# sweep width).  DragonflyTopology is config-pure: every table is
# precomputed in __init__ from (NetworkConfig, arrangement_seed) and
# nothing mutates it afterwards (routers and mechanisms only read), so
# one instance can back any number of simulations.  NetworkConfig is a
# frozen dataclass, so the (config, seed) tuple key has exactly the
# same identity semantics as the topology sub-config digest.  The cache
# is per process — each Runner worker warms it once per topology and
# every later cell of the sweep skips construction.  The arrangement
# seed is part of the key only for the ``random`` arrangement, the one
# it influences, so palmtree/consecutive cells of any seed share one
# instance.
_TOPO_CACHE: dict[tuple, DragonflyTopology] = {}
_TOPO_CACHE_MAX = 8  # a sweep rarely mixes topologies; keep it tiny


def _shared_topology(network, arrangement_seed: int) -> DragonflyTopology:
    """The cached topology for *network* + *arrangement_seed*."""
    key = (network, arrangement_seed if network.arrangement == "random" else 0)
    topo = _TOPO_CACHE.get(key)
    if topo is None:
        if len(_TOPO_CACHE) >= _TOPO_CACHE_MAX:
            # FIFO eviction: insertion order approximates sweep order.
            _TOPO_CACHE.pop(next(iter(_TOPO_CACHE)))
        topo = DragonflyTopology(network, arrangement_seed=arrangement_seed)
        _TOPO_CACHE[key] = topo
    return topo


class Simulation:
    """One fully wired Dragonfly simulation instance."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        engine_backend: str | None = None,
    ) -> None:
        self.config = config
        self.engine = EventQueue()
        # Engine backend (see repro.engine.kernel): the explicit argument
        # wins over REPRO_ENGINE_BACKEND; the default 'auto' degrades to
        # the pure-Python kernel when the compiled extension is absent.
        # Deliberately NOT part of SimulationConfig: backends are
        # bit-identical by contract, so the backend is an execution
        # detail and must not perturb config digests/serialisation.
        backend = resolve_backend(engine_backend)
        self.engine_backend = backend.name
        self.topo = _shared_topology(
            config.network, split_seed(config.seed, 7)
        )
        self.rng_traffic = make_rng(split_seed(config.seed, _STREAM_TRAFFIC))
        self.rng_routing = make_rng(split_seed(config.seed, _STREAM_ROUTING))
        self.stats = StatsCollector(
            config.warmup_cycles,
            config.total_cycles,
            self.topo.num_routers,
            self.topo.num_nodes,
            typed=backend.typed,
        )

        # Structure-of-arrays store for the hot router state (flat typed
        # buffers for the compiled backend, flat lists for the Python
        # one), then the router views that fill their segments.
        rc = config.router
        self.soa = SoAStore(
            self.topo.num_routers,
            self.topo.radix,
            max(rc.local_vcs, rc.global_vcs, 1),
            self.topo.groups,
            self.topo.h,
            typed=backend.typed,
        )

        # Routers and wiring.
        self.routers = [Router(self, rid) for rid in range(self.topo.num_routers)]
        self.soa.routers = self.routers
        self._wire()
        if backend.name != "python":
            self.engine.bind_backend(backend, self.soa)

        # Routing mechanism (needs self.routers for PiggyBack state).
        self.routing = make_routing(config.routing, self)

        # Traffic.  Time-varying scenario patterns read the engine clock.
        self.traffic = make_traffic(
            config.traffic, self.topo, seed=split_seed(config.seed, _STREAM_PATTERN)
        )
        self.traffic.bind_clock(self.engine)
        self.oracle = SimOracle(self.traffic) if config.oracle else None
        self._gen_prob = config.traffic.load / config.traffic.packet_size
        # Precomputed log(1 - p) for the generators' gap draw
        # (kernel.next_gap: same division as utils.rng.geometric_gap, so
        # the sampled gaps are bit-identical; None when p == 1).
        self._log_q = log(1.0 - self._gen_prob) if self._gen_prob < 1.0 else None
        self._pid = 0
        self._num_nodes = self.topo.num_nodes
        self._end_time = config.total_cycles
        # node -> (its router, its node port): saves two divmods per
        # generated packet in the generator activation, and one constant
        # (OP_GEN, node) record per node so rescheduling never allocates.
        p = self.topo.p
        self._inject_map = [
            (self.routers[node // p], node % p)
            for node in range(self.topo.num_nodes)
        ]
        self._gen_recs = [(OP_GEN, node) for node in range(self.topo.num_nodes)]

        # Contention-free hop service costs for the latency ledger.
        psize = config.traffic.packet_size
        pipe = config.router.pipeline_latency
        net = config.network
        self._c_local = pipe + psize + net.local_link_latency
        self._c_global = pipe + psize + net.global_link_latency
        self._c_eject = pipe + psize + net.node_link_latency
        self._psize = psize
        # Dense minimal-path base-latency table, built once per topology
        # + cost triple and shared through the _TOPO_CACHE warm start
        # (replaces the old unbounded per-simulation dict memo; the
        # lowered C generator indexes the same table directly).
        self._ms_table = self.topo.min_service_table(
            self._c_local, self._c_global, self._c_eject
        )

        # Lowered OP_GEN / OP_DELIVER: the compiled kernel generates and
        # sinks natively (c_gen / c_deliver in _ckernel.c, twins of
        # _gen_event and the collector's hooks) from the pattern's lowering
        # descriptor, kept here.  Selected by the cell itself: the compiled
        # backend, a static pattern with a descriptor and no oracle.  None
        # — every cell of the python backend, every other compiled cell —
        # runs the callback path below.
        self._lower = None
        if backend.name != "python" and self.oracle is None:
            self._lower = self.traffic.lower()
        # The pattern instance the descriptor was taken from: replacing
        # ``sim.traffic`` after construction (tests, custom patterns)
        # invalidates the lowering, which start() detects and undoes.
        self._lower_src = self.traffic if self._lower is not None else None
        self.bind_routing(self.routing)

        # Phase-boundary hooks: the queue dispatches ejections (OP_DELIVER)
        # into the collector (directly when no oracle audits deliveries)
        # and generator activations (OP_GEN) into `_gen_event` — no
        # per-event callback tuples on either path.  A lowered cell hands
        # the queue itself, which the compiled kernel reads when it builds
        # its state.
        self.engine.bind_sink(
            self.stats.on_delivery if self.oracle is None else self.deliver
        )
        self.engine.bind_gen(self._gen_event)
        if self._lower is not None:
            self.engine._lower = self

        # Deadlock watchdog state.
        self._watch_delivered = -1

    # ------------------------------------------------------------------
    def _wire(self) -> None:
        """Connect every bidirectional local/global port to its peer."""
        topo = self.topo
        for rid, router in enumerate(self.routers):
            g, i = divmod(rid, topo.a)
            for port in range(topo.first_local_port, topo.first_global_port):
                j = topo.local_port_target(i, port)
                peer = self.routers[topo.router_id(g, j)]
                peer_port = topo.local_port(j, i)
                router.out_peer[port] = (peer, peer_port)
                router.upstream[port] = (peer, peer_port)
            for port in range(topo.first_global_port, topo.radix):
                pg, pi, pport = topo.global_port_peer(g, i, port)
                peer = self.routers[topo.router_id(pg, pi)]
                router.out_peer[port] = (peer, pport)
                router.upstream[port] = (peer, pport)
        for router in self.routers:
            prebuild_records(router)

    def bind_routing(self, routing) -> None:
        """Make *routing* the mechanism of this simulation's routers.

        The one place that binds a mechanism — and the stats injection
        callback — to the routers, which is where both kernels read
        them.  Only the mechanism's ``decide`` is ever called: the hop
        bookkeeping is the kernels' own.
        """
        self.routing = routing
        on_injection = self.stats.on_injection
        for r in self.routers:
            r.routing = routing
            r._on_injection = on_injection

    # ------------------------------------------------------------------
    # traffic generation
    # ------------------------------------------------------------------
    _make_packet = make_packet  # kernel's one constructor, as a method

    def _gen_event(self, node: int) -> None:
        """Generator activation (OP_GEN): one Bernoulli-process firing."""
        now = self.engine.now
        if now >= self._end_time:
            return
        rng = self.rng_traffic
        dst = self.traffic.dest(node, rng)
        if dst is not None:
            # Engine-boundary contract: a non-None destination must be a
            # valid foreign node id (see repro.traffic.base); None means
            # "generate nothing this cycle" and is always legal.
            if dst == node or dst < 0 or dst >= self._num_nodes:
                raise SimulationError(
                    f"traffic pattern {self.traffic.name!r} returned invalid "
                    f"destination {dst} for source node {node} "
                    f"(valid: [0, {self._num_nodes}) excluding the source)"
                )
            pkt = make_packet(self, node, dst, now)
            self.stats.on_generate(now, pkt.size)
            if self.oracle is not None:
                self.oracle.on_generate(pkt)
            router, node_port = self._inject_map[node]
            router.inject(node_port, pkt, now)
        self.engine.post(now + next_gap(rng, self._log_q), self._gen_recs[node])

    # ------------------------------------------------------------------
    def deliver(self, pkt: Packet, now: int) -> None:
        """Sink callback: a packet's tail reached its destination node."""
        self.stats.on_delivery(pkt, now)
        if self.oracle is not None:
            self.oracle.on_delivery(pkt, now)

    # ------------------------------------------------------------------
    def _watchdog(self) -> None:
        delivered = self.stats.total_delivered
        in_flight = self.stats.in_flight()
        if delivered == self._watch_delivered and in_flight > 0:
            raise SimulationError(
                f"deadlock suspected at cycle {self.engine.now}: "
                f"{in_flight} packets in flight but no delivery "
                f"for {self.config.deadlock_cycles} cycles "
                f"(routing={self.config.routing}, "
                f"pattern={self.config.traffic.pattern}, "
                f"load={self.config.traffic.load})"
            )
        self._watch_delivered = delivered
        if self.engine.now < self._end_time:
            self.engine.schedule(self.config.deadlock_cycles, self._watchdog)

    # ------------------------------------------------------------------
    def _unlower(self) -> None:
        """Drop the lowered fast path: OP_GEN / OP_DELIVER go to the hooks.

        Called by :meth:`start` when ``self.traffic`` is no longer the
        pattern instance the lowering descriptor was taken from — the
        replacement's ``dest()``/``active()`` must be consulted, so the
        run falls back to the (bit-identical) callback path — and by the
        equivalence tests, which use the callback path as the reference.
        Must run before the first drain, i.e. before the compiled kernel
        caches its state.
        """
        self._lower = None
        self._lower_src = None
        self.engine._lower = None

    def start(self) -> None:
        """Post the initial generator/watchdog records (no stepping yet)."""
        if self._lower is not None and self.traffic is not self._lower_src:
            self._unlower()
        # Desynchronised start: each node's Bernoulli process begins at an
        # independently drawn geometric offset, as if it had been running
        # before cycle 0.
        for node in range(self.topo.num_nodes):
            if not self.traffic.active(node):
                continue
            offset = geometric_gap(self.rng_traffic, self._gen_prob) - 1
            self.engine.post(offset, self._gen_recs[node])
        self.engine.schedule(self.config.deadlock_cycles, self._watchdog)

    def run(self) -> SimulationResult:
        """Execute the configured warmup + measurement and collect results."""
        self.start()
        self.engine.run_until(self._end_time)
        return self._collect()

    def _collect(self) -> SimulationResult:
        """Post-horizon oracle audit + result assembly (end of run())."""
        oracle_verdict = None
        if self.oracle is not None:
            self._drain()
            oracle_verdict = self.oracle.verify(self).to_dict()
        # The run is over: drop the compiled kernel's cached state.  Its
        # capsule owns strong references to the routers and is invisible
        # to the cycle collector, so keeping it would make engine ->
        # capsule -> routers -> sim -> engine uncollectable and leak
        # every Simulation.  (A later drain rebuilds it on demand.)
        self.engine._ckstate = None

        stats = self.stats
        latency = stats.latency
        return SimulationResult(
            config=self.config,
            routing=self.config.routing,
            pattern=self.traffic.name,
            offered_load=stats.offered_load(),
            accepted_load=stats.accepted_load(),
            avg_latency=latency.mean,
            latency_std=latency.std,
            max_latency=latency.max if latency.n else 0.0,
            latency_breakdown=stats.breakdown.means(),
            delivered_packets=stats.delivered_packets,
            generated_packets=stats.generated_packets,
            injected_per_router=list(stats.injected_per_router),
            delivered_per_router=list(stats.delivered_per_router),
            in_flight_at_end=stats.in_flight(),
            events_processed=self.engine.processed,
            oracle=oracle_verdict,
        )

    def _drain(self) -> None:
        """Flush the network after the horizon so the oracle can audit it.

        Generators stop rescheduling at ``_end_time`` and no component
        self-perpetuates, so the event queue empties once every in-flight
        packet lands.  A queue still busy ``deadlock_cycles`` past the
        horizon means something is stuck or leaking events — that is an
        oracle failure in its own right.
        """
        limit = self._end_time + self.config.deadlock_cycles
        if not self.engine.drain(limit):
            raise OracleError(
                f"network failed to drain within {self.config.deadlock_cycles}"
                f" cycles past the horizon: {self.engine.pending} events "
                f"still pending, {self.stats.in_flight()} packets in flight "
                f"(routing={self.config.routing}, "
                f"pattern={self.traffic.name}, "
                f"load={self.config.traffic.load})"
            )

    def close(self) -> None:
        """Break this run's reference cycles, so dropping it frees it at once.

        A wired simulation is one large reference cycle: every router
        names its peers (``out_peer`` / ``upstream``) and sits inside its
        own prebuilt records and in ``soa.routers``, the queue calls back
        into the simulation (``_gen``, ``_lower``, the watchdog's
        ``OP_CALL`` record) and the mechanism holds it (``routing.sim``).
        Left alone, only the cycle collector's older generations can free
        it, in passes that also traverse everything still alive.  This
        drops the compiled kernel's cached state, clears every router
        (:meth:`Router.close <repro.hardware.router.Router.close>`) and
        then every attribute of the simulation, after which reference
        counting frees the run as soon as the caller lets go of it.

        The object is unusable afterwards; closing twice is harmless.
        :func:`run_simulation` closes its simulation.  :meth:`run` and
        :meth:`_collect` do not, because callers of a simulation they
        built inspect its routers, queues and calendar after the run; the
        :class:`SimulationResult` holds copies only, so it survives this.
        """
        if not self.__dict__:
            return
        self.engine._ckstate = None
        for router in self.routers:
            router.close()
        self.__dict__.clear()


def run_simulation(
    config: SimulationConfig,
    *,
    engine_backend: str | None = None,
) -> SimulationResult:
    """Build, run and close one simulation; return its result.

    The simulation is closed (:meth:`Simulation.close`) whether the run
    returns or raises, so a process running cell after cell — a
    :class:`~repro.exec.runner.Runner` worker, the daemon, the CLI —
    frees each one by reference counting instead of leaving it to the
    cycle collector.  Build a :class:`Simulation` directly to inspect
    its state after the run.
    """
    sim = Simulation(config, engine_backend=engine_backend)
    try:
        return sim.run()
    finally:
        sim.close()
