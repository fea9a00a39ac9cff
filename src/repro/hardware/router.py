"""The :class:`Router`: input-output-buffered switch with VCT flow control.

Model summary:

* **Input side** — one FIFO per (port, VC).  Node (injection) ports have a
  single unbounded FIFO; local/global ports have per-VC buffers whose
  capacity is enforced *at the upstream sender* through credits.  An
  injection FIFO holds a built :class:`~repro.hardware.packet.Packet` at
  its head only: the packets generated behind it wait in the store's
  injection tail as ``(gen_time, dst)`` pairs (``SoAStore.inj_tail``), so
  a saturated node's backlog costs 8 bytes a packet.
* **Output side** — a FIFO per port drains onto the link at 1 phit/cycle
  (8 cycles per packet) after the 5-cycle pipeline; propagation latency is
  added on top.  Ejection (node) ports deliver to the simulation sink.

A ``Router`` is construction plus views: all hot per-router state lives
in the simulation-owned structure-of-arrays store
(:class:`repro.engine.soa.SoAStore`), one flat buffer per field shared by
every router and indexed ``kb + port * max_vcs + vc`` (per-key) or
``pb + port`` (per-port), where ``kb = router_id * nkeys`` and
``pb = router_id * radix`` are this router's base offsets.  The
constructor fills the router's own segments and aliases the shared
buffers as ``in_q``/``out_occ``/``credits_used``/...; the occupancy
accessors below are what the adaptive routing mechanisms read.

The pipeline itself — arrive → allocate → commit → output FIFO → link →
credit return — is defined once per backend, in
:mod:`repro.engine.kernel` (and ``_ckernel.c``); its phase handlers are
bound here as methods, so the engine's ``rec[1].arrive(...)`` dispatch and
a direct ``router.step(now)`` run the same code.  The router knows
nothing about routing policies: ``router.routing.decide(pkt, router)``,
called for every head on every pass (no Python memo; the compiled kernel
keeps its own for the C twins), is its only call into the mechanism —
hop counts, group transitions and the Valiant plan switch are router
behaviour, keeping the mechanism/microarchitecture separation of FOGSim.
The handlers are no extension point: the compiled drain runs its own and
refuses a router class whose ``step`` is not ``kernel.step``.
"""

from __future__ import annotations

from repro.engine import kernel as _kernel

__all__ = ["Router"]


class Router:
    """One Dragonfly router: a view over the simulation's SoA store.

    Wired to peers by the Simulation.  All hot state lives in
    ``sim.soa``; the attributes below alias the shared flat buffers, and
    :attr:`kb`/:attr:`pb` are this router's per-key/per-port base
    offsets into them.
    """

    __slots__ = (
        "engine",
        "topo",
        "rconf",
        "store",
        "router_id",
        "group",
        "pos",
        "radix",
        "max_vcs",
        "nkeys",
        "kb",
        "pb",
        "injection_boundary",
        "internal_cycles",
        "in_q",
        "in_occ",
        "in_cap",
        "in_port_free",
        "active_keys",
        "out_fifo",
        "out_occ",
        "out_cap",
        "switch_free",
        "link_free",
        "out_pumping",
        "credits_used",
        "credit_nvc",
        "credit_cap",
        "last_grant",
        "out_peer",
        "upstream",
        "routing",
        "_arb_time",
        "vcs_of_port",
        "_hop_cost",
        "_link_lat",
        "_local_in",
        "_global_out",
        "_num_node_ports",
        "_key_port",
        "_pipe_lat",
        "_on_injection",
        "transit_priority",
        "_psize",
        "_token",
        "_send_recs",
        "_link_recs",
        "_rel_recs",
        "_credit_recs",
        "_nb",
        "_tail",
        "_tail_head",
        "_make_packet",
    )

    def __init__(self, sim, router_id: int) -> None:
        self.engine = sim.engine
        self.topo = sim.topo
        self.rconf = sim.config.router
        topo = self.topo
        store = sim.soa
        self.store = store
        self.router_id = router_id
        self.group, self.pos = divmod(router_id, topo.a)
        self.radix = topo.radix
        rc = self.rconf
        self.max_vcs = max(rc.local_vcs, rc.global_vcs, 1)
        self.nkeys = self.radix * self.max_vcs
        kb = self.kb = router_id * store.nkeys
        pb = self.pb = router_id * self.radix
        self.injection_boundary = topo.p * self.max_vcs
        # A packet crosses the 2x-speedup crossbar in size/speedup cycles.
        psize = sim.config.traffic.packet_size
        self._psize = psize
        self.internal_cycles = max(1, -(-psize // rc.speedup))

        # ---- input side: fill this router's store segment ---------------
        self.in_q = store.in_q
        self.in_occ = store.in_occ
        self.in_cap = store.in_cap
        self.vcs_of_port = [0] * self.radix
        for port in range(self.radix):
            kind = topo.port_kind[port]
            if kind == "node":
                # unbounded injection FIFO (cap unused): a head, and
                # behind it the node's tail of (gen_time, dst) pairs
                nvc, cap = 1, 0
            elif kind == "local":
                nvc, cap = rc.local_vcs, rc.local_input_buffer
            else:
                nvc, cap = rc.global_vcs, rc.global_input_buffer
            self.vcs_of_port[port] = nvc
            for vc in range(nvc):
                gk = kb + port * self.max_vcs + vc
                self.in_q[gk] = []
                self.in_cap[gk] = cap
        self.in_port_free = store.in_port_free
        self.active_keys: set[int] = set()
        # The injection tails of this router's nodes (router_id * p + port)
        # and the constructor that promotes their pairs (kernel.promote),
        # the generator's, bound by the Simulation.
        self._nb = router_id * topo.p
        self._tail = store.inj_tail
        self._tail_head = store.inj_tail_head
        self._make_packet = None

        # ---- output side (store buffers pre-zeroed; fifo pre-built) ------
        self.out_fifo = store.out_fifo
        self.out_occ = store.out_occ
        self.out_cap = store.out_cap
        for port in range(self.radix):
            self.out_cap[pb + port] = rc.output_buffer
        self.switch_free = store.switch_free
        self.link_free = store.link_free
        self.out_pumping = store.out_pumping
        self.last_grant = store.last_grant  # pre-filled with -1

        # ---- credits toward downstream input buffers --------------------
        # credits_used[kb + port * max_vcs + vc]: phits committed into the
        # downstream buffer reached through `port` (flat layout; only the
        # first credit_nvc[pb + port] VC slots of a port are meaningful,
        # and credit_nvc is 0 for node ports, which are uncredited).
        self.credits_used = store.credits_used
        self.credit_nvc = store.credit_nvc
        self.credit_cap = store.credit_cap
        for port in range(self.radix):
            kind = topo.port_kind[port]
            if kind == "local":
                self.credit_nvc[pb + port] = rc.local_vcs
                self.credit_cap[pb + port] = rc.local_input_buffer
            elif kind == "global":
                self.credit_nvc[pb + port] = rc.global_vcs
                self.credit_cap[pb + port] = rc.global_input_buffer

        # Wired later by the Simulation:
        #   out_peer[port] = (peer_router, peer_in_port) or None for nodes
        #   upstream[port] = (peer_router, peer_out_port) or None for nodes
        self.out_peer: list[tuple["Router", int] | None] = [None] * self.radix
        self.upstream: list[tuple["Router", int] | None] = [None] * self.radix
        # Bound by Simulation.bind_routing: the mechanism, the stats hook.
        self.routing = None
        self._on_injection = None
        self.transit_priority = rc.transit_priority
        self._arb_time: int | None = None

        # key -> flat input-port index (table lookup beats a division in
        # the scan, and the stored value is already `pb + port`).
        self._key_port = store.key_port
        for k in range(self.nkeys):
            self._key_port[kb + k] = pb + k // self.max_vcs

        # Per-port constants hoisted into the store's flat buffers (the
        # kernels index them like the dynamic state).
        self._num_node_ports = topo.p
        self._link_lat = store.link_lat
        self._local_in = store.local_in
        self._global_out = store.global_out
        for port in range(self.radix):
            kind = topo.port_kind[port]
            self._link_lat[pb + port] = topo.link_latency(port)
            self._local_in[pb + port] = 1 if kind == "local" else 0
            self._global_out[pb + port] = 1 if kind == "global" else 0
        self._pipe_lat = rc.pipeline_latency

        # The prebuilt constant activation records (this router's token,
        # per-port send / link / release records, and the store's flat
        # segment of OP_CREDIT records to the upstream router, per input
        # key): filled by kernel.prebuild_records once the Simulation
        # has wired `upstream`.
        self._token = None
        self._send_recs = self._link_recs = self._rel_recs = None
        self._credit_recs = store.credit_recs

        # Contention-free per-hop service cost by port kind, used for the
        # packet latency ledger: pipeline + serialisation + propagation.
        self._hop_cost = store.hop_cost
        for port in range(self.radix):
            self._hop_cost[pb + port] = (
                rc.pipeline_latency + psize + self._link_lat[pb + port]
            )

    # ------------------------------------------------------------------
    # occupancy queries (used by adaptive routing)
    # ------------------------------------------------------------------
    def credit_frac(self, port: int, vc: int) -> float:
        """Occupied fraction of the downstream input buffer (port, vc).

        This is FOGSim's adaptive-routing congestion signal: the credit
        count of an output port, i.e. how full the *next* router's input
        buffer for the chosen VC currently is.  It stays near the
        bandwidth-delay product while traffic flows freely and only rises
        towards 1.0 under genuine downstream backpressure — which is what
        makes adaptive diversion kick in at (not below) the bottleneck's
        capacity and keeps the bottleneck links fully utilised by transit
        (the precondition of the paper's starvation effect).
        """
        gp = self.pb + port
        if not self.credit_nvc[gp]:
            return 0.0
        return (
            self.credits_used[self.kb + port * self.max_vcs + vc]
            / self.credit_cap[gp]
        )

    def out_frac(self, port: int) -> float:
        """Occupied fraction of the output FIFO behind *port*.

        The source-router misrouting trigger samples this: an output FIFO
        only backs up persistently when the downstream credit loop has
        stalled (the minimal path is saturated end-to-end), so feeders keep
        pushing minimal traffic until the bottleneck's input buffers are
        genuinely full — the supply behaviour behind the paper's
        bottleneck starvation.
        """
        gp = self.pb + port
        return self.out_occ[gp] / self.out_cap[gp]

    def port_total_occ(self, port: int) -> int:
        """Phits committed beyond this port: output FIFO + downstream credits.

        Aggregate occupancy (all VCs + output FIFO); used by diagnostics
        and the PiggyBack saturation estimate.
        """
        gp = self.pb + port
        base = self.out_occ[gp]
        nvc = self.credit_nvc[gp]
        if nvc:
            k = self.kb + port * self.max_vcs
            base += sum(self.credits_used[k : k + nvc])
        return base

    def port_total_cap(self, port: int) -> int:
        """Capacity matching :meth:`port_total_occ`."""
        gp = self.pb + port
        return self.out_cap[gp] + self.credit_cap[gp] * self.credit_nvc[gp]

    def global_port_occupancies(self) -> list[int]:
        """Occupancy of each global port (used by PiggyBack saturation)."""
        topo = self.topo
        return [
            self.port_total_occ(port)
            for port in range(topo.first_global_port, topo.radix)
        ]

    def local_port_occupancies(self) -> list[int]:
        """Occupancy of each local port (PiggyBack local thresholds)."""
        topo = self.topo
        return [
            self.port_total_occ(port)
            for port in range(topo.first_local_port, topo.first_global_port)
        ]

    # ------------------------------------------------------------------
    # the pipeline: repro.engine.kernel's phase handlers, bound as methods
    # ------------------------------------------------------------------
    # One implementation for method dispatch and the drain loop:
    # assigning the functions makes them this class's methods.
    inject = _kernel.inject
    enqueue = _kernel.enqueue
    arrive = _kernel.arrive
    schedule_arb = _kernel.arm
    step = _kernel.step
    output_enqueue = _kernel.output_enqueue
    send = _kernel.send
    link_step = _kernel.link_step
    release_output = _kernel.release_output
    release_credit = _kernel.release_credit

    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Total packets waiting in this router's input queues (debug)."""
        kb = self.kb
        queued = sum(len(q) for q in self.in_q[kb : kb + self.nkeys] if q)
        tails = sum(self.tail_len(port) for port in range(self._num_node_ports))
        return queued + tails

    def tail_len(self, port: int) -> int:
        """Packets generated behind the head of node port *port*'s
        injection FIFO: the pairs of its tail."""
        n = self._nb + port
        return (len(self._tail[n]) - self._tail_head[n]) // 2

    def injection_backlog(self) -> int:
        """Packets waiting in this router's injection (node-port) FIFOs:
        their heads and the pairs of their tails.

        The oracle's conservation check uses this: after a full drain
        nothing may remain queued at injection.
        """
        return sum(
            len(self.in_q[self.kb + port * self.max_vcs]) + self.tail_len(port)
            for port in range(self._num_node_ports)
        )

    def close(self) -> None:
        """Drop every reference this router holds (:meth:`Simulation.close
        <repro.core.simulation.Simulation.close>`): its peers, its prebuilt
        records, the store, the queue and the mechanism all lead back to
        it.  The router is unusable afterwards."""
        for name in Router.__slots__:
            setattr(self, name, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Router({self.router_id}, g{self.group}r{self.pos})"

