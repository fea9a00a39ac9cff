"""The :class:`Router`: input-output-buffered switch with VCT flow control.

Model summary (DESIGN.md Sections 4-5):

* **Input side** — one FIFO per (port, VC).  Node (injection) ports have a
  single unbounded FIFO; local/global ports have per-VC buffers whose
  capacity is enforced *at the upstream sender* through credits.
* **Allocation** — an allocation *pass* scans the heads of active input
  FIFOs, asks the routing mechanism for each head's output decision, and
  grants at most one packet per input port and per output port, subject to
  (a) crossbar availability (2x speedup: a packet occupies an input/output
  of the switch for ``size/speedup`` cycles), (b) output FIFO space, and
  (c) downstream credit for the selected VC.  Winner selection implements
  optional transit-over-injection priority (see
  :mod:`repro.hardware.allocator`).  Activations are self-scheduling: a
  pass that leaves time-blocked work re-arms itself at the earliest
  release time; resource-blocked work is re-woken by credit/buffer
  release activations.
* **Output side** — a FIFO per port drains onto the link at 1 phit/cycle
  (8 cycles per packet) after the 5-cycle pipeline; propagation latency is
  added on top.  Ejection (node) ports deliver to the simulation sink.
* **Credits** — consumed at allocation for the whole packet (VCT), returned
  to the upstream router one input-transfer time plus one link latency
  after the packet's tail leaves the downstream input buffer.

The router knows nothing about routing policies: it calls
``routing.decide(pkt, router)`` for heads and ``routing.commit(...)`` for
winners, keeping the mechanism/microarchitecture separation of FOGSim.

Activation model (the phase-batched engine core; see README "Engine
architecture"):

* The engine dispatches typed activation records to the *phase handlers*
  :meth:`arrive` (input arrival), :meth:`step` (the consolidated
  arbitration → commit pipeline, implemented by
  :func:`repro.engine.kernel.step`), :meth:`output_enqueue` (switch
  traversal into an output FIFO), :meth:`send`/:meth:`link_step` (link
  transmission; ``link_step`` is the merged tail-release + next
  transmission of a busy link) and :meth:`release_output` /
  :meth:`release_credit` (resource releases that re-arm the pipeline).
* A pipeline activation is requested through :meth:`schedule_arb`, which
  posts the router's constant ``(OP_STEP, self)`` token under the
  ``_arb_time`` dirty mark — each (router × cycle) pair is armed at most
  once, and the engine's dispatch loop skips stale tokens with a single
  integer compare.  The intra-cycle order of phases is exactly the FIFO
  order in which their records were posted, which reproduces the
  per-event engine's interleaving bit for bit (merged records stand
  where their first legacy event stood and their halves were adjacent).
* Handlers post follow-up records inline through the engine's
  ``hot_interface()`` (bucket dict + helper heap) — no scheduling call,
  and the hottest records (activation token, per-port send/link records,
  per-input credit returns) are prebuilt constants, so steady-state
  forwarding allocates one tuple per link traversal.

Hot-path layout (the allocation pass dominates simulation wall-clock):

* All hot per-router state lives in the simulation-owned
  structure-of-arrays store (:class:`repro.engine.soa.SoAStore`): one
  flat buffer per field shared by every router, indexed
  ``kb + port * max_vcs + vc`` (per-key) or ``pb + port`` (per-port)
  where ``kb = router_id * nkeys`` and ``pb = router_id * radix`` are
  this router's base offsets.  The ``Router`` is a thin view: its
  ``in_q``/``out_occ``/``credits_used``/... attributes alias the shared
  store buffers, and its constructor fills its own segments.  The flat
  layout is what the optional compiled kernel maps to raw ``int64_t*``
  buffers — and Python-side indexing through a premultiplied base is no
  slower than the old per-instance lists.
* ``routing.decide`` results are memoized per input key while the same
  packet stays at the head of that FIFO (the store's ``dc_*`` arrays).
  A cached decision is only stored when the mechanism's
  :meth:`~repro.routing.base.RoutingMechanism.decision_stable` contract
  says re-deciding would provably return the same tuple without consuming
  RNG, so results stay bit-identical with uncached evaluation.  Entries
  are invalidated on commit (the head changes); a packet's routing state
  only mutates in ``commit``/``on_arrival``, never while it waits at a
  head, so the packet-identity check covers arrivals behind the head.
  The cache is keyed per activation: epoch-conditioned entries reuse a
  decision across activations only while the router's congestion epoch
  (``store.cong_epoch[router_id]``, bumped at every commit/release phase
  boundary) is unchanged.  Memo-guard tuples carry *flat* store indices,
  so revalidation is a single flat load.
"""

from __future__ import annotations

import sys
from heapq import heappush

from repro.engine import kernel as _kernel
from repro.engine.events import (
    OP_ARRIVE,
    OP_CREDIT,
    OP_DELIVER,
    OP_LINK,
    OP_RELEASE,
    OP_SEND,
    OP_STEP,
)
from repro.errors import FlowControlError
from repro.hardware.packet import Packet

__all__ = ["Router"]

# Toggle for expensive internal invariant checks (enabled in unit tests).
# The engine kernels (repro.engine.kernel) read this flag dynamically.
CHECK_INVARIANTS = False


class Router:
    """One Dragonfly router: a view over the simulation's SoA store.

    Wired to peers by the Simulation.  All hot state lives in
    ``sim.soa``; the attributes below alias the shared flat buffers, and
    :attr:`kb`/:attr:`pb` are this router's per-key/per-port base
    offsets into them.
    """

    __slots__ = (
        "sim",
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
        "_dc_pkt",
        "_dc_dec",
        "_dc_cond",
        "_key_port",
        "_epochs",
        "_pipe_lat",
        "_on_injection",
        "_hot",
        "_hot2",
        "_hot3",
        "_hot_in",
        "transit_priority",
        "_psize",
        "_eq_buckets",
        "_eq_get",
        "_eq_times",
        "_token",
        "_send_recs",
        "_link_recs",
        "_rel_recs",
        "_credit_recs",
    )

    def __init__(self, sim, router_id: int) -> None:
        self.sim = sim
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
                nvc, cap = 1, 0  # unbounded injection FIFO (cap unused)
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
        self.routing = None  # set by Simulation (then _bind_hot())
        self._hot: tuple | None = None
        self._hot2: tuple | None = None
        self._hot3: tuple | None = None
        self._hot_in: tuple | None = None
        self.transit_priority = rc.transit_priority
        self._arb_time: int | None = None

        # Memoized head decisions in the store's parallel arrays (no
        # tuple allocation per memo write): dc_pkt[gk] is the head packet
        # the cached dc_dec[gk] belongs to (None = no valid entry), and
        # dc_cond[gk] is None for unconditionally-stable decisions, the
        # congestion epoch the decision was computed at for RNG-free
        # adaptive decisions, or a flat single-counter guard tuple.
        self._dc_pkt = store.dc_pkt
        self._dc_dec = store.dc_dec
        self._dc_cond = store.dc_cond
        # cong_epoch[router_id]: bumped whenever out_occ / credits_used
        # change (commit, output release, credit release) — the
        # invalidation signal for epoch-conditioned cached decisions.
        self._epochs = store.cong_epoch
        # key -> flat input-port index (table lookup beats a division in
        # the scan, and the stored value is already `pb + port`).
        self._key_port = store.key_port
        for k in range(self.nkeys):
            self._key_port[kb + k] = pb + k // self.max_vcs

        # Per-port constants hoisted into the store's flat buffers (the
        # kernels index them like the dynamic state) and bound callables
        # hoisted out of the hot path.
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
        self._on_injection = sim.stats.on_injection

        # Engine hot interface (bucket dict, dict.get, time heap) for
        # inline posting, plus the prebuilt constant activation records.
        self._eq_buckets, self._eq_get, self._eq_times = (
            sim.engine.hot_interface()
        )
        self._token = (OP_STEP, self)  # this router's activation token
        self._send_recs = [(OP_SEND, self, port) for port in range(self.radix)]
        self._link_recs = [
            (OP_LINK, self, port, psize) for port in range(self.radix)
        ]
        self._rel_recs = [
            (OP_RELEASE, self, port, psize) for port in range(self.radix)
        ]
        # OP_CREDIT records to the upstream router, per input key (the
        # store's flat credit_recs segment); built in _bind_hot once the
        # Simulation has wired `upstream`.
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

    def output_blocked(self, port: int, vc: int, size: int) -> bool:
        """True when the downstream credits of (port, vc) cannot take a
        *size*-phit packet.  This is the *opportunistic* misrouting trigger
        of OLM: an in-transit packet only diverts when its minimal path is
        genuinely back-pressured end-to-end (downstream buffer full), not
        merely when the local output FIFO cycles through its natural
        fill/drain rhythm — a saturated-but-flowing link keeps its transit
        parked, which is what starves the ADVc bottleneck router's
        injections under transit priority.
        """
        gp = self.pb + port
        return bool(self.credit_nvc[gp]) and (
            self.credits_used[self.kb + port * self.max_vcs + vc] + size
            > self.credit_cap[gp]
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
    # ingress phase
    # ------------------------------------------------------------------
    def inject(self, node_port: int, pkt: Packet, now: int | None = None) -> None:
        """Enqueue a freshly generated packet on a node (injection) port."""
        if now is None:
            now = self.engine.now
        key = node_port * self.max_vcs
        pkt.t_enq = now
        self.in_q[self.kb + key].append(pkt)
        self.active_keys.add(key)
        # Inlined schedule_arb(now).
        t = self._arb_time
        if t is None or t > now:
            self._arb_time = now
            bucket = self._eq_get(now)
            if bucket is None:
                self._eq_buckets[now] = [self._token]
                heappush(self._eq_times, now)
            else:
                bucket.append(self._token)

    def arrive(self, port: int, vc: int, pkt: Packet, now: int) -> None:
        """Phase handler: a packet's tail reached input buffer (port, vc)."""
        (
            in_q,
            in_occ,
            on_arrival,
            in_port_free,
            active_keys,
            max_vcs,
            kb,
            pb,
        ) = self._hot_in
        key = port * max_vcs + vc
        gk = kb + key
        q = in_q[gk]
        if q is None:
            raise FlowControlError(
                f"router {self.router_id}: arrival on invalid VC "
                f"(port {port}, vc {vc})"
            )
        in_occ[gk] += pkt.size
        if CHECK_INVARIANTS and in_occ[gk] > self.in_cap[gk]:
            raise FlowControlError(
                f"router {self.router_id}: input buffer overflow on port "
                f"{port} vc {vc}: {in_occ[gk]} > {self.in_cap[gk]}"
            )
        pkt.t_enq = now
        if on_arrival is None:
            # Inlined RoutingMechanism.on_arrival (group transitions and
            # source-routed plan updates).
            group = self.group
            if group != pkt.current_group:
                pkt.current_group = group
                pkt.group_local_hops = 0
                if pkt.inter_group == group:
                    pkt.inter_group = -1  # intermediate group reached
            if pkt.plan == 2 and self.router_id == pkt.inter_router:
                pkt.plan = 1  # intermediate router reached; minimal onwards
        else:
            on_arrival(pkt, self, port)
        q.append(pkt)
        active_keys.add(key)
        # Inlined schedule_arb(max(now, in_port_free[pb + port])).
        time = in_port_free[pb + port]
        if time < now:
            time = now
        t = self._arb_time
        if t is None or t > time:
            self._arb_time = time
            bucket = self._eq_get(time)
            if bucket is None:
                self._eq_buckets[time] = [self._token]
                heappush(self._eq_times, time)
            else:
                bucket.append(self._token)

    # ------------------------------------------------------------------
    # allocation phase
    # ------------------------------------------------------------------
    def _bind_hot(self) -> None:
        """Freeze the allocation pass's working set into one tuple.

        Called by the Simulation once ``routing`` is wired.  The kernel's
        ``step`` unpacks this single attribute instead of a dozen — every
        buffer here is mutated in place and never reassigned, so the refs
        stay live.  Also prebuilds the per-input-key OP_CREDIT records
        (the upstream wiring is final by now).
        """
        routing = self.routing
        self._hot = (
            self.in_q,
            self.in_port_free,
            self.switch_free,
            self.out_occ,
            self.out_cap,
            self.credits_used,
            self.credit_cap,
            self.credit_nvc,
            self._dc_pkt,
            self._dc_dec,
            self._dc_cond,
            self._key_port,
            routing.decide,
            routing.cache_policy,
            routing,
            self.kb,
            self.pb,
            self._epochs,
            self.router_id,
            self.last_grant,
        )
        # Arrival-phase working set.  The base arrival bookkeeping is
        # inlined in `arrive`; a mechanism that overrides
        # RoutingMechanism.on_arrival (none in-tree) is detected here and
        # called through the slow path instead.
        arr_fn = type(routing).on_arrival
        arr_is_base = arr_fn.__qualname__ == "RoutingMechanism.on_arrival"
        self._hot_in = (
            self.in_q,
            self.in_occ,
            None if arr_is_base else routing.on_arrival,
            self.in_port_free,
            self.active_keys,
            self.max_vcs,
            self.kb,
            self.pb,
        )
        # Output/link-phase working set.
        self._hot3 = (
            self.out_fifo,
            self.out_pumping,
            self.link_free,
            self._global_out,
            self._send_recs,
            self._link_recs,
            self._rel_recs,
            self.out_peer,
            self._link_lat,
            self._psize,
            self._eq_buckets,
            self._eq_get,
            self._eq_times,
            self.pb,
        )
        # The base hop-accounting commit is inlined in the kernel's
        # _commit; a mechanism that overrides RoutingMechanism.commit
        # (none in-tree) is detected here and called through the slow
        # path instead.
        commit_fn = type(routing).commit
        commit_is_base = commit_fn.__qualname__ == "RoutingMechanism.commit"
        # Commit-phase working set (same liveness argument as _hot).
        self._hot2 = (
            self.active_keys,
            self._dc_pkt,
            self.in_port_free,
            self.switch_free,
            self.out_occ,
            self.in_occ,
            self.credits_used,
            self.credit_nvc,
            self.credit_cap,
            self._credit_recs,
            self._eq_buckets,
            self._eq_get,
            self._eq_times,
            self._local_in,
            self._link_lat,
            self._hop_cost,
            None if commit_is_base else routing.commit,
            self._on_injection,
            self.max_vcs,
            self.internal_cycles,
            self._num_node_ports,
            self._psize,
            self._pipe_lat,
            self.kb,
            self.pb,
            self._epochs,
            self.router_id,
            self._global_out,
            self.in_q,
        )
        psize = self._psize
        max_vcs = self.max_vcs
        kb = self.kb
        for key in range(self.nkeys):
            port = key // max_vcs
            up = self.upstream[port]
            if up is not None and port >= self._num_node_ports:
                up_router, up_port = up
                self._credit_recs[kb + key] = (
                    OP_CREDIT,
                    up_router,
                    up_port,
                    key - port * max_vcs,
                    psize,
                )

    def schedule_arb(self, time: int) -> None:
        """Arm a pipeline activation at cycle *time* (dirty-deduplicated).

        Posts the router's constant ``(OP_STEP, self)`` token unless an
        activation at or before *time* is already armed; the engine's
        dispatch loop re-checks ``_arb_time`` so superseded tokens are
        skipped with one integer compare.
        """
        t = self._arb_time
        if t is not None and t <= time:
            return
        self._arb_time = time
        bucket = self._eq_get(time)
        if bucket is None:
            self._eq_buckets[time] = [self._token]
            heappush(self._eq_times, time)
        else:
            bucket.append(self._token)

    # The consolidated arbitration → commit pipeline lives in the engine
    # kernel module (one implementation for method dispatch and the
    # drain loop); assigning the function makes it this class's method.
    step = _kernel.step

    # ------------------------------------------------------------------
    # output phase
    # ------------------------------------------------------------------
    def output_enqueue(self, port: int, pkt: Packet, vc: int, now: int) -> None:
        """Phase handler: *pkt* crossed the switch into output FIFO *port*."""
        (
            out_fifo,
            out_pumping,
            link_free,
            global_out,
            send_recs,
            link_recs,
            rel_recs,
            out_peer,
            link_lat,
            psize,
            eq_buckets,
            eq_get,
            eq_times,
            pb,
        ) = self._hot3
        gp = pb + port
        out_fifo[gp].append((pkt, vc, now))
        if out_pumping[gp]:
            return
        # Idle link: start pumping at the link's next free cycle.
        dep = link_free[gp]
        if dep < now:
            dep = now
        out_pumping[gp] = 1
        rec = send_recs[port]
        bucket = eq_get(dep)
        if bucket is None:
            eq_buckets[dep] = [rec]
            heappush(eq_times, dep)
        else:
            bucket.append(rec)

    def send(self, port: int, now: int) -> None:
        """Phase handler: start transmitting the head of output FIFO *port*."""
        (
            out_fifo,
            out_pumping,
            link_free,
            global_out,
            send_recs,
            link_recs,
            rel_recs,
            out_peer,
            link_lat,
            psize,
            eq_buckets,
            eq_get,
            eq_times,
            pb,
        ) = self._hot3
        gp = pb + port
        fifo = out_fifo[gp]
        pkt, vc, t_arr = fifo.pop(0)
        wait = now - t_arr
        if wait:
            if global_out[gp]:
                pkt.wait_global += wait
            else:  # local and node (ejection) FIFO waits
                pkt.wait_local += wait
        size = pkt.size
        free_t = now + size
        link_free[gp] = free_t
        if fifo:
            # Busy link: merge the tail release with the next transmission
            # into one OP_LINK record (the two legacy events were adjacent
            # in the free_t bucket, so the merged record is order-exact).
            rec = (
                link_recs[port] if size == psize else (OP_LINK, self, port, size)
            )
        else:
            out_pumping[gp] = 0
            rec = (
                rel_recs[port] if size == psize else (OP_RELEASE, self, port, size)
            )
        bucket = eq_get(free_t)
        if bucket is None:
            eq_buckets[free_t] = [rec]
            heappush(eq_times, free_t)
        else:
            bucket.append(rec)
        peer = out_peer[port]
        t = free_t + link_lat[gp]
        if peer is None:
            rec = (OP_DELIVER, pkt)  # ejection into the simulation sink
        else:
            rec = (OP_ARRIVE, peer[0], peer[1], vc, pkt)
        bucket = eq_get(t)
        if bucket is None:
            eq_buckets[t] = [rec]
            heappush(eq_times, t)
        else:
            bucket.append(rec)

    def link_step(self, port: int, size: int, now: int) -> None:
        """Phase handler: tail release + next transmission of a busy link.

        Merged form of :meth:`release_output` + :meth:`send` for the
        steady-state case (the output FIFO was non-empty when the current
        transmission started, so the link pumps back to back).
        """
        self._epochs[self.router_id] += 1
        gp = self.pb + port
        self.out_occ[gp] -= size
        if CHECK_INVARIANTS and self.out_occ[gp] < 0:
            raise FlowControlError(
                f"router {self.router_id}: negative output occupancy port {port}"
            )
        # Inlined schedule_arb(now): wake the allocator this cycle.  The
        # engine is draining this cycle's bucket, so it exists (the except
        # arm only serves direct callers outside a drain).
        t = self._arb_time
        if t is None or t > now:
            self._arb_time = now
            try:
                self._eq_buckets[now].append(self._token)
            except KeyError:
                self._eq_buckets[now] = [self._token]
                heappush(self._eq_times, now)
        self.send(port, now)

    def release_output(self, port: int, size: int, now: int) -> None:
        """Phase handler: a packet's tail left the link; FIFO space frees."""
        self._epochs[self.router_id] += 1
        gp = self.pb + port
        self.out_occ[gp] -= size
        if CHECK_INVARIANTS and self.out_occ[gp] < 0:
            raise FlowControlError(
                f"router {self.router_id}: negative output occupancy port {port}"
            )
        # Inlined schedule_arb(now): wake the allocator this cycle (see
        # link_step for the bucket-existence note).
        t = self._arb_time
        if t is None or t > now:
            self._arb_time = now
            try:
                self._eq_buckets[now].append(self._token)
            except KeyError:
                self._eq_buckets[now] = [self._token]
                heappush(self._eq_times, now)

    def release_credit(self, port: int, vc: int, size: int, now: int) -> None:
        """Phase handler: credits for (port, vc) returned from downstream."""
        self._epochs[self.router_id] += 1
        ck = self.kb + port * self.max_vcs + vc
        self.credits_used[ck] -= size
        if CHECK_INVARIANTS and self.credits_used[ck] < 0:
            raise FlowControlError(
                f"router {self.router_id}: negative credits port {port} vc {vc}"
            )
        # Inlined schedule_arb(now): wake the allocator this cycle (see
        # link_step for the bucket-existence note).
        t = self._arb_time
        if t is None or t > now:
            self._arb_time = now
            try:
                self._eq_buckets[now].append(self._token)
            except KeyError:
                self._eq_buckets[now] = [self._token]
                heappush(self._eq_times, now)

    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Total packets waiting in this router's input queues (debug)."""
        kb = self.kb
        return sum(len(q) for q in self.in_q[kb : kb + self.nkeys] if q)

    def injection_backlog(self) -> int:
        """Packets waiting in this router's injection (node-port) FIFOs.

        The oracle's conservation check uses this: after a full drain
        nothing may remain queued at injection.
        """
        return sum(
            len(self.in_q[self.kb + port * self.max_vcs])
            for port in range(self._num_node_ports)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Router({self.router_id}, g{self.group}r{self.pos})"


# The kernel reads CHECK_INVARIANTS dynamically; hand it this module
# (importing it back from the kernel would create an import cycle).
_kernel._router_mod = sys.modules[__name__]
