"""In-transit adaptive routing (PAR-style global + OLM-style local misrouting).

Decision structure (Section II-C of the paper):

* **Global misrouting** may be chosen at the source router (injection) or
  after the first local hop in the source group (PAR's second decision
  point).  The congestion signal is FOGSim's: the *credit count* of an
  output port — the occupied fraction of the downstream input buffer for
  the VC the packet would use.  Misrouting triggers when the minimal
  port's credit occupancy reaches ``misroute_threshold`` (Table I: 43%)
  and a policy-legal non-minimal candidate is strictly less congested.
  The candidate set follows the configured global misrouting policy
  (CRG / RRG / MM = CRG-at-source + NRG-in-transit).
* **Local misrouting** (OLM): in the intermediate or destination group,
  when the minimal local hop is backpressured past the same threshold,
  divert through a third router of the group (two local hops replace one;
  the second uses the escape VC).  At most one local misroute per group.
* Decisions are re-evaluated on every allocation pass while the packet
  waits; a global diversion only binds (``inter_group`` set) when the
  grant is committed.

Because the credit signal only rises under genuine downstream
backpressure, diversion begins exactly when the minimal path saturates —
the minimal flow through the ADVc bottleneck router therefore stays *at*
link capacity, its global links remain fully occupied by in-transit
packets, and with transit-over-injection priority its own injections
starve (the paper's Figures 2c/4 and Table II).  From the bottleneck
router itself the CRG/MM candidate set coincides with those same
congested links, so its packets cannot even escape non-minimally
(Section III).

This module is the reference implementation and what the python backend
runs.  The compiled kernel runs a C twin of :meth:`decide`
(``c_intransit_decide`` in ``engine/_ckernel.c``; selected by
:func:`repro.routing.factory.decide_twin`) that must take the same
branches, read the same counters and draw the same words from
``rng_routing`` — change the two together;
``tests/test_routing_twin.py`` compares them where every branch is live.
"""

from __future__ import annotations

import random

from repro.hardware.packet import Packet
from repro.routing.base import (
    CACHE_COMMITTED_DIVERSION,
    GUARD_STABLE,
    RoutingMechanism,
    eject_decision,
)
from repro.routing.misrouting import (
    MisroutePolicy,
    crg_candidates,
    nrg_candidates,
    rrg_candidates,
)
from repro.routing.vc import stage_global_vc

__all__ = ["InTransitAdaptiveRouting"]


class InTransitAdaptiveRouting(RoutingMechanism):
    """PAR + OLM in-transit adaptive routing with a global misrouting policy."""

    # Only the committed-diversion phase (routing minimally towards a
    # bound intermediate group outside the destination group) is a pure
    # function of frozen packet state; every other branch samples
    # congestion signals and possibly RNG, so it must be re-evaluated on
    # each pass.  ``inter_group`` is cleared in on_arrival (at the
    # intermediate group), never while the packet waits at a head.
    cache_policy = CACHE_COMMITTED_DIVERSION

    def __init__(self, sim, policy: MisroutePolicy) -> None:
        super().__init__(sim)
        self.policy = policy
        self.name = f"in-trns-{policy.value}"
        self.rng: random.Random = sim.rng_routing
        self.threshold = sim.config.misroute_threshold
        # Exact integer form of the source-router threshold test: output
        # FIFO capacities are uniform, and _thr_occ is the smallest
        # occupancy whose *float-divided* fraction reaches the threshold,
        # so `occ >= _thr_occ` reproduces `occ / cap >= threshold`
        # byte-for-byte without the per-decide division.
        cap = sim.config.router.output_buffer
        self._thr_occ = next(
            (occ for occ in range(cap + 1) if occ / cap >= self.threshold),
            cap + 1,
        )
        # Hot-path topology bindings (decide runs several times per grant).
        topo = sim.topo
        self._first_local = topo.first_local_port
        self._first_global = topo.first_global_port
        self._groups = topo.groups
        self._gw_router = topo.gw_router_by_delta
        self._gw_port = topo.gw_port_by_delta
        # Policy resolved to candidate-generator codes once (MM = CRG at
        # the source router, NRG at the PAR second decision point).
        _codes = {
            MisroutePolicy.CRG: (0, 0),
            MisroutePolicy.RRG: (2, 2),
            MisroutePolicy.MM: (0, 1),
        }.get(policy, (1, 1))
        self._code_source, self._code_transit = _codes
        # CRG candidate lists memoized per router (list index) and
        # (src_group, dst_group) pair (int key) — no tuple allocation.
        self._crg_by_router: list[dict[int, list] | None] = [
            None
        ] * topo.num_routers
        # Local-misroute sampling draws `randrange(a)`; inlining CPython's
        # _randbelow_with_getrandbits (bit_length + rejection loop over
        # getrandbits) consumes the identical RNG stream without the two
        # interpreter frames per draw.
        self._a_bits = topo.a.bit_length()
        self._getrandbits = self.rng.getrandbits
        self._rng_used = False  # per-decide RNG-consumption tracker

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _try_local_misroute(
        self, pkt: Packet, router, min_port: int, min_vc: int, avoid_pos: int
    ) -> tuple | None:
        """OLM: divert a backpressured minimal local hop via a third router."""
        if pkt.group_local_hops != 0:
            return None  # at most one local misroute per group
        size = pkt.size
        credits_used = router.credits_used
        credit_cap = router.credit_cap
        credit_nvc = router.credit_nvc
        max_vcs = router.max_vcs
        kb = router.kb
        pb = router.pb
        # Opportunistic (OLM): only when the minimal local hop is blocked.
        if not (
            credit_nvc[pb + min_port]
            and credits_used[kb + min_port * max_vcs + min_vc] + size
            > credit_cap[pb + min_port]
        ):
            return None
        a = self.topo.a
        if a < 3:
            return None
        self._rng_used = True  # the sampling loop below draws from the RNG
        pos = router.pos
        first_local = self._first_local
        best_port = -1
        best_frac = (
            credits_used[kb + min_port * max_vcs + min_vc]
            / credit_cap[pb + min_port]
        )
        vc = min_vc  # same stage VC; the corrective hop will use the escape
        getrandbits = self._getrandbits
        a_bits = self._a_bits
        for _ in range(3):
            # Inlined rng.randrange(a): same rejection sampling, same
            # stream (see __init__).
            w = getrandbits(a_bits)
            while w >= a:
                w = getrandbits(a_bits)
            if w == pos or w == avoid_pos:
                continue
            port = first_local + (w if w < pos else w - 1)
            ck = kb + port * max_vcs + vc
            gp = pb + port
            if credit_nvc[gp] and credits_used[ck] + size > credit_cap[gp]:
                continue
            frac = credits_used[ck] / credit_cap[gp] if credit_nvc[gp] else 0.0
            if frac < best_frac:
                best_frac = frac
                best_port = port
        if best_port < 0:
            return None
        return (best_port, vc, 2, 0)

    # ------------------------------------------------------------------
    def decide(self, pkt: Packet, router) -> tuple:
        # Purity tracking: last_decide_pure reports whether this call was
        # a pure function of frozen packet state + the router's congestion
        # counters (i.e. consumed no RNG); the router may then reuse the
        # decision until its congestion epoch changes (the activation-
        # keyed memoization contract, see routing.base).
        group = router.group
        pos = router.pos

        # Destination group: minimal local hop (or ejection), with OLM.
        if group == pkt.dst_group:
            if router.router_id == pkt.dst_router:
                # Ejection reads no congestion state: stable memo.
                self.last_decide_pure = True
                self.last_decide_guard = GUARD_STABLE
                return eject_decision(pkt)
            # Inlined minimal decision + VC staging (reference:
            # repro.routing.vc): the target is in this group
            # (its local position is precomputed on the packet) and the
            # minimal hop is a local port, so the VC is the escape VC
            # after a local hop and the stage-2 VC otherwise.
            ti = pkt.dst_local_router
            port = self._first_local + (ti if ti < pos else ti - 1)
            vc = self.n_local_vcs - 1 if pkt.group_local_hops >= 1 else 2
            # Inlined OLM precheck (one-per-group + blocked); only a
            # genuinely blocked minimal hop enters the sampler.
            # Guards carry *flat* store indices (see repro.engine.soa).
            if pkt.group_local_hops == 0:
                ck = router.kb + port * router.max_vcs + vc
                gp = router.pb + port
                used = router.credits_used[ck]
                if (
                    router.credit_nvc[gp]
                    and used + pkt.size > router.credit_cap[gp]
                ):
                    self._rng_used = False
                    alt = self._try_local_misroute(pkt, router, port, vc, ti)
                    pure = not self._rng_used
                    self.last_decide_pure = pure
                    # A pure verdict here read only this credit counter
                    # (the sampler bails RNG-free when a < 3).
                    self.last_decide_guard = (1, ck, used) if pure else None
                    if alt is not None:
                        return alt
                else:
                    self.last_decide_pure = True
                    self.last_decide_guard = (
                        (1, ck, used) if router.credit_nvc[gp] else GUARD_STABLE
                    )
            else:
                self.last_decide_pure = True
                self.last_decide_guard = GUARD_STABLE
            return (port, vc, 0, 0)

        first_local = self._first_local
        first_global = self._first_global

        # Committed diversion: route minimally towards the intermediate
        # group (cleared by on_arrival when we get there).
        if pkt.inter_group >= 0:
            self.last_decide_pure = True
            self.last_decide_guard = GUARD_STABLE
            delta = (pkt.inter_group - group) % self._groups
            gw_pos = self._gw_router[delta]
            if pos == gw_pos:
                port = self._gw_port[delta]
            else:
                port = first_local + (gw_pos if gw_pos < pos else gw_pos - 1)
            # Inlined VC staging (outside the destination group by
            # contract; reference: repro.routing.vc).
            if port >= first_global:
                vc = pkt.global_hops
                if vc >= self.n_global_vcs:
                    vc = stage_global_vc(pkt, self.n_global_vcs)  # raises
            elif pkt.group_local_hops >= 1:
                vc = self.n_local_vcs - 1
            else:
                vc = 1 if pkt.global_hops >= 1 else 0
            return (port, vc, 0, 0)

        # Minimal phase towards the destination group.
        delta = (pkt.dst_group - group) % self._groups
        gw_pos = self._gw_router[delta]
        if pos == gw_pos:
            min_port = self._gw_port[delta]
        else:
            min_port = first_local + (gw_pos if gw_pos < pos else gw_pos - 1)
        # Inlined VC staging (outside the destination group by
        # contract; reference: repro.routing.vc).
        if min_port >= first_global:
            min_vc = pkt.global_hops
            if min_vc >= self.n_global_vcs:
                min_vc = stage_global_vc(pkt, self.n_global_vcs)  # raises
        elif pkt.group_local_hops >= 1:
            min_vc = self.n_local_vcs - 1
        else:
            min_vc = 1 if pkt.global_hops >= 1 else 0
        min_dec = (min_port, min_vc, 0, 0)

        if group == pkt.src_group and pkt.global_hops == 0:
            # PAR: global misrouting at injection or after one local hop.
            # Inlined _try_global_misroute (the hottest decide branch —
            # semantics documented in the module docstring).
            out_occ = router.out_occ
            credits_used = router.credits_used
            credit_cap = router.credit_cap
            credit_nvc = router.credit_nvc
            max_vcs = router.max_vcs
            kb = router.kb
            pb = router.pb
            glh = pkt.group_local_hops
            size = pkt.size
            if glh == 0:
                # Source router: proactive trigger on the minimal port's
                # output FIFO (integer threshold, see __init__; the guard
                # carries the flat store index).
                best_occ = out_occ[pb + min_port]
                if best_occ < self._thr_occ:
                    self.last_decide_pure = True
                    self.last_decide_guard = (0, pb + min_port, best_occ)
                    return min_dec
                code = self._code_source
            else:
                # PAR second decision point: opportunistic (OLM) — divert
                # only when the minimal output is credit-blocked outright.
                mk = kb + min_port * max_vcs + min_vc
                used = credits_used[mk]
                if not (
                    credit_nvc[pb + min_port]
                    and used + size > credit_cap[pb + min_port]
                ):
                    self.last_decide_pure = True
                    self.last_decide_guard = (
                        (1, mk, used)
                        if credit_nvc[pb + min_port]
                        else GUARD_STABLE
                    )
                    return min_dec
                best_occ = router.out_cap[pb + min_port]  # sentinel: frac < 1.0
                code = self._code_transit
            if code == 0:  # CRG: memoized per (router, src_group, dst_group)
                by_pair = self._crg_by_router[router.router_id]
                if by_pair is None:
                    by_pair = {}
                    self._crg_by_router[router.router_id] = by_pair
                pair = pkt.src_group * self._groups + pkt.dst_group
                candidates = by_pair.get(pair)
                if candidates is None:
                    candidates = crg_candidates(self.topo, router, pkt)
                    by_pair[pair] = candidates
            elif code == 1:  # NRG (consumes RNG)
                candidates = nrg_candidates(self.topo, router, pkt, self.rng)
            else:  # RRG (consumes RNG)
                candidates = rrg_candidates(self.topo, router, pkt, self.rng)
            # Raw-occupancy compares: uniform output capacities make
            # `a/c < b/c` exactly `a < b`.  Inlined VC staging (global hop
            # count is 0 here, so a global candidate takes VC 0).
            local_vc = self.n_local_vcs - 1 if glh >= 1 else 0
            skip_local = glh >= 2  # third local hop forbidden (VC safety)
            best_port = -1
            best_vc = 0
            best_inter = 0
            for port, inter_group in candidates:
                if port < first_global:
                    if skip_local:
                        continue
                    vc = local_vc
                else:
                    vc = 0
                gp = pb + port
                if out_occ[gp] >= best_occ:
                    continue
                if credit_nvc[gp] and (
                    credits_used[kb + port * max_vcs + vc] + size
                    > credit_cap[gp]
                ):
                    continue
                best_occ = out_occ[gp]
                best_port = port
                best_vc = vc
                best_inter = inter_group
            self.last_decide_pure = code == 0
            self.last_decide_guard = None  # full candidate scan consulted
            if best_port >= 0:
                return (best_port, best_vc, 1, best_inter)
        elif min_port < first_global:
            # Intermediate group: OLM local misrouting of the hop towards
            # the gateway of the destination group (inlined precheck).
            if pkt.group_local_hops == 0:
                ck = router.kb + min_port * router.max_vcs + min_vc
                gp = router.pb + min_port
                used = router.credits_used[ck]
                if (
                    router.credit_nvc[gp]
                    and used + pkt.size > router.credit_cap[gp]
                ):
                    self._rng_used = False
                    alt = self._try_local_misroute(
                        pkt, router, min_port, min_vc, gw_pos
                    )
                    pure = not self._rng_used
                    self.last_decide_pure = pure
                    self.last_decide_guard = (1, ck, used) if pure else None
                    if alt is not None:
                        return alt
                else:
                    self.last_decide_pure = True
                    self.last_decide_guard = (
                        (1, ck, used) if router.credit_nvc[gp] else GUARD_STABLE
                    )
            else:
                self.last_decide_pure = True
                self.last_decide_guard = GUARD_STABLE
        else:
            # Minimal global hop outside source/destination groups reads
            # no congestion state: stable memo.
            self.last_decide_pure = True
            self.last_decide_guard = GUARD_STABLE
        return min_dec
