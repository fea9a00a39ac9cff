"""In-transit adaptive routing (PAR-style global + OLM-style local misrouting).

Decision structure (Section II-C of the paper):

* **Global misrouting** may be chosen at the source router (injection) or
  after the first local hop in the source group (PAR's second decision
  point).  The congestion signal is FOGSim's: the *credit count* of an
  output port — the occupied fraction of the downstream input buffer for
  the VC the packet would use.  Misrouting triggers when the minimal
  port's credit occupancy reaches ``misroute_threshold`` (Table I: 43%)
  and a non-minimal candidate of the point's candidate set is strictly
  less congested.  The sets are the mechanism row's ``source`` and
  ``transit`` (CRG / RRG; MM = CRG-at-source + NRG-in-transit).
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

As implemented, the triggers are: at the source router, the minimal
port's output-FIFO occupancy reaching ``misroute_threshold``
(:meth:`~repro.hardware.router.Router.out_frac`); at the PAR second
decision point and for OLM, the minimal hop being credit-blocked outright
(its downstream buffer cannot take the packet).

This module is the reference implementation and what the python backend
runs.  The compiled kernel runs a C twin of :meth:`decide` and the
helpers it calls (``c_intransit_decide`` in ``engine/_ckernel.c``;
selected by :func:`repro.routing.factory.decide_twin`) that must take the
same branches, read the same counters and draw the same words from
``rng_routing`` — change the two together; ``tests/test_routing_twin.py``
compares them where every branch is live.
"""

from __future__ import annotations

from repro.hardware.packet import Packet
from repro.routing.base import RoutingMechanism, eject_decision
from repro.routing.misrouting import (
    CRG,
    NRG,
    crg_candidates,
    nrg_candidates,
    rrg_candidates,
)
from repro.routing.vc import stage_global_vc, stage_local_vc

__all__ = ["InTransitAdaptiveRouting"]

#: routers of the group the OLM sampler probes per decision
OLM_PROBES = 3


def _credit_blocked(router, port: int, vc: int, size: int) -> bool:
    """Can the downstream buffer behind (port, vc) not take *size* phits?"""
    gp = router.pb + port
    if not router.credit_nvc[gp]:
        return False  # an uncredited (node) port
    ck = router.kb + port * router.max_vcs + vc
    return router.credits_used[ck] + size > router.credit_cap[gp]


class InTransitAdaptiveRouting(RoutingMechanism):
    """PAR + OLM in-transit adaptive routing; the row's ``source`` and
    ``transit`` are the candidate sets of the source router and of the PAR
    second decision point."""

    twin = "in-transit"

    def __init__(self, sim, mechanism) -> None:
        super().__init__(sim, mechanism)
        self.threshold = sim.config.misroute_threshold
        topo = sim.topo
        self._first_local = topo.first_local_port
        self._first_global = topo.first_global_port
        self._groups = topo.groups
        self._gw_router = topo.gw_router_by_delta
        self._gw_port = topo.gw_port_by_delta
        # CRG candidates are a pure function of (router, source group,
        # destination group): cached per router, keyed by the group pair.
        self._crg_by_router: list[dict[int, list] | None] = [
            None
        ] * topo.num_routers

    # ------------------------------------------------------------------
    def decide(self, pkt: Packet, router) -> tuple:
        group = router.group
        pos = router.pos
        dst_group = pkt.dst_group
        # The minimal hop towards the current target: the destination
        # router inside its group; elsewhere the gateway towards the bound
        # intermediate group of a committed diversion, or towards the
        # destination group.
        if group == dst_group:
            if router.router_id == pkt.dst_router:
                return eject_decision(pkt)
            target = pkt.dst_local_router
            port = self._first_local + (target if target < pos else target - 1)
        else:
            inter = pkt.inter_group
            delta = ((inter if inter >= 0 else dst_group) - group) % self._groups
            target = self._gw_router[delta]
            if pos == target:
                port = self._gw_port[delta]
            else:
                port = self._first_local + (target if target < pos else target - 1)
        if port < self._first_global:
            vc = stage_local_vc(pkt, group, self.n_local_vcs)
        else:
            vc = stage_global_vc(pkt, self.n_global_vcs)
        minimal = (port, vc, 0, 0)

        if group != dst_group and pkt.inter_group >= 0:
            return minimal  # committed diversion: on to the bound group
        glh = pkt.group_local_hops
        gp = router.pb + port
        # PAR: global misrouting at the source router or after one local
        # hop; elsewhere OLM, for the first local hop in the group.
        par = group == pkt.src_group and pkt.global_hops == 0 and group != dst_group
        if par and glh == 0:
            # Source router: the minimal output FIFO's occupancy reaching
            # the threshold (router.out_frac, inlined like the trigger
            # below: most decisions return without a call).
            frac = router.out_occ[gp] / router.out_cap[gp]
            if frac < self.threshold:
                return minimal
            choice = self._try_global_misroute(
                pkt, router, self.mechanism.source, frac
            )
            return choice or minimal
        if not par and (glh or port >= self._first_global):
            return minimal
        # The PAR second decision point and OLM: a minimal hop that is
        # credit-blocked outright (_credit_blocked, inlined).
        ck = router.kb + port * router.max_vcs + vc
        if not (
            router.credit_nvc[gp]
            and router.credits_used[ck] + pkt.size > router.credit_cap[gp]
        ):
            return minimal
        if par:  # any candidate whose output FIFO is not full
            choice = self._try_global_misroute(
                pkt, router, self.mechanism.transit, 1.0
            )
        else:
            choice = self._try_local_misroute(pkt, router, port, vc, target)
        return choice or minimal

    # ------------------------------------------------------------------
    def _try_global_misroute(
        self, pkt: Packet, router, candidate_set: int, best: float
    ) -> tuple | None:
        """The candidate of *candidate_set* whose first hop's output FIFO
        is least occupied, strictly below *best*, and not credit-blocked;
        None when there is none.  Draws from the RNG for NRG and RRG."""
        if candidate_set == CRG:
            by_pair = self._crg_by_router[router.router_id]
            if by_pair is None:
                by_pair = self._crg_by_router[router.router_id] = {}
            pair = pkt.src_group * self._groups + pkt.dst_group
            candidates = by_pair.get(pair)
            if candidates is None:
                candidates = by_pair[pair] = crg_candidates(self.topo, router, pkt)
        elif candidate_set == NRG:
            candidates = nrg_candidates(self.topo, router, pkt, self.rng)
        else:
            candidates = rrg_candidates(self.topo, router, pkt, self.rng)
        local_vc = stage_local_vc(pkt, router.group, self.n_local_vcs)
        global_vc = pkt.global_hops  # 0: the packet's first global hop
        # A third local hop in one group is forbidden (VC safety).
        local_ok = pkt.group_local_hops < 2
        size = pkt.size
        choice = None
        for port, inter_group in candidates:
            if port < self._first_global:
                if not local_ok:
                    continue
                vc = local_vc
            else:
                vc = global_vc
            frac = router.out_frac(port)
            if frac < best and not _credit_blocked(router, port, vc, size):
                best = frac
                choice = (port, vc, 1, inter_group)
        return choice

    def _try_local_misroute(
        self, pkt: Packet, router, port: int, vc: int, avoid_pos: int
    ) -> tuple | None:
        """OLM: a third router of the group whose local link is less
        congested than the blocked minimal hop (port, vc), out of
        ``OLM_PROBES`` sampled positions; None when none is.  The detour
        keeps the stage VC; its corrective second hop takes the escape
        VC."""
        a = self.topo.a
        if a < 3:
            return None  # no third router to go through
        pos = router.pos
        size = pkt.size
        best = router.credit_frac(port, vc)
        choice = None
        for _ in range(OLM_PROBES):
            w = self.rng.randrange(a)
            if w == pos or w == avoid_pos:
                continue
            probe = self._first_local + (w if w < pos else w - 1)
            if _credit_blocked(router, probe, vc, size):
                continue
            frac = router.credit_frac(probe, vc)
            if frac < best:
                best = frac
                choice = (probe, vc, 2, 0)
        return choice
