"""PiggyBack (PB) source-adaptive routing (Jiang, Kim & Dally, ISCA'09).

At injection the source router chooses, once per packet, between the
minimal path and a Valiant path, based on *saturation bits* of the global
links of its group.  Each router knows its own links' occupancy instantly;
the bits of remote routers' links arrive through a group-wide broadcast
(piggybacked on regular traffic), modelled here as periodic snapshots with
staleness up to ``pb_update_period`` cycles.

Saturation (paper Table I thresholds, expressed "relative to the other
links" per Section II-C):

* global link: ``occ > mean(occ of owner's global links) + T_g * packet``
  with ``T_g = 3``;
* local link:  ``occ > mean(occ of this router's local links) + T_l *
  packet`` with ``T_l = 5``.

This relative formulation reproduces the paper's observed pathology under
ADVc: all the bottleneck router's global links carry the same load, so
none is ever flagged and PB keeps routing minimally into the hotspot
(Section V-A).  The minimal path counts as saturated when its global link
is flagged, or when its first local hop towards the gateway is flagged.
The non-minimal alternative is accepted only if the candidate's own global
link is *not* flagged (both-saturated falls back to minimal).
"""

from __future__ import annotations

import random

from repro.hardware.packet import Packet
from repro.routing.base import RoutingMechanism, eject_decision, min_hop_port
from repro.routing.vc import position_global_vc, position_local_vc

__all__ = ["PiggybackGroupState", "PiggybackRouting"]


class PiggybackGroupState:
    """Snapshot-based saturation sharing inside one group.

    ``saturated_global(owner_pos, port_j, querier_pos)`` answers "does the
    querier currently believe global port *j* of router *owner_pos* is
    saturated?" — live occupancy when the querier owns the link, the last
    periodic snapshot otherwise.

    The snapshot lives in the ``pb_snap*`` rows of the simulation's
    :class:`~repro.engine.soa.SoAStore` (occupancy per global port, their
    per-router sum, the cycle it was taken), refreshed lazily by the first
    remote query at least ``period`` cycles after the last refresh.  The
    compiled kernel's PiggyBack ``decide`` twin reads and writes the same
    rows, so this class stays the one definition of the state.
    """

    def __init__(self, sim, group: int) -> None:
        self.sim = sim
        self.group = group
        self.period = sim.config.pb_update_period
        self.psize = sim.config.traffic.packet_size
        self.t_global = sim.config.pb_threshold_global * self.psize
        a = sim.topo.a
        self._routers = [sim.routers[sim.topo.router_id(group, i)] for i in range(a)]
        self._h = sim.topo.h
        self._snap = sim.soa.pb_snap
        self._snap_sum = sim.soa.pb_snap_sum
        self._snap_time = sim.soa.pb_snap_time

    def _refresh(self, now: int) -> None:
        taken = self._snap_time[self.group]
        if now - taken < self.period and taken >= 0:
            return
        self._snap_time[self.group] = now
        snap = self._snap
        for router in self._routers:
            occs = router.global_port_occupancies()
            base = router.router_id * self._h
            for j, occ in enumerate(occs):
                snap[base + j] = occ
            self._snap_sum[router.router_id] = sum(occs)

    def _is_sat(self, occs: list[int], j: int) -> bool:
        mean = sum(occs) / len(occs)
        return occs[j] > mean + self.t_global

    def saturated_global(self, owner_pos: int, port_j: int, querier_pos: int) -> bool:
        """Saturation belief for global port *port_j* of *owner_pos*."""
        if querier_pos == owner_pos:
            occs = self._routers[owner_pos].global_port_occupancies()
            return self._is_sat(occs, port_j)
        self._refresh(self.sim.engine.now)
        h = self._h
        if not h:
            return False
        owner = self._routers[owner_pos].router_id
        mean = self._snap_sum[owner] / h
        return self._snap[owner * h + port_j] > mean + self.t_global


class PiggybackRouting(RoutingMechanism):
    """Source-adaptive MIN/Valiant selection with RRG or CRG non-minimal."""

    def __init__(self, sim, variant: str) -> None:
        super().__init__(sim)
        if variant not in ("rrg", "crg"):
            raise ValueError(f"unknown PiggyBack variant {variant!r}")
        self.variant = variant
        self.name = f"src-{variant}"
        self.rng: random.Random = sim.rng_routing
        self.psize = sim.config.traffic.packet_size
        self.t_local = sim.config.pb_threshold_local * self.psize
        self.groups_state: list[PiggybackGroupState] = [
            PiggybackGroupState(sim, g) for g in range(sim.topo.groups)
        ]

    # ------------------------------------------------------------------
    # saturation checks
    # ------------------------------------------------------------------
    def _local_link_saturated(self, router, port: int) -> bool:
        occs = router.local_port_occupancies()
        if not occs:
            return False
        idx = port - self.topo.first_local_port
        mean = sum(occs) / len(occs)
        return occs[idx] > mean + self.t_local

    def _min_path_saturated(self, pkt: Packet, router) -> bool:
        topo = self.topo
        if pkt.dst_group == router.group:
            return False  # intra-group minimal: nothing to divert
        gw_pos, gw_port = topo.gateway(router.group, pkt.dst_group)
        state = self.groups_state[router.group]
        j = gw_port - topo.first_global_port
        if state.saturated_global(gw_pos, j, router.pos):
            return True
        if gw_pos != router.pos:
            local = topo.local_port(router.pos, gw_pos)
            if self._local_link_saturated(router, local):
                return True
        return False

    def _nonmin_candidate(self, pkt: Packet, router) -> int:
        """Pick a Valiant intermediate router; -1 if none is acceptable."""
        topo = self.topo
        state = self.groups_state[router.group]
        if self.variant == "crg":
            offsets = topo.global_neighbor_groups(router.pos)
            groups = [(router.group + off) % topo.groups for off in offsets]
            groups = [g for g in groups if g != pkt.dst_group]
        else:
            groups = []
            for _ in range(4):
                g = self.rng.randrange(topo.groups)
                if g not in (pkt.src_group, pkt.dst_group):
                    groups.append(g)
        self.rng.shuffle(groups)
        for g in groups:
            gw_pos, gw_port = topo.gateway(router.group, g)
            j = gw_port - topo.first_global_port
            if not state.saturated_global(gw_pos, j, router.pos):
                return topo.router_id(g, self.rng.randrange(topo.a))
        return -1

    # ------------------------------------------------------------------
    def decide(self, pkt: Packet, router) -> tuple:
        if pkt.plan == 0:
            # Frozen source decision at the first head-of-queue evaluation.
            if self._min_path_saturated(pkt, router):
                inter = self._nonmin_candidate(pkt, router)
                if inter >= 0:
                    pkt.plan = 2
                    pkt.inter_router = inter
                else:
                    pkt.plan = 1
            else:
                pkt.plan = 1
        if pkt.plan == 1 and router.router_id == pkt.dst_router:
            return eject_decision(pkt)
        target = pkt.inter_router if pkt.plan == 2 else pkt.dst_router
        out_port = min_hop_port(self.topo, router, target)
        if self.topo.is_global_port(out_port):
            vc = position_global_vc(pkt, self.n_global_vcs)
        else:
            vc = position_local_vc(pkt, self.n_local_vcs)
        return (out_port, vc, 0, 0)
