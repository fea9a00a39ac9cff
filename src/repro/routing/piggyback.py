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

from repro.hardware.packet import Packet
from repro.routing.base import SourceRoutedMechanism
from repro.routing.misrouting import CRG

__all__ = ["PiggybackRouting"]

#: groups an RRG row probes per source decision
PB_PROBES = 4


class PiggybackRouting(SourceRoutedMechanism):
    """Source-adaptive MIN/Valiant selection with RRG or CRG non-minimal
    (the row's ``source``).

    The saturation snapshot lives in the ``pb_snap*`` rows of the
    simulation's :class:`~repro.engine.soa.SoAStore` (occupancy per global
    port, their per-router sum, the cycle each group's was taken),
    refreshed lazily by the first remote query at least ``period`` cycles
    after the group's last refresh.  The compiled kernel's twin reads and
    writes the same rows.
    """

    twin = "piggyback"

    def __init__(self, sim, mechanism) -> None:
        super().__init__(sim, mechanism)
        self.psize = sim.config.traffic.packet_size
        self.t_local = sim.config.pb_threshold_local * self.psize
        self.t_global = sim.config.pb_threshold_global * self.psize
        self.period = sim.config.pb_update_period
        self._routers = sim.routers
        self._snap = sim.soa.pb_snap
        self._snap_sum = sim.soa.pb_snap_sum
        self._snap_time = sim.soa.pb_snap_time

    # ------------------------------------------------------------------
    # saturation checks
    # ------------------------------------------------------------------
    def _refresh(self, group: int) -> None:
        """Retake *group*'s snapshot rows if the last is ``period`` old."""
        now = self.engine.now
        taken = self._snap_time[group]
        if now - taken < self.period and taken >= 0:
            return
        self._snap_time[group] = now
        h = self.topo.h
        snap = self._snap
        for i in range(self.topo.a):
            router = self._routers[self.topo.router_id(group, i)]
            occs = router.global_port_occupancies()
            base = router.router_id * h
            for j, occ in enumerate(occs):
                snap[base + j] = occ
            self._snap_sum[router.router_id] = sum(occs)

    def _saturated_global(self, router, owner_pos: int, port_j: int) -> bool:
        """Does *router* believe global port *port_j* of the router at
        *owner_pos* of its group is saturated?  Live occupancy when it owns
        the link, the group's last snapshot otherwise."""
        if owner_pos == router.pos:
            occs = router.global_port_occupancies()
            mean = sum(occs) / len(occs)
            return occs[port_j] > mean + self.t_global
        self._refresh(router.group)
        h = self.topo.h
        if not h:
            return False
        owner = self.topo.router_id(router.group, owner_pos)
        mean = self._snap_sum[owner] / h
        return self._snap[owner * h + port_j] > mean + self.t_global

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
        if self._saturated_global(router, gw_pos, gw_port - topo.first_global_port):
            return True
        if gw_pos != router.pos:
            local = topo.local_port(router.pos, gw_pos)
            if self._local_link_saturated(router, local):
                return True
        return False

    def _nonmin_candidate(self, pkt: Packet, router) -> int:
        """Pick a Valiant intermediate router; -1 if none is acceptable."""
        topo = self.topo
        if self.mechanism.source == CRG:
            groups = self._crg_groups(pkt, router)
        else:
            groups = []
            for _ in range(PB_PROBES):
                g = self.rng.randrange(topo.groups)
                if g not in (pkt.src_group, pkt.dst_group):
                    groups.append(g)
        self.rng.shuffle(groups)
        for g in groups:
            gw_pos, gw_port = topo.gateway(router.group, g)
            if not self._saturated_global(
                router, gw_pos, gw_port - topo.first_global_port
            ):
                return topo.router_id(g, self.rng.randrange(topo.a))
        return -1

    # ------------------------------------------------------------------
    def _choose_intermediate(self, pkt: Packet, router) -> int:
        if not self._min_path_saturated(pkt, router):
            return -1
        return self._nonmin_candidate(pkt, router)
