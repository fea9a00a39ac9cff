"""Minimal (MIN) oblivious routing.

The reference mechanism for uniform traffic: always take the unique
shortest path (at most local-global-local plus ejection).  Under ADV+1 it
saturates at ``1/(a*p)`` phits/node/cycle and under ADVc at ``h/(a*p)``
(Section III) because all minimal paths share the group's single gateway
link(s).
"""

from __future__ import annotations

from repro.hardware.packet import Packet
from repro.routing.base import RoutingMechanism
from repro.routing.vc import (
    _POSITION_BASE,
    position_global_vc,
    position_local_vc,
)

__all__ = ["MinimalRouting"]


class MinimalRouting(RoutingMechanism):
    """Always-minimal routing with position-based VC assignment.

    ``decide`` is the hottest mechanism in the benchmark suite, so the
    shared helpers (:func:`~repro.routing.base.min_hop_port` and the
    position-VC functions) are inlined against the topology's precomputed
    gateway tables; the helpers stay the documented reference semantics
    and handle the (raising) overflow paths.
    """

    twin = "min"

    def __init__(self, sim, mechanism) -> None:
        super().__init__(sim, mechanism)
        topo = sim.topo
        self._a = topo.a
        self._groups = topo.groups
        self._first_local = topo.first_local_port
        self._first_global = topo.first_global_port
        self._gw_router = topo.gw_router_by_delta
        self._gw_port = topo.gw_port_by_delta

    def decide(self, pkt: Packet, router) -> tuple:
        dst_router = pkt.dst_router
        if router.router_id == dst_router:
            return (pkt.dst_node_port, 0, 0, 0)  # eject_decision(pkt)
        tg, ti = divmod(dst_router, self._a)
        pos = router.pos
        if router.group == tg:
            out_port = self._first_local + (ti if ti < pos else ti - 1)
        else:
            delta = (tg - router.group) % self._groups
            gw_pos = self._gw_router[delta]
            if pos == gw_pos:
                out_port = self._gw_port[delta]
            else:
                out_port = self._first_local + (gw_pos if gw_pos < pos else gw_pos - 1)
        if out_port >= self._first_global:
            vc = pkt.global_hops
            if vc >= self.n_global_vcs:
                return (out_port, position_global_vc(pkt, self.n_global_vcs), 0, 0)
        else:
            vc = _POSITION_BASE[pkt.global_hops] + pkt.group_local_hops
            if vc >= self.n_local_vcs:
                return (out_port, position_local_vc(pkt, self.n_local_vcs), 0, 0)
        return (out_port, vc, 0, 0)
