"""Oblivious non-minimal routing (Valiant variants Obl-RRG / Obl-CRG).

At injection each packet picks a random intermediate *router* (the router
of a random intermediate node, per the paper's node-based Valiant), routes
minimally to it, then minimally to the destination:

* **Obl-RRG** — the intermediate node is uniform over the whole network,
  excluding the source and destination groups (classic Valiant).
* **Obl-CRG** — the intermediate node lives in one of the groups directly
  connected to the *source router*, saving the frequent first local hop at
  the cost of less randomisation.

The choice is frozen the first time the packet is evaluated at the head of
its injection queue (``plan`` 0 -> 2) and never revisited: the mechanism is
oblivious to network state.
"""

from __future__ import annotations

import random

from repro.hardware.packet import Packet
from repro.routing.base import RoutingMechanism, eject_decision, min_hop_port
from repro.routing.vc import position_global_vc, position_local_vc

__all__ = ["ObliviousValiantRouting"]


class ObliviousValiantRouting(RoutingMechanism):
    """Valiant routing with RRG or CRG intermediate selection."""

    def __init__(self, sim, variant: str) -> None:
        super().__init__(sim)
        if variant not in ("rrg", "crg"):
            raise ValueError(f"unknown oblivious variant {variant!r}")
        self.variant = variant
        self.name = f"obl-{variant}"
        self.rng: random.Random = sim.rng_routing

    # ------------------------------------------------------------------
    def _choose_intermediate(self, pkt: Packet, router) -> int:
        """Random intermediate router id, or -1 to fall back to minimal."""
        topo = self.topo
        if self.variant == "crg":
            offsets = topo.global_neighbor_groups(router.pos)
            groups = [(router.group + off) % topo.groups for off in offsets]
            groups = [g for g in groups if g != pkt.dst_group]
            if not groups:
                return -1
            g = self.rng.choice(groups)
            return topo.router_id(g, self.rng.randrange(topo.a))
        # rrg: any group except source and destination
        groups = topo.groups
        while True:
            g = self.rng.randrange(groups)
            if g != pkt.src_group and g != pkt.dst_group:
                return topo.router_id(g, self.rng.randrange(topo.a))

    # ------------------------------------------------------------------
    def decide(self, pkt: Packet, router) -> tuple:
        if pkt.plan == 0:
            inter = self._choose_intermediate(pkt, router)
            if inter < 0:
                pkt.plan = 1
            else:
                pkt.plan = 2
                pkt.inter_router = inter
        if pkt.plan == 1 and router.router_id == pkt.dst_router:
            return eject_decision(pkt)
        target = pkt.inter_router if pkt.plan == 2 else pkt.dst_router
        out_port = min_hop_port(self.topo, router, target)
        if self.topo.is_global_port(out_port):
            vc = position_global_vc(pkt, self.n_global_vcs)
        else:
            vc = position_local_vc(pkt, self.n_local_vcs)
        return (out_port, vc, 0, 0)
