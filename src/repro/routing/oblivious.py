"""Oblivious non-minimal routing (Valiant variants Obl-RRG / Obl-CRG).

At injection each packet picks a random intermediate *router* (the router
of a random intermediate node, per the paper's node-based Valiant), routes
minimally to it, then minimally to the destination:

* **Obl-RRG** — the intermediate node is uniform over the whole network,
  excluding the source and destination groups (classic Valiant); on a
  network of fewer than 3 groups there is none, and building the
  mechanism there is a :class:`~repro.errors.ConfigurationError`.
* **Obl-CRG** — the intermediate node lives in one of the groups directly
  connected to the *source router*, saving the frequent first local hop at
  the cost of less randomisation.

The choice is frozen the first time the packet is evaluated at the head of
its injection queue (``plan`` 0 -> 2) and never revisited: the mechanism is
oblivious to network state.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hardware.packet import Packet
from repro.routing.base import SourceRoutedMechanism
from repro.routing.misrouting import CRG

__all__ = ["ObliviousValiantRouting"]


class ObliviousValiantRouting(SourceRoutedMechanism):
    """Valiant routing with RRG or CRG intermediate selection (the row's
    ``source``)."""

    twin = "oblivious"

    def __init__(self, sim, mechanism) -> None:
        super().__init__(sim, mechanism)
        if mechanism.source != CRG and sim.topo.groups < 3:
            raise ConfigurationError(
                f"{mechanism.name} needs at least 3 groups (an intermediate "
                f"group besides source and destination); the network has "
                f"{sim.topo.groups}"
            )

    def _choose_intermediate(self, pkt: Packet, router) -> int:
        topo = self.topo
        if self.mechanism.source == CRG:
            groups = self._crg_groups(pkt, router)
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
