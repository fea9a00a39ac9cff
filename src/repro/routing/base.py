"""Routing mechanism interface and shared hop helpers.

A *decision* is the tuple ``(out_port, out_vc, action, aux)``:

* ``action = 0`` - plain hop (minimal or already-committed plan);
* ``action = 1`` - commit a global misroute towards intermediate group
  ``aux`` (applied to the packet only if the grant goes through);
* ``action = 2`` - opportunistic local misroute (hop counters record it;
  no extra state).

:meth:`RoutingMechanism.decide` runs on every allocation pass a head
packet participates in — nothing in Python memoizes a decision — so
adaptive mechanisms re-evaluate while a packet waits, reading live
congestion state and drawing from their RNG; state is only mutated in
:meth:`RoutingMechanism.commit` (called exactly once per granted hop) and
in :meth:`RoutingMechanism.on_arrival` (once per link traversal).  The
only memo is the compiled kernel's own, for the C twins of ``decide``
(``engine/_ckernel.c``): it reuses a twin's decision only where
re-deciding provably returns it again without drawing, and the
python-vs-compiled golden digests check it against this memo-free
reference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import RoutingError
from repro.hardware.packet import Packet

__all__ = ["RoutingMechanism", "min_hop_port", "eject_decision"]


def min_hop_port(topo, router, target_router: int) -> int:
    """Output port for the next minimal hop towards *target_router*.

    Implements hierarchical minimal routing: inside the target group, a
    local hop to the target; otherwise proceed to (or through) the unique
    gateway holding the global link towards the target's group.  The
    caller must handle ``router.router_id == target_router`` (ejection).

    This is the innermost helper of every minimal-phase decision, so it
    indexes the topology's precomputed gateway tables directly instead of
    going through the bounds-checked accessors (the inputs are router
    state and a valid router id, both structurally in range).
    """
    tg, ti = divmod(target_router, topo.a)
    g, i = router.group, router.pos
    if g == tg:
        if i == ti:
            raise RoutingError("min_hop_port called at the target router")
        return topo.first_local_port + (ti if ti < i else ti - 1)
    delta = (tg - g) % topo.groups
    gw_pos = topo.gw_router_by_delta[delta]
    if i == gw_pos:
        return topo.gw_port_by_delta[delta]
    return topo.first_local_port + (gw_pos if gw_pos < i else gw_pos - 1)


def eject_decision(pkt: Packet) -> tuple:
    """Decision delivering *pkt* to its destination node port."""
    return (pkt.dst_node_port, 0, 0, 0)


class RoutingMechanism(ABC):
    """Base class for all mechanisms; owns arrival-time bookkeeping."""

    #: mechanism name as it appears in the paper's legends (set by factory)
    name: str = "?"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.topo = sim.topo
        self.n_local_vcs = sim.config.router.local_vcs
        self.n_global_vcs = sim.config.router.global_vcs
        # Port-kind lookups for the commit hot path (one list index
        # instead of a string compare per granted hop).
        self._commit_local = [k == "local" for k in sim.topo.port_kind]
        self._commit_global = [k == "global" for k in sim.topo.port_kind]

    # ------------------------------------------------------------------
    @abstractmethod
    def decide(self, pkt: Packet, router) -> tuple:
        """Return the decision tuple for the head packet *pkt* at *router*.

        Must always return a decision (never None): a packet whose chosen
        output lacks credit simply loses the pass and is re-evaluated when
        resources free up.
        """

    # ------------------------------------------------------------------
    def commit(self, pkt: Packet, router, dec: tuple) -> None:
        """Apply state changes for a granted hop (called once per grant)."""
        out_port = dec[0]
        if self._commit_local[out_port]:
            pkt.local_hops += 1
            pkt.group_local_hops += 1
            if pkt.group_local_hops > 2:
                raise RoutingError(
                    f"packet {pkt.pid} took a third local hop in group "
                    f"{router.group}; VC safety would be violated"
                )
        elif self._commit_global[out_port]:
            pkt.global_hops += 1
        if dec[2] == 1:
            pkt.inter_group = dec[3]

    # ------------------------------------------------------------------
    def on_arrival(self, pkt: Packet, router, port: int) -> None:
        """Per-link-arrival bookkeeping (group transitions, plan updates)."""
        group = router.group
        if group != pkt.current_group:
            pkt.current_group = group
            pkt.group_local_hops = 0
            if pkt.inter_group == group:
                pkt.inter_group = -1  # intermediate group reached
        if pkt.plan == 2 and router.router_id == pkt.inter_router:
            pkt.plan = 1  # intermediate router reached; minimal from here
