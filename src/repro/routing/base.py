"""Routing mechanism interface and shared hop helpers.

A *decision* is the tuple ``(out_port, out_vc, action, aux)``:

* ``action = 0`` - plain hop (minimal or already-committed plan);
* ``action = 1`` - commit a global misroute towards intermediate group
  ``aux`` (applied to the packet only if the grant goes through);
* ``action = 2`` - opportunistic local misroute (hop counters record it;
  no extra state).

:meth:`RoutingMechanism.decide` is the whole interface: mechanisms
differ only in the routing decision, which reads the mechanism's
:class:`~repro.routing.factory.Mechanism` row (``self.mechanism``).  It
runs on every allocation pass a head packet participates in — nothing in
Python memoizes a decision — so adaptive mechanisms re-evaluate while a
packet waits, reading live congestion state and drawing from their RNG
(``self.rng``, the simulation's ``rng_routing``).  Applying a granted
decision (hop counts, binding ``action = 1``'s intermediate group) and
the per-arrival group transitions and Valiant plan switch are router
behaviour, written once per backend (``engine/kernel.py``'s ``_commit``
/ ``arrive``, ``engine/_ckernel.c``'s ``c_commit`` / ``c_arrive``).
The only memo is the compiled kernel's own, for the C twins of
``decide``: it reuses a twin's decision only where re-deciding provably
returns it again without drawing, and the python-vs-compiled golden
digests check it against this memo-free reference.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.errors import RoutingError
from repro.hardware.packet import Packet
from repro.routing.vc import position_global_vc, position_local_vc

__all__ = [
    "RoutingMechanism",
    "SourceRoutedMechanism",
    "eject_decision",
    "min_hop_port",
]


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
    """Base class for all mechanisms: a routing decision, nothing else."""

    #: kind of the compiled kernel's C twin of ``decide`` for exactly this
    #: class (see :func:`repro.routing.factory.decide_twin`); None: no twin
    twin: str | None = None

    def __init__(self, sim, mechanism) -> None:
        # the engine (its clock), never *sim*: nothing a simulation wires
        # may refer back to it (see Simulation.close)
        self.engine = sim.engine
        self.mechanism = mechanism
        #: the name of the mechanism's row, as in the paper's legends
        self.name: str = mechanism.name
        self.rng: random.Random = sim.rng_routing
        self.topo = sim.topo
        self.n_local_vcs = sim.config.router.local_vcs
        self.n_global_vcs = sim.config.router.global_vcs

    # ------------------------------------------------------------------
    @abstractmethod
    def decide(self, pkt: Packet, router) -> tuple:
        """Return the decision tuple for the head packet *pkt* at *router*.

        Must always return a decision (never None): a packet whose chosen
        output lacks credit simply loses the pass and is re-evaluated when
        resources free up.
        """


class SourceRoutedMechanism(RoutingMechanism):
    """A mechanism that fixes each packet's path at its source router.

    The plan is frozen the first time the packet is evaluated at the head
    of its injection queue — ``plan`` 0 -> 2 via the Valiant intermediate
    router :meth:`_choose_intermediate` returns, or 0 -> 1 minimal when it
    returns -1 — and never revisited; from then on ``decide`` walks
    minimally to the plan's target on position-based VCs (the C twins'
    ``freeze_plan`` and ``c_plan_walk``).
    """

    @abstractmethod
    def _choose_intermediate(self, pkt: Packet, router) -> int:
        """Valiant intermediate router id, or -1 for the minimal path."""

    def _crg_groups(self, pkt: Packet, router) -> list[int]:
        """The groups *router*'s own global links reach, in port order,
        without the destination group (the C twins' ``crg_groups``)."""
        topo = self.topo
        offsets = topo.global_neighbor_groups(router.pos)
        groups = [(router.group + off) % topo.groups for off in offsets]
        return [g for g in groups if g != pkt.dst_group]

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
