"""Global misrouting candidate sets: candidate generation for non-minimal hops.

Definitions from Garcia et al. (INA-OCMC'13), Section II-B of the paper:

* **CRG** (current-router global): the intermediate group must be directly
  connected to the *current* router — the non-minimal path starts with one
  of this router's own global links.
* **NRG** (neighbour-router global): the intermediate group hangs off a
  *different* router of the current group — the non-minimal path starts
  with a local hop.
* **RRG** (random-router global): any group; the first hop is this
  router's own global link when the group is directly attached, otherwise
  a local hop towards its gateway.
* **MM** (mixed mode, in-transit only): CRG when deciding at the source
  router, NRG for packets already in transit.

A :class:`~repro.routing.factory.Mechanism` row names its ``source`` and
``transit`` sets by the constants below; MM is ``(CRG, NRG)``.

Each candidate is ``(first_hop_port, intermediate_group)``.  The in-transit
mechanism samples a bounded number of candidates per decision and picks
the least-occupied first hop, which models FOGSim's credit-count
comparison without scanning every group at every allocation.
"""

from __future__ import annotations

import random

from repro.hardware.packet import Packet

__all__ = [
    "CRG",
    "NRG",
    "RRG",
    "crg_candidates",
    "nrg_candidates",
    "rrg_candidates",
]

#: the candidate sets, as a mechanism's row and the C twins name them
CRG, NRG, RRG = 0, 1, 2

#: candidates sampled per decision by the randomised sets
SAMPLE_K = 4


def crg_candidates(topo, router, pkt: Packet) -> list[tuple[int, int]]:
    """All own-global-port candidates (excluding the destination group).

    From the ADVc bottleneck router this set coincides with the congested
    minimal links of its neighbours — the structural overlap Section III
    identifies as the root of the unfairness.
    """
    g = router.group
    groups = topo.groups
    dst_group = pkt.dst_group
    src_group = pkt.src_group
    out = []
    for port, off in topo.global_out[router.pos]:
        peer_group = (g + off) % groups
        if peer_group != dst_group and peer_group != src_group:
            out.append((port, peer_group))
    return out


def nrg_candidates(
    topo, router, pkt: Packet, rng: random.Random, k: int = SAMPLE_K
) -> list[tuple[int, int]]:
    """Sample candidates reached through *other* routers of this group."""
    g, i = router.group, router.pos
    a = topo.a
    groups = topo.groups
    global_out = topo.global_out
    first_local = topo.first_local_port
    out: list[tuple[int, int]] = []
    for _ in range(k):
        w = rng.randrange(a - 1)
        if w >= i:
            w += 1
        j = rng.randrange(topo.h)
        peer_group = (g + global_out[w][j][1]) % groups
        if peer_group == pkt.dst_group or peer_group == pkt.src_group:
            continue
        out.append((first_local + (w if w < i else w - 1), peer_group))
    return out


def rrg_candidates(
    topo, router, pkt: Packet, rng: random.Random, k: int = SAMPLE_K
) -> list[tuple[int, int]]:
    """Sample candidates over all groups (first hop own-global or local)."""
    g, i = router.group, router.pos
    groups = topo.groups
    gw_router = topo.gw_router_by_delta
    gw_port_tbl = topo.gw_port_by_delta
    first_local = topo.first_local_port
    out: list[tuple[int, int]] = []
    for _ in range(k):
        tg = rng.randrange(groups)
        if tg == g or tg == pkt.dst_group or tg == pkt.src_group:
            continue
        delta = (tg - g) % groups
        gw_pos = gw_router[delta]
        if gw_pos == i:
            port = gw_port_tbl[delta]
        else:
            port = first_local + (gw_pos if gw_pos < i else gw_pos - 1)
        out.append((port, tg))
    return out
