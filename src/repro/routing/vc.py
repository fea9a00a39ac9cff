"""Virtual-channel assignment (deadlock avoidance).

Two schemes are used, both deadlock-free because the VC index strictly
increases along every legal path, which makes the channel dependency
graph acyclic (Dally's criterion):

* **position-based** (oblivious / source-adaptive mechanisms): the local
  VC is keyed to the path *position* — source group uses VC 0,
  intermediate group VC 1 (and VC 2 for the second local hop of a
  Valiant-to-node leg), destination group VC 3; the n-th global hop uses
  global VC n.  Keying on position rather than on the number of local
  hops actually taken is essential: a packet injected *at* its group's
  gateway takes no source-group local hop, and counting hops would let it
  reuse local VC 0 in its destination group — closing a cyclic dependency
  through every group of the ring and deadlocking the network under
  sustained load.  Four local VCs cover the longest Valiant-to-node path,
  matching Table I's "4 local VCs (oblivious and source-adaptive)".

* **stage + escape** (in-transit adaptive): local VC = group stage
  (0 = source group, 1 = intermediate group, 2 = destination group);
  any *second* local hop inside one group (NRG diversion or OLM local
  misroute correction) uses the dedicated escape VC (the highest local
  VC).  Global VC = number of global hops taken (0 or 1).
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.hardware.packet import Packet

__all__ = [
    "position_local_vc",
    "position_global_vc",
    "stage_local_vc",
    "stage_global_vc",
]

# Local-VC base index per number of global hops already taken:
# 0 globals -> source group (VC 0); 1 global -> intermediate-or-destination
# group (VC 1, second hop VC 2); 2 globals -> destination group (VC 3).
_POSITION_BASE = (0, 1, 3)


def position_local_vc(pkt: Packet, n_local_vcs: int) -> int:
    """Local VC for the next local hop under the position-based scheme."""
    vc = _POSITION_BASE[pkt.global_hops] + pkt.group_local_hops
    if vc >= n_local_vcs:
        raise RoutingError(
            f"packet {pkt.pid} needs local VC {vc} but only "
            f"{n_local_vcs} are configured (path took too many local hops)"
        )
    return vc


def position_global_vc(pkt: Packet, n_global_vcs: int) -> int:
    """Global VC for the next global hop (strictly by global-hop index)."""
    vc = pkt.global_hops
    if vc >= n_global_vcs:
        raise RoutingError(
            f"packet {pkt.pid} needs global VC {vc} but only "
            f"{n_global_vcs} are configured (more than one misroute?)"
        )
    return vc


def stage_local_vc(pkt: Packet, group: int, n_local_vcs: int) -> int:
    """Local VC for the next local hop under the stage + escape scheme."""
    if pkt.group_local_hops >= 1:
        return n_local_vcs - 1  # escape VC for the second hop in a group
    if group == pkt.dst_group:
        return 2
    return 1 if pkt.global_hops >= 1 else 0


def stage_global_vc(pkt: Packet, n_global_vcs: int) -> int:
    """Global VC under the stage scheme (same as position for globals)."""
    vc = pkt.global_hops
    if vc >= n_global_vcs:
        raise RoutingError(
            f"packet {pkt.pid} needs global VC {vc} but only "
            f"{n_global_vcs} are configured"
        )
    return vc
