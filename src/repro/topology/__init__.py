"""Canonical Dragonfly topology: arrangements, gateway tables, paths.

The topology layer is pure and stateless: given ``(p, a, h)`` and a global
link arrangement it answers structural queries (which port reaches which
group, who is the gateway router, what is the minimal path) used by both
the routers and the routing mechanisms.
"""

from repro.topology.arrangement import (
    ConsecutiveArrangement,
    GlobalLinkArrangement,
    PalmtreeArrangement,
    RandomArrangement,
    make_arrangement,
)
from repro.topology.coordinates import NodeCoord, RouterCoord
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import (
    Hop,
    minimal_path,
    minimal_path_length,
    valiant_path,
)

__all__ = [
    "ConsecutiveArrangement",
    "DragonflyTopology",
    "GlobalLinkArrangement",
    "Hop",
    "NodeCoord",
    "PalmtreeArrangement",
    "RandomArrangement",
    "RouterCoord",
    "make_arrangement",
    "minimal_path",
    "minimal_path_length",
    "valiant_path",
]
