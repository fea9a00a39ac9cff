"""The :class:`DragonflyTopology`: port maps, gateways and neighbours.

Port numbering convention (used consistently by routers, routing and
tests) for a router with ``p`` nodes, ``a-1`` local links and ``h`` global
links:

* ports ``0 .. p-1``                : node ports (injection in / ejection out)
* ports ``p .. p+a-2``              : local ports (to the other a-1 routers)
* ports ``p+a-1 .. p+a-1+h-1``      : global ports

Local port ``p + l`` of router ``i`` connects to router ``l`` if ``l < i``
else ``l + 1`` (the complete graph with self omitted).  Global port
``p + a - 1 + j`` follows the configured
:class:`repro.topology.arrangement.GlobalLinkArrangement`.
"""

from __future__ import annotations

from array import array
from functools import cached_property

from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.topology.arrangement import GlobalLinkArrangement, make_arrangement
from repro.topology.coordinates import NodeCoord, RouterCoord

__all__ = ["DragonflyTopology"]


class DragonflyTopology:
    """Structural queries over a canonical Dragonfly network.

    The constructor precomputes the gateway tables used by minimal routing
    (``gateway_router[g][g']`` and the corresponding port) so hot-path
    lookups are plain list indexing.

    Parameters
    ----------
    config:
        The network shape.  ``config.arrangement`` selects the global link
        arrangement; ``arrangement_seed`` only matters for ``"random"``.
    """

    def __init__(self, config: NetworkConfig, *, arrangement_seed: int = 0) -> None:
        self.config = config
        self.p = config.p
        self.a = config.a
        self.h = config.h
        self.groups = config.groups
        self.num_routers = config.num_routers
        self.num_nodes = config.num_nodes
        self.arrangement: GlobalLinkArrangement = make_arrangement(
            config.arrangement, self.a, self.h, seed=arrangement_seed
        )

        # Port layout boundaries.
        self.first_local_port = self.p
        self.first_global_port = self.p + self.a - 1
        self.radix = config.router_radix

        # gateway tables: for each (group-offset delta != 0):
        #   gw_router[delta]  : router-in-group owning the link to g+delta
        #   gw_port[delta]    : its global port index (absolute port number)
        #   landing_router[delta]: router-in-group on the remote side
        G = self.groups
        self._gw_router = [0] * G
        self._gw_port = [0] * G
        self._landing_router = [0] * G
        for delta in range(1, G):
            i, j = self.arrangement.slot_for_offset(delta)
            self._gw_router[delta] = i
            self._gw_port[delta] = self.first_global_port + j
            ri, _rj = self.arrangement.peer_slot(delta)
            self._landing_router[delta] = ri
        # Public hot-path aliases (shared list refs): gateway() without the
        # bounds checks, indexed by (dst_group - group) % groups.
        self.gw_router_by_delta = self._gw_router
        self.gw_port_by_delta = self._gw_port

        # per-router global port -> (peer_group_offset, peer_router, peer_port)
        # indexed by router-in-group i and port j.
        self._global_peer = [[(0, 0, 0)] * self.h for _ in range(self.a)]
        for i in range(self.a):
            for j in range(self.h):
                off = self.arrangement.offset(i, j)
                pi, pj = self.arrangement.peer_slot(off)
                self._global_peer[i][j] = (
                    off,
                    pi,
                    self.first_global_port + pj,
                )

        # Hot-path view of the same data: global_out[i] lists, in port
        # order, the (absolute port, peer-group offset) of router i's
        # global links — candidate generation indexes this directly
        # instead of going through the checked accessor methods.
        self.global_out: list[list[tuple[int, int]]] = [
            [
                (self.first_global_port + j, self._global_peer[i][j][0])
                for j in range(self.h)
            ]
            for i in range(self.a)
        ]

    # ------------------------------------------------------------------
    # id conversions
    # ------------------------------------------------------------------
    def router_coord(self, router_id: int) -> RouterCoord:
        """Flat router id -> (group, router-in-group)."""
        self._check_router(router_id)
        return RouterCoord.from_flat(router_id, self.a)

    def router_id(self, group: int, router: int) -> int:
        """(group, router-in-group) -> flat router id."""
        if not (0 <= group < self.groups and 0 <= router < self.a):
            raise TopologyError(f"router ({group},{router}) out of range")
        return group * self.a + router

    def node_coord(self, node_id: int) -> NodeCoord:
        """Flat node id -> (group, router, node-on-router)."""
        if not (0 <= node_id < self.num_nodes):
            raise TopologyError(f"node {node_id} out of range")
        return NodeCoord.from_flat(node_id, self.a, self.p)

    def node_router(self, node_id: int) -> int:
        """Flat router id hosting *node_id*."""
        if not (0 <= node_id < self.num_nodes):
            raise TopologyError(f"node {node_id} out of range")
        return node_id // self.p

    def group_of_router(self, router_id: int) -> int:
        """Group index of a flat router id."""
        self._check_router(router_id)
        return router_id // self.a

    def group_of_node(self, node_id: int) -> int:
        """Group index of a flat node id."""
        return self.node_router(node_id) // self.a

    def nodes_of_group(self, group: int) -> range:
        """Flat node ids belonging to *group*."""
        if not (0 <= group < self.groups):
            raise TopologyError(f"group {group} out of range")
        per = self.a * self.p
        return range(group * per, (group + 1) * per)

    def routers_of_group(self, group: int) -> range:
        """Flat router ids belonging to *group*."""
        if not (0 <= group < self.groups):
            raise TopologyError(f"group {group} out of range")
        return range(group * self.a, (group + 1) * self.a)

    # ------------------------------------------------------------------
    # port queries
    # ------------------------------------------------------------------
    def is_node_port(self, port: int) -> bool:
        """True for injection/ejection ports."""
        return 0 <= port < self.p

    def is_local_port(self, port: int) -> bool:
        """True for intra-group ports."""
        return self.first_local_port <= port < self.first_global_port

    def is_global_port(self, port: int) -> bool:
        """True for inter-group ports."""
        return self.first_global_port <= port < self.radix

    def local_port(self, i: int, target: int) -> int:
        """Port on router-in-group *i* towards router-in-group *target*."""
        if i == target:
            raise TopologyError("no local port to self")
        if not (0 <= i < self.a and 0 <= target < self.a):
            raise TopologyError(f"router index out of range: {i}, {target}")
        slot = target if target < i else target - 1
        return self.first_local_port + slot

    def local_port_target(self, i: int, port: int) -> int:
        """Router-in-group reached from router *i* through local *port*."""
        if not self.is_local_port(port):
            raise TopologyError(f"port {port} is not a local port")
        slot = port - self.first_local_port
        return slot if slot < i else slot + 1

    def global_port_peer(self, group: int, i: int, port: int) -> tuple[int, int, int]:
        """(peer_group, peer_router_in_group, peer_port) over global *port*."""
        if not self.is_global_port(port):
            raise TopologyError(f"port {port} is not a global port")
        j = port - self.first_global_port
        off, pi, pport = self._global_peer[i][j]
        return ((group + off) % self.groups, pi, pport)

    def global_neighbor_groups(self, i: int) -> list[int]:
        """Group *offsets* reachable directly from router-in-group *i*.

        Returns the ``h`` offsets (in port order) such that router *i* of
        any group ``g`` has a global link to ``g + offset``.
        """
        if not (0 <= i < self.a):
            raise TopologyError(f"router index {i} out of range")
        return [self._global_peer[i][j][0] for j in range(self.h)]

    # ------------------------------------------------------------------
    # gateways (minimal inter-group routing)
    # ------------------------------------------------------------------
    def gateway(self, group: int, dst_group: int) -> tuple[int, int]:
        """(router-in-group, global port) of *group*'s link to *dst_group*.

        Minimal routing from any router of *group* towards *dst_group* must
        reach this router and leave through this port.
        """
        delta = (dst_group - group) % self.groups
        if delta == 0:
            raise TopologyError("gateway to own group is undefined")
        return self._gw_router[delta], self._gw_port[delta]

    def landing_router(self, group: int, dst_group: int) -> int:
        """Router-in-group of *dst_group* where the link from *group* lands."""
        delta = (dst_group - group) % self.groups
        if delta == 0:
            raise TopologyError("landing router in own group is undefined")
        return self._landing_router[delta]

    def bottleneck_router(self, group: int, offsets: list[int] | None = None) -> int:
        """Router-in-group carrying the links to groups ``g+1 .. g+h``.

        With *offsets* given, returns the router owning the link for the
        first offset and raises :class:`TopologyError` unless a single
        router owns them all — the defining property of an ADVc-style
        pattern (Section III, footnote 1).
        """
        offs = offsets if offsets is not None else list(range(1, self.h + 1))
        owners = {self._gw_router[o % self.groups] for o in offs}
        if len(owners) != 1:
            raise TopologyError(
                f"offsets {offs} are not owned by a single router "
                f"(owners: {sorted(owners)}); not an ADVc bottleneck set"
            )
        return owners.pop()

    def advc_offsets(self, bottleneck: int | None = None) -> list[int]:
        """Group offsets whose links share one router (ADVc destination set).

        With the palmtree arrangement and ``bottleneck=None`` this returns
        ``[1, 2, ..., h]`` (the paper's consecutive groups).  For other
        arrangements, pass the router whose h offsets you want.
        """
        if bottleneck is None:
            if self.config.arrangement == "palmtree":
                return list(range(1, self.h + 1))
            raise TopologyError(
                "consecutive offsets are only a bottleneck set under the "
                "palmtree arrangement; pass bottleneck= for others"
            )
        return self.global_neighbor_groups(bottleneck)

    # ------------------------------------------------------------------
    def min_service_table(self, c_local: int, c_global: int, c_eject: int) -> array:
        """Dense R x R table of minimal-path base latencies (phit cost).

        ``table[src_router * R + dst_router]`` is the zero-load latency
        lower bound of a packet between the two routers under minimal
        routing with the given per-hop costs (local hop, global hop,
        ejection) — the Fig. 3 base latency the packet constructor
        reads per generated packet.  Built once per
        (cost-triple, topology) and memoised on the instance, so every
        cell warm-started from the shared ``_TOPO_CACHE`` entry reuses
        one table; the engine's lowered generator indexes it directly.
        """
        key = (c_local, c_global, c_eject)
        cache = getattr(self, "_ms_tables", None)
        if cache is None:
            cache = self._ms_tables = {}
        table = cache.get(key)
        if table is not None:
            return table
        R = self.num_routers
        a = self.a
        table = array("q", bytes(8 * R * R))
        for src in range(R):
            sg, si = src // a, src % a
            for dst in range(R):
                tg, ti = dst // a, dst % a
                cost = c_eject
                g, i = sg, si
                if g != tg:
                    gw_pos, _port = self.gateway(g, tg)
                    if i != gw_pos:
                        cost += c_local
                    cost += c_global
                    i = self.landing_router(g, tg)
                    g = tg
                if i != ti:
                    cost += c_local
                table[src * R + dst] = cost
        cache[key] = table
        return table

    # ------------------------------------------------------------------
    @cached_property
    def port_kind(self) -> list[str]:
        """Port class per absolute port index: 'node' / 'local' / 'global'."""
        kinds = []
        for port in range(self.radix):
            if self.is_node_port(port):
                kinds.append("node")
            elif self.is_local_port(port):
                kinds.append("local")
            else:
                kinds.append("global")
        return kinds

    def link_latency(self, port: int) -> int:
        """Propagation latency (cycles) of the link behind *port*."""
        kind = self.port_kind[port]
        if kind == "node":
            return self.config.node_link_latency
        if kind == "local":
            return self.config.local_link_latency
        return self.config.global_link_latency

    def describe(self) -> str:
        """Readable one-liner (delegates to the config)."""
        return self.config.describe()

    def _check_router(self, router_id: int) -> None:
        if not (0 <= router_id < self.num_routers):
            raise TopologyError(f"router {router_id} out of range")
