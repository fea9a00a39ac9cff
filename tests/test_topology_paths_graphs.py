"""Tests for path computation, checked against NetworkX views of the wiring.

NetworkX is a test-only dependency: the graphs below are built here, from
the topology's port tables, so the package itself stays standard-library
only (``tests/test_import_contract.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.config import NetworkConfig
from repro.errors import TopologyError
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import minimal_path, minimal_path_length, valiant_path


def router_graph(topo: DragonflyTopology) -> nx.Graph:
    """Undirected router-level graph with edge attribute ``kind``.

    Nodes are flat router ids; edges are local (intra-group) and global
    (inter-group) links.  Node ports are not represented.
    """
    g = nx.Graph()
    g.add_nodes_from(range(topo.num_routers))
    for router_id in range(topo.num_routers):
        grp, i = divmod(router_id, topo.a)
        # local complete graph (add each edge once)
        for other in range(i + 1, topo.a):
            g.add_edge(router_id, topo.router_id(grp, other), kind="local")
        # global links (add each edge once: only when peer id is larger)
        for port in range(topo.first_global_port, topo.radix):
            pg, pi, _pp = topo.global_port_peer(grp, i, port)
            peer = topo.router_id(pg, pi)
            if peer > router_id:
                g.add_edge(router_id, peer, kind="global")
    return g


def group_graph(topo: DragonflyTopology) -> nx.Graph:
    """Group-level graph (must be the complete graph K_G)."""
    g = nx.Graph()
    g.add_nodes_from(range(topo.groups))
    for grp in range(topo.groups):
        for i in range(topo.a):
            for port in range(topo.first_global_port, topo.radix):
                pg, _pi, _pp = topo.global_port_peer(grp, i, port)
                g.add_edge(grp, pg)
    return g


def topology_diameter(topo: DragonflyTopology) -> int:
    """Router-graph diameter (3 for any canonical Dragonfly with a >= 2)."""
    return nx.diameter(router_graph(topo))


@pytest.fixture(scope="module")
def topo():
    return DragonflyTopology(NetworkConfig(p=2, a=4, h=2))


def _walk(topo, src_node, hops):
    """Follow a hop list, verifying wiring consistency; return final router."""
    rid = topo.node_router(src_node)
    for hop in hops[:-1]:
        assert hop.router_id == rid
        g, i = divmod(rid, topo.a)
        if hop.kind == "local":
            j = topo.local_port_target(i, hop.port)
            rid = topo.router_id(g, j)
        elif hop.kind == "global":
            pg, pi, _pp = topo.global_port_peer(g, i, hop.port)
            rid = topo.router_id(pg, pi)
        else:
            raise AssertionError("node hop before the end of the path")
    assert hops[-1].kind == "node"
    return rid


class TestMinimalPath:
    def test_same_router_is_eject_only(self, topo):
        path = minimal_path(topo, 0, 1)  # both nodes on router 0
        assert len(path) == 1
        assert path[0].kind == "node"

    def test_intra_group_single_local(self, topo):
        # nodes on routers 0 and 1 of group 0
        path = minimal_path(topo, 0, 2)
        kinds = [h.kind for h in path]
        assert kinds == ["local", "node"]

    def test_inter_group_shape(self, topo):
        per_group = topo.a * topo.p
        path = minimal_path(topo, 0, per_group)  # group 0 -> group 1
        kinds = [h.kind for h in path]
        assert kinds[-1] == "node"
        assert kinds.count("global") == 1
        assert len(path) <= 4  # l, g, l, node

    def test_self_path_raises(self, topo):
        with pytest.raises(TopologyError):
            minimal_path(topo, 5, 5)

    def test_path_ends_at_destination(self, topo):
        for dst in (1, 9, 30, 71):
            path = minimal_path(topo, 0, dst)
            assert _walk(topo, 0, path) == topo.node_router(dst)

    @settings(max_examples=60, deadline=None)
    @given(src=st.integers(0, 71), dst=st.integers(0, 71))
    def test_minimal_never_exceeds_three_hops(self, topo, src, dst):
        if src == dst:
            return
        assert minimal_path_length(topo, src, dst) <= 3

    @settings(max_examples=40, deadline=None)
    @given(src=st.integers(0, 71), dst=st.integers(0, 71))
    def test_minimal_bounded_by_graph_distance(self, topo, src, dst):
        """Hierarchical minimal routing is at least the graph distance.

        It is NOT always equal: Dragonfly "minimal" routing uses the
        unique direct inter-group link (l-g-l), while the router graph
        occasionally offers a shorter global-global path through a third
        group.  The hierarchical path is what the paper's MIN routing
        uses; the graph distance only lower-bounds it.
        """
        if src == dst:
            return
        rg = _ROUTER_GRAPH
        sr, dr = topo.node_router(src), topo.node_router(dst)
        dist = nx.shortest_path_length(rg, sr, dr)
        hier = minimal_path_length(topo, src, dst)
        assert dist <= hier <= 3
        # Within one group they coincide exactly.
        if topo.group_of_router(sr) == topo.group_of_router(dr):
            assert hier == dist


class TestValiantPath:
    @settings(max_examples=40, deadline=None)
    @given(
        src=st.integers(0, 71),
        dst=st.integers(0, 71),
        inter=st.integers(0, 35),
    )
    def test_valiant_reaches_destination(self, topo, src, dst, inter):
        if src == dst:
            return
        path = valiant_path(topo, src, dst, inter)
        assert _walk(topo, src, path) == topo.node_router(dst)
        # at most l g l l g l + eject
        assert len(path) <= 7
        assert sum(1 for h in path if h.kind == "global") <= 2

    def test_degenerate_intermediate_on_path(self, topo):
        """Intermediate = source router collapses to the minimal path."""
        src, dst = 0, 40
        sr = topo.node_router(src)
        path = valiant_path(topo, src, dst, sr)
        assert [h.kind for h in path] == [h.kind for h in minimal_path(topo, src, dst)]


class TestGraphs:
    def test_router_graph_is_regular(self, topo):
        g = _ROUTER_GRAPH
        degrees = {d for _n, d in g.degree()}
        assert degrees == {topo.a - 1 + topo.h}

    def test_group_graph_complete(self, topo):
        gg = group_graph(topo)
        assert gg.number_of_nodes() == topo.groups
        assert gg.number_of_edges() == topo.groups * (topo.groups - 1) // 2

    def test_diameter_is_three(self, topo):
        assert topology_diameter(topo) == 3

    def test_edge_kinds(self, topo):
        g = _ROUTER_GRAPH
        kinds = {d["kind"] for _u, _v, d in g.edges(data=True)}
        assert kinds == {"local", "global"}

    def test_local_edges_count(self, topo):
        g = _ROUTER_GRAPH
        locals_ = [1 for _u, _v, d in g.edges(data=True) if d["kind"] == "local"]
        expected = topo.groups * topo.a * (topo.a - 1) // 2
        assert len(locals_) == expected


_ROUTER_GRAPH = router_graph(DragonflyTopology(NetworkConfig(p=2, a=4, h=2)))
