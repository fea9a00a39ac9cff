"""Tests for VC assignment and misrouting-policy candidate generation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.errors import RoutingError
from repro.routing.misrouting import (
    crg_candidates,
    nrg_candidates,
    rrg_candidates,
)
from repro.routing.vc import (
    position_global_vc,
    position_local_vc,
    stage_global_vc,
    stage_local_vc,
)
from repro.topology.dragonfly import DragonflyTopology
from tests.test_hardware_packet_allocator import make_packet


class FakeRouter:
    """Minimal stand-in exposing what candidate generators need."""

    def __init__(self, topo, group, pos):
        self.topo = topo
        self.group = group
        self.pos = pos
        self.router_id = topo.router_id(group, pos)


@pytest.fixture(scope="module")
def topo():
    return DragonflyTopology(NetworkConfig(p=2, a=4, h=2))


class TestPositionVc:
    def test_source_group_local_is_vc0(self):
        pkt = make_packet()
        assert position_local_vc(pkt, 4) == 0

    def test_dest_local_after_one_global_is_vc1(self):
        pkt = make_packet()
        pkt.global_hops = 1
        pkt.group_local_hops = 0
        assert position_local_vc(pkt, 4) == 1

    def test_second_local_in_intermediate_group_is_vc2(self):
        pkt = make_packet()
        pkt.global_hops = 1
        pkt.group_local_hops = 1
        assert position_local_vc(pkt, 4) == 2

    def test_dest_local_after_two_globals_is_vc3(self):
        pkt = make_packet()
        pkt.global_hops = 2
        pkt.group_local_hops = 0
        assert position_local_vc(pkt, 4) == 3

    def test_gateway_injected_packet_does_not_reuse_vc0(self):
        """Regression for the group-ring deadlock (repro.routing.vc): a packet
        injected at its gateway (no source local hop) must still use
        local VC >= 1 in its destination group."""
        pkt = make_packet()
        pkt.global_hops = 1  # went straight to the global link
        assert pkt.local_hops == 0
        assert position_local_vc(pkt, 4) >= 1

    def test_global_vc_by_hop_index(self):
        pkt = make_packet()
        assert position_global_vc(pkt, 2) == 0
        pkt.global_hops = 1
        assert position_global_vc(pkt, 2) == 1

    def test_exhausted_vcs_raise(self):
        pkt = make_packet()
        pkt.global_hops = 2
        with pytest.raises(RoutingError):
            position_global_vc(pkt, 2)
        pkt.global_hops = 2
        pkt.group_local_hops = 1
        with pytest.raises(RoutingError):
            position_local_vc(pkt, 4)

    @settings(max_examples=50, deadline=None)
    @given(
        g1=st.integers(0, 1),
        l1=st.integers(0, 1),
    )
    def test_vc_strictly_increases_along_hops(self, g1, l1):
        """Local VC indices strictly increase with path progress."""
        pkt = make_packet()
        seq = []
        # source group local (optional)
        if l1:
            seq.append(position_local_vc(pkt, 4))
            pkt.local_hops += 1
            pkt.group_local_hops += 1
        # first global
        pkt.group_local_hops = 0
        pkt.global_hops += 1
        # intermediate/destination locals
        seq.append(position_local_vc(pkt, 4))
        pkt.group_local_hops += 1
        if g1:
            seq.append(position_local_vc(pkt, 4))
            pkt.group_local_hops = 0
            pkt.global_hops += 1
            seq.append(position_local_vc(pkt, 4))
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)


class TestStageVc:
    def test_source_stage(self):
        pkt = make_packet()
        assert stage_local_vc(pkt, pkt.src_group, 4) == 0

    def test_intermediate_stage(self):
        pkt = make_packet()
        pkt.global_hops = 1
        assert stage_local_vc(pkt, 3, 4) == 1  # group 3 != dst_group 1

    def test_destination_stage(self):
        pkt = make_packet()
        pkt.global_hops = 1
        assert stage_local_vc(pkt, pkt.dst_group, 4) == 2

    def test_escape_vc_for_second_hop(self):
        pkt = make_packet()
        pkt.group_local_hops = 1
        assert stage_local_vc(pkt, 0, 4) == 3

    def test_global_vc(self):
        pkt = make_packet()
        assert stage_global_vc(pkt, 2) == 0
        pkt.global_hops = 2
        with pytest.raises(RoutingError):
            stage_global_vc(pkt, 2)


class TestCandidates:
    def test_crg_candidates_are_own_globals(self, topo):
        router = FakeRouter(topo, 0, 3)  # bottleneck: globals to +1, +2
        pkt = make_packet()
        pkt.dst_group = 1
        cands = crg_candidates(topo, router, pkt)
        for port, inter in cands:
            assert topo.is_global_port(port)
            assert inter not in (pkt.dst_group, pkt.src_group)
        # one of the two globals goes to group 2, eligible
        assert any(inter == 2 for _p, inter in cands)

    def test_crg_overlap_at_bottleneck(self, topo):
        """Section III: from the bottleneck router, CRG candidates all
        coincide with destination-set gateways."""
        router = FakeRouter(topo, 0, 3)
        pkt = make_packet()
        pkt.dst_group = 1
        cands = crg_candidates(topo, router, pkt)
        dst_set = {1, 2}  # ADVc destinations for group 0 (h=2)
        assert all(inter in dst_set for _p, inter in cands)

    def test_nrg_candidates_start_local(self, topo):
        router = FakeRouter(topo, 0, 0)
        pkt = make_packet()
        pkt.dst_group = 3
        rng = random.Random(0)
        cands = nrg_candidates(topo, router, pkt, rng, k=16)
        assert cands, "expected at least one sample"
        for port, inter in cands:
            assert topo.is_local_port(port)
            assert inter not in (pkt.dst_group, pkt.src_group)

    def test_rrg_candidates_exclude_src_dst(self, topo):
        router = FakeRouter(topo, 0, 1)
        pkt = make_packet()
        pkt.dst_group = 4
        rng = random.Random(1)
        cands = rrg_candidates(topo, router, pkt, rng, k=32)
        inters = {inter for _p, inter in cands}
        assert pkt.src_group not in inters
        assert pkt.dst_group not in inters
        assert 0 not in inters  # current group excluded

    def test_rrg_first_hop_matches_gateway(self, topo):
        router = FakeRouter(topo, 0, 1)
        pkt = make_packet()
        pkt.dst_group = 4
        rng = random.Random(2)
        for port, inter in rrg_candidates(topo, router, pkt, rng, k=32):
            gw_pos, gw_port = topo.gateway(0, inter)
            if gw_pos == 1:
                assert port == gw_port
            else:
                assert port == topo.local_port(1, gw_pos)
