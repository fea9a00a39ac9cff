"""Tests for global link arrangements (palmtree, consecutive, random)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.core.simulation import Simulation
from repro.errors import TopologyError
from repro.topology.arrangement import (
    ConsecutiveArrangement,
    PalmtreeArrangement,
    RandomArrangement,
    make_arrangement,
)

shapes = st.tuples(
    st.integers(min_value=1, max_value=8),  # a
    st.integers(min_value=1, max_value=6),  # h
)


class TestPalmtree:
    def test_offsets_cover_all_nonzero(self):
        arr = PalmtreeArrangement(4, 2)
        offsets = {arr.offset(i, j) for i in range(4) for j in range(2)}
        assert offsets == set(range(1, 9))

    def test_last_router_owns_consecutive_groups(self):
        """The defining bottleneck property: router a-1 links to g+1..g+h."""
        for a, h in [(4, 2), (12, 6), (6, 3)]:
            arr = PalmtreeArrangement(a, h)
            for delta in range(1, h + 1):
                i, _j = arr.slot_for_offset(delta)
                assert i == a - 1, (a, h, delta)

    def test_landing_router_is_zero_for_consecutive(self):
        """The +1..+h links land on router 0 of the destination group."""
        arr = PalmtreeArrangement(12, 6)
        for delta in range(1, 7):
            ri, _rj = arr.peer_slot(delta)
            assert ri == 0

    def test_peer_group_round_trip(self):
        arr = PalmtreeArrangement(4, 2)
        g = 3
        for i in range(4):
            for j in range(2):
                peer = arr.peer_group(g, i, j)
                # the peer's slot for the reverse offset points back at g
                off = arr.offset(i, j)
                pi, pj = arr.peer_slot(off)
                assert arr.peer_group(peer, pi, pj) == g

    @settings(max_examples=30, deadline=None)
    @given(shapes)
    def test_bijectivity_any_shape(self, shape):
        a, h = shape
        arr = PalmtreeArrangement(a, h)
        offsets = sorted(arr.offset(i, j) for i in range(a) for j in range(h))
        assert offsets == list(range(1, a * h + 1))


class TestConsecutive:
    def test_mirror_of_palmtree(self):
        p = PalmtreeArrangement(4, 2)
        c = ConsecutiveArrangement(4, 2)
        G = 9
        for i in range(4):
            for j in range(2):
                assert (p.offset(i, j) + c.offset(i, j)) % G == 0

    def test_bijective(self):
        c = ConsecutiveArrangement(6, 3)
        offsets = {c.offset(i, j) for i in range(6) for j in range(3)}
        assert offsets == set(range(1, 19))


class TestRandom:
    def test_bijective(self):
        r = RandomArrangement(4, 2, seed=5)
        offsets = {r.offset(i, j) for i in range(4) for j in range(2)}
        assert offsets == set(range(1, 9))

    def test_seed_reproducible(self):
        a = RandomArrangement(4, 2, seed=5)
        b = RandomArrangement(4, 2, seed=5)
        assert all(a.offset(i, j) == b.offset(i, j) for i in range(4) for j in range(2))

    def test_seeds_differ(self):
        tables = set()
        for seed in range(10):
            r = RandomArrangement(6, 3, seed=seed)
            tables.add(tuple(r.offset(i, j) for i in range(6) for j in range(3)))
        assert len(tables) > 1


class TestQueries:
    def test_slot_for_offset_zero_raises(self):
        arr = PalmtreeArrangement(4, 2)
        with pytest.raises(TopologyError):
            arr.slot_for_offset(0)

    def test_slot_for_offset_inverse(self):
        arr = PalmtreeArrangement(4, 2)
        for i in range(4):
            for j in range(2):
                assert arr.slot_for_offset(arr.offset(i, j)) == (i, j)

    def test_factory(self):
        assert isinstance(make_arrangement("palmtree", 4, 2), PalmtreeArrangement)
        assert isinstance(make_arrangement("consecutive", 4, 2), ConsecutiveArrangement)
        assert isinstance(make_arrangement("random", 4, 2), RandomArrangement)
        with pytest.raises(TopologyError):
            make_arrangement("moebius", 4, 2)

    def test_invalid_shape_raises(self):
        with pytest.raises(TopologyError):
            PalmtreeArrangement(0, 2)


class TestSimulationTopologySharing:
    """The per-process topology cache keys on the arrangement seed only
    where it matters: the ``random`` arrangement."""

    @staticmethod
    def _topologies(arrangement):
        base = tiny_config().with_network(arrangement=arrangement)
        return [Simulation(base.with_(seed=seed)).topo for seed in (1, 2)]

    @pytest.mark.parametrize("arrangement", ["palmtree", "consecutive"])
    def test_seed_independent_arrangements_share_one_topology(self, arrangement):
        first, second = self._topologies(arrangement)
        assert first is second

    def test_random_arrangement_is_per_seed(self):
        first, second = self._topologies("random")
        assert first is not second
