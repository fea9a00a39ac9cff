"""Tests for the metrics layer: collector, fairness, latency breakdown."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.metrics.collector import StatsCollector
from repro.metrics.fairness import fairness_from_counts
from repro.metrics.latency import LatencyBreakdown
from tests.test_hardware_packet_allocator import make_packet


class TestFairnessMetrics:
    def test_fair_allocation(self):
        fm = fairness_from_counts([100, 100, 100])
        assert fm.max_min_ratio == 1.0
        assert fm.cov == 0.0
        assert fm.jain == pytest.approx(1.0)

    def test_starved_router_detected(self):
        fm = fairness_from_counts([100, 100, 3, 100])
        assert fm.starved_router == 2
        assert fm.min_injected == 3
        assert fm.max_min_ratio == pytest.approx(100 / 3)

    def test_paper_table2_ordering_example(self):
        """Sanity: CoV discriminates isolated starvation from systemic."""
        isolated = [100] * 11 + [1]
        systemic = [180] * 6 + [20] * 6
        a = fairness_from_counts(isolated)
        b = fairness_from_counts(systemic)
        assert b.cov > a.cov  # half-starved is worse in CoV terms

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            fairness_from_counts([])

    def test_as_row_order(self):
        fm = fairness_from_counts([2, 8])
        assert fm.as_row() == [2.0, 4.0, fm.cov]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
    def test_invariants(self, counts):
        fm = fairness_from_counts(counts)
        assert fm.min_injected <= fm.mean_injected <= fm.max_injected
        assert fm.max_min_ratio >= 1.0
        assert 0 < fm.jain <= 1.0 + 1e-9
        assert counts[fm.starved_router] == fm.min_injected


class TestLatencyBreakdown:
    def test_means(self):
        b = LatencyBreakdown()
        b.add(10, 5, 3, 100, 20)
        b.add(20, 5, 7, 100, 0)
        m = b.means()
        assert m["injection"] == 15.0
        assert m["base"] == 100.0
        assert b.total_mean() == pytest.approx(135.0)

    def test_empty_is_zero(self):
        assert LatencyBreakdown().total_mean() == 0.0
        assert all(v == 0.0 for v in LatencyBreakdown().means().values())


@pytest.mark.parametrize("typed", [False, True], ids=["list", "array"])
class TestStatsCollector:
    """Both buffer modes: lists (python backend), arrays (compiled)."""

    @pytest.fixture(autouse=True)
    def _buffer_mode(self, typed):
        self.typed = typed

    def make(self, start=100, end=200, **kw):
        return StatsCollector(
            start, end, num_routers=8, num_nodes=16, typed=self.typed, **kw
        )

    def test_window_gating_generation(self):
        s = self.make()
        s.on_generate(50, 8)    # before window
        s.on_generate(150, 8)   # inside
        s.on_generate(200, 8)   # at end (exclusive)
        assert s.generated_packets == 1
        assert s.total_generated == 3

    def test_window_gating_injection(self):
        s = self.make()
        s.on_injection(2, 99)
        s.on_injection(2, 100)
        s.on_injection(2, 199)
        assert s.injected_per_router[2] == 2
        assert s.total_injected == 3

    def test_delivery_accounting(self):
        s = self.make(start=100, end=1000)
        pkt = make_packet(gen_time=110, base_latency=100)
        pkt.inject_time = 120
        pkt.service_sum = 130
        pkt.wait_local = 5
        pkt.wait_global = 15
        # delivery time consistent with the component ledger:
        deliver = 110 + 10 + 5 + 15 + 130
        s.on_delivery(pkt, deliver)
        assert s.delivered_packets == 1
        assert s.latency.mean == deliver - 110
        m = s.breakdown.means()
        assert m["injection"] == 10
        assert m["misroute"] == 30
        assert m["base"] == 100

    def test_delivery_outside_window_not_counted(self):
        s = self.make()
        pkt = make_packet(gen_time=10)
        pkt.inject_time = 12
        s.on_delivery(pkt, 250)
        assert s.delivered_packets == 0
        assert s.total_delivered == 1

    def test_loads(self):
        s = self.make()
        for t in (100, 120, 140):
            s.on_generate(t, 8)
        pkt = make_packet(gen_time=100, base_latency=40)
        pkt.inject_time = 101
        pkt.service_sum = 49  # 1 + 49: the ledger adds up to 50
        s.on_delivery(pkt, 150)
        assert s.offered_load() == pytest.approx(3 * 8 / (16 * 100))
        assert s.accepted_load() == pytest.approx(8 / (16 * 100))

    def test_decomposition_check_raises_on_mismatch(self):
        """Every delivery in the window audits its ledger; no switch."""
        s = self.make(0, 1000)
        pkt = make_packet(gen_time=0, base_latency=100)
        pkt.inject_time = 10
        pkt.service_sum = 100
        with pytest.raises(AssertionError, match="110 != 500"):
            s.on_delivery(pkt, 500)  # waits don't add up

    def test_integer_latency_extremes_read_back_as_int(self):
        """An array('d') block stores 50.0; the view hands back 50, so
        results serialise to the same bytes in both buffer modes."""
        s = self.make()
        for gen_time, now in ((100, 150), (100, 190)):
            pkt = make_packet(gen_time=gen_time, base_latency=40)
            pkt.inject_time = gen_time
            pkt.service_sum = now - gen_time
            s.on_delivery(pkt, now)
        lat = s.latency
        assert (lat.n, lat.min, lat.max) == (2, 50, 90)
        assert type(lat.min) is int and type(lat.max) is int
        assert lat.mean == 70.0 and lat.std == 20.0

    def test_empty_window_reads(self):
        s = self.make()
        lat = s.latency
        assert (lat.n, lat.mean, lat.std) == (0, 0.0, 0.0)
        assert lat.min == float("inf") and lat.max == float("-inf")
        assert s.breakdown.packets == 0
        assert all(v == 0.0 for v in s.breakdown.means().values())
        assert list(s.injected_per_router) == [0] * 8
        assert s.offered_load() == s.accepted_load() == 0.0

    def test_in_flight(self):
        s = self.make()
        s.on_injection(0, 150)
        assert s.in_flight() == 1
        pkt = make_packet(gen_time=140)
        pkt.inject_time = 150
        pkt.service_sum = pkt.base_latency
        s.on_delivery(pkt, 150 + pkt.base_latency)
        assert s.in_flight() == 0
