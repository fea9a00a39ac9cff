"""Unit and property tests for repro.utils.stats."""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.utils.stats import (
    OnlineStats,
    coefficient_of_variation,
    jain_index,
    max_min_ratio,
    mean,
    population_std,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_single(self):
        assert mean([5.0]) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestPopulationStd:
    def test_constant_sequence_is_zero(self):
        assert population_std([4.0, 4.0, 4.0]) == 0.0

    def test_matches_statistics_pstdev(self):
        data = [1.0, 2.0, 4.0, 8.0]
        assert population_std(data) == pytest.approx(statistics.pstdev(data))


class TestCoV:
    def test_equal_allocation_is_zero(self):
        assert coefficient_of_variation([10, 10, 10, 10]) == 0.0

    def test_all_zero_is_zero(self):
        assert coefficient_of_variation([0, 0, 0]) == 0.0

    def test_known_value(self):
        # values 0 and 2: mu=1, sigma=1 -> CoV=1
        assert coefficient_of_variation([0.0, 2.0]) == pytest.approx(1.0)

    def test_starved_router_raises_cov(self):
        fair = [100] * 12
        unfair = [100] * 11 + [1]
        assert coefficient_of_variation(unfair) > coefficient_of_variation(fair)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=1))
    def test_scale_invariant(self, values):
        c1 = coefficient_of_variation(values)
        c2 = coefficient_of_variation([v * 7.5 for v in values])
        assert c1 == pytest.approx(c2, rel=1e-9, abs=1e-12)


class TestMaxMinRatio:
    def test_equal_is_one(self):
        assert max_min_ratio([3, 3, 3]) == 1.0

    def test_zero_min_is_inf(self):
        assert max_min_ratio([0, 5]) == math.inf

    def test_all_zero_is_one(self):
        assert max_min_ratio([0, 0]) == 1.0

    def test_known(self):
        assert max_min_ratio([2.0, 8.0]) == 4.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            max_min_ratio([])


class TestJainIndex:
    def test_equal_is_one(self):
        assert jain_index([5, 5, 5]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_index([0, 0, 0, 12]) == pytest.approx(0.25)

    def test_all_zero_is_one(self):
        assert jain_index([0, 0]) == 1.0

    def test_scale_invariant_below_the_squaring_range(self):
        assert jain_index([1e-170, 3e-170]) == pytest.approx(jain_index([1, 3]))
        assert jain_index([1e-170, 3e-170]) == pytest.approx(0.8)
        assert jain_index([1e-200, 0.0]) == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1))
    @example([2.856451989609127e-158, 2.856451989609127e-158])
    @example([1e-200, 0.0])
    def test_bounds(self, values):
        j = jain_index(values)
        assert 0.0 < j <= 1.0 + 1e-9


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_value(self):
        s = OnlineStats()
        s.add(42.0)
        assert s.mean == 42.0
        assert s.min == 42.0
        assert s.max == 42.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_batch_statistics(self, xs):
        s = OnlineStats()
        s.extend(xs)
        assert s.n == len(xs)
        assert s.mean == pytest.approx(statistics.fmean(xs), rel=1e-9, abs=1e-6)
        assert s.std == pytest.approx(statistics.pstdev(xs), rel=1e-6, abs=1e-4)
        assert s.min == min(xs)
        assert s.max == max(xs)

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(finite_floats, min_size=1, max_size=50),
    )
    def test_merge_equals_concat(self, a, b):
        sa, sb, sc = OnlineStats(), OnlineStats(), OnlineStats()
        sa.extend(a)
        sb.extend(b)
        sc.extend(a + b)
        merged = sa.merge(sb)
        assert merged.n == sc.n
        assert merged.mean == pytest.approx(sc.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(sc.variance, rel=1e-6, abs=1e-4)

    def test_merge_with_empty(self):
        s = OnlineStats()
        s.extend([1.0, 2.0])
        merged = s.merge(OnlineStats())
        assert merged.n == 2
        assert merged.mean == pytest.approx(1.5)
