"""Statistics helpers: streaming moments and the paper's fairness ratios.

The paper (Section IV-B) quantifies unfairness through three derived
statistics over per-router injection counts:

* ``Min inj``  - minimum count (starvation detector),
* ``Max/Min``  - ratio between the busiest and the most starved router,
* ``CoV``      - coefficient of variation sigma/mu (the paper's text says
  "variance over average" but its formula and magnitudes correspond to
  sigma/mu, which is what we implement).

Jain's fairness index is provided as an extension metric.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

__all__ = [
    "mean",
    "population_std",
    "coefficient_of_variation",
    "max_min_ratio",
    "jain_index",
    "OnlineStats",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def population_std(values: Sequence[float]) -> float:
    """Population standard deviation (divides by N, matching CoV usage)."""
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """CoV = sigma / mu over *values* (population sigma).

    Returns ``0.0`` for an all-zero sequence (no traffic means no spread),
    mirroring how a zero-injection window should read as "no unfairness
    evidence" rather than a division error.
    """
    mu = mean(values)
    if mu == 0.0:
        return 0.0
    return population_std(values) / mu


def max_min_ratio(values: Sequence[float]) -> float:
    """Max/Min ratio; ``inf`` when the minimum is zero but the max is not."""
    if not values:
        raise ValueError("max_min_ratio() of empty sequence")
    lo, hi = min(values), max(values)
    if lo == 0:
        return math.inf if hi > 0 else 1.0
    return hi / lo


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` in ``(0, 1]``.

    1.0 means perfectly equal allocation; ``1/n`` means one router gets
    everything.  Not in the paper; provided as an extension metric because
    it is the de-facto standard in fairness literature.
    """
    if not values:
        raise ValueError("jain_index() of empty sequence")
    # Scale-invariant, so normalise by the largest value first: squaring
    # raw values underflows below ~1e-154 and breaks the bounds.
    top = max(values)
    if top == 0:
        return 1.0
    scaled = [v / top for v in values]
    total = sum(scaled)
    return (total * total) / (len(values) * sum(s * s for s in scaled))


class OnlineStats:
    """Welford streaming mean/variance accumulator.

    Used by the metrics collector for latency statistics so we never hold
    per-packet latency lists for long measurement windows.
    """

    __slots__ = ("n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        """Accumulate one observation."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def extend(self, xs: Iterable[float]) -> None:
        """Accumulate an iterable of observations."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Mean of observations so far (0.0 when empty)."""
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two observations)."""
        return self._m2 / self.n if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator equivalent to seeing both streams."""
        out = OnlineStats()
        n = self.n + other.n
        if n == 0:
            return out
        delta = other._mean - self._mean
        out.n = n
        out._mean = self._mean + delta * other.n / n
        out._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        return out
