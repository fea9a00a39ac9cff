"""The paper's reported numbers, for side-by-side comparison.

Absolute values are not expected to match (different scale, packet-level
model — see :func:`repro.config.small_config`); they anchor the *shape*
comparisons in the rendered paper artifacts (``benchmarks/results/``,
written by ``repro paper``).
"""

from __future__ import annotations

from repro.config import NetworkConfig

__all__ = ["PAPER_TABLE_II", "PAPER_TABLE_III", "min_throughput_bound"]

#: Table II — fairness under ADVc @ 0.4 load *with* transit priority
#: (mechanism -> (Min inj, Max/Min, CoV)); h=6, 15,000 cycles, 3 seeds.
PAPER_TABLE_II: dict[str, tuple[float, float, float]] = {
    "obl-rrg": (4079.0, 1.149, 0.0175),
    "obl-crg": (4307.0, 1.095, 0.0145),
    "src-rrg": (2134.0, 2.196, 0.1217),
    "src-crg": (847.0, 2.735, 0.1029),
    "in-trns-rrg": (37.0, 585.69, 0.2866),
    "in-trns-crg": (31.67, 185.60, 0.2861),
    "in-trns-mm": (69.33, 72.576, 0.2858),
}

#: Table III — same experiment *without* transit priority.
PAPER_TABLE_III: dict[str, tuple[float, float, float]] = {
    "obl-rrg": (3937.0, 1.190, 0.0173),
    "obl-crg": (4314.0, 1.093, 0.0144),
    "src-rrg": (2247.33, 2.086, 0.1194),
    "src-crg": (690.5, 6.673, 0.5562),
    "in-trns-rrg": (2553.33, 1.850, 0.1106),
    "in-trns-crg": (2549.33, 1.852, 0.1111),
    "in-trns-mm": (2554.33, 1.843, 0.1101),
}


def min_throughput_bound(net: NetworkConfig, pattern: str) -> float:
    """Analytic MIN-routing throughput cap in phits/(node*cycle).

    Section III: under ADV+k all of a group's traffic crosses one global
    link shared by ``a*p`` nodes -> ``1/(a*p)``; under ADVc the ``h``
    links of the bottleneck router share the load -> ``h/(a*p)``.
    Uniform traffic is not gateway-limited (returns 1.0).
    """
    if pattern == "adversarial":
        return 1.0 / (net.a * net.p)
    if pattern == "advc":
        return net.h / (net.a * net.p)
    if pattern == "uniform":
        return 1.0
    raise ValueError(f"no analytic MIN bound for pattern {pattern!r}")
