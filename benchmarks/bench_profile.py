"""cProfile harness for the engine hot path (the "what's next" tool).

Profiles the same representative configurations as the
``engine_throughput`` benchmark, plus one ADVc cell for each of the two
source-routed families (oblivious Valiant, PiggyBack), and writes the
top functions by own-time to ``benchmarks/results/engine_profile.txt``
— together with each run's events/s *and* activations/s (the
phase-batched engine dispatches one activation record for up to two
semantic events) — so every hot-path PR can see where the next
bottleneck sits without re-deriving the workflow.

Run directly (it is intentionally not a pytest test — profiling is an
investigation tool, not a gate)::

    PYTHONPATH=src python benchmarks/bench_profile.py [--sort tottime]
                                                      [--dump-dir DIR]

``--dump-dir`` additionally writes one raw ``.pstats`` file per config
(for snakeviz/pstats; CI uploads these as the profile artifact).  For
one-off configurations, use the CLI entry point::

    python -m repro.cli profile --routing in-trns-mm --pattern advc
"""

from __future__ import annotations

import argparse
import pathlib

from bench_common import metadata_lines, write_result
from repro.utils.profiling import (
    PROFILE_SORTS,
    describe_callbacks,
    profile_simulation,
)
from test_engine_throughput import bench_config, throughput_cases

#: profiled but not gated: the mechanisms whose ``decide`` was lowered last
SOURCE_ROUTED = ("obl-crg", "src-crg")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sort", choices=PROFILE_SORTS, default="tottime")
    parser.add_argument("--limit", type=int, default=15)
    parser.add_argument(
        "--dump-dir",
        default=None,
        metavar="DIR",
        help="also write one raw .pstats profile per config into DIR",
    )
    args = parser.parse_args(argv)

    dump_dir = None
    if args.dump_dir:
        dump_dir = pathlib.Path(args.dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)

    sections = []
    # Same (label, config) cases as the perf gate, so the recorded profile
    # always explains the gated numbers.
    cases = throughput_cases() + [
        (
            f"small/ADVc@0.4 {routing}",
            bench_config(routing=routing).with_traffic(pattern="advc", load=0.4),
        )
        for routing in SOURCE_ROUTED
    ]
    for label, cfg in cases:
        dump_path = None
        if dump_dir is not None:
            slug = "".join(c if c.isalnum() else "_" for c in label)
            dump_path = str(dump_dir / f"{slug}.pstats")
        result, report, metrics = profile_simulation(
            cfg, sort=args.sort, limit=args.limit, dump_path=dump_path
        )
        sections.append(
            f"== {label} ==\n"
            f"events={metrics['events']} "
            f"activations={metrics['activations']} "
            f"delivered={result.delivered_packets}\n"
            f"profiled rates: {metrics['events_per_s']:,.0f} events/s | "
            f"{metrics['activations_per_s']:,.0f} activations/s\n"
            f"{describe_callbacks(metrics)}\n"
            f"{report.rstrip()}"
        )
    sections.append(metadata_lines())
    write_result("engine_profile", "\n\n".join(sections))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
