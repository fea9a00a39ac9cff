"""Command-line interface: run simulations, sweeps and plans.

Examples
--------
Run one simulation and print the summary::

    python -m repro.cli run --routing in-trns-mm --pattern advc --load 0.4

Sweep offered load in parallel and print a latency/throughput table::

    python -m repro.cli plan run --routings min --patterns adversarial \
        --loads 0.1 0.2 0.3 0.4 --seeds 2 --jobs 4

Show the fairness profile of one group (paper Figure 4 style)::

    python -m repro.cli fairness --pattern advc --load 0.4 --no-priority

List the registered workload scenarios, then sweep one with the
simulation oracle auditing every cell::

    python -m repro.cli scenarios
    python -m repro.cli scenarios multi_job_interference
    python -m repro.cli plan run --scenario multi_job_interference \
        --routings min in-trns-mm --oracle

Profile the engine hot path under one configuration (perf workflow)::

    python -m repro.cli profile --routing in-trns-mm --pattern advc \
        --load 0.4 --sort tottime --limit 20

Print a declarative plan (digest + cells, nothing runs), then execute
it over all cores with a result cache (re-runs only compute missing
cells, so the same command resumes a crashed or faulted run)::

    python -m repro.cli plan --routings min in-trns-mm --patterns advc \
        --loads 0.1 0.2 0.3 --seeds 2
    python -m repro.cli plan run --routings min in-trns-mm --patterns advc \
        --loads 0.1 0.2 0.3 --seeds 2 --cache .repro-cache

Run the same plan as two shards (different machines), merge the shard
stores against the plan, check completeness, and render a figure
offline (``...`` is the same grid flags every time)::

    python -m repro.cli plan run ... --shard 0/2 --cache shard0
    python -m repro.cli plan run ... --shard 1/2 --cache shard1
    python -m repro.cli plan merge shard0 shard1 ... --cache merged
    python -m repro.cli plan status ... --cache merged
    python -m repro.cli figures --pattern advc --routings min in-trns-mm \
        --loads 0.1 0.2 0.3 --seeds 2 --cache merged --offline

Regenerate every figure and table of the paper (one merged plan, one
runner; writes ``<name>.txt`` per artifact)::

    python -m repro.cli paper benchmarks/results

Every command reports a :class:`repro.errors.ReproError` as one
``error: ...`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import logging
import os
import pathlib
import signal
import sys
import time
from collections.abc import Sequence

from repro.analysis.figures import figure2_sweeps, format_figure2
from repro.analysis.paper import paper_plan, render_paper
from repro.config import (
    BASE_PATTERN_CHOICES,
    SimulationConfig,
    medium_config,
    paper_config,
    small_config,
    tiny_config,
)
from repro.core.simulation import run_simulation
from repro.engine.kernel import BACKEND_ENV, ENGINE_BACKEND_CHOICES, resolve_backend
from repro.errors import ReproError
from repro.exec.leases import LeaseCoordinator
from repro.exec.plan import ExperimentPlan, Shard
from repro.exec.runner import RetryPolicy, Runner
from repro.exec.store import ResultStore
from repro.routing.factory import ROUTING_NAMES
from repro.traffic.scenarios import (
    SCENARIOS,
    describe_scenario,
    get_scenario,
    scenario_names,
)
from repro.utils.profiling import (
    PROFILE_SORTS,
    describe_callbacks,
    profile_simulation,
)
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]

_PRESETS = {
    "tiny": tiny_config,
    "small": small_config,
    "medium": medium_config,
    "paper": paper_config,
}

# Patterns expressible through flags alone; the scenario layers (phased,
# multi_job, burst/ramp modifiers) are reached via --scenario.
_PATTERNS = list(BASE_PATTERN_CHOICES)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Dragonfly throughput-unfairness simulator "
        "(Fuentes et al., CLUSTER 2015 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common_base(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--preset",
            choices=sorted(_PRESETS),
            default="small",
            help="network scale preset (default: small = h=2, 72 nodes)",
        )
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument(
            "--no-priority",
            action="store_true",
            help="disable transit-over-injection priority (Figures 5/6)",
        )
        sp.add_argument("--warmup", type=int, default=None)
        sp.add_argument("--measure", type=int, default=None)
        sp.add_argument(
            "--oracle",
            action="store_true",
            help="audit each run with the simulation oracle (drain the "
            "network, verify conservation invariants, record the verdict)",
        )
        sp.add_argument(
            "--engine-backend",
            choices=ENGINE_BACKEND_CHOICES,
            default=None,
            help="engine kernel backend (default: $REPRO_ENGINE_BACKEND or "
            "auto = compiled when built, else python; both are "
            "bit-identical)",
        )

    def scenario_opt(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--scenario",
            choices=scenario_names(),
            default=None,
            help="use a registered workload scenario instead of --pattern "
            "(see `repro scenarios`)",
        )

    def common(sp: argparse.ArgumentParser) -> None:
        common_base(sp)
        sp.add_argument(
            "--routing",
            choices=ROUTING_NAMES,
            default="min",
            help="routing mechanism (paper legend name)",
        )
        # Default None so an explicit --pattern can be rejected when it
        # would be silently overridden by --scenario.
        sp.add_argument(
            "--pattern",
            default=None,
            choices=_PATTERNS,
            help="traffic pattern (default: uniform; exclusive with --scenario)",
        )
        scenario_opt(sp)

    def exec_opts(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="parallel simulation processes "
            "(default: all cores, or $REPRO_JOBS)",
        )
        sp.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="result cache directory; re-runs only compute missing cells",
        )
        sp.add_argument(
            "--retries",
            type=int,
            default=None,
            metavar="N",
            help="attempts per cell before quarantining it (default: 3)",
        )
        sp.add_argument(
            "--cell-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock limit per cell attempt, counted from when a "
            "worker starts it; cells then compute on a process pool, one "
            "worker at --jobs 1 (default: none)",
        )

    run_p = sub.add_parser("run", help="run one simulation")
    common(run_p)
    run_p.add_argument("--load", type=float, default=0.4)

    fair_p = sub.add_parser(
        "fairness", help="per-router injection profile of one group"
    )
    common(fair_p)
    fair_p.add_argument("--load", type=float, default=0.4)
    fair_p.add_argument("--group", type=int, default=0)

    prof_p = sub.add_parser(
        "profile",
        help="run one simulation under cProfile and print the hot functions",
    )
    common(prof_p)
    prof_p.add_argument("--load", type=float, default=0.4)
    prof_p.add_argument(
        "--sort",
        choices=PROFILE_SORTS,
        default="tottime",
        help="pstats sort key for the report (default: tottime)",
    )
    prof_p.add_argument(
        "--limit", type=int, default=25, help="functions to show (default: 25)"
    )
    prof_p.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also dump the raw profile for snakeviz/pstats",
    )

    plan_p = sub.add_parser(
        "plan",
        help="declarative routings x patterns x loads x seeds grids: "
        "show (default), run [--shard K/N], merge, status",
    )
    plan_p.add_argument(
        "action",
        nargs="?",
        choices=("show", "run", "merge", "status"),
        default="show",
        help="show = print digest + cells without running (default); "
        "run = execute, or complete, the plan (optionally one shard) "
        "against --cache; merge = copy the plan's cells from STOREs "
        "into --cache; status = report missing cells, failures, "
        "quarantine and leases of --cache",
    )
    plan_p.add_argument(
        "stores",
        nargs="*",
        default=[],
        metavar="STORE",
        help="source stores that together hold the plan (merge action only)",
    )
    common_base(plan_p)
    exec_opts(plan_p)
    plan_p.add_argument(
        "--routings",
        nargs="+",
        choices=ROUTING_NAMES,
        default=["min"],
        help="routing mechanisms to cross",
    )
    plan_p.add_argument(
        "--patterns",
        nargs="+",
        choices=_PATTERNS,
        default=None,
        help="traffic patterns to cross (default: uniform; exclusive "
        "with --scenario)",
    )
    scenario_opt(plan_p)
    plan_p.add_argument("--loads", type=float, nargs="+", default=None)
    plan_p.add_argument("--seeds", type=int, default=1)
    plan_p.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="only shard K of an N-way partition: run executes it "
        "(requires --cache); show, merge and status work on it",
    )
    plan_p.add_argument(
        "--leases",
        action="store_true",
        help="coordinate cells through on-disk leases in --cache, so "
        "several runners pointed at the same store split the plan "
        "dynamically and adopt each other's results",
    )
    plan_p.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="lease heartbeat deadline; a lease older than this is "
        "reclaimable by other workers (default: 60)",
    )

    fig_p = sub.add_parser(
        "figures",
        help="render the paper's Figure-2 panels (latency + accepted "
        "load) for one pattern from a plan or a merged store",
    )
    common_base(fig_p)
    exec_opts(fig_p)
    fig_p.add_argument("--pattern", default="uniform", choices=_PATTERNS)
    fig_p.add_argument(
        "--routings",
        nargs="+",
        choices=ROUTING_NAMES,
        default=["min"],
        help="mechanisms to plot (legend order)",
    )
    fig_p.add_argument("--loads", type=float, nargs="+", required=True)
    fig_p.add_argument("--seeds", type=int, default=1)
    fig_p.add_argument(
        "--offline",
        action="store_true",
        help="never simulate: every cell must already be in --cache "
        "(e.g. a store merged from sharded CI runs)",
    )

    paper_p = sub.add_parser(
        "paper",
        help="run every figure and table of the paper as one plan and "
        "write OUT_DIR/<name>.txt for each",
    )
    paper_p.add_argument("out_dir", metavar="OUT_DIR")
    exec_opts(paper_p)

    scen_p = sub.add_parser(
        "scenarios",
        help="list the registered workload scenarios, or describe one",
    )
    scen_p.add_argument(
        "name",
        nargs="?",
        default=None,
        help="scenario to describe in detail (default: list all)",
    )

    def endpoint_opts(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--host",
            default="127.0.0.1",
            help="service address (default: 127.0.0.1)",
        )
        sp.add_argument(
            "--port",
            type=int,
            default=7351,
            help="service TCP port (default: 7351; serve accepts 0 = ephemeral)",
        )

    serve_p = sub.add_parser(
        "serve",
        help="run the sweep daemon: accept plans over TCP, dedupe cells "
        "by digest against a shared store, stream results back",
    )
    endpoint_opts(serve_p)
    serve_p.add_argument(
        "--cache",
        required=True,
        metavar="DIR",
        help="shared result store the daemon owns (cells computed for one "
        "tenant are cache hits for every later one)",
    )
    serve_p.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="bounded worker pool size (default: all cores, or $REPRO_JOBS)",
    )
    serve_p.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="reject submits (busy) beyond this many pending cells "
        "(default: 1024)",
    )
    serve_p.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="evict finished plans idle this long; their results stay "
        "in the store (default: 300)",
    )
    serve_p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-shutdown wait for in-flight cells (default: 30)",
    )
    serve_p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts per cell before reporting it failed (default: 3)",
    )
    serve_p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit per cell attempt, counted from when a "
        "worker starts it (default: none)",
    )

    submit_p = sub.add_parser(
        "submit",
        help="submit a plan grid to a running daemon and stream the "
        "per-cell results (cache/shared provenance, oracle verdicts)",
    )
    endpoint_opts(submit_p)
    common_base(submit_p)
    submit_p.add_argument(
        "--routings",
        nargs="+",
        choices=ROUTING_NAMES,
        default=["min"],
        help="routing mechanisms to cross",
    )
    submit_p.add_argument(
        "--patterns",
        nargs="+",
        choices=_PATTERNS,
        default=None,
        help="traffic patterns to cross (default: uniform; exclusive "
        "with --scenario)",
    )
    scenario_opt(submit_p)
    submit_p.add_argument("--loads", type=float, nargs="+", default=None)
    submit_p.add_argument("--seeds", type=int, default=1)
    submit_p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write a machine-readable submission summary "
        "(per-cell provenance, counters)",
    )
    submit_p.add_argument(
        "--stats",
        action="store_true",
        help="query the daemon's counters instead of submitting "
        "(grid flags are ignored)",
    )
    submit_p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-cell progress lines",
    )

    return p


def _base_config(args: argparse.Namespace) -> SimulationConfig:
    cfg = _PRESETS[args.preset](seed=args.seed)
    if args.no_priority:
        cfg = cfg.with_router(transit_priority=False)
    if args.warmup is not None:
        cfg = cfg.with_(warmup_cycles=args.warmup)
    if args.measure is not None:
        cfg = cfg.with_(measure_cycles=args.measure)
    if getattr(args, "oracle", False):
        cfg = cfg.with_(oracle=True)
    return cfg


def _config(args: argparse.Namespace) -> SimulationConfig:
    cfg = _base_config(args).with_(routing=args.routing)
    if getattr(args, "scenario", None):
        if args.pattern is not None:
            raise ReproError(
                "--pattern and --scenario are mutually exclusive (the "
                "scenario fixes the traffic)"
            )
        return get_scenario(args.scenario).apply(cfg)
    return cfg.with_traffic(pattern=args.pattern or "uniform")


def _sweep_table(sweep) -> str:
    rows = [
        [
            pt.offered_load,
            pt.accepted_load,
            pt.avg_latency,
            pt.fairness.max_min_ratio,
            pt.fairness.cov,
        ]
        for pt in sweep.points
    ]
    return format_table(
        ["offered", "accepted", "latency", "max/min", "cov"],
        rows,
        title=f"{sweep.routing} under {sweep.pattern}",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    backend = getattr(args, "engine_backend", None)
    try:
        if backend is not None:
            # Validate eagerly (an explicit `compiled` without the built
            # extension should fail before any work), then export through
            # the environment so Runner worker processes, the profiler and
            # run_simulation resolve the same backend.
            resolve_backend(backend)
            os.environ[BACKEND_ENV] = backend
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_simulation(_config(args).with_traffic(load=args.load))
    print(result.summary())
    print(
        "latency breakdown:",
        {k: round(v, 2) for k, v in result.latency_breakdown.items()},
    )
    if result.oracle is not None:
        state = "passed" if result.oracle["passed"] else "FAILED"
        print(f"oracle: {state} ({len(result.oracle['checks'])} checks)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    cfg = _config(args).with_traffic(load=args.load)
    result, report, metrics = profile_simulation(
        cfg, sort=args.sort, limit=args.limit, dump_path=args.output
    )
    print(report, end="")
    print(
        f"engine: {metrics['events']} events "
        f"({metrics['events_per_s']:,.0f}/s) in "
        f"{metrics['activations']} activations "
        f"({metrics['activations_per_s']:,.0f}/s) "
        "[profiled rates]"
    )
    print(describe_callbacks(metrics))
    print(result.summary())
    if args.output:
        print(f"raw profile written to {args.output}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.name:
        print(describe_scenario(get_scenario(args.name)))
        return 0
    print(f"{len(SCENARIOS)} registered scenarios:")
    for name in scenario_names():
        print(f"  {name:24s} {SCENARIOS[name].description}")
    print(
        "use `repro scenarios NAME` for details; run one with "
        "`repro run --scenario NAME ...` or "
        "`repro plan run --scenario NAME ...`"
    )
    return 0


def _cmd_fairness(args: argparse.Namespace) -> int:
    cfg = _config(args)
    result = run_simulation(cfg.with_traffic(load=args.load))
    counts = result.group_injections(args.group)
    print(
        format_table(
            ["router", "injected"],
            [[f"R{i}", c] for i, c in enumerate(counts)],
            title=(
                f"group {args.group} injections "
                f"({cfg.routing}, {cfg.traffic.pattern}@{args.load}, "
                f"priority={'off' if args.no_priority else 'on'})"
            ),
        )
    )
    f = result.fairness
    print(
        f"network: min={f.min_injected:.0f} max/min="
        f"{f.max_min_ratio:.3g} cov={f.cov:.4f} jain={f.jain:.4f}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep daemon until SIGINT/SIGTERM, then drain and exit."""
    from repro.service.server import PlanService, ServiceConfig

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    service = PlanService(
        args.cache,
        ServiceConfig(
            host=args.host,
            port=args.port,
            max_workers=args.max_workers,
            max_pending_cells=args.max_pending,
            idle_timeout=args.idle_timeout,
            drain_timeout=args.drain_timeout,
        ),
        retry=_retry_policy(args),
    )

    async def _serve() -> None:
        await service.start()
        # Machine-readable readiness line (CI and tests poll for it; the
        # port matters when --port 0 asked for an ephemeral one).
        print(f"serving on {service.config.host}:{service.port}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop.set)
        forever = loop.create_task(service.serve_forever())
        await stop.wait()
        print("draining…", flush=True)
        await service.shutdown()
        forever.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await forever

    asyncio.run(_serve())
    print("daemon stopped", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a grid to a running daemon and stream its outcomes."""
    from repro.service.client import fetch_stats, submit_plan

    if args.stats:
        stats = fetch_stats(args.host, args.port)
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0

    _, plan, _, _ = _grid_plan(args)
    print(f"submitting {plan.unique_cells()} unique cell(s), plan {plan.digest}")

    def on_event(event: dict) -> None:
        kind = event["type"]
        if args.quiet and kind != "plan_done":
            return
        if kind == "cell_done":
            oracle = event.get("oracle")
            verdict = "" if oracle is None else (
                " oracle=ok" if oracle else " oracle=FAILED"
            )
            print(
                f"  {event['digest'][:12]}… {event['provenance']}"
                f" ({event['attempts']} attempt(s)){verdict}"
            )
        elif kind == "cell_failed":
            print(
                f"  {event['digest'][:12]}… FAILED {event['kind']} after "
                f"{event['attempts']} attempt(s): {event['error']}",
                file=sys.stderr,
            )
        elif kind == "plan_done":
            print(
                f"plan done: {event['computed']} computed, "
                f"{event['cache_hits']} cache hits, {event['shared']} "
                f"shared, {event['failed']} failed"
            )

    outcome = submit_plan(args.host, args.port, plan, on_event=on_event)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(outcome.to_dict(), f, indent=2, sort_keys=True)
        print(f"summary written to {args.json}")
    if outcome.failed:
        print(f"FAILED: {len(outcome.failed)} cell(s)", file=sys.stderr)
        return 1
    if outcome.oracle_failures:
        print(
            f"oracle FAILED on {len(outcome.oracle_failures)} cell(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _retry_policy(args: argparse.Namespace) -> RetryPolicy | None:
    """RetryPolicy from --retries/--cell-timeout (None = runner default)."""
    kwargs = {}
    if getattr(args, "retries", None) is not None:
        kwargs["max_attempts"] = args.retries
    if getattr(args, "cell_timeout", None) is not None:
        kwargs["cell_timeout"] = args.cell_timeout
    return RetryPolicy(**kwargs) if kwargs else None


def _print_failures(res) -> int:
    """Report retry recoveries and unrecovered cells; returns the latter."""
    if res.retried:
        print(f"recovered {len(res.retried)} cell(s) after retries")
    if res.adopted:
        print(f"adopted {res.adopted} cell(s) computed by peer workers")
    if not res.failures:
        return 0
    print(
        f"FAILED: {len(res.failures)} cell(s) unrecovered after retries",
        file=sys.stderr,
    )
    for digest in sorted(res.failures):
        f = res.failures[digest]
        print(
            f"  {digest[:12]}… {f.kind} after {f.attempts} attempt(s): "
            f"{f.error}",
            file=sys.stderr,
        )
    return len(res.failures)


def _print_oracle_verdicts(res) -> int:
    """Report per-cell oracle verdicts; returns the number of failures.

    Failed verdicts can only come out of a store (a live oracle failure
    raises mid-run), but a corrupted or adversarial cache must not pass
    silently.
    """
    verdicts = res.oracle_verdicts()
    if not verdicts:
        return 0
    ok = sum(1 for passed in verdicts.values() if passed)
    print(f"oracle: {ok}/{len(verdicts)} audited cells passed")
    for digest, passed in sorted(verdicts.items()):
        if not passed:
            print(f"  FAILED {digest[:12]}…")
    return len(verdicts) - ok


def _grid_plan(
    args: argparse.Namespace,
) -> tuple[SimulationConfig, ExperimentPlan, list[float], list[str] | None]:
    """Build the plan a grid-shaped action describes.

    Returns ``(base, plan, loads, patterns)``; ``patterns`` is ``None``
    when a scenario fixes the traffic (the grid keeps the base's
    pattern and the sweep tables group by routing only).
    """
    base = _base_config(args)
    patterns: list[str] | None = args.patterns
    loads = args.loads
    if getattr(args, "scenario", None):
        if patterns is not None:
            raise ReproError(
                "--patterns and --scenario are mutually exclusive (the "
                "scenario fixes the traffic)"
            )
        scenario = get_scenario(args.scenario)
        base = scenario.apply(base)
        if loads is None:
            loads = list(scenario.loads)
    elif patterns is None:
        patterns = ["uniform"]
    if not loads:
        action = getattr(args, "action", None)
        verb = f"plan {action}" if action else args.command
        raise ReproError(f"{verb} needs --loads")
    plan = ExperimentPlan.grid(
        base,
        routings=args.routings,
        patterns=patterns,
        loads=loads,
        seeds=args.seeds,
    )
    return base, plan, loads, patterns


def _cmd_plan(args: argparse.Namespace) -> int:
    action = args.action
    if action != "show" and not args.cache:
        if args.leases:
            raise ReproError("--leases needs --cache DIR (leases live in the store)")
        if action != "run" or args.shard:
            flag = " --shard" if action == "run" else ""
            raise ReproError(f"plan {action}{flag} needs --cache DIR")
    base, plan, loads, patterns = _grid_plan(args)
    full = plan
    shard = Shard.parse(args.shard) if args.shard else None
    if shard is not None:
        # Every action but show works on the owned sub-plan: its digest
        # keys the failures journal and the leases of a sharded run.
        plan = plan.shard(shard.index, shard.count)
        print(
            f"shard {shard}: owns {plan.unique_cells()} of "
            f"{full.unique_cells()} unique cells of plan {full.digest}"
        )

    if action == "show":
        print(full.describe())
        print("(dry run; use `repro plan run` to execute)")
        return 0

    if action == "merge":
        if not args.stores:
            raise ReproError("plan merge needs source store directories")
        report = ResultStore(args.cache).merge(args.stores, plan.cell_digests())
        print(
            f"merged {len(args.stores)} store(s) into {args.cache}: "
            f"{report.copied} cell(s) copied, {report.reused} already present"
        )
        print(f"plan digest: {plan.digest}")
        print(f"covered cells: {plan.unique_cells()} (complete)")
        return 0

    if action == "status":
        store = ResultStore(args.cache)
        # load() (not a bare existence check) so entries a consumer would
        # reject — foreign STORE_VERSION, truncated JSON — count as missing.
        missing = [c for c in _unique_cells(plan) if store.load(c.digest) is None]
        done = plan.unique_cells() - len(missing)
        print(f"plan digest: {plan.digest}")
        print(f"store {args.cache}: {done}/{plan.unique_cells()} cells present")
        for cell in missing:
            print(f"  missing {cell.digest[:12]}… {cell.label()}")
        quarantined = store.quarantined()
        if quarantined:
            print(f"quarantine: {len(quarantined)} corrupt entr(y/ies) set aside")
            for digest in quarantined:
                print(f"  quarantined {digest[:12]}…")
        journal = store.read_failures(plan.digest)
        if journal:
            print(f"failures journal: {len(journal)} record(s) from the last run")
            for rec in journal:
                print(
                    f"  {rec.get('digest', '?')[:12]}… "
                    f"{rec.get('kind', '?')} after "
                    f"{rec.get('attempts', '?')} attempt(s): "
                    f"{rec.get('error', '')}"
                )
        leases = LeaseCoordinator(store.root, plan.digest).active()
        if leases:
            now = time.time()
            print(f"active leases: {len(leases)}")
            for cell, rec in sorted(leases.items()):
                state = "EXPIRED" if rec.expired(now) else (
                    f"expires in {rec.deadline - now:.0f}s"
                )
                print(f"  {cell[:12]}… held by {rec.owner} ({state})")
        if missing:
            print("run `repro plan run` with the same grid to complete it")
        # Non-zero on a non-empty failures journal even when every cell is
        # present (e.g. a sibling run completed them later): CI gates on
        # this exit code, and quarantined failures deserve a red build.
        return 1 if (missing or journal) else 0

    # action == "run": a re-run against the same store computes only the
    # cells it is still missing, so it also resumes a crashed run.
    if not len(plan):
        print("nothing to run")  # more shards than cells
        return 0
    runner = Runner(
        jobs=args.jobs,
        store=args.cache,
        retry=_retry_policy(args),
        leases=args.leases,
        lease_ttl=args.lease_ttl,
    )
    res = runner.run(plan)
    if _print_failures(res):
        return 1
    print(
        f"executed {res.computed} cells with jobs={runner.jobs}"
        + (f", {res.cached} from cache" if args.cache else "")
    )
    # A shard's sub-plan lacks the other shards' cells: no tables.
    for routing in args.routings if shard is None else []:
        for pattern in patterns if patterns is not None else [None]:
            cfg = base.with_(routing=routing)
            if pattern is not None:
                cfg = cfg.with_traffic(pattern=pattern)
            print()
            print(_sweep_table(res.sweep(cfg, loads)))
    return 1 if _print_oracle_verdicts(res) else 0


def _unique_cells(plan: ExperimentPlan):
    seen: set[str] = set()
    for cell in plan:
        if cell.digest not in seen:
            seen.add(cell.digest)
            yield cell


def _cmd_figures(args: argparse.Namespace) -> int:
    base = _base_config(args).with_traffic(pattern=args.pattern)
    sweeps = figure2_sweeps(
        base,
        args.loads,
        mechanisms=args.routings,
        seeds=args.seeds,
        jobs=args.jobs,
        store=args.cache,
        offline=args.offline,
        retry=_retry_policy(args),
    )
    priority = "with" if base.router.transit_priority else "without"
    print(
        format_figure2(
            sweeps,
            title=f"{args.pattern.upper()} ({priority} transit priority)",
        )
    )
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    runner = Runner(jobs=args.jobs, store=args.cache, retry=_retry_policy(args))
    res = runner.run(paper_plan())
    if _print_failures(res):
        return 1
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = render_paper(res)
    for name, text in texts.items():
        (out / f"{name}.txt").write_text(text + "\n")
    print(
        f"executed {res.computed} cells with jobs={runner.jobs}, "
        f"{res.cached} from cache; wrote {len(texts)} artifacts to {out}"
    )
    return 1 if _print_oracle_verdicts(res) else 0


_COMMANDS = {
    "run": _cmd_run,
    "profile": _cmd_profile,
    "fairness": _cmd_fairness,
    "scenarios": _cmd_scenarios,
    "plan": _cmd_plan,
    "figures": _cmd_figures,
    "paper": _cmd_paper,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
