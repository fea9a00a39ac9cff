"""The repo's benchmark: six workloads, measured from outside the program.

    python bench/run.py                       # every workload, end-to-end metrics
    python bench/run.py --trace               # per-layer metrics + span traces
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python bench/run.py --repeat 2 --check-agreement
    python bench/run.py --list | --smoke

Each workload runs in a fresh ``worker.py`` process.  With ``--workload``
the last line of standard output is the driver's result object
(``correct``/``attempted``/``failed``/``metrics``); without it, a summary
object ending in ``"claim": null`` — this harness measures, it claims no
gain.  Exit status is non-zero when an op or an output check failed.
See ``README.md`` for the workloads, metrics and the A/B rule.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import benchlib
from benchlib import BENCH_DIR, OUT_DIR, ROOT

ENGINE_DIR = ROOT / "src" / "repro" / "engine"
EXT_STAMP = OUT_DIR / "ext.sha256"
EXT_BUILD_DIR = OUT_DIR / "ext_build"

#: fresh-process set-ups sampled per run; ``setup_s`` is their median.
#: sweep_fig2c_cached's set-up is a whole 147-cell sweep — steady, and dear.
SETUP_SAMPLES = {"sweep_fig2c_cached": 1}
DEFAULT_SETUP_SAMPLES = 3

#: a worker gets this long before its process group is killed.
WORKER_TIMEOUT_S = 170

#: metrics that must repeat exactly between two runs with one seed.
EXACT_PREFIXES = ("model.",)
EXACT_METRICS = (
    "engine.events",
    "engine.activations",
    "routing.decide_calls",
    "traffic.dest_calls",
    "exec.computed",
    "service.computed",
    "service.dedup_share",
)


def child_env() -> dict[str, str]:
    """The environment without ambient ``REPRO_*`` switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ----------------------------------------------------------------------
# fresh-extension guard
# ----------------------------------------------------------------------
def ensure_extension() -> float:
    """Rebuild ``repro.engine._ckernel`` unless it matches the sources.

    Returns the build time (0.0 when the recorded sha256 of
    ``_ckernel.c`` + ``setup.py`` matches).  A stale or unstamped
    extension is deleted first and the build starts from empty build
    directories of its own, so a host that cannot build runs the compiled
    workloads into loud failures, never into a stale kernel.
    """
    sources = (ENGINE_DIR / "_ckernel.c", ROOT / "setup.py")
    want = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    built = list(ENGINE_DIR.glob("_ckernel*.so"))
    if built and EXT_STAMP.exists() and EXT_STAMP.read_text().strip() == want:
        return 0.0
    for stale in built:
        stale.unlink()
    shutil.rmtree(EXT_BUILD_DIR, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run(
        [
            sys.executable,
            "setup.py",
            "build_ext",
            "--inplace",
            f"--build-lib={EXT_BUILD_DIR / 'lib'}",
            f"--build-temp={EXT_BUILD_DIR / 'temp'}",
        ],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=False,
    )
    elapsed = time.perf_counter() - t0
    if list(ENGINE_DIR.glob("_ckernel*.so")):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        EXT_STAMP.write_text(want + "\n")
    else:
        print(
            "bench: repro.engine._ckernel did not build; the compiled "
            "workloads will report failed ops",
            file=sys.stderr,
        )
    return elapsed


# ----------------------------------------------------------------------
# running workers
# ----------------------------------------------------------------------
def spawn_worker(name: str, seed: int, seconds: float, trace: int, *extra: str):
    """Run one worker to its end; returns its row, or None if it has none."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        *extra,
    ]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool
        proc.wait()
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def cli_startup_s() -> float:
    """Fresh interpreter: ``import repro.cli; build_parser()``, median of 3."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli; repro.cli.build_parser()"],
            env=child_env(),
            check=True,
        )
        samples.append(time.perf_counter() - t0)
    return benchlib.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: int, facts: dict) -> dict:
    """One row: extra set-up samples, then the measuring worker."""
    setups = []
    for _ in range(SETUP_SAMPLES.get(name, DEFAULT_SETUP_SAMPLES) - 1):
        row = spawn_worker(name, seed, 0, 0, "--setup-only")
        if row and "setup_s" in row["metrics"]:
            setups.append(row["metrics"]["setup_s"])
    row = spawn_worker(name, seed, seconds, trace)
    if row is None:
        row = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "attempted": 1,
            "failed": 1,
            "failures": ["the worker exited without a row"],
            "checks": {},
            "metrics": {},
            "info": {},
        }
    metrics = row["metrics"]
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"])
        row["info"].setdefault("samples", {})["setup_s"] = setups
        metrics["setup_s"] = benchlib.median(setups)
    metrics["ops_failed_share"] = row["failed"] / row["attempted"]
    metrics.update(facts)
    row["correct"] = not row["failed"] and all(row["checks"].values())
    return row


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:.4g}"


def print_end_to_end(rows: list[dict], contract: dict) -> None:
    """The six end-to-end metrics, then the unscaled facts behind them."""
    specs = benchlib.end_to_end_specs(contract)
    facts = ("bench.op_wall_raw_s_p50", "bench.host_speed")
    print(
        f"{'workload':20s}"
        + "".join(f"{s['name']:>17s}" for s in specs)
        + f"{'ops':>5s}"
        + "".join(f"{name.removeprefix('bench.'):>20s}" for name in facts)
        + "  checks"
    )
    print(f"{'':20s}" + "".join(f"{s['unit']:>17s}" for s in specs))
    for row in rows:
        m = row["metrics"]
        bad = [k for k, ok in row["checks"].items() if not ok]
        print(
            f"{row['workload']:20s}"
            + "".join(f"{fmt(m.get(s['name'])):>17s}" for s in specs)
            + f"{row['info'].get('ops', 0):>5d}"
            + "".join(f"{fmt(m.get(name)):>20s}" for name in facts)
            + ("  ok" if row["correct"] else f"  FAILED {bad}")
        )
        for failure in row["failures"]:
            print(f"    {failure}")


def print_per_layer(rows: list[dict], contract: dict) -> None:
    print(f"{'metric':32s}{'unit':>10s}"
          + "".join(f"{row['workload']:>20s}" for row in rows))
    for spec in contract["per_layer"]:
        print(
            f"{spec['name']:32s}{spec['unit']:>10s}"
            + "".join(f"{fmt(row['metrics'].get(spec['name'])):>20s}" for row in rows)
        )
    for row in rows:
        info = row["info"]
        line = (
            f"{row['workload']}: engine.backend={info.get('engine.backend')} "
            f"engine.lowered={info.get('engine.lowered')} "
            f"model.result_fingerprint={info.get('model.result_fingerprint')}"
        )
        if row["workload"] == "cell_advc_mm":
            # Shape check only: h=3 here, h=6 and 15,000 cycles in the paper.
            line += (
                f" model.max_min_injection="
                f"{fmt(row['metrics'].get('model.max_min_injection'))} "
                f"(paper Table II in-trns-mm, h=6: 72.576; not an error figure)"
            )
        print(line)


def driver_result(row: dict, contract: dict) -> dict:
    """The object the driver reads from the last line."""
    specs = contract["per_layer"] if row["trace"] else contract["end_to_end"]
    default = 0.0 if row["trace"] else None  # a layer absent from a workload
    metrics = {}
    for spec in specs:
        value = row["metrics"].get(spec["name"], default)
        if value is not None:
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": row["correct"],
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": metrics,
    }


def check_agreement(sets: list[list[dict]], contract: dict) -> bool:
    """Compare the even-numbered sets with the odd-numbered ones.

    Medians and their spreads are taken over the pooled per-op samples of
    each side, so two sets are enough for an "unresolved" verdict.
    """
    ok = True
    by_workload: dict[str, list[dict]] = {}
    for rows in sets:
        for row in rows:
            by_workload.setdefault(row["workload"], []).append(row)
    print(f"\n{'agreement':20s}{'metric':>16s}{'median A':>12s}{'median B':>12s}"
          f"{'gap':>8s}{'spread':>8s}{'bound':>7s}  verdict")
    for name, rows in by_workload.items():
        for spec in benchlib.end_to_end_specs(contract):
            a = benchlib.metric_samples(rows[0::2], spec["name"])
            b = benchlib.metric_samples(rows[1::2], spec["name"])
            if not (a and b):
                print(f"{name:20s}{spec['name']:>16s}  missing")
                ok = False
                continue
            res = benchlib.agreement(a, b, spec["bound"])
            ok = ok and res["verdict"] == "pass"
            print(
                f"{name:20s}{spec['name']:>16s}{res['medians'][0]:>12.4g}"
                f"{res['medians'][1]:>12.4g}{res['gap']:>8.3f}"
                f"{fmt(res['spread']):>8s}{res['bound']:>7.2f}  {res['verdict']}"
            )
        exact = sorted(
            k
            for k in rows[0]["metrics"]
            if k in EXACT_METRICS or k.startswith(EXACT_PREFIXES)
        )
        differing = [
            k for k in exact if len({r["metrics"].get(k) for r in rows}) != 1
        ]
        print(f"{name:20s}{len(exact)} exact counts: "
              + (f"DIFFER {differing}" if differing else "identical"))
        ok = ok and not differing
    return ok


def main() -> int:
    contract = benchlib.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="minimum op counts (the same as --seconds 0)")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()

    if args.list:
        for kind in ("workloads", "end_to_end", "per_layer"):
            for entry in contract[kind]:
                print(f"{kind}\t{entry['name']}\t{entry.get('unit', '')}")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2

    facts = {"bench.ext_build_s": ensure_extension()}
    if args.trace:
        facts["cli.startup_s"] = cli_startup_s()
    seconds = 0.0 if args.smoke else args.seconds
    selected = [args.workload] if args.workload else names
    sha = git_sha()
    sets = []
    for k in range(args.repeat):
        order = selected if k % 2 == 0 else selected[::-1]
        rows = [run_workload(n, args.seed, seconds, args.trace, facts) for n in order]
        rows.sort(key=lambda row: selected.index(row["workload"]))
        for row in rows:
            row["info"]["git_sha"] = sha
        sets.append(rows)
        print(f"\nset {k + 1}/{args.repeat}  seed={args.seed} seconds={seconds:g} "
              f"trace={args.trace}")
        print_end_to_end(rows, contract)
        if args.trace:
            print()
            print_per_layer(rows, contract)
    ok = all(row["correct"] for rows in sets for row in rows)
    if args.check_agreement:
        ok = check_agreement(sets, contract) and ok
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results.json").write_text(json.dumps(sets, indent=1) + "\n")

    if args.workload:
        print(json.dumps(driver_result(sets[-1][0], contract)))
    else:
        print(json.dumps({
            "ok": ok,
            "sets": len(sets),
            "results": str((OUT_DIR / "results.json").relative_to(ROOT)),
            "claim": None,
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
