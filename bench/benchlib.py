"""Pure helpers of the benchmark harness (no ``repro`` import).

Statistics, the tail-percentile rule, span self times, result
fingerprints, seed derivation and the set-agreement checker.  Everything
here is a function of its arguments, so ``test_bench_harness.py`` covers
it without running a simulation.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import statistics
import time
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from typing import Any

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: the seed whose fingerprints ``expected.json`` pins.
DEFAULT_SEED = 2015

#: percentiles the tail rule chooses from, lowest first, in tenths of a
#: per cent (integers keep "ten samples beyond" exact).
TAIL_PERMILLES = (500, 750, 900, 950, 990, 999)

#: samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10

#: the sixth end-to-end metric.  ``BENCHMARK.json`` cannot list it (its
#: bounded metrics must never read 0, and bounds there are shares of a
#: median): the driver reads it as ``failed``/``attempted``.  The bound is
#: absolute — no failed op is tolerated.
OPS_FAILED_SHARE = {
    "name": "ops_failed_share",
    "unit": "share",
    "better": "lower",
    "bound": 0.0,
}


def load_contract() -> dict[str, Any]:
    """The root ``BENCHMARK.json`` (workloads, metrics, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_specs(contract: dict[str, Any]) -> list[dict[str, Any]]:
    """The contract's end-to-end metrics, then ``ops_failed_share``."""
    return [*contract["end_to_end"], OPS_FAILED_SHARE]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float | None:
    """Inter-quartile distance as a share of the median.

    ``None`` below four samples: quartiles of two or three points are
    extrapolations, not a spread.
    """
    if len(values) < 4:
        return None
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else None


def median_spread(values: Sequence[float]) -> float | None:
    """Inter-quartile width of the *median* of that many such samples.

    The samples' own :func:`spread` times 1.2533/sqrt(n), the large-sample
    standard error of a median against that of one sample.  It is what a
    comparison of two medians has to beat; the spread of the samples
    themselves says how noisy one op is, which forty ops a run average
    away.  ``None`` below four samples.
    """
    own = spread(values)
    return None if own is None else own * 1.2533 / len(values) ** 0.5


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (``pct`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` when even the median has
    fewer than ten samples above it (under 20 samples in all).
    """
    n = len(values)
    best = None
    for permille in TAIL_PERMILLES:
        if n * (1000 - permille) >= TAIL_MIN_BEYOND * 1000:
            best = permille / 10.0
    if best is None:
        return None
    return best, percentile(values, best)


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
#: seconds one calibration rep takes on the reference host when quiet
#: (2-vCPU 2.1 GHz sandbox, CPython 3.11).  It only sets the unit: two
#: runs compare by the ratio of their measured rep times.
CALIBRATION_REFERENCE_S = 0.011

#: a calibration slice lasts this long, or this share of the time since
#: the slice before it, whichever is longer.
SLICE_MIN_S = 0.1
SLICE_SHARE = 0.1


def _calibration_rep() -> int:
    """Fixed stdlib-only work: interpreter dispatch, then memory traffic.

    Shaped like the two things the workloads spend time on (Python
    bytecode over small tables; C code walking a few hundred KB) and
    sharing no code with ``repro``, so a change to the program cannot
    move it.
    """
    lst = list(range(256))
    table = [0] * 256
    seen: dict[int, int] = {}
    acc = 0
    for i in range(40_000):
        j = i & 255
        acc += lst[j] + table[j]
        table[j] = acc & 1023
        if j & 15 == 0:
            seen[j] = acc
        elif j in seen:
            acc -= seen[j] & 63
    data = [(i * 2654435761) & 0x3FFFFFFF for i in range(30_000)]
    return acc + sorted(data)[0] + len(set(data))


class HostSpeed:
    """Speed of the host against the reference, over one worker process.

    The worker runs a *slice* of calibration reps when it starts, after
    set-up and after every op.  All slices make one factor: the host's
    speed moves over minutes and a run lasts seconds, while a single
    short slice is noisier than the op it would scale.
    """

    def __init__(self) -> None:
        self.reps = 0
        self.seconds = 0.0
        self._mark = time.perf_counter()

    def slice(self) -> None:
        start = time.perf_counter()
        length = max(SLICE_MIN_S, SLICE_SHARE * (start - self._mark))
        while True:
            _calibration_rep()
            self.reps += 1
            now = time.perf_counter()
            if now - start >= length:
                break
        self.seconds += now - start
        self._mark = now

    @property
    def speed(self) -> float:
        """1.0 is the reference host when quiet; 0.5 is half as fast."""
        return CALIBRATION_REFERENCE_S * self.reps / self.seconds


# ----------------------------------------------------------------------
# seeds and fingerprints
# ----------------------------------------------------------------------
def derive_seed(seed: int, workload: str, index: int | str) -> int:
    """Cell/plan seed number *index* of *workload* under run seed *seed*."""
    digest = hashlib.sha256(f"{seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def fingerprint(items: Iterable[Any]) -> str:
    """sha256 over the canonical JSON of each item, in order.

    Canonical means sorted keys and no whitespace — byte-identical to
    ``repro.exec.serialize.canonical_json`` — so the digest depends on
    the values and their order in *items*, never on dict insertion order.
    """
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def fingerprint48(hexdigest: str) -> int:
    """Leading 48 bits of a fingerprint: exact as a JSON number."""
    return int(hexdigest[:12], 16)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder around the benchmark's own calls.

    A span is ``{"name", "start", "end", "parent", "op"}`` with *parent*
    an index into :attr:`spans` (``None`` for a root).  While
    :attr:`enabled` is false :meth:`span` records nothing and yields
    ``None``, so traced and untraced ops run the same code.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op: int | None = None
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: pathlib.Path) -> None:
        """One JSON object per span, with its self time."""
        selfs = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for record, own in zip(self.spans, selfs):
                f.write(json.dumps({**record, "self": own}) + "\n")


def duration(record: dict[str, Any]) -> float:
    return record["end"] - record["start"]


def self_times(spans: Sequence[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children may nest, touch or overlap one another (two tenants awaited
    concurrently); the covered part is the union of their intervals,
    clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        parent = record["parent"]
        if parent is not None:
            children.setdefault(parent, []).append((record["start"], record["end"]))
    out = []
    for index, record in enumerate(spans):
        start, end = record["start"], record["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo = max(lo, cursor)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def span_totals(spans: Sequence[dict[str, Any]]) -> dict[str, dict[Any, float]]:
    """``{span name: {op id: summed duration}}``."""
    totals: dict[str, dict[Any, float]] = {}
    for record in spans:
        per_op = totals.setdefault(record["name"], {})
        per_op[record["op"]] = per_op.get(record["op"], 0.0) + duration(record)
    return totals


# ----------------------------------------------------------------------
# agreement between two sets of runs of the same code
# ----------------------------------------------------------------------
def metric_samples(rows: Iterable[dict[str, Any]], name: str) -> list[float]:
    """The samples behind metric *name* in *rows*, pooled.

    A timing metric is the median of per-op (or per-process, for
    ``setup_s``) samples, kept in ``info["samples"]``; those are pooled,
    so that even one run a side has a spread.  Any other metric
    contributes its one value per row.
    """
    out: list[float] = []
    for row in rows:
        samples = row["info"].get("samples", {})
        if name in samples:
            out.extend(samples[name])
        elif name in row["metrics"]:
            out.append(row["metrics"][name])
    return out


def agreement(
    first: Sequence[float], second: Sequence[float], bound: float
) -> dict[str, Any]:
    """Do two sets of samples of one metric agree within *bound*?

    ``gap`` is the distance between the two medians as a share of the
    first.  ``spread`` is the wider of the two sets' :func:`median_spread`
    (``None`` when neither set has four samples).  The verdict is ``"unresolved"`` when the spread
    itself exceeds the bound — the benchmark cannot tell a change of
    that size from its own noise — otherwise ``"fail"`` when the gap
    exceeds it, else ``"pass"``.
    """
    m1, m2 = median(first), median(second)
    gap = abs(m2 - m1) / abs(m1) if m1 else (0.0 if m2 == m1 else float("inf"))
    spreads = [s for s in map(median_spread, (first, second)) if s is not None]
    noise = max(spreads) if spreads else None
    if noise is not None and noise > bound:
        verdict = "unresolved"
    elif gap > bound:
        verdict = "fail"
    else:
        verdict = "pass"
    return {
        "verdict": verdict,
        "gap": gap,
        "spread": noise,
        "bound": bound,
        "medians": [m1, m2],
    }
