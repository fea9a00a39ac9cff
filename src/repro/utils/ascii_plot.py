"""Minimal ASCII line plots.

The examples and the paper artifacts are headless (no matplotlib in this
environment), so figure reproductions are emitted as numeric series plus a
coarse ASCII rendering that makes curve *shape* (saturation knees, latency
peaks) visible directly in a terminal or log file.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["ascii_plot"]

_MARKERS = "ox+*#@%&"


def ascii_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 70,
    height: int = 18,
    title: str | None = None,
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Plot one or more ``name -> [(x, y), ...]`` series on a shared grid.

    Each series gets a marker character; a legend line maps markers back to
    series names.  Points outside a finite range are dropped.  Returns the
    rendered multi-line string (does not print).
    """
    pts = [(x, y) for s in series.values() for x, y in s if _finite(x) and _finite(y)]
    if not pts:
        return (title or "") + "\n(no finite data points)"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, data) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in data:
            if not (_finite(x) and _finite(y)):
                continue
            col = int((x - xmin) / (xmax - xmin) * (width - 1))
            row = int((y - ymin) / (ymax - ymin) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    ytop = f"{ymax:.4g}"
    ybot = f"{ymin:.4g}"
    pad = max(len(ytop), len(ybot), len(ylabel))
    for i, row in enumerate(grid):
        label = ytop if i == 0 else (ybot if i == height - 1 else "")
        lines.append(label.rjust(pad) + " |" + "".join(row))
    lines.append(" " * pad + " +" + "-" * width)
    xline = f"{xmin:.4g}".ljust(width // 2) + f"{xmax:.4g}".rjust(width - width // 2)
    lines.append(" " * pad + "  " + xline)
    if xlabel:
        lines.append(" " * pad + "  " + xlabel.center(width))
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def _finite(v: float) -> bool:
    return v == v and v not in (float("inf"), float("-inf"))
