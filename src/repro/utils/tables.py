"""Plain-text table formatting for the rendered paper artifacts.

The paper artifacts print the same rows the paper's tables report; this
module renders them with aligned columns so the output is directly
comparable against Tables II/III of the paper.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table"]


def _fmt_cell(value: object, ndigits: int) -> str:
    if isinstance(value, float):
        return f"{value:.{ndigits}g}" if abs(value) >= 1e4 or (
            value != 0 and abs(value) < 1e-3
        ) else f"{value:.{ndigits}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    ndigits: int = 4,
) -> str:
    """Render *rows* under *headers* as an aligned monospace table.

    Floats are rounded to *ndigits*; very large/small magnitudes switch to
    scientific-ish ``g`` formatting so starvation counts (e.g. Max/Min of
    585.69 in Table II) stay readable.
    """
    str_rows = [[_fmt_cell(c, ndigits) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
