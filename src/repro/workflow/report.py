"""Plain-text rendering of tables and figure series.

The benchmark harness prints the same rows/series the paper reports;
these helpers format them as aligned ASCII so the reproduction output
reads like the paper's tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

__all__ = ["render_table", "render_series", "format_value"]


def format_value(value) -> str:
    """Compact cell formatting: 4 significant digits for floats."""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Aligned ASCII table from uniform row dicts."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    header = list(rows[0])
    cells = [[format_value(r.get(h, "")) for h in header] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(header)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    x: Iterable[float],
    series: Dict[str, Iterable[float]],
    x_label: str = "freq_ghz",
    title: str = "",
    max_points: int = 12,
) -> str:
    """Render figure series as a table, subsampled to *max_points* rows.

    Every series must share the abscissa *x*.
    """
    x = np.asarray(list(x), dtype=np.float64)
    cols = {name: np.asarray(list(vals), dtype=np.float64) for name, vals in series.items()}
    for name, vals in cols.items():
        if vals.shape != x.shape:
            raise ValueError(
                f"series {name!r} has {vals.size} points but x has {x.size}"
            )
    if x.size > max_points:
        idx = np.unique(np.linspace(0, x.size - 1, max_points).round().astype(int))
    else:
        idx = np.arange(x.size)
    rows = []
    for i in idx:
        row = {x_label: float(x[i])}
        row.update({name: float(vals[i]) for name, vals in cols.items()})
        rows.append(row)
    return render_table(rows, title=title)
