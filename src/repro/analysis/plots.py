"""Terminal plots: CDF curves and line series as ASCII art.

The paper's figures are CDF plots; the benchmark harness prints the
same curves as character grids so a terminal run can be compared
against the paper at a glance (complementing the percentile tables in
:mod:`repro.analysis.tables`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.sim.stats import Distribution

#: Glyph per series, cycled in insertion order.
SERIES_GLYPHS = "*o+x#@%&"


def ascii_cdf_plot(
    dists: Dict[str, Distribution],
    width: int = 64,
    height: int = 16,
    x_label: str = "value",
    title: str | None = None,
    log_x: bool = False,
) -> str:
    """Plot several empirical CDFs on one character grid.

    The y axis is fixed to [0, 1]; the x axis spans the pooled value
    range (optionally log-scaled, for the paper's long-tailed metrics).
    """
    populated = {k: d for k, d in dists.items() if d.n}
    if not populated:
        return (title or "cdf") + ": (no data)"

    x_min = min(d.min for d in populated.values())
    x_max = max(d.max for d in populated.values())
    if log_x:
        x_min = max(x_min, 1e-9)
    if x_max <= x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for (label, dist), glyph in zip(populated.items(), SERIES_GLYPHS):
        values = dist.values
        for col in range(width):
            if log_x:
                x = 10 ** (
                    np.log10(x_min)
                    + col / (width - 1) * (np.log10(x_max) - np.log10(x_min))
                )
            else:
                x = x_min + col / (width - 1) * (x_max - x_min)
            f = np.searchsorted(values, x, side="right") / dist.n
            row = height - 1 - min(int(f * (height - 1)), height - 1)
            if grid[row][col] == " ":
                grid[row][col] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        y = 1.0 - i / (height - 1)
        axis = f"{y:4.2f} |"
        lines.append(axis + "".join(row))
    lines.append("     +" + "-" * width)
    lo = f"{x_min:.3g}"
    hi = f"{x_max:.3g}"
    scale = " (log x)" if log_x else ""
    pad = width - len(lo) - len(hi)
    lines.append("      " + lo + " " * max(pad, 1) + hi)
    lines.append(f"      x: {x_label}{scale}")
    legend = "  ".join(
        f"{glyph}={label}"
        for (label, _d), glyph in zip(populated.items(), SERIES_GLYPHS)
    )
    lines.append("      " + legend)
    return "\n".join(lines)


def ascii_series_plot(
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    width: int = 64,
    height: int = 14,
    x_label: str = "x",
    y_label: str = "y",
    title: str | None = None,
) -> str:
    """Plot y-vs-x line series (Figure 5 style) as a character grid."""
    if not series or not len(xs):
        return (title or "series") + ": (no data)"
    all_y = [y for ys in series.values() for y in ys]
    y_min, y_max = min(all_y), max(all_y)
    if y_max <= y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(xs), max(xs)
    if x_max <= x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for (label, ys), glyph in zip(series.items(), SERIES_GLYPHS):
        for x, y in zip(xs, ys):
            col = min(int((x - x_min) / (x_max - x_min) * (width - 1)), width - 1)
            row = height - 1 - min(
                int((y - y_min) / (y_max - y_min) * (height - 1)), height - 1
            )
            grid[row][col] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        y = y_max - (y_max - y_min) * i / (height - 1)
        lines.append(f"{y:8.3g} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lo, hi = f"{x_min:.3g}", f"{x_max:.3g}"
    lines.append(" " * 10 + lo + " " * max(width - len(lo) - len(hi), 1) + hi)
    lines.append(f"          x: {x_label}   y: {y_label}")
    legend = "  ".join(
        f"{glyph}={label}" for (label, _ys), glyph in zip(series.items(), SERIES_GLYPHS)
    )
    lines.append("          " + legend)
    return "\n".join(lines)
