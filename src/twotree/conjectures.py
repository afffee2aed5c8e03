"""Numerical probes of asymptotic behavior.

Everything here is labeled conjectural: the tables report trends, they do
not prove limits, and nothing in the test suite asserts a conjecture.
Exact arithmetic is used up to MAX_EXACT_VERTICES vertices, floating point
beyond. Each probe's signature holds the CLI's default sizes.
"""

from fractions import Fraction

from .engine import resistance_det, resistance_float
from .graphs import bent_linear_2tree, straight_linear_ktree, triangular_grid

MAX_EXACT_VERTICES = 300
LABEL = "conjectural"


def _endpoint_value(g, i, j):
    if g.vertex_count <= MAX_EXACT_VERTICES:
        return resistance_det(g, i, j).value, "exact"
    return resistance_float(g, i, j).value, "float"


def ktree_increments(k: int, n_max: int | None = None) -> dict:
    """Endpoint resistance increments on the straight linear k-tree.

    The increment r(1, n) - r(1, n-1) appears to approach
    6 / (k (k+1) (2k+1)); the table reports values and increments so the
    trend can be eyeballed. k=1 is the path (increment exactly 1), k=2 the
    strip (increment tending to 1/5). n runs up to n_max, k + 16 if None.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_max is None:
        n_max = k + 16
    if n_max < k + 2:
        raise ValueError(f"n_max must be >= {k + 2}, got {n_max}")
    target = Fraction(6, k * (k + 1) * (2 * k + 1))
    rows = []
    prev = None
    for n in range(k + 1, n_max + 1):
        g = straight_linear_ktree(n, k)
        value, method = _endpoint_value(g, 1, n)
        inc = None
        if prev is not None:
            inc = value - prev if method == "exact" else float(value) - float(prev)
        rows.append({"n": n, "value": value, "increment": inc, "method": method})
        prev = value
    return {"target": target, "rows": rows, "label": LABEL}


def triangle_grid_growth(rows_max: int = 12) -> dict:
    """Apex-to-corner resistance of the triangular grid as it grows.

    Differences between consecutive sizes are reported; the growth looks
    logarithmic in the number of cell rows, but that is only a trend.
    """
    if rows_max < 2:
        raise ValueError(f"rows_max must be >= 2, got {rows_max}")
    rows = []
    prev = None
    for r in range(2, rows_max + 1):
        grid = triangular_grid(r)
        value, method = _endpoint_value(grid.graph, grid.apex, grid.bottom_left)
        diff = None
        increasing = None
        if prev is not None:
            diff = float(value) - float(prev)
            increasing = diff > 0
        rows.append(
            {
                "vertex_rows": r,
                "cell_rows": grid.cell_rows,
                "cells": grid.cells,
                "vertices": grid.graph.vertex_count,
                "value": value,
                "difference": diff,
                "increasing": increasing,
                "method": method,
            }
        )
        prev = value
    return {"rows": rows, "label": LABEL}


# Where each bend rule puts the bend of the n-vertex strip.
BEND_RULES = {
    "middle": lambda n: min(max(n // 2, 3), n - 3),
    "first": lambda n: 3,
    "last": lambda n: n - 3,
}


def bent_diameter_growth(n_max: int = 24, bend_rule: str = "middle") -> dict:
    """Endpoint resistance of bent strips as the strip grows.

    bend_rule, a key of BEND_RULES, places the bend: "middle", "first"
    (always at 3), or "last" (always at n-3). Increments are reported for
    trend-watching only.
    """
    if n_max < 6:
        raise ValueError(f"n_max must be >= 6, got {n_max}")
    if bend_rule not in BEND_RULES:
        raise ValueError(f"unknown bend rule {bend_rule!r}")
    rows = []
    prev = None
    for n in range(6, n_max + 1):
        bend_k = BEND_RULES[bend_rule](n)
        g = bent_linear_2tree(n, bend_k)
        value, method = _endpoint_value(g, 1, n)
        inc = float(value) - float(prev) if prev is not None else None
        rows.append(
            {
                "n": n,
                "bend_k": bend_k,
                "value": value,
                "increment": inc,
                "method": method,
            }
        )
        prev = value
    return {"rows": rows, "label": LABEL}
