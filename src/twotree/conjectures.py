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


def _growth(cases, step):
    # A probe table: per case (a row's leading fields, a graph and a pair)
    # the pair's resistance, exact up to MAX_EXACT_VERTICES vertices and
    # float beyond, then step's comparison columns against the previous
    # value (None on the first row), then the method.
    rows = []
    prev = None
    for fields, g, i, j in cases:
        exact = g.vertex_count <= MAX_EXACT_VERTICES
        value = (resistance_det if exact else resistance_float)(g, i, j).value
        rows.append({**fields, "value": value, **step(value, prev, exact),
                     "method": "exact" if exact else "float"})
        prev = value
    return rows


def _float_increment(value, prev, exact):
    return {"increment": None if prev is None else float(value) - float(prev)}


def _ktree_step(value, prev, exact):
    # Exact rows follow exact rows, so an exact row's increment is exact.
    if exact and prev is not None:
        return {"increment": value - prev}
    return _float_increment(value, prev, exact)


def _grid_step(value, prev, exact):
    diff = _float_increment(value, prev, exact)["increment"]
    return {"difference": diff, "increasing": None if diff is None else diff > 0}


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
    cases = (({"n": n}, straight_linear_ktree(n, k), 1, n) for n in range(k + 1, n_max + 1))
    return {"target": target, "rows": _growth(cases, _ktree_step), "label": LABEL}


def triangle_grid_growth(rows_max: int = 12) -> dict:
    """Apex-to-corner resistance of the triangular grid as it grows.

    Differences between consecutive sizes are reported; the growth looks
    logarithmic in the number of cell rows, but that is only a trend.
    """
    if rows_max < 2:
        raise ValueError(f"rows_max must be >= 2, got {rows_max}")
    sizes = range(2, rows_max + 1)
    cases = (
        ({"vertex_rows": r, "cell_rows": grid.cell_rows, "cells": grid.cells,
          "vertices": grid.graph.vertex_count}, grid.graph, grid.apex, grid.bottom_left)
        for r, grid in zip(sizes, map(triangular_grid, sizes))
    )
    return {"rows": _growth(cases, _grid_step), "label": LABEL}


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
    sizes = range(6, n_max + 1)
    cases = (
        ({"n": n, "bend_k": bend_k}, bent_linear_2tree(n, bend_k), 1, n)
        for n, bend_k in zip(sizes, map(BEND_RULES[bend_rule], sizes))
    )
    return {"rows": _growth(cases, _float_increment), "label": LABEL}
