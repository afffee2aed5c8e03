"""Resistance ranking of non-edges, for link prediction on the strip.

Lower resistance means a more likely link. On the straight strip the order
is fully structural: smaller offset k first, and within an offset the
centered pairs first, moving outward, with mirror pairs exactly tied.
rank_nonedges builds the order both structurally and by sorting exact
values, and refuses to answer if the two disagree. Every strip value has
the one denominator F_{2m+2}, so it sorts the integer closed-form
numerators, read one offset's row at a time, and makes one Fraction per
tie group.
"""

from dataclasses import dataclass
from fractions import Fraction

from .engine import resistance_all_pairs
from .fib import fib
from .formulas import _closed_numerators
from .graphs import WeightedGraph, reachable


@dataclass(frozen=True)
class TieGroup:
    value: Fraction
    pairs: tuple


def _structural_groups(n):
    # Per offset k, the pair (j, j + k) with its mirror (n - k + 1 - j,
    # n + 1 - j), from the center outward; j never passes its mirror's
    # first vertex, and a centered pair is its own mirror.
    return [((j, j + k),) if 2 * j == n - k + 1 else ((j, j + k), (n - k + 1 - j, n + 1 - j))
            for k in range(3, n) for j in range((n - k + 1) // 2, 0, -1)]


def _tie_groups(values, value=lambda key: key):
    """TieGroups of the pairs in `values` (pair -> exact key, ordered as the
    values are; `value` turns a key into its value): equal keys share a
    group, ordered by (key, pair)."""
    groups = []
    for pair in sorted(values, key=lambda p: (values[p], p)):
        if groups and values[groups[-1][0]] == values[pair]:
            groups[-1].append(pair)
        else:
            groups.append([pair])
    return [TieGroup(value=value(values[g[0]]), pairs=tuple(g)) for g in groups]


def rank_nonedges(n: int):
    """Tie groups of non-edges of the straight strip, most likely link first.

    The structural order and the exact-value order are both computed; any
    disagreement raises. The values are ordered by their closed-form
    numerators over the one denominator F_{2m+2}, each offset's row read
    at once. Returns a list of TieGroup, each value a reduced Fraction.
    """
    if n < 5:
        raise ValueError(f"ranking needs n >= 5, got {n}")
    m = n - 2
    structural = _structural_groups(n)

    numerators = {}
    for k in range(3, n):
        js = range(1, n - k + 1)
        for j, num in zip(js, _closed_numerators(m, k, js)):
            numerators[(j, j + k)] = num
    den = fib(2 * m + 2)
    groups = _tie_groups(numerators, lambda num: Fraction(num, den))
    value_order = [g.pairs for g in groups]
    if structural != value_order:
        raise AssertionError(
            f"structural and value orders disagree for n={n}: "
            f"{structural} vs {value_order}"
        )
    return groups


def render_ranking(groups) -> str:
    """Canonical one-line serialization: groups joined by ', ',
    tied pairs joined by ' & ', each pair as {u,v}."""
    return ", ".join(
        " & ".join("{%d,%d}" % (u, v) for u, v in g.pairs) for g in groups
    )


def predict_links(n: int, count: int, tie_policy: str = "lowest-index"):
    """The `count` most likely new links on the straight strip.

    tie_policy "lowest-index": flatten tie groups (pairs within a group are
    in (u, v) order) and return exactly `count` pairs. "report-group": never
    split a tie group; if the cutoff lands inside one, the whole group is
    included, so the result may exceed `count`.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    groups = rank_nonedges(n)
    total = sum(len(g.pairs) for g in groups)
    if count > total:
        raise ValueError(f"only {total} non-edges exist for n={n}, asked for {count}")
    if tie_policy == "lowest-index":
        flat = [p for g in groups for p in g.pairs]
        return flat[:count]
    if tie_policy == "report-group":
        out = []
        for g in groups:
            if len(out) >= count:
                break
            out.extend(g.pairs)
        return out
    raise ValueError(f"unknown tie_policy {tie_policy!r}")


def rank_nonedges_graph(g: WeightedGraph):
    """Resistance ranking of non-edges of an arbitrary connected graph.

    Exact values from resistance_all_pairs, one exact solve per vertex, so
    ties are exact. Returns TieGroups; ties are grouped by equal value, ordered by
    (value, pair). On a disconnected graph the first non-edge in (u, v)
    order whose ends lie in different components raises
    ValueError("vertices u and v are disconnected") before any elimination.
    """
    adj = g.adjacency()
    # The first cross pair in (u, v) order is vertex 1 and the smallest
    # vertex it cannot reach.
    seen = reachable(adj, 1)
    if len(seen) < g.vertex_count:
        v = min(v for v in g.vertices if v not in seen)
        raise ValueError(f"vertices 1 and {v} are disconnected")
    values = resistance_all_pairs(g)
    return _tie_groups({
        (u, v): values[(u, v)]
        for u in g.vertices
        for v in range(u + 1, g.vertex_count + 1)
        if v not in adj[u]
    })
