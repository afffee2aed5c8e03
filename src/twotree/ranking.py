"""Resistance ranking of non-edges, for link prediction.

Lower resistance means a more likely link. On the straight strip the order
is fully structural: smaller offset k first, and within an offset the
centered pairs first, moving outward, with mirror pairs exactly tied.
rank_nonedges builds the order both structurally and by sorting exact
values, and refuses to answer if the two disagree. rank_nonedges_graph
ranks any connected graph. Either way every value shares one denominator,
F_{2m+2} on the strip and the tree minor on a graph, so both sort integer
numerators and make one Fraction per tie group.
"""

from fractions import Fraction
from typing import NamedTuple

from .engine import _graph_facts, _pair_numerators
from .fib import fib
from .formulas import _closed_numerators
from .graphs import WeightedGraph


class TieGroup(NamedTuple):
    value: Fraction
    pairs: tuple


def _structural_groups(n):
    # Per offset k, the pair (j, j + k) with its mirror (n - k + 1 - j,
    # n + 1 - j), from the center outward; j never passes its mirror's
    # first vertex, and a centered pair is its own mirror.
    return [((j, j + k),) if 2 * j == n - k + 1 else ((j, j + k), (n - k + 1 - j, n + 1 - j))
            for k in range(3, n) for j in range((n - k + 1) // 2, 0, -1)]


def _tie_groups(numerators, den):
    """TieGroups of the pairs in `numerators` (pair -> integer numerator over
    the shared positive denominator den): equal numerators share a group,
    ordered by (numerator, pair), valued Fraction(numerator, den)."""
    groups = []
    for pair in sorted(numerators, key=lambda p: (numerators[p], p)):
        if groups and numerators[groups[-1][0]] == numerators[pair]:
            groups[-1].append(pair)
        else:
            groups.append([pair])
    return [TieGroup(value=Fraction(numerators[g[0]], den), pairs=tuple(g)) for g in groups]


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
    groups = _tie_groups(numerators, fib(2 * m + 2))
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

    Exact values from _pair_numerators, one exact solve per vertex: integers
    over the one tree minor, so ties are exact. Returns TieGroups; ties are
    grouped by equal value, ordered by (value, pair). A disconnected graph
    raises ValueError("vertices 1 and v are disconnected"), v the smallest
    vertex outside the component of 1: the first such pair in (u, v) order.
    """
    comps = _graph_facts(g)[1]
    if len(comps) > 1:  # components come in order of their smallest vertex
        raise ValueError(f"vertices 1 and {comps[1].verts[0]} are disconnected")
    edges = {(u, v) for u, v, _ in g.edges}
    return _tie_groups({pair: num for pair, num in _pair_numerators(comps[0]) if pair not in edges},
                       comps[0].tree_minor)
