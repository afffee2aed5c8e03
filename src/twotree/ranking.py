"""Resistance ranking of non-edges, for link prediction.

Lower resistance means a more likely link. On the straight strip the order
is fully structural: smaller offset k first, and within an offset the
centered pairs first, moving outward, with mirror pairs exactly tied.
strip_numerators walks that order once and checks the exact values along
it: each pair ties its mirror, and each group is strictly above the one
before. That holds exactly when sorting by (value, pair) and grouping
equal values gives the structural order, so the walk refuses to answer
whenever the two orders would disagree. rank_nonedges_graph ranks any
connected graph by that sort. Either way every value shares one
denominator, F_{2m+2} on the strip and the tree minor on a graph, so both
compare integer numerators. rank_nonedges and rank_nonedges_graph make one
Fraction per tie group; the CLI's `rank --n` reads strip_numerators'
integers itself and makes none.
"""

from fractions import Fraction
from itertools import groupby
from math import inf
from operator import itemgetter
from typing import NamedTuple

from .engine import _graph_facts, _pair_numerators
from .fib import fib
from .formulas import _closed_numerators
from .graphs import WeightedGraph


class TieGroup(NamedTuple):
    value: Fraction
    pairs: tuple


def strip_numerators(n: int):
    """The strip's tie groups as integers: (F_{2m+2}, groups), the one
    denominator and a generator of (numerator, pairs) per tie group, most
    likely link first, in the structural order.

    n < 5 raises ValueError here, before F_{2m+2} is read. The walk, per
    offset k, takes the pair (j, j + k) with its mirror (n - k + 1 - j,
    n + 1 - j), from the center outward; a centered pair is its own mirror.
    Each offset's closed-form numerators are read at once. A mirror whose
    numerator differs, or a group not strictly above the one before, raises
    AssertionError naming n and the group's first pair, when the walk
    reaches it.
    """
    if n < 5:
        raise ValueError(f"ranking needs n >= 5, got {n}")
    return fib(2 * n - 2), _checked_walk(n)


def _checked_walk(n):
    m, last = n - 2, -inf
    for k in range(3, n):
        row = _closed_numerators(m, k, range(1, n - k + 1))  # row[j - 1] is (j, j + k)
        for j in range((n - k + 1) // 2, 0, -1):
            num, mirror = row[j - 1], (n - k + 1 - j, n + 1 - j)
            if row[mirror[0] - 1] != num or num <= last:
                raise AssertionError(
                    f"structural and value orders disagree for n={n} at {(j, j + k)}")
            last = num
            yield num, ((j, j + k),) if mirror[0] == j else ((j, j + k), mirror)


def rank_nonedges(n: int):
    """Tie groups of non-edges of the straight strip, most likely link first:
    strip_numerators' walk, run to its end, as a list of TieGroup, each
    value a reduced Fraction."""
    den, groups = strip_numerators(n)
    return [TieGroup(Fraction(num, den), pairs) for num, pairs in groups]


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
    if tie_policy not in ("lowest-index", "report-group"):
        raise ValueError(f"unknown tie_policy {tie_policy!r}")
    groups = rank_nonedges(n)
    flat = [p for g in groups for p in g.pairs]
    if count > len(flat):
        raise ValueError(f"only {len(flat)} non-edges exist for n={n}, asked for {count}")
    if tie_policy == "lowest-index":
        return flat[:count]
    out = []
    for g in groups:
        if len(out) >= count:
            break
        out.extend(g.pairs)
    return out


def rank_nonedges_graph(g: WeightedGraph):
    """Resistance ranking of non-edges of an arbitrary connected graph.

    Exact values from _pair_numerators, read from U with no solve: integers
    over the one tree minor, so ties are exact. Returns TieGroups; ties are
    grouped by equal value, ordered by (value, pair). A disconnected graph
    raises ValueError("vertices 1 and v are disconnected"), v the smallest
    vertex outside the component of 1: the first such pair in (u, v) order.
    """
    comps = _graph_facts(g)[1]
    if len(comps) > 1:  # components come in order of their smallest vertex
        raise ValueError(f"vertices 1 and {comps[1].verts[0]} are disconnected")
    edges = {(u, v) for u, v, _ in g.edges}
    ranked = sorted((num, pair) for pair, num in _pair_numerators(comps[0]) if pair not in edges)
    return [TieGroup(Fraction(num, comps[0].tree_minor), tuple(pair for _, pair in tied))
            for num, tied in groupby(ranked, key=itemgetter(0))]
