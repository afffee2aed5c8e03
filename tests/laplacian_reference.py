"""Referee Laplacians for the tests, assembled apart from the engine's.

The engine builds each component's grounded rows directly and factors
them; these helpers build the full row-scaled Laplacian of every
component straight from a graph's edges, and strike rows and columns
from it, so tests can check the engine against minors it never built.
"""

from fractions import Fraction
from math import lcm


def strike(rows, drop):
    """The dict rows with the 0-based indices in `drop` removed from both
    rows and columns, renumbering the rest; striking costs the nonzeros,
    not the square."""
    gone = set(drop)
    keep = [i for i in range(len(rows)) if i not in gone]
    col = {c: t for t, c in enumerate(keep)}
    return [{col[c]: x for c, x in rows[r].items() if c in col} for r in keep]


def scaled_laplacian_components(g):
    """Each connected component of g, ordered by its smallest vertex, as
    (verts, rows, scales): its vertices ascending, and its Laplacian as
    sparse dict rows (position -> int), row r scaled to integers by
    scales[r], the lcm of that row's denominators. An isolated vertex is
    one empty row with scale 1."""
    lap = {v: {} for v in g.vertices}
    for u, v, r in g.edges:
        c = 1 / Fraction(r)
        for a, b in ((u, v), (v, u)):
            lap[a][a] = lap[a].get(a, 0) + c
            lap[a][b] = lap[a].get(b, 0) - c
    seen = set()
    out = []
    for start in sorted(lap):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for u in lap[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        verts = tuple(sorted(comp))
        pos = {v: k for k, v in enumerate(verts)}
        scales = tuple(lcm(*(x.denominator for x in lap[v].values())) for v in verts)
        rows = [{pos[u]: int(x * s) for u, x in lap[v].items()} for v, s in zip(verts, scales)]
        out.append((verts, rows, scales))
    return out
