"""Referee Laplacians for the tests, assembled apart from the engine's.

The engine builds each component's grounded rows directly and factors
them; these helpers build the full row-scaled Laplacian of every
component straight from a graph's edges, and strike rows and columns
from it, so tests can check the engine against minors it never built.
det_ref is the dense determinant those minors are refereed by.
"""

from fractions import Fraction
from math import lcm


def det_ref(rows):
    """Bareiss with row pivoting on a dense copy of dict rows: any square
    integer matrix, with no precondition."""
    n = len(rows)
    a = [[row.get(c, 0) for c in range(n)] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        rowk = a[k]
        for r in range(k + 1, n):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, n):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
            rowr[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1] if n else 1


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
