"""Referee Laplacians for the tests, assembled apart from the engine's.

The engine builds each component's grounded rows directly and factors
them; these helpers build the full row-scaled Laplacian of every
component straight from a graph's edges, and strike rows and columns
from it, so tests can check the engine against minors it never built.
det_ref is the dense determinant those minors are refereed by,
minor_ratio_ref the exact resistance as a ratio of two such minors, and
resistance_float_ref the float solve assembled one edge entry at a time.
"""

from fractions import Fraction
from math import inf, lcm

from twotree.engine import _check_pair
from twotree.graphs import reachable


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


def minor_ratio_ref(g, i, j):
    """Exact r(i, j) for a pair of one component: the Laplacian minor with
    i and j struck over the one with i struck, each a dense det_ref of the
    test-local assembly. The first lacks rows i and j, the second row i,
    so the ratio regains j's scale."""
    (verts, rows, scales), = (c for c in scaled_laplacian_components(g) if i in c[0])
    pi, pj = verts.index(i), verts.index(j)
    return Fraction(det_ref(strike(rows, (pi, pj))) * scales[pj], det_ref(strike(rows, (pi,))))


def resistance_float_ref(g, i, j, tol=1e-9):
    """engine.resistance_float's value, assembled entry by entry in Python:
    the component by a set walk, each edge's four Laplacian entries appended
    in the order (u,u), (v,v), (u,v), (v,u). The engine's answer must equal
    it bit for bit, and its errors by type and message."""
    import numpy as np
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    if not 0 < tol < inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_pair(g.vertex_count, i, j)
    comp = reachable(g.adjacency(), i)
    if j not in comp:
        raise ValueError(f"vertices {i} and {j} are disconnected")
    comp.discard(j)
    row_of = {v: idx for idx, v in enumerate(sorted(comp))}
    rows, cols, vals = [], [], []
    for u, v, r in g.edges:
        try:
            c = 1.0 / float(r)
        except (OverflowError, ZeroDivisionError):
            c = 0.0
        if not 0 < c < inf:
            raise ValueError(f"edge ({u},{v}): conductance is not a positive finite float")
        for a, b, x in ((u, u, c), (v, v, c), (u, v, -c), (v, u, -c)):
            if a in row_of and b in row_of:
                rows.append(row_of[a])
                cols.append(row_of[b])
                vals.append(x)
    m = len(row_of)
    reduced = csc_matrix((vals, (rows, cols)), shape=(m, m))
    rhs = np.zeros(m)
    rhs[row_of[i]] = 1.0
    try:
        x = splu(reduced).solve(rhs)
    except RuntimeError as exc:
        raise RuntimeError("float solve failed: the grounded Laplacian is singular "
                           f"in float arithmetic ({exc})") from None
    residual = float(np.linalg.norm(reduced @ x - rhs))
    if residual > tol:
        raise RuntimeError(f"residual {residual} exceeds tolerance {tol}")
    return float(x[row_of[i]])
