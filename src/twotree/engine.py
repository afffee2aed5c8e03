"""Effective resistance engines: delta-wye reduction with full traces,
Laplacian-minor determinants, and spanning tree / two-forest counting.

The reduction path rewrites the circuit step by step and records every
rewrite, so a trace can be replayed mechanically and audited. The
determinant path is the independent oracle: r(i,j) equals the ratio of two
Laplacian minors. Both are exact over Fractions.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from .bareiss import det_int, strike
from .graphs import WeightedGraph, format_resistance, reachable, straight_linear_2tree

STEP_KINDS = ("series", "parallel", "delta-y", "cut-vertex", "merge-rename")


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    vertices: tuple
    consumed: tuple
    produced: tuple

    def to_dict(self):
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "consumed": [[u, v, format_resistance(r)] for u, v, r in self.consumed],
            "produced": [[u, v, format_resistance(r)] for u, v, r in self.produced],
        }


@dataclass(frozen=True)
class ReductionTrace:
    initial: WeightedGraph
    requested: tuple
    terminals: tuple
    steps: tuple
    value: Fraction

    def to_dicts(self):
        out = []
        for i, step in enumerate(self.steps, start=1):
            d = step.to_dict()
            d["step"] = i
            out.append(d)
        return out


@dataclass(frozen=True)
class ResistanceReport:
    pair: tuple
    value: object
    method: str
    trace: Optional[ReductionTrace] = None


class _Network:
    """Mutable multigraph the reduction engine rewrites in place.

    adj[u][v] is a list of parallel resistances; adj[u][v] and adj[v][u]
    are the same list object.
    """

    def __init__(self, g: WeightedGraph):
        self.adj = {v: {} for v in g.vertices}
        self.next_id = g.vertex_count + 1
        for u, v, r in g.edges:
            self.link(u, v, r)

    def link(self, u, v, r):
        lst = self.adj[u].get(v)
        if lst is None:
            lst = []
            self.adj[u][v] = lst
            self.adj[v][u] = lst
        lst.append(r)

    def unlink(self, u, v, r):
        lst = self.adj[u][v]
        lst.remove(r)
        if not lst:
            del self.adj[u][v]
            del self.adj[v][u]

    def fresh_vertex(self):
        v = self.next_id
        self.next_id += 1
        self.adj[v] = {}
        return v

    def single_edge(self, u, v):
        lst = self.adj[u].get(v)
        if lst is None:
            raise ValueError(f"no edge between {u} and {v}")
        if len(lst) != 1:
            raise ValueError(f"parallel edges between {u} and {v}; combine them first")
        return lst[0]

    def degree(self, v):
        return sum(len(lst) for lst in self.adj[v].values())

    def edge_items(self):
        out = []
        for u in self.adj:
            for v, lst in self.adj[u].items():
                if u < v:
                    out.extend((u, v, r) for r in lst)
        out.sort()
        return out

    def rename(self, old, new):
        if new in self.adj:
            raise ValueError(f"vertex {new} already present")
        nbrs = self.adj.pop(old)
        self.adj[new] = nbrs
        for nb in list(nbrs):
            self.adj[nb][new] = self.adj[nb].pop(old)


# === Rewrite steps ===


@lru_cache(maxsize=1024)
def _star(ra, rb, rc):
    # Star resistances of a triangle whose sides ra, rb, rc lie opposite
    # its vertices n1, n2, n3. A strip reduction meets few distinct side
    # triples (703 over every pair with n <= 40), so each is computed once.
    s = ra + rb + rc
    return rb * rc / s, ra * rc / s, ra * rb / s


def _delta_y(net: _Network, n1, n2, n3) -> ReductionStep:
    if len({n1, n2, n3}) != 3:
        raise ValueError(f"triangle vertices must be distinct, got ({n1},{n2},{n3})")
    for v in (n1, n2, n3):
        if v not in net.adj:
            raise ValueError(f"vertex {v} not in graph")
    ra = net.single_edge(n2, n3)
    rb = net.single_edge(n1, n3)
    rc = net.single_edge(n1, n2)
    r1, r2, r3 = _star(ra, rb, rc)
    net.unlink(n2, n3, ra)
    net.unlink(n1, n3, rb)
    net.unlink(n1, n2, rc)
    star = net.fresh_vertex()
    net.link(n1, star, r1)
    net.link(n2, star, r2)
    net.link(n3, star, r3)
    return ReductionStep(
        kind="delta-y",
        vertices=(n1, n2, n3, star),
        consumed=((min(n2, n3), max(n2, n3), ra), (min(n1, n3), max(n1, n3), rb), (min(n1, n2), max(n1, n2), rc)),
        produced=((min(n1, star), max(n1, star), r1), (min(n2, star), max(n2, star), r2), (min(n3, star), max(n3, star), r3)),
    )


def _series(net: _Network, middle) -> ReductionStep:
    if middle not in net.adj:
        raise ValueError(f"vertex {middle} not in graph")
    incident = [(nb, r) for nb, lst in net.adj[middle].items() for r in lst]
    if len(incident) != 2:
        raise ValueError(f"series elimination needs degree 2 at {middle}, got {len(incident)}")
    (a, ra), (b, rb) = incident
    if a == b:
        raise ValueError(f"edges at {middle} are parallel (both to {a}), not series")
    net.unlink(middle, a, ra)
    net.unlink(middle, b, rb)
    del net.adj[middle]
    combined = ra + rb
    if a > b:
        a, b, ra, rb = b, a, rb, ra
    net.link(a, b, combined)
    return ReductionStep(
        kind="series",
        vertices=(a, middle, b),
        consumed=((min(a, middle), max(a, middle), ra), (min(b, middle), max(b, middle), rb)),
        produced=((a, b, combined),),
    )


def _parallel(net: _Network, u, v) -> ReductionStep:
    if u > v:
        u, v = v, u
    lst = net.adj.get(u, {}).get(v)
    if lst is None or len(lst) < 2:
        raise ValueError(f"no parallel edges between {u} and {v}")
    resistances = sorted(lst)
    combined = 1 / sum(1 / r for r in resistances)
    for r in resistances:
        net.unlink(u, v, r)
    net.link(u, v, combined)
    return ReductionStep(
        kind="parallel",
        vertices=(u, v),
        consumed=tuple((u, v, r) for r in resistances),
        produced=((u, v, combined),),
    )


def _cut(net: _Network, cut_vertex, keep) -> ReductionStep:
    keep_side = reachable(net.adj, keep, skip=cut_vertex)
    removed = sorted(v for v in net.adj if v != cut_vertex and v not in keep_side)
    if not removed:
        raise ValueError(f"nothing to cut away at {cut_vertex}")
    gone = set(removed)
    consumed = []
    for u in removed:
        for v, lst in list(net.adj[u].items()):
            for r in list(lst):
                if u < v or v not in gone:
                    consumed.append((min(u, v), max(u, v), r))
                    net.unlink(u, v, r)
        del net.adj[u]
    consumed.sort()
    return ReductionStep(
        kind="cut-vertex",
        vertices=(cut_vertex, keep) + tuple(removed),
        consumed=tuple(consumed),
        produced=(),
    )


def _rename(net: _Network, old, new) -> ReductionStep:
    net.rename(old, new)
    return ReductionStep(
        kind="merge-rename", vertices=(old, new), consumed=(), produced=()
    )


def _pure(g, op, *args):
    net = _Network(g)
    step = op(net, *args)
    n = max(net.adj, default=g.vertex_count)
    out = WeightedGraph(max(n, g.vertex_count), net.edge_items())
    return out, step


def delta_y_step(g: WeightedGraph, triangle):
    """Replace the named triangle with a star on a fresh vertex.

    Returns (new graph, step record). The triangle is (n1, n2, n3) and the
    star resistances follow r1 = rb*rc/s etc. with s = ra+rb+rc, where
    ra joins n2-n3, rb joins n1-n3, rc joins n1-n2. Eliminated vertex ids
    are never reused; the star id is one past the largest id seen.
    """
    n1, n2, n3 = triangle
    return _pure(g, _delta_y, n1, n2, n3)


def series_step(g: WeightedGraph, middle):
    """Eliminate a degree-2 vertex, adding its two resistances."""
    return _pure(g, _series, middle)


def parallel_step(g: WeightedGraph, pair):
    """Combine all parallel edges between the pair into one."""
    u, v = pair
    return _pure(g, _parallel, u, v)


# === Straight-strip reduction schedule ===


@lru_cache(maxsize=8)
def _strip(n):
    # Initial strips for reduce_straight, shared by the pairs of one n.
    # Callers sweep the pairs of one n together, so a few entries suffice,
    # and a large strip reduced once is not held for long.
    return straight_linear_2tree(n)


def _sweep(net, steps, start, d, count, keep=None):
    # `count` delta-y steps walking from `start` in direction d (+1 or -1).
    # Each step works the triangle (c+2d, c+d, c); the freed middle vertex
    # c+d merges onward through its chord under the star's name. After the
    # last step, if `keep` is given, the dangling tail is cut away on the
    # far side of the star and the star folds into a single edge at `keep`.
    for t in range(count):
        c = start + d * t
        step = _delta_y(net, c + 2 * d, c + d, c)
        steps.append(step)
        star = step.vertices[3]
        if t < count - 1:
            steps.append(_series(net, c + d))
            steps.append(_rename(net, star, c + d))
        elif keep is not None:
            steps.append(_cut(net, star, keep))
            steps.append(_series(net, star))


def _cleanup(net, steps, a, b):
    # Deterministic endgame: combine parallel pairs (smallest pair first),
    # otherwise series-eliminate the smallest non-terminal degree-2 vertex,
    # until a single edge joins the terminals. Candidates live in lazily
    # validated heaps so each pass is cheap; steps only ever touch the
    # vertices they name, so pushing those keeps the heaps complete.
    import heapq

    par_heap = []
    ser_heap = []

    def consider_pair(u, v):
        if u > v:
            u, v = v, u
        if len(net.adj.get(u, {}).get(v, ())) >= 2:
            heapq.heappush(par_heap, (u, v))

    def consider_vertex(v):
        if v in net.adj and v not in (a, b) and net.degree(v) == 2:
            heapq.heappush(ser_heap, v)

    for u in net.adj:
        for v in net.adj[u]:
            if u < v:
                consider_pair(u, v)
        consider_vertex(u)

    for _ in range(8 * len(net.adj) + 64):
        if len(net.adj) == 2 and a in net.adj and b in net.adj:
            lst = net.adj[a].get(b, [])
            if len(lst) == 1:
                return
        step = None
        while par_heap:
            u, v = heapq.heappop(par_heap)
            if len(net.adj.get(u, {}).get(v, ())) >= 2:
                step = _parallel(net, u, v)
                consider_vertex(u)
                consider_vertex(v)
                break
        if step is None:
            while ser_heap:
                v = heapq.heappop(ser_heap)
                if v in net.adj and v not in (a, b) and net.degree(v) == 2:
                    nbrs = [nb for nb, lst in net.adj[v].items() for _ in lst]
                    if len(set(nbrs)) == 1:
                        step = _parallel(net, v, nbrs[0])
                        consider_vertex(v)
                        consider_vertex(nbrs[0])
                        break
                    step = _series(net, v)
                    u, w = step.produced[0][0], step.produced[0][1]
                    consider_pair(u, w)
                    consider_vertex(u)
                    consider_vertex(w)
                    break
        if step is None:
            raise AssertionError("reduction stuck: no parallel pair or series vertex")
        steps.append(step)
    raise AssertionError("reduction did not converge")


def reduce_straight(n: int, i: int, j: int) -> ResistanceReport:
    """Exact r(i, j) on the straight linear 2-tree by delta-wye reduction.

    Works the strip left of the smaller terminal, then right of the larger,
    then between them, recording every rewrite. Pairs ending at vertex n
    (other than (1, n)) reduce through the reflection v -> n-v+1, which
    leaves the edge set unchanged.
    """
    g = _strip(n)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair ({i},{j}) out of range 1..{n}")
    if i == j:
        raise ValueError("terminals must be distinct")
    a, b = min(i, j), max(i, j)
    if b == n and a > 1:
        a, b = 1, n - a + 1
    net = _Network(g)
    steps = []
    # Left of a: eliminate 1..a-1, folding into the edge {a, a+1}. Right of
    # b: eliminate b+1..n, folding into {b, b+1}. Then sweep between them.
    _sweep(net, steps, 1, 1, a - 1, keep=a)
    _sweep(net, steps, n, -1, n - 1 - b, keep=b)
    _sweep(net, steps, a, 1, (n - 3) if b == n else (b - a - 1))
    _cleanup(net, steps, a, b)
    value = net.edge_items()[0][2]
    trace = ReductionTrace(
        initial=g,
        requested=(i, j),
        terminals=(a, b),
        steps=tuple(steps),
        value=value,
    )
    return ResistanceReport(pair=(i, j), value=value, method="delta-y", trace=trace)


def replay_trace(trace: ReductionTrace) -> WeightedGraph:
    """Re-apply a trace mechanically and return the final graph.

    Raises if any step consumes an edge that is not present, so a passing
    replay certifies the trace is self-consistent from the initial graph.
    """
    net = _Network(trace.initial)
    for step in trace.steps:
        if step.kind == "merge-rename":
            old, new = step.vertices
            net.rename(old, new)
            continue
        for u, v, r in step.consumed:
            if v not in net.adj.get(u, {}) or r not in net.adj[u][v]:
                raise ValueError(f"replay: edge ({u},{v},{r}) missing at {step.kind}")
            net.unlink(u, v, r)
        if step.kind == "delta-y":
            star = step.vertices[3]
            if star in net.adj:
                raise ValueError(f"replay: star id {star} already present")
            net.adj[star] = {}
            net.next_id = max(net.next_id, star + 1)
        if step.kind == "series":
            mid = step.vertices[1]
            if net.degree(mid):
                raise ValueError(f"replay: vertex {mid} still has edges")
            del net.adj[mid]
        elif step.kind == "cut-vertex":
            for v in step.vertices[2:]:
                if net.degree(v):
                    raise ValueError(f"replay: cut vertex {v} still has edges")
                del net.adj[v]
        for u, v, r in step.produced:
            for w in (u, v):
                if w not in net.adj:
                    raise ValueError(f"replay: produced edge touches missing vertex {w}")
            net.link(u, v, r)
    edges = net.edge_items()
    n = max(net.adj)
    return WeightedGraph(n, edges)


# === Determinant oracle ===


@lru_cache(maxsize=64)
def _graph_facts(g: WeightedGraph):
    """Per-component integer Laplacian data, cached per graph.

    The one exact Laplacian assembly: conductances of parallel edges add.
    Scaling row r of the exact Laplacian by scale[r] (the lcm of that row's
    denominators) makes it integral; minor determinants divide back out by
    the kept rows' scales. Rows are sparse dicts (position -> value) for
    det_int's banded elimination; treat them as read-only. Each component's
    tree minor, det with its first vertex struck, is computed here once:
    by the matrix-tree theorem it is the product of the other rows' scales
    times the weighted spanning tree count.
    Returns (comp_of, comps) with
    comps[cid] = (verts, int_rows, scales, tree_minor).
    """
    cond = {v: {} for v in g.vertices}
    for u, v, r in g.edges:
        c = 1 / r
        cond[u][v] = cond[u].get(v, 0) + c
        cond[v][u] = cond[v].get(u, 0) + c
    comp_of = {}
    comps = []
    for start in g.vertices:
        if start in comp_of:
            continue
        cid = len(comps)
        verts = tuple(sorted(reachable(cond, start)))
        pos = {}
        for idx, v in enumerate(verts):
            comp_of[v] = cid
            pos[v] = idx
        scales = []
        int_rows = []
        for v in verts:
            entries = [(pos[v], sum(cond[v].values()))]
            entries += [(pos[nb], -c) for nb, c in cond[v].items()]
            mult = lcm(*(x.denominator for _, x in entries))
            scales.append(mult)
            int_rows.append({idx: x.numerator * (mult // x.denominator) for idx, x in entries})
        tree_minor = det_int(strike(int_rows, (0,)))
        comps.append((verts, tuple(int_rows), tuple(scales), tree_minor))
    return comp_of, tuple(comps)


def resistance_det(g: WeightedGraph, i: int, j: int) -> ResistanceReport:
    """Exact r(i, j) as a ratio of Laplacian minors.

    Numerator: Laplacian with rows/columns i and j struck, the one minor
    computed per pair. Denominator: row/column i struck (the weighted
    spanning tree sum), read from the component's cached tree minor by
    rescaling, since every such minor is the same tree sum. Vertices outside
    the component of i are ignored; a pair in different components raises.
    """
    n = g.vertex_count
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair ({i},{j}) out of range 1..{n}")
    if i == j:
        raise ValueError("terminals must be distinct")
    comp_of, comps = _graph_facts(g)
    if comp_of.get(i) != comp_of.get(j):
        raise ValueError(f"vertices {i} and {j} are disconnected")
    verts, int_rows, scales, tree_minor = comps[comp_of[i]]
    pos = {v: idx for idx, v in enumerate(verts)}
    pi, pj = pos[i], pos[j]
    num = det_int(strike(int_rows, (pi, pj)))
    # The tree minor lacks row 0, this one row pi; both equal the product
    # of all scales but the struck one times the tree sum.
    den, rem = divmod(tree_minor * scales[0], scales[pi])
    if rem:
        raise AssertionError(
            f"tree minor {tree_minor} does not rescale from row 0 to row {pi}"
        )
    if den == 0:
        raise ValueError(f"vertices {i} and {j} are disconnected")
    # num lacks rows pi and pj; den lacks row pi: the ratio regains scale[pj]
    value = Fraction(num * scales[pj], den)
    return ResistanceReport(pair=(i, j), value=value, method="determinant")


def _unit_comps(g: WeightedGraph, what):
    if any(r != 1 for _, _, r in g.edges):
        raise ValueError(f"{what} counting needs unit resistances")
    return _graph_facts(g)[1]


def spanning_tree_count(g: WeightedGraph) -> int:
    """Number of spanning trees (matrix-tree): unit resistances only."""
    comps = _unit_comps(g, "spanning tree")
    if len(comps) > 1:
        return 0
    # unit resistances leave every row scale at 1
    return comps[0][3]


def two_forest_count(g: WeightedGraph, i: int, j: int) -> int:
    """Number of spanning 2-forests separating i from j (unit resistances).

    Computed as the Laplacian minor with rows/columns i and j struck, and
    cross-checked against resistance * tree count, which must be integral.
    """
    comps = _unit_comps(g, "two-forest")
    report = resistance_det(g, i, j)
    trees = spanning_tree_count(g)
    product = report.value * trees
    if product.denominator != 1:
        raise AssertionError(
            f"resistance * tree count = {product} is not an integer"
        )
    # With a second component the whole-graph minor keeps that component's
    # singular Laplacian block, so it vanishes.
    if len(comps) > 1:
        direct = 0
    else:
        direct = det_int(strike(comps[0][1], (i - 1, j - 1)))
    if direct != product:
        raise AssertionError(
            f"minor count {direct} != resistance * trees {product}"
        )
    return direct


# === Brute force checks (small graphs only) ===


def _spans_acyclic(n, picked):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in picked:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
    return find


def brute_force_tree_enumeration(g: WeightedGraph, limit: int = 10) -> int:
    """Count spanning trees by enumerating edge subsets. Guarded by `limit`."""
    n = g.vertex_count
    if n > limit:
        raise ValueError(f"brute force limited to {limit} vertices, got {n}")
    pairs = [(u, v) for u, v, _ in g.edges]
    count = 0
    for subset in itertools.combinations(range(len(pairs)), n - 1):
        if _spans_acyclic(n, [pairs[k] for k in subset]) is not None:
            count += 1
    return count


def brute_force_two_forest_count(g: WeightedGraph, i, j, limit: int = 10) -> int:
    """Count spanning 2-forests separating i from j by enumeration."""
    n = g.vertex_count
    if n > limit:
        raise ValueError(f"brute force limited to {limit} vertices, got {n}")
    pairs = [(u, v) for u, v, _ in g.edges]
    count = 0
    for subset in itertools.combinations(range(len(pairs)), n - 2):
        find = _spans_acyclic(n, [pairs[k] for k in subset])
        if find is not None and find(i) != find(j):
            count += 1
    return count


# === Float path ===


def resistance_float(g: WeightedGraph, i: int, j: int, tol: float = 1e-9) -> ResistanceReport:
    """r(i, j) in floating point: ground j, inject unit current at i.

    The grounded Laplacian of the component of i (without j) is assembled
    once as a sparse CSC matrix and solved directly by sparse LU
    (scipy.sparse.linalg.splu). The returned value's linear-system residual
    is checked against tol.
    """
    import numpy as np
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    n = g.vertex_count
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair ({i},{j}) out of range 1..{n}")
    if i == j:
        raise ValueError("terminals must be distinct")
    comp = reachable(g.adjacency(), i)
    if j not in comp:
        raise ValueError(f"vertices {i} and {j} are disconnected")
    comp.discard(j)
    row_of = {v: idx for idx, v in enumerate(sorted(comp))}
    # Laplacian entries whose row and column are both kept; duplicates add.
    rows, cols, vals = [], [], []
    for u, v, r in g.edges:
        c = 1.0 / float(r)
        for a, b, x in ((u, u, c), (v, v, c), (u, v, -c), (v, u, -c)):
            if a in row_of and b in row_of:
                rows.append(row_of[a])
                cols.append(row_of[b])
                vals.append(x)
    m = len(row_of)
    reduced = csc_matrix((vals, (rows, cols)), shape=(m, m))
    rhs = np.zeros(m)
    rhs[row_of[i]] = 1.0
    x = splu(reduced).solve(rhs)
    residual = float(np.linalg.norm(reduced @ x - rhs))
    if residual > tol * max(1.0, float(np.linalg.norm(rhs))):
        raise RuntimeError(f"residual {residual} exceeds tolerance {tol}")
    value = float(x[row_of[i]])
    return ResistanceReport(pair=(i, j), value=value, method="float")
