"""Effective resistance engines: delta-wye reduction with full traces,
Laplacian-minor determinants, and spanning tree / two-forest counting.

The reduction path rewrites the circuit step by step and records every
rewrite, so a trace can be replayed mechanically and audited. Its network
keeps each vertex pair's parallel resistances as one tuple, held by both
ends, and logs its own steps. Each rewrite is planned as a step by a
planner that only reads the network, and carried out by _apply, the
network's one writer once built: it keeps both ends on one tuple, replay
runs it too, and it logs the step. A missing vertex or edge is refused,
as ValueError, by _Network's reads or by _apply, not by the planners. A
fork of the reduction is one copy of its network, steps included.
reduce_straight reduces one pair of a straight strip;
reduce_straight_all yields the same reports for every pair of one strip,
with one left sweep for the strip and one right sweep per left terminal,
each forked where the schedule parts. One shard of it yields those of
every parts-th left terminal, so that shards can run apart: together they
are the strip's reports. The determinant path is the independent
oracle: r(i,j) equals the ratio of two Laplacian minors. Each
component's grounded Laplacian is factored once, by a fraction-free LU
kept with the graph's facts, and every exact answer is read from that
factorization: resistance_det one pair by one forward pass,
_pair_numerators every pair of a component by the symmetric-inverse
recurrence, with no solve (read by resistance_all_pairs, ranking and
verify), and the tree and 2-forest counts by one rule, a product over
components of tree minors and that pair reading. All are exact.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from typing import NamedTuple, Optional

from .bareiss import det_int, inverse_int, lu_int, quad_int
from .graphs import WeightedGraph, format_resistance, reachable, straight_linear_2tree

STEP_KINDS = ("series", "parallel", "delta-y", "cut-vertex", "merge-rename")


class ReductionStep(NamedTuple):
    kind: str
    vertices: tuple
    consumed: tuple
    produced: tuple


class ReductionTrace(NamedTuple):
    initial: WeightedGraph
    terminals: tuple
    steps: tuple
    value: Fraction

    def to_dicts(self):
        return [
            {
                "kind": s.kind,
                "vertices": list(s.vertices),
                "consumed": [[u, v, format_resistance(r)] for u, v, r in s.consumed],
                "produced": [[u, v, format_resistance(r)] for u, v, r in s.produced],
                "step": i,
            }
            for i, s in enumerate(self.steps, start=1)
        ]


class ResistanceReport(NamedTuple):
    pair: tuple
    value: object
    method: str
    trace: Optional[ReductionTrace] = None


class _Network:
    """Mutable multigraph the reduction engine rewrites in place, with the
    steps that rewrote it.

    adj[u][v] is the tuple of parallel resistances between u and v, in the
    order they were linked; _apply puts each new tuple at both ends.
    next_id is one past the largest id seen, the id the next delta-y star
    takes. steps lists the steps _apply carried out since the network was
    built. Only _apply rewrites a network.

    The planners read single_edge, the one edge between u and v, and
    keep_side, the vertices keep reaches without entering cut_vertex (one
    graphs.reachable); each refuses a missing edge or vertex with ValueError.
    """

    def __init__(self, g: WeightedGraph):
        self.adj = adj = {v: {} for v in g.vertices}
        self.next_id = g.vertex_count + 1
        self.steps = []
        for u, v, r in g.edges:  # WeightedGraph has refused loops and missing ends
            adj[u][v] = adj[v][u] = adj[u].get(v, ()) + (r,)

    def copy(self):
        """An independent network with the same edges, next_id and steps."""
        twin = _Network.__new__(_Network)
        twin.adj = {u: nbrs.copy() for u, nbrs in self.adj.items()}
        twin.next_id = self.next_id
        twin.steps = self.steps.copy()
        return twin

    def single_edge(self, u, v):
        try:
            (r,) = self.adj[u][v]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None
        except ValueError:
            raise ValueError(f"parallel edges between {u} and {v}; combine them first") from None
        return r

    def keep_side(self, cut_vertex, keep):
        for v in (cut_vertex, keep):
            if v not in self.adj:
                raise ValueError(f"vertex {v} not in graph")
        return reachable(self.adj, keep, skip=cut_vertex)

    def edge_items(self):
        out = []
        for u in self.adj:
            for v, rs in self.adj[u].items():
                if u < v:
                    out.extend((u, v, r) for r in rs)
        out.sort()
        return out


def _apply(net: _Network, step: ReductionStep):
    """Apply one step: the only code that rewrites a network, in the
    reduction and in replay alike. A merge-rename renames its vertex; then
    each consumed edge is unlinked, a delta-y adds its star, a series or
    cut-vertex step drops the vertices it frees (which must have no edges
    left), and each produced edge is linked; the step is then logged in
    net.steps. A step that does not apply raises ValueError and is not
    logged."""
    kind, vertices, consumed, produced = step
    adj = net.adj
    if kind == "merge-rename":
        old, new = vertices
        if new in adj:
            raise ValueError(f"vertex {new} already present")
        nbrs = adj.pop(old, None)
        if nbrs is None:
            raise ValueError(f"vertex {old} not in graph")
        adj[new] = nbrs
        for nb in nbrs:
            adj[nb][new] = adj[nb].pop(old)
    elif kind not in STEP_KINDS:
        raise ValueError(f"unknown step kind {kind!r}")
    for u, v, r in consumed:
        try:
            nbrs_u = adj[u]
            rs = nbrs_u[v]
            k = rs.index(r)
        except (KeyError, ValueError):
            raise ValueError(f"edge ({u},{v},{r}) not present") from None
        if len(rs) > 1:
            nbrs_u[v] = adj[v][u] = rs[:k] + rs[k + 1:]
        else:
            del nbrs_u[v], adj[v][u]
    if kind == "delta-y":
        _, _, _, star = vertices
        if star in adj:
            raise ValueError(f"star id {star} already present")
        adj[star] = {}
        if star >= net.next_id:
            net.next_id = star + 1
    elif kind == "series":
        _, middle, _ = vertices
        _drop(adj, middle)
    elif kind == "cut-vertex":
        for v in vertices[2:]:
            _drop(adj, v)
    for u, v, r in produced:
        try:
            nbrs_u, nbrs_v = adj[u], adj[v]
        except KeyError as exc:
            raise ValueError(f"edge ({u},{v}) touches missing vertex {exc.args[0]}") from None
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nbrs_u[v] = nbrs_v[u] = nbrs_u.get(v, ()) + (r,)
    net.steps.append(step)


def _drop(adj, v):
    nbrs = adj.pop(v, None)
    if nbrs is None:
        raise ValueError(f"vertex {v} not in graph")
    if nbrs:
        raise ValueError(f"vertex {v} still has edges")


def _check_pair(n, i, j):
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair ({i},{j}) out of range 1..{n}")
    if i == j:
        raise ValueError("terminals must be distinct")


# === Rewrite steps ===
#
# The four rewrite ops only read the network: each plans one rewrite and
# returns its step, which _apply then carries out. The steps a strip
# reduction makes most (delta-y, series, merge-rename) are built by
# tuple.__new__, which skips the named tuple's generated __new__.


@lru_cache(maxsize=1024)
def _star(an, ad, bn, bd, cn, cd):
    # Star resistances of a triangle whose sides an/ad, bn/bd, cn/cd lie
    # opposite its vertices n1, n2, n3. A strip reduction meets few distinct
    # side triples (703 over every pair with n <= 40), so each is computed
    # once. The key is the sides' integers: hashing a Fraction costs a
    # modular inverse per lookup.
    ra, rb, rc = Fraction(an, ad), Fraction(bn, bd), Fraction(cn, cd)
    s = ra + rb + rc
    return rb * rc / s, ra * rc / s, ra * rb / s


def _delta_y(net: _Network, n1, n2, n3) -> ReductionStep:
    ra = net.single_edge(n2, n3)
    rb = net.single_edge(n1, n3)
    rc = net.single_edge(n1, n2)
    r1, r2, r3 = _star(ra.numerator, ra.denominator, rb.numerator, rb.denominator,
                       rc.numerator, rc.denominator)
    star = net.next_id
    return tuple.__new__(ReductionStep, (
        "delta-y",
        (n1, n2, n3, star),
        ((n2, n3, ra) if n2 < n3 else (n3, n2, ra),
         (n1, n3, rb) if n1 < n3 else (n3, n1, rb),
         (n1, n2, rc) if n1 < n2 else (n2, n1, rc)),
        ((n1, star, r1), (n2, star, r2), (n3, star, r3)),
    ))


def _series(net: _Network, middle) -> ReductionStep:
    nbrs = net.adj.get(middle, {})
    try:
        (a, (ra,)), (b, (rb,)) = nbrs.items()
    except ValueError:
        # Not two neighbours with one edge each: too few or too many
        # incident edges, or two that are parallel.
        incident = [nb for nb, rs in nbrs.items() for _ in rs]
        if len(incident) != 2:
            raise ValueError(
                f"series elimination needs degree 2 at {middle}, got {len(incident)}") from None
        raise ValueError(
            f"edges at {middle} are parallel (both to {incident[0]}), not series") from None
    if a > b:
        a, b, ra, rb = b, a, rb, ra
    xn, xd, yn, yd = ra.numerator, ra.denominator, rb.numerator, rb.denominator
    return tuple.__new__(ReductionStep, (
        "series",
        (a, middle, b),
        ((a, middle, ra) if a < middle else (middle, a, ra),
         (b, middle, rb) if b < middle else (middle, b, rb)),
        ((a, b, Fraction(xn * yd + yn * xd, xd * yd)),),
    ))


def _parallel(net: _Network, u, v) -> ReductionStep:
    if u > v:
        u, v = v, u
    rs = net.adj.get(u, {}).get(v, ())
    if len(rs) < 2:
        raise ValueError(f"no parallel edges between {u} and {v}")
    resistances = sorted(rs)
    # 1 / sum(1 / r) as one integer fold, p/q || a/b = pa / (pb + qa), from
    # p/q = 1/0, an open circuit
    p, q = 1, 0
    for r in resistances:
        a, b = r.numerator, r.denominator
        p, q = p * a, p * b + q * a
    return ReductionStep(
        kind="parallel",
        vertices=(u, v),
        consumed=tuple((u, v, r) for r in resistances),
        produced=((u, v, Fraction(p, q)),),
    )


def _cut(net: _Network, cut_vertex, keep) -> ReductionStep:
    # Every vertex off keep's side but the cut vertex goes, even in a part
    # not joined to it. A removed vertex has only removed neighbours and the
    # cut vertex: each edge is taken once, from its smaller or removed end.
    keep_side = net.keep_side(cut_vertex, keep)
    removed = sorted(v for v in net.adj if v != cut_vertex and v not in keep_side)
    if not removed:
        raise ValueError(f"nothing to cut away at {cut_vertex}")
    return ReductionStep(
        kind="cut-vertex",
        vertices=(cut_vertex, keep) + tuple(removed),
        consumed=tuple(sorted([
            (u, v, r) if u < v else (v, u, r)
            for u in removed for v, rs in net.adj[u].items() for r in rs
            if u < v or v == cut_vertex
        ])),
        produced=(),
    )


# === Straight-strip reduction schedule ===


def _sweep(net, start, d, t0, t1):
    # Delta-y steps t0..t1-1 of the sweep walking from `start` in direction
    # d (+1 or -1): step t works the triangle (c+2d, c+d, c), c = start + d*t.
    # Before it, the middle vertex step t-1 freed merges onward through its
    # chord under that step's star's name, net.next_id - 1: each delta-y
    # sets next_id to its star + 1, and nothing between two steps changes it.
    for t in range(t0, t1):
        c = start + d * t
        if t:
            _apply(net, _series(net, c))
            _apply(net, tuple.__new__(ReductionStep, ("merge-rename", (net.next_id - 1, c), (), ())))
        _apply(net, _delta_y(net, c + 2 * d, c + d, c))


def _fold(net, keep):
    # Cut away the dangling tail on the far side of the last sweep's star
    # and fold the star into a single edge at `keep`.
    star = net.next_id - 1
    _apply(net, _cut(net, star, keep))
    _apply(net, _series(net, star))


def _cleanup(net, a, b):
    # The endgame the sweeps leave behind: series-eliminate every
    # non-terminal vertex in ascending id order (the last star has the
    # largest id, so it goes last), combining each new edge with its
    # partner whenever it has one, until one edge joins the terminals.
    for v in sorted(net.adj):
        if v in (a, b):
            continue
        try:
            step = _series(net, v)
        except ValueError as exc:
            raise AssertionError(f"reduction stuck: {exc}") from None
        _apply(net, step)
        u, _, w = step.vertices
        if len(net.adj[u][w]) > 1:
            _apply(net, _parallel(net, u, w))
    if len(net.adj) != 2 or len(net.adj[a].get(b, ())) != 1:
        raise AssertionError("reduction did not converge to one edge between the terminals")


def _reduce_from(net, n, a, bs):
    # The reduction schedule of the n-strip for terminals a < b, for each b
    # of bs in descending order (b = n only with a = 1): yields (b, steps,
    # value). net is the strip after the left sweep, a - 1 triangles from
    # vertex 1, and is rewritten: left of a, it folds into the edge
    # {a, a+1}. Right of b: eliminate b+1..n in n-1-b triangles (none for
    # b = n), folding into {b, b+1}; the sweep for b is the one for b+1 run
    # one triangle further, so one running sweep serves every b. Each b
    # then finishes on a copy of the network, which carries the steps so
    # far: the right fold, the sweep between the terminals and the endgame.
    if a > 1:
        _fold(net, a)
    swept = 0
    for b in bs:
        _sweep(net, n, -1, swept, swept := max(n - 1 - b, 0))
        fork = net.copy()
        if swept:
            _fold(fork, b)
        _sweep(fork, a, 1, 0, min(b - a - 1, n - 3))
        _cleanup(fork, a, b)
        yield b, tuple(fork.steps), fork.adj[a][b][0]


def _report(g, pair, terminals, steps, value):
    trace = ReductionTrace(g, terminals, steps, value)
    return ResistanceReport(pair=pair, value=value, method="delta-y", trace=trace)


def reduce_straight(n: int, i: int, j: int) -> ResistanceReport:
    """Exact r(i, j) on the straight linear 2-tree by delta-wye reduction.

    Works the strip left of the smaller terminal, then right of the larger,
    then between them, recording every rewrite. The endgame then
    series-eliminates the remaining non-terminals in ascending id order,
    with one parallel step where a series edge meets its partner, down to
    a single edge between the terminals. Pairs ending at vertex n
    (other than (1, n)) reduce through the reflection v -> n-v+1, which
    leaves the edge set unchanged.
    """
    g = straight_linear_2tree(n)
    _check_pair(n, i, j)
    a, b = min(i, j), max(i, j)
    if b == n and a > 1:
        a, b = 1, n - a + 1
    net = _Network(g)
    _sweep(net, 1, 1, 0, a - 1)
    (_, steps, value), = _reduce_from(net, n, a, (b,))
    return _report(g, (i, j), (a, b), steps, value)


def reduce_straight_all(n: int, part: int = 0, parts: int = 1):
    """Yield reduce_straight(n, i, j) for every pair i < j of the n-strip,
    each once: the same reports, traces included.

    The work is shared within the call, and nothing is kept after it: one
    left sweep serves every i, one triangle further per i, each i working
    on a copy of it, and per i one running right sweep serves every j
    from n down. The pairs come in that order, i ascending and j
    descending, except that each pair (i, n) with i > 1 comes right after
    its reflection (1, n-i+1), whose steps it takes.

    Shard `part` of `parts` (0 <= part < parts) yields only the reports of
    the left terminals a with (a - 1) % parts == part, in the same order,
    the reflected pairs (i, n) with a = 1; its left sweep stops at its last
    a. The shards of one strip partition the reports of the whole.
    """
    if not 0 <= part < parts:
        raise ValueError(f"part {part} out of range for {parts} parts")
    g = straight_linear_2tree(n)
    left = _Network(g)
    swept = 0
    for a in range(1 + part, n - 1, parts):
        _sweep(left, 1, 1, swept, swept := a - 1)
        for b, steps, value in _reduce_from(left.copy(), n, a,
                                            range(n if a == 1 else n - 1, a, -1)):
            yield _report(g, (a, b), (a, b), steps, value)
            if a == 1 and b < n:
                yield _report(g, (n - b + 1, n), (1, b), steps, value)


def replay_trace(trace: ReductionTrace) -> WeightedGraph:
    """Re-apply a trace mechanically and return the final graph.

    Each step goes through _apply, the same code the reduction rewrites its
    network with, so any step that does not apply raises ValueError, and a
    passing replay certifies the trace is self-consistent from the initial
    graph.
    """
    net = _Network(trace.initial)
    for step in trace.steps:
        _apply(net, step)
    return WeightedGraph(max(net.adj), net.edge_items())


# === Determinant oracle ===


class _Component(NamedTuple):
    """A component's facts: row k of its grounded Laplacian is verts[k + 1]'s,
    scaled by scales[k]; lu is their U and tree_minor is det_int(lu)."""

    verts: tuple
    scales: tuple
    lu: tuple
    tree_minor: int


@lru_cache(maxsize=64)
def _graph_facts(g: WeightedGraph):
    """Each component's factored grounded Laplacian, cached per graph.

    The one exact Laplacian assembly, in plain integers: a resistance
    object is read once per run of edges sharing it, as its conductance
    p / q = (r.denominator, r.numerator), already reduced, and parallel
    edges' conductances add. Each component's first vertex is grounded:
    the other vertices' rows, built without its column, form the grounded
    Laplacian L0. The lcm of a row's q (1 when every q is) scales it to
    integers, -p * (scale // q) off the diagonal and their negated sum on
    it, giving M = diag(scales) L0, which lu_int factors once,
    given the scales, into its fraction-free U: every exact answer of the
    component is read from U. Its last pivot det(M) is the tree minor: by
    the matrix-tree theorem, the product of the scales times the weighted
    spanning tree count. U holds O(n * bw) integers per component.
    Returns (comp_of, comps): a _Component per component, and each
    vertex's index into comps.
    """
    cond, last = {v: {} for v in g.vertices}, None
    for u, v, r in g.edges:
        if r is not last:
            last, c = r, (r.denominator, r.numerator)
        nu = cond[u]
        if v in nu:  # a parallel edge, which is rare: add as Fractions
            s = Fraction(*nu[v]) + Fraction(*c)
            nu[v] = cond[v][u] = s.numerator, s.denominator
        else:
            nu[v] = cond[v][u] = c
    comp_of = {}
    comps = []
    for start in g.vertices:
        if start in comp_of:
            continue
        verts = tuple(sorted(reachable(cond, start)))
        comp_of.update(dict.fromkeys(verts, len(comps)))
        row_of = dict(zip(verts, range(-1, len(verts) - 1)))  # the ground's column is -1
        scales, rows = [], []
        for v in verts[1:]:
            nbrs = cond[v]
            scale = 1
            for _, q in nbrs.values():
                if scale % q:
                    scale = lcm(scale, q)
            row = {row_of[nb]: -p * (scale // q) for nb, (p, q) in nbrs.items()}
            row[row_of[v]] = -sum(row.values())
            row.pop(-1, None)  # the ground has no column
            scales.append(scale)
            rows.append(row)
        lu = lu_int(rows, scales)
        comps.append(_Component(verts, tuple(scales), lu, det_int(lu)))
    return comp_of, tuple(comps)


def _forest_minor(comp: _Component, i, j) -> int:
    """det(M) r(i, j) = c^T adj(M) diag(scales) c, read by quad_int in one
    forward pass over U, for c = e_i - e_j over the pair's rows (the grounded
    vertex has none): L0^-1 = adj(M) diag(scales) / det(M), M = diag(scales) L0."""
    ki, kj = bisect_left(comp.verts, i) - 1, bisect_left(comp.verts, j) - 1
    return quad_int(comp.lu, comp.scales, {k: s for k, s in ((ki, 1), (kj, -1)) if k >= 0})


def resistance_det(g: WeightedGraph, i: int, j: int) -> ResistanceReport:
    """Exact r(i, j) from the component's factored grounded Laplacian:
    _forest_minor's pair reading over det(M), the ratio of the Laplacian
    minor with i and j struck to the tree minor, with no elimination.
    Vertices outside the component of i are ignored; a pair in different
    components raises.
    """
    _check_pair(g.vertex_count, i, j)
    comp_of, comps = _graph_facts(g)
    if comp_of.get(i) != comp_of.get(j):
        raise ValueError(f"vertices {i} and {j} are disconnected")
    comp = comps[comp_of[i]]
    value = Fraction(_forest_minor(comp, i, j), comp.tree_minor)
    return ResistanceReport(pair=(i, j), value=value, method="determinant")


def _pair_numerators(comp: _Component):
    """Yield ((u, v), det(M) r(u, v)) for every pair u < v of the component,
    in (u, v) order: integers over the one denominator det(M), read by
    resistance_all_pairs, rank_nonedges_graph and verify's two gate legs.

    Grounding the component's first vertex leaves the grounded Laplacian
    L0, whose rows scaled to integers form M = diag(scales) L0, factored
    once by _graph_facts. Then X = L0^-1 = adj(M) diag(scales) / det(M),
    and r(u, v) = X_uu + X_vv - 2 X_uv with X zero at the grounded vertex.
    inverse_int reads det(M) X on and above the diagonal from U by the
    symmetric-inverse recurrence, with no solve: O(n^2 * bw) work per
    component, on demand: X is not cached."""
    verts = comp.verts
    # cols[p][q - p] = det X_pq, q >= p, of verts[p] and verts[q]: 0 at verts[0]
    cols = [[0] * len(verts)] + inverse_int(comp.lu, comp.scales)
    for p, u in enumerate(verts):
        col = cols[p]
        for q in range(p + 1, len(verts)):
            yield (u, verts[q]), col[0] + cols[q][0] - 2 * col[q - p]


def resistance_all_pairs(g: WeightedGraph) -> dict:
    """Exact r(i, j) for every pair i < j within each component, as a dict
    (i, j) -> Fraction: _pair_numerators' integers over each component's
    tree minor, component by component. Pairs across components are absent."""
    return {pair: Fraction(num, comp.tree_minor)
            for comp in _graph_facts(g)[1] for pair, num in _pair_numerators(comp)}


def _struck_minor(g: WeightedGraph, struck, what) -> int:
    """The Laplacian minor with the struck vertices removed, for unit
    resistances: a product over the components in order (matrix-tree
    theorem), 0 at the first holding no struck vertex (a singular block),
    the tree minor for one holding one and _forest_minor's pair reading
    for one holding two. Every scale is 1: det(M) is the tree count and
    the pair reading the 2-forest count. A resistance object shared by a
    run of edges is compared with 1 once."""
    last = None
    for _, _, r in g.edges:
        if r is not last and r != 1:
            raise ValueError(f"{what} counting needs unit resistances")
        last = r
    if len(struck) == 2:
        _check_pair(g.vertex_count, *struck)
    comp_of, comps = _graph_facts(g)
    count = 1
    for k, comp in enumerate(comps):
        held = [v for v in struck if comp_of[v] == k]
        if not held:
            return 0
        count *= _forest_minor(comp, *held) if len(held) == 2 else comp.tree_minor
    return count


def spanning_tree_count(g: WeightedGraph) -> int:
    """Number of spanning trees (matrix-tree): unit resistances only."""
    return _struck_minor(g, (1,), "spanning tree")


def two_forest_count(g: WeightedGraph, i: int, j: int) -> int:
    """Number of spanning 2-forests separating i from j (unit resistances):
    the Laplacian minor with i and j struck."""
    return _struck_minor(g, (i, j), "two-forest")


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


def _acyclic_subsets(g: WeightedGraph, c: int):
    # The union-find of each acyclic subset of n - c edges, which leaves c
    # components: spanning trees for c = 1, spanning 2-forests for c = 2.
    n = g.vertex_count
    if n > 10:
        raise ValueError(f"brute force limited to 10 vertices, got {n}")
    pairs = [(u, v) for u, v, _ in g.edges]
    for subset in itertools.combinations(pairs, n - c):
        find = _spans_acyclic(n, subset)
        if find is not None:
            yield find


def brute_force_tree_enumeration(g: WeightedGraph) -> int:
    """Count spanning trees by enumerating edge subsets (n <= 10)."""
    return sum(1 for _ in _acyclic_subsets(g, 1))


def brute_force_two_forest_counts(g: WeightedGraph) -> dict:
    """Count, for every pair i < j, the spanning 2-forests separating i
    from j, by one enumeration of edge subsets (n <= 10): a dict
    (i, j) -> count, every pair present."""
    vertices = range(g.vertex_count + 1)
    counts = dict.fromkeys(itertools.combinations(vertices[1:], 2), 0)
    for find in _acyclic_subsets(g, 2):
        root = list(map(find, vertices))  # each vertex's root, read once per forest
        for i, j in counts:
            counts[i, j] += root[i] != root[j]
    return counts


# === Float path ===


def resistance_float(g: WeightedGraph, i: int, j: int, tol: float = 1e-9) -> ResistanceReport:
    """r(i, j) in floating point: ground j, inject unit current at i.

    One Python pass over the edges takes each conductance as 1.0 / float(r),
    once per run of edges sharing one resistance object; the rest is array
    work. The component of i comes from a breadth-first search on the edge
    endpoints (scipy.sparse.csgraph), and the grounded Laplacian of that
    component (without j) is assembled once as a sparse CSC matrix and
    solved directly by sparse LU (scipy.sparse.linalg.splu).
    A grounded Laplacian that is singular in float arithmetic raises
    RuntimeError, and so does a linear-system residual above tol, which
    must be positive and finite. Every edge's conductance must be a
    positive finite float; a disconnected pair is reported first.
    """
    import numpy as np
    from scipy.sparse import csc_matrix, csr_matrix
    from scipy.sparse.csgraph import breadth_first_order
    from scipy.sparse.linalg import splu

    if not 0 < tol < inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = g.vertex_count
    _check_pair(n, i, j)
    us, vs, rs = zip(*g.edges) if g.edges else ((), (), ())
    conductance, last = [], None
    for r in rs:
        if r is not last:
            try:
                last, c = r, 1.0 / float(r)
            except (OverflowError, ZeroDivisionError):
                c = 0.0
        conductance.append(c)
    c = np.array(conductance)
    ends = np.array((us, vs), dtype=np.intp) - 1
    links = csr_matrix((np.ones(len(c)), (ends[0], ends[1])), shape=(n, n))
    comp = breadth_first_order(links, i - 1, directed=False, return_predecessors=False)
    if not (comp == j - 1).any():
        raise ValueError(f"vertices {i} and {j} are disconnected")
    bad = np.flatnonzero(~((0 < c) & (c < inf)))
    if len(bad):
        k = bad[0]
        raise ValueError(f"edge ({us[k]},{vs[k]}): conductance is not a positive finite float")
    kept = np.sort(comp[comp != j - 1])
    row_of = np.full(n, -1)
    row_of[kept] = np.arange(len(kept))
    # Laplacian entries (u,u), (v,v), (u,v), (v,u) edge by edge, those whose
    # row and column are both kept; duplicates add in that order.
    ru, rv = row_of[ends]
    rows = np.stack((ru, rv, ru, rv), axis=1).ravel()
    cols = np.stack((ru, rv, rv, ru), axis=1).ravel()
    vals = np.stack((c, c, -c, -c), axis=1).ravel()
    both = (rows >= 0) & (cols >= 0)
    m = len(kept)
    reduced = csc_matrix((vals[both], (rows[both], cols[both])), shape=(m, m))
    rhs = np.zeros(m)
    rhs[row_of[i - 1]] = 1.0
    try:
        x = splu(reduced).solve(rhs)
    except RuntimeError as exc:  # splu's "Factor is exactly singular"
        raise RuntimeError("float solve failed: the grounded Laplacian is singular "
                           f"in float arithmetic ({exc})") from None
    # rhs = e_i has norm 1, so the residual is relative as it stands
    residual = float(np.linalg.norm(reduced @ x - rhs))
    if residual > tol:
        raise RuntimeError(f"residual {residual} exceeds tolerance {tol}")
    value = float(x[row_of[i - 1]])
    return ResistanceReport(pair=(i, j), value=value, method="float")
