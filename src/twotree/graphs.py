"""Weighted multigraphs and the linear 2-tree family generators.

Vertices are 1-based ints. Edges carry a positive Fraction resistance;
parallel edges are allowed and their conductances add in the Laplacian.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, TextIO


def _as_resistance(r):
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"resistance must be positive, got {r}")
    return r


@dataclass(frozen=True)
class WeightedGraph:
    vertex_count: int
    edges: tuple

    def __init__(self, vertex_count: int, edges: Iterable):
        if vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {vertex_count}")
        canon = []
        for u, v, r in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range 1..{vertex_count}")
            if u > v:
                u, v = v, u
            canon.append((u, v, _as_resistance(r)))
        canon.sort()
        edges = tuple(canon)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        # The dataclass hash of the same fields, computed once: graphs key
        # caches, and hashing every Fraction per lookup adds up.
        object.__setattr__(self, "_hash", hash((vertex_count, edges)))

    def __hash__(self):
        return self._hash

    @property
    def vertices(self):
        return range(1, self.vertex_count + 1)

    def degree(self, v) -> int:
        return sum(1 for u, w, _ in self.edges if v in (u, w))

    def has_edge(self, u, v) -> bool:
        if u > v:
            u, v = v, u
        return any((a, b) == (u, v) for a, b, _ in self.edges)

    def adjacency(self):
        """vertex -> set of neighbors (parallel edges collapse here)."""
        adj = {v: set() for v in self.vertices}
        for u, w, _ in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        return adj

    def is_connected(self) -> bool:
        return len(reachable(self.adjacency(), 1)) == self.vertex_count


def reachable(adj, start, skip=None) -> set:
    """Vertices reachable from `start` without entering `skip`.

    `adj` maps each vertex to an iterable of its neighbours, so both
    WeightedGraph.adjacency() and a vertex -> {neighbour: ...} dict work.
    """
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb != skip and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def straight_linear_2tree(n: int) -> WeightedGraph:
    """Straight linear 2-tree on n >= 3 vertices: {i,j} an edge iff 0 < |i-j| <= 2."""
    if n < 3:
        raise ValueError(f"straight linear 2-tree needs n >= 3, got {n}")
    edges = [(i, i + 1, 1) for i in range(1, n)]
    edges += [(i, i + 2, 1) for i in range(1, n - 1)]
    return WeightedGraph(n, edges)


def bent_linear_2tree(n: int, bend_k: int) -> WeightedGraph:
    """Linear 2-tree with a single bend after vertex bend_k.

    Same as the straight graph except the chord {bend_k+1, bend_k+3} is
    replaced by {bend_k, bend_k+3}, which turns the triangle strip by one
    step at that point. Needs 3 <= bend_k <= n-3.
    """
    if n < 6:
        raise ValueError(f"bent linear 2-tree needs n >= 6, got {n}")
    if not (3 <= bend_k <= n - 3):
        raise ValueError(f"bend_k must be in [3, {n - 3}], got {bend_k}")
    edges = [(i, i + 1, 1) for i in range(1, n)]
    edges += [(i, i + 2, 1) for i in range(1, n - 1) if i != bend_k + 1]
    edges.append((bend_k, bend_k + 3, 1))
    return WeightedGraph(n, edges)


def straight_linear_ktree(n: int, k: int) -> WeightedGraph:
    """Straight linear k-tree: {i,j} an edge iff 0 < |i-j| <= k. Needs n >= k+1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValueError(f"straight linear {k}-tree needs n >= {k + 1}, got {n}")
    edges = [
        (i, j, 1) for i in range(1, n) for j in range(i + 1, min(i + k, n) + 1)
    ]
    return WeightedGraph(n, edges)


@dataclass(frozen=True)
class TriangularGrid:
    graph: WeightedGraph
    apex: int
    bottom_left: int
    bottom_right: int
    vertex_rows: int
    cell_rows: int
    cells: int


def triangular_grid(rows: int) -> TriangularGrid:
    """Triangular grid with `rows` rows of vertices (rows >= 2).

    Row t holds t vertices, numbered row by row from the apex (vertex 1).
    rows of vertices = rows-1 rows of triangular cells = (rows-1)^2 cells.
    """
    if rows < 2:
        raise ValueError(f"triangular grid needs rows >= 2, got {rows}")

    def vid(t, p):
        return t * (t - 1) // 2 + p

    edges = []
    for t in range(1, rows + 1):
        for p in range(1, t):
            edges.append((vid(t, p), vid(t, p + 1), 1))
        if t < rows:
            for p in range(1, t + 1):
                edges.append((vid(t, p), vid(t + 1, p), 1))
                edges.append((vid(t, p), vid(t + 1, p + 1), 1))
    n = rows * (rows + 1) // 2
    return TriangularGrid(
        graph=WeightedGraph(n, edges),
        apex=1,
        bottom_left=vid(rows, 1),
        bottom_right=vid(rows, rows),
        vertex_rows=rows,
        cell_rows=rows - 1,
        cells=(rows - 1) ** 2,
    )


# === Edge-list text format ===
#
#   vertices N
#   u v num/den
#
# One edge per line; resistance prints as num/den, or a bare integer when
# the denominator is 1. Blank lines and lines starting with '#' are skipped.


def format_resistance(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def write_edge_list(g: WeightedGraph, out: TextIO):
    out.write(f"vertices {g.vertex_count}\n")
    for u, v, r in g.edges:
        out.write(f"{u} {v} {format_resistance(r)}\n")


def read_edge_list(inp: TextIO) -> WeightedGraph:
    header = None
    edges = []
    for lineno, raw in enumerate(inp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "vertices":
                raise ValueError(f"line {lineno}: expected 'vertices N', got {line!r}")
            header = int(parts[1])
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v resistance', got {line!r}")
        edges.append((int(parts[0]), int(parts[1]), Fraction(parts[2])))
    if header is None:
        raise ValueError("missing 'vertices N' header")
    return WeightedGraph(header, edges)
