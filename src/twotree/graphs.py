"""Weighted multigraphs and the linear 2-tree family generators.

Vertices are 1-based ints. Edges carry a positive Fraction resistance;
parallel edges are allowed and their conductances add in the Laplacian.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, TextIO


def _too_long(token, limit):
    # Whether Fraction(token) would read or build a numerator or denominator
    # of more than `limit` digits, decided before it does either. int()
    # refuses to read more digits than that, but not the power of ten an
    # exponent multiplies them by, as in 1e5000.
    def digits(part):
        return sum(c.isdigit() for c in part)

    num, slash, den = token.partition("/")
    if slash:
        return max(digits(num), digits(den)) > limit
    mantissa, _, exp = token.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    if max(digits(whole), digits(frac), digits(exp)) > limit:
        return True
    try:
        exp = int(exp or 0)
    except ValueError:
        return False  # not a number: Fraction says so
    written = "".join(c for c in whole + frac if c.isdigit()).lstrip("0")
    num = max(len(written), 1) + max(exp, 0)
    den = 1 + digits(frac) + max(-exp, 0)
    return max(num, den) > limit


def _clip(x):
    # x as an error message echoes it: a string quoted, anything cut at 20
    # characters, so that no input, however long, makes a long message.
    text = x if isinstance(x, str) else str(x)
    shown = repr(text[:20]) if isinstance(x, str) else text[:20]
    return shown + "..." * (len(text) > 20)


def _as_resistance(r):
    if isinstance(r, str):
        limit = sys.get_int_max_str_digits()
        if limit and _too_long(r, limit):
            raise ValueError(f"resistance {_clip(r)} needs more than {limit} digits")
    if type(r) is not Fraction:  # Fractions are immutable: a plain one is kept, not copied
        try:
            r = Fraction(r)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"resistance must be a positive rational, got {_clip(r)}") from None
    if r.numerator <= 0:  # a Fraction keeps its sign in its numerator
        raise ValueError(f"resistance must be positive, got {_clip(r)}")
    return r


def _as_int(token, field):
    # int(token), or a ValueError that names the field and clips the token:
    # int() itself would echo up to 200 characters of it.
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{field} must be an integer, got {_clip(token)}") from None


def _edge(vertex_count, u, v, r):
    # One edge in canonical form (u < v), checked against the vertex range.
    if u == v:
        raise ValueError(f"self-loop at vertex {_clip(u)}")
    if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
        raise ValueError(f"edge ({_clip(u)},{_clip(v)}) out of range 1..{vertex_count}")
    return (u, v, _as_resistance(r)) if u < v else (v, u, _as_resistance(r))


@dataclass(frozen=True)
class WeightedGraph:
    vertex_count: int
    edges: tuple

    def __init__(self, vertex_count: int, edges: Iterable):
        if vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {vertex_count}")
        edges = tuple(sorted(_edge(vertex_count, *e) for e in edges))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    def __hash__(self):
        # The dataclass hash of the same fields, computed on first use and
        # kept: graphs key caches, and hashing every Fraction per lookup adds
        # up, while a graph that keys no cache never hashes them at all.
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.vertex_count, self.edges)))
        return self._hash

    @property
    def vertices(self):
        return range(1, self.vertex_count + 1)

    def adjacency(self):
        """vertex -> set of neighbors (parallel edges collapse here)."""
        adj = {v: set() for v in self.vertices}
        for u, w, _ in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        return adj


def reachable(adj, start, skip=None) -> set:
    """Vertices reachable from `start` without entering `skip`.

    `adj` maps each vertex to an iterable of its neighbours, such as the
    reduction network's or _graph_facts' vertex -> {neighbour: ...} dict.
    """
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb != skip and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


# The one unit resistance every generated edge carries: a Fraction per edge
# would be as many objects for the allocator and the cyclic GC to walk.
_UNIT = Fraction(1)


def _band(n, k):
    # The unit edges {i, j}, 0 < j - i <= k, on vertices 1..n.
    return [(i, j, _UNIT) for i in range(1, n) for j in range(i + 1, min(i + k, n) + 1)]


def straight_linear_2tree(n: int) -> WeightedGraph:
    """Straight linear 2-tree on n >= 3 vertices: {i,j} an edge iff 0 < |i-j| <= 2."""
    if n < 3:
        raise ValueError(f"straight linear 2-tree needs n >= 3, got {n}")
    return WeightedGraph(n, _band(n, 2))


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
    edges = [e for e in _band(n, 2) if e != (bend_k + 1, bend_k + 3, 1)]
    edges.append((bend_k, bend_k + 3, _UNIT))
    return WeightedGraph(n, edges)


def straight_linear_ktree(n: int, k: int) -> WeightedGraph:
    """Straight linear k-tree: {i,j} an edge iff 0 < |i-j| <= k. Needs n >= k+1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValueError(f"straight linear {k}-tree needs n >= {k + 1}, got {n}")
    return WeightedGraph(n, _band(n, k))


class TriangularGrid(NamedTuple):
    graph: WeightedGraph
    apex: int
    bottom_left: int
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
            edges.append((vid(t, p), vid(t, p + 1), _UNIT))
        if t < rows:
            for p in range(1, t + 1):
                edges.append((vid(t, p), vid(t + 1, p), _UNIT))
                edges.append((vid(t, p), vid(t + 1, p + 1), _UNIT))
    n = rows * (rows + 1) // 2
    return TriangularGrid(
        graph=WeightedGraph(n, edges),
        apex=1,
        bottom_left=vid(rows, 1),
        cell_rows=rows - 1,
        cells=(rows - 1) ** 2,
    )


# === Edge-list text format ===
#
#   vertices N
#   u v num/den
#
# One edge per line; resistance prints as num/den, or a bare integer when
# the denominator is 1. Blank lines and lines starting with '#' are skipped;
# only those are comments, and a '#' after an edge makes its line an error.


def format_resistance(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def write_edge_list(g: WeightedGraph, out: TextIO):
    out.write(f"vertices {g.vertex_count}\n")
    for u, v, r in g.edges:
        out.write(f"{u} {v} {format_resistance(r)}\n")


def read_edge_list(inp: TextIO) -> WeightedGraph:
    lineno = 0

    def items():  # the vertex count, then (u, v, token) per edge line
        nonlocal lineno
        header = None
        for lineno, raw in enumerate(inp, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2 or parts[0] != "vertices":
                    raise ValueError(f"expected 'vertices N', got {_clip(line)}")
                header = _as_int(parts[1], "vertex count")
                if header < 1:
                    raise ValueError(f"vertex count must be >= 1, got {_clip(header)}")
                yield header
            elif len(parts) != 3:
                raise ValueError(f"expected 'u v resistance', got {_clip(line)}")
            else:
                yield _as_int(parts[0], "vertex"), _as_int(parts[1], "vertex"), parts[2]

    lines = items()
    try:
        # WeightedGraph checks each edge as items() yields it, so an error it
        # raises, like one of items(), belongs to the line read last.
        return WeightedGraph(next(lines), lines)
    except StopIteration:
        raise ValueError("missing 'vertices N' header") from None
    except UnicodeDecodeError:
        raise  # decoding the file failed, not a line of it
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
