from fractions import Fraction
import io

import pytest

from twotree.engine import _graph_facts
from twotree.graphs import (
    WeightedGraph,
    bent_linear_2tree,
    format_resistance,
    reachable,
    read_edge_list,
    straight_linear_2tree,
    straight_linear_ktree,
    triangular_grid,
    write_edge_list,
)


def _triangles(g):
    adj = g.adjacency()
    return sum(1 for u, v in {(u, v) for u, v, _ in g.edges} for w in adj[u] & adj[v] if w > v)


# === WeightedGraph basics ===


def test_edges_are_canonicalized():
    g = WeightedGraph(3, [(3, 1, 2), (2, 1, "1/2")])
    assert g.edges == ((1, 2, Fraction(1, 2)), (1, 3, Fraction(2)))


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(3, [(1, 1, 1)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(3, [(1, 4, 1)])
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(3, [(0, 2, 1)])


def test_rejects_nonpositive_resistance():
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(2, [(1, 2, 0)])
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(2, [(1, 2, -3)])


def test_degree_and_neighbors_count_multiplicity():
    g = WeightedGraph(3, [(1, 2, 1), (1, 2, 1), (2, 3, 1)])
    assert g.degree(1) == 2
    assert g.degree(2) == 3
    assert g.adjacency()[1] == {2}
    assert g.has_edge(1, 2) and not g.has_edge(1, 3)


def test_equal_graphs_hash_alike_and_share_cached_facts():
    edges = [(1, 2, "1/2"), (2, 3, 3), (1, 3, 1)]
    g, h = WeightedGraph(3, edges), WeightedGraph(3, edges[::-1])
    assert g is not h and g == h
    assert hash(g) == hash(h) == hash((g.vertex_count, g.edges))
    _graph_facts.cache_clear()
    assert _graph_facts(g) is _graph_facts(h)
    assert _graph_facts.cache_info().misses == 1


def test_connectivity():
    assert WeightedGraph(3, [(1, 2, 1), (2, 3, 1)]).is_connected()
    assert not WeightedGraph(4, [(1, 2, 1), (3, 4, 1)]).is_connected()
    assert WeightedGraph(1, []).is_connected()


def test_reachable_skips_the_cut_vertex():
    # two triangles sharing vertex 3, plus an isolated vertex 6
    adj = WeightedGraph(6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)]).adjacency()
    assert reachable(adj, 1) == {1, 2, 3, 4, 5}
    assert reachable(adj, 1, skip=3) == {1, 2}
    assert reachable(adj, 6) == {6}
    # any vertex -> iterable-of-neighbours mapping works
    assert reachable({1: {2: "x"}, 2: {1: "x"}, 3: {}}, 2) == {1, 2}


# === Family generators ===


@pytest.mark.parametrize("n", range(3, 15))
def test_straight_shape(n):
    g = straight_linear_2tree(n)
    assert g.vertex_count == n
    assert len(g.edges) == 2 * n - 3, f"n={n} edge count"
    assert _triangles(g) == n - 2, f"n={n} triangle count"
    deg2 = tuple(v for v in g.vertices if g.degree(v) == 2)
    # the lone triangle is all degree-2; from n=4 on only the strip ends are
    assert deg2 == ((1, 2, 3) if n == 3 else (1, n)), f"n={n} degree-2 set {deg2}"


def test_straight_rejects_small_n():
    for bad in (0, 1, 2):
        with pytest.raises(ValueError):
            straight_linear_2tree(bad)


@pytest.mark.parametrize("n", range(4, 13))
def test_straight_reflection_invariance(n):
    g = straight_linear_2tree(n)
    mirrored = WeightedGraph(n, [(n - u + 1, n - v + 1, r) for u, v, r in g.edges])
    assert mirrored.edges == g.edges, f"n={n} not mirror symmetric"


def test_bent_frozen_example():
    g = bent_linear_2tree(6, 3)
    expect = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
              (1, 3), (2, 4), (3, 5), (3, 6)}
    assert {(u, v) for u, v, _ in g.edges} == expect


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (7, 4), (9, 3), (9, 6), (12, 5)])
def test_bent_shape(n, k):
    g = bent_linear_2tree(n, k)
    assert len(g.edges) == 2 * n - 3
    assert _triangles(g) == n - 2
    assert tuple(v for v in g.vertices if g.degree(v) == 2) == (1, n)
    assert g.has_edge(k, k + 3)
    assert not g.has_edge(k + 1, k + 3)


def test_bent_rejects_bad_bend():
    with pytest.raises(ValueError):
        bent_linear_2tree(6, 2)
    with pytest.raises(ValueError):
        bent_linear_2tree(6, 4)
    with pytest.raises(ValueError):
        bent_linear_2tree(5, 3)


def test_ktree_k1_is_a_path():
    g = straight_linear_ktree(5, 1)
    assert g.edges == tuple((i, i + 1, Fraction(1)) for i in range(1, 5))


def test_ktree_k2_matches_straight():
    assert straight_linear_ktree(9, 2).edges == straight_linear_2tree(9).edges


@pytest.mark.parametrize("n,k", [(5, 3), (8, 4), (7, 6)])
def test_ktree_edge_count(n, k):
    g = straight_linear_ktree(n, k)
    assert len(g.edges) == n * k - k * (k + 1) // 2


def test_ktree_validation():
    with pytest.raises(ValueError):
        straight_linear_ktree(5, 0)
    with pytest.raises(ValueError):
        straight_linear_ktree(3, 3)


def test_grid_two_rows_is_triangle():
    tg = triangular_grid(2)
    assert tg.graph.edges == straight_linear_2tree(3).edges
    assert (tg.apex, tg.bottom_left, tg.bottom_right) == (1, 2, 3)
    assert tg.cells == 1


def test_grid_five_rows_shape():
    tg = triangular_grid(5)
    g = tg.graph
    assert g.vertex_count == 15
    assert len(g.edges) == 30
    assert tg.vertex_rows == 5
    assert tg.cell_rows == 4
    assert tg.cells == 16
    assert g.degree(tg.apex) == 2
    assert g.degree(tg.bottom_left) == g.degree(tg.bottom_right) == 2
    assert tg.bottom_left == 11 and tg.bottom_right == 15
    interior = 8  # vid(4, 2): full hexagonal neighborhood
    assert g.degree(interior) == 6


def test_grid_rejects_single_row():
    with pytest.raises(ValueError):
        triangular_grid(1)


# === Laplacian and serialization ===


def test_laplacian_rows_sum_to_zero():
    # the exact Laplacian, each row scaled to integers by its own scale
    g = WeightedGraph(3, [(1, 2, "1/2"), (1, 2, 1), (2, 3, 3)])
    comp_of, comps = _graph_facts(g)
    verts, rows, scales, tree_minor = comps[0]
    assert comp_of == {1: 0, 2: 0, 3: 0} and verts == (1, 2, 3)
    for row in rows:
        assert sum(row.values()) == 0
    assert rows[0][1] == -3  # parallel conductances 2 + 1 add up
    assert Fraction(rows[1][2], scales[1]) == Fraction(-1, 3)
    assert scales == (1, 3, 3)
    # rows 2 and 3 kept: scales 3 * 3 times the tree sum 3 * 1/3
    assert tree_minor == 9


def test_format_resistance():
    assert format_resistance(Fraction(5, 8)) == "5/8"
    assert format_resistance(Fraction(4, 2)) == "2"


def test_edge_list_round_trip():
    g = WeightedGraph(4, [(1, 2, "2/3"), (2, 3, 1), (3, 4, 5), (1, 4, "7/2")])
    buf = io.StringIO()
    write_edge_list(g, buf)
    back = read_edge_list(io.StringIO(buf.getvalue()))
    assert back == g


def test_edge_list_ignores_comments_and_blanks():
    text = "vertices 3\n\n# a remark\n1 2 1\n2 3 1/2\n"
    g = read_edge_list(io.StringIO(text))
    assert g.vertex_count == 3 and len(g.edges) == 2


def test_edge_list_bad_header():
    with pytest.raises(ValueError, match="vertices N"):
        read_edge_list(io.StringIO("nodes 3\n1 2 1\n"))


def test_edge_list_bad_line_reports_number():
    with pytest.raises(ValueError, match="line 3"):
        read_edge_list(io.StringIO("vertices 3\n1 2 1\n1 2\n"))
