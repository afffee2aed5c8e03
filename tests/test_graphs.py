from fractions import Fraction
import io
import sys

import pytest

from twotree.bareiss import det_int, lu_int
from twotree.engine import _graph_facts
from twotree.graphs import (
    WeightedGraph,
    _as_resistance,
    bent_linear_2tree,
    format_resistance,
    reachable,
    read_edge_list,
    straight_linear_2tree,
    straight_linear_ktree,
    triangular_grid,
    write_edge_list,
)

from laplacian_reference import scaled_laplacian_components, strike


def _triangles(g):
    adj = g.adjacency()
    return sum(1 for u, v in {(u, v) for u, v, _ in g.edges} for w in adj[u] & adj[v] if w > v)


# === WeightedGraph basics ===


def test_edges_are_canonicalized():
    g = WeightedGraph(3, [(3, 1, 2), (2, 1, "1/2")])
    assert g.edges == ((1, 2, Fraction(1, 2)), (1, 3, Fraction(2)))


def test_rejects_an_empty_graph():
    with pytest.raises(ValueError, match="^vertex_count must be >= 1, got 0$"):
        WeightedGraph(0, [])


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(3, [(1, 1, 1)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(3, [(1, 4, 1)])
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(3, [(0, 2, 1)])


def test_rejects_nonpositive_resistance():
    for token, shown in ((0, "0"), (-3, "-3"), ("-3", "-3"), (Fraction(-1, 2), "-1/2"), ("0/5", "0")):
        with pytest.raises(ValueError, match=f"^resistance must be positive, got {shown}$"):
            WeightedGraph(2, [(1, 2, token)])


def test_generated_edges_share_one_unit_resistance():
    graphs = (straight_linear_2tree(50), bent_linear_2tree(50, 7), straight_linear_ktree(20, 3),
              triangular_grid(6).graph)
    unit = graphs[0].edges[0][2]
    assert type(unit) is Fraction and unit == 1
    assert all(r is unit for g in graphs for _, _, r in g.edges)


def test_a_plain_fraction_token_is_kept_and_others_become_one():
    f = Fraction(3, 7)
    assert _as_resistance(f) is f

    class SubFraction(Fraction):
        pass

    for token, value in ((3, Fraction(3)), ("3/7", f), ("0.5", Fraction(1, 2)), (SubFraction(3, 7), f)):
        r = _as_resistance(token)
        assert type(r) is Fraction and r == value
    for token, message in ((0, "resistance must be positive, got 0"),
                           (Fraction(-1, 2), "resistance must be positive, got -1/2"),
                           ("-1/2", "resistance must be positive, got -1/2"),
                           ("abc", "resistance must be a positive rational, got 'abc'"),
                           ("1/0", "resistance must be a positive rational, got '1/0'")):
        with pytest.raises(ValueError) as info:
            _as_resistance(token)
        assert str(info.value) == message


def test_degree_and_neighbors_count_multiplicity():
    # edges keep both parallel copies; the adjacency sets collapse them
    g = WeightedGraph(3, [(1, 2, 1), (1, 2, 1), (2, 3, 1)])
    assert [e[:2] for e in g.edges] == [(1, 2), (1, 2), (2, 3)]
    assert g.adjacency() == {1: {2}, 2: {1, 3}, 3: {2}}


def test_equal_graphs_hash_alike_and_share_cached_facts():
    edges = [(1, 2, "1/2"), (2, 3, 3), (1, 3, 1)]
    g, h = WeightedGraph(3, edges), WeightedGraph(3, edges[::-1])
    # the resistance 1 written as each kind of token
    same = [h] + [WeightedGraph(3, edges[:2] + [(1, 3, r)]) for r in ("1", "2/2", "1.0", Fraction(1))]
    assert g is not h and g == h
    assert hash(g) == hash(h) == hash((g.vertex_count, g.edges))
    assert all(x == g and hash(x) == hash(g) for x in same)
    _graph_facts.cache_clear()
    assert all(_graph_facts(x) is _graph_facts(g) for x in same)
    assert _graph_facts.cache_info().misses == 1


def test_an_over_long_resistance_token_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as info:
        WeightedGraph(2, [(1, 2, "1" * (limit + 1))])
    assert str(info.value) == f"resistance '{'1' * 20}'... needs more than {limit} digits"


def test_connectivity():
    assert reachable(WeightedGraph(3, [(1, 2, 1), (2, 3, 1)]).adjacency(), 1) == {1, 2, 3}
    assert reachable(WeightedGraph(4, [(1, 2, 1), (3, 4, 1)]).adjacency(), 1) == {1, 2}
    assert reachable(WeightedGraph(1, []).adjacency(), 1) == {1}


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
    adj = g.adjacency()
    deg2 = tuple(v for v in g.vertices if len(adj[v]) == 2)
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
    adj = g.adjacency()
    assert tuple(v for v in g.vertices if len(adj[v]) == 2) == (1, n)
    assert k + 3 in adj[k]
    assert k + 3 not in adj[k + 1]


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
    assert (tg.apex, tg.bottom_left, tg.graph.vertex_count) == (1, 2, 3)
    assert tg.cells == 1


def test_grid_five_rows_shape():
    tg = triangular_grid(5)
    g = tg.graph
    assert g.vertex_count == 15
    assert len(g.edges) == 30
    assert tg.cell_rows == 4
    assert tg.cells == 16
    # a simple graph: each vertex's degree is its neighbour count
    adj = g.adjacency()
    bottom_right = g.vertex_count
    assert len(adj[tg.apex]) == 2
    assert len(adj[tg.bottom_left]) == len(adj[bottom_right]) == 2
    assert tg.bottom_left == 11 and bottom_right == 15
    interior = 8  # vid(4, 2): full hexagonal neighborhood
    assert len(adj[interior]) == 6


def test_grid_rejects_single_row():
    with pytest.raises(ValueError):
        triangular_grid(1)


# === Laplacian and serialization ===


def test_laplacian_rows_sum_to_zero():
    # the exact Laplacian, each row scaled to integers by its own scale
    g = WeightedGraph(3, [(1, 2, "1/2"), (1, 2, 1), (2, 3, 3)])
    (verts, rows, scales), = scaled_laplacian_components(g)
    assert verts == (1, 2, 3)
    for row in rows:
        assert sum(row.values()) == 0
    assert rows[0][1] == -3  # parallel conductances 2 + 1 add up
    assert Fraction(rows[1][2], scales[1]) == Fraction(-1, 3)
    assert scales == (1, 3, 3)
    # The facts ground vertex 1 and keep rows 2 and 3: scales 3 * 3 times
    # the tree sum 3 * 1/3, the last pivot of their factorization.
    comp_of, comps = _graph_facts(g)
    assert comp_of == {1: 0, 2: 0, 3: 0} and comps[0].verts == verts
    assert comps[0].scales == scales[1:] == (3, 3)
    assert comps[0].tree_minor == 9 == comps[0].lu[-1][1]
    assert comps[0].tree_minor == det_int(lu_int(strike(rows, (0,)), scales[1:]))


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


def test_edge_list_reads_a_fraction_whose_parts_fit_the_digit_limit():
    # The digit limit bounds the numerator and the denominator one at a
    # time, not the token as a whole.
    limit = sys.get_int_max_str_digits()
    num, den = "1" * limit, "7" * limit
    g = read_edge_list(io.StringIO(f"vertices 2\n1 2 {num}/{den}\n"))
    assert g.edges[0][2] == Fraction(int(num), int(den))


def test_edge_list_bad_line_reports_number():
    for text, message in (
        ("vertices 3\n1 2 1\n1 2\n", "line 3: expected 'u v resistance'"),
        ("vertices x\n1 2 1\n", "line 1: vertex count must be an integer, got 'x'"),
        ("vertices 3\n1 y 1\n", "line 2: vertex must be an integer, got 'y'"),
        ("# empty\nvertices 0\n", "line 2: vertex count must be >= 1, got 0"),
        ("vertices 3\n1 2 1\n1 9 1\n", r"line 3: edge \(1,9\) out of range 1..3"),
        ("vertices 3\n\n1 1 1\n", "line 3: self-loop at vertex 1"),
        ("vertices 3\n1 2 1  # side\n", "line 2: expected 'u v resistance', got '1 2 1  # side'"),
        ("vertices 3\n1 2 1ex\n", "line 2: resistance must be a positive rational, got '1ex'"),
    ):
        with pytest.raises(ValueError, match=message):
            read_edge_list(io.StringIO(text))


def test_edge_list_decode_error_passes_through_unnumbered():
    # A file that cannot be decoded fails in the reading, not in a line:
    # the decoder's own error comes through as it is.
    raw = io.TextIOWrapper(io.BytesIO(b"vertices 3\n1 2 \xff\n"), encoding="utf-8")
    with pytest.raises(UnicodeDecodeError) as info:
        read_edge_list(raw)
    assert not str(info.value).startswith("line")
