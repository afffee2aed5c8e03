"""Reduction engine tests.

Covers the pure step operations, the full strip schedule with its
per-step invariants, trace replay, the determinant path, counting,
and the floating-point solver.
"""

from fractions import Fraction
import json

import pytest

from twotree import engine
from twotree.engine import (
    STEP_KINDS,
    _graph_facts,
    brute_force_tree_enumeration,
    brute_force_two_forest_count,
    delta_y_step,
    parallel_step,
    reduce_straight,
    replay_trace,
    resistance_det,
    resistance_float,
    series_step,
    spanning_tree_count,
    two_forest_count,
)
from twotree.fib import fib, lucas
from twotree.formulas import r_closed
from twotree.graphs import (
    WeightedGraph,
    bent_linear_2tree,
    straight_linear_2tree,
    straight_linear_ktree,
    triangular_grid,
)


def _edge_value(step_edges, u, v):
    key = (min(u, v), max(u, v))
    for a, b, r in step_edges:
        if (a, b) == key:
            return r
    raise AssertionError(f"edge {key} not in {step_edges}")


# === Pure step operations ===


def test_delta_y_on_unit_triangle():
    g = straight_linear_2tree(3)
    out, step = delta_y_step(g, (1, 2, 3))
    assert step.kind == "delta-y"
    star = step.vertices[-1]
    assert star == 4
    assert sorted((u, v, r) for u, v, r in out.edges) == [
        (1, 4, Fraction(1, 3)),
        (2, 4, Fraction(1, 3)),
        (3, 4, Fraction(1, 3)),
    ]


def test_delta_y_product_invariant_general_weights():
    g = WeightedGraph(3, [(2, 3, 2), (1, 3, 3), (1, 2, 5)])
    _, step = delta_y_step(g, (1, 2, 3))
    ra = _edge_value(step.consumed, 2, 3)
    rb = _edge_value(step.consumed, 1, 3)
    rc = _edge_value(step.consumed, 1, 2)
    star = step.vertices[-1]
    r1 = _edge_value(step.produced, 1, star)
    r2 = _edge_value(step.produced, 2, star)
    r3 = _edge_value(step.produced, 3, star)
    assert r1 * ra == r2 * rb == r3 * rc, "delta-y product rule broken"
    assert r1 == Fraction(3 * 5, 10)


def test_delta_y_rejects_missing_edge():
    g = WeightedGraph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    with pytest.raises(ValueError, match="no edge"):
        delta_y_step(g, (1, 2, 3))


def test_delta_y_rejects_parallel_edges():
    g = WeightedGraph(3, [(1, 2, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(ValueError, match="parallel"):
        delta_y_step(g, (1, 2, 3))


def test_delta_y_rejects_repeated_vertex():
    g = straight_linear_2tree(3)
    with pytest.raises(ValueError, match="distinct"):
        delta_y_step(g, (1, 2, 2))


def test_series_adds_resistances():
    g = WeightedGraph(3, [(1, 2, "1/2"), (2, 3, "3/4")])
    out, step = series_step(g, 2)
    assert step.kind == "series"
    assert out.has_edge(1, 3)
    assert _edge_value(step.produced, 1, 3) == Fraction(5, 4)
    assert out.degree(2) == 0


def test_series_requires_degree_two():
    g = straight_linear_2tree(4)
    with pytest.raises(ValueError, match="degree 2"):
        series_step(g, 2)


def test_series_rejects_parallel_pair():
    g = WeightedGraph(3, [(1, 2, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError):
        series_step(g, 2)


def test_parallel_combines_all_copies():
    g = WeightedGraph(2, [(1, 2, 2), (1, 2, 2), (1, 2, 1)])
    out, step = parallel_step(g, (1, 2))
    assert step.kind == "parallel"
    assert out.edges == ((1, 2, Fraction(1, 2)),)
    assert len(step.consumed) == 3


def test_parallel_requires_multiple_edges():
    g = straight_linear_2tree(3)
    with pytest.raises(ValueError, match="parallel"):
        parallel_step(g, (1, 2))


# === Strip reduction schedule ===


@pytest.mark.parametrize(
    "n,i,j,expected",
    [
        (4, 1, 2, Fraction(5, 8)),
        (4, 2, 3, Fraction(1, 2)),
        (4, 1, 4, Fraction(1)),
        (5, 1, 3, Fraction(13, 21)),
        (5, 2, 3, Fraction(10, 21)),
        (5, 1, 5, Fraction(8, 7)),
        (6, 2, 4, Fraction(31, 55)),
        (7, 1, 7, Fraction(14, 9)),
    ],
)
def test_reduction_frozen_values(n, i, j, expected):
    rep = reduce_straight(n, i, j)
    assert rep.value == expected, f"r({i},{j}) on n={n}: {rep.value}"
    assert rep.method == "delta-y"
    assert rep.pair == (i, j)


def test_reduction_agrees_with_determinant_small():
    for n in range(3, 13):
        g = straight_linear_2tree(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                dy = reduce_straight(n, i, j).value
                det = resistance_det(g, i, j).value
                assert dy == det, f"n={n} pair ({i},{j}): {dy} vs {det}"


def test_reduction_symmetric_in_pair_order():
    assert reduce_straight(9, 6, 2).value == reduce_straight(9, 2, 6).value


def test_reduction_validation():
    with pytest.raises(ValueError):
        reduce_straight(4, 1, 1)
    with pytest.raises(ValueError):
        reduce_straight(4, 0, 2)
    with pytest.raises(ValueError):
        reduce_straight(4, 1, 5)
    with pytest.raises(ValueError):
        reduce_straight(2, 1, 2)


def test_trace_step_kinds_and_terminal_edge():
    rep = reduce_straight(9, 3, 7)
    trace = rep.trace
    assert all(s.kind in STEP_KINDS for s in trace.steps)
    last = trace.steps[-1]
    assert len(last.produced) == 1
    u, v, r = last.produced[0]
    assert {u, v} == set(trace.terminals)
    assert r == rep.value


def test_trace_dicts_are_json_ready():
    rows = reduce_straight(6, 1, 6).trace.to_dicts()
    assert isinstance(rows, list)
    assert [row["step"] for row in rows] == list(range(1, len(rows) + 1))
    for row in rows:
        json.dumps(row)
        assert row["kind"] in STEP_KINDS


# The endpoint schedule walks the strip left to right; its p-th star must
# carry the closed-form weights s_p, b_p, t_p and its consumed triangle
# resistances must total F(2p+2)/F(2p).


def _strip_weights(p):
    s = Fraction(fib(p) ** 2, fib(2 * p + 2))
    b = Fraction(fib(p + 1), lucas(p + 1))
    t = Fraction(fib(p) * fib(p + 1), lucas(p) * lucas(p + 1))
    return s, b, t


@pytest.mark.parametrize("n", [5, 8, 12, 17])
def test_endpoint_schedule_star_weights(n):
    trace = reduce_straight(n, 1, n).trace
    dy_steps = [s for s in trace.steps if s.kind == "delta-y"]
    assert len(dy_steps) == n - 3
    for p, step in enumerate(dy_steps, start=1):
        n1, n2, n3, star = step.vertices
        total = sum(r for _, _, r in step.consumed)
        assert total == Fraction(fib(2 * p + 2), fib(2 * p)), f"p={p} triangle sum"
        s_p, b_p, t_p = _strip_weights(p)
        assert _edge_value(step.produced, n1, star) == b_p, f"p={p} side arm"
        assert _edge_value(step.produced, n2, star) == s_p, f"p={p} spine arm"
        assert _edge_value(step.produced, n3, star) == t_p, f"p={p} tail arm"


@pytest.mark.parametrize("n", [5, 9, 14])
def test_endpoint_schedule_final_parallel(n):
    m = n - 2
    trace = reduce_straight(n, 1, n).trace
    parallels = [s for s in trace.steps if s.kind == "parallel"]
    assert len(parallels) == 1
    value = parallels[0].produced[0][2]
    assert value == Fraction(2 * fib(m + 1) ** 2, lucas(m + 1) * lucas(m))


def test_every_delta_y_step_obeys_product_rule():
    for n, i, j in [(8, 1, 8), (9, 2, 6), (10, 4, 7), (11, 3, 11)]:
        trace = reduce_straight(n, i, j).trace
        for step in trace.steps:
            if step.kind != "delta-y":
                continue
            n1, n2, n3, star = step.vertices
            ra = _edge_value(step.consumed, n2, n3)
            rb = _edge_value(step.consumed, n1, n3)
            rc = _edge_value(step.consumed, n1, n2)
            r1 = _edge_value(step.produced, n1, star)
            r2 = _edge_value(step.produced, n2, star)
            r3 = _edge_value(step.produced, n3, star)
            assert r1 * ra == r2 * rb == r3 * rc, f"broken at {step.vertices}"


def test_replay_reproduces_final_edge():
    for n, i, j in [(4, 1, 3), (7, 1, 7), (9, 3, 6), (12, 5, 9)]:
        rep = reduce_straight(n, i, j)
        final = replay_trace(rep.trace)
        assert len(final.edges) == 1
        u, v, r = final.edges[0]
        assert r == rep.value, f"replay value differs for n={n} ({i},{j})"


def test_replay_detects_tampering():
    rep = reduce_straight(6, 1, 6)
    steps = list(rep.trace.steps)
    bad = steps[0]
    forged = bad.__class__(
        kind=bad.kind,
        vertices=bad.vertices,
        consumed=bad.consumed,
        produced=tuple(
            (u, v, r + Fraction(1, 7)) for u, v, r in bad.produced
        ),
    )
    steps[0] = forged
    doctored = rep.trace.__class__(
        initial=rep.trace.initial,
        requested=rep.trace.requested,
        terminals=rep.trace.terminals,
        steps=tuple(steps),
        value=rep.trace.value,
    )
    with pytest.raises(ValueError):
        replay_trace(doctored)


def test_traces_do_not_depend_on_call_order():
    # The star, strip and Laplacian caches are shared across calls; a trace
    # must come out the same whichever pairs ran before it.
    pairs = [
        (n, i, j)
        for n in range(3, 13)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]

    def traces(order):
        for cached in (engine._graph_facts, engine._star, engine._strip):
            cached.cache_clear()
        return {p: reduce_straight(*p).trace for p in order}

    forward = traces(pairs)
    backward = traces(pairs[::-1])
    for p in pairs:
        trace = forward[p]
        assert trace.to_dicts() == backward[p].to_dicts(), f"trace of {p} moved"
        assert (trace.value, trace.terminals) == (backward[p].value, backward[p].terminals)
        (a, b, r), = replay_trace(trace).edges
        assert (a, b, r) == trace.terminals + (trace.value,), f"replay of {p}"


# === Determinant path ===


def test_one_minor_per_pair_once_facts_are_warm(monkeypatch):
    # The tree minor is cached per component, so a pair needs only its
    # numerator minor, a tree count none and a 2-forest count two.
    calls = []
    real = engine.det_int
    monkeypatch.setattr(engine, "det_int", lambda rows: calls.append(len(rows)) or real(rows))
    g = straight_linear_2tree(12)
    resistance_det(g, 1, 12)
    for func, args, want in (
        (resistance_det, (g, 3, 9), 1),
        (spanning_tree_count, (g,), 0),
        (two_forest_count, (g, 2, 7), 2),
    ):
        calls.clear()
        func(*args)
        assert len(calls) == want, f"{func.__name__} made {len(calls)} det_int calls"


def test_det_on_weighted_parallel_network():
    # (1/2 parallel 1) in series with 3/4 gives 1/3 + 3/4
    g = WeightedGraph(3, [(1, 2, "1/2"), (1, 2, 1), (2, 3, "3/4")])
    assert resistance_det(g, 1, 3).value == Fraction(13, 12)


def test_det_validation():
    g = straight_linear_2tree(4)
    with pytest.raises(ValueError):
        resistance_det(g, 1, 1)
    with pytest.raises(ValueError):
        resistance_det(g, 0, 3)
    split = WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(ValueError, match="disconnected"):
        resistance_det(split, 1, 3)


def test_det_on_two_weighted_components_with_different_row_scales():
    # {1,2,3}: 1/5 parallel to (1/2 + 1/3). {4,5,6}: (2/7 parallel 3) + 3/4.
    g = WeightedGraph(6, [
        (1, 2, "1/2"), (2, 3, "1/3"), (1, 3, "1/5"),
        (4, 5, "2/7"), (4, 5, 3), (5, 6, "3/4"),
    ])
    comp_of, comps = _graph_facts(g)
    assert comp_of == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
    assert comps[0][2] == (1, 1, 1) and comps[1][2] == (6, 6, 3)
    assert resistance_det(g, 1, 3).value == Fraction(5, 31)
    assert resistance_det(g, 6, 4).value == Fraction(93, 92)
    assert resistance_det(g, 5, 4).value == Fraction(6, 23)
    with pytest.raises(ValueError, match="disconnected"):
        resistance_det(g, 3, 4)


def test_cut_vertex_additivity():
    # two strips glued at a single shared vertex: resistance adds
    left = straight_linear_2tree(6)
    n_left, n_right = 6, 5
    shifted = [
        (u + n_left - 1, v + n_left - 1, r)
        for u, v, r in straight_linear_2tree(n_right).edges
    ]
    glued = WeightedGraph(n_left + n_right - 1, list(left.edges) + shifted)
    r_total = resistance_det(glued, 1, n_left + n_right - 1).value
    r_left = resistance_det(left, 1, n_left).value
    r_right = resistance_det(
        straight_linear_2tree(n_right), 1, n_right
    ).value
    assert r_total == r_left + r_right


@pytest.mark.parametrize("n", range(4, 13))
def test_edge_deletion_never_lowers_endpoint_resistance(n):
    g = straight_linear_2tree(n)
    base = resistance_det(g, 1, n).value
    for drop in range(len(g.edges)):
        kept = [e for k, e in enumerate(g.edges) if k != drop]
        pruned = WeightedGraph(n, kept)
        if not pruned.is_connected():
            continue
        assert resistance_det(pruned, 1, n).value >= base, (
            f"deleting edge {g.edges[drop][:2]} lowered r(1,{n})"
        )


# === Counting ===


def test_spanning_tree_counts_match_fibonacci():
    for n in range(3, 15):
        m = n - 2
        assert spanning_tree_count(straight_linear_2tree(n)) == fib(2 * m + 2)


def test_spanning_tree_count_small_cases():
    assert spanning_tree_count(WeightedGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])) == 3
    assert spanning_tree_count(WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])) == 0


def test_spanning_tree_count_rejects_weights():
    with pytest.raises(ValueError, match="unit"):
        spanning_tree_count(WeightedGraph(2, [(1, 2, "1/2")]))


def test_spanning_tree_count_on_multigraph():
    # parallel unit edges count as distinct edges of distinct trees
    g = WeightedGraph(4, [(1, 2, 1), (1, 2, 1), (2, 3, 1), (2, 3, 1), (2, 3, 1),
                          (3, 4, 1), (1, 4, 1), (1, 3, 1)])
    assert spanning_tree_count(g) == brute_force_tree_enumeration(g) == 27


def test_two_forest_count_with_isolated_vertex_is_zero():
    g = WeightedGraph(4, [(1, 2, 1), (2, 3, 1)])
    assert two_forest_count(g, 1, 3) == brute_force_two_forest_count(g, 1, 3) == 0


def test_tree_enumeration_agrees():
    for n in range(3, 8):
        g = straight_linear_2tree(n)
        assert brute_force_tree_enumeration(g) == spanning_tree_count(g)


def test_two_forest_counts_and_enumeration():
    for n in range(4, 8):
        g = straight_linear_2tree(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                fast = two_forest_count(g, i, j)
                slow = brute_force_two_forest_count(g, i, j)
                assert fast == slow, f"n={n} pair ({i},{j}): {fast} vs {slow}"


def test_two_forest_frozen_values():
    g = straight_linear_2tree(4)
    assert two_forest_count(g, 1, 2) == 5
    assert two_forest_count(g, 2, 3) == 4
    assert two_forest_count(g, 1, 4) == 8


# === Floating-point solver ===


def test_float_matches_exact_on_dense_path():
    g = straight_linear_2tree(30)
    exact = float(reduce_straight(30, 1, 30).value)
    assert abs(resistance_float(g, 1, 30).value - exact) < 1e-9


def test_float_on_grid():
    tg = triangular_grid(4)
    exact = float(resistance_det(tg.graph, tg.bottom_left, tg.bottom_right).value)
    got = resistance_float(tg.graph, tg.bottom_left, tg.bottom_right).value
    assert abs(got - exact) < 1e-9


def test_float_on_long_path_graph():
    # on the path graph the answer is n-1
    n = 2200
    g = straight_linear_ktree(n, 1)
    assert abs(resistance_float(g, 1, n).value - (n - 1)) < 1e-6 * n


def test_float_on_20000_vertex_strip():
    n = 20000
    got = resistance_float(straight_linear_2tree(n), 1, n).value
    # r(1, n) by the closed form; r_endpoints gives the same value but also
    # sums its 20 000-term series, which takes over a minute
    want = float(r_closed(n - 2, 1, n - 1))
    assert abs(got - want) <= 1e-9 * want


def test_float_validation():
    g = bent_linear_2tree(7, 3)
    with pytest.raises(ValueError):
        resistance_float(g, 2, 2)
