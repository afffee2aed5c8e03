"""Reduction engine tests.

Covers the step planners, the full strip schedule with its
per-step invariants, trace replay, the determinant path, counting,
and the floating-point solver.
"""

from fractions import Fraction
import hashlib
import json
import random

from hypothesis import given, settings, strategies as st
import pytest

from twotree import engine
from twotree.bareiss import det_int, lu_int
from twotree.engine import (
    STEP_KINDS,
    ReductionStep,
    _graph_facts,
    brute_force_tree_enumeration,
    brute_force_two_forest_counts,
    reduce_straight,
    reduce_straight_all,
    replay_trace,
    resistance_all_pairs,
    resistance_det,
    resistance_float,
    spanning_tree_count,
    two_forest_count,
)
from twotree.fib import check_identity, fib, lucas
from twotree.formulas import r_closed
from twotree.graphs import (
    WeightedGraph,
    bent_linear_2tree,
    reachable,
    straight_linear_2tree,
    straight_linear_ktree,
    triangular_grid,
)
from twotree.ranking import rank_nonedges

from laplacian_reference import (
    det_ref,
    minor_ratio_ref,
    resistance_float_ref,
    scaled_laplacian_components,
    strike,
)


def _edge_value(step_edges, u, v):
    key = (min(u, v), max(u, v))
    for a, b, r in step_edges:
        if (a, b) == key:
            return r
    raise AssertionError(f"edge {key} not in {step_edges}")


# === Step planners, applied by _apply ===


def test_delta_y_on_unit_triangle():
    net = engine._Network(straight_linear_2tree(3))
    step = engine._delta_y(net, 1, 2, 3)
    engine._apply(net, step)
    assert step.kind == "delta-y"
    star = step.vertices[-1]
    assert star == 4
    assert net.edge_items() == [
        (1, 4, Fraction(1, 3)),
        (2, 4, Fraction(1, 3)),
        (3, 4, Fraction(1, 3)),
    ]


def test_delta_y_product_invariant_general_weights():
    g = WeightedGraph(3, [(2, 3, 2), (1, 3, 3), (1, 2, 5)])
    step = engine._delta_y(engine._Network(g), 1, 2, 3)
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
        engine._delta_y(engine._Network(g), 1, 2, 3)


def test_delta_y_rejects_parallel_edges():
    g = WeightedGraph(3, [(1, 2, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(ValueError, match="parallel"):
        engine._delta_y(engine._Network(g), 1, 2, 3)


def test_delta_y_rejects_repeated_vertex():
    g = straight_linear_2tree(3)
    with pytest.raises(ValueError, match="^no edge between 2 and 2$"):
        engine._delta_y(engine._Network(g), 1, 2, 2)


def test_series_adds_resistances():
    net = engine._Network(WeightedGraph(3, [(1, 2, "1/2"), (2, 3, "3/4")]))
    step = engine._series(net, 2)
    engine._apply(net, step)
    assert step.kind == "series"
    assert net.edge_items() == [(1, 3, Fraction(5, 4))]
    assert _edge_value(step.produced, 1, 3) == Fraction(5, 4)
    assert 2 not in net.adj


def test_series_requires_degree_two():
    g = straight_linear_2tree(4)
    with pytest.raises(ValueError, match="^series elimination needs degree 2 at 2, got 3$"):
        engine._series(engine._Network(g), 2)


def test_series_rejects_parallel_pair():
    g = WeightedGraph(3, [(1, 2, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError, match="^series elimination needs degree 2 at 2, got 3$"):
        engine._series(engine._Network(g), 2)


# The other shapes that are not two neighbours with one edge each (two
# neighbours, one of them with parallels, is the test above), and each
# one's exact refusal.
@pytest.mark.parametrize("edges, middle, message", [
    ([(1, 2, 1), (1, 2, 2)], 2, "edges at 2 are parallel (both to 1), not series"),
    ([(2, 3, 1), (1, 2, 1), (2, 3, 1), (1, 2, 1)], 2,
     "series elimination needs degree 2 at 2, got 4"),
    ([(1, 2, 1), (1, 3, 1)], 2, "series elimination needs degree 2 at 2, got 1"),
    ([(1, 2, 1)], 3, "series elimination needs degree 2 at 3, got 0"),
], ids=["one-neighbour-parallel", "two-neighbours-both-parallel", "degree-1", "degree-0"])
def test_series_refuses_each_shape_with_its_message(edges, middle, message):
    g = WeightedGraph(3, edges)
    with pytest.raises(ValueError) as refused:
        engine._series(engine._Network(g), middle)
    assert str(refused.value) == message


# Two single edges, linked in either order, with the middle below, between
# and above its neighbours: the ends come out ascending, each consumed edge
# smaller end first, in the ends' order.
@pytest.mark.parametrize("edges, middle, step", [
    ([(1, 2, "1/2"), (2, 3, "3/4")], 2, ((1, 2, 3), ((1, 2, "1/2"), (2, 3, "3/4")), (1, 3))),
    ([(2, 3, "3/4"), (1, 2, "1/2")], 2, ((1, 2, 3), ((1, 2, "1/2"), (2, 3, "3/4")), (1, 3))),
    ([(1, 3, "3/4"), (1, 2, "1/2")], 1, ((2, 1, 3), ((1, 2, "1/2"), (1, 3, "3/4")), (2, 3))),
    ([(1, 2, "1/2"), (1, 3, "3/4")], 1, ((2, 1, 3), ((1, 2, "1/2"), (1, 3, "3/4")), (2, 3))),
    ([(2, 3, "3/4"), (1, 3, "1/2")], 3, ((1, 3, 2), ((1, 3, "1/2"), (2, 3, "3/4")), (1, 2))),
    ([(1, 3, "1/2"), (2, 3, "3/4")], 3, ((1, 3, 2), ((1, 3, "1/2"), (2, 3, "3/4")), (1, 2))),
], ids=["middle-between", "middle-between-reversed", "middle-below", "middle-below-reversed",
        "middle-above", "middle-above-reversed"])
def test_series_plans_one_step_whatever_the_id_order(edges, middle, step):
    vertices, consumed, ends = step
    expected = ReductionStep(
        "series", vertices, tuple((u, v, Fraction(r)) for u, v, r in consumed),
        ((*ends, Fraction(5, 4)),))
    assert engine._series(engine._Network(WeightedGraph(3, edges)), middle) == expected


def test_parallel_combines_all_copies():
    net = engine._Network(WeightedGraph(2, [(1, 2, 2), (1, 2, 2), (1, 2, 1)]))
    step = engine._parallel(net, 1, 2)
    engine._apply(net, step)
    assert step.kind == "parallel"
    assert net.edge_items() == [(1, 2, Fraction(1, 2))]
    assert len(step.consumed) == 3


def test_parallel_requires_multiple_edges():
    g = straight_linear_2tree(3)
    with pytest.raises(ValueError, match="parallel"):
        engine._parallel(engine._Network(g), 1, 2)


@pytest.mark.parametrize("plan,message", [
    (lambda net: engine._delta_y(net, 1, 2, 9), "^no edge between 2 and 9$"),
    (lambda net: engine._series(net, 9), "^series elimination needs degree 2 at 9, got 0$"),
    (lambda net: engine._cut(net, 2, 99), "^vertex 99 not in graph$"),
    (lambda net: engine._cut(net, 99, 2), "^vertex 99 not in graph$"),
], ids=["delta-y", "series", "cut-keep", "cut-vertex"])
def test_planners_reject_a_missing_vertex(plan, message):
    with pytest.raises(ValueError, match=message):
        plan(engine._Network(straight_linear_2tree(4)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_planners_refuse_only_with_value_error(data):
    # Midway through a strip's reduction, plan a delta-y, series, parallel
    # or cut-vertex step on ids present, absent (never used, or dropped)
    # and repeated. The planners keep no checks of their own: each bad
    # input must still be refused as a ValueError by the network, and each
    # step they do plan must apply.
    n = data.draw(st.integers(3, 10))
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(i + 1, n))
    trace = reduce_straight(n, i, j).trace
    net = engine._Network(trace.initial)
    for step in trace.steps[:data.draw(st.integers(0, len(trace.steps)))]:
        engine._apply(net, step)
    ids = st.one_of(st.sampled_from(sorted(net.adj)), st.integers(-1, net.next_id + 1))
    for _ in range(8):
        plan = data.draw(st.sampled_from(
            (engine._delta_y, engine._series, engine._parallel, engine._cut)))
        first = data.draw(ids)
        arity = {engine._delta_y: 3, engine._series: 1}.get(plan, 2)
        rest = data.draw(st.lists(st.one_of(st.just(first), ids),
                                  min_size=arity - 1, max_size=arity - 1))
        args = (first, *rest)
        try:
            step = plan(net, *args)
        except ValueError:
            continue
        engine._apply(net.copy(), step)


def test_parallel_gives_the_same_step_with_its_ends_reversed():
    net = engine._Network(WeightedGraph(3, [(1, 2, 2), (1, 2, 1), (2, 3, 1)]))
    assert engine._parallel(net, 2, 1) == engine._parallel(net, 1, 2)


@settings(max_examples=200, deadline=None)
@given(rs=st.lists(st.fractions(min_value=Fraction(1, 50), max_value=50), min_size=2, max_size=4),
       data=st.data())
def test_parallel_is_one_over_the_sum_of_conductances(rs, data):
    # Repeats allowed; the step must not depend on the order the edges
    # were linked in, which is the order the network's tuple holds.
    order = data.draw(st.permutations(rs))
    step = engine._parallel(engine._Network(WeightedGraph(2, [(1, 2, r) for r in order])), 1, 2)
    expected = 1 / sum(1 / r for r in rs)
    assert step == ReductionStep(
        "parallel", (1, 2), tuple((1, 2, r) for r in sorted(rs)), ((1, 2, expected),))


def _cut_referee(net, cut_vertex, keep):
    # The cut-vertex step by its definition: every vertex other than the
    # cut vertex that a breadth-first search from keep, not entering the
    # cut vertex, leaves unseen is removed, with each edge touching it.
    seen, frontier = {keep}, [keep]
    while frontier:
        frontier = [v for u in frontier for v in net.adj[u] if v != cut_vertex and v not in seen]
        seen.update(frontier)
    removed = sorted(set(net.adj) - seen - {cut_vertex})
    consumed = [e for e in net.edge_items() if e[0] in removed or e[1] in removed]
    return ReductionStep("cut-vertex", (cut_vertex, keep, *removed), tuple(consumed), ())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cut_matches_the_keep_side_referee_in_strip_reductions(data):
    n = data.draw(st.integers(4, 14))
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(i + 1, n))
    trace = reduce_straight(n, i, j).trace
    net = engine._Network(trace.initial)
    cuts = 0
    for step in trace.steps:
        if step.kind == "cut-vertex":
            cut_vertex, keep = step.vertices[:2]
            assert engine._cut(net, cut_vertex, keep) == _cut_referee(net, cut_vertex, keep) == step
            cuts += 1
        engine._apply(net, step)
    a, b = trace.terminals
    assert cuts == (a > 1) + (b < n - 1)  # a left fold, a right fold


@pytest.mark.parametrize("keep, removed", [(2, (4, 5, 6)), (3, (4, 5, 6)), (4, (2, 3, 6)),
                                           (6, (2, 3, 4, 5))])
def test_cut_removes_every_side_but_the_kept_one(keep, removed):
    # Cut vertex 1 joins three sides: the triangle {1, 2, 3}, the cycle
    # {1, 4, 5} and vertex 6 by two parallel edges.
    g = WeightedGraph(6, [(1, 2, 1), (2, 3, 2), (1, 3, 3), (1, 4, 2), (4, 5, 3), (1, 5, 1),
                          (1, 6, 1), (1, 6, 2)])
    net = engine._Network(g)
    step = engine._cut(net, 1, keep)
    assert step == _cut_referee(net, 1, keep)
    assert step.vertices == (1, keep) + removed
    engine._apply(net, step)
    assert sorted(net.adj) == sorted({1, 2, 3, 4, 5, 6} - set(removed))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_matches_the_keep_side_referee_on_random_multigraphs(data):
    # Two parts with no edge between them, 1..m and m+1..n-1, each with
    # random edges (a repeated pair is a parallel edge), and vertex n with
    # none; the cut vertex and keep are any two vertices, or one twice.
    m = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(m + 3, m + 6))
    edges = []
    for lo, hi in ((1, m), (m + 1, n - 1)):
        ends = st.lists(st.integers(lo, hi), min_size=2, max_size=2, unique=True)
        edges += data.draw(st.lists(st.tuples(ends, st.sampled_from(["1", "2", "1/3"])),
                                    max_size=3 * (hi - lo + 1)))
    net = engine._Network(WeightedGraph(n, [(u, v, r) for (u, v), r in edges]))
    cut_vertex, keep = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2))
    before, expected = net.edge_items(), _cut_referee(net, cut_vertex, keep)
    if expected.vertices == (cut_vertex, keep):  # the referee removes nothing
        with pytest.raises(ValueError, match=f"^nothing to cut away at {cut_vertex}$"):
            engine._cut(net, cut_vertex, keep)
        return
    step = engine._cut(net, cut_vertex, keep)
    assert step == expected
    removed = set(step.vertices[2:])
    engine._apply(net, step)
    assert sorted(net.adj) == sorted(set(range(1, n + 1)) - removed)
    assert net.edge_items() == [e for e in before if not removed & set(e[:2])]


def test_cut_with_nothing_to_cut_away():
    net = engine._Network(straight_linear_2tree(3))
    with pytest.raises(ValueError, match="^nothing to cut away at 2$"):
        engine._cut(net, 2, 1)


def test_network_copy_is_independent():
    source = engine._Network(straight_linear_2tree(5))
    engine._apply(source, engine._delta_y(source, 1, 2, 3))
    edges, next_id, steps = source.edge_items(), source.next_id, list(source.steps)
    twin = source.copy()
    assert (twin.edge_items(), twin.next_id, twin.steps) == (edges, next_id, steps)
    engine._apply(twin, engine._series(twin, 2))
    engine._apply(twin, engine._delta_y(twin, 3, 4, 5))
    assert twin.next_id == next_id + 1
    assert twin.steps[:-2] == steps
    for u, nbrs in twin.adj.items():
        for v, rs in nbrs.items():
            assert twin.adj[v][u] is rs
    assert (source.edge_items(), source.next_id, source.steps) == (edges, next_id, steps)


def _assert_both_ends_agree(adj):
    # Each pair's tuple is held, equal, at both ends, and none is empty.
    for u, nbrs in adj.items():
        for v, rs in nbrs.items():
            assert rs and adj[v][u] == rs, (u, v)


def test_a_replay_logs_the_trace_steps():
    for n in range(3, 11):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                trace = reduce_straight(n, i, j).trace
                net = engine._Network(trace.initial)
                _assert_both_ends_agree(net.adj)
                for step in trace.steps:
                    engine._apply(net, step)
                    _assert_both_ends_agree(net.adj)
                assert net.steps == list(trace.steps), (n, i, j)


def test_unlinking_one_of_two_equal_parallel_edges_keeps_the_other():
    net = engine._Network(WeightedGraph(3, [(1, 2, 2), (1, 2, 2), (2, 3, 1)]))
    engine._apply(net, ReductionStep("parallel", (1, 2), ((1, 2, Fraction(2)),), ()))
    assert net.adj[1][2] == net.adj[2][1] == (Fraction(2),)
    _assert_both_ends_agree(net.adj)
    engine._apply(net, ReductionStep("parallel", (1, 2), ((2, 1, Fraction(2)),), ()))
    assert 2 not in net.adj[1] and 1 not in net.adj[2]
    assert net.edge_items() == [(2, 3, Fraction(1))]


# After the first delta-y of the 4-strip, star 5 holds three edges of 1/3.
@pytest.mark.parametrize("step, message", [
    (ReductionStep("swap", (1, 2), (), ()), "unknown step kind"),
    (ReductionStep("merge-rename", (5, 4), (), ()), "vertex 4 already present"),
    (ReductionStep("parallel", (1, 2), ((1, 2, Fraction(1)),), ()), r"edge \(1,2,1\) not present"),
    # unlinks one edge of star 5 before it finds the other two
    (ReductionStep("series", (2, 5, 3), ((2, 5, Fraction(1, 3)),), ()), "vertex 5 still has edges"),
], ids=["unknown-kind", "rename-onto-a-vertex", "missing-edge", "middle-keeps-edges"])
def test_a_refused_step_is_not_logged(step, message):
    net = engine._Network(straight_linear_2tree(4))
    first = engine._delta_y(net, 1, 2, 3)
    engine._apply(net, first)
    with pytest.raises(ValueError, match=message):
        engine._apply(net, step)
    assert net.steps == [first]


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
    with pytest.raises(ValueError):
        next(reduce_straight_all(2))


@pytest.mark.parametrize("n", range(3, 21))
def test_reduce_straight_all_equals_single_pairs(n):
    reports = list(reduce_straight_all(n))
    assert sorted(r.pair for r in reports) == [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    for report in reports:
        assert report == reduce_straight(n, *report.pair)


def _check_shards(n, parts, full):
    # Shard `part` of `parts` holds the left terminals a with
    # (a - 1) % parts == part, the reflected pairs (i, n) going with a = 1;
    # each report is the full run's, trace included, in the full run's order,
    # and the shards together hold every report once.
    position = {report.pair: k for k, report in enumerate(full)}
    dealt = []
    for part in range(parts):
        shard = list(reduce_straight_all(n, part, parts))
        at = [position[report.pair] for report in shard]
        assert at == sorted(at)
        assert shard == [full[k] for k in at]
        assert all((report.trace.terminals[0] - 1) % parts == part for report in shard)
        dealt += at
    assert sorted(dealt) == list(range(len(full)))


@pytest.mark.parametrize("n", range(3, 21))
def test_reduce_straight_all_shards_partition_the_strip(n):
    full = list(reduce_straight_all(n))
    for parts in range(1, 5):
        _check_shards(n, parts, full)


def test_every_shard_count_the_gate_may_choose_partitions_the_strip():
    # four_way_agreement splits the n-strip in at most n - 2 parts, one per
    # left terminal; its pair count is the whole strip's, n(n-1)/2.
    full = list(reduce_straight_all(20))
    assert len(full) == 190
    for parts in range(1, 19):
        _check_shards(20, parts, full)


@pytest.mark.parametrize("part, parts", [(-1, 2), (2, 2), (0, 0), (1, 1)])
def test_reduce_straight_all_refuses_a_shard_out_of_range(part, parts):
    with pytest.raises(ValueError, match=f"part {part} out of range for {parts} parts"):
        next(reduce_straight_all(6, part, parts))


def test_reduce_straight_all_shares_the_left_sweep(monkeypatch):
    # _apply calls per strip: one left sweep grows by one triangle per i,
    # where rebuilding it for each i costs 1104 calls at n = 12, not 1012.
    calls = []
    apply = engine._apply
    monkeypatch.setattr(engine, "_apply", lambda net, step: (calls.append(1), apply(net, step)))
    counts = {}
    for n in range(3, 13):
        calls.clear()
        for _ in reduce_straight_all(n):
            pass
        counts[n] = len(calls)
    assert counts == {3: 4, 4: 20, 5: 53, 6: 104, 7: 177, 8: 276, 9: 405, 10: 568,
                      11: 769, 12: 1012}


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
        terminals=rep.trace.terminals,
        steps=tuple(steps),
        value=rep.trace.value,
    )
    with pytest.raises(ValueError):
        replay_trace(doctored)


_LOOP = ((3, 3, Fraction(1)),)


@pytest.mark.parametrize(
    "inserted, message",
    [
        ([ReductionStep("merge-rename", (99, 100), (), ())], "vertex 99 not in graph"),
        ([ReductionStep("series", (1, 77, 2), (), ())], "vertex 77 not in graph"),
        ([ReductionStep("swap", (1, 2), (), ())], "unknown step kind 'swap'"),
        # the trace's first step made star 7
        ([ReductionStep("delta-y", (4, 5, 6, 7), (), ())], "star id 7 already present"),
        ([ReductionStep("parallel", (1, 99), (), ((1, 99, Fraction(1)),))], "missing vertex 99"),
        (
            [ReductionStep("parallel", (3, 3), (), _LOOP), ReductionStep("parallel", (3, 3), _LOOP, ())],
            "self-loop at vertex 3",
        ),
    ],
    ids=[
        "rename-missing-vertex", "series-missing-middle", "unknown-kind", "reused-star",
        "produced-at-missing-vertex", "self-loop-made-and-taken",
    ],
)
def test_replay_rejects_a_step_that_does_not_apply(inserted, message):
    trace = reduce_straight(6, 1, 6).trace
    assert trace.steps[0].vertices == (3, 2, 1, 7)
    doctored = trace._replace(steps=trace.steps[:1] + tuple(inserted) + trace.steps[1:])
    with pytest.raises(ValueError, match=message):
        replay_trace(doctored)


def _mutated_step(data, step, n):
    # One field of the step changed, each field keeping its type: the kind
    # becomes another string, one vertex another int, and in an edge tuple
    # one edge is dropped or has an endpoint or its resistance changed.
    field = data.draw(st.sampled_from(["kind", "vertices", "consumed", "produced"]))
    if field == "kind":
        return step._replace(kind=data.draw(st.sampled_from(STEP_KINDS + ("swap",))))
    entries = list(getattr(step, field))
    if not entries:
        return step
    at = data.draw(st.integers(0, len(entries) - 1))
    vertex = st.integers(-1, n + 12)
    if field == "vertices":
        entries[at] = data.draw(vertex)
    elif data.draw(st.booleans()):
        del entries[at]
    else:
        edge = list(entries[at])
        part = data.draw(st.integers(0, 2))
        edge[part] = data.draw(vertex if part < 2 else st.fractions(-1, 3, max_denominator=9))
        entries[at] = tuple(edge)
    return step._replace(**{field: tuple(entries)})


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_replay_of_a_mutated_trace_returns_a_graph_or_raises_value_error(data):
    n = data.draw(st.integers(3, 10))
    i, j = sorted(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    trace = reduce_straight(n, i, j).trace
    # Pick the kind first, so that the rarer kinds are mutated as often.
    kind = data.draw(st.sampled_from(sorted({step.kind for step in trace.steps})))
    at = data.draw(st.sampled_from([k for k, step in enumerate(trace.steps) if step.kind == kind]))
    steps = list(trace.steps)
    steps[at] = _mutated_step(data, steps[at], n)
    try:
        result = replay_trace(trace._replace(steps=tuple(steps)))
    except ValueError:
        return
    assert isinstance(result, WeightedGraph)


# Frozen step order of two reductions; together they take every step kind:
# delta-y, merge-rename and cut-vertex in the sweeps, then the endgame's
# series chain, its one parallel step and the final series on the star.
# Each line is "kind vertices | consumed | produced", edges as u-v:r.
GOLDEN_TRACES = {
    (8, 4, 6): [
        "delta-y 3,2,1,9 | 1-2:1 1-3:1 2-3:1 | 3-9:1/3 2-9:1/3 1-9:1/3",
        "series 4,2,9 | 2-4:1 2-9:1/3 | 4-9:4/3",
        "merge-rename 9,2 |  | ",
        "delta-y 4,3,2,10 | 2-3:1/3 2-4:4/3 3-4:1 | 4-10:1/2 3-10:1/8 2-10:1/6",
        "series 5,3,10 | 3-5:1 3-10:1/8 | 5-10:9/8",
        "merge-rename 10,3 |  | ",
        "delta-y 5,4,3,11 | 3-4:1/2 3-5:9/8 4-5:1 | 5-11:3/7 4-11:4/21 3-11:3/14",
        "cut-vertex 11,4,1,2,3 | 1-2:1/3 2-3:1/6 3-11:3/14 | ",
        "series 4,11,5 | 4-11:4/21 5-11:3/7 | 4-5:13/21",
        "delta-y 6,7,8,12 | 7-8:1 6-8:1 6-7:1 | 6-12:1/3 7-12:1/3 8-12:1/3",
        "cut-vertex 12,6,8 | 8-12:1/3 | ",
        "series 6,12,7 | 6-12:1/3 7-12:1/3 | 6-7:2/3",
        "delta-y 6,5,4,13 | 4-5:13/21 4-6:1 5-6:1 | 6-13:21/55 5-13:13/55 4-13:13/55",
        "series 7,5,13 | 5-7:1 5-13:13/55 | 7-13:68/55",
        "series 6,7,13 | 6-7:2/3 7-13:68/55 | 6-13:314/165",
        "parallel 6,13 | 6-13:21/55 6-13:314/165 | 6-13:6594/20735",
        "series 4,13,6 | 4-13:13/55 6-13:6594/20735 | 4-6:209/377",
    ],
    (9, 2, 5): [
        "delta-y 3,2,1,10 | 1-2:1 1-3:1 2-3:1 | 3-10:1/3 2-10:1/3 1-10:1/3",
        "cut-vertex 10,2,1 | 1-10:1/3 | ",
        "series 2,10,3 | 2-10:1/3 3-10:1/3 | 2-3:2/3",
        "delta-y 7,8,9,11 | 8-9:1 7-9:1 7-8:1 | 7-11:1/3 8-11:1/3 9-11:1/3",
        "series 6,8,11 | 6-8:1 8-11:1/3 | 6-11:4/3",
        "merge-rename 11,8 |  | ",
        "delta-y 6,7,8,12 | 7-8:1/3 6-8:4/3 6-7:1 | 6-12:1/2 7-12:1/8 8-12:1/6",
        "series 5,7,12 | 5-7:1 7-12:1/8 | 5-12:9/8",
        "merge-rename 12,7 |  | ",
        "delta-y 5,6,7,13 | 6-7:1/2 5-7:9/8 5-6:1 | 5-13:3/7 6-13:4/21 7-13:3/14",
        "cut-vertex 13,5,7,8,9 | 7-8:1/6 7-13:3/14 8-9:1/3 | ",
        "series 5,13,6 | 5-13:3/7 6-13:4/21 | 5-6:13/21",
        "delta-y 4,3,2,14 | 2-3:2/3 2-4:1 3-4:1 | 4-14:3/8 3-14:1/4 2-14:1/4",
        "series 5,3,14 | 3-5:1 3-14:1/4 | 5-14:5/4",
        "merge-rename 14,3 |  | ",
        "delta-y 5,4,3,15 | 3-4:3/8 3-5:5/4 4-5:1 | 5-15:10/21 4-15:1/7 3-15:5/28",
        "series 2,3,15 | 2-3:1/4 3-15:5/28 | 2-15:3/7",
        "series 6,4,15 | 4-6:1 4-15:1/7 | 6-15:8/7",
        "series 5,6,15 | 5-6:13/21 6-15:8/7 | 5-15:37/21",
        "parallel 5,15 | 5-15:10/21 5-15:37/21 | 5-15:370/987",
        "series 2,15,5 | 2-15:3/7 5-15:370/987 | 2-5:793/987",
    ],
}


def _trace_line(row):
    def edges(es):
        return " ".join(f"{u}-{v}:{r}" for u, v, r in es)

    head = row["kind"] + " " + ",".join(map(str, row["vertices"]))
    return " | ".join([head, edges(row["consumed"]), edges(row["produced"])])


@pytest.mark.parametrize("pair", sorted(GOLDEN_TRACES))
def test_trace_steps_are_frozen(pair):
    rows = reduce_straight(*pair).trace.to_dicts()
    assert [row["step"] for row in rows] == list(range(1, len(rows) + 1))
    assert set(rows[0]) == {"kind", "vertices", "consumed", "produced", "step"}
    assert [_trace_line(row) for row in rows] == GOLDEN_TRACES[pair]


def test_records_are_immutable_and_replace_makes_a_changed_copy():
    report = reduce_straight(6, 1, 6)
    step = report.trace.steps[0]
    fields = tuple(step)
    changed = step._replace(kind="series")
    assert changed == ("series",) + fields[1:]
    assert step == fields and step.kind == "delta-y"
    records = [step, report.trace, report, rank_nonedges(5)[0], triangular_grid(2),
               check_identity("lucas-split")]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


@pytest.mark.parametrize(
    "vertex_count, edges",
    [
        # K4: vertex 3 has degree 3 at its turn
        (4, [(1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)]),
        # vertex 3 has degree 2, but both edges go to vertex 1
        (3, [(1, 2, 1), (1, 3, 1), (1, 3, 2)]),
        # nothing to eliminate, and no single edge joins the terminals
        (2, []),
        (2, [(1, 2, 1), (1, 2, 2)]),
    ],
)
def test_cleanup_failure_is_an_assertion(vertex_count, edges):
    net = engine._Network(WeightedGraph(vertex_count, edges))
    with pytest.raises(AssertionError):
        engine._cleanup(net, 1, 2)


# sha256 of the steps, value and terminals of the traces of every ordered
# pair with 3 <= n <= 16 (1358 traces): a change to any of them moves it.
TRACE_DIGEST = "dbb8bdad890422f9ea62d414dc9d4388b0ae8652dd674d5cefbb1d2c36a370ec"


def test_trace_digest_is_frozen():
    # Hashed twice: from single-pair calls, and from reduce_straight_all,
    # whose report for {i, j} stands in for both (i, j) and (j, i).
    single, shared = hashlib.sha256(), hashlib.sha256()
    for n in range(3, 17):
        driven = {r.pair: r.trace for r in reduce_straight_all(n)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    for digest, t in ((single, reduce_straight(n, i, j).trace),
                                      (shared, driven[min(i, j), max(i, j)])):
                        row = [t.to_dicts(), str(t.value), list(t.terminals)]
                        digest.update(json.dumps(row).encode())
    assert single.hexdigest() == TRACE_DIGEST
    assert shared.hexdigest() == TRACE_DIGEST


def test_traces_do_not_depend_on_call_order():
    # The star and Laplacian caches are shared across calls; a trace
    # must come out the same whichever pairs ran before it.
    pairs = [
        (n, i, j)
        for n in range(3, 13)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]

    def clear():
        for cached in (engine._graph_facts, engine._star):
            cached.cache_clear()

    def traces(order):
        clear()
        return {p: reduce_straight(*p).trace for p in order}

    def interleaved():
        # The driver's traces, with single-pair calls run between its yields.
        clear()
        singles = iter(pairs[::-1])
        driven, single = {}, {}
        for n in range(3, 13):
            for report in reduce_straight_all(n):
                p = next(singles)
                single[p] = reduce_straight(*p).trace
                driven[(n, *report.pair)] = report.trace
        return driven, single

    forward = traces(pairs)
    backward = traces(pairs[::-1])
    driven, single = interleaved()
    for p in pairs:
        trace = forward[p]
        others = [backward[p]] + [t[p] for t in (driven, single) if p in t]
        for other in others:
            assert trace.to_dicts() == other.to_dicts(), f"trace of {p} moved"
            assert (trace.value, trace.terminals) == (other.value, other.terminals)
        (a, b, r), = replay_trace(trace).edges
        assert (a, b, r) == trace.terminals + (trace.value,), f"replay of {p}"
    assert len(driven) == len(single) == len(pairs) // 2


# === Determinant path ===


def test_no_elimination_once_facts_are_warm(monkeypatch):
    # A cold facts build factors each component's grounded minor once;
    # with the facts warm, a pair, a tree count and a 2-forest count are
    # read from those factorizations with no elimination of their own.
    calls = []
    real = engine.lu_int
    monkeypatch.setattr(engine, "lu_int",
                        lambda rows, scales: calls.append(len(rows)) or real(rows, scales))
    g = straight_linear_2tree(12)
    _graph_facts.cache_clear()
    resistance_det(g, 1, 12)
    assert calls == [11]
    calls.clear()
    resistance_det(TWO_WEIGHTED_COMPONENTS, 1, 3)
    assert calls == [2, 2], "one elimination per component"
    for func, args in (
        (resistance_det, (g, 3, 9)),
        (resistance_det, (TWO_WEIGHTED_COMPONENTS, 6, 4)),
        (spanning_tree_count, (g,)),
        (two_forest_count, (g, 2, 7)),
        (resistance_all_pairs, (g,)),
    ):
        calls.clear()
        func(*args)
        assert calls == [], f"{func.__name__} made {len(calls)} eliminations"


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


# {1,2,3}: 1/5 parallel to (1/2 + 1/3). {4,5,6}: (2/7 parallel 3) + 3/4.
TWO_WEIGHTED_COMPONENTS = WeightedGraph(6, [
    (1, 2, "1/2"), (2, 3, "1/3"), (1, 3, "1/5"),
    (4, 5, "2/7"), (4, 5, 3), (5, 6, "3/4"),
])


def test_det_on_two_weighted_components_with_different_row_scales():
    g = TWO_WEIGHTED_COMPONENTS
    comp_of, comps = _graph_facts(g)
    assert comp_of == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
    # the grounded rows' scales: vertices 2, 3 and 5, 6
    assert comps[0].scales == (1, 1) and comps[1].scales == (6, 3)
    assert resistance_det(g, 1, 3).value == Fraction(5, 31)
    assert resistance_det(g, 6, 4).value == Fraction(93, 92)
    assert resistance_det(g, 5, 4).value == Fraction(6, 23)
    with pytest.raises(ValueError, match="disconnected"):
        resistance_det(g, 3, 4)


def test_facts_equal_the_referee_factorization_seeded():
    # Weighted multigraphs with parallel edges, several components and
    # one-vertex ones, with each component's vertices scattered over 1..n.
    # The test-local Laplacian with its first vertex struck, M, has the
    # component's row scales and is diag(scales) S with S symmetric, as
    # lu_int requires. Each kept pivot row k starts at its diagonal, and
    # its entry at column c is the dense minor of M's rows 0..k and
    # columns 0..k-1, c: the fraction-free U. The tree minor is det(M).
    rng = random.Random(16)
    shapes = set()
    for _ in range(80):
        n = rng.randint(1, 14)
        labels = rng.sample(range(1, n + 1), n)
        edges = []
        while labels:
            k = rng.randint(1, 5)
            block, labels = labels[:k], labels[k:]
            edges += [(block[rng.randrange(t)], block[t]) for t in range(1, len(block))]
            edges += [tuple(rng.sample(block, 2)) for _ in range(rng.randint(0, 2 * k - 2))
                      if len(block) > 1]
        g = WeightedGraph(n, [(u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                              for u, v in edges])
        comp_of, comps = _graph_facts(g)
        ref = scaled_laplacian_components(g)
        assert len(comps) == len(ref)
        for cid, (comp, (verts, rows, scales)) in enumerate(zip(comps, ref)):
            grounded = strike(rows, (0,))
            assert comp.verts == verts and {comp_of[v] for v in verts} == {cid}
            assert comp.scales == scales[1:]
            s = comp.scales
            assert all(s[c] * x == s[r] * grounded[c].get(r, 0)
                       for r, row in enumerate(grounded) for c, x in row.items())
            for k, row in enumerate(comp.lu):
                assert min(row) == k, f"pivot row {k} keeps columns left of its diagonal"
                for c, x in row.items():
                    cols = [*range(k), c]
                    minor = [{t: grounded[r].get(q, 0) for t, q in enumerate(cols)}
                             for r in range(k + 1)]
                    assert x == det_ref(minor), f"U[{k}][{c}] is off its minor"
            assert comp.tree_minor == det_ref(grounded)
            shapes.add("one-vertex" if len(verts) == 1 else "larger")
        shapes.add("several" if len(comps) > 1 else "one")
        if len({e[:2] for e in g.edges}) < len(g.edges):
            shapes.add("parallel")
    assert shapes == {"one-vertex", "larger", "several", "one", "parallel"}


# The spread file: resistances 10^-11 .. 10^9 on one component, with three
# parallel edges between 3 and 5.
SPREAD = WeightedGraph(5, [(1, 2, 1), (1, 3, "100000000"), (2, 3, "1/10000000"),
                           (2, 4, "100000"), (3, 5, "1/100000000000"), (3, 5, "10000000"),
                           (3, 5, "1000000000")])


def _wide_graph(rng):
    # A random multigraph on up to 10 vertices, its resistances 10^k with
    # |k| <= 30 or p/q with large coprime parts, drawn from a small pool so
    # that edges share objects. Each parallel edge either reuses its
    # partner's object or is a distinct one.
    pool = [Fraction(10) ** rng.randint(-30, 30) for _ in range(3)]
    pool += [Fraction(rng.randint(1, 10 ** 40), rng.randint(1, 10 ** 40)) for _ in range(3)]
    n = rng.randint(1, 10)
    edges = [(rng.randint(1, v - 1), v, rng.choice(pool)) for v in range(2, n + 1)
             if rng.random() < 0.9]
    edges += [(*rng.sample(range(1, n + 1), 2), rng.choice(pool)) for _ in range(rng.randint(0, n))
              if n > 1]
    for u, v, r in rng.sample(edges, min(len(edges), 3)):
        edges.append((v, u, r if rng.random() < 0.5 else rng.choice(pool)))
    return WeightedGraph(n, edges)


def test_facts_equal_the_referee_on_wide_resistances():
    # Each row's scale is the lcm of up to 10^40-sized denominators, and
    # parallel conductances add before scaling; the engine's integer
    # assembly must give the referee's verts, scales, U and tree minor.
    # U is checked against lu_int of the referee's rows, which the seeded
    # test above checks entry by entry against dense minors.
    rng = random.Random(39)
    seen = set()
    for g in [SPREAD, *(_wide_graph(rng) for _ in range(120))]:
        comp_of, comps = _graph_facts.__wrapped__(g)
        ref = scaled_laplacian_components(g)
        assert [comp.verts for comp in comps] == [verts for verts, _, _ in ref]
        for comp, (verts, rows, scales) in zip(comps, ref):
            grounded = strike(rows, (0,))
            assert comp.scales == scales[1:]
            assert comp.lu == lu_int(grounded, scales[1:])
            assert comp.tree_minor == det_ref(grounded)
            assert {comp_of[v] for v in verts} == {comps.index(comp)}
        by_pair = {}
        for u, v, r in g.edges:
            by_pair.setdefault((u, v), []).append(r)
        for rs in by_pair.values():
            if len(rs) > 1:
                seen.add("shared" if len({id(r) for r in rs}) < len(rs) else "distinct")
        if any(max(comp.scales, default=1) > 10 ** 30 for comp in comps):
            seen.add("wide")
    assert seen == {"shared", "distinct", "wide"}


def _minor_ratio(g, i, j):
    # The referee: r(i, j) as the ratio of two Laplacian minors, each from
    # an elimination of its own on the test-local assembly, the way
    # resistance_det once computed it. The minor with i and j struck lacks
    # rows pi and pj, the one with i struck row pi, so the ratio regains
    # scale[pj].
    (verts, rows, scales), = (c for c in scaled_laplacian_components(g) if i in c[0])
    pi, pj = verts.index(i), verts.index(j)
    num = det_int(lu_int(strike(rows, (pi, pj)), [s for k, s in enumerate(scales) if k not in (pi, pj)]))
    den = det_int(lu_int(strike(rows, (pi,)), [s for k, s in enumerate(scales) if k != pi]))
    return Fraction(num * scales[pj], den)


def _check_all_pairs(g):
    # resistance_all_pairs has exactly the pairs i < j of one component,
    # each equal to the single-pair oracle's Fraction and to the referee's.
    values = resistance_all_pairs(g)
    adj = g.adjacency()
    assert sorted(values) == [
        (i, j) for i in g.vertices for j in sorted(reachable(adj, i)) if j > i
    ]
    for (i, j), value in values.items():
        assert value == resistance_det(g, i, j).value, f"r({i},{j}) differs"
        assert value == resistance_det(g, j, i).value == _minor_ratio(g, i, j), \
            f"r({i},{j}) is off the minor ratio"


@pytest.mark.parametrize("g", [
    *(straight_linear_2tree(n) for n in range(3, 17)),
    bent_linear_2tree(11, 5),
    straight_linear_ktree(9, 3),
    triangular_grid(5).graph,
    TWO_WEIGHTED_COMPONENTS,
    # components of one vertex (an empty factorization) and of two (1 x 1)
    WeightedGraph(5, [(1, 2, 1), (2, 3, "2/3")]),
    WeightedGraph(5, [(1, 2, "3/2"), (3, 4, 1), (4, 5, 2), (3, 5, "1/3")]),
], ids=[*(f"strip{n}" for n in range(3, 17)), "bent11", "3tree9", "grid5", "two-weighted",
        "isolated-vertices", "two-vertex-component"])
def test_all_pairs_equal_det_on_every_pair(g):
    _check_all_pairs(g)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_det_matches_enumeration_and_float_on_random_multigraphs(data):
    # A multigraph on at most 8 vertices: a random tree, or no tree, so
    # that most draws are disconnected, plus up to 6 more edges, parallel
    # ones allowed. Every minor lu_int factors here must pass its
    # positive-pivot check.
    n = data.draw(st.integers(2, 8))
    pairs = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if not data.draw(st.booleans()):
        pairs = []
    pairs += data.draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1]),
        max_size=6,
    ))
    i, j = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    g = WeightedGraph(n, [(u, v, 1) for u, v in pairs])
    forests = brute_force_two_forest_counts(g)[min(i, j), max(i, j)]
    assert two_forest_count(g, i, j) == forests
    _check_all_pairs(g)
    if j not in reachable(g.adjacency(), i):
        return
    # Unit resistances: r(i, j) is 2-forests separating i and j over trees.
    r = resistance_det(g, i, j).value
    assert r * brute_force_tree_enumeration(g) == forests
    # Rational resistances make the Laplacian's row scales differ from 1.
    weights = data.draw(st.lists(
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
        min_size=len(pairs), max_size=len(pairs),
    ))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
    r = resistance_det(g, i, j).value
    assert abs(resistance_float(g, i, j).value - r) <= 1e-9 * r
    _check_all_pairs(g)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_det_matches_float_on_random_2trees(data):
    # A random 2-tree: a triangle, then each new vertex glued to both ends
    # of an edge already there, so most are neither straight nor bent.
    n = data.draw(st.integers(3, 14))
    edges = [(1, 2), (1, 3), (2, 3)]
    for v in range(4, n + 1):
        a, b = edges[data.draw(st.integers(0, len(edges) - 1))]
        edges += [(a, v), (b, v)]
    i, j = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    g = WeightedGraph(n, [(u, v, 1) for u, v in edges])
    r = resistance_det(g, i, j).value
    assert abs(resistance_float(g, i, j).value - r) <= 1e-9 * r
    _check_all_pairs(g)


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
        if reachable(pruned.adjacency(), 1) != set(pruned.vertices):
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
    assert two_forest_count(g, 1, 3) == 0
    # The one 2-forest is the path 1-2-3 and the isolated 4.
    assert brute_force_two_forest_counts(g) == {
        (1, 2): 0, (1, 3): 0, (1, 4): 1, (2, 3): 0, (2, 4): 1, (3, 4): 1}


def test_two_forest_count_across_components_multiplies_tree_counts():
    # With i and j struck, the minor factors over the components: the two
    # of i and j give their tree counts, and any third one gives 0.
    two_edges = WeightedGraph(4, [(1, 2, 1), (3, 4, 1)])
    assert two_forest_count(two_edges, 1, 3) == brute_force_two_forest_counts(two_edges)[1, 3] == 1
    triangle_and_edge = WeightedGraph(5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1)])
    assert two_forest_count(triangle_and_edge, 1, 4) == 3
    assert brute_force_two_forest_counts(triangle_and_edge)[1, 4] == 3
    three_parts = WeightedGraph(5, [(1, 2, 1), (3, 4, 1)])
    assert two_forest_count(three_parts, 1, 3) == brute_force_two_forest_counts(three_parts)[1, 3] == 0


def test_counts_read_the_pair_solve_not_the_resistance(monkeypatch):
    # Both counts are the struck minor rule; the 2-forest count reads the
    # same pair reading as resistance_det, det(M) r(i, j).
    g = straight_linear_2tree(9)
    want = {(i, j): resistance_det(g, i, j).value * fib(16)
            for i in range(1, 10) for j in range(i + 1, 10)}
    monkeypatch.setattr(engine, "resistance_det", None)
    monkeypatch.setattr(engine, "Fraction", None)
    assert spanning_tree_count(g) == fib(16)
    assert {pair: two_forest_count(g, *pair) for pair in want} == want


def test_count_checks_run_in_order():
    # unit resistances first, then the pair
    weighted = WeightedGraph(3, [(1, 2, "1/2"), (2, 3, 1)])
    with pytest.raises(ValueError, match="^two-forest counting needs unit resistances$"):
        two_forest_count(weighted, 1, 7)
    with pytest.raises(ValueError, match=r"^pair \(1,7\) out of range 1..3$"):
        two_forest_count(straight_linear_2tree(3), 1, 7)
    with pytest.raises(ValueError, match="^terminals must be distinct$"):
        two_forest_count(straight_linear_2tree(3), 2, 2)


def test_count_checks_every_resistance_after_a_shared_unit():
    # A run of edges sharing one unit object is compared once; an edge
    # after it with a resistance other than 1 is still refused, wherever
    # it stands in the edge order.
    one = Fraction(1)
    shared = [(1, 2, one), (1, 3, one), (2, 3, one)]
    for odd in ((3, 4, Fraction(2)), (1, 4, Fraction(1, 2)), (1, 2, Fraction(1, 3))):
        g = WeightedGraph(4, shared + [odd])
        assert sum(r is one for _, _, r in g.edges) == 3
        with pytest.raises(ValueError, match="^spanning tree counting needs unit resistances$"):
            spanning_tree_count(g)
        with pytest.raises(ValueError, match="^two-forest counting needs unit resistances$"):
            two_forest_count(g, 1, 4)


def test_brute_force_counters_refuse_more_than_ten_vertices():
    path = WeightedGraph(11, [(v, v + 1, 1) for v in range(1, 11)])
    message = "brute force limited to 10 vertices, got 11"
    with pytest.raises(ValueError, match=message):
        brute_force_tree_enumeration(path)
    with pytest.raises(ValueError, match=message):
        brute_force_two_forest_counts(path)


def test_tree_enumeration_agrees():
    for n in range(3, 8):
        g = straight_linear_2tree(n)
        assert brute_force_tree_enumeration(g) == spanning_tree_count(g)


def test_two_forest_counts_and_enumeration():
    for n in range(4, 8):
        g = straight_linear_2tree(n)
        enumerated = brute_force_two_forest_counts(g)
        assert len(enumerated) == n * (n - 1) // 2
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                fast = two_forest_count(g, i, j)
                slow = enumerated[i, j]
                assert fast == slow, f"n={n} pair ({i},{j}): {fast} vs {slow}"


def test_two_forest_frozen_values():
    g = straight_linear_2tree(4)
    assert two_forest_count(g, 1, 2) == 5
    assert two_forest_count(g, 2, 3) == 4
    assert two_forest_count(g, 1, 4) == 8


# === Floating-point solver ===


def test_float_matches_exact_on_strip_30():
    g = straight_linear_2tree(30)
    exact = float(reduce_straight(30, 1, 30).value)
    assert abs(resistance_float(g, 1, 30).value - exact) < 1e-9


def test_float_on_grid():
    tg = triangular_grid(4)
    corner = tg.graph.vertex_count
    exact = float(resistance_det(tg.graph, tg.bottom_left, corner).value)
    got = resistance_float(tg.graph, tg.bottom_left, corner).value
    assert abs(got - exact) < 1e-9


def test_float_on_long_path_graph():
    # on the path graph the answer is n-1
    n = 2200
    g = straight_linear_ktree(n, 1)
    assert abs(resistance_float(g, 1, n).value - (n - 1)) < 1e-6 * n


def test_float_on_20000_vertex_strip():
    # r(1, n) by the closed form; r_endpoints gives the same value but also
    # sums its 20 000-term series, which takes over a minute. The bits are
    # pinned too: how the strip is built must not move any of them.
    for n, bits in ((20000, "0x1.f4050c7573b1cp+11"), (2000, "0x1.902863ac113dep+8")):
        got = resistance_float(straight_linear_2tree(n), 1, n).value
        want = float(r_closed(n - 2, 1, n - 1))
        assert abs(got - want) <= 1e-9 * want
        assert got.hex() == bits


def test_float_validation():
    g = bent_linear_2tree(7, 3)
    with pytest.raises(ValueError):
        resistance_float(g, 2, 2)
    with pytest.raises(ValueError, match="vertices 1 and 3 are disconnected"):
        resistance_float(WeightedGraph(4, [(1, 2, 1), (3, 4, 1)]), 1, 3)
    for tol in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            resistance_float(g, 1, 7, tol=tol)


def _float_outcomes(g, i, j, tol=1e-9):
    # The engine's and the referee's value bits, or each error's type and
    # message.
    def outcome(solve):
        try:
            return solve().hex()
        except (ValueError, RuntimeError) as exc:
            return type(exc), str(exc)

    return (outcome(lambda: resistance_float(g, i, j, tol=tol).value),
            outcome(lambda: resistance_float_ref(g, i, j, tol=tol)))


def _random_multigraph(rng):
    # A forest over a few blocks of vertices, most vertices joined to an
    # earlier one of their block and the rest left isolated, plus extra
    # edges inside blocks, some drawn twice; resistances spread widely.
    n = rng.randrange(2, 30)
    blocks = rng.randrange(1, 4)
    block = [rng.randrange(blocks) for _ in range(n + 1)]
    edges = []
    for v in range(2, n + 1):
        mates = [u for u in range(1, v) if block[u] == block[v]]
        if mates and rng.random() < 0.85:
            edges.append((rng.choice(mates), v))
    for _ in range(rng.randrange(2 * n)):
        u, v = rng.sample(range(1, n + 1), 2)
        if block[u] == block[v]:
            edges += [(u, v)] * rng.choice((1, 1, 2))
    digits = rng.choice((3, 3, 20))
    return WeightedGraph(n, [(u, v, Fraction(rng.randrange(1, 10 ** digits),
                                             rng.randrange(1, 10 ** digits)))
                             for u, v in edges])


def test_float_solve_matches_the_entry_by_entry_referee_bit_for_bit():
    rng = random.Random(24)
    for _ in range(150):
        g = _random_multigraph(rng)
        for _ in range(4):
            i, j = rng.sample(g.vertices, 2)
            tol = rng.choice((1e-9, 1e-9, 1e-17))
            got, want = _float_outcomes(g, i, j, tol)
            assert got == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_resistance_objects_give_the_answers_of_distinct_equal_ones(data):
    # One weighted multigraph built twice: its edges sharing a few
    # resistance objects, in runs and apart, and each edge with an equal
    # object of its own. A spanning tree plus more edges, one of them a
    # parallel copy. Sharing must change no float bit, no integer of the
    # factorization and no exact answer, and both builds match the referees.
    n = data.draw(st.integers(2, 8))
    pairs = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs += data.draw(st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
                                .map(tuple), max_size=6))
    pairs.append(pairs[data.draw(st.integers(0, n - 2))])
    pool = data.draw(st.lists(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
                              min_size=1, max_size=3))
    picks = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in pairs]
    shared = WeightedGraph(n, [(u, v, r) for (u, v), r in zip(pairs, picks)])
    distinct = WeightedGraph(n, [(u, v, Fraction(r.numerator, r.denominator))
                                 for (u, v), r in zip(pairs, picks)])
    assert len({id(r) for _, _, r in shared.edges}) <= len(pool)
    assert len({id(r) for _, _, r in distinct.edges}) == len(pairs)
    assert shared == distinct
    # each component's verts, scales, U and tree minor
    assert _graph_facts.__wrapped__(shared) == _graph_facts.__wrapped__(distinct)
    i, j = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    answers = []
    for g in (shared, distinct):
        _graph_facts.cache_clear()
        exact = resistance_det(g, i, j).value
        assert exact == minor_ratio_ref(g, i, j)
        got, want = _float_outcomes(g, i, j)
        assert got == want
        answers.append((exact, got))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("graph, pair, message", [
    # a resistance too large or too small for a float conductance, on an
    # edge inside i's component and on one outside it
    ([(1, 2, 1), (2, 3, "1e400"), (3, 4, 1)], (1, 4), "edge (2,3): conductance"),
    ([(1, 2, 1), (2, 3, 1), (4, 5, "1e-400")], (1, 3), "edge (4,5): conductance"),
    ([(1, 2, "1e-400"), (2, 3, 1), (4, 5, 1)], (2, 3), "edge (1,2): conductance"),
    ([(1, 2, 1), (2, 3, 1), (4, 5, "1e400")], (1, 3), "edge (4,5): conductance"),
    # a disconnected pair is named so even when an edge is bad too
    ([(1, 2, "1e400"), (3, 4, 1), (4, 5, "1e-400")], (1, 3), "vertices 1 and 3 are disconnected"),
], ids=["1e400-inside", "1e-400-outside", "1e-400-inside", "1e400-outside", "disconnected-first"])
def test_float_errors_match_the_referee(graph, pair, message):
    g = WeightedGraph(5, graph)
    got, want = _float_outcomes(g, *pair)
    assert got == want
    assert got[0] is ValueError and got[1].startswith(message)


def test_float_on_a_header_of_isolated_vertices():
    g = WeightedGraph(300000, [(1, 2, 1)])
    assert resistance_float(g, 1, 2).value == 1.0
    with pytest.raises(ValueError, match="^vertices 1 and 3 are disconnected$"):
        resistance_float(g, 1, 3)
