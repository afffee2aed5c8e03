from fractions import Fraction
import random
import re

import pytest

from laplacian_reference import minor_ratio_ref
from twotree import engine, ranking
from twotree.formulas import _closed_numerator, _closed_numerators, _sum_numerator, r_closed
from twotree.graphs import WeightedGraph, straight_linear_2tree, triangular_grid
from twotree.ranking import (
    TieGroup,
    predict_links,
    rank_nonedges,
    rank_nonedges_graph,
    render_ranking,
)

N9_GOLDEN = (
    "{3,6} & {4,7}, {2,5} & {5,8}, {1,4} & {6,9}, {3,7}, {2,6} & {4,8}, "
    "{1,5} & {5,9}, {2,7} & {3,8}, {1,6} & {4,9}, {2,8}, {1,7} & {3,9}, "
    "{1,8} & {2,9}, {1,9}"
)


def test_rendered_ranking_n9_matches_golden():
    assert render_ranking(rank_nonedges(9)) == N9_GOLDEN


def test_rank_n5_by_hand():
    groups = rank_nonedges(5)
    # candidates are {1,4},{2,5} at 19/21, {1,5} at 8/7
    assert [g.pairs for g in groups] == [((1, 4), (2, 5)), ((1, 5),)]
    assert groups[0].value == Fraction(19, 21)
    assert groups[1].value == Fraction(8, 7)


def test_rank_covers_every_nonedge_once():
    for n in (6, 9, 13):
        g = straight_linear_2tree(n)
        seen = [p for grp in rank_nonedges(n) for p in grp.pairs]
        expect = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if j not in g.adjacency()[i]
        ]
        assert sorted(seen) == expect, f"n={n} coverage"
        assert len(seen) == len(set(seen))


def test_groups_are_strictly_increasing_and_mirror_paired():
    for n in (7, 10, 15):
        groups = rank_nonedges(n)
        values = [g.value for g in groups]
        assert values == sorted(set(values)), f"n={n} not strictly increasing"
        for grp in groups:
            assert len(grp.pairs) in (1, 2)
            if len(grp.pairs) == 2:
                (a, b), (c, d) = grp.pairs
                assert (c, d) == (n - b + 1, n - a + 1), f"n={n} mirror {grp.pairs}"
            else:
                (a, b) = grp.pairs[0]
                assert (a, b) == (n - b + 1, n - a + 1), f"n={n} self-mirror"


def test_last_group_is_the_endpoint_pair():
    for n in (5, 8, 12):
        assert rank_nonedges(n)[-1].pairs == ((1, n),)


def test_structural_order_verified_up_to_sixty():
    # rank_nonedges checks each mirror tie and each rise along the
    # structural order as it walks it, so this is a sweep for the
    # AssertionError
    for n in range(5, 61):
        groups = rank_nonedges(n)
        assert len(groups) >= 1


# Each way the walk's check can fail at n = 9, made by rewriting offset k's
# row of numerators, keyed by j of (j, j + k). Offset 3 walks (3,6) & (4,7),
# (2,5) & (5,8), (1,4) & (6,9); offset 4 starts at the centered (3,7).
@pytest.mark.parametrize("k, edit, pair", [
    (3, lambda row: {4: row[4] + 1}, (3, 6)),
    (3, lambda row: {2: row[3] - 1, 5: row[3] - 1}, (2, 5)),
    (4, lambda row: {3: 0}, (3, 7)),
    (3, lambda row: {2: row[3], 5: row[3]}, (2, 5)),
], ids=["mirror-untied", "below-within-offset", "below-across-offsets", "equal-groups"])
def test_structural_order_check_refuses_a_broken_order(monkeypatch, k, edit, pair):
    real = ranking._closed_numerators

    def corrupt(m, k_row, js):
        row = dict(zip(js, real(m, k_row, js)))
        if k_row == k:
            row.update(edit(row))
        return [row[j] for j in js]

    monkeypatch.setattr(ranking, "_closed_numerators", corrupt)
    message = f"structural and value orders disagree for n=9 at {pair}"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        rank_nonedges(9)


def _fraction_groups(values):
    # The referees' ranking of pair -> Fraction: sorted by (value, pair),
    # grouped on equality.
    groups = []
    for pair in sorted(values, key=lambda p: (values[p], p)):
        if groups and values[groups[-1][0]] == values[pair]:
            groups[-1].append(pair)
        else:
            groups.append([pair])
    return [TieGroup(values[g[0]], tuple(g)) for g in groups]


def _fraction_ranking(n):
    # The referee: r_closed for every non-edge.
    return _fraction_groups({(j, j + k): r_closed(n - 2, j, k)
                             for k in range(3, n) for j in range(1, n - k + 1)})


def test_rank_equals_the_fraction_ranking():
    for n in (*range(5, 81), 200, 204):
        groups = rank_nonedges(n)
        assert groups == _fraction_ranking(n), f"n={n}"
        assert all(type(g.value) is Fraction for g in groups), f"n={n}"


def test_row_reader_equals_the_single_pair_numerator():
    # Every row of every strip with m <= 40, the j with a negative index
    # m - 2j - k + 3 included. _closed_numerator reads a row of one entry,
    # from the walk's seed alone; the summation form is an independent check.
    negative = 0
    for m in range(1, 41):
        for k in range(1, m + 2):
            js = range(1, m + 3 - k)
            row = _closed_numerators(m, k, js)
            assert row == [_closed_numerator(m, j, k) for j in js]
            assert row == [_sum_numerator(m, j, k) for j in js]
            negative += sum(m - 2 * j - k + 3 < 0 for j in js)
    assert negative > 0


def test_rank_rejects_small_n():
    with pytest.raises(ValueError):
        rank_nonedges(4)


def test_predict_links_lowest_index_cuts_groups():
    picks = predict_links(9, 3, tie_policy="lowest-index")
    assert picks == [(3, 6), (4, 7), (2, 5)]


def test_predict_links_report_group_keeps_ties_whole():
    picks = predict_links(9, 3, tie_policy="report-group")
    assert picks == [(3, 6), (4, 7), (2, 5), (5, 8)]
    assert predict_links(9, 4, tie_policy="report-group") == picks


def test_predict_links_full_budget():
    total = len([p for g in rank_nonedges(7) for p in g.pairs])
    assert len(predict_links(7, total, tie_policy="lowest-index")) == total


def test_predict_links_validation():
    with pytest.raises(ValueError):
        predict_links(9, 0)
    with pytest.raises(ValueError):
        predict_links(9, 100)
    with pytest.raises(ValueError):
        predict_links(9, 2, tie_policy="coin-flip")


def test_predict_links_refuses_an_unknown_policy_before_ranking(monkeypatch):
    monkeypatch.setattr(ranking, "rank_nonedges", lambda n: pytest.fail("ranked first"))
    with pytest.raises(ValueError, match="^unknown tie_policy 'coin-flip'$"):
        predict_links(400, 2, "coin-flip")


def test_graph_ranking_agrees_with_strip_ranking():
    g = straight_linear_2tree(9)
    generic = rank_nonedges_graph(g)
    special = rank_nonedges(9)
    assert [grp.value for grp in generic] == [grp.value for grp in special]
    assert [grp.pairs for grp in generic] == [grp.pairs for grp in special]


def _connected_multigraph(rng):
    # A random spanning tree on 2 to 10 vertices plus extra edges, some
    # drawn twice, with resistances from a few small rationals so that
    # exact ties are common.
    n = rng.randint(2, 10)
    edges = [(v, rng.randrange(1, v)) for v in range(2, n + 1)]
    for _ in range(rng.randrange(2 * n)):
        edges += [tuple(rng.sample(range(1, n + 1), 2))] * rng.choice((1, 1, 2))
    return WeightedGraph(n, [(u, v, Fraction(rng.randint(1, 3), rng.randint(1, 3)))
                             for u, v in edges])


def test_graph_ranking_equals_the_minor_ratio_ranking_seeded():
    # The referee: every non-edge's minor ratio from the test-local
    # Laplacian assembly.
    rng = random.Random(25)
    shapes = set()
    for _ in range(120):
        g = _connected_multigraph(rng)
        edges = {(u, v) for u, v, _ in g.edges}
        groups = rank_nonedges_graph(g)
        assert groups == _fraction_groups({
            (u, v): minor_ratio_ref(g, u, v)
            for u in g.vertices for v in range(u + 1, g.vertex_count + 1) if (u, v) not in edges
        }), g
        assert all(type(grp.value) is Fraction for grp in groups)
        if any(len(grp.pairs) > 1 for grp in groups):
            shapes.add("tie")
        if len(edges) < len(g.edges):
            shapes.add("parallel")
        if any(grp.value.denominator > 1 for grp in groups):
            shapes.add("rational")
    assert shapes == {"tie", "parallel", "rational"}


def test_graph_ranking_refuses_a_disconnected_graph_and_ranks_one_vertex_to_nothing():
    with pytest.raises(ValueError, match="^vertices 1 and 2 are disconnected$"):
        rank_nonedges_graph(WeightedGraph(5, [(1, 3, 1), (3, 5, 1), (2, 4, 1)]))
    assert rank_nonedges_graph(WeightedGraph(1, [])) == []


def test_graph_ranking_makes_one_adjugate_per_component_and_no_minor(monkeypatch):
    # With the Laplacian facts warm, ranking reads every value from one
    # adjugate per component, inverse_int's rows of the kept factorization;
    # no pair and no read pays an elimination of its own.
    eliminations, reads = [], []
    real_elim, real_read = engine.lu_int, engine.inverse_int
    monkeypatch.setattr(engine, "lu_int", lambda rows, scales:
                        eliminations.append(len(rows)) or real_elim(rows, scales))
    monkeypatch.setattr(engine, "inverse_int", lambda lu, scales:
                        reads.append(len(lu)) or real_read(lu, scales))
    grid = triangular_grid(6).graph
    split = WeightedGraph(6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1)])
    for g in (grid, split):
        engine._graph_facts(g)
    eliminations.clear()
    rank_nonedges_graph(grid)
    assert (eliminations, reads) == ([], [grid.vertex_count - 1])
    reads.clear()
    # With its facts warm, a disconnected graph is refused before any read.
    with pytest.raises(ValueError, match="vertices 1 and 4 are disconnected"):
        rank_nonedges_graph(split)
    assert (eliminations, reads) == ([], [])


def test_graph_ranking_groups_are_tie_groups():
    groups = rank_nonedges_graph(straight_linear_2tree(6))
    assert all(isinstance(grp, TieGroup) for grp in groups)


def test_render_ranking_format():
    groups = (
        TieGroup(Fraction(1, 2), ((1, 4), (2, 5))),
        TieGroup(Fraction(2, 3), ((1, 5),)),
    )
    assert render_ranking(groups) == "{1,4} & {2,5}, {1,5}"
