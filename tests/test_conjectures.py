"""Probe-table tests.

These check table plumbing only: labels, methods, and values that are
theorems (path increments, tiny grids). No test here asserts that a
conjectured limit or monotonicity actually holds.
"""

from fractions import Fraction

import pytest

from twotree import conjectures
from twotree.conjectures import (
    LABEL,
    bent_diameter_growth,
    ktree_increments,
    triangle_grid_growth,
)
from twotree.engine import resistance_det
from twotree.formulas import r_endpoints
from twotree.graphs import triangular_grid


def test_label_is_conjectural_everywhere():
    assert LABEL == "conjectural"
    assert ktree_increments(1, 6)["label"] == "conjectural"
    assert triangle_grid_growth(3)["label"] == "conjectural"
    assert bent_diameter_growth(7)["label"] == "conjectural"


def test_path_increments_are_exactly_one():
    table = ktree_increments(1, 12)
    assert table["target"] == Fraction(6, 6)
    for row in table["rows"][1:]:
        assert row["increment"] == 1, f"n={row['n']}"
        assert row["method"] == "exact"


def test_strip_rows_match_endpoint_formula():
    table = ktree_increments(2, 12)
    assert table["target"] == Fraction(1, 5)
    for row in table["rows"]:
        assert row["value"] == r_endpoints(row["n"] - 2), f"n={row['n']}"


def test_ktree_increments_validation():
    with pytest.raises(ValueError):
        ktree_increments(0, 10)
    with pytest.raises(ValueError):
        ktree_increments(3, 4)


def test_grid_smallest_case_is_two_thirds():
    table = triangle_grid_growth(2)
    row = table["rows"][0]
    assert row["value"] == Fraction(2, 3)
    assert row["vertex_rows"] == 2
    assert row["cell_rows"] == 1
    assert row["cells"] == 1
    assert row["difference"] is None


def test_grid_rows_agree_with_determinant():
    table = triangle_grid_growth(5)
    for row in table["rows"]:
        grid = triangular_grid(row["vertex_rows"])
        expect = resistance_det(grid.graph, grid.apex, grid.bottom_left).value
        assert row["value"] == expect
        assert row["vertices"] == grid.graph.vertex_count
        assert row["method"] == "exact"
    # flags must mirror the sign of the reported difference, nothing more
    for row in table["rows"][1:]:
        assert row["increasing"] is (row["difference"] > 0)


def test_bent_bend_rules_place_the_bend():
    first = bent_diameter_growth(10, bend_rule="first")
    last = bent_diameter_growth(10, bend_rule="last")
    middle = bent_diameter_growth(10, bend_rule="middle")
    for row in first["rows"]:
        assert row["bend_k"] == 3
    for row in last["rows"]:
        assert row["bend_k"] == row["n"] - 3
    for row in middle["rows"]:
        assert 3 <= row["bend_k"] <= row["n"] - 3


def test_probe_default_sizes():
    assert [row["n"] for row in ktree_increments(2)["rows"]] == list(range(3, 19))
    assert [row["vertex_rows"] for row in triangle_grid_growth()["rows"]] == list(range(2, 13))
    default = bent_diameter_growth()
    assert [row["n"] for row in default["rows"]] == list(range(6, 25))
    assert default == bent_diameter_growth(24, "middle")


def test_bent_growth_validation():
    with pytest.raises(ValueError):
        bent_diameter_growth(5)
    with pytest.raises(ValueError):
        bent_diameter_growth(8, bend_rule="sideways")


def test_exact_cutoff_env_override(monkeypatch):
    # The cutoff is read at call time, so moving it moves the methods.
    assert conjectures.MAX_EXACT_VERTICES == 300
    # Bent increments are floats even between exact rows.
    bent = bent_diameter_growth(8)["rows"]
    assert [row["method"] for row in bent] == ["exact"] * 3
    assert [type(row["increment"]) for row in bent] == [type(None), float, float]
    monkeypatch.setattr(conjectures, "MAX_EXACT_VERTICES", 5)
    table = ktree_increments(1, 8)
    methods = {row["n"]: row["method"] for row in table["rows"]}
    assert methods[5] == "exact"
    assert methods[6] == "float"
    # An exact row's increment is exact; the first float row's is a float.
    increments = {row["n"]: row["increment"] for row in table["rows"]}
    assert type(increments[5]) is Fraction and increments[5] == Fraction(1)
    assert type(increments[6]) is float and increments[6] == 1.0

