"""End-to-end command-line checks through main(argv)."""

import argparse
import contextlib
import csv
from fractions import Fraction
import hashlib
import inspect
import io
import json
import os
from pathlib import Path
import random
import re
import shlex
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st
import pytest

from twotree import cli, conjectures, engine, formulas, ranking
from twotree.cli import main
from twotree.engine import STEP_KINDS, two_forest_count
from twotree.graphs import WeightedGraph, read_edge_list, straight_linear_2tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === gen ===


def test_gen_straight_round_trips(capsys, tmp_path):
    code, out, err = run_cli(capsys, "gen", "--family", "straight", "--n", "6")
    assert code == 0 and err == ""
    assert read_edge_list(io.StringIO(out)) == straight_linear_2tree(6)


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "strip.edges"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "bent", "--n", "7", "--bend-k", "3",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    with open(target) as fh:
        g = read_edge_list(fh)
    assert g.vertex_count == 7 and len(g.edges) == 11


def test_gen_grid(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "grid", "--rows", "3")
    assert code == 0
    g = read_edge_list(io.StringIO(out))
    assert g.vertex_count == 6 and len(g.edges) == 9


def test_gen_missing_param_exits_two(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "straight")
    assert code == 2
    assert "needs --n" in err
    assert run_cli(capsys, "gen") == (2, "", "error: gen needs --family\n")


def test_gen_bad_value_exits_two(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "straight", "--n", "2")
    assert code == 2 and "error" in err


# === res ===


def test_res_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, "res", "--family", "straight", "--n", "9", "--pair", "1", "9"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["pair"] == [1, 9]
    by_method = {r["method"]: r for r in doc["results"]}
    assert set(by_method) == {"delta-y", "determinant", "float"}
    dy, det = by_method["delta-y"], by_method["determinant"]
    assert (dy["value_num"], dy["value_den"]) == (det["value_num"], det["value_den"])
    exact = dy["value_num"] / dy["value_den"]
    assert abs(by_method["float"]["value"] - exact) < 1e-9


@pytest.mark.parametrize("source, methods", [
    (("--family", "straight", "--n", "6"), ["delta-y", "determinant", "float"]),
    (("--family", "grid", "--rows", "3"), ["determinant", "float"]),
    (("--graph", None), ["determinant", "float"]),
], ids=["straight", "grid", "graph"])
def test_res_all_reports_methods_in_order(capsys, tmp_path, source, methods):
    # delta-y only on the straight family, the rest always, in METHODS order
    if source[0] == "--graph":
        source = ("--graph", str(tmp_path / "g.edges"))
        run_cli(capsys, "gen", "--family", "straight", "--n", "6", "--out", source[1])
    code, out, err = run_cli(capsys, "res", *source, "--pair", "1", "6", "--method", "all")
    assert (code, err) == (0, "")
    assert [r["method"] for r in json.loads(out)["results"]] == methods


def test_emit_json_refuses_what_json_cannot_hold():
    out = io.StringIO()
    cli._emit_json({"value": Fraction(2, 3)}, out)
    assert json.loads(out.getvalue()) == {"value": {"num": 2, "den": 3}}
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._emit_json({"value": {1, 2}}, io.StringIO())


def test_res_single_method_det_on_graph_file(capsys, tmp_path):
    target = tmp_path / "g.edges"
    run_cli(capsys, "gen", "--family", "straight", "--n", "5", "--out", str(target))
    code, out, _ = run_cli(
        capsys, "res", "--graph", str(target), "--pair", "1", "5", "--method", "det"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == [
        {"method": "determinant", "value_num": 8, "value_den": 7}
    ]


def test_res_dy_rejected_off_family(capsys, tmp_path):
    target = tmp_path / "g.edges"
    run_cli(capsys, "gen", "--family", "grid", "--rows", "3", "--out", str(target))
    code, _, err = run_cli(
        capsys, "res", "--graph", str(target), "--pair", "1", "6", "--method", "dy"
    )
    assert code == 2 and "dy" in err


def test_res_trace_is_json_lines(capsys, tmp_path):
    trace_file = tmp_path / "steps.jsonl"
    code, _, _ = run_cli(
        capsys, "res", "--family", "straight", "--n", "8", "--pair", "1", "8",
        "--trace", str(trace_file),
    )
    assert code == 0
    with open(trace_file) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows, "trace file is empty"
    assert [r["step"] for r in rows] == list(range(1, len(rows) + 1))
    assert all(r["kind"] in STEP_KINDS for r in rows)


def test_res_trace_without_dy_exits_two(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "res", "--family", "grid", "--rows", "3", "--pair", "1", "6",
        "--trace", str(tmp_path / "t.jsonl"),
    )
    assert code == 2 and "trace" in err


def test_res_missing_pair_exits_two(capsys):
    code, _, _ = run_cli(capsys, "res", "--family", "straight", "--n", "6")
    assert code == 2


def _edge_file(tmp_path, *edges, header="vertices 3"):
    target = tmp_path / "g.edges"
    target.write_text("\n".join((header,) + edges) + "\n")
    return str(target)


@pytest.mark.parametrize("header, edge, lineno", [
    *(pytest.param("vertices 3", f"2 3 {token}", 3, id=token)
      for token in ["1/0", "inf", "-1", "0", "one"]),
    pytest.param("vertices x", "2 3 1", 1, id="count-x"),
    pytest.param("vertices 0", "2 3 1", 1, id="count-0"),
    pytest.param("vertices 3", "1 9 1", 3, id="out-of-range"),
    pytest.param("vertices 3", "1 1 1", 3, id="self-loop"),
    pytest.param("vertices 3", "2 3 " + "x" * 5000, 3, id="resistance-of-5000-x"),
    pytest.param("vertices 3", "2 3 1 " + "y" * 5000, 3, id="long-fourth-field"),
    pytest.param("vertices 3", "2 3 -" + "9" * 4000, 3, id="negative-4000-digits"),
    pytest.param("vertices 3", "2 -" + "9" * 4000 + " 1", 3, id="vertex-4000-digits"),
    pytest.param("vertices 3", "9" * 4000 + " " + "9" * 4000 + " 1", 3, id="self-loop-4000-digits"),
    pytest.param("vertices -" + "9" * 4000, "2 3 1", 1, id="count-4000-digits"),
    pytest.param("vertices 3", "x" * 5000 + " 2 1", 3, id="vertex-5000-x"),
    pytest.param("vertices " + "x" * 5000, "2 3 1", 1, id="count-5000-x"),
])
def test_res_bad_edge_file_resistance_exits_two(capsys, tmp_path, header, edge, lineno):
    # Every fault in an edge file names its line, the resistance faults and
    # the vertex faults alike, and echoes at most 20 characters of the token
    # or line at fault, however long it is.
    path = _edge_file(tmp_path, "1 2 1", edge, header=header)
    code, out, err = run_cli(capsys, "res", "--graph", path, "--pair", "1", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert len(err.encode()) < 200


_GOOD_EDGE_FILE = ["vertices 4", "1 2 1", "1 3 1/2", "2 3 3", "2 4 1", "3 4 2/3"]
_BAD_FIELDS = ["0", "5", "-1", "x", "1/0", "2/-3", "inf", "nan", "1e400", "0x1", "vertices", "#",
               "", "1 2"]


@st.composite
def _edge_file_text(draw):
    # A valid edge file with up to three edits: a field replaced by a bad
    # one or by bare text, or a line dropped or doubled. Vertex counts stay
    # small, so every graph that parses is cheap to solve.
    lines = [line.split() for line in _GOOD_EDGE_FILE]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["field", "drop", "double"]))
        if edit == "drop":
            del lines[at]
        elif edit == "double":
            lines.insert(at, list(lines[at]))
        else:
            field = draw(st.integers(0, len(lines[at]) - 1))
            lines[at][field] = draw(st.one_of(st.sampled_from(_BAD_FIELDS), st.text(max_size=6)))
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_edge_file_text(), st.text(max_size=40)))
def test_random_edge_file_text_parses_or_exits_two_with_one_line(tmp_path_factory, text):
    try:
        assert isinstance(read_edge_list(io.StringIO(text)), WeightedGraph)
    except ValueError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzzed.edges"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["res", "--graph", str(path), "--pair", "1", "2", "--method", "det"])
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["results"]
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("resistance", ["1e400", "1.5e-400"])
def test_res_conductance_out_of_float_range_exits_two(capsys, tmp_path, resistance):
    path = _edge_file(tmp_path, "1 2 1", f"2 3 {resistance}")
    code, out, err = run_cli(
        capsys, "res", "--graph", path, "--pair", "1", "3", "--method", "float"
    )
    assert code == 2 and out == ""
    assert err == "error: edge (2,3): conductance is not a positive finite float\n"


@pytest.mark.parametrize("resistance", [
    "1e5000", "1e-5000", "1e2000000",
    pytest.param("1" + "0" * 5000, id="written-out"),
    pytest.param("1/1" + "0" * 5000, id="fraction"),
])
def test_res_resistance_past_the_int_digit_limit_exits_two(capsys, tmp_path, resistance):
    # int() refuses a resistance written out in more digits than the limit;
    # one written with an exponent is refused too, before its power of ten
    # is built, so even 1e2000000 is answered at once. Either way the error
    # names the limit and does not echo the whole token.
    path = _edge_file(tmp_path, f"1 2 {resistance}", "2 3 1")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "res", "--graph", path, "--pair", "1", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: ") and err.count("\n") == 1
    assert f"needs more than {sys.get_int_max_str_digits()} digits" in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_res_bad_tol_exits_two(capsys, tol):
    # refused whatever the method, though only the float solve reads it
    for method in ("float", "det", "dy", "all"):
        code, out, err = run_cli(
            capsys, "res", "--family", "straight", "--n", "6", "--pair", "1", "6",
            "--method", method, "--tol", tol,
        )
        assert code == 2 and out == "", method
        assert err == f"error: tol must be positive and finite, got {float(tol)}\n", method


def _raises(exc):
    def engine_call(*args, **kwargs):
        raise exc

    return engine_call


def test_float_residual_failure_exits_one_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "resistance_float", _raises(RuntimeError("residual 3.6e-09 exceeds tolerance 1e-09"))
    )
    code, out, err = run_cli(
        capsys, "res", "--family", "straight", "--n", "9", "--pair", "1", "9", "--method", "float"
    )
    assert code == 1 and out == ""
    assert err == "error: residual 3.6e-09 exceeds tolerance 1e-09\n"
    assert "Traceback" not in err


def test_float_residual_above_tol_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "res", "--family", "straight", "--n", "30", "--pair", "1", "30",
        "--method", "float", "--tol", "1e-300",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: residual ") and err.endswith(" exceeds tolerance 1e-300\n")
    assert err.count("\n") == 1


def test_float_solve_singular_in_floats_exits_one_and_det_still_answers(capsys, tmp_path):
    # Conductances 1e20 and 1e-20 on a connected path: in floats the
    # grounded Laplacian [[1e20, -1e20], [-1e20, 1e20 + 1e-20]] is singular,
    # while the exact solve reads r(1, 3) = 1e-20 + 1e20.
    path = _edge_file(tmp_path, "1 2 1e-20", "2 3 1e20")
    code, out, err = run_cli(capsys, "res", "--graph", path, "--pair", "1", "3",
                             "--method", "float")
    assert (code, out) == (1, "")
    assert err == ("error: float solve failed: the grounded Laplacian is singular "
                   "in float arithmetic (Factor is exactly singular)\n")
    code, out, err = run_cli(capsys, "res", "--graph", path, "--pair", "1", "3", "--method", "det")
    assert (code, err) == (0, "")
    result, = json.loads(out)["results"]
    assert (result["value_num"], result["value_den"]) == (10 ** 40 + 1, 10 ** 20)


def test_failed_cross_check_exits_one_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "two_forest_count", _raises(AssertionError("minor is not positive definite: pivot 2 of 4 is 0"))
    )
    code, out, err = run_cli(
        capsys, "trees", "--family", "straight", "--m", "3", "--pair", "1", "5"
    )
    assert code == 1 and out == ""
    assert err == "error: minor is not positive definite: pivot 2 of 4 is 0\n"
    assert "Traceback" not in err


def test_minor_that_is_not_positive_definite_exits_one(capsys, monkeypatch):
    # lu_int refuses a minor with a pivot <= 0 instead of eliminating it
    # some other way; negated, every minor the engine builds is one.
    real = engine.lu_int
    monkeypatch.setattr(
        engine, "lu_int",
        lambda rows, scales: real([{c: -x for c, x in row.items()} for row in rows], scales),
    )
    code, out, err = run_cli(
        capsys, "res", "--family", "straight", "--n", "7", "--pair", "2", "6", "--method", "det"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: minor is not positive definite: pivot 0 of ")
    assert err.count("\n") == 1


# === formula ===


def test_formula_trees(capsys):
    code, out, _ = run_cli(capsys, "formula", "--which", "trees", "--m", "4")
    doc = json.loads(out)
    assert code == 0
    assert (doc["value_num"], doc["value_den"]) == (55, 1)


def test_formula_endpoints(capsys):
    code, out, _ = run_cli(capsys, "formula", "--which", "endpoints", "--m", "2")
    doc = json.loads(out)
    assert (doc["value_num"], doc["value_den"]) == (1, 1)


def test_formula_min_includes_edges(capsys):
    code, out, _ = run_cli(capsys, "formula", "--which", "min", "--n", "6")
    doc = json.loads(out)
    assert (doc["value_num"], doc["value_den"]) == (5, 11)
    assert doc["edges"] == [[3, 4]]


def test_formula_bent(capsys):
    code, out, _ = run_cli(
        capsys, "formula", "--which", "bent", "--m", "4", "--bend-k", "3"
    )
    doc = json.loads(out)
    assert (doc["value_num"], doc["value_den"]) == (6, 5)


def test_formula_sbt_three_weights(capsys):
    code, out, _ = run_cli(capsys, "formula", "--which", "sbt", "--i", "1", "--p", "0")
    doc = json.loads(out)
    assert doc["values"]["s"] == {"num": 1, "den": 3}
    assert doc["values"]["b"] == {"num": 1, "den": 3}
    assert doc["values"]["t"] == {"num": 1, "den": 3}


@pytest.mark.parametrize("argv, path, want", [
    (("closed", "--m", "200000", "--j", "1", "--k", "3"), ("value_num",),
     lambda: formulas.r_closed(200000, 1, 3).numerator),
    (("trees", "--m", "12000"), ("value_num",),
     lambda: formulas.spanning_closed(12000).numerator),
    (("sbt", "--i", "12000", "--p", "1"), ("values", "b", "num"),
     lambda: formulas.sbt(12000, 1)[1].numerator),
], ids=["closed", "trees", "sbt"])
def test_formula_prints_exact_answers_past_the_int_digit_limit(capsys, argv, path, want):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "formula", "--which", *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit, "digit limit not restored"
    doc = json.loads(out, parse_int=str)
    for key in path:
        doc = doc[key]
    assert len(doc) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert doc == str(want())
    finally:
        sys.set_int_max_str_digits(limit)


# 600-digit conductances for `rank --graph`: the non-edge's resistance
# 1/A + 1/B has a 1200-digit denominator.
A, B = 10**599 + 7, 10**599 + 9


def _expect_res(method, n):
    def check(out, tmp_path):
        want = formulas.r_endpoints(n - 2)
        doc = json.loads(out, parse_int=str)["results"]
        assert doc == [{"method": method, "value_num": str(want.numerator),
                        "value_den": str(want.denominator)}]
    return check


def _expect_trace(out, tmp_path):
    _expect_res("delta-y", 1700)(out, tmp_path)
    with open(tmp_path / "t.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows == engine.reduce_straight(1700, 1, 1700).trace.to_dicts()


def _expect_trees(out, tmp_path):
    assert json.loads(out, parse_int=str)["trees"] == str(formulas.spanning_closed(1600))


def _expect_rank(out, tmp_path):
    want = Fraction(1, A) + Fraction(1, B)
    assert out.splitlines()[1:] == [f"1,1,1,3,{want.numerator},{want.denominator}"]


# Every command prints an integer of more digits than the 640 the test
# allows: about 0.42 n for r(1, n) and its reduction trace, 669 for
# F_3202, 1200 for the rank file's denominator.
@pytest.mark.parametrize("argv, check", [
    (("res", "--family", "straight", "--n", "1700", "--pair", "1", "1700",
      "--method", "dy", "--trace", "{tmp}/t.jsonl"), _expect_trace),
    (("res", "--family", "straight", "--n", "1600", "--pair", "1", "1600",
      "--method", "det"), _expect_res("determinant", 1600)),
    (("trees", "--family", "straight", "--m", "1600"), _expect_trees),
    (("rank", "--graph", "{tmp}/big.edges"), _expect_rank),
], ids=["res-dy-trace", "res-det", "trees", "rank-graph"])
def test_commands_print_exact_answers_past_the_int_digit_limit(capsys, tmp_path, argv, check):
    (tmp_path / "big.edges").write_text(f"vertices 3\n1 2 1/{A}\n2 3 1/{B}\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640, "digit limit not restored"
        sys.set_int_max_str_digits(0)
        check(out, tmp_path)
    finally:
        sys.set_int_max_str_digits(limit)


# Each formula with arguments that tell its parameters apart, called
# directly by keyword; the CLI must print what the call returns.
FORMULA_CASES = {
    "sum": (formulas.r_sum, {"m": 7, "j": 2, "k": 3}),
    "closed": (formulas.r_closed, {"m": 7, "j": 2, "k": 3}),
    "endpoints": (formulas.r_endpoints, {"m": 7}),
    "min": (formulas.min_resistance, {"n": 9}),
    "bent": (formulas.r_bent, {"m": 7, "bend_k": 4}),
    "trees": (formulas.spanning_closed, {"m": 7}),
    "forests": (formulas.forest_closed, {"m": 7, "j": 2, "k": 3}),
    "sbt": (formulas.sbt, {"i": 2, "p": 1}),
    "diff": (formulas.r_diff, {"m": 7, "j": 2, "k": 3}),
}


@pytest.mark.parametrize("which", list(cli.FORMULAS))
def test_every_formula_prints_its_direct_call(capsys, which):
    func, params = FORMULA_CASES[which]
    argv = [x for p, v in params.items() for x in ("--" + p.replace("_", "-"), str(v))]
    code, out, err = run_cli(capsys, "formula", "--which", which, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["which"], doc["params"]) == (which, params)
    want = func(**params)
    if isinstance(want, formulas.StripWeights):
        assert {k: Fraction(v["num"], v["den"]) for k, v in doc["values"].items()} == want._asdict()
        return
    if isinstance(want, tuple):
        want, edges = want
        assert doc["edges"] == [list(e) for e in edges]
    assert Fraction(doc["value_num"], doc["value_den"]) == want


@pytest.mark.parametrize("command, flag, name", [
    *(("formula", "--which", name) for name in cli.FORMULAS),
    *(("gen", "--family", name) for name in cli.FAMILIES),
    ("conjecture", "--which", "ktree"),
], ids=lambda x: x.lstrip("-"))
def test_missing_parameter_messages_name_flags_the_parser_accepts(capsys, command, flag, name):
    code, out, err = run_cli(capsys, command, flag, name)
    assert code == 2 and out == "" and err.count("\n") == 1
    head, needed = err.rstrip("\n").split(" needs ")
    assert head == f"error: {flag} {name}"
    for option in needed.split():
        assert option.startswith("--")
        # parse_args exits (SystemExit) on an option the parser does not know
        cli.build_parser().parse_args([command, flag, name, option, "1"])


@pytest.mark.parametrize("which", ["endpoints", "trees"])
def test_formula_m_below_one_exits_two(capsys, which):
    code, out, err = run_cli(capsys, "formula", "--which", which, "--m", "0")
    assert (code, out, err) == (2, "", "error: m must be >= 1, got 0\n")


# Each README exit-1 promise of `formula` and `rank`: one internal is broken
# at the input the command asks for, so the forms it computes disagree.
@pytest.mark.parametrize("target, name, broken, argv, message", [
    (formulas, "lucas", lambda real: lambda k: real(k) + (k == 2),
     ("formula", "--which", "closed", "--m", "5", "--j", "1", "--k", "2"),
     "closed-form bracket not divisible by 5 at (m=5, j=1, k=2)"),
    (formulas, "lucas", lambda real: lambda k: real(k) + (k == 4),
     ("formula", "--which", "endpoints", "--m", "3"),
     "endpoint forms disagree at m=3: 17/16 vs 11/10"),
    (formulas, "_sum_numerator", lambda real: lambda m, j, k: real(m, j, k) + 1,
     ("formula", "--which", "forests", "--m", "7", "--j", "3", "--k", "3"),
     "forest count forms disagree at (m=7, j=3, k=3): 782 vs 781"),
    (ranking, "_structural_groups", lambda real: lambda n: real(n)[::-1],
     ("rank", "--n", "5"),
     "structural and value orders disagree for n=5: "
     "[((1, 5),), ((1, 4), (2, 5))] vs [((1, 4), (2, 5)), ((1, 5),)]"),
    (formulas, "lucas", lambda real: lambda k: real(k) + (k == 4),
     ("rank", "--n", "9"),
     "closed-form bracket not divisible by 5 at (m=7, j=1, k=4)"),
], ids=["formula-closed", "formula-endpoints", "formula-forests", "rank", "rank-closed"])
def test_disagreeing_forms_exit_one_with_one_line(capsys, monkeypatch, target, name, broken,
                                                   argv, message):
    monkeypatch.setattr(target, name, broken(getattr(target, name)))
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_formula_missing_params_exit_two(capsys):
    code, _, err = run_cli(capsys, "formula", "--which", "closed", "--m", "4")
    assert code == 2
    assert "--j" in err and "--k" in err


def test_formula_unknown_which_exits_two(capsys):
    code, _, _ = run_cli(capsys, "formula", "--which", "median")
    assert code == 2


# === rank ===


def test_rank_csv_matches_golden_order(capsys):
    code, out, _ = run_cli(capsys, "rank", "--n", "9")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rank", "group_id", "u", "v", "value_num", "value_den"]
    assert len(rows) == 1 + 21
    assert [r[:4] for r in rows[1:5]] == [
        ["1", "1", "3", "6"],
        ["2", "1", "4", "7"],
        ["3", "2", "2", "5"],
        ["4", "2", "5", "8"],
    ]
    assert rows[-1][:4] == ["21", "12", "1", "9"]


# The edge files the frozen `rank --graph` runs read, each written into
# tmp_path: by `gen` from its arguments, or as text. The 6-cycle has
# rational resistances, a doubled chord {1,4} and doubled edges {2,3} and
# {5,6}, symmetric under 2 <-> 6, 3 <-> 5, so mirror pairs tie exactly.
RANK_GRAPHS = {
    "bent40.edges": ("--family", "bent", "--n", "40", "--bend-k", "17"),
    "grid8.edges": ("--family", "grid", "--rows", "8"),
    "cycle6.edges": "vertices 6\n1 2 1/2\n2 3 2/3\n3 4 3/4\n4 5 3/4\n5 6 2/3\n1 6 1/2\n"
                    "1 4 5/3\n1 4 5/2\n2 3 7/5\n5 6 7/5\n",
}

# SHA-256 of `rank` stdout. The --n runs are as printed when each value
# was its own reduced Fraction: ranking by numerators over the one
# denominator must not move a byte. The --graph runs are as printed when
# rank_nonedges_graph sorted one reduced Fraction per non-edge.
RANK_DIGESTS = {
    ("--n", "60"): "abef0ce79ddc7403fb899c89d551866935f4e811a4ebb931b798f0180f2c06b7",
    ("--n", "204", "--top", "50"):
        "41ebf09e9c9a7b605e6bad74acd341df294297bd1c6bc47ced95cdd0c533e417",
    ("--graph", "bent40.edges"): "07a6c64d0073385aaae59d35f224c1da3064d75821d5ff8c54e4b5eb4c81f863",
    ("--graph", "grid8.edges"): "60f5d22f99ef5d691999b4e44e631f825051a5c7cf8c88e07146bd7888c38084",
    ("--graph", "cycle6.edges"): "7067f8691cbdae960c25a7cd52dfbc41c37b707da2e40d72519d1016de75bd6c",
}


@pytest.mark.parametrize("argv", RANK_DIGESTS,
                         ids=["n60", "n204-top50", "graph-bent40", "graph-grid8", "graph-cycle6"])
def test_rank_output_is_frozen(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "--graph":
        source = RANK_GRAPHS[argv[1]]
        if isinstance(source, str):
            Path(argv[1]).write_text(source)
        else:
            assert run_cli(capsys, "gen", *source, "--out", argv[1])[0] == 0
    code, out, err = run_cli(capsys, "rank", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RANK_DIGESTS[argv]


def test_rank_top_truncates(capsys, tmp_path):
    # `rank SOURCE --top T` is the header and the first T rows of the full
    # ranking, byte for byte, for every T up to one past the last row, so
    # that some cut falls inside a tie group and one past the end. Mirror
    # pairs tie on the strip and in the symmetric 6-cycle file.
    cycle = tmp_path / "cycle6.edges"
    cycle.write_text(RANK_GRAPHS["cycle6.edges"])
    for source in [("--n", str(n)) for n in range(5, 13)] + [("--graph", str(cycle))]:
        code, full, err = run_cli(capsys, "rank", *source)
        assert (code, err) == (0, "")
        lines = full.splitlines(keepends=True)
        group_ids = [line.split(",")[1] for line in lines[1:]]
        assert len(set(group_ids)) < len(group_ids)  # some group holds a tie
        for top in range(1, len(lines) + 1):
            assert run_cli(capsys, "rank", *source, "--top", str(top)) == (0, "".join(lines[:top + 1]), "")


@pytest.mark.parametrize("top", ["0", "-1"])
def test_rank_top_below_one_exits_two(capsys, top):
    code, out, err = run_cli(capsys, "rank", "--n", "9", "--top", top)
    assert (code, out) == (2, "")
    assert err == f"error: --top must be >= 1, got {top}\n"


def test_rank_from_graph_file(capsys, tmp_path):
    target = tmp_path / "g.edges"
    run_cli(capsys, "gen", "--family", "straight", "--n", "7", "--out", str(target))
    code, out, _ = run_cli(capsys, "rank", "--graph", str(target))
    direct_code, direct_out, _ = run_cli(capsys, "rank", "--n", "7")
    assert code == direct_code == 0
    assert out == direct_out


def test_rank_graph_with_two_components_exits_two(capsys, tmp_path):
    target = tmp_path / "split.edges"
    target.write_text("vertices 6\n1 2 1\n2 3 1\n1 3 1\n4 5 1\n5 6 1\n")
    code, out, err = run_cli(capsys, "rank", "--graph", str(target))
    assert (code, out) == (2, "")
    assert err == "error: vertices 1 and 4 are disconnected\n"


def test_rank_graph_without_nonedges_prints_the_header_only(capsys, tmp_path):
    target = tmp_path / "triangle.edges"
    target.write_text("vertices 3\n1 2 1\n2 3 1\n1 3 1\n")
    code, out, err = run_cli(capsys, "rank", "--graph", str(target))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["rank,group_id,u,v,value_num,value_den"]


def test_rank_needs_input(capsys):
    code, _, _ = run_cli(capsys, "rank")
    assert code == 2


# === trees ===


def test_trees_fast_path(capsys):
    code, out, _ = run_cli(capsys, "trees", "--family", "straight", "--m", "4")
    doc = json.loads(out)
    assert doc["trees"] == 55
    assert doc["params"]["n"] == 6


def test_trees_with_pair_adds_forest_count(capsys):
    code, out, _ = run_cli(
        capsys, "trees", "--family", "straight", "--m", "4", "--pair", "1", "6"
    )
    doc = json.loads(out)
    expect = two_forest_count(straight_linear_2tree(6), 1, 6)
    assert doc["two_forests"] == expect


@pytest.mark.parametrize("argv", [
    ("--family", "straight", "--n", "9", "--m", "3"),
    ("--family", "grid", "--rows", "3", "--m", "3"),
    ("--family", "ktree", "--n", "6", "--k", "3", "--m", "3"),
    ("--m", "3"),
], ids=["straight-n", "grid", "ktree", "no-family"])
def test_trees_m_is_only_the_size_of_a_straight_strip(capsys, argv):
    code, out, err = run_cli(capsys, "trees", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --m ") and err.count("\n") == 1


@pytest.mark.parametrize("m", ["0", "-3"])
def test_trees_m_below_one_names_m(capsys, m):
    # not the strip's vertex count m + 2, which the user never gave
    code, out, err = run_cli(capsys, "trees", "--family", "straight", "--m", m)
    assert (code, out) == (2, "")
    assert err == f"error: --m must be >= 1, got {m}\n"


def test_trees_pair_in_two_components_counts_forests(capsys, tmp_path):
    target = tmp_path / "split.edges"
    target.write_text("vertices 4\n1 2 1\n3 4 1\n")
    code, out, err = run_cli(capsys, "trees", "--graph", str(target), "--pair", "1", "3")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["trees"], doc["two_forests"]) == (0, 1)


def test_trees_on_grid(capsys):
    code, out, _ = run_cli(capsys, "trees", "--family", "grid", "--rows", "3")
    doc = json.loads(out)
    assert code == 0 and doc["trees"] > 0


# === edge files across commands ===


def _json_out(doc):
    return json.dumps(doc, indent=2) + "\n"


_DEGENERATE_EDGE_FILES = {"lone": "vertices 1\n", "single-edge": "vertices 3\n1 2 1\n",
                          "isolated-one": "vertices 3\n2 3 1\n"}
_DEGENERATE_CASES = [
    ("lone", ("res", "--method", "det", "--pair", "1", "2"), 2, "", "error: pair (1,2) out of range 1..1\n"),
    ("lone", ("res", "--method", "float", "--pair", "1", "2"), 2, "", "error: pair (1,2) out of range 1..1\n"),
    ("lone", ("rank",), 0, "rank,group_id,u,v,value_num,value_den\n", ""),
    ("lone", ("trees",), 0, _json_out({"schema": 1, "params": {"vertices": 1}, "trees": 1}), ""),
    ("lone", ("trees", "--pair", "1", "2"), 2, "", "error: pair (1,2) out of range 1..1\n"),
    ("single-edge", ("res", "--method", "det", "--pair", "1", "3"), 2, "",
     "error: vertices 1 and 3 are disconnected\n"),
    ("single-edge", ("res", "--method", "float", "--pair", "1", "3"), 2, "",
     "error: vertices 1 and 3 are disconnected\n"),
    ("single-edge", ("res", "--method", "det", "--pair", "1", "2"), 0, _json_out(
        {"schema": 1, "pair": [1, 2], "results": [{"method": "determinant", "value_num": 1, "value_den": 1}]}), ""),
    ("single-edge", ("res", "--method", "float", "--pair", "1", "2"), 0, _json_out(
        {"schema": 1, "pair": [1, 2], "results": [{"method": "float", "value": 1.0}]}), ""),
    ("single-edge", ("rank",), 2, "", "error: vertices 1 and 3 are disconnected\n"),
    ("single-edge", ("trees",), 0, _json_out({"schema": 1, "params": {"vertices": 3}, "trees": 0}), ""),
    ("single-edge", ("trees", "--pair", "1", "3"), 0, _json_out(
        {"schema": 1, "params": {"vertices": 3}, "trees": 0, "pair": [1, 3], "two_forests": 1}), ""),
    ("single-edge", ("trees", "--pair", "1", "2"), 0, _json_out(
        {"schema": 1, "params": {"vertices": 3}, "trees": 0, "pair": [1, 2], "two_forests": 0}), ""),
    # Vertex 1 is a component of its own, whose tree minor is det_int of an empty U.
    ("isolated-one", ("res", "--method", "det", "--pair", "2", "3"), 0, _json_out(
        {"schema": 1, "pair": [2, 3], "results": [{"method": "determinant", "value_num": 1, "value_den": 1}]}), ""),
    ("isolated-one", ("res", "--method", "float", "--pair", "2", "3"), 0, _json_out(
        {"schema": 1, "pair": [2, 3], "results": [{"method": "float", "value": 1.0}]}), ""),
    ("isolated-one", ("res", "--method", "det", "--pair", "1", "2"), 2, "",
     "error: vertices 1 and 2 are disconnected\n"),
    ("isolated-one", ("res", "--method", "float", "--pair", "1", "2"), 2, "",
     "error: vertices 1 and 2 are disconnected\n"),
    ("isolated-one", ("rank",), 2, "", "error: vertices 1 and 2 are disconnected\n"),
    ("isolated-one", ("trees",), 0, _json_out({"schema": 1, "params": {"vertices": 3}, "trees": 0}), ""),
    ("isolated-one", ("trees", "--pair", "1", "2"), 0, _json_out(
        {"schema": 1, "params": {"vertices": 3}, "trees": 0, "pair": [1, 2], "two_forests": 1}), ""),
    ("isolated-one", ("trees", "--pair", "2", "3"), 0, _json_out(
        {"schema": 1, "params": {"vertices": 3}, "trees": 0, "pair": [2, 3], "two_forests": 0}), ""),
]


@pytest.mark.parametrize("name, argv, code, out, err", _DEGENERATE_CASES,
                         ids=["-".join((name,) + argv) for name, argv, *_ in _DEGENERATE_CASES])
def test_degenerate_edge_files_across_commands(capsys, tmp_path, name, argv, code, out, err):
    # One vertex and no edges, one edge beside an isolated vertex 3, and one
    # beside an isolated vertex 1: each command's exact answer or refusal on
    # the smallest graphs is pinned.
    path = tmp_path / f"{name}.edges"
    path.write_text(_DEGENERATE_EDGE_FILES[name])
    assert run_cli(capsys, argv[0], "--graph", str(path), *argv[1:]) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ("res", "--pair", "1", "4", "--method", "det"),
    ("rank",),
    ("trees", "--pair", "1", "4"),
], ids=["res", "rank", "trees"])
def test_edge_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, argv):
    # A BOM is what some editors put at the head of a UTF-8 file.
    text = "vertices 4\n1 2 1\n1 3 1\n2 3 1\n2 4 1\n3 4 1\n"
    plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want = run_cli(capsys, argv[0], "--graph", str(plain), *argv[1:])
    assert want[0] == 0 and want[2] == ""
    assert run_cli(capsys, argv[0], "--graph", str(marked), *argv[1:]) == want


def test_edge_file_that_is_not_utf8_exits_two_with_one_line(capsys, tmp_path):
    path = tmp_path / "latin1.edges"
    path.write_bytes(b"vertices 3\n1 2 1\n2 3 \xff\n")
    code, out, err = run_cli(capsys, "res", "--graph", str(path), "--pair", "1", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# === verify ===


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "endpoint-forms")
    assert code == 0
    assert out.startswith("PASS")
    assert "endpoint-forms" in out


def test_verify_unknown_criterion(capsys):
    code, _, _ = run_cli(capsys, "verify", "--only", "lucky-guess")
    assert code == 2


# === conjecture ===


def test_conjecture_ktree_csv(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--which", "ktree", "--k", "1", "--n-max", "8"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value", "increment", "method", "label"]
    assert len(rows) == 1 + 7
    assert all(r[-1] == "conjectural" for r in rows[1:])
    assert all(r[2] == "1/1" for r in rows[2:]), "path increments must be 1"


def test_conjecture_grid_csv(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--which", "grid", "--rows-max", "4"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["vertex_rows", "cell_rows", "cells", "vertices", "value",
                       "difference", "increasing", "method", "label"]
    assert rows[1][rows[0].index("value")] == "2/3"
    assert all(r[-1] == "conjectural" for r in rows[1:])


def test_conjecture_bent_rule(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--which", "bent", "--n-max", "9",
        "--bend-rule", "first",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "bend_k", "value", "increment", "method", "label"]
    bend_col = rows[0].index("bend_k")
    assert all(r[bend_col] == "3" for r in rows[1:])


def test_conjecture_bent_rule_defaults_to_middle(capsys):
    _, unset, _ = run_cli(capsys, "conjecture", "--which", "bent", "--n-max", "9")
    _, middle, _ = run_cli(
        capsys, "conjecture", "--which", "bent", "--n-max", "9", "--bend-rule", "middle",
    )
    assert unset == middle != ""


@pytest.mark.parametrize("argv, message", [
    (("res", "--pair", "1", "2"), "need either --graph FILE or --family ..."),
    (("trees",), "need either --graph FILE or --family ..."),
    (("conjecture", "--which", "grid", "--rows-max", "1"), "rows_max must be >= 2, got 1"),
], ids=["res-no-input", "trees-no-input", "conjecture-grid-rows-max-1"])
def test_bad_input_exits_two_with_one_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# === the tables declare every input ===


def _subparser(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("table, commands", [
    (cli.FORMULAS, ("formula",)),
    (cli.FAMILIES, ("gen", "res", "trees")),
    (cli.PROBES, ("conjecture",)),
], ids=["formulas", "families", "probes"])
def test_every_table_parameter_is_a_function_parameter_with_a_flag(table, commands):
    for name, (namespace, attr, params) in table.items():
        signature = inspect.signature(namespace[attr]).parameters
        assert params == {p: v.default for p, v in signature.items()}, name
        for command in commands:
            options = _subparser(command)._option_string_actions
            for p in params:
                assert options["--" + p.replace("_", "-")].dest == p, (command, name, p)


@pytest.mark.parametrize("namespace, attr, argv", [
    (vars(formulas), "r_sum", ("formula", "--which", "sum", "--m", "5", "--j", "1", "--k", "2")),
    (vars(cli), "straight_linear_2tree", ("gen", "--family", "straight", "--n", "5")),
    (vars(conjectures), "bent_diameter_growth", ("conjecture", "--which", "bent")),
], ids=["formulas", "families", "probes"])
def test_entries_are_looked_up_when_called(capsys, monkeypatch, namespace, attr, argv):
    # A name rebound after import, by a test or a profiler, is the one run.
    monkeypatch.setitem(namespace, attr, _raises(RuntimeError(f"{attr} was called")))
    assert run_cli(capsys, *argv) == (1, "", f"error: {attr} was called\n")


def _option(flag, kind=None, choices=None, default=None, required=False, nargs=None):
    return (flag,), flag[2:].replace("-", "_"), choices, kind, default, required, nargs


# Each subcommand's options, in parser order: (option strings, dest,
# choices, type, default, required, nargs), as built before the tables
# read their entries' signatures.
_HELP = (("-h", "--help"), "help", None, None, "==SUPPRESS==", False, 0)
_FAMILY_OPTIONS = [
    _option("--family", choices=["straight", "bent", "ktree", "grid"]),
    *(_option(flag, "int") for flag in ("--n", "--bend-k", "--k", "--rows")),
]
OPTION_TABLES = {
    "gen": [_HELP, *_FAMILY_OPTIONS, _option("--out")],
    "res": [_HELP, *_FAMILY_OPTIONS, _option("--graph"),
            _option("--pair", "int", required=True, nargs=2),
            _option("--method", choices=["dy", "det", "float", "all"], default="all"),
            _option("--tol", "float", default=1e-09), _option("--trace")],
    "formula": [_HELP,
                _option("--which", required=True, choices=[
                    "sum", "closed", "endpoints", "min", "bent", "trees", "forests", "sbt", "diff"]),
                *(_option(flag, "int") for flag in ("--m", "--j", "--k", "--n", "--bend-k", "--i", "--p"))],
    "rank": [_HELP, _option("--n", "int"), _option("--top", "int"), _option("--graph")],
    "trees": [_HELP, *_FAMILY_OPTIONS, _option("--graph"), _option("--m", "int"),
              _option("--pair", "int", nargs=2)],
    "verify": [_HELP, _option("--only")],
    "conjecture": [_HELP, _option("--which", required=True, choices=["ktree", "grid", "bent"]),
                   _option("--k", "int"), _option("--n-max", "int"), _option("--rows-max", "int"),
                   _option("--bend-rule", choices=["middle", "first", "last"])],
}


def test_option_tables_are_frozen():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    tables = {command: [(tuple(a.option_strings), a.dest, a.choices, a.type and a.type.__name__,
                         a.default, a.required, a.nargs) for a in p._actions]
              for command, p in sub.choices.items()}
    assert list(tables) == list(OPTION_TABLES)
    for command, table in tables.items():
        assert table == OPTION_TABLES[command], command


# === flags the chosen entry does not take ===


@pytest.mark.parametrize("argv, message", [
    (("gen", "--family", "straight", "--n", "5", "--rows", "4", "--k", "2"),
     "--family straight does not take --k --rows"),
    (("res", "--family", "grid", "--rows", "3", "--n", "5", "--pair", "1", "2"),
     "--family grid does not take --n"),
    (("trees", "--family", "bent", "--n", "9", "--bend-k", "4", "--k", "2"),
     "--family bent does not take --k"),
    (("trees", "--family", "straight", "--m", "4", "--bend-k", "3"),
     "--family straight does not take --bend-k"),
    (("formula", "--which", "endpoints", "--m", "7", "--j", "1"),
     "--which endpoints does not take --j"),
    (("formula", "--which", "bent", "--m", "7", "--bend-k", "4", "--n", "9", "--p", "1"),
     "--which bent does not take --n --p"),
    (("conjecture", "--which", "grid", "--rows-max", "3", "--k", "3", "--n-max", "9"),
     "--which grid does not take --k --n-max"),
    (("conjecture", "--which", "ktree", "--k", "2", "--bend-rule", "first"),
     "--which ktree does not take --bend-rule"),
    (("conjecture", "--which", "bent", "--rows-max", "5"),
     "--which bent does not take --rows-max"),
], ids=["gen-straight", "res-grid", "trees-bent", "trees-m", "formula-endpoints",
        "formula-bent", "conjecture-grid", "conjecture-ktree", "conjecture-bent"])
def test_flags_the_entry_does_not_take_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("res", "--n", "5", "--pair", "1", "9", "--method", "det"),
     "--graph does not take --n"),
    (("res", "--family", "straight", "--n", "9", "--rows", "3", "--pair", "1", "9"),
     "--graph does not take --family --n --rows"),
    (("trees", "--family", "grid", "--pair", "1", "9"),
     "--graph does not take --family"),
    (("trees", "--k", "2", "--bend-k", "4"),
     "--graph does not take --bend-k --k"),
    (("rank", "--n", "9"),
     "--graph does not take --n"),
], ids=["res-n", "res-family", "trees-family", "trees-k", "rank-n"])
def test_graph_with_family_flags_exits_two(capsys, tmp_path, argv, message):
    target = tmp_path / "bent.edges"
    run_cli(capsys, "gen", "--family", "bent", "--n", "9", "--bend-k", "4", "--out", str(target))
    code, out, err = run_cli(capsys, argv[0], "--graph", str(target), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# === a frozen corpus ===


# Per entry, the range each parameter's values are drawn from. Now and
# then a value falls below it, a flag of another entry is set, or a pair
# is out of range, so the error paths run as well. Strips stay at 40
# vertices or fewer, so every probe answers exactly.
_CORPUS_FAMILIES = {
    "straight": {"n": (9, 40)},
    "bent": {"n": (9, 30), "bend_k": (3, 6)},
    "ktree": {"n": (9, 30), "k": (1, 4)},
    "grid": {"rows": (4, 7)},
}
_CORPUS_RANGES = {"m": (4, 40), "j": (1, 4), "k": (1, 4), "n": (3, 40), "bend_k": (3, 6),
                  "i": (1, 30), "p": (1, 5)}
_CORPUS_FORMULAS = {
    which: {p: _CORPUS_RANGES[p] for p in params.split()} for which, params in {
        "sum": "m j k", "closed": "m j k", "endpoints": "m", "min": "n", "bent": "m bend_k",
        "trees": "m", "forests": "m j k", "sbt": "i p", "diff": "m j k",
    }.items()
}
_CORPUS_PROBES = {"ktree": {"k": (1, 4), "n_max": (4, 40)}, "grid": {"rows_max": (2, 8)},
                  "bent": {"n_max": (6, 30)}}


def _corpus_flags(rng, ranges, every):
    argv = []
    for p in every:
        if p in ranges and rng.random() < 0.9 or rng.random() < 0.03:
            lo, hi = ranges.get(p, (1, 9))
            argv += ["--" + p.replace("_", "-"), str(rng.randint(-1 if rng.random() < 0.1 else lo, hi))]
    return argv


def _corpus_argv(rng, graphs, trace):
    command = rng.choice(["res", "res", "trees", "formula", "gen", "conjecture"])
    if command == "formula":
        which = rng.choice(list(_CORPUS_FORMULAS))
        return [command, "--which", which,
                *_corpus_flags(rng, _CORPUS_FORMULAS[which], ("m", "j", "k", "n", "bend_k", "i", "p"))]
    if command == "conjecture":
        which = rng.choice(list(_CORPUS_PROBES))
        argv = [command, "--which", which,
                *_corpus_flags(rng, _CORPUS_PROBES[which], ("k", "n_max", "rows_max"))]
        if rng.random() < (0.5 if which == "bent" else 0.03):
            argv += ["--bend-rule", rng.choice(["middle", "first", "last"])]
        return argv
    if command == "trees" and rng.random() < 0.2:
        argv = [command, "--family", "straight", "--m", str(rng.randint(-1, 30))]
    elif command != "gen" and rng.random() < 0.1:
        argv = [command, "--graph", rng.choice(graphs)]
    else:
        family = rng.choice(["straight", *_CORPUS_FAMILIES, None])
        argv = [command, *(["--family", family] if family else []),
                *_corpus_flags(rng, _CORPUS_FAMILIES.get(family, {}), ("n", "bend_k", "k", "rows"))]
    pair = [str(rng.randint(1, 5)), str(rng.randint(5, 9))]
    if rng.random() < 0.1:
        pair = [str(rng.randint(-1, 12)), str(rng.randint(-1, 12))]
    if command == "res":
        argv += ["--pair", *pair, "--method", rng.choice(["dy", "det"])]
        if rng.random() < 0.1:
            argv += ["--trace", trace]
        if rng.random() < 0.03:
            argv += ["--tol", rng.choice(["0", "nan", "inf"])]
    elif command == "trees" and rng.random() < 0.5:
        argv += ["--pair", *pair]
    return argv


# SHA-256 of (exit code, stdout, stderr, trace file) of the 500 argv that
# _corpus_argv draws from seed 22, as printed before the tables read their
# entries' signatures: a rework of the CLI must not move a byte. Float
# methods and parser errors are left out; their text depends on the
# numpy/scipy build, the Python version and the terminal width.
CLI_CORPUS_SHA256 = "0c3d4ff3a6a241badb7de7d12f258306215bf743e4bc1b453629754d095acb1f"


def test_cli_corpus_is_frozen(capsys, tmp_path):
    graphs = [str(tmp_path / "bent.edges"), str(tmp_path / "grid.edges")]
    run_cli(capsys, "gen", "--family", "bent", "--n", "9", "--bend-k", "4", "--out", graphs[0])
    run_cli(capsys, "gen", "--family", "grid", "--rows", "4", "--out", graphs[1])
    trace = tmp_path / "trace.jsonl"
    rng = random.Random(22)
    digest = hashlib.sha256()
    for _ in range(500):
        argv = _corpus_argv(rng, graphs, str(trace))
        trace.unlink(missing_ok=True)
        code, out, err = run_cli(capsys, *argv)
        written = trace.read_text() if trace.exists() else ""
        digest.update(json.dumps([code, out, err, written]).encode())
    assert digest.hexdigest() == CLI_CORPUS_SHA256


# === README ===


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    return [
        shlex.split(line, comments=True)[1:]
        for block in blocks for line in block.splitlines() if line.startswith("twotree ")
    ]


def test_readme_commands_exit_zero(capsys, tmp_path, monkeypatch):
    # In README order, so `gen --out bent.edges` writes the file that
    # `res` and `rank --graph` read. The bare `twotree verify` is left to
    # test_acceptance, which runs every criterion.
    monkeypatch.chdir(tmp_path)
    commands = [argv for argv in _readme_commands() if argv != ["verify"]]
    assert {argv[0] for argv in commands} == {
        "gen", "res", "formula", "rank", "trees", "verify", "conjecture",
    }
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, f"twotree {shlex.join(argv)}: {err}"


def test_unknown_subcommand_exits_two(capsys):
    assert main(["shrink"]) == 2
    capsys.readouterr()


def test_no_arguments_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


# === entry point ===


@pytest.mark.parametrize("argv, code", [
    (("verify", "--only", "ranking-golden"), 0),
    (("rank", "--n", "4"), 2),
], ids=["verify", "rank-n-4"])
def test_module_entry_passes_the_exit_code_to_the_shell(argv, code):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "twotree.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code
    if code == 0:
        assert done.stdout.startswith("PASS  ranking-golden") and done.stderr == ""
    else:
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
