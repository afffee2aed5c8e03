"""Command-line interface.

Subcommands: gen, res, formula, rank, trees, verify, conjecture. Exact
values always print as integer numerator/denominator; floats only appear
where a method is explicitly floating point. JSON documents carry
"schema": 1.

Every subcommand exits with the same codes, and any error is one
"error: ..." line on stderr, never a traceback:
  0  success;
  1  a check failed: a verify criterion, an internal cross-check
     (AssertionError), or a float solve whose residual exceeds --tol
     (RuntimeError);
  2  usage error or bad input: bad arguments, an invalid graph, family or
     pair, an unreadable file (ValueError, OSError).
"""

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import conjectures, formulas, ranking, verify
from .engine import (
    reduce_straight,
    resistance_det,
    resistance_float,
    spanning_tree_count,
    two_forest_count,
)
from .graphs import (
    bent_linear_2tree,
    read_edge_list,
    straight_linear_2tree,
    straight_linear_ktree,
    triangular_grid,
    write_edge_list,
)

SCHEMA = 1


class UsageError(Exception):
    pass


def _build_family(args):
    family = args.family
    if family == "straight":
        if args.n is None:
            raise UsageError("--family straight needs --n")
        return straight_linear_2tree(args.n)
    if family == "bent":
        if args.n is None or args.bend_k is None:
            raise UsageError("--family bent needs --n and --bend-k")
        return bent_linear_2tree(args.n, args.bend_k)
    if family == "ktree":
        if args.n is None or args.k is None:
            raise UsageError("--family ktree needs --n and --k")
        return straight_linear_ktree(args.n, args.k)
    if family == "grid":
        if args.rows is None:
            raise UsageError("--family grid needs --rows")
        return triangular_grid(args.rows).graph
    raise UsageError(f"unknown family {family!r}")


def _load_graph(args):
    if getattr(args, "graph", None):
        with open(args.graph) as fh:
            return read_edge_list(fh)
    if getattr(args, "family", None):
        return _build_family(args)
    raise UsageError("need either --graph FILE or --family ...")


def _frac_fields(value):
    f = Fraction(value)
    return {"value_num": f.numerator, "value_den": f.denominator}


@contextmanager
def _any_int_digits():
    # Exact answers may pass Python's 4300-digit limit on int -> str; lift
    # it while output is rendered only, not while input is parsed.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _emit_json(doc, out):
    def default(obj):
        if isinstance(obj, Fraction):
            return {"num": obj.numerator, "den": obj.denominator}
        raise TypeError(f"not JSON serializable: {type(obj)}")

    with _any_int_digits():
        out.write(json.dumps(doc, indent=2, default=default) + "\n")


def _cmd_gen(args, out):
    g = _build_family(args)
    if args.out:
        with open(args.out, "w") as fh:
            write_edge_list(g, fh)
    else:
        write_edge_list(g, out)
    return 0


def _cmd_res(args, out):
    g = _load_graph(args)
    i, j = args.pair
    methods = ["dy", "det", "float"] if args.method == "all" else [args.method]
    results = []
    trace = None
    for method in methods:
        if method == "dy":
            if args.family != "straight" or args.graph:
                if args.method == "all":
                    continue
                raise UsageError("--method dy only applies to --family straight")
            report = reduce_straight(args.n, i, j)
            trace = report.trace
            results.append({"method": report.method, **_frac_fields(report.value)})
        elif method == "det":
            report = resistance_det(g, i, j)
            results.append({"method": report.method, **_frac_fields(report.value)})
        elif method == "float":
            report = resistance_float(g, i, j, tol=args.tol)
            results.append({"method": "float", "value": report.value})
    if args.trace:
        if trace is None:
            raise UsageError("--trace needs the delta-wye method (dy or all, straight family)")
        with open(args.trace, "w") as fh:
            for d in trace.to_dicts():
                fh.write(json.dumps(d) + "\n")
    doc = {"schema": SCHEMA, "pair": [i, j], "results": results}
    if args.n is not None:
        doc["n"] = args.n
    _emit_json(doc, out)
    return 0


def _cmd_formula(args, out):
    which = args.which
    doc = {"schema": SCHEMA, "which": which}

    def need(*names):
        missing = [x for x in names if getattr(args, x) is None]
        if missing:
            raise UsageError(f"--which {which} needs --" + " --".join(missing))

    if which == "sum":
        need("m", "j", "k")
        doc["params"] = {"m": args.m, "j": args.j, "k": args.k}
        doc.update(_frac_fields(formulas.r_sum(args.m, args.j, args.k)))
    elif which == "closed":
        need("m", "j", "k")
        doc["params"] = {"m": args.m, "j": args.j, "k": args.k}
        doc.update(_frac_fields(formulas.r_closed(args.m, args.j, args.k)))
    elif which == "endpoints":
        need("m")
        doc["params"] = {"m": args.m}
        doc.update(_frac_fields(formulas.r_endpoints(args.m)))
    elif which == "min":
        need("n")
        value, edges = formulas.min_resistance(args.n)
        doc["params"] = {"n": args.n}
        doc.update(_frac_fields(value))
        doc["edges"] = [list(e) for e in edges]
    elif which == "bent":
        need("m", "bend_k")
        doc["params"] = {"m": args.m, "bend_k": args.bend_k}
        doc.update(_frac_fields(formulas.r_bent(args.m, args.bend_k)))
    elif which == "trees":
        need("m")
        doc["params"] = {"m": args.m}
        doc.update(_frac_fields(formulas.spanning_closed(args.m)))
    elif which == "forests":
        need("m", "j", "k")
        doc["params"] = {"m": args.m, "j": args.j, "k": args.k}
        doc.update(_frac_fields(formulas.forest_closed(args.m, args.j, args.k)))
    elif which == "sbt":
        need("i", "p")
        s, b, t = formulas.sbt(args.i, args.p)
        doc["params"] = {"i": args.i, "p": args.p}
        doc["values"] = {
            "s": {"num": s.numerator, "den": s.denominator},
            "b": {"num": b.numerator, "den": b.denominator},
            "t": {"num": t.numerator, "den": t.denominator},
        }
    elif which == "diff":
        need("m", "j", "k")
        doc["params"] = {"m": args.m, "j": args.j, "k": args.k}
        doc.update(_frac_fields(formulas.r_diff(args.m, args.j, args.k)))
    else:
        raise UsageError(f"unknown formula {which!r}")
    _emit_json(doc, out)
    return 0


def _cmd_rank(args, out):
    if args.graph:
        with open(args.graph) as fh:
            groups = ranking.rank_nonedges_graph(read_edge_list(fh))
    else:
        if args.n is None:
            raise UsageError("rank needs --n or --graph FILE")
        groups = ranking.rank_nonedges(args.n)
    limit = args.top
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "group_id", "u", "v", "value_num", "value_den"])
    rank = 0
    with _any_int_digits():
        for gid, group in enumerate(groups, start=1):
            for u, v in group.pairs:
                rank += 1
                if limit is not None and rank > limit:
                    return 0
                writer.writerow(
                    [rank, gid, u, v, group.value.numerator, group.value.denominator]
                )
    return 0


def _cmd_trees(args, out):
    doc = {"schema": SCHEMA}
    if args.family == "straight" and args.m is not None and args.graph is None:
        n = args.m + 2
        doc["params"] = {"family": "straight", "m": args.m, "n": n}
        g = straight_linear_2tree(n)
    else:
        g = _load_graph(args)
        doc["params"] = {"vertices": g.vertex_count}
        if args.family:
            doc["params"]["family"] = args.family
    count = spanning_tree_count(g)
    doc["trees"] = count
    if args.pair:
        i, j = args.pair
        doc["pair"] = [i, j]
        doc["two_forests"] = two_forest_count(g, i, j)
    _emit_json(doc, out)
    return 0


def _cmd_verify(args, out):
    return verify.run_all(only=args.only or None, out=lambda line: out.write(line + "\n"))


def _cmd_conjecture(args, out):
    which = args.which
    if which == "ktree":
        if args.k is None:
            raise UsageError("conjecture ktree needs --k")
        n_max = args.n_max if args.n_max is not None else args.k + 16
        table = conjectures.ktree_increments(args.k, n_max)
        header = ["n", "value", "increment", "method", "label"]
    elif which == "grid":
        rows_max = args.rows_max if args.rows_max is not None else 12
        table = conjectures.triangle_grid_growth(rows_max)
        header = [
            "vertex_rows", "cell_rows", "cells", "vertices",
            "value", "difference", "increasing", "method", "label",
        ]
    elif which == "bent":
        n_max = args.n_max if args.n_max is not None else 24
        table = conjectures.bent_diameter_growth(n_max, args.bend_rule)
        header = ["n", "bend_k", "value", "increment", "method", "label"]
    else:
        raise UsageError(f"unknown conjecture {which!r}")

    def show(x):
        if x is None:
            return ""
        if isinstance(x, Fraction):
            return f"{x.numerator}/{x.denominator}"
        if isinstance(x, float):
            return f"{x:.12g}"
        return str(x)

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    with _any_int_digits():
        for row in table["rows"]:
            record = [show(row.get(col)) for col in header[:-1]]
            writer.writerow(record + [table["label"]])
    return 0


def _add_family_options(p, include_graph=True):
    p.add_argument("--family", choices=["straight", "bent", "ktree", "grid"])
    p.add_argument("--n", type=int)
    p.add_argument("--bend-k", dest="bend_k", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--rows", type=int)
    if include_graph:
        p.add_argument("--graph", help="edge-list file instead of a named family")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twotree",
        description="Exact effective resistance on linear 2-trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    _add_family_options(p, include_graph=False)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("res", help="effective resistance between a pair")
    _add_family_options(p)
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("I", "J"))
    p.add_argument("--method", choices=["dy", "det", "float", "all"], default="all")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--trace", help="write the reduction trace as JSON lines")
    p.set_defaults(func=_cmd_res)

    p = sub.add_parser("formula", help="evaluate a closed-form expression")
    p.add_argument(
        "--which",
        required=True,
        choices=["sum", "closed", "endpoints", "min", "bent", "trees", "forests", "sbt", "diff"],
    )
    p.add_argument("--m", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--bend-k", dest="bend_k", type=int)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("rank", help="rank non-edges by resistance (CSV)")
    p.add_argument("--n", type=int)
    p.add_argument("--top", type=int)
    p.add_argument("--graph")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("trees", help="spanning tree and two-forest counts")
    _add_family_options(p)
    p.add_argument("--m", type=int, help="triangles in a straight strip")
    p.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"))
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", action="append", help="run one named criterion (repeatable)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture", help="emit a conjecture probe table (CSV)")
    p.add_argument("--which", required=True, choices=["ktree", "grid", "bent"])
    p.add_argument("--k", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--rows-max", dest="rows_max", type=int)
    p.add_argument("--bend-rule", dest="bend_rule", default="middle",
                   choices=["middle", "first", "last"])
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args, sys.stdout)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
