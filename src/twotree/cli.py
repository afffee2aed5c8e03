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
     (RuntimeError); or the process ran out of memory (MemoryError,
     reported as "error: out of memory");
  2  usage error or bad input: bad arguments, an invalid graph, family or
     pair, an unreadable file (ValueError, OSError).
The one exit with no "error:" line is 1 when the reader closes the output
early (BrokenPipeError, as when it is piped into head): no one is left to read.

FORMULAS, FAMILIES and PROBES name each entry once; its signature, read
at import, declares its parameters. The parser's choices and entry flags
(bend_k -> --bend-k) come from them, and _call_entry checks and calls the
chosen entry. Only a parameter with a default, as the probes' sizes have,
may be left unset.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from inspect import Parameter, signature
from math import gcd, inf

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
# --method -> the engine's report on the pair (i, j) of g; dy reduces the
# straight strip of --n itself.
METHODS = {
    "dy": lambda args, g, i, j: reduce_straight(args.n, i, j),
    "det": lambda args, g, i, j: resistance_det(g, i, j),
    "float": lambda args, g, i, j: resistance_float(g, i, j, tol=args.tol),
}


def _entries(namespace, **funcs):
    """name -> (namespace, function name, {parameter: default}), each
    function's parameters read once, here, from its signature."""
    return {name: (namespace, f.__name__, {p: v.default for p, v in signature(f).parameters.items()})
            for name, f in funcs.items()}


def _grid(rows):
    return triangular_grid(rows).graph


FORMULAS = _entries(vars(formulas), sum=formulas.r_sum, closed=formulas.r_closed,
                    endpoints=formulas.r_endpoints, min=formulas.min_resistance,
                    bent=formulas.r_bent, trees=formulas.spanning_closed,
                    forests=formulas.forest_closed, sbt=formulas.sbt, diff=formulas.r_diff)
FAMILIES = _entries(globals(), straight=straight_linear_2tree, bent=bent_linear_2tree,
                    ktree=straight_linear_ktree, grid=_grid)
PROBES = _entries(vars(conjectures), ktree=conjectures.ktree_increments,
                  grid=conjectures.triangle_grid_growth, bent=conjectures.bent_diameter_growth)


def _flag(param):
    return "--" + param.replace("_", "-")


def _params(table):
    """Every parameter of the table's entries once, in table order."""
    return dict.fromkeys(p for *_, params in table.values() for p in params)


# The flags that name or size a family; --graph takes none of them.
FAMILY_FLAGS = ("family", *_params(FAMILIES))


def _call_entry(table, flag, args):
    """Call the table entry that args.<flag> names with its set parameters
    from args, as keywords; the signature read at import declares them,
    and the function is looked up by name now, so a rebound name is the
    one run. A set flag of only other entries' parameters, or an unset
    parameter that has no default, is a ValueError."""
    name = getattr(args, flag)
    if name is None:
        raise ValueError(f"{args.command} needs --{flag}")
    namespace, attr, params = table[name]
    unused = [_flag(p) for p in _params(table) if p not in params and getattr(args, p) is not None]
    if unused:
        raise ValueError(f"--{flag} {name} does not take " + " ".join(unused))
    given = {p: getattr(args, p) for p in params if getattr(args, p) is not None}
    missing = [_flag(p) for p, default in params.items()
               if p not in given and default is Parameter.empty]
    if missing:
        raise ValueError(f"--{flag} {name} needs " + " ".join(missing))
    return namespace[attr](**given)


def _load_graph(args):
    if getattr(args, "graph", None):
        given = [_flag(p) for p in FAMILY_FLAGS if getattr(args, p, None) is not None]
        if given:
            raise ValueError("--graph does not take " + " ".join(given))
        with open(args.graph, encoding="utf-8-sig") as fh:
            return read_edge_list(fh)
    if getattr(args, "family", None):
        return _call_entry(FAMILIES, "family", args)
    raise ValueError("need either --graph FILE or --family ...")


def _frac_fields(value):
    f = Fraction(value)
    return {"value_num": f.numerator, "value_den": f.denominator}


@contextmanager
def _any_int_digits():
    # Exact answers may pass Python's 4300-digit limit on int -> str; lift
    # it while output is rendered only, not while input is parsed.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit_json(doc, out):
    def default(obj):
        if isinstance(obj, Fraction):
            return {"num": obj.numerator, "den": obj.denominator}
        raise TypeError(f"not JSON serializable: {type(obj)}")

    with _any_int_digits():
        out.write(json.dumps(doc, indent=2, default=default) + "\n")


def _cmd_gen(args, out):
    g = _call_entry(FAMILIES, "family", args)
    if args.out:
        with open(args.out, "w") as fh:
            write_edge_list(g, fh)
    else:
        write_edge_list(g, out)
    return 0


def _cmd_res(args, out):
    if not 0 < args.tol < inf:
        raise ValueError(f"tol must be positive and finite, got {args.tol}")
    g = _load_graph(args)
    i, j = args.pair
    methods = [m for m in METHODS
               if args.method in (m, "all") and (m != "dy" or args.family == "straight")]
    if not methods:
        raise ValueError("--method dy only applies to --family straight")
    if args.trace and "dy" not in methods:
        raise ValueError("--trace needs the delta-wye method (dy or all, straight family)")
    reports = {m: METHODS[m](args, g, i, j) for m in methods}
    if args.trace:
        with open(args.trace, "w") as fh, _any_int_digits():
            for d in reports["dy"].trace.to_dicts():
                fh.write(json.dumps(d) + "\n")
    results = [{"method": r.method, **({"value": r.value} if m == "float" else _frac_fields(r.value))}
               for m, r in reports.items()]
    doc = {"schema": SCHEMA, "pair": [i, j], "results": results}
    if args.n is not None:
        doc["n"] = args.n
    _emit_json(doc, out)
    return 0


def _cmd_formula(args, out):
    value = _call_entry(FORMULAS, "which", args)
    params = FORMULAS[args.which][2]
    doc = {"schema": SCHEMA, "which": args.which, "params": {p: getattr(args, p) for p in params}}
    if isinstance(value, formulas.StripWeights):
        doc["values"] = value._asdict()
    elif isinstance(value, tuple):  # min_resistance: the value and the edges that reach it
        doc.update(_frac_fields(value[0]))
        doc["edges"] = [list(e) for e in value[1]]
    else:
        doc.update(_frac_fields(value))
    _emit_json(doc, out)
    return 0


def _cmd_rank(args, out):
    if args.top is not None and args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    if args.graph:
        groups = ((g.value.numerator, g.value.denominator, g.pairs)
                  for g in ranking.rank_nonedges_graph(_load_graph(args)))
    elif args.n is None:
        raise ValueError("rank needs --n or --graph FILE")
    else:
        den, walk = ranking.strip_numerators(args.n)
        groups = ((num, den, pairs) for num, pairs in walk)
    # Every field is an int, so no CSV field needs quoting: each row is one
    # f-string, and each group's value tail is reduced and rendered once.
    # Past --top the walk still runs to its end, as it checks every group,
    # and every row is rendered before any is written: a failed check
    # prints nothing.
    top = sys.maxsize if args.top is None else args.top
    rows, rank = ["rank,group_id,u,v,value_num,value_den\n"], 0
    with _any_int_digits():
        for gid, (num, den, pairs) in enumerate(groups, start=1):
            if rank < top:
                d = gcd(num, den)
                tail = f",{num // d},{den // d}\n"
                for u, v in pairs[:top - rank]:
                    rank += 1
                    rows.append(f"{rank},{gid},{u},{v}{tail}")
    out.writelines(rows)
    return 0


def _cmd_trees(args, out):
    if args.m is not None:
        if args.family != "straight" or args.n is not None or args.graph:
            raise ValueError("--m is only valid alone with --family straight (no --n or --graph)")
        if args.m < 1:
            raise ValueError(f"--m must be >= 1, got {args.m}")
        args.n = args.m + 2
    g = _load_graph(args)
    if args.m is not None:
        params = {"family": "straight", "m": args.m, "n": args.n}
    else:
        params = {"vertices": g.vertex_count}
        if args.family:
            params["family"] = args.family
    doc = {"schema": SCHEMA, "params": params, "trees": spanning_tree_count(g)}
    if args.pair:
        i, j = args.pair
        doc["pair"] = [i, j]
        doc["two_forests"] = two_forest_count(g, i, j)
    _emit_json(doc, out)
    return 0


def _cmd_verify(args, out):
    return verify.run_all(only=args.only or None, out=lambda line: out.write(line + "\n"))


def _cmd_conjecture(args, out):
    table = _call_entry(PROBES, "which", args)

    def show(x):
        if x is None:
            return ""
        if isinstance(x, Fraction):
            return f"{x.numerator}/{x.denominator}"
        if isinstance(x, float):
            return f"{x:.12g}"
        return str(x)

    # No cell holds a comma, quote or newline (column names, numbers,
    # num/den strings, True/False and words), so nothing needs quoting.
    out.write(",".join([*table["rows"][0], "label"]) + "\n")
    with _any_int_digits():
        for row in table["rows"]:
            out.write(",".join([*map(show, row.values()), table["label"]]) + "\n")
    return 0


def _add_entry_flags(p, flag, table, **kwargs):
    """--<flag>, choosing an entry of table, and a flag per entry parameter."""
    p.add_argument("--" + flag, choices=list(table), **kwargs)
    for param in _params(table):
        # an int, but for the bend rule
        kind = {"choices": list(conjectures.BEND_RULES)} if param == "bend_rule" else {"type": int}
        p.add_argument(_flag(param), **kind)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twotree",
        description="Exact effective resistance on linear 2-trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    _add_entry_flags(p, "family", FAMILIES)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("res", help="effective resistance between a pair")
    _add_entry_flags(p, "family", FAMILIES)
    p.add_argument("--graph", help="edge-list file instead of a named family")
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("I", "J"))
    p.add_argument("--method", choices=[*METHODS, "all"], default="all")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--trace", help="write the reduction trace as JSON lines")
    p.set_defaults(func=_cmd_res)

    p = sub.add_parser("formula", help="evaluate a closed-form expression")
    _add_entry_flags(p, "which", FORMULAS, required=True)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("rank", help="rank non-edges by resistance (CSV)")
    p.add_argument("--n", type=int)
    p.add_argument("--top", type=int)
    p.add_argument("--graph")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("trees", help="spanning tree and two-forest counts")
    _add_entry_flags(p, "family", FAMILIES)
    p.add_argument("--graph", help="edge-list file instead of a named family")
    p.add_argument("--m", type=int, help="triangles in a straight strip")
    p.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"))
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", action="append", help="run one named criterion (repeatable)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture", help="emit a conjecture probe table (CSV)")
    _add_entry_flags(p, "which", PROBES, required=True)
    p.set_defaults(func=_cmd_conjecture)

    return parser


# Built once per process: main parses every call with it.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args, sys.stdout)
    except BrokenPipeError:  # the reader closed the output: no one is left to tell
        # The interpreter flushes stdout at exit; devnull takes what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # which carries no message of its own
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
