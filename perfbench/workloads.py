"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: an op starts when the
previous one has returned. A pass runs the workload's fixed op list once;
the runner repeats passes, so every pass does the same work on the same
seeded inputs. Outputs are checked after the pass, outside the timed
region, against references computed independently of the path under test.
"""

import contextlib
import csv
import importlib
import inspect
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from twotree import cli, engine, formulas, graphs, ranking, verify

REL_TOL = 1e-9
# The package re-exports the function fib under the submodule's name.
_fib_module = importlib.import_module("twotree.fib")


def reset_caches():
    """Drop the package's process-wide caches, so each pass starts as a
    fresh process would: the per-graph Laplacian facts and the small-index
    Fibonacci table."""
    engine._graph_facts.cache_clear()
    vars(_fib_module._local).pop("fib_cache", None)


def graph_facts_misses():
    return engine._graph_facts.cache_info().misses


class OpFailed(Exception):
    """An op ended without an answer: a nonzero exit code."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right
    kernel: str = "exact"  # the calibrate kernel whose kind of work the op mostly does


@dataclass
class OpResult:
    name: str
    seconds: float
    start: float = 0.0  # perf_counter when the op began
    output: object = None
    error: Optional[str] = None  # exception or nonzero exit
    wrong: Optional[str] = None  # output failed its check


def _close(got, want):
    return abs(float(got) - float(want)) <= REL_TOL * abs(float(want))


def _pairs(rng, n, count):
    pairs = set()
    while len(pairs) < count:
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        pairs.add((i, j))
    return sorted(pairs, key=lambda p: rng.random())


class Workload:
    name = ""

    def __init__(self, seed):
        self._refs = {}
        self.ops = self.build(random.Random(seed))

    def build(self, rng):
        raise NotImplementedError

    def run_pass(self, around, speed):
        """Run every op once; ``around(name)`` is a context wrapped round each.
        ``speed`` takes kernel samples before the first op, between ops and
        after the last, outside the ops' times."""
        results = []
        for op in self.ops:
            speed.catch_up()
            with around("op." + op.name):
                t0 = time.perf_counter()
                try:
                    result = OpResult(op.name, 0.0, output=op.run())
                except Exception as exc:
                    result = OpResult(op.name, 0.0, error=f"{type(exc).__name__}: {exc}")
                result.seconds = time.perf_counter() - t0
            result.start = t0
            results.append(result)
        speed.catch_up(minimum=1)
        return results

    def check(self, results):
        for op, result in zip(self.ops, results):
            if result.error is None:
                result.wrong = op.check(result.output)
            result.output = None
        return results

    def ref(self, key, compute):
        """A reference value, computed once per run."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def float_ref(self, g, i, j):
        return self.ref(("float", g, i, j), lambda: engine.resistance_float(g, i, j).value)

    def exact_ref(self, g, i, j):
        return self.ref(("det", g, i, j), lambda: engine.resistance_det(g, i, j).value)


# === gate ===


FOUR_WAY = "four-way-agreement"


def _four_way(n):
    # Looked up when it runs, so the traced pass's wrapper sees the call.
    return dict(verify.CRITERIA)[FOUR_WAY](n, n)


def _run_one(name):
    lines = []
    rc = verify.run_all(only=[name], out=lines.append)
    return rc, lines


class Gate(Workload):
    """The work of ``verify.run_all()``: its ten criteria, in its order, all
    output captured. There is nothing to seed.

    four-way-agreement takes about 95% of the call, so it runs as one op per
    strip size n, ``four_way_agreement(n, n)`` over the sizes of its default
    range: together they check exactly the pairs the shipped call checks, and
    the machine's speed is measured between them. The other nine criteria
    each run through ``run_all(only=[name])``.
    """

    name = "gate"

    def build(self, rng):
        params = inspect.signature(verify.four_way_agreement).parameters
        sizes = range(params["n_lo"].default, params["n_hi"].default + 1)
        ops = [Op(f"four-way-n{n}", partial(_four_way, n), partial(self._check_four_way, n))
               for n in sizes]
        ops += [Op(name, partial(_run_one, name), partial(self._check_criterion, name))
                for name, _ in verify.CRITERIA if name != FOUR_WAY]
        return ops

    def _check_four_way(self, n, output):
        ok, detail = output
        return None if ok else f"four-way-agreement at n={n}: {detail}"

    def _check_criterion(self, name, output):
        rc, lines = output
        if rc != 0 or not lines or not lines[0].startswith(f"PASS  {name}: "):
            return f"{name} returned {rc}: {lines[:1]}"
        return None


# === det-allpairs ===


# Ops look each layer function up on its module when they run, so the
# rebinding done for a traced pass reaches them.
def _det(g, i, j):
    return engine.resistance_det(g, i, j).value


def _groups_ok(groups, nonedges):
    """Tie groups cover the non-edges once, tie exactly and rise strictly."""
    seen = [p for grp in groups for p in grp.pairs]
    if sorted(seen) != sorted(nonedges) or len(seen) != len(set(seen)):
        return "ranking does not list each non-edge exactly once"
    for a, b in zip(groups, groups[1:]):
        if not a.value < b.value:
            return f"groups out of order at {a.pairs} -> {b.pairs}"
    return None


def _nonedges(g):
    adj = g.adjacency()
    return [(u, v) for u in g.vertices for v in range(u + 1, g.vertex_count + 1) if v not in adj[u]]


class DetAllPairs(Workload):
    """Many exact pairs on a few graphs: Laplacian facts warm after the first."""

    name = "det-allpairs"

    def build(self, rng):
        ops = []
        strips = []
        # Most pairs sit on the middle strip, and as many ops are faster as
        # are slower than those, so the median op falls near the middle of
        # one cluster of like ops, not on the edge between two.
        for base, count in ((200, 18), (300, 24), (400, 6)):
            n = base + rng.randrange(10)
            g = graphs.straight_linear_2tree(n)
            strips.append(g)
            for i, j in _pairs(rng, n, count):
                ops.append(Op(f"det-strip{base}", partial(_det, g, i, j),
                              partial(self._check_strip, n, i, j)))
        grid = graphs.triangular_grid(20).graph
        for i, j in _pairs(rng, grid.vertex_count, 12):
            ops.append(Op("det-grid20", partial(_det, grid, i, j),
                          partial(self._check_float, grid, i, j)))

        strip40 = graphs.straight_linear_2tree(40)
        bent40 = graphs.bent_linear_2tree(40, rng.randrange(3, 38))
        grid8 = graphs.triangular_grid(8).graph
        for label, g in (("strip40", strip40), ("bent40", bent40), ("grid8", grid8)):
            ops.append(Op(f"rank-{label}", partial(_rank_graph, g),
                          partial(self._check_ranking, g, label == "strip40")))

        for g in strips:
            n = g.vertex_count
            i, j = _pairs(rng, n, 1)[0]
            ops.append(Op("trees-strip", partial(_trees, g), partial(self._check_trees, n)))
            ops.append(Op("forests-strip", partial(_forests, g, i, j),
                          partial(self._check_forests, n, i, j)))
        return ops

    def _check_strip(self, n, i, j, value):
        want = formulas.r_closed(n - 2, i, j - i)
        return None if value == want else f"r({i},{j}) on strip {n}: {value} != {want}"

    def _check_float(self, g, i, j, value):
        want = self.float_ref(g, i, j)
        return None if _close(value, want) else f"r({i},{j}): {float(value)} vs float {want}"

    def _check_ranking(self, g, is_strip, groups):
        bad = _groups_ok(groups, _nonedges(g))
        if bad:
            return bad
        m = g.vertex_count - 2
        for grp in groups:
            for u, v in grp.pairs:
                if is_strip:
                    if grp.value != formulas.r_closed(m, u, v - u):
                        return f"ranked value of ({u},{v}) is not r_closed"
                elif not _close(grp.value, self.float_ref(g, u, v)):
                    return f"ranked value of ({u},{v}) is off the float solve"
        return None

    def _check_trees(self, n, count):
        want = formulas.spanning_closed(n - 2)
        return None if count == want else f"trees on strip {n}: {count} != {want}"

    def _check_forests(self, n, i, j, count):
        want = formulas.forest_closed(n - 2, i, j - i)
        return None if count == want else f"2-forests ({i},{j}) on strip {n}: {count} != {want}"


def _rank_graph(g):
    return ranking.rank_nonedges_graph(g)


def _trees(g):
    return engine.spanning_tree_count(g)


def _forests(g, i, j):
    return engine.two_forest_count(g, i, j)


# === cli-cold ===


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


class CliCold(Workload):
    """One pair per graph through ``twotree.cli.main``; no graph repeats in a pass."""

    name = "cli-cold"
    # Sizes close together, so that ops of one method cost about the same
    # and the median op does not hinge on which size a seed draws.
    LADDER = (80, 84, 88, 92, 96, 100, 104, 108, 112)
    GRID_ROWS = (8, 9, 10, 11, 12, 13, 14, 15, 16)
    METHODS = ("all", "det", "float")

    def build(self, rng):
        ops = []
        for k, base in enumerate(self.LADDER):
            n = base + rng.randrange(4)
            i, j = _pairs(rng, n, 1)[0]
            method = self.METHODS[k % 3]
            argv = ["res", "--family", "straight", "--n", str(n), "--pair", str(i), str(j),
                    "--method", method]
            want = partial(formulas.r_closed, n - 2, i, j - i)
            ops.append(Op(f"res-straight-{method}", partial(_cli, argv),
                          partial(self._check_res, method, True, want, None)))
        for k, base in enumerate(self.LADDER):
            n = base + rng.randrange(4)
            bend = rng.randrange(3, n - 2)
            method = self.METHODS[k % 3]
            argv = ["res", "--family", "bent", "--n", str(n), "--bend-k", str(bend),
                    "--pair", "1", str(n), "--method", method]
            want = partial(formulas.r_bent, n - 2, bend)
            ops.append(Op(f"res-bent-{method}", partial(_cli, argv),
                          partial(self._check_res, method, False, want, None)))
        for k, rows in enumerate(self.GRID_ROWS):
            g = graphs.triangular_grid(rows).graph
            i, j = _pairs(rng, g.vertex_count, 1)[0]
            method = self.METHODS[k % 3]
            argv = ["res", "--family", "grid", "--rows", str(rows), "--pair", str(i), str(j),
                    "--method", method]
            ops.append(Op(f"res-grid-{method}", partial(_cli, argv),
                          partial(self._check_res, method, False,
                                  partial(self.exact_ref, g, i, j),
                                  partial(self.float_ref, g, i, j))))
        for n in (2000, 20000):
            argv = ["res", "--family", "straight", "--n", str(n), "--pair", "1", str(n),
                    "--method", "float"]
            want = partial(formulas.r_closed, n - 2, 1, n - 1)
            ops.append(Op(f"float-{n}", partial(_cli, argv),
                          partial(self._check_res, "float", True, want, None), kernel="float"))

        n = 200 + rng.randrange(8)
        ops.append(Op("rank", partial(_cli, ["rank", "--n", str(n)]),
                      partial(self._check_rank, n)))
        m = 300 + rng.randrange(8)
        i, j = _pairs(rng, m + 2, 1)[0]
        argv = ["trees", "--family", "straight", "--m", str(m), "--pair", str(i), str(j)]
        ops.append(Op("trees", partial(_cli, argv), partial(self._check_trees, m, i, j)))

        k = rng.choice((3, 4))
        ops.append(Op("conjecture-ktree", partial(_cli, ["conjecture", "--which", "ktree", "--k", str(k)]),
                      partial(self._check_ktree, k)))
        ops.append(Op("conjecture-grid", partial(_cli, ["conjecture", "--which", "grid"]),
                      self._check_grid_table))
        rule = rng.choice(("middle", "first", "last"))
        ops.append(Op("conjecture-bent",
                      partial(_cli, ["conjecture", "--which", "bent", "--bend-rule", rule]),
                      self._check_bent_table))
        return ops

    def _check_res(self, method, straight, exact, floating, text):
        """Exact results must equal ``exact()``; float results must be within
        REL_TOL of it. On the grid, which has no closed form, exact results
        are held to the float solve ``floating()`` instead."""
        results = {r["method"]: r for r in json.loads(text)["results"]}
        expected = {"all": ("delta-y", "determinant", "float") if straight else ("determinant", "float"),
                    "det": ("determinant",), "float": ("float",)}[method]
        if tuple(results) != expected:
            return f"methods {tuple(results)} != {expected}"
        want = exact()
        for name, r in results.items():
            if name == "float":
                if not _close(r["value"], want):
                    return f"float {r['value']} vs exact {want}"
                continue
            got = Fraction(r["value_num"], r["value_den"])
            if floating is not None:
                if not _close(got, floating()):
                    return f"{name} {got} vs float solve"
            elif got != want:
                return f"{name} {got} != {want}"
        return None

    def _check_rank(self, n, text):
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["rank", "group_id", "u", "v", "value_num", "value_den"]:
            return f"bad header {rows[0]}"
        body = [tuple(int(x) for x in row) for row in rows[1:]]
        g = graphs.straight_linear_2tree(n)
        if sorted((u, v) for _, _, u, v, _, _ in body) != _nonedges(g):
            return "ranking does not list each non-edge exactly once"
        prev_gid, prev_value = 0, None
        for rank, (r, gid, u, v, num, den) in enumerate(body, start=1):
            value = Fraction(num, den)
            if r != rank or value != formulas.r_closed(n - 2, u, v - u):
                return f"row {rank} ({u},{v}) is wrong"
            if gid == prev_gid and value != prev_value or gid not in (prev_gid, prev_gid + 1):
                return f"tie group {gid} is wrong at row {rank}"
            if gid == prev_gid + 1 and prev_value is not None and not prev_value < value:
                return f"groups out of order at row {rank}"
            prev_gid, prev_value = gid, value
        return None

    def _check_trees(self, m, i, j, text):
        doc = json.loads(text)
        if doc["trees"] != formulas.spanning_closed(m):
            return f"trees {doc['trees']} != F_(2m+2)"
        if doc["two_forests"] != formulas.forest_closed(m, i, j - i):
            return f"two_forests {doc['two_forests']} wrong for ({i},{j})"
        return None

    @staticmethod
    def _table(text):
        return list(csv.DictReader(io.StringIO(text)))

    def _check_ktree(self, k, text):
        rows = self._table(text)
        if [int(r["n"]) for r in rows] != list(range(k + 1, k + 17)):
            return "ktree table has the wrong rows"
        for r in rows:
            n = int(r["n"])
            g = graphs.straight_linear_ktree(n, k)
            if not _close(Fraction(r["value"]), self.float_ref(g, 1, n)):
                return f"ktree k={k} n={n} value {r['value']} is off the float solve"
        return None

    def _check_grid_table(self, text):
        rows = self._table(text)
        if [int(r["vertex_rows"]) for r in rows] != list(range(2, 13)):
            return "grid table has the wrong rows"
        for r in rows:
            grid = graphs.triangular_grid(int(r["vertex_rows"]))
            want = self.float_ref(grid.graph, grid.apex, grid.bottom_left)
            if not _close(Fraction(r["value"]), want):
                return f"grid rows={r['vertex_rows']} value {r['value']} is off the float solve"
        return None

    def _check_bent_table(self, text):
        rows = self._table(text)
        if [int(r["n"]) for r in rows] != list(range(6, 25)):
            return "bent table has the wrong rows"
        for r in rows:
            n, bend = int(r["n"]), int(r["bend_k"])
            if Fraction(r["value"]) != formulas.r_bent(n - 2, bend):
                return f"bent n={n} bend={bend} value {r['value']} != r_bent"
        return None


WORKLOADS = {w.name: w for w in (Gate, DetAllPairs, CliCold)}
