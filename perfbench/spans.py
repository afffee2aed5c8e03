"""In-memory spans around the public functions of twotree's layers.

A traced pass rebinds each public layer function, under every name a
twotree module holds it by (for example ``verify.reduce_straight`` and
``engine.det_int``), to a wrapper that records a span: a name, a start, an
end and the span that was open when it began. Nothing inside the package
changes; ``uninstall`` puts the original functions back, so untraced passes
run the program exactly as shipped.

``fib`` and ``lucas`` are called about a million times by the identity
suite, so they are counted, not spanned.
"""

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer module -> public functions recorded as spans named "<module>.<function>".
SPANNED = (
    ("engine", ("reduce_straight", "resistance_det", "resistance_float",
                "spanning_tree_count", "two_forest_count")),
    ("bareiss", ("det_int",)),
    ("formulas", ("r_sum", "r_closed", "r_endpoints", "sbt", "r_diff", "spanning_closed",
                  "forest_closed", "min_resistance", "r_bent", "bent_reading_evidence")),
    ("ranking", ("rank_nonedges", "rank_nonedges_graph")),
    ("conjectures", ("ktree_increments", "triangle_grid_growth", "bent_diameter_growth")),
    ("graphs", ("straight_linear_2tree", "bent_linear_2tree", "straight_linear_ktree",
                "triangular_grid", "read_edge_list", "write_edge_list")),
    ("cli", ("main",)),
    ("fib", ("check_all_identities",)),
)
# Layer module -> public functions only counted, under "<module>.calls".
COUNTED = (("fib", ("fib", "lucas")),)


def _count_steps(counts, args, kwargs, report):
    counts["engine.reduce_straight.steps"] += len(report.trace.steps)


def _record_det_size(counts, args, kwargs, det):
    order = len(args[0] if args else kwargs["rows"])
    counts["bareiss.det_int.max_order"] = max(counts["bareiss.det_int.max_order"], order)
    counts["bareiss.det_int.max_bits"] = max(counts["bareiss.det_int.max_bits"],
                                             abs(det).bit_length())


# Span name -> hook run on each result, for counts a span cannot show.
AFTER = {"engine.reduce_straight": _count_steps, "bareiss.det_int": _record_det_size}


def _twotree_modules():
    return [m for k, m in sorted(sys.modules.items())
            if k == "twotree" or k.startswith("twotree.")]


class Tracer:
    """Spans and counters of one run; per-pass figures come from ``end_pass``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self._undo = []
        self._pass_first = 0
        self.counts = Counter()
        self.passes = []

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id):
        span = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span):
        self.end[span] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(span)

    def _spanned(self, name, func):
        name_id = self._name_id(name)
        counts = self.counts
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            except Exception:
                counts[name + ".failures"] += 1
                raise
            finally:
                self._close(span)
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _rebind(self, func, wrapped):
        for mod in _twotree_modules():
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, func))

    def install(self):
        """Rebind every public layer function wherever a twotree module holds it."""
        for layer, funcs in SPANNED:
            mod = importlib.import_module("twotree." + layer)
            for fname in funcs:
                func = getattr(mod, fname)
                self._rebind(func, self._spanned(f"{layer}.{fname}", func))
        for layer, funcs in COUNTED:
            mod = importlib.import_module("twotree." + layer)
            for fname in funcs:
                func = getattr(mod, fname)
                self._rebind(func, self._counted(layer + ".calls", func))
        # run_all reads its criteria from this tuple, not from the module names.
        verify = importlib.import_module("twotree.verify")
        self._undo.append((verify, "CRITERIA", verify.CRITERIA))
        verify.CRITERIA = tuple((n, self._spanned("verify." + n, f)) for n, f in verify.CRITERIA)

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def begin_pass(self):
        self._pass_first = len(self.start)
        self.counts.clear()

    def end_pass(self):
        """Per-name calls, total and self time of the spans since begin_pass.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so children never overlap each other.
        """
        first = self._pass_first
        child = defaultdict(float)
        for s in range(first, len(self.start)):
            if self.parent[s] >= first:
                child[self.parent[s]] += self.end[s] - self.start[s]
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for s in range(first, len(self.start)):
            name = self.names[self.span_name[s]]
            duration = self.end[s] - self.start[s]
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration - child[s]
        stats = {"calls": calls, "total": total, "self": self_s, "counts": Counter(self.counts)}
        self.passes.append((first, len(self.start)))
        return stats

    def dump(self, fh, meta):
        """Write every recorded span as [name id, start ns, end ns, parent, pass]."""
        origin = self.start[0] if self.start else 0.0
        rows = []
        for p, (first, last) in enumerate(self.passes):
            for s in range(first, last):
                rows.append([self.span_name[s], round((self.start[s] - origin) * 1e9),
                             round((self.end[s] - origin) * 1e9), self.parent[s], p])
        json.dump({**meta, "names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "pass"],
                   "spans": rows}, fh, separators=(",", ":"))
        fh.write("\n")


def _prefix_sum(table, prefix):
    return sum(v for k, v in table.items() if k.startswith(prefix))


def layer_metrics(stats, graph_facts_misses, speed_factors):
    """Per-layer figures of one traced pass, keyed by benchmark metric name.
    Times are at reference speed: the float solver's scaled by the pass's
    float-kernel factor, all others by its exact-kernel factor."""
    calls, counts = stats["calls"], stats["counts"]

    def scaled(times):
        return defaultdict(float, {
            k: v * speed_factors["float" if k == "engine.resistance_float" else "exact"]
            for k, v in times.items()})

    total, self_s = scaled(stats["total"]), scaled(stats["self"])
    out = {
        "engine.reduce_straight.calls": calls["engine.reduce_straight"],
        "engine.reduce_straight.self_s": self_s["engine.reduce_straight"],
        "engine.reduce_straight.steps": counts["engine.reduce_straight.steps"],
        "engine.resistance_det.calls": calls["engine.resistance_det"],
        "engine.resistance_det.self_s": self_s["engine.resistance_det"],
        "engine.graph_facts.misses": graph_facts_misses,
        "bareiss.det_int.calls": calls["bareiss.det_int"],
        "bareiss.det_int.self_s": self_s["bareiss.det_int"],
        "bareiss.det_int.max_order": counts["bareiss.det_int.max_order"],
        "bareiss.det_int.max_bits": counts["bareiss.det_int.max_bits"],
        "engine.resistance_float.calls": calls["engine.resistance_float"],
        "engine.resistance_float.self_s": self_s["engine.resistance_float"],
        "engine.resistance_float.failures": counts["engine.resistance_float.failures"],
        "engine.spanning_tree_count.self_s": self_s["engine.spanning_tree_count"],
        "engine.two_forest_count.self_s": self_s["engine.two_forest_count"],
        "formulas.calls": _prefix_sum(calls, "formulas."),
        "formulas.self_s": _prefix_sum(self_s, "formulas."),
        "ranking.rank_nonedges.self_s": self_s["ranking.rank_nonedges"],
        "ranking.rank_nonedges_graph.self_s": self_s["ranking.rank_nonedges_graph"],
        "conjectures.self_s": _prefix_sum(self_s, "conjectures."),
        "graphs.calls": _prefix_sum(calls, "graphs."),
        "graphs.self_s": _prefix_sum(self_s, "graphs."),
        "cli.main.self_s": self_s["cli.main"],
        "fib.calls": counts["fib.calls"],
        "fib.check_all_identities.self_s": self_s["fib.check_all_identities"],
    }
    for name, _ in importlib.import_module("twotree.verify").CRITERIA:
        out[f"verify.{name}.s"] = total["verify." + name]
    return out


def median_metrics(per_pass):
    """Median over passes of each per-layer figure; the lower middle value
    when the count is even, so counts stay whole numbers."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
