"""Benchmark runner for twotree.

    python3 perfbench/run.py --workload gate|det-allpairs|cli-cold \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.

Every time it reports is a time at reference speed (see ``calibrate.py``):
fixed reference kernels are timed between ops, and each op's raw time is
scaled by how fast its kernel ran near it, so that the shared host's drifting
speed does not show as a change of the program. The raw times are in the
report line.

Set-up (imports, inputs, one float solve) is timed five times: once here and
four times in fresh interpreters, each followed by kernel samples, and
``setup_s`` is the median. The timed phase then repeats whole passes of the
workload while the next pass is expected to end within ``--seconds`` (at
least one pass). Every output is checked after its pass, outside the timed
region.

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json: per untraced pass, the sum of its op times and their median
and tail percentile (Harrell-Davis estimates), and the run reports the median
over passes. With ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics (medians over the traced passes), and the spans
are written to ``perfbench/out/trace-<workload>.json``. A line starting with
``report`` before it states op counts, failures, the tail percentile, raw
times and the counts that repeat from run to run.
"""

import os

# One thread for BLAS/OpenMP, set before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_KERNEL_SAMPLES = 25
TAIL_BEYOND = 10


def setup(workload_name, seed):
    """Import the package, numpy and scipy, build the inputs, and warm the
    float solver with one solve. Returns (seconds, speed factor, workload),
    the factor from kernel samples taken just after."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import workloads
    from twotree import engine, graphs

    workload = workloads.WORKLOADS[workload_name](seed)
    engine.resistance_float(graphs.straight_linear_2tree(2000), 1, 2000)
    seconds = time.perf_counter() - t0

    import calibrate
    speed = calibrate.Speed()
    for _ in range(SETUP_KERNEL_SAMPLES):
        speed.sample()
    return seconds, speed.factor("exact"), workload


def setup_in_child(workload_name, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["factor"]


def tail_percentile(ops_per_pass):
    """Highest whole percentile with at least TAIL_BEYOND of one pass's ops
    above it, or None when a pass has too few ops."""
    for q in range(99, 0, -1):
        if ops_per_pass - math.ceil(q * ops_per_pass / 100) >= TAIL_BEYOND:
            return q
    return None


def harrell_davis(values, q):
    """The q-th percentile by the Harrell-Davis estimator: a weighted mean
    of the order statistics, with weights from a beta distribution centred
    on q. One pass holds one sample of each op, so a single order statistic
    would carry one op's noise; this one spreads it over the neighbours."""
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    p = q / 100
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), [k / n for k in range(n + 1)])
    return sum(float(hi - lo) * v for lo, hi, v in zip(edges, edges[1:], x))


def run_passes(workload, seconds, tracer):
    """Repeat passes while the next, as long as the last, still ends within
    ``seconds`` of the timed phase. With a tracer, untraced and traced
    passes alternate and at least one of each runs."""
    import calibrate
    import spans
    import workloads

    passes = []
    begin = time.perf_counter()
    last = 0.0
    while (not passes or time.perf_counter() - begin + last <= seconds
           or (tracer is not None and len(passes) < 2)):
        traced = tracer is not None and len(passes) % 2 == 1
        workloads.reset_caches()
        gc.collect()
        misses = workloads.graph_facts_misses()
        speed = calibrate.Speed()
        if traced:
            tracer.begin_pass()
            tracer.install()
        t0 = time.perf_counter()
        try:
            results = workload.run_pass(tracer.span if traced else lambda name: nullcontext(), speed)
        finally:
            last = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        misses = workloads.graph_facts_misses() - misses
        for op, r in zip(workload.ops, results):
            r.ref_seconds = r.seconds * speed.factor(op.kernel, r.start, r.start + r.seconds)
        factors = {kind: speed.factor(kind) for kind in calibrate.KERNELS}
        layers = spans.layer_metrics(tracer.end_pass(), misses, factors) if traced else None
        passes.append({"traced": traced, "wall": sum(r.ref_seconds for r in results),
                       "raw_wall": sum(r.seconds for r in results), "factors": factors,
                       "misses": misses, "results": workload.check(results), "layers": layers})
    return passes


def summarize(passes, ops_per_pass):
    """End-to-end figures of the untraced passes, at reference speed: per
    pass, the sum, median and tail percentile of its op times; the run
    reports the median over passes. The raw figures are kept for the report
    line."""
    plain = [p for p in passes if not p["traced"]]
    q = tail_percentile(ops_per_pass)

    def figures(key):
        walls, p50s, tails = [], [], []
        for p in plain:
            times = [getattr(r, key) for r in p["results"]]
            walls.append(sum(times))
            p50s.append(harrell_davis(times, 50) * 1000)
            tails.append((harrell_davis(times, q) if q else max(times)) * 1000)
        return {"wall_s": statistics.median(walls), "op_p50_ms": statistics.median(p50s),
                "op_tail_ms": statistics.median(tails)}

    results = [r for p in passes for r in p["results"]]
    failures = {}
    for r in results:
        if r.error or r.wrong:
            count, first = failures.get(r.name, (0, r.error or r.wrong))
            failures[r.name] = (count + 1, first)
    by_op, raw_by_op = {}, {}
    for r in (r for p in plain for r in p["results"]):
        by_op.setdefault(r.name, []).append(r.ref_seconds * 1000)
        raw_by_op.setdefault(r.name, []).append(r.seconds * 1000)
    return {
        **figures("ref_seconds"),
        "raw": figures("seconds"),
        "tail_percentile": f"p{q}" if q else "max (fewer than 11 ops per pass)",
        "attempted": len(results),
        "failed": sum(1 for r in results if r.error or r.wrong),
        "wrong": sum(1 for r in results if r.wrong),
        "failures": {k: {"count": c, "first": m} for k, (c, m) in failures.items()},
        "op_median_ms": {k: statistics.median(v) for k, v in by_op.items()},
        "op_raw_median_ms": {k: statistics.median(v) for k, v in raw_by_op.items()},
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)

    if not (SRC / "twotree" / "__init__.py").is_file():
        print(f"error: no twotree package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_only:
        seconds, factor, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "factor": factor}))
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)

    seconds, factor, workload = setup(args.workload, args.seed)
    setup_samples = [(seconds, factor)] + [setup_in_child(args.workload, args.seed)
                                           for _ in range(SETUP_SAMPLES - 1)]

    import spans
    tracer = spans.Tracer() if args.trace else None
    passes = run_passes(workload, args.seconds, tracer)
    summary = summarize(passes, len(workload.ops))

    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "ops_per_pass": len(workload.ops),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall"] for p in passes],
        "pass_speed_factors": [p["factors"] for p in passes],
        "raw": summary["raw"],
        "graph_facts_misses_per_pass": sorted({p["misses"] for p in passes}),
        "setup_raw_s": [s for s, _ in setup_samples],
        "setup_speed_factors": [f for _, f in setup_samples],
        "fail_ratio": summary["failed"] / summary["attempted"],
        **{k: summary[k] for k in ("attempted", "failed", "wrong", "tail_percentile",
                                   "failures", "op_median_ms", "op_raw_median_ms")},
    }
    if args.trace:
        per_pass = [p["layers"] for p in passes if p["traced"]]
        values = spans.median_metrics(per_pass)
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        values["trace.overhead_ratio"] = traced_wall / summary["wall_s"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload.name}.json"
        with open(trace_file, "w") as fh:
            tracer.dump(fh, {"workload": workload.name, "seed": args.seed})
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(s * f for s, f in setup_samples),
            "wall_s": summary["wall_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_tail_ms": summary["op_tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    print("report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
