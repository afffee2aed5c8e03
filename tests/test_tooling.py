"""The test run's own settings, and what perfbench/ reads of the package."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

from twotree import engine
from twotree.fib import fib
from twotree.graphs import straight_linear_2tree

ROOT = Path(__file__).resolve().parent.parent

_PROBE = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import; the
    # suite's "error" filter must not turn that into an INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(_PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout


def test_a_traced_pass_sees_each_factorization(monkeypatch):
    # perfbench/ spans the package's functions by name and clears its caches
    # between passes; this runs one traced pass the way run.py --trace 1 does.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.reset_caches()
        tracer.begin_pass()
        engine.resistance_det(straight_linear_2tree(12), 1, 12)
        stats = tracer.end_pass()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(stats, workloads.graph_facts_misses(), {"float": 1.0, "exact": 1.0})
    assert metrics["bareiss.det_int.calls"] == metrics["engine.graph_facts.misses"] == 1
    assert metrics["bareiss.det_int.max_order"] == 11
    assert metrics["bareiss.det_int.max_bits"] == fib(22).bit_length() == 15
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}  # run.py adds it
    assert set(metrics) == declared
