"""Acceptance gate: every verification criterion must pass.

Each criterion prints one PASS/FAIL line with its evidence summary.
The same checks back the `twotree verify` command, so a release can be
gated either through pytest or through the CLI.
"""

import pytest

from twotree import engine, verify


@pytest.mark.parametrize(
    "name,func", verify.CRITERIA, ids=[name for name, _ in verify.CRITERIA]
)
def test_criterion(name, func):
    ok, detail = func()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_every_criterion_is_gated():
    names = [name for name, _ in verify.CRITERIA]
    assert len(names) == len(set(names))
    expected = {
        "four-way-agreement",
        "endpoint-forms",
        "increment-limit",
        "tree-counts",
        "forest-counts",
        "ranking-golden",
        "extremal-structure",
        "identity-suite",
        "bent-reading",
        "conjecture-probes",
    }
    assert set(names) == expected


def test_bent_reading_builds_each_bent_graph_once():
    # 77 bent strips, each graph's Laplacian facts built once: the evidence
    # table comes out of the criterion's own pass.
    engine._graph_facts.cache_clear()
    lines = []
    assert verify.run_all(only=["bent-reading"], out=lines.append) == 0
    assert engine._graph_facts.cache_info().misses == 77
    out = "\n".join(lines).split("\n")
    assert out[0].startswith("PASS  bent-reading: additive reading matches the oracle on all 77")
    assert len(out) == 2 + 77
