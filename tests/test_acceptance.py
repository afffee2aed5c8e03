"""Acceptance gate: every verification criterion must pass.

Each criterion prints one PASS/FAIL line with its evidence summary.
The same checks back the `twotree verify` command, so a release can be
gated either through pytest or through the CLI.
"""

import hashlib

import pytest

from twotree import engine, verify

# The sha256 of each criterion's detail line: the evidence `twotree verify`
# prints is frozen byte for byte, not only its PASS.
DETAIL_SHA256 = {
    "four-way-agreement": "7229c2d734fb08174ea00763b080ff6c4656a82462432841ce0ec63f090f1ac3",
    "endpoint-forms": "4f82e0a8a5387e23dcc277dc63013f96eacce0ed468c31a39d1daf980469f9cd",
    "increment-limit": "f24e809b6cb8ca786853d23b1048de07bb58c9ee0246ab02f8276ad8eb4441fa",
    "tree-counts": "7a3e3f8037a4ef006f5409410ef402ef4724a305807478e8f906e3d02d1daf51",
    "forest-counts": "c924b43ddb76319197d02ea63b0992e2fa9d16502f319c9bd9197a4ac1f78274",
    "ranking-golden": "8a788afa00bcd1ed84284c47529d269fcd9d0b2b40ed54cd94f731971987dff5",
    "extremal-structure": "a20513f5ef3170c6e31a1471e9d79d4e4910ec92078fdfb72a1a0086d3b75005",
    "identity-suite": "96886031c94a7af9d99e54336657f86573374e2ed24d8d48a27e1f10d790c3a1",
    "bent-reading": "feda0080b7d0af39a09efe189680a43ffce8ff55cdecf6835c62661a297c7bbc",
    "conjecture-probes": "c47140fe97f179161614e37f5d2809dffdb8f158b44d3f879c9c1840a0f4e429",
}


@pytest.mark.parametrize(
    "name,func", verify.CRITERIA, ids=[name for name, _ in verify.CRITERIA]
)
def test_criterion(name, func):
    ok, detail = func()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"
    assert hashlib.sha256(detail.encode()).hexdigest() == DETAIL_SHA256[name], \
        f"{name}: detail changed: {detail}"


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
