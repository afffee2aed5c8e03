"""Acceptance gate: every verification criterion must pass.

Each criterion prints one PASS/FAIL line with its evidence summary.
The same checks back the `twotree verify` command, so a release can be
gated either through pytest or through the CLI.
"""

from fractions import Fraction
import hashlib

import pytest

from twotree import cli, conjectures, engine, formulas, ranking, verify
from twotree.graphs import (
    bent_linear_2tree,
    straight_linear_2tree,
    straight_linear_ktree,
    triangular_grid,
)

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


def _wrong_at(at, wrong):
    """A patch for an oracle: the real function, but with wrong applied to
    what it returns at the one argument tuple `at`."""
    def patch(real):
        def oracle(*args):
            value = real(*args)
            return wrong(value) if args == at else value
        return oracle
    return patch


class _EqualToAll(int):
    # Orders as the integer it is, but compares equal to every value.
    def __eq__(self, other):
        return True

    __hash__ = int.__hash__


def _plus(x):
    return lambda value: value + x


def _set_at(index, wrong):
    # A row of numerators with wrong applied to its entry `index` only.
    return lambda row: [*row[:index], wrong(row[index]), *row[index + 1:]]


def _plus_at(index, x):
    return _set_at(index, _plus(x))


def _pair_plus(pair, x):
    # A stream of (pair, numerator) with x added to `pair`'s numerator only.
    return lambda nums: [(p, num + x * (p == pair)) for p, num in nums]


def _report_plus_one(report):
    return report._replace(value=report.value + 1)


def _report_wrong_at(n, pair):
    """A patch for reduce_straight_all: the real reports, but the one for
    `pair` of the n-strip off by one."""
    def patch(real):
        def reports(m):
            for report in real(m):
                yield _report_plus_one(report) if (m, report.pair) == (n, pair) else report
        return reports
    return patch


STRIP5 = straight_linear_2tree(5)
(COMP4,) = engine._graph_facts(straight_linear_2tree(4))[1]
(COMP5,) = engine._graph_facts(STRIP5)[1]
GRID2 = triangular_grid(2)

# criterion -> (module, attribute, patch), ..., and the detail it must fail with
WRONG_ORACLES = {
    # The 5-strip's numerators are over F_8 = 21, so adding 21 to the one
    # entry of (1,3) moves its value by 1. The closed row is offset 2's,
    # j = 1..3; the summation row is j = 1's, k = 1..4.
    "four-way-agreement": (
        [(formulas, "_closed_numerators", _wrong_at((3, 2, range(1, 4)), _plus_at(0, 21)))],
        "mismatch at n=5, pair=(1,3): reduce=13/21, det=13/21, sum=13/21, closed=34/21"),
    "four-way-agreement-reduction": (
        [(verify, "reduce_straight_all", _report_wrong_at(5, (1, 3)))],
        "mismatch at n=5, pair=(1,3): reduce=34/21, det=13/21, sum=13/21, closed=13/21"),
    "four-way-agreement-determinant": (
        [(verify, "_pair_numerators", _wrong_at((COMP5,), _pair_plus((1, 3), 21)))],
        "mismatch at n=5, pair=(1,3): reduce=13/21, det=34/21, sum=13/21, closed=13/21"),
    "four-way-agreement-tree-minor": (
        [(verify, "_graph_facts", _wrong_at(
            (STRIP5,), lambda facts: (facts[0], (facts[1][0]._replace(tree_minor=22),))))],
        "n=5: tree minor 22 != F_8 = 21"),
    "four-way-agreement-summation": (
        [(formulas, "_sum_numerators", _wrong_at((3, 1, 4), _plus_at(1, 21)))],
        "mismatch at n=5, pair=(1,3): reduce=13/21, det=13/21, sum=34/21, closed=13/21"),
    "endpoint-forms-2": (
        [(formulas, "r_endpoints", _wrong_at((2,), _plus(1)))],
        "r_endpoints(2) = 2, expected 1"),
    "endpoint-forms-1": (
        [(formulas, "r_endpoints", _wrong_at((1,), _plus(1)))],
        "r_endpoints(1) = 5/3, expected 2/3"),
    "increment-limit": (
        [(formulas, "r_endpoints", _wrong_at((65,), _plus(Fraction(1, 10**5))))],
        "increment 0.200010000, |gap to 1/5| = 1.000e-05 >= 1e-6"),
    "tree-counts-fib": (
        [(verify, "spanning_tree_count", _wrong_at((STRIP5,), _plus(1)))],
        "m=3: matrix-tree 22 != F_8 = 21"),
    "tree-counts-brute-force": (
        [(verify, "brute_force_tree_enumeration", _wrong_at((STRIP5,), _plus(1)))],
        "m=3: brute force 22 != matrix-tree 21"),
    # With F_8 wrong as well, only the spot value 21 is left to catch it.
    "tree-counts-spot": (
        [(verify, "spanning_tree_count", _wrong_at((STRIP5,), _plus(1))),
         (verify, "brute_force_tree_enumeration", _wrong_at((STRIP5,), _plus(1))),
         (verify, "fib", _wrong_at((8,), _plus(1)))],
        "m=3 count is not 21"),
    "forest-counts-closed": (
        [(formulas, "forest_closed", _wrong_at((2, 1, 1), _plus(1)))],
        "(m=2,j=1,k=1): 6 != r*trees = 5"),
    # Both printed forms wrong alike: only the Laplacian oracle is left.
    "forest-counts-consistent": (
        [(formulas, "_closed_numerator", _wrong_at((2, 1, 1), _plus(1))),
         (formulas, "_sum_numerator", _wrong_at((2, 1, 1), _plus(1)))],
        "(m=2,j=1,k=1): 6 != r*trees = 5"),
    # Over the unit 4-strip's tree minor F_6 = 8 the numerator is r * trees.
    "forest-counts-determinant": (
        [(verify, "_pair_numerators", _wrong_at((COMP4,), _pair_plus((1, 2), 1)))],
        "(m=2,j=1,k=1): 5 != r*trees = 6"),
    "forest-counts-enumeration": (
        [(verify, "two_forest_count", _wrong_at((STRIP5, 1, 3), _plus(1)))],
        "enumerated forest count mismatch at n=5, (1,3)"),
    "ranking-golden": (
        [(ranking, "rank_nonedges", _wrong_at((9,), lambda groups: groups[:-1]))],
        "got:      " + verify.GOLDEN_RANKING_N9[:-len(", {1,9}")]
        + "\nexpected: " + verify.GOLDEN_RANKING_N9),
    # The criterion reads each offset's row of closed-form numerators, over
    # F_8 = 21 at m = 3: adding 21 moves a value by 1, 210 by 10.
    "extremal-structure-reflection": (
        [(formulas, "_closed_numerators", _wrong_at((3, 1, range(1, 5)), _plus_at(0, 21)))],
        "reflection fails at m=3, k=1, j=1"),
    "extremal-structure-unimodality": (
        [(formulas, "_closed_numerators", _wrong_at((3, 2, range(1, 4)), _plus_at(1, 210)))],
        "unimodality fails at m=3, k=2, j=1"),
    # Reflection and strict unimodality place the minimum for any total
    # order, so only a value whose equality disagrees with its order gets
    # past them to the minimizer check.
    "extremal-structure-minimizer": (
        [(formulas, "_closed_numerators", _wrong_at((3, 2, range(1, 4)), _set_at(1, _EqualToAll)))],
        "minimizer at m=3, k=2: [1, 2, 3] != [2]"),
    # The centre of offset 3 at m = 4, made the strip's smallest value.
    "extremal-structure-separation": (
        [(formulas, "_closed_numerators", _wrong_at((4, 3, range(1, 4)), _set_at(1, lambda num: 1)))],
        "level separation fails at m=4, k=2"),
    "extremal-structure-min-6": (
        [(formulas, "min_resistance", _wrong_at((6,), lambda v: (v[0] + 1, v[1])))],
        "min_resistance(6) = 16/11 at ((3, 4),), expected 5/11 at ((3,4),)"),
    "extremal-structure-min-50": (
        [(formulas, "min_resistance", _wrong_at((50,), lambda v: (v[0] + 1, v[1])))],
        "min_resistance(50) is 1.4472135954999579, off 1/sqrt(5) by 1.000e+00"),
    "identity-suite-count": (
        [(verify, "check_all_identities", _wrong_at((), lambda reports: reports[:1]))],
        "only 3721 instantiations, need >= 10^4"),
    "bent-reading": (
        [(engine, "resistance_det", _wrong_at(
            (bent_linear_2tree(7, 3), 1, 7), _report_plus_one))],
        "additive reading misses at m=5, bend=3"),
    "conjecture-probes-k1": (
        [(conjectures, "resistance_det", _wrong_at(
            (straight_linear_ktree(5, 1), 1, 5), _report_plus_one))],
        "k=1 increment at n=5 is 2, not 1"),
    "conjecture-probes-k2": (
        [(conjectures, "resistance_det", _wrong_at(
            (straight_linear_ktree(67, 2), 1, 67), _report_plus_one))],
        "k=2 increment at n=67 off 1/5 by 1.000e+00"),
    "conjecture-probes-k3": (
        [(conjectures, "ktree_increments", _wrong_at(
            (3, 20), lambda table: {**table, "label": "exact"}))],
        "k=3 table missing or unlabeled"),
    "conjecture-probes-grid": (
        [(conjectures, "resistance_det", _wrong_at(
            (GRID2.graph, GRID2.apex, GRID2.bottom_left), _report_plus_one))],
        "grid rows=2 gives 5/3, expected exact 2/3"),
}


@pytest.mark.parametrize("case", list(WRONG_ORACLES))
def test_a_wrong_oracle_fails_its_criterion(monkeypatch, case):
    patches, detail = WRONG_ORACLES[case]
    for module, attribute, patch in patches:
        monkeypatch.setattr(module, attribute, patch(getattr(module, attribute)))
    name = next(n for n, _ in verify.CRITERIA if case.startswith(n))
    func = dict(verify.CRITERIA)[name]
    assert func() == (False, detail)
    lines = []
    assert verify.run_all(only=[name], out=lines.append) == 1
    assert lines == [f"FAIL  {name}: {detail}"]


def test_a_raising_cross_check_fails_its_criterion_and_the_rest_still_run(capsys, monkeypatch):
    # lucas off by one at k = 4: the closed form's bracket check and the
    # endpoint-form check raise AssertionError inside six criteria; each is
    # one FAIL line with the assert's message, and the other four pass.
    real = formulas.lucas
    monkeypatch.setattr(formulas, "lucas", lambda k: real(k) + (k == 4))
    not_divisible = "closed-form bracket not divisible by 5 at (m={}, j=1, k=4)"
    failed = {
        "four-way-agreement": not_divisible.format(3),
        "endpoint-forms": "endpoint forms disagree at m=3: 17/16 vs 11/10",
        "increment-limit": "endpoint forms disagree at m=65: "
                           "73826805485236943/5465966034356784 vs 421058608590874/31056625195209",
        "forest-counts": not_divisible.format(3),
        "ranking-golden": not_divisible.format(7),
        "extremal-structure": not_divisible.format(5),
    }
    lines = []
    assert verify.run_all(out=lines.append) == 1
    assert len(lines) == len(verify.CRITERIA)
    for line, (name, _) in zip(lines, verify.CRITERIA):
        if name in failed:
            assert line == f"FAIL  {name}: {failed[name]}"
        else:
            assert line.startswith(f"PASS  {name}: ")
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out == "".join(line + "\n" for line in lines)
