"""Acceptance gate: every verification criterion must pass.

Each criterion prints one PASS/FAIL line with its evidence summary.
The same checks back the `twotree verify` command, so a release can be
gated either through pytest or through the CLI.
"""

from fractions import Fraction
import hashlib
import os
from pathlib import Path
import subprocess
import sys
import threading

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
    `pair` of the n-strip off by one, in each shard."""
    def patch(real):
        def reports(m, part=0, parts=1):
            for report in real(m, part, parts):
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


# === the forked gate ===
#
# Strips of at least 2 * PAIRS_PER_WORKER pairs are checked in shards,
# part 0 in the calling process and one forked worker per other part, when
# the process runs one OS thread. These tests run the gate in a child
# interpreter under -X dev -W error, with BLAS held to one thread.

FOUR_WAY_LINE = "PASS  four-way-agreement: 10659 pairs agree exactly across all four methods (n in [3,40])\n"
ONE_THREAD = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1]),
              **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
# A script's start: the process may use two CPUs, whatever the host has,
# and `forks` lists the workers forked.
TWO_CPUS = """
import functools, os, sys, threading
from twotree import cli, verify
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
fork = os.fork
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted_fork
"""


def _run_child(*argv):
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *argv],
                          capture_output=True, text=True, env=ONE_THREAD, timeout=120)


def test_the_gate_prints_the_same_bytes_in_workers():
    # The line is the in-process run's: its detail is the one DETAIL_SHA256 pins.
    detail = FOUR_WAY_LINE.removeprefix("PASS  four-way-agreement: ").removesuffix("\n")
    assert hashlib.sha256(detail.encode()).hexdigest() == DETAIL_SHA256["four-way-agreement"]
    done = _run_child("-m", "twotree.cli", "verify", "--only", "four-way-agreement")
    assert (done.returncode, done.stdout, done.stderr) == (0, FOUR_WAY_LINE, "")


def test_no_worker_outlives_the_gate():
    done = _run_child("-c", TWO_CPUS + """
detail = "10440 pairs agree exactly across all four methods (n in [12,40])"
assert verify.four_way_agreement(12, 40) == (True, detail)
split = [n for n in range(12, 41) if n * (n - 1) // 2 // verify.PAIRS_PER_WORKER >= 2]
assert split and len(forks) == len(split), (forks, split)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
""")
    assert (done.returncode, done.stdout, done.stderr) == (0, "no child left\n", "")


# The 20-strip in two shards: part 0 holds a = 1, 3, ..., the worker
# a = 2, 4, ... The reduction's value is made wrong at the pairs WRONG, and
# it raises at STUCK as a stuck reduction does. The first failure in the
# serial order is reported, forked or in process.
GO_WRONG = """
real = verify.reduce_straight_all
def reports(n, part=0, parts=1):
    for report in real(n, part, parts):
        if report.pair == STUCK:
            raise AssertionError(f"reduction stuck: planted at {STUCK}")
        yield report._replace(value=report.value + 1) if report.pair in WRONG else report
verify.reduce_straight_all = reports
verify.CRITERIA = (("four-way-agreement", functools.partial(verify.four_way_agreement, 20, 20)),)
verify.run_all()
print(len(forks))
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
verify.run_all()
stop.set()
thread.join(timeout=10)
print(len(forks), thread.is_alive())
"""
# Over F_38 = 39088169, the 20-strip's tree count.
MISMATCH_AT = {
    (1, 5): "mismatch at n=20, pair=(1,5): reduce=80551065/39088169, det=41462896/39088169, "
            "sum=41462896/39088169, closed=41462896/39088169",
    (2, 10): "mismatch at n=20, pair=(2,10): reduce=109127995/39088169, det=70039826/39088169, "
             "sum=70039826/39088169, closed=70039826/39088169",
}


@pytest.mark.parametrize("wrong, stuck, detail", [
    # early in the worker's shard, and later in the parent's
    ({(2, 10), (3, 7)}, None, MISMATCH_AT[2, 10]),
    ({(3, 7)}, (2, 10), "reduction stuck: planted at (2, 10)"),
    # an exception in the worker after a mismatch early in the parent's shard
    ({(1, 5)}, (2, 10), MISMATCH_AT[1, 5]),
], ids=["two-mismatches", "stuck-in-the-worker", "stuck-after-a-mismatch"])
def test_the_first_failure_in_the_serial_order_is_reported(wrong, stuck, detail):
    done = _run_child("-c", TWO_CPUS + f"WRONG, STUCK = {wrong!r}, {stuck!r}\n" + GO_WRONG)
    line = f"FAIL  four-way-agreement: {detail}"
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{line}\n1\n{line}\n1 False\n", "")


def test_a_failure_that_does_not_pickle_is_the_serial_one():
    # An exception holding a lock is raised at (2, 10), in the worker's
    # shard: the strip is checked again in process and the line is that
    # run's, the lock's repr included, forked as in one process.
    done = _run_child("-c", TWO_CPUS + """
WRONG, STUCK = set(), None
LOCK = threading.Lock()
real_all = verify.reduce_straight_all
def stuck(n, part=0, parts=1):
    for report in real_all(n, part, parts):
        if report.pair == (2, 10):
            raise AssertionError("stuck", LOCK)
        yield report
verify.reduce_straight_all = stuck
""" + GO_WRONG)
    assert (done.returncode, done.stderr) == (0, "")
    forked, one, serial, last = done.stdout.splitlines()
    assert (one, last) == ("1", "1 False") and forked == serial
    assert forked.startswith("FAIL  four-way-agreement: ('stuck', <unlocked _thread.lock object at ")


def test_a_worker_that_dies_is_one_error_line():
    done = _run_child("-c", TWO_CPUS + """
real = verify.reduce_straight_all
def reports(n, part=0, parts=1):
    if part:
        os._exit(3)
    return real(n, part, parts)
verify.reduce_straight_all = reports
sys.exit(cli.main(["verify", "--only", "four-way-agreement"]))
""")
    n = min(n for n in range(3, 41) if n * (n - 1) // 2 // verify.PAIRS_PER_WORKER >= 2)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", f"error: four-way worker for n={n} ended without a result (exit status 3)\n")


def test_a_second_thread_keeps_the_gate_in_one_process(monkeypatch):
    def fork():
        raise AssertionError("forked beside a second thread")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = verify.four_way_agreement(20, 20)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == (True, "190 pairs agree exactly across all four methods (n in [20,20])")
