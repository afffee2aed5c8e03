"""Self-contained verification of every advertised numeric claim.

Each criterion function returns (ok, detail); one whose internal
cross-check raises AssertionError fails with its message. run_all prints one
PASS/FAIL line per criterion (a passing bent-reading detail goes on with its
evidence table) and returns a process exit code: 0 all pass, 1 otherwise.
Everything is deterministic: four_way_agreement may check a strip in forked
workers, but reports what checking it in one process would.
"""

import math
import os
from fractions import Fraction

from . import conjectures, formulas, ranking
from .fib import check_all_identities, fib
from .engine import (
    _graph_facts,
    _pair_numerators,
    brute_force_tree_enumeration,
    brute_force_two_forest_counts,
    reduce_straight_all,
    spanning_tree_count,
    two_forest_count,
)
from .graphs import straight_linear_2tree

GOLDEN_RANKING_N9 = (
    "{3,6} & {4,7}, {2,5} & {5,8}, {1,4} & {6,9}, {3,7}, {2,6} & {4,8}, "
    "{1,5} & {5,9}, {2,7} & {3,8}, {1,6} & {4,9}, {2,8}, {1,7} & {3,9}, "
    "{1,8} & {2,9}, {1,9}"
)


# A strip forks one worker per PAIRS_PER_WORKER of its pairs at most. A
# fork and the child's exit cost about 2 ms in a process with numpy and
# scipy loaded. On a 2-CPU host, splitting a strip in two came out about
# even from n = 13 to 16 (78 to 120 pairs) and was faster from n = 18
# (153 pairs) on, in at least 30 of 31 interleaved runs; 45 splits from
# n = 14 (91 pairs).
PAIRS_PER_WORKER = 45


def four_way_agreement(n_lo=3, n_hi=40):
    """Reduction, determinant, summation form, closed form: identical
    exact rationals for every pair, zero tolerance.

    The last three are read per strip as integer numerators over
    den = F_{2m+2}: the determinant's over the strip's tree minor, checked
    to equal den (engine._pair_numerators), the closed form one offset row
    at a time (formulas._closed_numerators), the summation form as running
    sums along each j (formulas._sum_numerators). They must be equal, and
    the reduction's Fraction p/q must meet them: p * den == N * q. A
    mismatch reports all four values as Fractions.

    The reduction leg runs in shards of the strip's left terminals, one per
    CPU the process may use, as long as each holds PAIRS_PER_WORKER pairs
    and the process runs one thread (_shards_pass): they only answer pass
    or fail. A strip that does not pass, or one not split at all, is
    checked by _check_shard in this process, so the detail returned or the
    exception raised is the serial check's."""
    cpus = _cpus()
    pairs = 0
    for n in range(n_lo, n_hi + 1):
        (comp,) = _graph_facts(straight_linear_2tree(n))[1]
        m = n - 2
        den = fib(2 * m + 2)
        if comp.tree_minor != den:
            return False, f"n={n}: tree minor {comp.tree_minor} != F_{2 * m + 2} = {den}"
        dets = dict(_pair_numerators(comp))
        # closed[k - 1][j - 1] and sums[j - 1][k - 1] are the pair (j, j + k)'s
        closed = [formulas._closed_numerators(m, k, range(1, n - k + 1)) for k in range(1, n)]
        sums = [formulas._sum_numerators(m, j, n - j) for j in range(1, n)]
        rows = (den, dets, sums, closed)
        parts = max(1, min(cpus, n - 2, n * (n - 1) // 2 // PAIRS_PER_WORKER))
        if parts == 1 or not _shards_pass(n, rows, parts):
            failure = _check_shard(n, rows)
            if failure is not None:
                return False, failure
        pairs += n * (n - 1) // 2
    return True, f"{pairs} pairs agree exactly across all four methods (n in [{n_lo},{n_hi}])"


def _cpus():
    # The CPUs this process may run workers on, or 1 where it cannot tell
    # or runs a second thread: forking copies only the calling thread, and a
    # lock another thread held stays locked in the child.
    if not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _check_shard(n, rows, part=0, parts=1):
    """Check the pairs of reduce_straight_all(n, part, parts) against the
    strip's rows (den, dets, sums, closed), in its order. Returns the first
    mismatch's detail, or None; an exception raised there goes on up."""
    den, dets, sums, closed = rows
    for report in reduce_straight_all(n, part, parts):
        i, j = report.pair
        red = report.value
        d = dets[(i, j)]
        s = sums[i - 1][j - i - 1]
        c = closed[j - i - 1][i - 1]
        if not (red.numerator * den == d * red.denominator and d == s == c):
            return (f"mismatch at n={n}, pair=({i},{j}): reduce={red}, det={Fraction(d, den)}, "
                    f"sum={Fraction(s, den)}, closed={Fraction(c, den)}")
    return None


def _shards_pass(n, rows, parts):
    """Whether every pair of the n-strip passes _check_shard in `parts`
    shards: part 0 in this process, each other in a forked worker that
    answers by its exit status alone, 0 for pass and 1 for fail or any
    exception. Every worker is waited for before this returns or raises;
    one that ends any other way raises RuntimeError.

    Part 0 holds a = 1 and is the heaviest shard, and it stays here on
    purpose: a worker starts about 1 ms after the fork and is reaped about
    1 ms after its last pair, so the strip waits on the worker unless this
    process has the larger share."""
    pids = []
    try:
        for part in range(1, parts):
            pid = os.fork()
            if pid == 0:
                # In the child: leave by os._exit, so that nothing of the
                # caller's stack runs here and no inherited buffer is flushed.
                code = 1
                try:
                    code = 0 if _check_shard(n, rows, part, parts) is None else 1
                finally:
                    os._exit(code)
            pids.append(pid)
        try:
            passed = _check_shard(n, rows, 0, parts) is None
        except Exception:  # the serial check of the strip raises it again
            passed = False
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code in codes:
        if code not in (0, 1):
            raise RuntimeError(f"four-way worker for n={n} ended without a result "
                               f"(exit status {code})")
    return passed and not any(codes)


def endpoint_forms():
    """Both endpoint forms agree for m in [1, 60]; spot values
    r_endpoints(2) = 1 and r_endpoints(1) = 2/3."""
    m_hi = 60
    for m in range(1, m_hi + 1):
        formulas.r_endpoints(m)  # AssertionError on disagreement, a FAIL line in run_all
    if formulas.r_endpoints(2) != 1:
        return False, f"r_endpoints(2) = {formulas.r_endpoints(2)}, expected 1"
    if formulas.r_endpoints(1) != Fraction(2, 3):
        return False, f"r_endpoints(1) = {formulas.r_endpoints(1)}, expected 2/3"
    return True, f"both forms agree for m in [1,{m_hi}]; spot values 1 and 2/3 confirmed"


def increment_limit():
    """|(r(1,67)-r(1,66)) - 1/5| < 1e-6, from exact values at m=64,65."""
    delta = formulas.r_endpoints(65) - formulas.r_endpoints(64)
    gap = abs(delta - Fraction(1, 5))
    ok = gap < Fraction(1, 10**6)
    return ok, f"increment {float(delta):.9f}, |gap to 1/5| = {float(gap):.3e} {'<' if ok else '>='} 1e-6"


def tree_counts():
    """Matrix-tree count equals F_{2m+2} for m in [1, 20] and equals
    brute-force enumeration for n <= 8 (m=3 gives 21)."""
    m_hi = 20
    for m in range(1, m_hi + 1):
        g = straight_linear_2tree(m + 2)
        mt = spanning_tree_count(g)
        if mt != fib(2 * m + 2):
            return False, f"m={m}: matrix-tree {mt} != F_{2 * m + 2} = {fib(2 * m + 2)}"
        if m + 2 <= 8:
            bf = brute_force_tree_enumeration(g)
            if bf != mt:
                return False, f"m={m}: brute force {bf} != matrix-tree {mt}"
    if spanning_tree_count(straight_linear_2tree(5)) != 21:
        return False, "m=3 count is not 21"
    return True, f"counts match F_(2m+2) for m in [1,{m_hi}], brute force agrees to n=8, m=3 gives 21"


def forest_counts():
    """Two-forest closed count equals r * trees exactly for all (j,k),
    m <= 20: the unit strip's _pair_numerators, as every scale is 1; both
    printed forms agree; enumeration to n=8."""
    checked = 0
    for m in range(1, 21):
        (comp,) = _graph_facts(straight_linear_2tree(m + 2))[1]
        for (j, v), expect in _pair_numerators(comp):
            forests = formulas.forest_closed(m, j, v - j)  # asserts both forms
            if forests != expect:
                return False, f"(m={m},j={j},k={v - j}): {forests} != r*trees = {expect}"
            checked += 1
    for n in range(4, 9):
        g = straight_linear_2tree(n)
        enumerated = brute_force_two_forest_counts(g)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if enumerated[i, j] != two_forest_count(g, i, j):
                    return False, f"enumerated forest count mismatch at n={n}, ({i},{j})"
    return True, f"{checked} (m,j,k) triples match resistance * trees; enumeration agrees to n=8"


def ranking_golden():
    """rank_nonedges(9) serializes character-for-character to the
    published order and tie groups."""
    got = ranking.render_ranking(ranking.rank_nonedges(9))
    ok = got == GOLDEN_RANKING_N9
    detail = "n=9 ranking matches the golden serialization"
    if not ok:
        detail = f"got:      {got}\nexpected: {GOLDEN_RANKING_N9}"
    return ok, detail


def extremal_structure():
    """Within-level unimodality with exact mirror symmetry, strict level
    separation, minimizer parity positions, and the two minimum spot
    values (n=6 exact, n=50 vs 1/sqrt(5)), on closed-form numerators: over
    their one denominator F_{2m+2} they order and tie as the resistances do."""
    m_hi = 30
    for m in range(1, m_hi + 1):
        n = m + 2
        # rows[k - 1] holds offset k, rows[k - 1][j - 1] the pair (j, j + k)
        rows = [formulas._closed_numerators(m, k, range(1, n - k + 1)) for k in range(1, n - 1)]
        for k, vals in enumerate(rows, start=1):
            q = n - k
            for j in range(q // 2):
                if vals[j] != vals[q - 1 - j]:
                    return False, f"reflection fails at m={m}, k={k}, j={j + 1}"
            for j in range((q - 1) // 2):
                if not vals[j] > vals[j + 1]:
                    return False, f"unimodality fails at m={m}, k={k}, j={j + 1}"
            lo = min(vals)
            argmin = [j + 1 for j, v in enumerate(vals) if v == lo]
            if (m - k) % 2 == 1:
                expect = [(m - k + 3) // 2]
            else:
                expect = [(m - k + 2) // 2, (m - k + 4) // 2]
            if argmin != expect:
                return False, f"minimizer at m={m}, k={k}: {argmin} != {expect}"
            # Strict separation between consecutive offsets holds from k=2
            # up; the k=1 to k=2 boundary genuinely overlaps (the end edge
            # beats the most central offset-2 pair once m >= 2).
            if 2 <= k < n - 2 and not max(vals) < min(rows[k]):
                return False, f"level separation fails at m={m}, k={k}"
    v6, edges6 = formulas.min_resistance(6)
    if v6 != Fraction(5, 11) or edges6 != ((3, 4),):
        return False, f"min_resistance(6) = {v6} at {edges6}, expected 5/11 at ((3,4),)"
    v50, _ = formulas.min_resistance(50)
    gap = abs(float(v50) - 1 / math.sqrt(5))
    if gap >= 1e-8:
        return False, f"min_resistance(50) is {float(v50)}, off 1/sqrt(5) by {gap:.3e}"
    return True, (
        f"unimodal/mirror/level-separated for m <= {m_hi}; min(6) = 5/11 at (3,4); "
        f"min(50) within {gap:.1e} of 1/sqrt(5)"
    )


def identity_suite():
    """Every identity of fib.IDENTITIES holds exactly at each of its cases;
    at least 10^4 instantiations in total."""
    reports = check_all_identities()
    total = sum(r.checked for r in reports)
    bad = [r for r in reports if not r.passed]
    if bad:
        first = bad[0]
        return False, f"{first.name} fails at {first.violations[:3]}"
    if total < 10**4:
        return False, f"only {total} instantiations, need >= 10^4"
    return True, f"{len(reports)} identities, {total} exact instantiations, all pass"


def bent_reading():
    """The additive reading of the bent endpoint formula matches the
    determinant oracle on every bent strip with m in [5, 15]. On a pass
    the detail goes on with the evidence table, one line per strip."""
    rows = formulas.bent_reading_evidence()
    bad = [r for r in rows if not r[5]]
    product_hits = sum(1 for r in rows if r[6])
    if bad:
        m, k = bad[0][0], bad[0][1]
        return False, f"additive reading misses at m={m}, bend={k}"
    lines = [
        f"additive reading matches the oracle on all {len(rows)} bent strips "
        f"(m in [{rows[0][0]},{rows[-1][0]}]); product reading matches {product_hits}",
        "  m  bend  oracle            additive  product",
    ]
    for m, k, oracle, _, _, _, prod_ok in rows:
        lines.append(f"  {m:<3d}{k:<6d}{str(oracle):<18s}match     {'match' if prod_ok else 'miss'}")
    return True, "\n".join(lines)


def conjecture_probes():
    """k=1 increments exactly 1; k=2 reproduces the 1/5 limit check; the
    k=3 table is emitted (reported, not asserted); grid rows=2 is 2/3."""
    t1 = conjectures.ktree_increments(1, 12)
    for row in t1["rows"]:
        if row["increment"] is not None and row["increment"] != 1:
            return False, f"k=1 increment at n={row['n']} is {row['increment']}, not 1"
    t2 = conjectures.ktree_increments(2, 67)
    last = t2["rows"][-1]
    gap = abs(last["increment"] - Fraction(1, 5))
    if not (last["method"] == "exact" and gap < Fraction(1, 10**6)):
        return False, f"k=2 increment at n=67 off 1/5 by {float(gap):.3e}"
    t3 = conjectures.ktree_increments(3, 20)
    if t3["label"] != "conjectural" or not t3["rows"]:
        return False, "k=3 table missing or unlabeled"
    grid = conjectures.triangle_grid_growth(2)
    first = grid["rows"][0]
    if first["value"] != Fraction(2, 3) or first["method"] != "exact":
        return False, f"grid rows=2 gives {first['value']}, expected exact 2/3"
    return True, (
        f"k=1 increments all 1; k=2 increment off 1/5 by {float(gap):.1e}; "
        f"k=3 table emitted ({len(t3['rows'])} rows, conjectural); grid rows=2 = 2/3"
    )


CRITERIA = (
    ("four-way-agreement", four_way_agreement),
    ("endpoint-forms", endpoint_forms),
    ("increment-limit", increment_limit),
    ("tree-counts", tree_counts),
    ("forest-counts", forest_counts),
    ("ranking-golden", ranking_golden),
    ("extremal-structure", extremal_structure),
    ("identity-suite", identity_suite),
    ("bent-reading", bent_reading),
    ("conjecture-probes", conjecture_probes),
)


def run_all(only=None, out=print):
    names = [n for n, _ in CRITERIA]
    if only:
        unknown = [n for n in only if n not in names]
        if unknown:
            raise ValueError(f"unknown criteria: {', '.join(unknown)}; known: {', '.join(names)}")
    failures = 0
    for name, func in CRITERIA:
        if only and name not in only:
            continue
        try:
            ok, detail = func()
        except AssertionError as exc:
            ok, detail = False, str(exc)
        out(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1
