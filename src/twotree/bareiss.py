"""Exact determinants and adjugates from one fraction-free LU.

The banded Bareiss elimination (Bareiss 1968) divides exactly at every
step, so results are exact integers no matter how large the entries grow.
A matrix is a list of sparse dict rows, column -> int: the form the
Laplacian minors of this package take. The elimination reads the rows
only at their entries: it finds the bandwidth bw from them and works
inside a sliding window, for O(n * bw^2) work and no O(n^2) copy.

It runs once, in _pivot_rows, and is read two ways. Each pivot row holds
the fraction-free U right of its diagonal and its own multipliers, the
L factor, left of it. det_int keeps the last pivot, the determinant.
adjugate_int replays the multipliers on I, then back-substitutes for the
integer adjugate, in O(n^2 * bw) work. The one precondition of both is
that every leading principal minor is positive, as it is for any
principal minor of a connected component's row-scaled Laplacian. Then no
pivot is zero and no row is ever swapped.
"""


def _bandwidth(rows):
    # The bandwidth of the rows' entries, which must lie in the square.
    n = len(rows)
    bw = 0
    for r, row in enumerate(rows):
        if row:
            lo, hi = min(row), max(row)
            if lo < 0 or hi >= n:
                raise ValueError("matrix must be square")
            bw = max(bw, r - lo, hi - r)
    return bw


def _pivot_rows(rows):
    # Yields pivot row k, a dict over the columns within bw of k, once it is
    # final. Its value at k is pivot k, the leading minor of order k + 1;
    # right of k it is row k of U. Left of k it holds, at each column t, the
    # multiplier of step t: no step after t writes column t. Raises
    # AssertionError on a pivot <= 0, where a row swap would be needed.
    n = len(rows)
    bw = _bandwidth(rows)
    # The window holds rows k..k+bw; an entry joins it once the larger of
    # its two indices is k+bw. Until then its virtual Bareiss value is its
    # original times prev, since every earlier step only scaled it by
    # piv/prev.
    a = {r: {c: rows[r].get(c, 0) for c in range(bw)} for r in range(bw)}
    prev = 1
    for k in range(n):
        e = k + bw
        if e < n:
            src = rows[e]
            a[e] = {c: src.get(c, 0) * prev for c in range(k, e + 1)}
            for r in range(k, e):
                a[r][e] = rows[r].get(e, 0) * prev
        rowk = a.pop(k)
        piv = rowk[k]
        if piv <= 0:
            raise AssertionError(f"minor is not positive definite: pivot {k} of {n} is {piv}")
        hi = min(n, e + 1)
        for r in range(k + 1, hi):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, hi):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
        yield rowk
        prev = piv


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix given as dict rows
    column -> value, whose leading principal minors are all positive.

    Pivot k of the elimination is the leading minor of order k + 1, and the
    last one is the determinant. Raises AssertionError on a pivot <= 0: the
    matrix is not positive definite, so it is not a minor this package builds.
    """
    det = 1
    for k, row in enumerate(_pivot_rows(rows)):
        det = row[k]
    return det


def adjugate_int(rows):
    """Exact (det, adj) of the matrices det_int takes, M * adj == det * I.

    adj is a list of n int lists, adj[p][q] the cofactor of entry (q, p).
    The row operations that turn M into U turn I into a lower triangular
    B, so U * adj == det * B. Row i of B comes from replaying row i's own
    multipliers on the B rows above it. Back substitution then gives each
    row of adj from the rows below it; every division is exact, since adj
    is integral. Raises AssertionError on a pivot <= 0, as det_int does.
    """
    us, bs = [], []
    pivots = [1]  # pivots[k] is prev at step k, pivots[k + 1] its pivot
    for i, row in enumerate(_pivot_rows(rows)):
        # Row i entered the window at step lo with a zero B part. Its own
        # identity entry is left out until the end: no pivot row above it
        # has that column, so each step only scales it by piv/prev.
        lo = min(row)
        b = [0] * lo
        for t in range(lo, i):
            piv, prev, mult, bt = pivots[t + 1], pivots[t], row[t], bs[t]
            b.append(0)
            b = [(x * piv - mult * y) // prev for x, y in zip(b, bt)]
        b.append(pivots[i])
        us.append(row)
        bs.append(b)
        pivots.append(row[i])
    n, det = len(us), pivots[-1]
    adj = [None] * n
    for i in range(n - 1, -1, -1):
        acc = [det * x for x in bs[i]] + [0] * (n - 1 - i)
        # Entries left of the diagonal in a pivot row are multipliers.
        for c, u in us[i].items():
            if c > i and u:
                acc = [s - u * y for s, y in zip(acc, adj[c])]
        d = us[i][i]
        adj[i] = [s // d for s in acc]
    return det, adj


def strike(rows, drop):
    """The dict rows with the 0-based indices in `drop` removed from both
    rows and columns, renumbering the rest; striking costs the nonzeros,
    not the square."""
    gone = set(drop)
    keep = [i for i in range(len(rows)) if i not in gone]
    col = {c: t for t, c in enumerate(keep)}
    return [{col[c]: x for c, x in rows[r].items() if c in col} for r in keep]
