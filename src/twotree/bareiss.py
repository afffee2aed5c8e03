"""Exact determinants, solves and adjugates from one fraction-free LU.

The banded Bareiss elimination (Bareiss 1968) divides exactly at every
step, so results are exact integers no matter how large the entries grow.
A matrix is a list of sparse dict rows, column -> int: the form the
Laplacian minors of this package take. The elimination reads the rows
only at their entries: it finds the bandwidth bw from them and works
inside a sliding window, for O(n * bw^2) work and no O(n^2) copy.

It runs in _pivot_rows. Each pivot row holds the fraction-free U right
of its diagonal and its own multipliers, the L factor, left of it
(Zhou & Jeffrey 2008). det_int keeps only the last pivot, the
determinant. lu_int keeps every pivot row: that tuple is the
factorization, and it is read with no further elimination. solve_int
replays the multipliers on one sparse vector c and back-substitutes for
adj * c in O(n * bw) work; adjugate_int does the same on I for the whole
integer adjugate, in O(n^2 * bw). The one precondition is that every
leading principal minor is positive, as it is for any principal minor
of a connected component's row-scaled Laplacian. Then no pivot is zero
and no row is ever swapped.
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


def lu_int(rows):
    """The fraction-free LU of the matrices det_int takes, as a tuple of
    pivot rows: the factorization solve_int and adjugate_int read.

    Pivot row k is a dict over the columns within the bandwidth of k. Its
    value at k is pivot k, the leading minor of order k + 1, so the last
    pivot is the determinant; right of k it is row k of U, and left of k
    it holds the L multipliers. Raises AssertionError on a pivot <= 0, as
    det_int does.
    """
    return tuple(_pivot_rows(rows))


def _pivots(lu):
    # [1, pivot 0, ..., pivot n-1]: entry k is prev at step k.
    return [1] + [row[k] for k, row in enumerate(lu)]


def solve_int(lu, c, read):
    """adj(M) * c at the positions in `read`, in that order, for the
    factorization lu of M and a sparse int vector c (dict position -> int).

    The row operations that turn M into U turn c into B * c, so
    U * (adj * c) == det * B * c. The forward pass replays each row's own
    multipliers on c, starting at c's first nonzero: above it B * c is
    zero. Back substitution then runs from the last row down to the first
    position read, keeping only the last bw entries besides those read.
    Every division is exact, so all of it is integer work: O(n * bw).
    """
    n = len(lu)
    pivots = _pivots(lu)
    det = pivots[-1]
    first = min(c, default=n)
    y = [0] * n
    for i in range(first, n):
        # Row i entered the window at step min(row); before that step, or
        # before c's first nonzero, each step only scaled y_i by piv/prev.
        row = lu[i]
        lo = max(min(row), first)
        yi = c.get(i, 0) * pivots[lo]
        for t in range(lo, i):
            yi = (yi * pivots[t + 1] - row[t] * y[t]) // pivots[t]
        y[i] = yi
    bw = max(lu[0]) if lu else 0  # pivot row 0 spans columns 0..bw
    keep = set(read)
    w = {}
    for i in range(n - 1, min(keep, default=n) - 1, -1):
        row = lu[i]
        acc = det * y[i]
        for col in range(i + 1, min(n, i + bw + 1)):
            acc -= row[col] * w[col]
        w[i] = acc // row[i]
        if i + bw not in keep:
            w.pop(i + bw, None)
    return [w[p] for p in read]


def adjugate_int(lu):
    """Exact (det, adj) of M from its factorization lu = lu_int(M), with
    M * adj == det * I.

    adj is a list of n int lists, adj[p][q] the cofactor of entry (q, p).
    The row operations that turn M into U turn I into a lower triangular
    B, so U * adj == det * B. Row i of B comes from replaying row i's own
    multipliers on the B rows above it, the recurrence solve_int runs on
    one vector. Back substitution then gives each row of adj from the
    rows below it; every division is exact, since adj is integral.
    O(n^2 * bw) work.
    """
    pivots = _pivots(lu)  # pivots[k] is prev at step k, pivots[k + 1] its pivot
    bs = []
    for i, row in enumerate(lu):
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
        bs.append(b)
    n, det = len(lu), pivots[-1]
    adj = [None] * n
    for i in range(n - 1, -1, -1):
        acc = [det * x for x in bs[i]] + [0] * (n - 1 - i)
        # Entries left of the diagonal in a pivot row are multipliers.
        for c, u in lu[i].items():
            if c > i and u:
                acc = [s - u * y for s, y in zip(acc, adj[c])]
        d = lu[i][i]
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
