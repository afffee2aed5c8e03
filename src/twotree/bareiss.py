"""Exact determinants and adjugates by fraction-free (Bareiss) elimination.

Every intermediate division is exact, so results are exact integers no
matter how large the entries grow. A matrix is a list of sparse dict rows,
column -> int: the form the Laplacian minors of this package take. The
elimination reads the rows only at their entries: it finds the bandwidth
bw from them and works inside a sliding window, for O(n * bw^2) work and
no O(n^2) copy.

det_int returns the determinant; adjugate_int runs the same forward pass
on [M | I] and back-substitutes for the integer adjugate as well, in
O(n^2 * bw) work. The one precondition of both is that every leading
principal minor is positive, as it is for any principal minor of a
connected component's row-scaled Laplacian. Then no pivot is zero and no
row is ever swapped.
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


def _not_positive(k, n, piv):
    return AssertionError(f"minor is not positive definite: pivot {k} of {n} is {piv}")


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix given as dict rows
    column -> value, whose leading principal minors are all positive.

    Pivot k of the elimination is the leading minor of order k + 1, and the
    last one is the determinant. Raises AssertionError on a pivot <= 0: the
    matrix is not positive definite, so it is not a minor this package builds.
    """
    n = len(rows)
    bw = _bandwidth(rows)
    # The window holds rows k..k+bw, each as a dict over columns within bw
    # of its own index; an entry joins it once the larger of its two
    # indices is k+bw. Until then its virtual Bareiss value is its original
    # times prev, since every earlier step only scaled it by piv/prev.
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
            raise _not_positive(k, n, piv)
        hi = min(n, e + 1)
        for r in range(k + 1, hi):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, hi):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
        prev = piv
    return prev


def adjugate_int(rows):
    """Exact (det, adj) of the matrices det_int takes, M * adj == det * I.

    adj is a list of n int lists, adj[p][q] the cofactor of entry (q, p).
    The forward pass is det_int's, on [M | I]: it leaves pivot rows [U | B],
    U upper triangular within the band and B lower triangular, with
    U * adj == det * B because the row operations that turn M into U turn
    I into B. Back substitution then gives each row of adj from the rows
    below it; every division is exact, since adj is integral. Raises
    AssertionError on a pivot <= 0, as det_int does.
    """
    n = len(rows)
    bw = _bandwidth(rows)
    # Window rows as in det_int, plus each one's B part as a list over
    # columns 0..k-1 at step k (the rest zero). A row's own identity entry
    # is left out: no pivot row above it has that column, so each step only
    # scales it by piv/prev, and it is prev when the row becomes the pivot
    # row. A row joins with zeros, as no earlier step touched its B part.
    a = {r: {c: rows[r].get(c, 0) for c in range(bw)} for r in range(bw)}
    b = {r: [] for r in range(bw)}
    us, bs = [], []
    prev = 1
    for k in range(n):
        e = k + bw
        if e < n:
            src = rows[e]
            a[e] = {c: src.get(c, 0) * prev for c in range(k, e + 1)}
            b[e] = [0] * k
            for r in range(k, e):
                a[r][e] = rows[r].get(e, 0) * prev
        rowk = a.pop(k)
        piv = rowk[k]
        if piv <= 0:
            raise _not_positive(k, n, piv)
        bk = b.pop(k)
        bk.append(prev)
        hi = min(n, e + 1)
        for r in range(k + 1, hi):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, hi):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
            br = b[r]
            br.append(0)
            b[r] = [(x * piv - mult * y) // prev for x, y in zip(br, bk)]
        us.append(rowk)
        bs.append(bk)
        prev = piv
    adj = [None] * n
    for i in range(n - 1, -1, -1):
        acc = [prev * x for x in bs[i]] + [0] * (n - 1 - i)
        # Entries left of the diagonal in a pivot row are stale, not zero.
        for c, u in us[i].items():
            if c > i and u:
                acc = [s - u * y for s, y in zip(acc, adj[c])]
        d = us[i][i]
        adj[i] = [s // d for s in acc]
    return prev, adj


def strike(rows, drop):
    """The dict rows with the 0-based indices in `drop` removed from both
    rows and columns, renumbering the rest; striking costs the nonzeros,
    not the square."""
    gone = set(drop)
    keep = [i for i in range(len(rows)) if i not in gone]
    col = {c: t for t, c in enumerate(keep)}
    return [{col[c]: x for c, x in rows[r].items() if c in col} for r in keep]
