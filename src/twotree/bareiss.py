"""Exact determinants by fraction-free (Bareiss) elimination.

Every intermediate division is exact, so results are exact integers no
matter how large the entries grow. A matrix is a list of sparse dict rows,
column -> int: the form the Laplacian minors of this package take. The
elimination reads the rows only at their entries: it finds the bandwidth
bw from them and works inside a sliding window, for O(n * bw^2) work and
no O(n^2) copy.

The one precondition is that every leading principal minor is positive,
as it is for any principal minor of a connected component's row-scaled
Laplacian. Then no pivot is zero and no row is ever swapped.
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
            raise AssertionError(f"minor is not positive definite: pivot {k} of {n} is {piv}")
        hi = min(n, e + 1)
        for r in range(k + 1, hi):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, hi):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
        prev = piv
    return prev


def strike(rows, drop):
    """The dict rows with the 0-based indices in `drop` removed from both
    rows and columns, renumbering the rest; striking costs the nonzeros,
    not the square."""
    gone = set(drop)
    keep = [i for i in range(len(rows)) if i not in gone]
    col = {c: t for t, c in enumerate(keep)}
    return [{col[c]: x for c, x in rows[r].items() if c in col} for r in keep]
