"""Exact determinants by fraction-free (Bareiss) elimination.

Every intermediate division is exact, so results are exact integers no
matter how large the entries grow. A matrix is a list of rows, each row
either a dense list or a sparse dict column -> value (the form the
Laplacian minors of this package take). The elimination reads dict rows
only at their entries: it finds the bandwidth bw from them and works
inside a sliding window, for O(n * bw^2) work and no O(n^2) copy.
"""


def _det_dense(a0):
    """Bareiss with row pivoting; works for any square integer matrix."""
    a = [row[:] for row in a0]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        rowk = a[k]
        for r in range(k + 1, n):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, n):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
            rowr[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def _sparse_rows(rows, n):
    # Rows as dicts column -> int, plus the bandwidth of their entries.
    out = []
    bw = 0
    for r, row in enumerate(rows):
        if not isinstance(row, dict):
            if len(row) != n:
                raise ValueError("matrix must be square")
            row = {c: int(x) for c, x in enumerate(row) if x}
        if row:
            lo, hi = min(row), max(row)
            if lo < 0 or hi >= n:
                raise ValueError("matrix must be square")
            bw = max(bw, r - lo, hi - r)
        out.append(row)
    return out, bw


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix: a list of rows, each a
    dense list or a dict column -> value.

    Runs the banded elimination window when no zero pivot shows up (true
    for the positive definite minors this package builds); otherwise falls
    back to the dense row-swapping pass.
    """
    n = len(rows)
    if n == 0:
        return 1
    a0, bw = _sparse_rows(rows, n)
    # A window of at least one row below the pivot also serves diagonal
    # matrices, and bw = n - 1 is the dense case in the same loop.
    bw = max(bw, 1)
    # The window holds rows k..k+bw, each as a dict over columns within bw
    # of its own index; an entry joins it once the larger of its two
    # indices is k+bw. Until then its virtual Bareiss value is its original
    # times prev, since every earlier step only scaled it by piv/prev.
    a = {r: {c: a0[r].get(c, 0) for c in range(bw)} for r in range(bw)}
    prev = 1
    for k in range(n - 1):
        e = k + bw
        if e < n:
            src = a0[e]
            a[e] = {c: src.get(c, 0) * prev for c in range(k, e + 1)}
            for r in range(k, e):
                a[r][e] = a0[r].get(e, 0) * prev
        rowk = a.pop(k)
        piv = rowk[k]
        if piv == 0:
            return _det_dense(_dense(a0, n))
        hi = min(n, e + 1)
        for r in range(k + 1, hi):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, hi):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
        prev = piv
    return a[n - 1][n - 1]


def _dense(a0, n):
    return [[row.get(c, 0) for c in range(n)] for row in a0]


def strike(rows, drop):
    """The matrix with the 0-based indices in `drop` removed from both rows
    and columns, renumbering the rest. Dict rows stay dicts, so striking a
    sparse matrix costs its nonzeros, not its square."""
    gone = set(drop)
    keep = [i for i in range(len(rows)) if i not in gone]
    if rows and isinstance(rows[0], dict):
        col = {c: t for t, c in enumerate(keep)}
        return [{col[c]: x for c, x in rows[r].items() if c in col} for r in keep]
    return [[rows[r][c] for c in keep] for r in keep]
