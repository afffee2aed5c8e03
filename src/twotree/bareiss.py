"""Exact determinants by fraction-free (Bareiss) elimination.

Every intermediate division is exact, so results are exact integers no
matter how large the entries grow. Banded matrices (all the Laplacian
minors in this package are banded) are eliminated inside a sliding window
for O(n * bw^2) work instead of O(n^3).
"""


def _bandwidth(a, n):
    bw = 0
    for i in range(n):
        row = a[i]
        for j in range(n):
            if row[j] and abs(i - j) > bw:
                bw = abs(i - j)
    return bw


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


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix.

    Uses the banded elimination window when the matrix is banded and no zero
    pivot shows up (true for the positive definite minors this package
    builds); otherwise falls back to the dense row-swapping pass.
    """
    n = len(rows)
    if n == 0:
        return 1
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix must be square")
    a0 = [[int(x) for x in row] for row in rows]
    if n == 1:
        return a0[0][0]
    bw = _bandwidth(a0, n)
    if bw == 0:
        out = 1
        for i in range(n):
            out *= a0[i][i]
        return out
    if bw >= n - 1:
        return _det_dense(a0)
    a = [row[:] for row in a0]
    prev = 1
    for k in range(n - 1):
        # Entries whose larger index equals k+bw join the window now; up to
        # this point their virtual Bareiss value is original * prev.
        e = k + bw
        if e < n:
            for c in range(k, e + 1):
                a[e][c] = a0[e][c] * prev
            for r in range(k, e):
                a[r][e] = a0[r][e] * prev
        piv = a[k][k]
        if piv == 0:
            return _det_dense(a0)
        hi = min(n, k + 1 + bw)
        rowk = a[k]
        for r in range(k + 1, hi):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, hi):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
            rowr[k] = 0
        prev = piv
    return a[n - 1][n - 1]


def strike(rows, drop):
    """Copy of the matrix with the 0-based indices in `drop` removed
    from both rows and columns."""
    gone = set(drop)
    keep = [i for i in range(len(rows)) if i not in gone]
    return [[rows[r][c] for c in keep] for r in keep]
