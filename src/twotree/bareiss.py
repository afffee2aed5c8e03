"""Exact determinants and solves from one fraction-free LU.

The banded Bareiss elimination (Bareiss 1968) divides exactly at every
step, so results are exact integers no matter how large the entries grow.
A matrix is a list of sparse dict rows, column -> int: the form in
which the engine builds each component's grounded, row-scaled Laplacian.
The elimination reads the rows only at their entries: it finds the
bandwidth bw from them and works inside a sliding window, for
O(n * bw^2) work and no O(n^2) copy.

The one precondition: the matrix is M = diag(scales) S with S symmetric
positive definite, as any proper principal minor of a connected component's
Laplacian is, with its rows scaled to integers. Then every pivot is
positive, so no row is ever swapped, and by S's symmetry each multiplier
of the L factor is an entry of U times scales[r] / scales[k]. So lu_int,
the one elimination, keeps only the fraction-free U (Zhou & Jeffrey 2008),
each pivot row from its diagonal on: that tuple is the factorization.
det_int is its last pivot, the determinant. solve_int is the one solve:
it replays the multipliers, read from U's columns, on one sparse vector c
and back-substitutes for adj(M) diag(scales) c, which is det(M) S^-1 c,
from c's first nonzero down, in O(n * bw) work.
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


def lu_int(rows, scales):
    """The fraction-free U of M = diag(scales) S, S symmetric positive
    definite, given as dict rows column -> value: a tuple of pivot rows,
    the factorization solve_int reads.

    Pivot row k is a dict over columns k..k + bw: its value at k is pivot k,
    the leading minor of order k + 1, so the last pivot is the determinant,
    and right of k it is row k of U. Only the upper triangle is read and
    eliminated; step k's multiplier for row r is rowk[r] * scales[r] //
    scales[k], an exact division. Raises AssertionError on a pivot <= 0: the
    matrix is not positive definite, so it is not a minor this package
    builds, and only a row swap could go on.
    """
    n = len(rows)
    bw = _bandwidth(rows)
    # The window holds rows k..k+bw from their diagonals on; an entry joins
    # it once its column is k+bw. Until then its virtual Bareiss value is its
    # original times prev, since every earlier step only scaled it by
    # piv/prev.
    a = {r: {c: rows[r].get(c, 0) for c in range(r, bw)} for r in range(bw)}
    lu = []
    prev = 1
    for k in range(n):
        e = k + bw
        if e < n:
            a[e] = {}
            for r in range(k, e + 1):
                a[r][e] = rows[r].get(e, 0) * prev
        rowk = a.pop(k)
        piv = rowk[k]
        if piv <= 0:
            raise AssertionError(f"minor is not positive definite: pivot {k} of {n} is {piv}")
        hi = min(n, e + 1)
        for r in range(k + 1, hi):
            rowr = a[r]
            mult = rowk[r] * scales[r] // scales[k]
            for c in range(r, hi):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
        lu.append(rowk)
        prev = piv
    return tuple(lu)


def det_int(rows, scales) -> int:
    """Exact determinant of a matrix lu_int takes: the last pivot of its
    factorization, 1 for the empty matrix. Raises AssertionError on a
    pivot <= 0, as lu_int does.
    """
    lu = lu_int(rows, scales)
    return lu[-1][len(lu) - 1] if lu else 1


def solve_int(lu, scales, c):
    """adj(M) diag(scales) c, which is det(M) S^-1 c, at rows min(c)..n-1,
    in order, for the factorization lu of M = diag(scales) S and a sparse
    int vector c (dict position -> int); [] for an empty c.

    The forward pass replays the elimination on diag(scales) c from c's
    first nonzero on (above it the result is zero), divided by the scales
    row by row: step t's multiplier on row i is then U's lu[t][i], and by
    S's symmetry every value is an integer. Back substitution applies
    scales[i] once per row, from the last row down to c's first nonzero.
    Every division is exact: O(n * bw) integer work.
    """
    n = len(lu)
    pivots = [1] + [row[k] for k, row in enumerate(lu)]  # entry k is prev at step k
    det = pivots[-1]
    bw = max(lu[0]) if lu else 0  # pivot row 0 spans columns 0..bw
    first = min(c, default=n)
    y = [0] * n
    for i, x in c.items():
        # Row i enters the window at step i - bw; before that step, or
        # before c's first nonzero, each step only scales y_i by piv/prev.
        y[i] = x * pivots[max(i - bw, first)]
    for t in range(first, n):
        row, yt, piv, prev = lu[t], y[t], pivots[t + 1], pivots[t]
        for i in range(t + 1, min(n, t + bw + 1)):
            y[i] = (y[i] * piv - row[i] * yt) // prev
    # Back substitution in place: y[col] is the solve at col once col > i.
    for i in range(n - 1, first - 1, -1):
        row = lu[i]
        acc = det * scales[i] * y[i]
        for col in range(i + 1, min(n, i + bw + 1)):
            acc -= row[col] * y[col]
        y[i] = acc // row[i]
    return y[first:]
