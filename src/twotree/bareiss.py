"""Exact determinants and solves from one fraction-free LU.

The banded Bareiss elimination (Bareiss 1968) divides exactly at every
step, so results are exact integers no matter how large the entries grow.
A matrix is a list of sparse dict rows, column -> int: the form in
which the engine builds each component's grounded, row-scaled Laplacian.
The elimination reads the rows only at their entries: it finds the
bandwidth bw from them and works inside a sliding window, for
O(n * bw^2) work and no O(n^2) copy.

lu_int is the one elimination. It keeps every pivot row: the fraction-free
U right of its diagonal and its own multipliers, the L factor, left of it
(Zhou & Jeffrey 2008). That tuple is the factorization, and it is read
with no further elimination. det_int is its last pivot, the determinant.
solve_int is the one solve: it replays the multipliers on one sparse
vector c and back-substitutes for adj * c in O(n * bw) work, so n solves
give the whole integer adjugate. The one precondition is that every
leading principal minor is positive, as it is for a connected
component's grounded Laplacian or any other principal minor of its
row-scaled Laplacian. Then no pivot is zero and no row is ever swapped.
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


def lu_int(rows):
    """The fraction-free LU of a square integer matrix given as dict rows
    column -> value, whose leading principal minors are all positive, as a
    tuple of pivot rows: the factorization solve_int reads.

    Pivot row k is a dict over the columns within the bandwidth of k. Its
    value at k is pivot k, the leading minor of order k + 1, so the last
    pivot is the determinant; right of k it is row k of U, and left of k it
    holds, at each column t, the multiplier of step t: no step after t
    writes column t. Raises AssertionError on a pivot <= 0: the matrix is
    not positive definite, so it is not a minor this package builds, and
    only a row swap could go on.
    """
    n = len(rows)
    bw = _bandwidth(rows)
    # The window holds rows k..k+bw; an entry joins it once the larger of
    # its two indices is k+bw. Until then its virtual Bareiss value is its
    # original times prev, since every earlier step only scaled it by
    # piv/prev.
    a = {r: {c: rows[r].get(c, 0) for c in range(bw)} for r in range(bw)}
    lu = []
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
        lu.append(rowk)
        prev = piv
    return tuple(lu)


def det_int(rows) -> int:
    """Exact determinant of a matrix lu_int takes: the last pivot of its
    factorization, 1 for the empty matrix. Raises AssertionError on a
    pivot <= 0, as lu_int does.
    """
    lu = lu_int(rows)
    return lu[-1][len(lu) - 1] if lu else 1


def solve_int(lu, c, read):
    """adj(M) * c at the positions in `read`, in that order, for the
    factorization lu of M and a sparse int vector c (dict position -> int).

    The row operations that turn M into U turn c into B * c, so
    U * (adj * c) == det * B * c. The forward pass replays each row's own
    multipliers on c, starting at c's first nonzero: above it B * c is
    zero. Back substitution then runs from the last row down to the first
    position read. Every division is exact, so all of it is integer work:
    O(n * bw). Column q of the adjugate is the solve of e_q.
    """
    n = len(lu)
    pivots = [1] + [row[k] for k, row in enumerate(lu)]  # entry k is prev at step k
    det = pivots[-1]
    bw = max(lu[0]) if lu else 0  # pivot row 0 spans columns 0..bw
    first = min(c, default=n)
    y = [0] * n
    for i in range(first, n):
        # Row i entered the window at step i - bw; before that step, or
        # before c's first nonzero, each step only scaled y_i by piv/prev.
        row = lu[i]
        lo = max(i - bw, first)
        yi = c.get(i, 0) * pivots[lo]
        for t in range(lo, i):
            yi = (yi * pivots[t + 1] - row[t] * y[t]) // pivots[t]
        y[i] = yi
    # Back substitution in place: y[col] is adj * c at col once col > i.
    for i in range(n - 1, min(read, default=n) - 1, -1):
        row = lu[i]
        acc = det * y[i]
        for col in range(i + 1, min(n, i + bw + 1)):
            acc -= row[col] * y[col]
        y[i] = acc // row[i]
    return [y[p] for p in read]

