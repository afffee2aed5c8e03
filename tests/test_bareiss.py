"""Determinant and exact-reader kernel checks.

The banded elimination is the workhorse behind every resistance and
count in the package, so it gets an independent referee: det_ref, a
dense fraction-free elimination with row pivoting that works for any
square matrix, plus a handful of determinants known in closed form. The
pair reading c^T adj(M) diag(scales) c, and the adjugate times
diag(scales) read row by row from U, are refereed by the signed cofactors
that reference gives. lu_int takes only M = diag(scales) S with S symmetric
positive definite, so it is fed minors of row-scaled Laplacians and
symmetric strictly diagonally dominant matrices times positive row
scales, and must refuse any pivot <= 0 on symmetric ones; det_int reads
the determinant from its factorization.
"""

from fractions import Fraction
from math import lcm
import random

import pytest
from hypothesis import given, settings, strategies as st

from twotree.bareiss import det_int, inverse_int, lu_int, quad_int

from laplacian_reference import det_ref, strike

NOT_PD = "not positive definite"


def _sparse(mat):
    return [{c: x for c, x in enumerate(row) if x} for row in mat]


def _ones(n):
    return (1,) * n


def _cofactor(rows, p, q):
    """Entry (p, q) of the adjugate: (-1)^(p+q) times the reference
    determinant of the matrix without row q and column p."""
    minor = [{j - (j > p): x for j, x in row.items() if j != p}
             for i, row in enumerate(rows) if i != q]
    return (-1) ** (p + q) * det_ref(minor)


def _adj_ref(rows):
    """Adjugate by signed cofactors."""
    n = len(rows)
    return [[_cofactor(rows, p, q) for q in range(n)] for p in range(n)]


def _quad_ref(rows, scales, c):
    """c^T adj(M) diag(scales) c by signed cofactors, with only the
    cofactors c's nonzeros need."""
    return sum(y * _cofactor(rows, p, q) * scales[q] * x
               for p, y in c.items() for q, x in c.items())


def _adj_by_inverse(lu, scales):
    """adj(M) diag(scales) of the factored matrix, which is symmetric:
    entry (p, q) is inverse_int's row min(p, q) at offset |p - q|."""
    n = len(lu)
    w = inverse_int(lu, scales)
    return [[w[min(p, q)][abs(p - q)] for q in range(n)] for p in range(n)]


def _scaled(adj, scales):
    """adj * diag(scales) for a list-of-lists matrix."""
    return [[x * s for x, s in zip(row, scales)] for row in adj]


def _form(adj, c):
    """c^T adj c for a list-of-lists matrix and a sparse dict vector."""
    return sum(y * adj[p][q] * x for p, y in c.items() for q, x in c.items())


def _vectors(randint, n):
    """Sparse int vectors of order n: one nonzero, two, and dense."""
    one = {randint(0, n - 1): randint(-9, 9) or 1}
    two = {randint(0, n - 1): randint(1, 9), randint(0, n - 1): randint(-9, -1)}
    dense = {q: randint(-9, 9) for q in range(n)}
    return one, two, dense


def _times(rows, adj):
    """The dense product of dict rows and a list-of-lists matrix."""
    n = len(rows)
    return [[sum(x * adj[c][q] for c, x in row.items()) for q in range(n)] for row in rows]


def test_empty_matrix():
    assert det_int(lu_int([], ())) == 1


def test_one_by_one():
    assert det_int(lu_int([{0: 7}], (1,))) == 7
    for bad in ([{0: -7}], [{}]):
        with pytest.raises(AssertionError, match=NOT_PD):
            det_int(lu_int(bad, (1,)))


def test_identity_and_permutation():
    eye = [{i: 1} for i in range(5)]
    assert det_int(lu_int(eye, _ones(5))) == 1
    swap = [{1: 1}, {0: 1}] + eye[2:]
    with pytest.raises(AssertionError, match=NOT_PD):
        det_int(lu_int(swap, _ones(5)))


def test_known_dense_values():
    # diag(1, 2, 3) times the symmetric [[2, 0, 1], [0, 3, 1], [1, 1, 2]] of det 7
    assert det_int(lu_int(_sparse([[2, 0, 1], [0, 6, 2], [3, 3, 6]]), (1, 2, 3))) == 42
    # negative last pivot, then a zero one (diag(2, 1, 3) times a singular
    # symmetric matrix): both are the determinant
    for mat, scales in (([[1, 2], [2, 3]], (1, 1)), ([[2, 2, 2], [1, 2, 1], [3, 3, 3]], (2, 1, 3))):
        with pytest.raises(AssertionError, match=NOT_PD):
            det_int(lu_int(_sparse(mat), scales))


def test_singular_matrices():
    for mat in ([[1, 2], [2, 4]], [[0, 0], [0, 5]]):
        with pytest.raises(AssertionError, match=NOT_PD):
            det_int(lu_int(_sparse(mat), (1, 1)))


def test_zero_pivot_needs_row_swap():
    # leading entry zero but matrix regular: only a row swap could go on
    for mat in ([[0, 1], [1, 0]], [[0, 1, 0], [1, 0, 1], [0, 1, 1]]):
        with pytest.raises(AssertionError, match="pivot 0 of"):
            det_int(lu_int(_sparse(mat), _ones(len(mat))))


def test_tridiagonal_continuant():
    # det of the n-by-n tridiagonal with 2 on the diagonal and -1 off it
    # is n + 1 (path-graph spanning tree count)
    for n in range(1, 12):
        rows = [{c: 2 if c == i else -1 for c in (i - 1, i, i + 1) if 0 <= c < n}
                for i in range(n)]
        assert det_int(lu_int(rows, _ones(n))) == n + 1, f"continuant wrong at n={n}"


def test_strike_removes_row_and_column():
    # sparse rows stay sparse, with the kept columns renumbered
    rows = [{0: 2, 1: -1}, {0: -1, 1: 2, 2: -1}, {1: -1, 2: 2, 3: -1}, {2: -1, 3: 1}]
    assert strike(rows, (1,)) == [{0: 2}, {1: 2, 2: -1}, {1: -1, 2: 1}]
    assert strike(rows, (0, 3)) == [{0: 2, 1: -1}, {0: -1, 1: 2}]
    assert det_int(lu_int(strike(rows, (0,)), _ones(3))) == 1


def test_sparse_rows_must_fit_the_square():
    with pytest.raises(ValueError, match="square"):
        det_int(lu_int([{0: 1, 2: 1}, {1: 1}], (1, 1)))


def _dominant(randint, n, bw):
    """Rows of diag(scales) S for random positive row scales and a banded
    symmetric S, strictly diagonally dominant with a positive diagonal, so
    S is positive definite. Returns (rows, scales)."""
    sym = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, min(n, i + bw + 1)):
            x = randint(-9, 9)
            if x:
                sym[i][j] = sym[j][i] = x
    scales = tuple(randint(1, 9) for _ in range(n))
    rows = []
    for i, (row, scale) in enumerate(zip(sym, scales)):
        row[i] = sum(map(abs, row.values())) + randint(1, 9)
        rows.append({j: scale * x for j, x in row.items()})
    return rows, scales


def _laplacian_minor(randint, n, bw):
    """Row-scaled integer Laplacian of a connected weighted multigraph on
    vertices 0..n, with vertex 0 struck. Edges among 1..n join vertices at
    most bw apart; a path 1..n (when bw > 0) and edges to vertex 0 keep the
    graph connected. Rational resistances make the row scales differ.
    Returns (rows, scales)."""
    edges = [(0, v) for v in range(1, n + 1) if bw == 0 or v == 1 or randint(0, 2) == 0]
    if bw:
        edges += [(v, v + 1) for v in range(1, n)]
    for _ in range(randint(0, 2 * n)):
        u = randint(1, n)
        v = randint(max(1, u - bw), min(n, u + bw))
        if u != v:
            edges.append((u, v))
    cond = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for u, v in edges:
        c = Fraction(randint(1, 6), randint(1, 6))
        cond[u][v] += c
        cond[v][u] += c
    rows, scales = [], []
    for u in range(1, n + 1):
        lap = {v - 1: -cond[u][v] for v in range(1, n + 1) if cond[u][v]}
        lap[u - 1] = sum(cond[u])
        scale = lcm(*(x.denominator for x in lap.values()))
        rows.append({c: int(x * scale) for c, x in lap.items()})
        scales.append(scale)
    return rows, tuple(scales)


@pytest.mark.parametrize("bw", [0, 1, 2, 3, 5])
def test_banded_agrees_with_dense_seeded(bw):
    rng = random.Random(1000 + bw)
    # Short matrices, then long ones that slide the window well past bw,
    # the two kinds in turn. Every other long one is then checked again
    # with row k zeroed up to the diagonal and column k down to it, which
    # keeps it symmetric after scaling: its leading minor of order k+1
    # vanishes, so step k meets a zero pivot, which lu_int must refuse.
    for n_max, count in ((8, 40), (40, 20)):
        for t in range(count):
            n = rng.randint(1, n_max)
            rows, scales = (_laplacian_minor, _dominant)[t % 2](rng.randint, n, bw)
            expect = det_ref(rows)
            assert expect > 0 and det_int(lu_int(rows, scales)) == expect, \
                f"bw={bw} disagreement on {rows}"
            if n_max > 8 and t % 2:
                k = rng.randrange(n)
                rows[k] = {c: x for c, x in rows[k].items() if c > k}
                for row in rows[:k]:
                    row.pop(k, None)
                with pytest.raises(AssertionError, match=f"pivot {k} of"):
                    det_int(lu_int(rows, scales))
                with pytest.raises(AssertionError, match=f"pivot {k} of"):
                    lu_int(rows, scales)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_banded_agrees_with_dense(data):
    n = data.draw(st.integers(1, 8))
    bw = data.draw(st.integers(0, n))
    make = data.draw(st.sampled_from([_laplacian_minor, _dominant]))
    rows, scales = make(lambda lo, hi: data.draw(st.integers(lo, hi)), n, bw)
    assert det_int(lu_int(rows, scales)) == det_ref(rows)
    lu, adj = lu_int(rows, scales), _scaled(_adj_ref(rows), scales)
    assert _adj_by_inverse(lu, scales) == adj
    for c in _vectors(lambda lo, hi: data.draw(st.integers(lo, hi)), n):
        assert quad_int(lu, scales, c) == _form(adj, c)


# === Adjugate ===


def test_adjugate_of_empty_and_one_by_one():
    assert lu_int([], ()) == ()
    assert quad_int((), (), {}) == 0
    assert inverse_int((), ()) == []
    assert quad_int(lu_int([{0: 7}], (1,)), (1,), {0: 3}) == 9
    assert inverse_int(lu_int([{0: 7}], (2,)), (2,)) == [[2]]
    assert _adj_by_inverse(lu_int([{0: 7}], (1,)), (1,)) == [[1]]


@pytest.mark.parametrize("bw", [0, 1, 2, 3])
def test_adjugate_agrees_with_cofactors_seeded(bw):
    rng = random.Random(2000 + bw)
    for _ in range(30):
        rows, scales = _laplacian_minor(rng.randint, rng.randint(1, 7), bw)
        assert det_int(lu_int(rows, scales)) == det_ref(rows), f"bw={bw} determinant differs on {rows}"
        assert _adj_by_inverse(lu_int(rows, scales), scales) == _scaled(_adj_ref(rows), scales), \
            f"bw={bw} adjugate differs on {rows}"


@pytest.mark.parametrize("bw", [0, 1, 2, 3])
def test_solve_agrees_with_cofactors_seeded(bw):
    # c^T adj(M) diag(scales) c for c with one nonzero, two and dense: the
    # forward pass from c's first nonzero and the bordered minors beside it.
    rng = random.Random(4000 + bw)
    for _ in range(30):
        n = rng.randint(1, 7)
        rows, scales = _laplacian_minor(rng.randint, n, bw)
        lu, adj = lu_int(rows, scales), _scaled(_adj_ref(rows), scales)
        for c in _vectors(rng.randint, n):
            assert quad_int(lu, scales, c) == _form(adj, c), \
                f"bw={bw} pair reading differs on {rows}, {c}"


def test_solve_on_long_matrices_from_the_last_rows():
    # c's first nonzero near the end: the forward pass covers only the
    # last rows, and must still give the cofactors' form. From row 0 on,
    # it crosses every row, and must equal the form read from
    # inverse_int's rows, whose product with M is det * diag(scales).
    rng = random.Random(5000)
    for bw in (1, 2, 5):
        n = 40
        rows, scales = _laplacian_minor(rng.randint, n, bw)
        lu = lu_int(rows, scales)
        det = det_int(lu)
        for c in ({n - 1: 1}, {n - 3: 2, n - 1: -5}):
            assert quad_int(lu, scales, c) == _quad_ref(rows, scales, c)
        adj = _adj_by_inverse(lu, scales)
        assert _times(rows, adj) == [[det * scales[p] * (p == q) for q in range(n)]
                                     for p in range(n)]
        c = {0: 1, n - 1: -1}
        assert quad_int(lu, scales, c) == _form(adj, c)


@pytest.mark.parametrize("bw", [0, 1, 2, 5])
def test_adjugate_on_long_matrices_inverts_times_det(bw):
    # Long enough that the window slides far past bw.
    rng = random.Random(3000 + bw)
    for t in range(6):
        n = rng.randint(20, 40)
        rows, scales = (_laplacian_minor, _dominant)[t % 2](rng.randint, n, bw)
        det, adj = det_int(lu_int(rows, scales)), _adj_by_inverse(lu_int(rows, scales), scales)
        assert det == det_ref(rows)
        assert _times(rows, adj) == [[det * scales[p] * (p == q) for q in range(n)]
                                     for p in range(n)]


def test_adjugate_on_a_band_of_zero_one_and_two():
    # Diagonal; the path continuant (det n + 1); the strip of 7 vertices
    # with vertex 1 struck, whose det is its 144 = F_12 spanning trees.
    diagonal = [{0: 2}, {1: 3}, {2: 5}]
    continuant = [{c: 2 if c == i else -1 for c in (i - 1, i, i + 1) if 0 <= c < 5}
                  for i in range(5)]
    strip = strike([
        {0: 2, 1: -1, 2: -1},
        {0: -1, 1: 3, 2: -1, 3: -1},
        {0: -1, 1: -1, 2: 4, 3: -1, 4: -1},
        {1: -1, 2: -1, 3: 4, 4: -1, 5: -1},
        {2: -1, 3: -1, 4: 4, 5: -1, 6: -1},
        {3: -1, 4: -1, 5: 3, 6: -1},
        {4: -1, 5: -1, 6: 2},
    ], (0,))
    for rows, want in ((diagonal, 30), (continuant, 6), (strip, 144)):
        n = len(rows)
        det, adj = det_int(lu_int(rows, _ones(n))), _adj_by_inverse(lu_int(rows, _ones(n)), _ones(n))
        assert det == want and adj == _adj_ref(rows)
        assert _times(rows, adj) == [[det * (p == q) for q in range(n)] for p in range(n)]


@pytest.mark.parametrize("mat, scales", [
    ([[0, 1], [1, 0]], (1, 1)),
    ([[1, 2], [2, 3]], (1, 1)),
    ([[2, 2, 2], [1, 2, 1], [3, 3, 3]], (2, 1, 3)),
    ([[1, 2], [2, 4]], (1, 1)),
    ([[0, 0], [0, 5]], (1, 1)),
    ([[0, 1, 0], [1, 0, 1], [0, 1, 1]], (1, 1, 1)),
    ([[-7]], (1,)),
], ids=["swap", "negative-pivot", "zero-last-pivot", "singular", "zero-row", "zero-first-pivot",
        "negative"])
def test_adjugate_refuses_what_det_int_refuses(mat, scales):
    # The adjugate is read from lu_int's factorization, so lu_int refuses.
    rows = _sparse(mat)
    with pytest.raises(AssertionError, match=NOT_PD) as refused:
        det_int(lu_int(rows, scales))
    with pytest.raises(AssertionError, match=NOT_PD) as also_refused:
        lu_int(rows, scales)
    assert str(also_refused.value) == str(refused.value)


def test_adjugate_rows_must_fit_the_square():
    with pytest.raises(ValueError, match="square"):
        lu_int([{0: 1, 2: 1}, {1: 1}], (1, 1))
