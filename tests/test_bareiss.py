"""Determinant kernel checks.

The banded elimination is the workhorse behind every resistance and
count in the package, so it gets an independent referee here: the
dense fraction-free fallback, plus a handful of determinants known in
closed form.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from twotree.bareiss import _det_dense, det_int, strike


def test_empty_matrix():
    assert det_int([]) == 1


def test_one_by_one():
    assert det_int([[7]]) == 7


def test_identity_and_permutation():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert det_int(eye) == 1
    swap = [row[:] for row in eye]
    swap[0], swap[1] = swap[1], swap[0]
    assert det_int(swap) == -1


def test_known_dense_values():
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert det_int([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0


def test_singular_matrices():
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[0, 0], [1, 5]]) == 0


def test_zero_pivot_needs_row_swap():
    # leading entry zero but matrix regular: banded path must fall back
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1


def test_tridiagonal_continuant():
    # det of the n-by-n tridiagonal with 2 on the diagonal and -1 off it
    # is n + 1 (path-graph spanning tree count)
    for n in range(1, 12):
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 2
            if i + 1 < n:
                mat[i][i + 1] = -1
                mat[i + 1][i] = -1
        assert det_int(mat) == n + 1, f"continuant wrong at n={n}"


def test_strike_removes_row_and_column():
    mat = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert strike(mat, (1,)) == [[1, 3], [7, 9]]
    assert strike(mat, (0,)) == [[5, 6], [8, 9]]
    assert strike(mat, (0, 2)) == [[5]]


def _random_banded(rng, n, bw):
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= bw:
                mat[i][j] = rng.randint(-9, 9)
    return mat


@pytest.mark.parametrize("bw", [0, 1, 2, 3, 5])
def test_banded_agrees_with_dense_seeded(bw):
    rng = random.Random(1000 + bw)
    for _ in range(40):
        n = rng.randint(1, 8)
        mat = _random_banded(rng, n, bw)
        expect = _det_dense([row[:] for row in mat])
        assert det_int(mat) == expect, f"bw={bw} disagreement on {mat}"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n),
            st.lists(st.integers(-6, 6), min_size=n * n, max_size=n * n),
        )
    )
)
def test_banded_agrees_with_dense(case):
    n, bw, flat = case
    mat = [
        [flat[i * n + j] if abs(i - j) <= bw else 0 for j in range(n)]
        for i in range(n)
    ]
    expect = _det_dense([row[:] for row in mat])
    assert det_int(mat) == expect
