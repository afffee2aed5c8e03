from fractions import Fraction

import pytest

from twotree.engine import (
    reduce_straight,
    resistance_det,
    two_forest_count,
)
from twotree.fib import fib, lucas
from twotree.formulas import (
    _check_strip,
    _closed_numerators,
    _sum_numerators,
    bent_reading_evidence,
    forest_closed,
    min_resistance,
    r_bent,
    r_closed,
    r_diff,
    r_endpoints,
    r_sum,
    sbt,
    spanning_closed,
)
from twotree.graphs import bent_linear_2tree, straight_linear_2tree


# === Parameter validation ===


def test_params_accept_valid_triples():
    # m = 3 triangles, j = 2, k = 3: the pair (2, 5) of the 5-vertex strip
    _check_strip(3, 2, 3)
    assert r_closed(3, 2, 3) == resistance_det(straight_linear_2tree(5), 2, 5).value


@pytest.mark.parametrize("m,j,k,message", [
    (0, 1, 1, "m must be >= 1, got 0"),
    (2, 0, 1, "j must be >= 1, got 0"),
    (2, 1, 0, "k must be >= 1, got 0"),
    (2, 2, 3, "j\\+k must be <= n = 4, got j=2, k=3"),
    (1, 1, 3, "j\\+k must be <= n = 3, got j=1, k=3"),
], ids=["0-1-1", "2-0-1", "2-1-0", "2-2-3", "1-1-3"])
def test_params_reject_bad_triples(m, j, k, message):
    with pytest.raises(ValueError, match=message):
        _check_strip(m, j, k)
    for formula in (r_sum, r_closed, forest_closed, r_diff):
        with pytest.raises(ValueError, match=message):
            formula(m, j, k)


def test_diff_rejects_its_far_terminal_off_the_strip():
    # r_diff also reads r(j, j+k+1); the message names the k given.
    assert r_diff(2, 1, 2) == r_closed(2, 1, 3) - r_closed(2, 1, 2)
    with pytest.raises(ValueError, match=r"^j\+k\+1 must be <= n = 4, got j=1, k=3$"):
        r_diff(2, 1, 3)


# === Pairwise resistance forms ===


@pytest.mark.parametrize(
    "m,j,k,expected",
    [
        (2, 1, 1, Fraction(5, 8)),
        (2, 2, 1, Fraction(1, 2)),
        (2, 1, 3, Fraction(1)),
        (3, 1, 2, Fraction(13, 21)),
        (3, 2, 1, Fraction(10, 21)),
        (3, 1, 4, Fraction(8, 7)),
        (4, 2, 2, Fraction(31, 55)),
    ],
)
def test_closed_form_frozen_values(m, j, k, expected):
    assert r_closed(m, j, k) == expected
    assert r_sum(m, j, k) == expected


def test_sum_and_closed_agree_everywhere_small():
    for m in range(1, 16):
        for j in range(1, m + 2):
            for k in range(1, m + 3 - j):
                assert r_sum(m, j, k) == r_closed(m, j, k), f"(m,j,k)=({m},{j},{k})"


def test_row_readers_equal_the_per_pair_forms():
    # The four-way gate reads both forms as rows of numerators over
    # F_{2m+2}; the CLI serves r_closed and r_sum one pair at a time. Every
    # pair of every strip with n <= 40 is read both ways.
    for n in range(3, 41):
        m, pairs = n - 2, 0
        den = fib(2 * m + 2)
        for k in range(1, n):
            js = range(1, n - k + 1)
            closed = _closed_numerators(m, k, js)
            assert [Fraction(c, den) for c in closed] == [r_closed(m, j, k) for j in js]
            pairs += len(closed)
        for j in range(1, n):
            ks = range(1, n - j + 1)
            sums = _sum_numerators(m, j, n - j)
            assert [Fraction(s, den) for s in sums] == [r_sum(m, j, k) for k in ks]
            # each running sum adds one term: the step r_diff reads
            assert [Fraction(b - a, den) for a, b in zip(sums, sums[1:])] == \
                [r_diff(m, j, k) for k in ks[:-1]]
        assert pairs == n * (n - 1) // 2


def test_row_walk_equals_fib_at_every_index():
    # _closed_numerators walks F_t, t = m - 2j - k + 3, down each row by a
    # recurrence; here each entry's F_t comes from fib, negative t included,
    # over every row of every strip with m <= 300. The base, shared by the
    # row, is the closed form's F_{m+1}^2 + F_{m+1} * bracket / 5.
    squares = {t: fib(t) ** 2 for t in range(-300, 303)}
    negative = 0
    for m in range(1, 301):
        head = fib(m + 1)
        for k in range(1, m + 2):
            f_k = fib(k)
            bracket = fib(m - k) * (k * lucas(k) - f_k) + fib(m - k + 1) * (
                (k - 5) * fib(k + 1) + (2 * k + 2) * f_k)
            base, f_k2, js = head * head + head * bracket // 5, f_k * f_k, range(1, m + 3 - k)
            assert _closed_numerators(m, k, js) == \
                [base + f_k2 * squares[m - 2 * j - k + 3] for j in js], f"(m,k)=({m},{k})"
            negative += m - 2 * js[-1] - k + 3 < 0  # the row's last index is its least
    assert negative > 0


def test_closed_matches_reduction():
    for m, j, k in [(5, 2, 3), (8, 1, 9), (10, 4, 4), (12, 6, 1)]:
        n = m + 2
        assert r_closed(m, j, k) == reduce_straight(n, j, j + k).value


def test_diff_form_equals_literal_subtraction():
    for m in range(1, 13):
        for j in range(1, m + 1):
            for k in range(1, m + 2 - j):
                expect = r_closed(m, j, k + 1) - r_closed(m, j, k)
                assert r_diff(m, j, k) == expect, f"(m,j,k)=({m},{j},{k})"


def test_diff_zero_exactly_at_first_chord():
    for m in range(2, 20):
        assert r_diff(m, 1, 1) == 0, f"m={m}: r(1,2) and r(1,3) should tie"
    zeros = [
        (j, k)
        for j in range(1, 12)
        for k in range(1, 12 - j)
        if r_diff(10, j, k) == 0
    ]
    assert zeros == [(1, 1)]


# === Endpoint resistance ===


@pytest.mark.parametrize(
    "m,expected",
    [(1, Fraction(2, 3)), (2, Fraction(1)), (3, Fraction(8, 7)), (5, Fraction(14, 9))],
)
def test_endpoint_frozen_values(m, expected):
    assert r_endpoints(m) == expected


def test_endpoint_agrees_with_general_form():
    for m in range(1, 40):
        assert r_endpoints(m) == r_closed(m, 1, m + 1), f"m={m}"


def test_endpoint_increments_approach_one_fifth():
    for m in (30, 40, 50):
        gap = r_endpoints(m + 1) - r_endpoints(m) - Fraction(1, 5)
        assert abs(gap) < Fraction(1, 10**6), f"m={m}: increment off by {gap}"


# === Interior strip weights ===


def test_sbt_at_zero_thickness_matches_strip_arms():
    for i in range(1, 12):
        w = sbt(i, 0)
        assert w.s == Fraction(fib(i) ** 2, fib(2 * i + 2))
        assert w.b == Fraction(fib(i + 1), lucas(i + 1))
        assert w.t == Fraction(fib(i) * fib(i + 1), lucas(i) * lucas(i + 1))


def test_sbt_partial_sum_identity():
    # s + b telescopes to a ratio of consecutive even-index terms
    for i in range(1, 10):
        for p in range(0, 10):
            w = sbt(i, p)
            expect = Fraction(fib(2 * i + 2 * p + 1), fib(2 * i + 2 * p + 2))
            assert w.s + w.b == expect, f"(i,p)=({i},{p})"


def test_sbt_validation():
    with pytest.raises(ValueError):
        sbt(0, 1)
    with pytest.raises(ValueError):
        sbt(3, -1)


# === Counting forms ===


def test_spanning_closed_values():
    assert spanning_closed(1) == 3
    assert spanning_closed(2) == 8
    assert spanning_closed(4) == 55
    for m in range(1, 25):
        assert spanning_closed(m) == fib(2 * m + 2)


def test_forest_closed_matches_engine():
    for m in range(2, 7):
        n = m + 2
        g = straight_linear_2tree(n)
        for j in range(1, m + 2):
            for k in range(1, m + 3 - j):
                assert forest_closed(m, j, k) == two_forest_count(g, j, j + k)


def test_forest_closed_is_integral():
    val = forest_closed(2, 1, 1)
    assert val == 5 and isinstance(val, int)
    assert forest_closed(2, 1, 3) == 8


# === Extremal pair ===


@pytest.mark.parametrize(
    "n,expected",
    [
        (4, (Fraction(1, 2), ((2, 3),))),
        (5, (Fraction(10, 21), ((2, 3), (3, 4)))),
        (6, (Fraction(5, 11), ((3, 4),))),
        (7, (Fraction(65, 144), ((3, 4), (4, 5)))),
    ],
)
def test_min_resistance_frozen(n, expected):
    assert min_resistance(n) == expected


def test_min_resistance_matches_exhaustive_search():
    for n in range(4, 21):
        m = n - 2
        best = min(
            (r_closed(m, j, 1), (j, j + 1))
            for j in range(1, n)
        )
        value, edges = min_resistance(n)
        assert value == best[0], f"n={n} value"
        adjacent = [
            (j, j + 1) for j in range(1, n) if r_closed(m, j, 1) == value
        ]
        assert edges == tuple(adjacent), f"n={n} argmin edges"


def test_min_resistance_validation():
    with pytest.raises(ValueError):
        min_resistance(3)


# === Bent strips ===


def test_bent_frozen_value():
    assert r_bent(4, 3) == Fraction(6, 5)
    assert r_bent(4, 3) == resistance_det(bent_linear_2tree(6, 3), 1, 6).value


@pytest.mark.parametrize("m", range(5, 10))
def test_bent_matches_determinant(m):
    n = m + 2
    for bend in range(3, m):
        g = bent_linear_2tree(n, bend)
        oracle = resistance_det(g, 1, n).value
        assert r_bent(m, bend) == oracle, f"(m,bend)=({m},{bend})"


def test_bent_product_reading_disagrees():
    hits = sum(
        1
        for m, bend, _, _, prod, _, _ in bent_reading_evidence()
        if prod == resistance_det(bent_linear_2tree(m + 2, bend), 1, m + 2).value
    )
    assert hits == 0, "product reading should never match the oracle"


def test_bent_validation():
    with pytest.raises(ValueError):
        r_bent(3, 3)
    with pytest.raises(ValueError):
        r_bent(6, 2)
    with pytest.raises(ValueError):
        r_bent(6, 6)


def test_bent_evidence_rows():
    rows = bent_reading_evidence()
    assert len(rows) == sum(m - 3 for m in range(5, 16))
    for m, k, oracle, add, prod, add_ok, prod_ok in rows:
        assert add_ok is (add == oracle)
        assert prod_ok is (prod == oracle)
        assert add_ok and not prod_ok
