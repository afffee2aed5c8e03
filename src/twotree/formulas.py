"""Closed-form resistances on straight and bent linear 2-trees.

Conventions: the straight strip on n = m+2 vertices has m triangles; the
pair (j, j+k) needs 1 <= j and j+k <= n. All values are exact Fractions.
"""

from fractions import Fraction
from typing import NamedTuple

from .fib import fib, lucas


def _check_strip(m, j, k):
    # Strip size and terminal pair: m triangles, terminals j and j+k.
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if j + k > m + 2:
        raise ValueError(f"j+k must be <= n = {m + 2}, got j={j}, k={k}")


def _sum_term(m, j, i):
    coeff = fib(i) * fib(i + 2 * j - 2) - fib(i - 1) * fib(i + 2 * j - 3)
    return coeff * fib(2 * m - 2 * i - 2 * j + 5)


def _sum_numerator(m, j, k):
    return sum(_sum_term(m, j, i) for i in range(1, k + 1))


def r_sum(m: int, j: int, k: int) -> Fraction:
    """r(j, j+k) on the straight strip, summation form."""
    _check_strip(m, j, k)
    return Fraction(_sum_numerator(m, j, k), fib(2 * m + 2))


def _closed_numerators(m, k, js):
    """Closed-form numerators over F_{2m+2} of the pairs (j, j+k), j in js
    (a non-empty range or tuple). Only the last term depends on j, so the
    rest is computed once per row; a bracket not divisible by 5 raises,
    naming the row's first j."""
    f_k, head = fib(k), fib(m + 1)
    bracket = fib(m - k) * (k * lucas(k) - f_k) + fib(m - k + 1) * (
        (k - 5) * fib(k + 1) + (2 * k + 2) * f_k
    )
    fifth = head * bracket
    if fifth % 5 != 0:
        raise AssertionError(
            f"closed-form bracket not divisible by 5 at (m={m}, j={js[0]}, k={k})"
        )
    base, f_k2 = head * head + fifth // 5, f_k * f_k
    return [base + f_k2 * fib(m - 2 * j - k + 3) ** 2 for j in js]


def _closed_numerator(m, j, k):
    return _closed_numerators(m, k, (j,))[0]


def r_closed(m: int, j: int, k: int) -> Fraction:
    """r(j, j+k) on the straight strip, closed form (no summation)."""
    _check_strip(m, j, k)
    return Fraction(_closed_numerator(m, j, k), fib(2 * m + 2))


def r_endpoints(m: int) -> Fraction:
    """r(1, n) on the straight strip, asserting both printed forms agree."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    total = Fraction(2 * fib(m + 1) ** 2, lucas(m + 1) * lucas(m))
    for i in range(1, m):
        total += Fraction(fib(i) * fib(i + 1), lucas(i) * lucas(i + 1))
    closed = Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
    if total != closed:
        raise AssertionError(f"endpoint forms disagree at m={m}: {total} vs {closed}")
    return closed


class StripWeights(NamedTuple):
    s: Fraction
    b: Fraction
    t: Fraction


def sbt(i: int, p: int) -> StripWeights:
    """Star weights after step i of reducing a strip whose first side
    carries F_{2p+1}/F_{2p+2} (p = 0 is the plain unit strip)."""
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    den = fib(2 * i + 2 * p + 2)
    s = Fraction(fib(i) * fib(i + 2 * p), den)
    b = Fraction(fib(i + 1) * fib(i + 2 * p + 1), den)
    t = Fraction(
        fib(i) * fib(i + 1) * fib(i + 2 * p) * fib(i + 2 * p + 1),
        fib(2 * i + 2 * p) * den,
    )
    return StripWeights(s, b, t)


def r_diff(m: int, j: int, k: int) -> Fraction:
    """r(j, j+k+1) - r(j, j+k) on the straight strip: term k + 1 of r_sum."""
    _check_strip(m, j, k)
    if j + k + 1 > m + 2:
        raise ValueError(f"j+k+1 must be <= n = {m + 2}, got j={j}, k={k}")
    return Fraction(_sum_term(m, j, k + 1), fib(2 * m + 2))


def spanning_closed(m: int) -> int:
    """Spanning trees of the straight strip with m triangles: F_{2m+2}."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return fib(2 * m + 2)


def forest_closed(m: int, j: int, k: int) -> int:
    """Spanning 2-forests separating j from j+k on the straight strip.

    Computes the summation form and the closed form and asserts they agree.
    """
    _check_strip(m, j, k)
    total = _sum_numerator(m, j, k)
    closed = _closed_numerator(m, j, k)
    if total != closed:
        raise AssertionError(
            f"forest count forms disagree at (m={m}, j={j}, k={k}): {total} vs {closed}"
        )
    return closed


def min_resistance(n: int):
    """Minimum resistance over edges of the straight strip on n vertices.

    Returns (value, edges): the central edge for even n, the two tied
    central edges for odd n. The value tends to 1/sqrt(5).
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if n % 2 == 0:
        j = n // 2
        value = Fraction(fib(n - 1), lucas(n - 1))
        return value, ((j, j + 1),)
    value = Fraction(fib(n - 1) ** 2 + 1, fib(2 * n - 2))
    lo = (n - 1) // 2
    return value, ((lo, lo + 1), (lo + 1, lo + 2))


# === Bent strip endpoint formula ===
#
# The source expression juxtaposes two fractions with no operator between
# them. Interpreted as a dropped "+", it matches the determinant oracle on
# every bent strip with 5..15 triangles and every bend position; interpreted
# as a product it matches none of them. r_bent is the additive reading;
# bent_reading_evidence() regenerates the comparison of both, and the
# verify suite prints it.


def _bent_terms(m, bend_k):
    # The head, tail and correction terms the two readings combine.
    if m < 4:
        raise ValueError(f"bent strip needs m >= 4, got {m}")
    if not (3 <= bend_k <= m - 1):
        raise ValueError(f"bend_k must be in [3, {m - 1}], got {bend_k}")
    total = 0
    for j in range(3, bend_k + 1):
        total += (-1) ** j * fib(m - 2 * j + 3) * (
            fib(m + 2) + fib(j - 2) * fib(m - j + 1)
        )
    head = Fraction(m + 1, 5)
    tail = Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
    return head, tail, Fraction(total, fib(2 * m + 2))


def r_bent(m: int, bend_k: int) -> Fraction:
    """r(1, n) on the bent strip with m triangles and bend at bend_k."""
    head, tail, corr = _bent_terms(m, bend_k)
    return head + tail + corr


def bent_reading_evidence():
    """Compare both readings of the bent endpoint formula against the
    determinant oracle on every bent strip with 5..15 triangles. Returns
    rows of (m, bend_k, oracle, additive, product, additive_ok, product_ok)."""
    from .engine import resistance_det
    from .graphs import bent_linear_2tree

    rows = []
    for m in range(5, 16):
        n = m + 2
        for k in range(3, n - 2):
            oracle = resistance_det(bent_linear_2tree(n, k), 1, n).value
            head, tail, corr = _bent_terms(m, k)
            add = head + tail + corr
            prod = head + tail * corr
            rows.append((m, k, oracle, add, prod, add == oracle, prod == oracle))
    return rows
