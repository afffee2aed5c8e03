"""Fibonacci and Lucas numbers, plus an exact identity-checking harness.

Everything here is integer or Fraction arithmetic; no floats. Negative
indices follow F_{-n} = (-1)^(n+1) F_n, so the recurrence
F_{n+1} = F_n + F_{n-1} holds on all of Z through a single code path.
"""

import threading
from fractions import Fraction
from typing import NamedTuple

MAX_INDEX = 1_000_000

_local = threading.local()


def _fib_pair(n):
    """(F_n, F_{n+1}) for n >= 0 by iterative fast doubling."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a, b


def _nonneg_fib(n):
    # The closed-form sweeps read the same small indices over and over (a
    # ranked strip reads one F per pair, the rest of its row once per
    # offset), so values are cached; a miss costs O(log n) doubling steps.
    # The cache is per-thread so concurrent callers never share mutable state.
    cache = getattr(_local, "fib_cache", None)
    if cache is None:
        cache = _local.fib_cache = {0: 0, 1: 1}
    hit = cache.get(n)
    if hit is not None:
        return hit
    value = _fib_pair(n)[0]
    if len(cache) < 4096:
        cache[n] = value
    return value


def fib(n: int) -> int:
    """F_n for any integer n with |n| <= MAX_INDEX."""
    if not isinstance(n, int):
        raise TypeError(f"index must be an int, got {type(n).__name__}")
    if abs(n) > MAX_INDEX:
        raise ValueError(f"index {n} exceeds bound {MAX_INDEX}")
    if n >= 0:
        return _nonneg_fib(n)
    value = _nonneg_fib(-n)
    return value if (-n) % 2 == 1 else -value


def lucas(n: int) -> int:
    """L_n = F_{n+1} + F_{n-1} for |n| < MAX_INDEX; the index farther from 0 first."""
    return fib(n - 1) + fib(n + 1) if n < 0 else fib(n + 1) + fib(n - 1)


# === Identity suite ===
#
# IDENTITIES maps each identity's name to (cases, evaluate): cases() yields
# the index tuples the identity is checked at, lazily, and evaluate(*case)
# returns both sides exactly. The comment on each row states the identity.
# check_identity() reports every violation rather than failing fast, so a
# report is useful even when something breaks.


class IdentityReport(NamedTuple):
    name: str
    checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.violations


def _ints(lo, hi):
    return lambda: ((n,) for n in range(lo, hi + 1))


def _grid(lo, hi):
    return lambda: ((a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1))


def _catalan_cases():
    for n in range(2, 51):
        for r in range(1, n):
            yield (n, r)


def _offset_pairs():
    for i in range(1, 61):
        for p in range(31):
            yield (i, p)


def _mjk_cases():
    # (m, j, k) with j, k >= 1 and j + k <= m + 2
    for m in range(1, 31):
        for j in range(1, m + 2):
            for k in range(1, m + 3 - j):
                yield (m, j, k)


def _mk_cases():
    for m in range(1, 61):
        for k in range(1, m + 1):
            yield (m, k)


def _bracket_a(m, j, k):
    lhs = fib(k + 1) * fib(m - 2 * j - k + 2) ** 2 + fib(m + 1) * fib(m - k + 1)
    rhs = fib(2 * m - 2 * j - 2 * k + 3) * fib(2 * j + k - 1) + fib(k) * fib(
        m - 2 * j - k + 2
    ) * fib(m - 2 * j - k + 3)
    return lhs, rhs


def _bracket_b(m, j, k):
    lhs = fib(k) * fib(m - 2 * j - k + 3) ** 2 + fib(m + 1) * fib(m - k)
    rhs = fib(2 * j + k - 2) * fib(2 * m - 2 * j - 2 * k + 3) + fib(k + 1) * fib(
        m - 2 * j - k + 3
    ) * fib(m - 2 * j - k + 2)
    return lhs, rhs


def _bracket_collapse(m, k):
    inner = (
        fib(m - k - 1) * ((k + 1) * lucas(k + 1) - fib(k + 1))
        + fib(m - k) * ((k - 4) * fib(k + 2) + (2 * k + 4) * fib(k + 1))
        - fib(m - k) * (k * lucas(k) - fib(k))
        - fib(m - k + 1) * ((k - 5) * fib(k + 1) + (2 * k + 2) * fib(k))
    )
    lhs = Fraction(fib(m + 1), 5) * inner
    rhs = fib(m + 1) * (fib(m - k + 1) * fib(k + 1) - fib(k) * fib(m - k))
    return lhs, rhs


def _partial_tail_sum(m):
    total = Fraction(0)
    for i in range(1, m + 1):
        total += Fraction(fib(i) * fib(i + 1), lucas(i) * lucas(i + 1))
    closed = Fraction((m + 1) * lucas(m + 1) - fib(m + 1), 5 * lucas(m + 1))
    return total, closed


def _endpoint_forms(m):
    lhs = Fraction(2 * fib(m + 1) ** 2, lucas(m) * lucas(m + 1)) + Fraction(
        m * lucas(m) - fib(m), 5 * lucas(m)
    )
    rhs = Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
    return lhs, rhs


def _even_sum(n):
    lhs = fib(2 * n + 2)
    rhs = 2 * fib(2 * n) + sum(fib(2 * i) for i in range(1, n)) + 1
    return lhs, rhs


IDENTITIES = {
    # F_{-n} = (-1)^(n+1) F_n
    "negation": (_ints(0, 200), lambda n: (fib(-n), (-1) ** (n + 1) * fib(n))),
    # F_n^2 + F_{n+1}^2 = F_{2n+1}
    "sum-of-squares": (_ints(0, 150), lambda n: (fib(n) ** 2 + fib(n + 1) ** 2, fib(2 * n + 1))),
    # F_{2m} = L_m F_m
    "double-index": (_ints(0, 150), lambda m: (fib(2 * m), lucas(m) * fib(m))),
    # F_{k+m} = F_{k+1} F_m + F_k F_{m-1}
    "addition": (
        _grid(0, 60),
        lambda k, m: (fib(k + m), fib(k + 1) * fib(m) + fib(k) * fib(m - 1)),
    ),
    # F_{2m} = F_{m+1} F_m + F_m F_{m-1}
    "double-split": (
        _ints(0, 150),
        lambda m: (fib(2 * m), fib(m + 1) * fib(m) + fib(m) * fib(m - 1)),
    ),
    # F_{n+m} = F_{n+1} F_{m+1} - F_{n-1} F_{m-1}
    "addition-alt": (
        _grid(0, 60),
        lambda n, m: (fib(n + m), fib(n + 1) * fib(m + 1) - fib(n - 1) * fib(m - 1)),
    ),
    # F_n^2 - F_{n+r} F_{n-r} = (-1)^(n-r) F_r^2
    "catalan": (
        _catalan_cases,
        lambda n, r: (fib(n) ** 2 - fib(n + r) * fib(n - r), (-1) ** (n - r) * fib(r) ** 2),
    ),
    # F_n F_{m+1} - F_m F_{n+1} = (-1)^m F_{n-m}
    "docagne": (
        _grid(0, 60),
        lambda n, m: (fib(n) * fib(m + 1) - fib(m) * fib(n + 1), (-1) ** m * fib(n - m)),
    ),
    # 2 F_{m+1} = F_m + L_m
    "twice-next": (_ints(0, 200), lambda m: (2 * fib(m + 1), fib(m) + lucas(m))),
    # L_m = F_{m+1} + F_{m-1}
    "lucas-split": (_ints(0, 200), lambda m: (lucas(m), fib(m + 1) + fib(m - 1))),
    # L_{m+1} = 2 F_m + F_{m+1}
    "lucas-next": (_ints(0, 200), lambda m: (lucas(m + 1), 2 * fib(m) + fib(m + 1))),
    # 5 F_n^2 - L_n^2 = 4 (-1)^(n+1)
    "five-diff": (_ints(0, 100), lambda n: (5 * fib(n) ** 2 - lucas(n) ** 2, 4 * (-1) ** (n + 1))),
    # 5 F_m = L_{m-1} + L_{m+1}
    "fib-from-lucas": (_ints(0, 200), lambda m: (5 * fib(m), lucas(m - 1) + lucas(m + 1))),
    # F_{2n+2} = 2 F_{2n} + F_{2n-2} + ... + F_2 + 1
    "even-sum": (_ints(1, 100), _even_sum),
    # F_i F_{i+2p} + F_{i+1} F_{i+2p+1} = F_{2i+2p+1}
    "s-plus-b": (
        _offset_pairs,
        lambda i, p: (
            Fraction(fib(i) * fib(i + 2 * p), fib(2 * i + 2 * p + 2))
            + Fraction(fib(i + 1) * fib(i + 2 * p + 1), fib(2 * i + 2 * p + 2)),
            Fraction(fib(2 * i + 2 * p + 1), fib(2 * i + 2 * p + 2)),
        ),
    ),
    # sum_{i<=m} F_i F_{i+1} / (L_i L_{i+1}) = ((m+1) L_{m+1} - F_{m+1}) / (5 L_{m+1})
    "sum-partial-tails": (_ints(1, 60), _partial_tail_sum),
    # 2F_{m+1}^2/(L_m L_{m+1}) + (m L_m - F_m)/(5 L_m) = (m+1)/5 + 4F_{m+1}/(5 L_{m+1})
    "endpoint-forms": (_ints(1, 100), _endpoint_forms),
    # F_{k+1} F_{m-2j-k+2}^2 + F_{m+1} F_{m-k+1}
    #   = F_{2m-2j-2k+3} F_{2j+k-1} + F_k F_{m-2j-k+2} F_{m-2j-k+3}
    "bracket-a": (_mjk_cases, _bracket_a),
    # F_k F_{m-2j-k+3}^2 + F_{m+1} F_{m-k}
    #   = F_{2j+k-2} F_{2m-2j-2k+3} + F_{k+1} F_{m-2j-k+3} F_{m-2j-k+2}
    "bracket-b": (_mjk_cases, _bracket_b),
    # (F_{m+1}/5) [difference of endpoint brackets]
    #   = F_{m+1} (F_{m-k+1} F_{k+1} - F_k F_{m-k})
    "bracket-collapse": (_mk_cases, _bracket_collapse),
}


def identity_names():
    return sorted(IDENTITIES)


def check_identity(name: str) -> IdentityReport:
    """Check one identity of IDENTITIES exactly at every case its row yields.

    Unknown names raise KeyError.
    """
    row = IDENTITIES.get(name)
    if row is None:
        raise KeyError(f"unknown identity {name!r}; known: {', '.join(identity_names())}")
    cases, evaluate = row
    checked, violations = 0, []
    for indices in cases():
        lhs, rhs = evaluate(*indices)
        checked += 1
        if lhs != rhs:
            violations.append((indices, lhs, rhs))
    return IdentityReport(name, checked, violations)


def check_all_identities() -> list:
    return [check_identity(name) for name in identity_names()]
