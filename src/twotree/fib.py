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


def fib(n: int) -> int:
    """F_n for any integer n with |n| <= MAX_INDEX."""
    # The identity suite and the closed-form rows read the same small
    # indices over and over, so values are cached, keyed by signed n; a
    # plain int already there costs one read. Anything else, a first read
    # included, takes the checked path, and a miss costs O(log |n|)
    # doubling steps. The cache is per-thread so concurrent callers never
    # share mutable state, holds at most 4096 entries, and never holds an
    # index out of range.
    if n.__class__ is int:
        try:
            return _local.fib_cache[n]
        except (AttributeError, KeyError):
            pass
    if not isinstance(n, int):
        raise TypeError(f"index must be an int, got {type(n).__name__}")
    if abs(n) > MAX_INDEX:
        raise ValueError(f"index {n} exceeds bound {MAX_INDEX}")
    cache = getattr(_local, "fib_cache", None)
    if cache is None:
        cache = _local.fib_cache = {0: 0, 1: 1}
    value = cache.get(n)
    if value is None:
        value = _fib_pair(abs(n))[0]
        if n < 0 and n % 2 == 0:
            value = -value
        if len(cache) < 4096:
            cache[n] = value
    return value


def lucas(n: int) -> int:
    """L_n = F_{n+1} + F_{n-1} for |n| < MAX_INDEX; the index farther from 0 first."""
    return fib(n - 1) + fib(n + 1) if n < 0 else fib(n + 1) + fib(n - 1)


# === Identity suite ===
#
# IDENTITIES maps each identity's name to (cases, evaluate): cases() yields
# the index tuples the identity is checked at, lazily, and
# evaluate(F, L, *case) returns both sides exactly, reading F_k as F[k] and
# L_k as L[k]. The comment on each row states the identity.
# check_identity() reports every violation rather than failing fast, so a
# report is useful even when something breaks.


class _Table(dict):
    """k -> of(k), read through `of` once per distinct k; one per check."""

    def __init__(self, of):
        super().__init__()
        self.of = of

    def __missing__(self, k):
        value = self[k] = self.of(k)
        return value


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


def _bracket_a(F, L, m, j, k):
    lhs = F[k + 1] * F[m - 2 * j - k + 2] ** 2 + F[m + 1] * F[m - k + 1]
    rhs = (F[2 * m - 2 * j - 2 * k + 3] * F[2 * j + k - 1]
           + F[k] * F[m - 2 * j - k + 2] * F[m - 2 * j - k + 3])
    return lhs, rhs


def _bracket_b(F, L, m, j, k):
    lhs = F[k] * F[m - 2 * j - k + 3] ** 2 + F[m + 1] * F[m - k]
    rhs = (F[2 * j + k - 2] * F[2 * m - 2 * j - 2 * k + 3]
           + F[k + 1] * F[m - 2 * j - k + 3] * F[m - 2 * j - k + 2])
    return lhs, rhs


def _bracket_collapse(F, L, m, k):
    inner = (
        F[m - k - 1] * ((k + 1) * L[k + 1] - F[k + 1])
        + F[m - k] * ((k - 4) * F[k + 2] + (2 * k + 4) * F[k + 1])
        - F[m - k] * (k * L[k] - F[k])
        - F[m - k + 1] * ((k - 5) * F[k + 1] + (2 * k + 2) * F[k])
    )
    lhs = Fraction(F[m + 1], 5) * inner
    rhs = F[m + 1] * (F[m - k + 1] * F[k + 1] - F[k] * F[m - k])
    return lhs, rhs


def _partial_tail_sum(F, L, m):
    total = Fraction(0)
    for i in range(1, m + 1):
        total += Fraction(F[i] * F[i + 1], L[i] * L[i + 1])
    closed = Fraction((m + 1) * L[m + 1] - F[m + 1], 5 * L[m + 1])
    return total, closed


def _endpoint_forms(F, L, m):
    lhs = Fraction(2 * F[m + 1] ** 2, L[m] * L[m + 1]) + Fraction(m * L[m] - F[m], 5 * L[m])
    rhs = Fraction(m + 1, 5) + Fraction(4 * F[m + 1], 5 * L[m + 1])
    return lhs, rhs


def _even_sum(F, L, n):
    lhs = F[2 * n + 2]
    rhs = 2 * F[2 * n] + sum(F[2 * i] for i in range(1, n)) + 1
    return lhs, rhs


IDENTITIES = {
    # F_{-n} = (-1)^(n+1) F_n
    "negation": (_ints(0, 200), lambda F, L, n: (F[-n], (-1) ** (n + 1) * F[n])),
    # F_n^2 + F_{n+1}^2 = F_{2n+1}
    "sum-of-squares": (_ints(0, 150), lambda F, L, n: (F[n] ** 2 + F[n + 1] ** 2, F[2 * n + 1])),
    # F_{2m} = L_m F_m
    "double-index": (_ints(0, 150), lambda F, L, m: (F[2 * m], L[m] * F[m])),
    # F_{k+m} = F_{k+1} F_m + F_k F_{m-1}
    "addition": (
        _grid(0, 60),
        lambda F, L, k, m: (F[k + m], F[k + 1] * F[m] + F[k] * F[m - 1]),
    ),
    # F_{2m} = F_{m+1} F_m + F_m F_{m-1}
    "double-split": (
        _ints(0, 150),
        lambda F, L, m: (F[2 * m], F[m + 1] * F[m] + F[m] * F[m - 1]),
    ),
    # F_{n+m} = F_{n+1} F_{m+1} - F_{n-1} F_{m-1}
    "addition-alt": (
        _grid(0, 60),
        lambda F, L, n, m: (F[n + m], F[n + 1] * F[m + 1] - F[n - 1] * F[m - 1]),
    ),
    # F_n^2 - F_{n+r} F_{n-r} = (-1)^(n-r) F_r^2
    "catalan": (
        _catalan_cases,
        lambda F, L, n, r: (F[n] ** 2 - F[n + r] * F[n - r], (-1) ** (n - r) * F[r] ** 2),
    ),
    # F_n F_{m+1} - F_m F_{n+1} = (-1)^m F_{n-m}
    "docagne": (
        _grid(0, 60),
        lambda F, L, n, m: (F[n] * F[m + 1] - F[m] * F[n + 1], (-1) ** m * F[n - m]),
    ),
    # 2 F_{m+1} = F_m + L_m
    "twice-next": (_ints(0, 200), lambda F, L, m: (2 * F[m + 1], F[m] + L[m])),
    # L_m = F_{m+1} + F_{m-1}
    "lucas-split": (_ints(0, 200), lambda F, L, m: (L[m], F[m + 1] + F[m - 1])),
    # L_{m+1} = 2 F_m + F_{m+1}
    "lucas-next": (_ints(0, 200), lambda F, L, m: (L[m + 1], 2 * F[m] + F[m + 1])),
    # 5 F_n^2 - L_n^2 = 4 (-1)^(n+1)
    "five-diff": (_ints(0, 100), lambda F, L, n: (5 * F[n] ** 2 - L[n] ** 2, 4 * (-1) ** (n + 1))),
    # 5 F_m = L_{m-1} + L_{m+1}
    "fib-from-lucas": (_ints(0, 200), lambda F, L, m: (5 * F[m], L[m - 1] + L[m + 1])),
    # F_{2n+2} = 2 F_{2n} + F_{2n-2} + ... + F_2 + 1
    "even-sum": (_ints(1, 100), _even_sum),
    # F_i F_{i+2p} + F_{i+1} F_{i+2p+1} = F_{2i+2p+1}
    "s-plus-b": (
        _offset_pairs,
        lambda F, L, i, p: (
            Fraction(F[i] * F[i + 2 * p], F[2 * i + 2 * p + 2])
            + Fraction(F[i + 1] * F[i + 2 * p + 1], F[2 * i + 2 * p + 2]),
            Fraction(F[2 * i + 2 * p + 1], F[2 * i + 2 * p + 2]),
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

    The check reads F and L through one table each, local to the call, so
    each distinct index goes through fib (or lucas) once. Unknown names
    raise KeyError.
    """
    row = IDENTITIES.get(name)
    if row is None:
        raise KeyError(f"unknown identity {name!r}; known: {', '.join(identity_names())}")
    cases, evaluate = row
    F, L = _Table(fib), _Table(lucas)
    checked, violations = 0, []
    for indices in cases():
        lhs, rhs = evaluate(F, L, *indices)
        checked += 1
        if lhs != rhs:
            violations.append((indices, lhs, rhs))
    return IdentityReport(name, checked, violations)


def check_all_identities() -> list:
    return [check_identity(name) for name in identity_names()]
