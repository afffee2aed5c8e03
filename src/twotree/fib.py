"""Fibonacci and Lucas numbers, plus an exact identity-checking harness.

Everything here is integer or Fraction arithmetic; no floats. Negative
indices follow F_{-n} = (-1)^(n+1) F_n, so the recurrence
F_{n+1} = F_n + F_{n-1} holds on all of Z through a single code path.
"""

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

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
    # Small indices come up constantly in the closed-form sweeps, so values
    # are cached; a miss costs O(log n) doubling steps. The cache is
    # per-thread so concurrent callers never share mutable state.
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
    """L_n = F_{n+1} + F_{n-1} for any integer n with |n| < MAX_INDEX."""
    if not isinstance(n, int):
        raise TypeError(f"index must be an int, got {type(n).__name__}")
    if abs(n) >= MAX_INDEX:
        raise ValueError(f"index {n} exceeds bound {MAX_INDEX}")
    return fib(n + 1) + fib(n - 1)


# === Identity registry ===
#
# Each identity evaluates both sides exactly and is checked over its
# documented index range. check_identity() reports every violation rather
# than failing fast, so a report is useful even when something breaks.


@dataclass(frozen=True)
class Identity:
    name: str
    summary: str
    index_range: tuple
    cases: Callable[[int, int], Iterable[tuple]]
    evaluate: Callable[..., tuple]


@dataclass
class IdentityReport:
    name: str
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.violations


def _span(lo, hi):
    return range(lo, hi + 1)


def _cases_1d(lo, hi):
    for n in _span(lo, hi):
        yield (n,)


def _cases_2d(lo, hi):
    for a in _span(lo, hi):
        for b in _span(lo, hi):
            yield (a, b)


def _cases_catalan(lo, hi):
    for n in _span(max(lo, 2), hi):
        for r in _span(1, n - 1):
            yield (n, r)


def _cases_offset_pairs(lo, hi):
    # (i, p) with i >= 1, p >= 0; hi bounds i, p runs to hi//2
    for i in _span(max(lo, 1), hi):
        for p in _span(0, hi // 2):
            yield (i, p)


def _cases_mjk(lo, hi):
    # (m, j, k) with j, k >= 1 and j + k <= m + 2
    for m in _span(max(lo, 1), hi):
        for j in _span(1, m + 1):
            for k in _span(1, m + 2 - j):
                yield (m, j, k)


def _cases_mk(lo, hi):
    for m in _span(max(lo, 1), hi):
        for k in _span(1, m):
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


_REGISTRY = {}


def _register(name, summary, index_range, cases, evaluate):
    _REGISTRY[name] = Identity(name, summary, index_range, cases, evaluate)


_register(
    "negation",
    "F_{-n} = (-1)^(n+1) F_n",
    (0, 200),
    _cases_1d,
    lambda n: (fib(-n), (-1) ** (n + 1) * fib(n)),
)
_register(
    "sum-of-squares",
    "F_n^2 + F_{n+1}^2 = F_{2n+1}",
    (0, 150),
    _cases_1d,
    lambda n: (fib(n) ** 2 + fib(n + 1) ** 2, fib(2 * n + 1)),
)
_register(
    "double-index",
    "F_{2m} = L_m F_m",
    (0, 150),
    _cases_1d,
    lambda m: (fib(2 * m), lucas(m) * fib(m)),
)
_register(
    "addition",
    "F_{k+m} = F_{k+1} F_m + F_k F_{m-1}",
    (0, 60),
    _cases_2d,
    lambda k, m: (fib(k + m), fib(k + 1) * fib(m) + fib(k) * fib(m - 1)),
)
_register(
    "double-split",
    "F_{2m} = F_{m+1} F_m + F_m F_{m-1}",
    (0, 150),
    _cases_1d,
    lambda m: (fib(2 * m), fib(m + 1) * fib(m) + fib(m) * fib(m - 1)),
)
_register(
    "addition-alt",
    "F_{n+m} = F_{n+1} F_{m+1} - F_{n-1} F_{m-1}",
    (0, 60),
    _cases_2d,
    lambda n, m: (fib(n + m), fib(n + 1) * fib(m + 1) - fib(n - 1) * fib(m - 1)),
)
_register(
    "catalan",
    "F_n^2 - F_{n+r} F_{n-r} = (-1)^(n-r) F_r^2",
    (2, 50),
    _cases_catalan,
    lambda n, r: (fib(n) ** 2 - fib(n + r) * fib(n - r), (-1) ** (n - r) * fib(r) ** 2),
)
_register(
    "docagne",
    "F_n F_{m+1} - F_m F_{n+1} = (-1)^m F_{n-m}",
    (0, 60),
    _cases_2d,
    lambda n, m: (fib(n) * fib(m + 1) - fib(m) * fib(n + 1), (-1) ** m * fib(n - m)),
)
_register(
    "twice-next",
    "2 F_{m+1} = F_m + L_m",
    (0, 200),
    _cases_1d,
    lambda m: (2 * fib(m + 1), fib(m) + lucas(m)),
)
_register(
    "lucas-split",
    "L_m = F_{m+1} + F_{m-1}",
    (0, 200),
    _cases_1d,
    lambda m: (lucas(m), fib(m + 1) + fib(m - 1)),
)
_register(
    "lucas-next",
    "L_{m+1} = 2 F_m + F_{m+1}",
    (0, 200),
    _cases_1d,
    lambda m: (lucas(m + 1), 2 * fib(m) + fib(m + 1)),
)
_register(
    "five-diff",
    "5 F_n^2 - L_n^2 = 4 (-1)^(n+1)",
    (0, 100),
    _cases_1d,
    lambda n: (5 * fib(n) ** 2 - lucas(n) ** 2, 4 * (-1) ** (n + 1)),
)
_register(
    "fib-from-lucas",
    "5 F_m = L_{m-1} + L_{m+1}",
    (0, 200),
    _cases_1d,
    lambda m: (5 * fib(m), lucas(m - 1) + lucas(m + 1)),
)
_register(
    "even-sum",
    "F_{2n+2} = 2 F_{2n} + F_{2n-2} + ... + F_2 + 1",
    (1, 100),
    _cases_1d,
    _even_sum,
)
_register(
    "s-plus-b",
    "F_i F_{i+2p} + F_{i+1} F_{i+2p+1} = F_{2i+2p+1}",
    (1, 60),
    _cases_offset_pairs,
    lambda i, p: (
        Fraction(fib(i) * fib(i + 2 * p), fib(2 * i + 2 * p + 2))
        + Fraction(fib(i + 1) * fib(i + 2 * p + 1), fib(2 * i + 2 * p + 2)),
        Fraction(fib(2 * i + 2 * p + 1), fib(2 * i + 2 * p + 2)),
    ),
)
_register(
    "sum-partial-tails",
    "sum_{i<=m} F_i F_{i+1} / (L_i L_{i+1}) = ((m+1) L_{m+1} - F_{m+1}) / (5 L_{m+1})",
    (1, 60),
    _cases_1d,
    _partial_tail_sum,
)
_register(
    "endpoint-forms",
    "2F_{m+1}^2/(L_m L_{m+1}) + (m L_m - F_m)/(5 L_m) = (m+1)/5 + 4F_{m+1}/(5 L_{m+1})",
    (1, 100),
    _cases_1d,
    _endpoint_forms,
)
_register(
    "bracket-a",
    "F_{k+1} F_{m-2j-k+2}^2 + F_{m+1} F_{m-k+1} = "
    "F_{2m-2j-2k+3} F_{2j+k-1} + F_k F_{m-2j-k+2} F_{m-2j-k+3}",
    (1, 30),
    _cases_mjk,
    _bracket_a,
)
_register(
    "bracket-b",
    "F_k F_{m-2j-k+3}^2 + F_{m+1} F_{m-k} = "
    "F_{2j+k-2} F_{2m-2j-2k+3} + F_{k+1} F_{m-2j-k+3} F_{m-2j-k+2}",
    (1, 30),
    _cases_mjk,
    _bracket_b,
)
_register(
    "bracket-collapse",
    "(F_{m+1}/5) [difference of endpoint brackets] = "
    "F_{m+1} (F_{m-k+1} F_{k+1} - F_k F_{m-k})",
    (1, 60),
    _cases_mk,
    _bracket_collapse,
)


def identity_names():
    return sorted(_REGISTRY)


def check_identity(name: str) -> IdentityReport:
    """Check one registered identity exactly over its index range.

    The range (inclusive) bounds the primary index; multi-variable
    identities enumerate their documented domain within it. Unknown names
    raise.
    """
    ident = _REGISTRY.get(name)
    if ident is None:
        raise KeyError(f"unknown identity {name!r}; known: {', '.join(identity_names())}")
    report = IdentityReport(name=name)
    for indices in ident.cases(*ident.index_range):
        lhs, rhs = ident.evaluate(*indices)
        report.checked += 1
        if lhs != rhs:
            report.violations.append((indices, lhs, rhs))
    return report


def check_all_identities() -> list:
    return [check_identity(name) for name in identity_names()]
