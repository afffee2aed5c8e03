import importlib
import threading
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twotree import verify
from twotree.fib import (
    IDENTITIES,
    MAX_INDEX,
    check_all_identities,
    check_identity,
    fib,
    identity_names,
    lucas,
)

FIRST_FIBS = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
# The package re-exports the function fib under the submodule's name.
FIB = importlib.import_module("twotree.fib")


@pytest.fixture
def fresh_cache(monkeypatch):
    # This test's own per-thread state, so no value it caches outlives it.
    monkeypatch.setattr(FIB, "_local", threading.local())
    return FIB._local


@pytest.mark.parametrize("n,expected", list(enumerate(FIRST_FIBS)))
def test_fib_small(n, expected):
    assert fib(n) == expected


def test_fib_large_spot():
    assert fib(100) == 354224848179261915075
    assert fib(200) == 280571172992510140037611932413038677189525


@pytest.mark.parametrize(
    "n,expected", [(-1, 1), (-2, -1), (-3, 2), (-4, -3), (-5, 5), (-10, -55)]
)
def test_fib_negative(n, expected):
    assert fib(n) == expected


def test_lucas_small():
    assert [lucas(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    assert lucas(-3) == -4
    assert lucas(7) == fib(8) + fib(6)


def test_recurrence_and_negation_everywhere():
    for n in range(-200, 201):
        assert fib(n + 1) == fib(n) + fib(n - 1), f"recurrence fails at {n}"
        assert lucas(n + 1) == lucas(n) + lucas(n - 1), f"lucas recurrence fails at {n}"
    for n in range(0, 201):
        assert fib(-n) == (-1) ** (n + 1) * fib(n), f"negation fails at {n}"


def test_strictly_increasing_from_two():
    for n in range(2, 300):
        assert fib(n + 1) > fib(n)
        assert lucas(n + 1) > lucas(n)


def test_index_bound():
    with pytest.raises(ValueError, match="exceeds bound"):
        fib(MAX_INDEX + 1)
    with pytest.raises(ValueError, match="exceeds bound"):
        fib(-MAX_INDEX - 1)
    with pytest.raises(ValueError):
        lucas(MAX_INDEX)
    assert isinstance(fib(MAX_INDEX // 100), int)


def test_lucas_refuses_an_out_of_range_index_before_any_work(monkeypatch):
    # The package re-exports the function fib under the submodule's name.
    fib_module = importlib.import_module("twotree.fib")

    def no_work(n):
        raise RuntimeError(f"F_{n} computed before the index was refused")

    monkeypatch.setattr(fib_module, "_fib_pair", no_work)
    monkeypatch.delattr(fib_module._local, "fib_cache", raising=False)
    with pytest.raises(ValueError, match="exceeds bound"):
        lucas(MAX_INDEX)
    with pytest.raises(ValueError, match="exceeds bound"):
        lucas(-MAX_INDEX)


def test_a_cached_index_still_refuses_a_non_int(fresh_cache):
    assert fib(2) == 1 and fresh_cache.fib_cache[2] == 1
    with pytest.raises(TypeError, match="got float"):
        fib(2.0)
    with pytest.raises(TypeError, match="got Fraction"):
        fib(Fraction(2))
    assert fib(True) == 1 and fib(False) == 0


def test_negative_indices_keep_their_sign_on_a_miss_and_a_hit(fresh_cache, monkeypatch):
    assert (fib(-4), fib(-5)) == (-3, 5)
    assert {-4: -3, -5: 5}.items() <= fresh_cache.fib_cache.items()

    def no_work(n):
        raise RuntimeError(f"F_{n} computed again")

    monkeypatch.setattr(FIB, "_fib_pair", no_work)
    assert (fib(-4), fib(-5)) == (-3, 5)


def test_an_index_out_of_range_is_never_cached(fresh_cache):
    fib(10)
    before = dict(fresh_cache.fib_cache)
    for n in (MAX_INDEX + 1, -MAX_INDEX - 1):
        with pytest.raises(ValueError, match="exceeds bound"):
            fib(n)
    assert fresh_cache.fib_cache == before


def test_a_dropped_cache_is_computed_again(fresh_cache, monkeypatch):
    assert fib(30) == 832040
    vars(fresh_cache).pop("fib_cache")
    computed = []
    real = FIB._fib_pair
    monkeypatch.setattr(FIB, "_fib_pair", lambda n: (computed.append(n), real(n))[1])
    assert fib(30) == 832040 and computed == [30]


def test_rejects_non_int():
    with pytest.raises(TypeError):
        fib(2.0)
    with pytest.raises(TypeError):
        lucas("3")


def test_threaded_consistency():
    expected = fib(5000)
    results = []

    def worker():
        results.append(fib(5000))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [expected] * 8


@given(st.integers(-80, 80), st.integers(-80, 80))
def test_addition_law_holds_on_all_integers(n, m):
    assert fib(n + m) == fib(n + 1) * fib(m) + fib(n) * fib(m - 1)


# === Identity suite ===


def test_registry_has_documented_examples():
    names = identity_names()
    for required in ("catalan", "five-diff", "sum-partial-tails"):
        assert required in names, f"{required} missing from registry"


def test_unknown_identity_raises():
    with pytest.raises(KeyError, match="unknown identity"):
        check_identity("golden-ratio-nonsense")


def test_catalan_default_range():
    report = check_identity("catalan")
    assert report.passed
    assert report.checked == sum(n - 1 for n in range(2, 51))


def test_five_diff_spot_values():
    report = check_identity("five-diff")
    assert report.passed and report.checked == 101
    assert 5 * fib(3) ** 2 - lucas(3) ** 2 == 4


def test_all_identities_pass_and_reach_bulk():
    reports = check_all_identities()
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    assert sum(r.checked for r in reports) >= 10_000


# Cases per identity; the suite's 28 807 instantiations must neither
# shrink nor grow unnoticed.
CASE_COUNTS = {
    "addition": 3721, "addition-alt": 3721, "docagne": 3721,
    "bracket-a": 5455, "bracket-b": 5455, "bracket-collapse": 1830,
    "catalan": 1225, "s-plus-b": 1860,
    "double-index": 151, "double-split": 151, "sum-of-squares": 151,
    "endpoint-forms": 100, "even-sum": 100, "five-diff": 101,
    "fib-from-lucas": 201, "lucas-next": 201, "lucas-split": 201, "negation": 201,
    "twice-next": 201,
    "sum-partial-tails": 60,
}


def test_every_identity_checks_its_frozen_case_count():
    assert {r.name: r.checked for r in check_all_identities()} == CASE_COUNTS
    assert sum(CASE_COUNTS.values()) == 28_807


def test_a_false_identity_fails_the_suite(monkeypatch):
    false_at_two = (lambda: ((n,) for n in range(4)), lambda F, L, n: (n, 7 if n == 2 else n))
    monkeypatch.setitem(IDENTITIES, "false-at-two", false_at_two)
    report = check_identity("false-at-two")
    assert report.checked == 4
    assert report.violations == [((2,), 2, 7)]
    assert not report.passed
    assert verify.identity_suite() == (False, "false-at-two fails at [((2,), 2, 7)]")


def test_an_identity_with_no_cases_does_not_pass(monkeypatch):
    monkeypatch.setitem(IDENTITIES, "no-cases", (lambda: iter(()), lambda F, L, n: (n, n)))
    report = check_identity("no-cases")
    assert report.checked == 0 and report.violations == []
    assert not report.passed


def test_an_identity_reads_f_through_fib(fresh_cache, monkeypatch):
    # F_10 is made 56: every case of "addition" that reads index 10 on one
    # side only fails, and only such cases.
    real = FIB._fib_pair
    monkeypatch.setattr(FIB, "_fib_pair", lambda n: (real(n)[0] + (n == 10), real(n)[1]))
    report = check_identity("addition")
    assert report.checked == CASE_COUNTS["addition"] and report.violations
    assert all(10 in (k + m, k + 1, m, k, m - 1) for (k, m), _, _ in report.violations)


def test_a_check_reads_each_index_through_fib_once(monkeypatch):
    calls = Counter()
    real = FIB.fib
    monkeypatch.setattr(FIB, "fib", lambda n: (calls.update((n,)), real(n))[1])
    assert check_identity("addition").passed
    assert calls == Counter(range(-1, 121))


def test_no_table_outlives_its_check(monkeypatch):
    refs = []

    def evaluate(F, L, n):
        if refs:
            assert refs[0]() is F and refs[1]() is L, "one table each per check"
        else:
            refs.extend((weakref.ref(F), weakref.ref(L)))
        return F[n] + L[n], fib(n) + lucas(n)

    monkeypatch.setitem(IDENTITIES, "tables", (lambda: ((n,) for n in range(5)), evaluate))
    assert check_identity("tables").passed
    assert len(refs) == 2 and refs[0]() is None and refs[1]() is None
