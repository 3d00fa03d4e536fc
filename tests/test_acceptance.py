"""Acceptance gate: every criterion at its stated tolerance.

The full suite runs once (module-scoped fixture); each test asserts one
criterion and prints its pass/fail line.  Determinism and the wall-clock
caps are asserted at the end by running the quick suite twice into
separate directories and comparing CSV bytes.
"""

import os
import time

import pytest

from lqturnpike.verification import CheckResult, Record, run_suite

_CHECKS = {}


@pytest.fixture(scope="module")
def full_results():
    start = time.perf_counter()
    results = run_suite("full")
    elapsed = time.perf_counter() - start
    return {r.criterion: r for r in results}, elapsed


def _assert_criterion(full_results, key):
    results, _ = full_results
    result = next(r for name, r in results.items() if name.startswith(key))
    print(result.line())
    assert result.passed, result.detail
    return result


def test_check_result_fails_on_a_record_or_the_cap():
    # A failing record, and separately a cap overrun, each fail the
    # criterion, and neither line claims its bound holds.
    ok = Record("residual", 1e-12, "<=", 1e-10)
    bad = Record("residual", 1e-2, "<=", 1e-10)
    passing = CheckResult("0 demo", cap=1.0, records=[ok], runtime=0.5)
    assert passing.passed
    assert passing.line() == (
        "PASS  0 demo: residual = 1e-12 <= 1e-10; runtime (s) = 0.5 < 1"
    )

    failing = CheckResult("0 demo", cap=1.0, records=[ok, bad], runtime=0.5)
    assert not failing.passed
    assert "residual = 0.01 > 1e-10" in failing.line()
    assert "0.01 <= 1e-10" not in failing.line()

    overrun = CheckResult("0 demo", cap=1.0, records=[ok], runtime=2.0)
    assert not overrun.passed
    assert "runtime (s) = 2 >= 1" in overrun.line()
    assert "2 < 1" not in overrun.line()

    untimed = CheckResult("0 demo", cap=1.0, records=[ok])
    assert not untimed.passed


@pytest.mark.parametrize(
    "record, holds, shown",
    [
        (Record("x", 1.0, "<", 1.0), False, "x = 1 >= 1"),
        (Record("x", 1.0, ">=", 1.0), True, "x = 1 >= 1"),
        (Record("x", 0.5, ">=", 1.0), False, "x = 0.5 < 1"),
        (Record("x", 1, "==", 0), False, "x = 1 != 0"),
        (Record("x", 4.0, "in", (2.5, 8.0)), True, "x = 4 in [2.5, 8]"),
        (Record("x", 1.0, "in", (2.5, 8.0)), False, "x = 1 not in [2.5, 8]"),
        (Record("x", float("nan"), "<=", 1.0), False, "x = nan > 1"),
    ],
)
def test_record_comparators(record, holds, shown):
    assert record.holds() is holds
    assert record.text() == shown


def test_criterion_01_scalar_are(full_results):
    _assert_criterion(full_results, "1 ")


def test_criterion_02_scalar_stationary(full_results):
    _assert_criterion(full_results, "2 ")


def test_criterion_03_state_adjoint(full_results):
    _assert_criterion(full_results, "3 ")


def test_criterion_04_dre_constancy(full_results):
    _assert_criterion(full_results, "4 ")


def test_criterion_05_propagation(full_results):
    _assert_criterion(full_results, "5 ")


def test_criterion_06_rate_recovery(full_results):
    _assert_criterion(full_results, "6 ")


def test_criterion_07_turnpike_bound(full_results):
    _assert_criterion(full_results, "7 ")


def test_criterion_08_energy_identity(full_results):
    _assert_criterion(full_results, "8 ")


def test_criterion_09_duality(full_results):
    _assert_criterion(full_results, "9 ")


def test_criterion_10_yosida(full_results):
    _assert_criterion(full_results, "10 ")


def test_criterion_11_optimality(full_results):
    _assert_criterion(full_results, "11 ")


def test_criterion_12_determinism_and_wall_clock(full_results, tmp_path):
    _, full_elapsed = full_results
    # Full suite stays within the five-minute cap.
    assert full_elapsed <= 300.0, f"full suite took {full_elapsed:.1f}s"

    start = time.perf_counter()
    first = run_suite("quick", out_dir=str(tmp_path / "a"))
    quick_elapsed = time.perf_counter() - start
    assert quick_elapsed <= 60.0, f"quick suite took {quick_elapsed:.1f}s"
    assert all(r.passed for r in first)

    second = run_suite("quick", out_dir=str(tmp_path / "b"))
    assert all(r.passed for r in second)

    names_a = sorted(os.listdir(tmp_path / "a"))
    names_b = sorted(os.listdir(tmp_path / "b"))
    assert names_a == names_b and names_a
    for name in names_a:
        with open(tmp_path / "a" / name, "rb") as fa, open(
            tmp_path / "b" / name, "rb"
        ) as fb:
            assert fa.read() == fb.read(), f"{name} differs between reruns"
    print(
        f"PASS  12 determinism: quick suite byte-identical across reruns "
        f"[full {full_elapsed:.1f}s <= 300s, quick {quick_elapsed:.1f}s <= 60s]"
    )
