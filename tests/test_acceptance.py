"""Acceptance gate: every criterion at its stated tolerance.

The full suite runs once (module-scoped fixture); each test asserts one
criterion and prints its pass/fail line.  Determinism and the wall-clock
caps are asserted at the end by running the quick suite twice into
separate directories and comparing CSV bytes.
"""

import collections
import itertools
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from lqturnpike import operators, reporting, turnpike, verification
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


def test_quick_suite_solves_each_tracking_problem_once(monkeypatch):
    """No tracking solve of the quick suite repeats an earlier one.

    Each solver is spied on where the suite reaches it: through
    ``turnpike.SOLVERS`` and through ``verification``'s own import of
    ``solve_transcription``.  A solve is keyed by its solver and its
    problem: the system, target, initial state and terminal cost, the
    horizon and the step.  The scalar system's ``solve_are`` (three
    times) and ``solve_stationary`` (four times) also repeat, but together
    they cost about a millisecond and are not counted here.
    """
    keys = []

    def spy(solve):
        def spied(prob):
            arrays = (prob.sys.a, prob.sys.b, prob.sys.c, prob.target, prob.x0, prob.p0)
            keys.append((solve.__name__, prob.horizon, prob.dt)
                        + tuple((a.shape, a.tobytes()) for a in arrays))
            return solve(prob)
        return spied

    for name, solve in list(turnpike.SOLVERS.items()):
        monkeypatch.setitem(turnpike.SOLVERS, name, spy(solve))
    monkeypatch.setattr(
        verification, "solve_transcription", spy(verification.solve_transcription)
    )
    run_suite("quick")
    assert keys
    repeated = sorted({key[:3] for key in keys if keys.count(key) > 1})
    assert not repeated, f"solved more than once: {repeated}"


def test_quick_suite_simulates_forward_once(monkeypatch):
    """Criterion 11's sampled margins come from one batched forward solve.

    Every eps reads its cost change off the cost's quadratic expansion, so
    the quick suite calls ``simulate_forward`` once, on the 101 columns
    [u, u + v_1, ..., u + v_100] over the 10,001 nodes of the scalar
    problem, and never once per eps.
    """
    shapes = []
    simulate = verification.simulate_forward

    def spied(prob, u):
        shapes.append(np.shape(u))
        return simulate(prob, u)

    monkeypatch.setattr(verification, "simulate_forward", spied)
    run_suite("quick")
    assert shapes == [(10001, 1, 101)]


def test_quick_suite_solves_no_narrow_s_by_lapack(monkeypatch):
    """The Riccati passes solve each S of width 1 or 2 in closed form.

    Every pass of the quick suite forms an S = I + V* Q V of width 1 or 2,
    and both widths occur; none of them reaches ``np.linalg.solve``, whose
    per-matrix call overhead the closed forms remove.
    """
    passes = {"riccati_backward_pass", "riccati_forward_pass"}
    widths, by_lapack = collections.Counter(), []
    solve_small, lapack = operators._solve_small, np.linalg.solve

    def spied_small(s, rhs):
        widths[s.shape[-1]] += 1
        return solve_small(s, rhs)

    def spied_lapack(a, b):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in passes:
            frame = frame.f_back
        if frame is not None and a.shape[-1] <= 2:
            by_lapack.append(a.shape)
        return lapack(a, b)

    monkeypatch.setattr(operators, "_solve_small", spied_small)
    monkeypatch.setattr(np.linalg, "solve", spied_lapack)
    run_suite("quick")
    assert by_lapack == []
    assert set(widths) == {1, 2}


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


def test_criterion_07_fails_off_the_turnpike(off_turnpike_solver):
    """Criterion 7 is red when the solves miss the turnpike they are measured on."""
    result = verification.check_turnpike_bound(verification.SuiteContext(quick=True))
    ratio = next(r for r in result.records if r.quantity == "uniform-c ratio")
    assert not ratio.holds()


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


def test_criterion_12_sees_a_node_the_csv_omits(monkeypatch):
    """A one-ulp change at an unwritten node of turnpike_T20.csv turns criterion 12 red.

    The second rerun's T = 20 report (20,000 intervals, stride 10) moves
    gap_x at node 1; only the summary's sha256 column can see it.
    """
    node = 1
    assert node not in reporting.node_indices(20001)
    reruns = itertools.count()
    solved = verification.verify_turnpike

    def nudged(prob, horizons, **kwargs):
        reports = solved(prob, horizons, **kwargs)
        if tuple(horizons) != (5.0, 10.0, 20.0) or next(reruns) == 0:
            return reports
        *short, long = reports
        gap_x = long.gap_x.copy()
        gap_x[node] = np.nextafter(gap_x[node], np.inf)
        return [*short, replace(long, gap_x=gap_x)]

    monkeypatch.setattr(verification, "verify_turnpike", nudged)
    result = verification.check_determinism("quick", run_suite("quick"), 0.0)
    assert next(reruns) == 2
    assert result.records[0].measured == 1


def test_criterion_12_reruns_quick_twice_for_full(monkeypatch):
    """After a full run, criterion 12 compares two quick runs of its own."""
    suites = []
    run = verification.run_suite

    def spied(suite, **kwargs):
        suites.append(suite)
        return run(suite, **kwargs)

    monkeypatch.setattr(verification, "run_suite", spied)
    result = verification.check_determinism("full", [], 0.0)
    assert suites == ["quick", "quick"]
    assert result.records[0].measured == 0


def test_criterion_12_counts_a_file_one_run_lacks(monkeypatch):
    """A rerun that writes one artifact fewer turns criterion 12 red."""
    results = run_suite("quick")
    run = verification.run_suite

    def dropping(suite, **kwargs):
        rerun = run(suite, **kwargs)
        first = next(r for r in rerun if r.artifacts)
        first.artifacts = first.artifacts[:-1]
        return rerun

    monkeypatch.setattr(verification, "run_suite", dropping)
    result = verification.check_determinism("quick", results, 0.0)
    result.runtime = 0.0
    assert not result.passed
    assert "files differing between reruns = 1 != 0" in result.line()


@pytest.mark.parametrize("suite", ["medium", "Quick"])
def test_unknown_suite_is_refused(suite):
    message = f"unknown suite '{suite}', expected 'quick' or 'full'"
    with pytest.raises(ValueError, match=message):
        run_suite(suite)
