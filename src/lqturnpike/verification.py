"""Executable acceptance checks shared by the verify command and the test suite.

Each check function runs one acceptance criterion and returns a
:class:`CheckResult` holding one :class:`Record` per bound: the measured
quantity, its comparator and its bound, each stated once.  Whether the
criterion passed and its detail line are both derived from those records,
together with the check's wall-clock cap, which :func:`run_suite` times.
``run_suite`` executes the whole list (a reduced but criterion-complete
set in the quick suite), optionally writing the data-bearing CSV
artifacts, and is deliberately deterministic: identical invocations
produce byte-identical files, which :func:`suite_tables` names.
:func:`check_determinism`, criterion 12, checks that property and the
suite's wall-clock cap.
"""

from __future__ import annotations

import math
import operator
import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import reporting
from ._blas import serial_blas
from .lq import (
    LqProblem,
    _step_count,
    _trapezoid,
    cost,
    duality_residual,
    simulate_forward,
    solve_transcription,
)
from .operators import make_system, spectral_abscissa
from .riccati import solve_are, solve_dre
from .scenarios import heat_1d, random_stable, random_target_and_state, scalar_example
from .stationary import solve_stationary, stationary_convergence_study
from .turnpike import energy_diagnostics, verify_turnpike, yosida_dynamic_study

__all__ = [
    "CheckResult",
    "Record",
    "SuiteContext",
    "run_suite",
    "suite_tables",
    "check_determinism",
    "CRITERIA",
]

# Random-stable seeds used by the rate-recovery check.  The log-linear fit
# identifies the dominant decay mode, so the seeds are chosen with the two
# slowest closed-loop modes well separated; draws whose slowest modes form
# a complex pair have no single dominant rate over a finite window.
RATE_SEEDS = (3, 6, 12)

# Wall-clock cap of each suite, in seconds.
SUITE_CAPS = {"quick": 60.0, "full": 300.0}

# comparator -> (test, the comparator a failing record is printed with)
_COMPARATORS = {
    "<": (operator.lt, ">="),
    "<=": (operator.le, ">"),
    ">=": (operator.ge, "<"),
    "==": (operator.eq, "!="),
    "in": (lambda value, bound: bound[0] <= value <= bound[1], "not in"),
}


class Record(NamedTuple):
    """One acceptance bound: ``measured comparator bound``.

    ``comparator`` is one of ``<``, ``<=``, ``>=``, ``==`` and ``in``; an
    ``in`` bound is a closed interval ``(lo, hi)``.
    """

    quantity: str
    measured: float
    comparator: str
    bound: float | tuple

    def holds(self) -> bool:
        return bool(_COMPARATORS[self.comparator][0](self.measured, self.bound))

    def text(self) -> str:
        """``quantity = measured op bound``; a failing record shows the negated op."""
        op = self.comparator if self.holds() else _COMPARATORS[self.comparator][1]
        bound = self.bound
        shown = f"[{bound[0]:g}, {bound[1]:g}]" if op.endswith("in") else f"{bound:g}"
        return f"{self.quantity} = {self.measured:.4g} {op} {shown}"


@dataclass
class CheckResult:
    """One criterion's records, wall-clock cap, runtime and CSV artifacts.

    ``passed`` and ``detail`` derive from the records plus the record
    ``runtime < cap``; ``runtime`` is NaN, so failing, until
    :func:`run_suite` has timed the check.
    """

    criterion: str
    cap: float
    records: list
    artifacts: list = field(default_factory=list)  # (filename, header, rows)
    runtime: float = math.nan

    @property
    def bounds(self) -> list:
        return [*self.records, Record("runtime (s)", self.runtime, "<", self.cap)]

    @property
    def passed(self) -> bool:
        return all(record.holds() for record in self.bounds)

    @property
    def detail(self) -> str:
        return "; ".join(record.text() for record in self.bounds)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.criterion}: {self.detail}"


class SuiteContext:
    """Caches the scenario pipelines shared between acceptance checks.

    Each pipeline is a per-instance cached property, so every
    :func:`run_suite` call builds its own.
    """

    def __init__(self, quick: bool = False, jobs: int = 1):
        self.quick = quick
        self.jobs = jobs

    # scalar pipeline -----------------------------------------------------

    @cached_property
    def scalar_problem(self):
        sys_, z, x0 = scalar_example()
        return LqProblem(sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3)

    @cached_property
    def scalar_stationary(self):
        return solve_stationary(self.scalar_problem.sys, self.scalar_problem.target)

    @cached_property
    def scalar_are(self):
        return solve_are(self.scalar_problem.sys)

    @property
    def scalar_horizons(self):
        return (5.0, 10.0, 20.0) if self.quick else (5.0, 10.0, 20.0, 40.0)

    @cached_property
    def scalar_reports(self):
        return verify_turnpike(
            self.scalar_problem, self.scalar_horizons,
            solver="transcription", jobs=self.jobs,
        )

    @property
    def scalar_t10_report(self):
        return next(r for r in self.scalar_reports if r.horizon == 10.0)

    # seeded random pipeline ----------------------------------------------

    @cached_property
    def rand4(self):
        sys_ = random_stable(4, 2, 42)
        z, x0 = random_target_and_state(4, 42)
        return sys_, z, x0

    # heat pipeline ---------------------------------------------------------

    @cached_property
    def heat_problem(self):
        sys_, z = heat_1d(50, "distributed")
        return LqProblem(sys=sys_, horizon=20.0, target=z, x0=np.zeros(50), dt=1e-2)

    @cached_property
    def heat_report(self):
        return verify_turnpike(self.heat_problem, [20.0], solver="riccati-sweep")[0]


# --- criterion 1 ---------------------------------------------------------


def check_scalar_are(ctx: SuiteContext) -> CheckResult:
    are = ctx.scalar_are
    p_err = abs(are.p[0, 0] - (np.sqrt(2.0) - 1.0))
    a_err = abs(are.closed_loop_abscissa + np.sqrt(2.0))
    records = [
        Record("|P - (sqrt2 - 1)|", p_err, "<=", 1e-10),
        Record("|abscissa + sqrt2|", a_err, "<=", 1e-10),
    ]
    artifacts = [("are.csv", *reporting.are_rows(are))]
    return CheckResult("1 scalar-are", 0.1, records, artifacts)


# --- criterion 2 ---------------------------------------------------------


def check_scalar_stationary(ctx: SuiteContext) -> CheckResult:
    stat = ctx.scalar_stationary
    triple_err = max(
        abs(stat.x_bar[0] - 0.5), abs(stat.u_bar[0] - 0.5), abs(stat.y_bar[0] + 0.5)
    )
    res = max(stat.residual_constraint, stat.residual_adjoint, stat.residual_control)
    records = [
        Record("triple error", triple_err, "<=", 1e-12),
        Record("KKT residuals", res, "<=", 1e-12),
    ]
    artifacts = [("stationary.csv", *reporting.stationary_rows(stat))]
    return CheckResult("2 scalar-stationary", 0.1, records, artifacts)


# --- criterion 3 ---------------------------------------------------------


def _state_adjoint_defect(sys_, x0, dt):
    prob = LqProblem(sys=sys_, horizon=1.0, target=np.zeros(sys_.n), x0=x0, dt=dt)
    traj = solve_transcription(prob)
    dre = solve_dre(prob)
    relation = np.einsum("tij,tj->ti", dre.p_samples, traj.x)
    return float(np.max(np.linalg.norm(traj.y - relation, axis=1)))


def check_state_adjoint(ctx: SuiteContext) -> CheckResult:
    cases = [("scalar", ctx.scalar_problem.sys, np.array([1.0]))]
    if not ctx.quick:
        sys4, _, x04 = ctx.rand4
        cases.append(("random-4x4", sys4, x04))
    records = []
    for label, sys_, x0 in cases:
        coarse = _state_adjoint_defect(sys_, x0, 1e-3)
        records.append(Record(f"{label} defect", coarse, "<=", 1e-5))
        if not ctx.quick:
            ratio = coarse / _state_adjoint_defect(sys_, x0, 5e-4)
            records.append(Record(f"{label} refinement ratio", ratio, ">=", 3.0))
    return CheckResult("3 state-adjoint", 10.0, records)


# --- criterion 4 ---------------------------------------------------------


def check_dre_constancy(ctx: SuiteContext) -> CheckResult:
    cases = [("scalar", ctx.scalar_problem.sys, ctx.scalar_are)]
    if not ctx.quick:
        sys4 = ctx.rand4[0]
        cases.append(("random-4x4", sys4, solve_are(sys4)))
    records = []
    for label, sys_, are in cases:
        zeros = np.zeros(sys_.n)
        dre = solve_dre(LqProblem(sys_, 5.0, zeros, zeros, 1e-3, p0=are.p))
        dev = float(np.max(np.linalg.norm(dre.p_samples - are.p, axis=(1, 2))))
        records.append(Record(f"{label} max|P_T - P|", dev, "<=", 1e-8))
    return CheckResult("4 dre-constancy", 5.0, records)


# --- criterion 5 ---------------------------------------------------------


def check_propagation(ctx: SuiteContext) -> CheckResult:
    scalar_res = ctx.scalar_t10_report.propagation_residual
    prob_half = replace(ctx.scalar_problem, dt=5e-4)
    half = verify_turnpike(prob_half, [10.0], solver="transcription")[0]
    records = [
        Record("scalar residual", scalar_res, "<=", 1e-6),
        Record("dt-halving ratio", scalar_res / half.propagation_residual, "in", (2.5, 8.0)),
    ]
    if not ctx.quick:
        heat_res = ctx.heat_report.propagation_residual
        records.append(Record("heat residual", heat_res, "<=", 1e-4))
    return CheckResult("5 propagation", 30.0, records)


# --- criterion 6 ---------------------------------------------------------


def check_rate_recovery(ctx: SuiteContext) -> CheckResult:
    scalar_rep = ctx.scalar_t10_report
    scalar_err = abs(scalar_rep.fitted_lambda - np.sqrt(2.0)) / np.sqrt(2.0)
    records = [Record("scalar rate error", scalar_err, "<=", 0.02)]
    if not ctx.quick:
        for seed in RATE_SEEDS:
            sys_ = random_stable(4, 2, seed)
            lam_ref = -solve_are(sys_).closed_loop_abscissa
            horizon = float(max(10.0, np.ceil(10.0 / lam_ref)))
            prob = LqProblem(
                sys=sys_, horizon=horizon, target=np.ones(4), x0=np.zeros(4), dt=1e-3
            )
            report = verify_turnpike(prob, [horizon], solver="transcription")[0]
            err = abs(report.fitted_lambda - lam_ref) / lam_ref
            records.append(Record(f"seed-{seed} rate error", err, "<=", 0.05))
    return CheckResult("6 rate-recovery", 20.0, records)


# --- criterion 7 ---------------------------------------------------------


def check_turnpike_bound(ctx: SuiteContext) -> CheckResult:
    reports = ctx.scalar_reports
    c_values = [r.c_min for r in reports]
    by_horizon = {r.horizon: r for r in reports}
    mid = {t: by_horizon[t].gap_x[len(by_horizon[t].gap_x) // 2] for t in (10.0, 20.0)}
    records = [
        Record("uniform-c ratio", max(c_values) / min(c_values), "<=", 1.01),
        Record("midpoint gap_x(20)/gap_x(10)", mid[20.0] / mid[10.0], "<=", 0.2),
        Record("midpoint gap_x(10)", mid[10.0], "<", 1e-2),
        Record("midpoint gap_x(20)", mid[20.0], "<", 1e-2),
    ]
    artifacts = [("turnpike_summary.csv", *reporting.turnpike_summary_rows(reports))]
    for r in reports:
        artifacts.append(
            (f"turnpike_T{r.horizon:g}.csv", *reporting.turnpike_report_rows(r))
        )
    return CheckResult("7 turnpike-bound", 30.0, records, artifacts)


# --- criterion 8 ---------------------------------------------------------


def check_energy_identity(ctx: SuiteContext) -> CheckResult:
    cases = [("scalar", ctx.scalar_problem.sys, ctx.scalar_t10_report, 1e-6)]
    if not ctx.quick:
        cases.append(("heat", ctx.heat_problem.sys, ctx.heat_report, 1e-4))
    records = []
    for label, sys_, turnpike, tol in cases:
        report = energy_diagnostics(turnpike.trajectory, turnpike.stationary, sys_)
        records += [
            Record(f"{label} identity residual", report.identity_residual, "<=", tol),
            Record(f"{label} Cauchy-Schwarz margin", report.cs_margin, ">=", -tol),
        ]
    return CheckResult("8 energy-identity", 10.0, records)


# --- criterion 9 ---------------------------------------------------------


def _smooth_signals(rng, width, grid, modes=4):
    # Unit-scale random trig polynomials: smooth in time, so they can be
    # resampled consistently at any step and the residual is pure quadrature.
    rel = grid / grid[-1]
    out = np.zeros((grid.size, width))
    for j in range(1, modes + 1):
        out += (
            rng.standard_normal(width)[None, :] * np.cos(j * np.pi * rel)[:, None]
            + rng.standard_normal(width)[None, :] * np.sin(j * np.pi * rel)[:, None]
        )
    return out / (3.0 * modes)


def _duality_dataset(seed, dt):
    n, m, horizon = 3, 2, 1.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.standard_normal((n, n))
    a -= (spectral_abscissa(a) + 0.5) * np.eye(n)
    b = rng.standard_normal((n, m))
    m_op = 0.3 * rng.standard_normal((n, n))
    y0 = 0.5 * rng.standard_normal(n)
    z_t = 0.5 * rng.standard_normal(n)
    sys_ = make_system(a, b, np.eye(n))
    grid = np.linspace(0.0, horizon, _step_count(horizon, dt) + 1)
    sig = np.random.Generator(np.random.Philox(key=seed).jumped())
    f = _smooth_signals(sig, n, grid)
    u = _smooth_signals(sig, m, grid)
    g = _smooth_signals(sig, n, grid)
    return sys_, (y0, f, u, m_op), (z_t, g), horizon


def check_duality(ctx: SuiteContext) -> CheckResult:
    n_sets = 5 if ctx.quick else 20
    coarse = []
    ratios = []
    for seed in range(1, n_sets + 1):
        res_c = duality_residual(*_duality_dataset(seed, 1e-3), 1e-3)
        coarse.append(res_c)
        if not ctx.quick:
            ratios.append(res_c / duality_residual(*_duality_dataset(seed, 5e-4), 5e-4))
    records = [Record(f"worst of {n_sets} residuals at dt=1e-3", max(coarse), "<=", 1e-6)]
    if ratios:
        mean_ratio = float(np.mean(ratios))
        records.append(Record("mean dt-halving ratio", mean_ratio, "in", (3.0, 5.0)))
    return CheckResult("9 duality", 10.0, records)


# --- criterion 10 --------------------------------------------------------


def _non_decreasing_steps(values) -> int:
    """How many consecutive pairs fail to decrease strictly."""
    return sum(not b < a for a, b in zip(values, values[1:]))


def check_yosida(ctx: SuiteContext) -> CheckResult:
    prob = ctx.scalar_problem
    ks = [2.0**j for j in range(1, 11)]
    stat_rows = stationary_convergence_study(prob.sys, prob.target, ks)
    dyn_rows = yosida_dynamic_study(prob, ks, solver="riccati-sweep")
    records = []
    for label, rows in (("stationary", stat_rows), ("dynamic", dyn_rows)):
        cols = list(zip(*rows))[1:]
        steps = sum(_non_decreasing_steps(col) for col in cols)
        final_ratio = max(col[-1] / col[0] for col in cols)
        records.append(Record(f"{label} error steps not decreasing", steps, "==", 0))
        records.append(Record(f"{label} final/initial", final_ratio, "<=", 1e-2))
    artifacts = [
        ("yosida_stationary.csv", *reporting.study_rows(stat_rows)),
        ("yosida_dynamic.csv", *reporting.dynamic_study_rows(dyn_rows)),
    ]
    if not ctx.quick:
        hsys, hz = heat_1d(50, "boundary_flavored")
        hprob = LqProblem(sys=hsys, horizon=5.0, target=hz, x0=np.zeros(50), dt=1e-2)
        heat_rows = yosida_dynamic_study(
            hprob, [10.0, 100.0, 1000.0], solver="transcription"
        )
        steps = _non_decreasing_steps([r[1] for r in heat_rows])
        records.append(Record("heat control error steps not decreasing", steps, "==", 0))
        artifacts.append(("yosida_heat.csv", *reporting.dynamic_study_rows(heat_rows)))
    return CheckResult("10 yosida-convergence", 60.0, records, artifacts)


# --- criterion 11 --------------------------------------------------------


def _null_space_margin(sys_, z, stat, samples, seed):
    """Smallest sampled cost change over feasible moves in ker [A B].

    The stationary cost |C x - z|^2 + |u|^2 is quadratic, so a move
    (dx, du) changes it by exactly

        2 <C x_bar - z, C dx> + 2 <u_bar, du> + |C dx|^2 + |du|^2,

    evaluated here for all ``samples`` moves at once.
    """
    stacked = np.hstack([sys_.a, sys_.b])
    _, sv, vt = np.linalg.svd(stacked)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    basis = vt[rank:]
    rng = np.random.Generator(np.random.Philox(key=seed))
    delta = rng.standard_normal((samples, basis.shape[0])) @ basis
    c_dx = delta[:, : sys_.n] @ sys_.c.T
    du = delta[:, sys_.n :]
    first = c_dx @ (sys_.c @ stat.x_bar - z) + du @ stat.u_bar
    second = np.sum(c_dx * c_dx, axis=1) + np.sum(du * du, axis=1)
    return float(np.min(2.0 * first + second))


def _sampled_cost_margins(prob, traj, v, eps_values):
    """Sampled J(u + eps v) - J(u) for each direction column of ``v``.

    The state is affine in the control, and the exact nodal step of
    :func:`~lqturnpike.lq.simulate_forward` is an affine map of (x0,
    forcing), so one batched forward solve of [u, u + v_1, ..., u + v_k]
    gives x_u = x(u) and every d = x(u + v) - x(u).  The trapezoid cost is
    quadratic in the control, so for every eps at once

        J(u + eps v) = J_sim(u) + eps a_v + eps^2 b_v,
        a_v = 2 [int <C x_u - z, C d> + <u, v> dt + <P0 x_u(T), d(T)>],
        b_v = int |C d|^2 + |v|^2 dt + <P0 d(T), d(T)>,

    with J_sim(u) the cost of (x_u, u) and the integrals by trapezoid
    quadrature.  Each margin is J(u + eps v) - ``cost(prob, traj)``.
    Returns shape (len(eps_values), k).
    """
    u = traj.u[:, :, None]
    x_all = simulate_forward(prob, np.concatenate([u, u + v], axis=2))
    x_u = x_all[:, :, :1]
    d = x_all[:, :, 1:] - x_u
    c_d = prob.sys.c @ d

    def integral(p, q):
        return _trapezoid(np.einsum("tib,tib->tb", p, q), prob.dt)

    residual = prob.sys.c @ x_u - prob.target[:, None]
    end = d[-1]
    p0_end = prob.p0 @ end
    a_v = 2.0 * (integral(residual, c_d) + integral(u, v) + x_u[-1, :, 0] @ p0_end)
    b_v = integral(c_d, c_d) + integral(v, v) + np.sum(end * p0_end, axis=0)
    offset = cost(prob, replace(traj, x=x_all[:, :, 0])) - cost(prob, traj)
    eps = np.asarray(eps_values, dtype=float)[:, None]
    return offset + eps * a_v + eps**2 * b_v


def check_optimality(ctx: SuiteContext) -> CheckResult:
    samples = 100
    prob = ctx.scalar_problem
    stat = ctx.scalar_stationary
    margin = _null_space_margin(prob.sys, prob.target, stat, samples, seed=101)
    margins = [("scalar-stationary", margin)]
    if not ctx.quick:
        sys4, z4, _ = ctx.rand4
        stat4 = solve_stationary(sys4, z4)
        margins.append(
            ("random-stationary", _null_space_margin(sys4, z4, stat4, samples, seed=102))
        )
    traj = ctx.scalar_t10_report.trajectory
    rng = np.random.Generator(np.random.Philox(key=103))
    v = rng.standard_normal((prob.n_steps + 1, 1, samples))
    sampled = _sampled_cost_margins(prob, traj, v, (0.1, -0.1, 0.01, -0.01))
    margins.append(("scalar-dynamic", float(np.min(sampled))))
    records = [Record(f"{label} worst margin", m, ">=", -1e-12) for label, m in margins]
    return CheckResult("11 optimality-sampling", 10.0, records)


CRITERIA = [
    check_scalar_are,
    check_scalar_stationary,
    check_state_adjoint,
    check_dre_constancy,
    check_propagation,
    check_rate_recovery,
    check_turnpike_bound,
    check_energy_identity,
    check_duality,
    check_yosida,
    check_optimality,
]


def run_suite(suite: str = "quick", out_dir=None, jobs: int = 1):
    """Run the acceptance checks and optionally write their CSV artifacts.

    Returns the list of :class:`CheckResult`, one per criterion, in
    criterion order, and writes their :func:`suite_tables` to ``out_dir``
    if given.  Criterion 12 (byte-identical reruns and the wall
    clock caps) is a property of this function itself, checked by
    :func:`check_determinism`.  The suite runs on one BLAS thread
    (:func:`~lqturnpike._blas.serial_blas`), so its files do not depend on
    the caller's thread count.
    """
    if suite not in SUITE_CAPS:
        raise ValueError(f"unknown suite '{suite}', expected 'quick' or 'full'")
    ctx = SuiteContext(quick=(suite == "quick"), jobs=jobs)
    results = []
    with serial_blas():
        for check in CRITERIA:
            start = time.perf_counter()
            result = check(ctx)
            result.runtime = time.perf_counter() - start
            results.append(result)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, (header, rows) in suite_tables(results).items():
            reporting.write_csv(os.path.join(out_dir, name), header, rows)
    return results


def suite_tables(results) -> dict:
    """The files a suite writes, ``{name: (header, rows)}``: every criterion's
    artifacts in criterion order, then ``verify_summary.csv`` of the verdicts.
    """
    tables = {name: (head, rows) for r in results for name, head, rows in r.artifacts}
    tables["verify_summary.csv"] = (
        ["criterion", "passed"], [(r.criterion, r.passed) for r in results]
    )
    return tables


# --- criterion 12 --------------------------------------------------------


def check_determinism(suite: str, results, suite_runtime: float, jobs=1) -> CheckResult:
    """Criterion 12: two quick runs render byte-identical files.

    The first run is ``results`` when ``suite`` is ``"quick"`` (the run
    whose files the caller wrote) and a quick rerun otherwise; the second
    is always a rerun.  Their :func:`suite_tables` are rendered by
    :func:`~lqturnpike.reporting.render_csv` and compared name by name in
    memory; a file that only one run has counts as differing.  Also
    bounds ``suite_runtime``, the measured runtime of the ``suite`` run,
    by the suite's cap, which caps the reruns as well.  Like the other
    checks, the result is untimed: the caller sets ``runtime``.
    """
    cap = SUITE_CAPS[suite]
    first = results if suite == "quick" else run_suite("quick", jobs=jobs)
    a, b = (
        {name: reporting.render_csv(*table) for name, table in suite_tables(run).items()}
        for run in (first, run_suite("quick", jobs=jobs))
    )
    differing = sum(a.get(name) != b.get(name) for name in a.keys() | b.keys())
    records = [
        Record("files differing between reruns", differing, "==", 0),
        Record(f"{suite} suite runtime (s)", suite_runtime, "<=", cap),
    ]
    return CheckResult("12 determinism", cap, records)
