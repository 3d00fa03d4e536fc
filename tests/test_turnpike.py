import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

import lqturnpike as lab
from lqturnpike.errors import DimensionError, UndefinedRateError
from lqturnpike.turnpike import (
    _simpson,
    _windowed_control_gap,
    energy_diagnostics,
    fit_decay_rate,
    h_trajectory,
    propagation_residual,
    verify_turnpike,
    yosida_dynamic_study,
)


@pytest.fixture(scope="module")
def scalar_problem(scalar):
    sys_, z, x0 = scalar
    return lab.LqProblem(sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3)


@pytest.fixture(scope="module")
def scalar_run(scalar, scalar_pipeline, scalar_problem):
    sys_, z, x0 = scalar
    stat, are = scalar_pipeline
    traj = lab.solve_transcription(scalar_problem)
    return sys_, z, x0, stat, are, scalar_problem, traj


class TestHTrajectory:
    def test_zero_problem(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        stat0 = lab.solve_stationary(sys_, np.zeros(1))
        _, are = scalar_pipeline
        prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=np.zeros(1), x0=np.zeros(1),
            p0=np.zeros((1, 1)), dt=1e-2,
        )
        traj = lab.solve_transcription(prob)
        h = h_trajectory(traj, stat0, are)
        assert np.allclose(h, 0.0, atol=1e-13)

    def test_definition_at_a_node(self, scalar_run):
        _, _, _, stat, are, _, traj = scalar_run
        h = h_trajectory(traj, stat, are)
        manual = traj.y[0] - stat.y_bar - are.p @ (traj.x[0] - stat.x_bar)
        assert np.allclose(h[0], manual, atol=0.0)

    def test_initial_value_exponentially_small(self, scalar_run):
        # |h(0)| is at the level e^{-sqrt(2) * 10} |h(T)| plus solver error.
        _, _, _, stat, are, _, traj = scalar_run
        h = h_trajectory(traj, stat, are)
        assert np.linalg.norm(h[0]) <= 1e-4


class TestPropagationResidual:
    def test_zero_deviation(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        grid = np.linspace(0.0, 1.0, 11)
        assert propagation_residual(np.zeros((11, 1)), sys_, are, grid) == 0.0

    def test_scalar_below_tolerance(self, scalar_run):
        sys_, _, _, stat, are, _, traj = scalar_run
        h = h_trajectory(traj, stat, are)
        assert propagation_residual(h, sys_, are, traj.grid) <= 1e-6

    def test_second_order_in_dt(self, scalar, scalar_pipeline):
        sys_, z, x0 = scalar
        stat, are = scalar_pipeline
        residuals = []
        for dt in (1e-3, 5e-4):
            prob = lab.LqProblem(
                sys=sys_, horizon=10.0, target=z, x0=x0,
                p0=np.zeros((1, 1)), dt=dt,
            )
            traj = lab.solve_transcription(prob)
            h = h_trajectory(traj, stat, are)
            residuals.append(propagation_residual(h, sys_, are, traj.grid))
        ratio = residuals[0] / residuals[1]
        assert 2.5 <= ratio <= 8.0

    def test_uniform_grid_required(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        grid = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            propagation_residual(np.zeros((3, 1)), sys_, are, grid)

    def test_matches_stepwise_loop_on_heat_grid(self):
        n = 20
        sys_, z = lab.heat_1d(n, "boundary_flavored")
        x0 = 0.5 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        prob = lab.LqProblem(
            sys=sys_, horizon=5.0, target=z, x0=x0, p0=np.zeros((n, n)), dt=1e-2
        )
        stat, are = lab.solve_stationary(sys_, z), lab.solve_are(sys_)
        traj = lab.solve_transcription(prob)
        h = h_trajectory(traj, stat, are)
        step = expm(prob.dt * (sys_.a - sys_.b @ (sys_.b.T @ are.p)).T)
        g = h[::-1]
        predicted = g[0]
        want = 0.0
        for j in range(1, g.shape[0]):
            predicted = step @ predicted
            want = max(want, float(np.linalg.norm(g[j] - predicted)))
        got = propagation_residual(h, sys_, are, traj.grid)
        assert want > 1e-6  # a transcription defect, well above rounding
        assert abs(got - want) <= 1e-13 * want


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 501)
        c, lam = fit_decay_rate((t, np.exp(-2.0 * t)), (0.0, 5.0))
        assert abs(c - 1.0) <= 1e-10
        assert abs(lam - 2.0) <= 1e-10

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 101)
        _, lam = fit_decay_rate((t, np.full(101, 3.0)), (0.0, 1.0))
        assert abs(lam) <= 1e-12

    def test_reversed_deviation_recovers_closed_loop_rate(self, scalar_run):
        _, _, _, stat, are, _, traj = scalar_run
        h = h_trajectory(traj, stat, are)
        mags = np.linalg.norm(h, axis=1)[::-1]
        _, lam = fit_decay_rate((traj.grid, mags), (0.3, 3.2))
        assert abs(lam - np.sqrt(2.0)) <= 0.02 * np.sqrt(2.0)

    def test_all_zero_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(UndefinedRateError):
            fit_decay_rate((t, np.zeros(11)), (0.0, 1.0))

    def test_window_needs_five_nodes(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            fit_decay_rate((t, np.ones(11)), (0.0, 0.25))


class TestWindowedControlGap:
    @pytest.mark.parametrize("n_nodes", [1, 2, 7, 8])
    def test_matches_per_node_loop_exactly(self, n_nodes):
        # Rounding can leave the cumulative integral slightly decreasing,
        # so the clamp at zero is exercised too.
        rng = np.random.Generator(np.random.Philox(key=7))
        cum = np.cumsum(rng.standard_normal(n_nodes))
        expected = np.empty(n_nodes)
        for i in range(n_nodes):
            lo, hi = min(i, n_nodes - 1 - i), max(i, n_nodes - 1 - i)
            expected[i] = np.sqrt(max(cum[hi] - cum[lo], 0.0))
        got = _windowed_control_gap(cum, np.linspace(0.0, 1.0, n_nodes))
        assert np.array_equal(got, expected)


class TestVerifyTurnpike:
    def test_trivial_on_turnpike_start(self, scalar):
        sys_, _, _ = scalar
        stat0 = lab.solve_stationary(sys_, np.zeros(1))
        prob = lab.LqProblem(
            sys=sys_, horizon=2.0, target=np.zeros(1), x0=stat0.x_bar, dt=1e-3
        )
        report = verify_turnpike(prob, [2.0], solver="transcription")[0]
        assert np.max(report.gap_x + report.gap_y + report.gap_u_window) <= 1e-8
        assert np.max(report.gap_x) <= 1e-9
        assert report.c_min == 0.0

    def test_scalar_horizons(self, scalar_problem):
        reports = verify_turnpike(
            scalar_problem, [5.0, 10.0, 20.0], solver="transcription"
        )
        assert all(r.fitted_lambda > 0 for r in reports)
        # Rate is horizon independent and matches the spectral reference.
        lams = [r.fitted_lambda for r in reports]
        assert max(lams) - min(lams) <= 0.05 * min(lams)
        for lam in lams:
            assert abs(lam - np.sqrt(2.0)) <= 0.05 * np.sqrt(2.0)
        # Midpoint gap decays with the horizon.
        mids = {
            r.horizon: r.gap_x[len(r.trajectory.grid) // 2] for r in reports
        }
        assert mids[20.0] <= 0.2 * mids[10.0]
        assert mids[10.0] < 1e-2 and mids[20.0] < 1e-2

    def test_uniform_constant_bounded_across_horizons(self, scalar_problem):
        reports = verify_turnpike(
            scalar_problem, [5.0, 10.0, 20.0, 40.0], solver="transcription"
        )
        c_values = [r.c_min for r in reports]
        assert max(c_values) <= 1.01 * min(c_values)
        # c_min is the largest gap/envelope ratio at the reference rate on
        # the nodes where that envelope is at least 1e-6; at T = 40 the
        # floor drops about the middle half of the horizon.
        x0, stat = scalar_problem.x0, reports[0].stationary
        scale = np.linalg.norm(x0 - stat.x_bar) + np.linalg.norm(stat.y_bar)
        lam = np.sqrt(2.0)
        for r in reports:
            t = r.trajectory.grid
            envelope = np.exp(-lam * t) + np.exp(-lam * (r.horizon - t))
            kept = envelope >= 1e-6
            ratio = (r.gap_x + r.gap_y + r.gap_u_window) / (scale * envelope)
            assert abs(r.c_min - np.max(ratio[kept])) <= 1e-12 * r.c_min
        assert not np.all(kept)

    def test_control_window_estimate(self, scalar_problem):
        # The constant measured at T = 5 bounds the windowed control gap at
        # T = 10 on the floored nodes, to the 1.01 spread of criterion 7.
        short, report = verify_turnpike(
            scalar_problem, [5.0, 10.0], solver="transcription"
        )
        stat = report.stationary
        scale = np.linalg.norm(scalar_problem.x0 - stat.x_bar) + np.linalg.norm(stat.y_bar)
        grid = report.trajectory.grid
        lam = report.lambda_reference
        envelope = np.exp(-lam * grid) + np.exp(-lam * (report.horizon - grid))
        kept = envelope >= 1e-6
        bound = 1.01 * short.c_min * scale * envelope
        assert np.all(report.gap_u_window[kept] <= bound[kept])
        # Degenerate window at the midpoint is zero by convention.
        assert report.gap_u_window[len(grid) // 2] == 0.0

    def test_window_convention_symmetric(self, scalar_problem):
        report = verify_turnpike(scalar_problem, [10.0], solver="transcription")[0]
        # I_t for t and T - t is the same interval, so the windowed gap is
        # symmetric about the midpoint.
        guw = report.gap_u_window
        assert np.allclose(guw, guw[::-1], atol=1e-12)

    def test_concurrent_jobs_match_sequential(self, scalar_problem):
        seq = verify_turnpike(scalar_problem, [3.0, 5.0], solver="transcription")
        par = verify_turnpike(scalar_problem, [3.0, 5.0], solver="transcription", jobs=2)
        for a, b in zip(seq, par):
            assert a.horizon == b.horizon
            assert np.array_equal(a.gap_x, b.gap_x)
            assert a.fitted_lambda == b.fitted_lambda

    @pytest.mark.parametrize("solver", ["transcription", "riccati-sweep"])
    def test_report_residual_is_the_public_route(self, rand4, solver):
        # The report's residual and the public h -> residual pair, which
        # callers outside verify_turnpike use, agree bit for bit.
        sys_, z, x0 = rand4
        prob = lab.LqProblem(sys=sys_, horizon=5.0, target=z, x0=x0, dt=1e-2)
        r = verify_turnpike(prob, [5.0], solver=solver)[0]
        h = h_trajectory(r.trajectory, r.stationary, r.are)
        want = propagation_residual(h, sys_, r.are, r.trajectory.grid)
        assert r.propagation_residual == want
        assert np.array_equal(r.h_norm, np.linalg.norm(h, axis=1))

    def test_report_carries_the_pair_it_measured_against(self, scalar_problem):
        sys_, z = scalar_problem.sys, scalar_problem.target
        reports = verify_turnpike(scalar_problem, [3.0, 5.0], solver="transcription")
        stat, are = lab.solve_stationary(sys_, z), lab.solve_are(sys_)
        for r in reports:
            assert r.stationary is reports[0].stationary and r.are is reports[0].are
            assert np.array_equal(r.stationary.x_bar, stat.x_bar)
            assert np.array_equal(r.are.p, are.p)
            assert r.lambda_reference == -are.closed_loop_abscissa
            gap_x = np.linalg.norm(r.trajectory.x - stat.x_bar, axis=1)
            assert np.array_equal(r.gap_x, gap_x)

    def test_long_horizon_has_the_short_horizons_constant(self, scalar):
        # lambda T/2 = 778 at T = 1100: the envelope rounds to 0 at the
        # midpoint, but the floored nodes are the two boundary layers, where
        # the constant is that of T = 20.
        sys_, z, x0 = scalar
        prob = lab.LqProblem(sys=sys_, horizon=20.0, target=z, x0=x0, dt=0.1)
        short, long = verify_turnpike(prob, [20.0, 1100.0], solver="transcription")
        assert abs(long.c_min - short.c_min) <= 1e-9 * short.c_min

    def test_boundary_heat_column_has_one_constant(self):
        # Without the envelope floor this sweep read c = 1.12, 1.5e9 and
        # 4.5e30: above lambda T/2 of about 30 the ratio measured rounding.
        sys_, z = lab.heat_1d(50, "boundary_flavored")
        prob = lab.LqProblem(sys=sys_, horizon=5.0, target=z, x0=np.zeros(50), dt=1e-2)
        reports = verify_turnpike(prob, [5.0, 10.0, 20.0], solver="riccati-sweep")
        c_values = [r.c_min for r in reports]
        assert max(c_values) <= (1.0 + 1e-3) * min(c_values)

    def test_problem_horizon_is_not_read(self, scalar_problem):
        # Problems that differ only in their horizon give equal reports.
        reports = [
            verify_turnpike(
                replace(scalar_problem, horizon=t), [3.0, 5.0], solver="transcription"
            )
            for t in (10.0, 2.0)
        ]
        for a, b in zip(*reports):
            assert a.horizon == b.horizon
            assert np.array_equal(a.trajectory.grid, b.trajectory.grid)
            for name in ("gap_x", "gap_y", "gap_u_window", "h_norm"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert (a.fitted_lambda, a.c_min) == (b.fitted_lambda, b.c_min)


class TestStaggeredDeviationEquation:
    def test_finite_horizon_deviation_satisfies_its_ode(self, scalar_run):
        # h_T(t) = y - y_bar - P_T(t)(x - x_bar) obeys
        # h_T' = (-A* + P_T B B*) h_T; checked by central differences.
        sys_, _, _, stat, are, prob, traj = scalar_run
        dre = lab.solve_dre(prob)
        x_dev = traj.x - stat.x_bar
        h_t = traj.y - stat.y_bar - np.einsum("tij,tj->ti", dre.p_samples, x_dev)
        dt = prob.dt
        idx = np.arange(200, 9800, 400)
        derivative = (h_t[idx + 1] - h_t[idx - 1]) / (2.0 * dt)
        bbt = sys_.b @ sys_.b.T
        expected = np.stack(
            [
                (-sys_.a.T + dre.p_samples[i] @ bbt) @ h_t[i]
                for i in idx
            ]
        )
        assert np.max(np.abs(derivative - expected)) <= 1e-4


class TestSimpson:
    @pytest.mark.parametrize("nodes", [2, 3, 4, 5, 25, 26, 1001, 1002])
    def test_matches_scipy(self, nodes):
        grid = np.linspace(0.0, 2.0, nodes)
        values = np.exp(-grid) * np.sin(3.0 * grid) + 0.5 * grid**2
        want = simpson(values, x=grid)
        assert abs(_simpson(values, grid[1] - grid[0]) - want) <= 1e-13 * abs(want)

    def test_import_leaves_out_scipy_integrate(self):
        src = os.path.dirname(os.path.dirname(lab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, lqturnpike; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestEnergyDiagnostics:
    def test_zero_problem(self, scalar):
        sys_, _, _ = scalar
        stat0 = lab.solve_stationary(sys_, np.zeros(1))
        prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=np.zeros(1), x0=np.zeros(1),
            p0=np.zeros((1, 1)), dt=1e-2,
        )
        traj = lab.solve_transcription(prob)
        report = energy_diagnostics(traj, stat0, sys_)
        assert abs(report.lhs) <= 1e-18
        assert report.cs_margin >= -1e-18

    def test_scalar_identity(self, scalar_run):
        sys_, _, _, stat, _, _, traj = scalar_run
        report = energy_diagnostics(traj, stat, sys_)
        assert report.identity_residual <= 1e-6
        assert report.cs_margin >= -1e-6
        assert report.lhs > 0


class TestYosidaDynamicStudy:
    def test_zero_generator_is_exact(self):
        # With A = 0 the smoother is the identity, so every B_k equals B.
        sys_ = lab.make_system(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2))
        prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=np.array([0.3, -0.2]),
            x0=np.zeros(2), p0=np.zeros((2, 2)), dt=1e-2,
        )
        rows = yosida_dynamic_study(prob, [2.0, 8.0], solver="riccati-sweep")
        for _, err_u, err_x, err_y in rows:
            assert err_u <= 1e-12 and err_x <= 1e-12 and err_y <= 1e-12

    def test_scalar_errors_decrease(self, scalar):
        sys_, z, x0 = scalar
        prob = lab.LqProblem(
            sys=sys_, horizon=10.0, target=z, x0=x0, p0=np.zeros((1, 1)), dt=1e-3
        )
        rows = yosida_dynamic_study(
            prob, [2.0**j for j in range(1, 11)], solver="riccati-sweep"
        )
        for col in (1, 2, 3):
            vals = [row[col] for row in rows]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= 1e-2 * vals[0]

    def test_terminal_cost_form_with_are_operator(self, scalar, scalar_pipeline):
        # The finite-horizon surrogate with p0 = P is the form used to relate
        # smoothed problems to the infinite-horizon one.
        sys_, z, x0 = scalar
        _, are = scalar_pipeline
        prob = lab.LqProblem(
            sys=sys_, horizon=5.0, target=z, x0=x0, p0=are.p, dt=1e-3
        )
        rows = yosida_dynamic_study(prob, [4.0, 64.0, 1024.0], solver="riccati-sweep")
        u_errs = [row[1] for row in rows]
        assert all(b < a for a, b in zip(u_errs, u_errs[1:]))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda sys_, stat, are, traj, sys4: h_trajectory(
                traj, stat, replace(are, p=np.eye(2))
            ),
            "trajectory, stationary triple, and Riccati solution must share one state dimension",
        ),
        (
            lambda sys_, stat, are, traj, sys4: propagation_residual(
                np.zeros((3, 1)), sys_, are, np.arange(4.0)
            ),
            "h must have shape (4, 1): one state per grid node",
        ),
        (
            lambda sys_, stat, are, traj, sys4: fit_decay_rate(
                (np.arange(5.0), np.ones(4)), (0.0, 4.0)
            ),
            "time and magnitude arrays must have equal shape",
        ),
        (
            lambda sys_, stat, are, traj, sys4: energy_diagnostics(traj, stat, sys4),
            "trajectory, stationary triple, and system dimensions differ",
        ),
    ],
    ids=["h_trajectory", "propagation_residual", "fit_decay_rate", "energy_diagnostics"],
)
def test_dimension_checks(scalar_run, rand4, call, message):
    sys_, _, _, stat, are, _, traj = scalar_run
    with pytest.raises(DimensionError, match=re.escape(message)):
        call(sys_, stat, are, traj, rand4[0])
