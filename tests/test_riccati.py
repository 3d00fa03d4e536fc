import numpy as np
import pytest
from scipy.linalg import expm

import lqturnpike as lab
from lqturnpike import operators
from lqturnpike.errors import NotStabilizableError
from lqturnpike.operators import (
    _pass_schedule,
    linear_orbit,
    riccati_backward_pass,
    riccati_forward_pass,
    riccati_step_flow,
)
from lqturnpike.turnpike import fit_decay_rate


class TestSolveAre:
    def test_scalar_closed_form(self, scalar):
        # Oracle: positive root of P^2 + 2P - 1 = 0.
        sys_, _, _ = scalar
        are = lab.solve_are(sys_)
        assert abs(are.p[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-10
        assert abs(are.closed_loop_abscissa + np.sqrt(2.0)) <= 1e-10

    def test_zero_observation_gives_zero_value(self):
        sys_ = lab.make_system(-np.eye(3), np.ones((3, 1)), np.zeros((3, 3)))
        are = lab.solve_are(sys_)
        assert np.allclose(are.p, 0.0, atol=1e-12)

    def test_lyapunov_degenerate_case(self):
        # Oracle: with BB* = 0 the equation is -2P + 1 = 0.
        sys_ = lab.make_system([[-1.0]], [[0.0]], [[1.0]])
        are = lab.solve_are(sys_)
        assert abs(are.p[0, 0] - 0.5) <= 1e-12

    def test_unstable_without_control_rejected(self):
        sys_ = lab.make_system([[1.0]], [[0.0]], [[1.0]])
        with pytest.raises(NotStabilizableError):
            lab.solve_are(sys_)

    def test_invariants_on_random_systems(self):
        for seed in (1, 5, 9, 13):
            sys_ = lab.random_stable(4, 2, seed)
            are = lab.solve_are(sys_)
            norm_p = np.linalg.norm(are.p)
            assert np.linalg.norm(are.p - are.p.T) <= 1e-12 * max(1.0, norm_p)
            assert np.linalg.eigvalsh(are.p)[0] >= -1e-10 * max(1.0, norm_p)
            assert are.residual <= 1e-10
            assert are.closed_loop_abscissa < 0.0


def _dre(sys_, horizon, p0, dt):
    """``solve_dre`` of the zero-data problem on this grid, from this p0."""
    zeros = np.zeros(sys_.n)
    return lab.solve_dre(lab.LqProblem(sys_, horizon, zeros, zeros, dt, p0=p0))


class TestSolveDre:
    def test_constant_at_the_algebraic_solution(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        dre = _dre(sys_, 5.0, are.p, 2.5e-3)
        assert np.max(np.abs(dre.p_samples - are.p)) <= 1e-8

    def test_long_horizon_limit_matches_are(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        dre = _dre(sys_, 10.0, np.zeros((1, 1)), 1e-3)
        assert abs(dre.p_samples[0][0, 0] - are.p[0, 0]) <= 1e-6

    def test_zero_observation_stays_zero(self):
        sys_ = lab.make_system(-np.eye(2), np.ones((2, 1)), np.zeros((2, 2)))
        dre = _dre(sys_, 1.0, np.zeros((2, 2)), 1e-2)
        assert np.allclose(dre.p_samples, 0.0, atol=0.0)

    def test_terminal_sample_is_exact(self, rand4):
        sys_, _, _ = rand4
        p0 = 0.3 * np.eye(4)
        dre = _dre(sys_, 1.0, p0, 2e-3)
        assert np.array_equal(dre.p_samples[-1], p0)

    def test_samples_symmetric_psd(self, rand4):
        sys_, _, _ = rand4
        dre = _dre(sys_, 2.0, np.zeros((4, 4)), 2e-3)
        for sample in dre.p_samples[::100]:
            assert np.linalg.norm(sample - sample.T) <= 1e-10 * max(
                1.0, np.linalg.norm(sample)
            )
            assert np.linalg.eigvalsh(sample)[0] >= -1e-10 * max(
                1.0, np.linalg.norm(sample)
            )

    def test_scalar_closed_form(self):
        # Oracle: with A = -1, B = C = 1 and P0 = 0 the equation is
        # -P' = 1 - 2P - P^2, solved by sqrt2 tanh(sqrt2 (T - t) + artanh(1/sqrt2)) - 1.
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        horizon = 5.0
        dre = _dre(sys_, horizon, np.zeros((1, 1)), 1e-3)
        root2 = np.sqrt(2.0)
        exact = root2 * np.tanh(root2 * (horizon - dre.grid) + np.arctanh(1.0 / root2)) - 1.0
        assert np.max(np.abs(dre.p_samples[:, 0, 0] - exact)) <= 1e-13

    def test_lifted_and_stepwise_passes_agree(self, rand4, monkeypatch):
        sys_, _, _ = rand4
        flow = riccati_step_flow(sys_.a, sys_.b, sys_.c, 5.0 / 5000)
        monkeypatch.setattr(operators, "_LIFTED_SWEEP_MAX_STATE", 4)
        lifted = riccati_backward_pass(_pass_schedule(flow, 5000), np.zeros((4, 4)))
        monkeypatch.setattr(operators, "_LIFTED_SWEEP_MAX_STATE", 3)
        stepwise = riccati_backward_pass(_pass_schedule(flow, 5000), np.zeros((4, 4)))
        assert np.max(np.abs(lifted - stepwise)) <= 1e-13

    def test_capped_blocks_change_no_sample(self, rand4, monkeypatch):
        # Every node a batch reads lies before it, so cutting the lifted
        # levels into batches of 7 leaves both passes bit for bit as they were.
        sys_, _, _ = rand4
        levels = _pass_schedule(riccati_step_flow(sys_.a, sys_.b, sys_.c, 5.0 / 5000), 5000)
        x0 = np.ones(4)
        q_whole = riccati_backward_pass(levels, np.zeros((4, 4)))
        x_whole = riccati_forward_pass(levels, q_whole, x0)
        monkeypatch.setattr(operators, "_BLOCK_NODES", 7)
        q_capped = riccati_backward_pass(levels, np.zeros((4, 4)))
        assert np.array_equal(q_capped, q_whole)
        assert np.array_equal(riccati_forward_pass(levels, q_capped, x0), x_whole)

    def test_steps_by_the_problem_dt(self, scalar):
        # T / N is 0.09999999999999999 here, one rounding below dt = 0.1; the
        # samples are those of the flow over dt, as every other solver steps.
        sys_ = scalar[0]
        dre = _dre(sys_, 0.3, np.zeros((1, 1)), 0.1)
        assert 0.3 / 3 != 0.1
        flow = riccati_step_flow(sys_.a, sys_.b, sys_.c, 0.1)
        want = riccati_backward_pass(_pass_schedule(flow, 3), np.zeros((1, 1)))
        assert np.array_equal(dre.p_samples, want)

    def test_monotone_in_horizon_with_zero_terminal_cost(self, rand4):
        sys_, _, _ = rand4
        rng = np.random.Generator(np.random.Philox(key=3))
        xi = rng.standard_normal(4)
        values = []
        for horizon in (0.5, 1.0, 2.0, 4.0):
            dre = _dre(sys_, horizon, np.zeros((4, 4)), 2e-3)
            values.append(float(xi @ dre.p_samples[0] @ xi))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_finite_horizon_value_consistency(self, rand4):
        # <P_T(tau) xi, xi> equals the cost of the optimal solution on
        # [tau, T] with z = 0, computed by the independent transcription
        # solver.  The cost of that solution is evaluated with Simpson
        # quadrature: near the optimum the trajectory error enters the
        # value only at second order, so quadrature is the binding error.
        from scipy.integrate import simpson

        sys_, _, _ = rand4
        horizon, tau, dt = 2.0, 0.5, 1e-3
        p0 = 0.3 * np.eye(4)
        dre = _dre(sys_, horizon, p0, dt)
        rng = np.random.Generator(np.random.Philox(key=17))
        xi = rng.standard_normal(4)
        quad_form = float(xi @ dre.p_samples[int(round(tau / dt))] @ xi)
        prob = lab.LqProblem(
            sys=sys_, horizon=horizon - tau, target=np.zeros(4), x0=xi, p0=p0, dt=dt
        )
        traj = lab.solve_transcription(prob)
        running = np.sum((traj.x @ sys_.c.T) ** 2, axis=1) + np.sum(
            traj.u**2, axis=1
        )
        value = float(
            simpson(running, x=traj.grid) + traj.x[-1] @ p0 @ traj.x[-1]
        )
        assert abs(value - quad_form) <= 1e-5 * max(1.0, abs(quad_form))

    def test_step_must_divide_horizon(self, scalar):
        with pytest.raises(ValueError, match="does not divide horizon"):
            _dre(scalar[0], 1.0, np.zeros((1, 1)), 0.3)


class TestLiftedOrbit:
    @pytest.mark.parametrize("nsteps", [0, 1, 2, 7, 1000])
    def test_matches_step_by_step_loop(self, nsteps):
        rng = np.random.Generator(np.random.Philox(key=21))
        m = rng.standard_normal((4, 4))
        m *= 0.95 / np.max(np.abs(np.linalg.eigvals(m)))
        assert np.linalg.norm(m @ m.T - m.T @ m) > 0.1  # not normal
        v = rng.standard_normal(4)
        want = [v]
        for _ in range(nsteps):
            v = m @ v
            want.append(v)
        want = np.array(want)
        got = linear_orbit(m, want[0], nsteps)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "case, dt, nsteps, bound",
        [("scalar", 1e-3, 40_000, 0.0), ("rand4", 1e-3, 10_000, 0.0),
         ("heat_1d(50)", 1e-2, 2_000, 1e-15)],
    )
    def test_matches_the_power_squaring_oracle(
        self, case, dt, nsteps, bound, scalar, rand4, lifted_orbit
    ):
        # Up to size 16 the orbit lifts, squaring by double_step_flow with
        # W = G = 0, bit for bit the oracle's squaring; at size 50 it steps
        # node by node, one rounding route against another.
        if case == "heat_1d(50)":
            sys_ = lab.heat_1d(50)[0]
        else:
            sys_ = {"scalar": scalar, "rand4": rand4}[case][0]
        m = expm(dt * lab.solve_are(sys_).a_cl)
        v0 = np.random.Generator(np.random.Philox(key=22)).standard_normal(sys_.n)
        got = linear_orbit(m, v0, nsteps)
        want = lifted_orbit(m, v0, nsteps)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_orbit_factors_nothing(self, monkeypatch):
        # The orbit's W has width 0, and doubling keeps it exactly zero, so
        # no lifted level refactors it.
        monkeypatch.setattr(operators, "_psd_factor", lambda w: pytest.fail("W factored"))
        m = np.array([[0.5, 0.2], [0.0, 0.9]])
        orbit = linear_orbit(m, np.ones(2), 1000)
        assert np.allclose(orbit[3], np.linalg.matrix_power(m, 3) @ np.ones(2))


class TestClosedLoopGenerator:
    """``AreSolution.a_cl`` is A - BB*P; its abscissa gives the decay rate."""

    def test_scalar_generator_and_rate(self, scalar_pipeline):
        _, are = scalar_pipeline
        assert abs(are.a_cl[0, 0] + np.sqrt(2.0)) <= 1e-10
        assert abs(-are.closed_loop_abscissa - np.sqrt(2.0)) <= 1e-10
        assert not are.a_cl.flags.writeable

    def test_zero_observation_keeps_generator(self):
        sys_ = lab.make_system(-np.eye(2), np.ones((2, 1)), np.zeros((2, 2)))
        are = lab.solve_are(sys_)
        assert np.allclose(are.a_cl, sys_.a, atol=1e-12)
        assert abs(-are.closed_loop_abscissa - 1.0) <= 1e-12

    def test_rate_agrees_with_lognorm_fit(self):
        # Oracle: least-squares fit of log ||e^{t A_cl}|| over t in [1, 5].
        sys_ = lab.random_stable(4, 2, 6)
        are = lab.solve_are(sys_)
        lam = -are.closed_loop_abscissa
        grid = np.linspace(1.0, 5.0, 81)
        norms = np.array([np.linalg.norm(expm(t * are.a_cl), 2) for t in grid])
        _, lam_fit = fit_decay_rate((grid, norms), (1.0, 5.0))
        assert abs(lam_fit - lam) <= 0.02 * lam

    def test_decay_envelope_with_fitted_amplitude(self, scalar_pipeline):
        _, are = scalar_pipeline
        grid = np.linspace(0.0, 20.0, 201)
        norms = np.array([np.exp(are.a_cl[0, 0] * t) for t in grid])
        c_fit, lam_fit = fit_decay_rate((grid, norms), (0.0, 20.0))
        envelope = c_fit * np.exp(-lam_fit * grid)
        assert np.all(norms <= envelope * (1.0 + 1e-9))
