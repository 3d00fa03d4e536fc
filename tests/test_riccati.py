import numpy as np
import pytest

import lqturnpike as lab
from lqturnpike.errors import NotStabilizableError, TruncationError
from lqturnpike.operators import (
    _lifted_backward_pass,
    _stepwise_backward_pass,
    riccati_step_flow,
)
from lqturnpike.riccati import lifted_orbit
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


class TestSolveDre:
    def test_constant_at_the_algebraic_solution(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        dre = lab.solve_dre(sys_, 5.0, are.p, 2000)
        assert np.max(np.abs(dre.p_samples - are.p)) <= 1e-8

    def test_long_horizon_limit_matches_are(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        dre = lab.solve_dre(sys_, 10.0, np.zeros((1, 1)), 10_000)
        assert abs(dre.p_samples[0][0, 0] - are.p[0, 0]) <= 1e-6

    def test_zero_observation_stays_zero(self):
        sys_ = lab.make_system(-np.eye(2), np.ones((2, 1)), np.zeros((2, 2)))
        dre = lab.solve_dre(sys_, 1.0, np.zeros((2, 2)), 100)
        assert np.allclose(dre.p_samples, 0.0, atol=0.0)

    def test_terminal_sample_is_exact(self, rand4):
        sys_, _, _ = rand4
        p0 = 0.3 * np.eye(4)
        dre = lab.solve_dre(sys_, 1.0, p0, 500)
        assert np.array_equal(dre.p_samples[-1], p0)

    def test_samples_symmetric_psd(self, rand4):
        sys_, _, _ = rand4
        dre = lab.solve_dre(sys_, 2.0, np.zeros((4, 4)), 1000)
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
        dre = lab.solve_dre(sys_, horizon, np.zeros((1, 1)), 5000)
        root2 = np.sqrt(2.0)
        exact = root2 * np.tanh(root2 * (horizon - dre.grid) + np.arctanh(1.0 / root2)) - 1.0
        assert np.max(np.abs(dre.p_samples[:, 0, 0] - exact)) <= 1e-13

    def test_lifted_and_stepwise_passes_agree(self, rand4):
        sys_, _, _ = rand4
        flow = riccati_step_flow(sys_.a, sys_.b, sys_.c, 5.0 / 5000)
        lifted, _ = _lifted_backward_pass(flow, np.zeros((4, 4)), 5000)
        stepwise = _stepwise_backward_pass(flow, np.zeros((4, 4)), 5000)
        assert np.max(np.abs(lifted - stepwise)) <= 1e-13

    def test_monotone_in_horizon_with_zero_terminal_cost(self, rand4):
        sys_, _, _ = rand4
        rng = np.random.Generator(np.random.Philox(key=3))
        xi = rng.standard_normal(4)
        values = []
        for horizon in (0.5, 1.0, 2.0, 4.0):
            dre = lab.solve_dre(sys_, horizon, np.zeros((4, 4)), int(horizon * 500))
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
        dre = lab.solve_dre(sys_, horizon, p0, int(round(horizon / dt)))
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
        got = lifted_orbit(m, want[0], nsteps)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestValueFunction:
    def test_zero_state(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        quad, sim = lab.value_function_check(sys_, are, np.zeros(1), 12.0, 1e-3)
        assert quad == 0.0 and abs(sim) < 1e-14

    def test_scalar_matches_quadrature(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        quad, sim = lab.value_function_check(sys_, are, np.ones(1), 12.0, 1e-3)
        assert abs(quad - (np.sqrt(2.0) - 1.0)) <= 1e-10
        assert abs(quad - sim) <= 1e-6

    def test_quadratic_homogeneity(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        quad1, sim1 = lab.value_function_check(sys_, are, np.ones(1), 12.0, 1e-3)
        quad2, sim2 = lab.value_function_check(sys_, are, 2.0 * np.ones(1), 12.0, 1e-3)
        assert abs(quad2 - 4.0 * quad1) <= 1e-12
        assert abs(sim2 - 4.0 * sim1) <= 1e-9

    def test_short_horizon_rejected(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        with pytest.raises(TruncationError):
            lab.value_function_check(sys_, are, np.ones(1), 1.0, 1e-3)


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
        norms = np.array(
            [np.linalg.norm(lab.semigroup(lab.make_system(are.a_cl, sys_.b, sys_.c), t), 2)
             for t in grid]
        )
        _, lam_fit = fit_decay_rate((grid, norms), (1.0, 5.0))
        assert abs(lam_fit - lam) <= 0.02 * lam

    def test_decay_envelope_with_fitted_amplitude(self, scalar_pipeline):
        _, are = scalar_pipeline
        grid = np.linspace(0.0, 20.0, 201)
        norms = np.array([np.exp(are.a_cl[0, 0] * t) for t in grid])
        c_fit, lam_fit = fit_decay_rate((grid, norms), (0.0, 20.0))
        envelope = c_fit * np.exp(-lam_fit * grid)
        assert np.all(norms <= envelope * (1.0 + 1e-9))
