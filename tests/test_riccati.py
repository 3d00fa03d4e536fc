import functools
import re

import numpy as np
import pytest
from scipy.linalg import expm

import lqturnpike as lab
from lqturnpike import operators, riccati
from lqturnpike.errors import ConvergenceError, IntegrationError, NotStabilizableError
from lqturnpike.operators import (
    _pass_schedule,
    linear_recurrence,
    riccati_backward_pass,
    riccati_forward_pass,
    riccati_step_flow,
)
from lqturnpike.turnpike import fit_decay_rate
from lqturnpike.verification import _duality_dataset


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

    def test_zero_control_closed_form(self):
        # Oracle: with A = -1, B = 0, C = 1 and P0 = 0 the equation is
        # -P' = 1 - 2P, solved by (1 - e^{-2(T - t)}) / 2.  W = 0, so V has
        # width 0 at every level of the pass schedule.
        sys_ = lab.make_system([[-1.0]], [[0.0]], [[1.0]])
        assert riccati_step_flow(sys_.a, sys_.b, sys_.c, 1e-2)[1].shape == (1, 0)
        dre = _dre(sys_, 1.0, np.zeros((1, 1)), 1e-2)
        want = 0.5 * (1.0 - np.exp(-2.0 * (1.0 - dre.grid)))
        assert np.max(np.abs(dre.p_samples[:, 0, 0] - want)) <= 1e-13 * np.max(want)

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


# The walker's matrices: the closed-loop steps e^{dt A_cl} of the orbits,
# the forward steps e^{dt (A + M)} of criterion 9's five datasets, and a
# non-normal map whose powers rise 200-fold before they decay.
RECURRENCES = ["scalar", "rand4"] + [f"duality{seed}" for seed in range(1, 6)] + [
    "heat_1d(50)", "heat_1d(100)-boundary", "non-normal"
]
RECURRENCE_STEPS = [0, 1, 2, 15, 16, 17, 1000, 10_000]


@functools.cache
def _recurrence_matrix(case):
    if case == "non-normal":
        return np.array([[0.9, 50.0], [0.0, 0.9]])
    if case.startswith("duality"):
        sys_, (_, _, _, m_op), _, _ = _duality_dataset(int(case[-1]), 1e-3)
        return expm(1e-3 * (sys_.a + m_op))
    if case.startswith("heat"):
        sys_ = lab.heat_1d(*((100, "boundary_flavored") if "boundary" in case else (50,)))[0]
        return expm(1e-2 * lab.solve_are(sys_).a_cl)
    sys_ = lab.scalar_example()[0] if case == "scalar" else lab.random_stable(4, 2, 42)
    return expm(1e-3 * lab.solve_are(sys_).a_cl)


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestLinearRecurrence:
    @pytest.mark.parametrize("nsteps", RECURRENCE_STEPS)
    @pytest.mark.parametrize("case", RECURRENCES)
    def test_matches_step_by_step_loop(self, case, nsteps, stepwise_recurrence):
        # Columns 1 and 101, the latter up to the size of criterion 11's
        # batch (10,001 x 1 x 101 doubles).  N = 15 and 16 fill their
        # blocks; N = 17 and 1000 end on a short block of 1 and 8 nodes.
        r = _recurrence_matrix(case)
        rng = np.random.Generator(np.random.Philox(key=23))
        for cols in (1, 101):
            shape = (nsteps + 1, r.shape[0], cols)
            if np.prod(shape) > 10_001 * 101:
                continue
            forced = rng.standard_normal(shape)
            want = stepwise_recurrence(r, forced)
            got = linear_recurrence(r, forced.copy())
            assert _relative_gap(got, want) <= 1e-13

    @pytest.mark.parametrize("case", RECURRENCES)
    def test_matches_the_power_squaring_oracle(self, case, lifted_orbit):
        r = _recurrence_matrix(case)
        v0 = np.random.Generator(np.random.Philox(key=22)).standard_normal(r.shape[0])
        for nsteps in RECURRENCE_STEPS:
            orbit = np.zeros((nsteps + 1, r.shape[0]))
            orbit[0] = v0
            got = linear_recurrence(r, orbit)
            assert _relative_gap(got, lifted_orbit(r, v0, nsteps)) <= 1e-13

    def test_walks_a_non_contiguous_out_in_place(self, stepwise_recurrence):
        r = _recurrence_matrix("rand4")
        forced = np.random.Generator(np.random.Philox(key=24)).standard_normal((1001, 4, 3))
        want = stepwise_recurrence(r, forced)
        views = [
            (forced.transpose(0, 2, 1).copy().transpose(0, 2, 1), want),
            (np.repeat(forced, 2, axis=0)[::2], want),
            (forced.copy()[:, :, 0], want[:, :, 0]),
        ]
        for out, want_out in views:
            assert not out.flags.c_contiguous
            got = linear_recurrence(r, out)
            assert got is out
            assert _relative_gap(got, want_out) <= 1e-13


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


def _zero_system(scalar, monkeypatch):
    return lab.solve_are(lab.make_system([[0.0]], [[0.0]], [[0.0]]))


def _zero_tolerance(scalar, monkeypatch):
    # No input leaves the refined residual above 1e-10, so the tolerance
    # drops below the scalar system's residual of about 5.6e-17.
    monkeypatch.setattr(riccati, "_ARE_TOL", 0.0)
    return lab.solve_are(scalar[0])


def _overflowing_dre(scalar, monkeypatch):
    """solve_dre on A = 1e300, whose one-step flow overflows."""
    sys_ = lab.make_system([[1e300]], [[1.0]], [[1.0]])
    prob = lab.LqProblem(sys=sys_, horizon=1.0, target=np.ones(1), x0=np.ones(1), dt=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        return lab.solve_dre(prob)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            _zero_system, NotStabilizableError,
            re.escape("Hamiltonian has a stable invariant subspace of dimension 0, expected 1"),
        ),
        (
            _zero_tolerance, ConvergenceError,
            r"Riccati residual \S+ above tolerance 0\.0e\+00 after refinement",
        ),
        (_overflowing_dre, IntegrationError, "Riccati flow produced non-finite samples"),
    ],
    ids=["no stable subspace", "residual above tolerance", "non-finite flow"],
)
def test_failure_paths(scalar, monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(scalar, monkeypatch)
