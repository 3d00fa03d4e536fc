import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import lsim
from scipy.sparse.linalg import spsolve

import lqturnpike as lab
from lqturnpike import lq, operators
from lqturnpike.errors import (
    DimensionError,
    GridMismatchError,
    IntegrationError,
    NonFiniteError,
    ProblemSizeError,
)
from lqturnpike.lq import _nodal_adjoint, _trapezoid
from lqturnpike.verification import _null_space_margin, _sampled_cost_margins


def scalar_problem(sys_, z, x0, horizon=10.0, dt=1e-3, p0=None):
    p0 = np.zeros((1, 1)) if p0 is None else p0
    return lab.LqProblem(sys=sys_, horizon=horizon, target=z, x0=x0, p0=p0, dt=dt)


class TestProblemValidation:
    def test_step_must_divide_horizon(self, scalar):
        sys_, z, x0 = scalar
        with pytest.raises(ValueError, match="dt 0.0003 does not divide horizon 1.0"):
            scalar_problem(sys_, z, x0, horizon=1.0, dt=3e-4)

    def test_coarse_step_must_divide_horizon(self, scalar):
        # The same rule as every other grid: no silent change of step.
        sys_, z, x0 = scalar
        with pytest.raises(ValueError, match="dt 0.3 does not divide horizon 20.0"):
            scalar_problem(sys_, z, x0, horizon=20.0, dt=0.3)

    def test_horizon_and_step_must_be_positive(self, scalar):
        sys_, z, x0 = scalar
        with pytest.raises(ValueError, match="horizon must be positive, got -1.0"):
            scalar_problem(sys_, z, x0, horizon=-1.0, dt=-0.1)
        with pytest.raises(ValueError, match="dt must be positive, got 0.0"):
            scalar_problem(sys_, z, x0, horizon=1.0, dt=0.0)

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({"horizon": np.inf}, ValueError, "horizon and dt must be finite"),
            ({"dt": np.nan}, ValueError, "horizon and dt must be finite"),
            ({"target": [np.nan]}, NonFiniteError, "target contains non-finite"),
            ({"x0": [-np.inf]}, NonFiniteError, "x0 contains non-finite"),
            ({"p0": [[np.nan]]}, NonFiniteError, "p0 contains non-finite"),
            ({"p0": [[np.inf]]}, NonFiniteError, "p0 contains non-finite"),
        ],
    )
    def test_non_finite_data_refused(self, scalar, changes, error, message):
        sys_, z, x0 = scalar
        data = {"sys": sys_, "horizon": 1.0, "target": z, "x0": x0, "dt": 0.1}
        with pytest.raises(error, match=message):
            lab.LqProblem(**{**data, **changes})

    def test_terminal_cost_must_be_psd(self, scalar):
        sys_, z, x0 = scalar
        with pytest.raises(ValueError):
            scalar_problem(sys_, z, x0, p0=np.array([[-1.0]]))

    def test_memory_cap_guard(self, scalar):
        # 6e6 + 1 nodes of the 3 x 3 transcription samples: 5.4e7 doubles.
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0, horizon=6000.0, dt=1e-3)
        with pytest.raises(ProblemSizeError):
            lab.solve_transcription(prob)

    @pytest.mark.parametrize(
        "solve, size",
        [
            (lab.solve_riccati_sweep, 2),
            (lab.solve_transcription, 3),
            (lab.solve_dre, 1),
        ],
        ids=["sweep", "transcription", "dre"],
    )
    def test_sample_guard_admits_the_cap_and_refuses_one_step_more(
        self, scalar, monkeypatch, solve, size
    ):
        sys_, z, x0 = scalar
        monkeypatch.setattr(operators, "_SAMPLE_CAP", 11 * size**2)
        solve(scalar_problem(sys_, z, x0, horizon=1.0, dt=0.1))  # 11 nodes
        with pytest.raises(ProblemSizeError, match="above the cap"):
            solve(scalar_problem(sys_, z, x0, horizon=1.1, dt=0.1))

    def test_sample_guard_admits_the_long_scalar_transcription(self, scalar):
        # 2.1e6 + 1 nodes of 3 x 3 samples, 1.89e7 doubles: below the cap.
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0, horizon=2100.0, dt=1e-3)
        operators.check_sample_memory(prob.n_steps, prob.sys.n + prob.sys.m + 1)


class TestSolveTranscription:
    def test_zero_data_zero_solution(self, rand4):
        sys_, _, _ = rand4
        prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=np.zeros(4), x0=np.zeros(4),
            p0=0.2 * np.eye(4), dt=1e-2,
        )
        traj = lab.solve_transcription(prob)
        assert np.allclose(traj.x, 0.0, atol=1e-12)
        assert np.allclose(traj.u, 0.0, atol=1e-12)
        assert np.allclose(traj.y, 0.0, atol=1e-12)

    def test_turnpike_midpoint_near_steady_state(self, scalar):
        # The bracket comes from an independent fine-grid sweep oracle.
        sys_, z, x0 = scalar
        traj = lab.solve_transcription(scalar_problem(sys_, z, x0))
        oracle = lab.solve_riccati_sweep(scalar_problem(sys_, z, x0, dt=2e-4))
        mid = traj.x[len(traj.grid) // 2, 0]
        mid_oracle = oracle.x[len(oracle.grid) // 2, 0]
        assert 0.495 <= mid_oracle <= 0.505
        assert 0.495 <= mid <= 0.505
        assert abs(mid - mid_oracle) < 1e-5

    def test_cost_matches_value_function(self, scalar):
        sys_, _, _ = scalar
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=1.0)
        traj = lab.solve_transcription(prob)
        dre = lab.solve_dre(prob)
        assert abs(lab.cost(prob, traj) - dre.p_samples[0][0, 0]) <= 1e-5

    def test_optimality_law_exact_at_nodes(self, scalar):
        sys_, z, x0 = scalar
        traj = lab.solve_transcription(scalar_problem(sys_, z, x0))
        defect = np.max(np.abs(traj.u + traj.y @ sys_.b))
        assert defect <= 1e-8 * max(1.0, np.max(np.abs(traj.u)))

    def test_terminal_adjoint_condition(self, rand4):
        sys_, z, x0_ = rand4
        rng = np.random.Generator(np.random.Philox(key=2))
        x0 = rng.standard_normal(4)
        p0 = 0.5 * np.eye(4)
        prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=z, x0=x0, p0=p0, dt=1e-3
        )
        traj = lab.solve_transcription(prob)
        assert np.allclose(traj.x[0], x0, atol=1e-12)
        defect = np.linalg.norm(traj.y[-1] - p0 @ traj.x[-1])
        assert defect <= 1e-9 * max(1.0, np.linalg.norm(traj.y[-1]))

    def test_state_adjoint_relation_for_zero_target(self, scalar):
        sys_, _, _ = scalar
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=1.0)
        traj = lab.solve_transcription(prob)
        dre = lab.solve_dre(prob)
        relation = np.einsum("tij,tj->ti", dre.p_samples, traj.x)
        assert np.max(np.linalg.norm(traj.y - relation, axis=1)) <= 1e-5


def heat_problem(n, control="distributed", horizon=1.0, dt=1e-2):
    sys_, z = lab.heat_1d(n, control)
    return lab.LqProblem(
        sys=sys_, horizon=horizon, target=z, x0=np.zeros(n),
        p0=np.zeros((n, n)), dt=dt,
    )


class TestKktSystem:
    def test_exactly_symmetric_without_stored_zeros(self, rand4, kkt_system):
        sys_, z, _ = rand4
        rand_prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=z, x0=np.ones(4),
            p0=0.5 * np.eye(4), dt=1e-2,
        )
        for prob in (rand_prob, heat_problem(50, "boundary_flavored")):
            kkt, _ = kkt_system(prob)
            assert (kkt - kkt.T).count_nonzero() == 0
            assert np.all(kkt.data != 0)

    def test_nonzeros_grow_linearly_in_state_dimension(self, kkt_system):
        nnz = {
            n: kkt_system(heat_problem(n, "boundary_flavored"))[0].nnz
            for n in (50, 100)
        }
        assert nnz[100] / nnz[50] < 2.2

    def test_solution_matches_dense_solve(self, scalar, rand4, kkt_system):
        prob = heat_problem(10)
        kkt, rhs = kkt_system(prob)
        dense = np.linalg.solve(kkt.toarray(), rhs)
        traj = lab.solve_transcription(prob)
        n, m, nodes = prob.sys.n, prob.sys.m, prob.n_steps + 1
        x_dense = dense[: n * nodes].reshape(nodes, n)
        u_dense = dense[n * nodes : (n + m) * nodes].reshape(nodes, m)
        # The KKT controls are the nodal controls at interior nodes.
        for got, want in ((traj.x, x_dense), (traj.u[1:-1], u_dense[1:-1])):
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        # Larger grids against a sparse solve, through the lifted passes
        # (augmented size 3 and 7) and the stepwise ones (52); the KKT
        # multipliers mu give the adjoint through the same recovery.
        sys4, z4, _ = rand4
        x0 = np.random.Generator(np.random.Philox(key=4)).standard_normal(4)
        for prob in (
            scalar_problem(*scalar),
            lab.LqProblem(sys=sys4, horizon=2.0, target=z4, x0=x0, p0=0.5 * np.eye(4), dt=1e-3),
            heat_problem(50, "boundary_flavored", horizon=5.0),
        ):
            kkt, rhs = kkt_system(prob)
            sol = spsolve(kkt, rhs)
            traj = lab.solve_transcription(prob)
            n, m, nodes = prob.sys.n, prob.sys.m, prob.n_steps + 1
            x_kkt = sol[: n * nodes].reshape(nodes, n)
            u_kkt = sol[n * nodes : (n + m) * nodes].reshape(nodes, m)
            mu = sol[(n + m) * nodes :].reshape(nodes, n)
            y_kkt = _nodal_adjoint(prob, x_kkt, -0.5 * mu[1:])
            for got, want in ((traj.x, x_kkt), (traj.y, y_kkt), (traj.u[1:-1], u_kkt[1:-1])):
                assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_import_leaves_scipy_sparse_out():
    # A fresh interpreter, so no other test's imports count.
    src = os.path.dirname(os.path.dirname(lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, lqturnpike; print('scipy.sparse' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"


class TestSolveRiccatiSweep:
    def test_zero_target_relation_exact(self, scalar, rand4, rk4_dre):
        sys_, _, _ = scalar
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=2.0)
        traj = lab.solve_riccati_sweep(prob)
        p_samples = rk4_dre(sys_, 2.0, np.zeros((1, 1)), 2 * prob.n_steps)
        relation = np.einsum("tij,tj->ti", p_samples[::2], traj.x)
        assert np.max(np.abs(traj.y - relation)) <= 1e-13
        # The exact-step flow against the RK4 oracle at n > 1, also with P0 != 0.
        sys4, _, _ = rand4
        x0 = np.random.Generator(np.random.Philox(key=4)).standard_normal(4)
        for p0 in (np.zeros((4, 4)), 0.5 * np.eye(4)):
            prob = lab.LqProblem(
                sys=sys4, horizon=2.0, target=np.zeros(4), x0=x0, p0=p0, dt=1e-3
            )
            traj = lab.solve_riccati_sweep(prob)
            p_samples = rk4_dre(sys4, 2.0, p0, 2 * prob.n_steps)
            relation = np.einsum("tij,tj->ti", p_samples[::2], traj.x)
            assert np.max(np.abs(traj.y - relation)) <= 1e-13

    def test_agrees_with_transcription(self, scalar):
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0)
        a = lab.solve_transcription(prob)
        b = lab.solve_riccati_sweep(prob)
        assert np.max(np.abs(a.x - b.x)) <= 1e-4
        assert np.max(np.abs(a.y - b.y)) <= 1e-4
        assert np.max(np.abs(a.u - b.u)) <= 1e-4

    def test_agreement_improves_at_second_order(self, scalar):
        sys_, z, x0 = scalar
        gaps = []
        for dt in (2e-3, 1e-3):
            prob = scalar_problem(sys_, z, x0, horizon=2.0, dt=dt)
            a = lab.solve_transcription(prob)
            b = lab.solve_riccati_sweep(prob)
            gaps.append(np.max(np.abs(a.x - b.x)))
        assert gaps[0] / gaps[1] >= 3.0

    def test_agreement_on_random_system(self, rand4):
        sys_, z, _ = rand4
        rng = np.random.Generator(np.random.Philox(key=4))
        x0 = rng.standard_normal(4)
        prob = lab.LqProblem(
            sys=sys_, horizon=2.0, target=z, x0=x0, p0=np.zeros((4, 4)), dt=1e-3
        )
        a = lab.solve_transcription(prob)
        b = lab.solve_riccati_sweep(prob)
        for field in ("x", "y", "u"):
            gap = np.max(np.abs(getattr(a, field) - getattr(b, field)))
            assert gap <= 1e-4

    def test_agreement_on_heat_scenario(self):
        # The PDE-scale scenario needs a step that resolves the fast modes
        # for the stated 1e-4 agreement; the sweep itself is exact per step.
        sys_, z = lab.heat_1d(50, "distributed")
        prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=z, x0=np.zeros(50),
            p0=np.zeros((50, 50)), dt=1e-3,
        )
        a = lab.solve_transcription(prob)
        b = lab.solve_riccati_sweep(prob)
        for field in ("x", "y", "u"):
            gap = np.max(np.abs(getattr(a, field) - getattr(b, field)))
            assert gap <= 1e-4

    def test_stationary_feedback_with_are_terminal_cost(self, scalar, scalar_pipeline):
        # With p0 = P and z = 0 the sweep reduces to constant-gain feedback.
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=2.0, p0=are.p)
        traj = lab.solve_riccati_sweep(prob)
        feedback = -(traj.x @ are.p @ sys_.b)
        assert np.max(np.abs(traj.u - feedback)) <= 1e-9

    def test_zero_control_decays_freely(self):
        # With B = 0 the flow's V has width 0 at every level, and the state
        # is the free decay x = e^{-t} of A = -1 from x0 = 1.
        sys_ = lab.make_system([[-1.0]], [[0.0]], [[1.0]])
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=1.0, dt=1e-2)
        want = np.exp(-prob.grid)
        traj = lab.solve_riccati_sweep(prob)
        assert np.max(np.abs(traj.x[:, 0] - want) / want) <= 1e-13


class TestSweepPaths:
    def test_lifted_and_stepwise_agree(self, rand4, monkeypatch):
        sys4, z4, _ = rand4
        x0 = np.random.Generator(np.random.Philox(key=4)).standard_normal(4)
        zero_generator = lab.make_system(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2))
        probs = (
            lab.LqProblem(
                sys=sys4, horizon=2.0, target=z4, x0=x0, p0=0.5 * np.eye(4), dt=1e-3
            ),
            heat_problem(10),
            lab.LqProblem(
                sys=zero_generator, horizon=1.0, target=np.array([0.3, -0.2]),
                x0=np.zeros(2), p0=np.zeros((2, 2)), dt=1e-2,
            ),
        )
        for prob in probs:
            # Every state lifts under the first bound, and none under the second.
            monkeypatch.setattr(operators, "_LIFTED_SWEEP_MAX_STATE", 10**6)
            lifted = lab.solve_riccati_sweep(prob)
            monkeypatch.setattr(operators, "_LIFTED_SWEEP_MAX_STATE", 0)
            stepwise = lab.solve_riccati_sweep(prob)
            for got, want in ((lifted.x, stepwise.x), (lifted.y, stepwise.y)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _recorded_passes(monkeypatch, solve, prob):
    """``(args, result)`` of the backward and the forward pass inside one solve."""
    calls = {}
    for name in ("riccati_backward_pass", "riccati_forward_pass"):
        def spy(*args, _pass=getattr(lq, name), _name=name):
            calls[_name] = (args, _pass(*args))
            return calls[_name][1]

        monkeypatch.setattr(lq, name, spy)
    solve(prob)
    return calls["riccati_backward_pass"], calls["riccati_forward_pass"]


class TestFactoredPasses:
    @pytest.mark.parametrize(
        "solve", [lab.solve_riccati_sweep, lab.solve_transcription],
        ids=["sweep", "transcription"],
    )
    @pytest.mark.parametrize("case", ["distributed", "boundary_flavored", "rand4", "scalar"])
    def test_passes_match_the_direct_oracle(
        self, solve, case, rand4, scalar, monkeypatch, direct_passes
    ):
        # heat_1d(50) with either column walks node by node; rand4 and the
        # scalar problem are lifted, and the scalar passes solve every S in
        # closed form (width 1 on the sweep, 1 then 2 on the transcription).
        if case == "scalar":
            sys_, z, x0 = scalar
            prob = lab.LqProblem(sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3)
        elif case == "rand4":
            sys_, z, _ = rand4
            x0 = np.random.Generator(np.random.Philox(key=4)).standard_normal(4)
            prob = lab.LqProblem(
                sys=sys_, horizon=2.0, target=z, x0=x0, p0=0.5 * np.eye(4), dt=1e-3
            )
        else:
            prob = heat_problem(50, case)
        backward, forward = _recorded_passes(monkeypatch, solve, prob)
        levels, q_end = backward[0]
        (e, v, g), _, _, _ = levels[0]
        direct_backward, direct_forward = direct_passes
        unfactored = (e, v @ v.T, g)
        want_q = direct_backward(unfactored, q_end, prob.n_steps)
        want_x = direct_forward(unfactored, backward[1], forward[0][2])
        for got, want in ((backward[1], want_q), (forward[1], want_x)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, m", [(4, 2), (10, 1)])
    def test_transcription_factor_has_m_columns(self, monkeypatch, n, m):
        sys_ = lab.random_stable(n, m, 3)
        prob = lab.LqProblem(
            sys=sys_, horizon=0.1, target=np.ones(n), x0=np.zeros(n), dt=1e-2
        )
        (levels, _), _ = _recorded_passes(monkeypatch, lab.solve_transcription, prob)[0]
        assert levels[0][0][1].shape == (n + m + 1, m)


class TestPassSchedule:
    def test_each_level_is_doubled_once_per_solve(self, scalar, monkeypatch):
        # Both passes walk the levels the solve formed once, so the flow is
        # doubled once per lifted level beyond the first, plus the doublings
        # that form the one-step flow itself.
        sys_, z, x0 = scalar
        doublings = []
        double = operators.double_step_flow
        monkeypatch.setattr(
            operators, "double_step_flow", lambda *a: doublings.append(1) or double(*a)
        )
        in_step_flow = []
        step_flow = lq.riccati_step_flow

        def step_flow_spy(*args):
            before = len(doublings)
            flow = step_flow(*args)
            in_step_flow.append(len(doublings) - before)
            return flow

        monkeypatch.setattr(lq, "riccati_step_flow", step_flow_spy)
        prob = scalar_problem(sys_, z, x0)
        backward, forward = _recorded_passes(monkeypatch, lab.solve_riccati_sweep, prob)
        levels = backward[0][0]
        assert forward[0][0] is levels
        assert len(levels) == 14  # spans 1, 2, 4, ..., 8192 over N = 10,000
        assert len(doublings) == in_step_flow[0] + len(levels) - 1

    @pytest.mark.parametrize("case", ["heat_1d(50)", "rand4"])
    def test_kept_schedule_has_log2_levels(self, case, rand4, monkeypatch):
        # N = 2,000 either way: node by node at size 51, lifted at size 5.
        if case == "rand4":
            sys_, z, x0 = rand4
            prob = lab.LqProblem(sys=sys_, horizon=2.0, target=z, x0=x0, dt=1e-3)
        else:
            prob = heat_problem(50, horizon=20.0)
        backward, forward = _recorded_passes(monkeypatch, lab.solve_riccati_sweep, prob)
        levels = backward[0][0]
        assert forward[0][0] is levels
        assert levels[-1][2] == prob.n_steps + 1 == 2001
        assert len(levels) <= int(np.ceil(np.log2(prob.n_steps))) + 1


class TestExactSteps:
    def test_closed_form_quadratic_forcing(self, rand4, half_sampled_steps):
        # For w(t) = w0 + w1 t + w2 t^2 the solution is
        # e^{tA}(v0 - P0) + P0 + P1 t + P2 t^2 with P2 = -A^{-1} w2,
        # P1 = A^{-1}(2 P2 - w1) and P0 = A^{-1}(P1 - w0).
        rng = np.random.Generator(np.random.Philox(key=9))
        h, nsteps = 1e-2, 200
        times = h * np.arange(nsteps + 1)
        for a_mat in (np.array([[-1.0]]), np.array([[0.5]]), rand4[0].a):
            n = a_mat.shape[0]
            v0, w0, w1, w2 = rng.standard_normal((4, n))
            half = 0.5 * h * np.arange(2 * nsteps + 1)[:, None]
            got = half_sampled_steps(a_mat, w0 + w1 * half + w2 * half**2, v0, h, nsteps)
            p2 = -np.linalg.solve(a_mat, w2)
            p1 = np.linalg.solve(a_mat, 2.0 * p2 - w1)
            p0 = np.linalg.solve(a_mat, p1 - w0)
            want = np.array([expm(t * a_mat) @ (v0 - p0) for t in times])
            want += p0 + p1 * times[:, None] + p2 * times[:, None] ** 2
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_stiff_heat_matches_lsim(self):
        # dt = 1e-2 is far outside any explicit scheme's stability limit on
        # heat_1d(50); the exact step has none, and lsim's interp=True is
        # the same piecewise-linear control, so the two agree to rounding.
        prob = heat_problem(50)
        sys_, t = prob.sys, prob.grid
        prob = lab.LqProblem(
            sys=sys_, horizon=prob.horizon, target=prob.target,
            x0=np.random.Generator(np.random.Philox(key=10)).standard_normal(sys_.n),
            p0=prob.p0, dt=prob.dt,
        )
        u = np.stack([np.sin(2.0 * np.pi * t) + 0.5, np.cos(3.0 * t), t**2], axis=1)
        u = u[:, None, :]
        batched = lab.simulate_forward(prob, u)
        plant = (sys_.a, sys_.b, np.eye(sys_.n), np.zeros((sys_.n, sys_.m)))
        for k in range(u.shape[2]):
            _, _, want = lsim(plant, u[:, :, k], t, X0=prob.x0, interp=True)
            single = lab.simulate_forward(prob, u[:, :, k])
            for got in (batched[:, :, k], single):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_unstable_generator_raises(self):
        # x = e^{50 t} passes the blow-up limit well before T = 1.
        sys_ = lab.make_system([[50.0]], [[1.0]], [[1.0]])
        prob = lab.LqProblem(
            sys=sys_, horizon=1.0, target=np.zeros(1), x0=np.ones(1),
            p0=np.zeros((1, 1)), dt=1e-2,
        )
        zeros = np.zeros((prob.n_steps + 1, 1))
        with pytest.raises(IntegrationError, match="blow-up limit"):
            lab.simulate_forward(prob, zeros)
        forward = (np.ones(1), zeros, zeros, np.zeros((1, 1)))
        with pytest.raises(IntegrationError, match="forward integration diverged.*blow-up limit"):
            lab.duality_residual(sys_, forward, (np.zeros(1), zeros), prob.horizon, prob.dt)

    def test_unstable_resolved_generator_integrates(self):
        sys_ = lab.make_system([[0.5]], [[1.0]], [[1.0]])
        prob = lab.LqProblem(
            sys=sys_, horizon=2.0, target=np.zeros(1), x0=np.ones(1),
            p0=np.zeros((1, 1)), dt=1e-2,
        )
        got = lab.simulate_forward(prob, np.zeros((prob.n_steps + 1, 1)))
        want = np.exp(0.5 * prob.grid)
        assert np.max(np.abs(got[:, 0] - want) / want) <= 1e-10


def _refine(values, factor):
    """Samples of nodal data, linear between nodes, at 1/factor of the spacing."""
    w = (np.arange(factor) / factor).reshape((1, factor) + (1,) * (values.ndim - 1))
    inner = (1.0 - w) * values[:-1, None] + w * values[1:, None]
    return np.concatenate([inner.reshape((-1,) + values.shape[1:]), values[-1:]])


class TestSimulateForward:
    # The nodal integrators take one exact step per node interval; the
    # reference steps the conftest oracle through forcing sampled on the
    # quarter grid (half steps) or the half grid (whole steps).
    def _problems(self, scalar, rand4):
        sys_, z, x0 = scalar
        sys4, z4, _ = rand4
        x0_4 = np.random.Generator(np.random.Philox(key=12)).standard_normal(4)
        return (
            scalar_problem(sys_, z, x0, horizon=2.0),
            lab.LqProblem(sys=sys4, horizon=2.0, target=z4, x0=x0_4, p0=np.eye(4), dt=1e-3),
        )

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matches_half_step_reference(self, scalar, rand4, half_sampled_steps):
        rng = np.random.Generator(np.random.Philox(key=11))
        for prob in self._problems(scalar, rand4):
            self._check_state(prob, rng, half_sampled_steps)
            self._check_duality_residual(prob, rng, half_sampled_steps)

    def _check_state(self, prob, rng, half_sampled_steps):
        sys_, nodes, dt = prob.sys, prob.n_steps + 1, prob.dt
        u = rng.standard_normal((nodes, sys_.m, 3))
        forcing = np.einsum("ij,tjb->tib", sys_.b, _refine(u, 4))
        x0 = np.repeat(prob.x0[:, None], 3, axis=1)
        want = half_sampled_steps(sys_.a, forcing, x0, 0.5 * dt, 2 * prob.n_steps)
        self._close(lab.simulate_forward(prob, u), want[::2])
        self._close(lab.simulate_forward(prob, u[:, :, 0]), want[::2, :, 0])

    def _check_duality_residual(self, prob, rng, half_sampled_steps):
        sys_, nodes, dt, n = prob.sys, prob.n_steps + 1, prob.dt, prob.sys.n
        y0, z_t = rng.standard_normal(n), rng.standard_normal(n)
        f, g = rng.standard_normal((nodes, n)), rng.standard_normal((nodes, n))
        u = rng.standard_normal((nodes, sys_.m))
        m_op = 0.3 * rng.standard_normal((n, n))
        got = lab.duality_residual(sys_, (y0, f, u, m_op), (z_t, g), prob.horizon, dt)
        y = half_sampled_steps(sys_.a + m_op, _refine(f + u @ sys_.b.T, 2), y0, dt, prob.n_steps)
        z = half_sampled_steps(sys_.a.T, _refine(g, 2)[::-1], z_t, dt, prob.n_steps)[::-1]
        terms = np.array([
            y[-1] @ z_t,
            -(y0 @ z[0]),
            -_trapezoid(np.sum(u * (z @ sys_.b), axis=1), dt),
            _trapezoid(np.sum(y * g, axis=1), dt),
            -_trapezoid(np.sum(f * z, axis=1), dt),
            -_trapezoid(np.sum((y @ m_op.T) * z, axis=1), dt),
        ])
        # The residual cancels its terms, so compare on their scale.
        assert abs(got - abs(np.sum(terms))) <= 1e-13 * np.sum(np.abs(terms))

    def test_consistency_with_transcription(self, scalar):
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0, horizon=2.0)
        traj = lab.solve_transcription(prob)
        x = lab.simulate_forward(prob, traj.u)
        assert np.max(np.abs(x - traj.x)) <= 1e-6

    def test_second_order_against_sweep(self, scalar, rand4):
        # The sweep is exact in time, so the gaps are the error of reading
        # the sweep's controls as piecewise linear.
        sys4, z4, _ = rand4
        for sys_, z, x0 in (scalar, (sys4, z4, np.ones(4))):
            gaps = []
            for dt in (1e-2, 5e-3):
                prob = lab.LqProblem(
                    sys=sys_, horizon=5.0, target=z, x0=x0, p0=np.eye(sys_.n), dt=dt
                )
                sweep = lab.solve_riccati_sweep(prob)
                gaps.append(np.max(np.abs(lab.simulate_forward(prob, sweep.u) - sweep.x)))
            coarse, fine = gaps
            assert coarse <= 1e-4
            assert coarse >= 3.0 * fine


class TestCost:
    def test_zero_trajectory(self, scalar):
        sys_, _, _ = scalar
        prob = scalar_problem(sys_, np.zeros(1), np.zeros(1), horizon=1.0)
        traj = lab.solve_transcription(prob)
        assert lab.cost(prob, traj) <= 1e-20

    def test_constant_integrand(self, scalar):
        sys_, z, _ = scalar
        prob = scalar_problem(sys_, z, np.zeros(1))
        n_nodes = prob.n_steps + 1
        zero_traj = lab.Trajectory(
            grid=prob.grid,
            x=np.zeros((n_nodes, 1)),
            y=np.zeros((n_nodes, 1)),
            u=np.zeros((n_nodes, 1)),
            method="transcription",
        )
        assert abs(lab.cost(prob, zero_traj) - 10.0) <= 1e-12

    def test_optimal_beats_constant_comparison(self, scalar):
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0)
        traj = lab.solve_transcription(prob)
        value = lab.cost(prob, traj)
        stationary_rate = 0.25 + 0.25  # |C x_bar - z|^2 + |u_bar|^2
        assert value < 10.0
        assert value < 10.0 * stationary_rate + 1.0  # margin for the layers

    def test_grid_mismatch_rejected(self, scalar):
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0, horizon=1.0)
        other = scalar_problem(sys_, z, x0, horizon=2.0)
        traj = lab.solve_transcription(other)
        with pytest.raises(GridMismatchError):
            lab.cost(prob, traj)
        with pytest.raises(GridMismatchError):
            lab.simulate_forward(prob, np.zeros(prob.n_steps + 1))

    def test_parallelogram_minimality_and_curvature(self, scalar):
        # Perturbed costs exceed the optimum, and the quadratic-in-epsilon
        # profile has nonnegative curvature, for 100 random directions.
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0)
        traj = lab.solve_transcription(prob)
        base = lab.cost(prob, traj)
        rng = np.random.Generator(np.random.Philox(key=55))
        v = rng.standard_normal((prob.n_steps + 1, 1, 100))
        costs = {}
        for eps in (0.1, -0.1, 0.01, -0.01):
            u_pert = np.asarray(traj.u)[:, :, None] + eps * v
            x_pert = lab.simulate_forward(prob, u_pert)
            dev = x_pert - prob.target[None, :, None]
            running = np.sum(dev * dev, axis=1) + np.sum(u_pert * u_pert, axis=1)
            costs[eps] = prob.dt * (
                np.sum(running, axis=0) - 0.5 * (running[0] + running[-1])
            )
            assert np.min(costs[eps] - base) >= -1e-12
        curvature = costs[0.1] + costs[-0.1] - 2.0 * base
        assert np.min(curvature) >= 0.0
        curvature_small = costs[0.01] + costs[-0.01] - 2.0 * base
        assert np.min(curvature_small) >= 0.0


def _direct_cost_margins(prob, traj, v, eps_values):
    """One forward solve per eps and one ``cost`` call per sampled path."""
    base = lab.cost(prob, traj)
    margins = np.empty((len(eps_values), v.shape[2]))
    for row, eps in zip(margins, eps_values):
        u_pert = np.asarray(traj.u)[:, :, None] + eps * v
        x_pert = lab.simulate_forward(prob, u_pert)
        for k in range(v.shape[2]):
            path = lab.Trajectory(
                grid=prob.grid, x=x_pert[:, :, k], y=x_pert[:, :, k],
                u=u_pert[:, :, k], method="direct",
            )
            row[k] = lab.cost(prob, path) - base
    return margins


def _peak_units(call, unit):
    """Peak traced memory while ``call`` runs, above what it started with."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - held) / unit
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestSampledCostMargins:
    # Criterion 11 reads every sampled cost change off the cost's exact
    # quadratic expansion around one batched forward solve; it must match
    # solving and costing each perturbation directly.
    EPS = (0.1, -0.1, 0.01, -0.01)

    def _compare(self, prob, v):
        traj = lab.solve_transcription(prob)
        fast = _sampled_cost_margins(prob, traj, v, self.EPS)
        direct = _direct_cost_margins(prob, traj, v, self.EPS)
        assert fast.shape == direct.shape == (len(self.EPS), v.shape[2])
        assert np.max(np.abs(fast - direct)) <= 1e-12

    def test_scalar_criterion_data(self, scalar):
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0)
        rng = np.random.Generator(np.random.Philox(key=103))
        self._compare(prob, rng.standard_normal((prob.n_steps + 1, 1, 100)))

    def test_rand4_with_terminal_cost(self, rand4):
        sys_, z, x0 = rand4
        prob = lab.LqProblem(
            sys=sys_, horizon=2.0, target=z, x0=x0, p0=np.eye(4), dt=1e-3
        )
        rng = np.random.Generator(np.random.Philox(key=104))
        self._compare(prob, rng.standard_normal((prob.n_steps + 1, 2, 20)))

    def test_peak_memory_in_batch_units(self, scalar):
        # Criterion 11's data: 101 control columns on N = 10,000 steps.
        # Peaks are counted in units of one (N + 1) x 101 float64 array.
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0)
        traj = lab.solve_transcription(prob)
        rng = np.random.Generator(np.random.Philox(key=103))
        v = rng.standard_normal((prob.n_steps + 1, 1, 100))
        cols = np.concatenate([traj.u[:, :, None], traj.u[:, :, None] + v], axis=2)
        unit = cols.nbytes
        assert _peak_units(lambda: lab.simulate_forward(prob, cols), unit) <= 4.0
        assert _peak_units(lambda: _sampled_cost_margins(prob, traj, v, self.EPS), unit) <= 6.0

    def test_walker_works_in_place(self, scalar):
        # Criterion 11's batch: the walker returns its own buffer and holds
        # only blocks of about sqrt(N) nodes besides it.
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0)
        out = np.random.Generator(np.random.Philox(key=105)).standard_normal(
            (prob.n_steps + 1, 1, 101)
        )
        walked = []
        peak = _peak_units(
            lambda: walked.append(operators.linear_recurrence(expm(prob.dt * sys_.a), out)),
            out.nbytes,
        )
        assert walked[0] is out
        assert peak <= 0.1

    def test_shifted_control_gives_a_negative_margin(self, scalar):
        # Criterion 11's scalar data around a control that is not optimal.
        # The directions are white noise at the nodes, so they pair only
        # weakly with a smooth shift, while eps^2 |v|^2 costs about 1e-3 at
        # eps = 0.01; a shift of amplitude 0.1 still leaves every margin
        # positive.  At 0.5 the first-order gain wins in some direction.
        sys_, z, x0 = scalar
        prob = scalar_problem(sys_, z, x0)
        traj = lab.solve_transcription(prob)
        u = traj.u + 0.5 * np.sin(np.pi * prob.grid / prob.horizon)[:, None]
        shifted = replace(traj, x=lab.simulate_forward(prob, u), u=u)
        rng = np.random.Generator(np.random.Philox(key=103))
        v = rng.standard_normal((prob.n_steps + 1, 1, 100))
        assert np.min(_sampled_cost_margins(prob, shifted, v, self.EPS)) < -1e-12

    def test_null_space_margin_matches_a_sample_loop(self, scalar, rand4):
        # Criterion 11's stationary cases, costed one drawn move at a time.
        for (sys_, z, _), seed in ((scalar, 101), (rand4, 102)):
            stat = lab.solve_stationary(sys_, z)
            _, sv, vt = np.linalg.svd(np.hstack([sys_.a, sys_.b]))
            basis = vt[int(np.sum(sv > 1e-12 * sv[0])):]
            base = np.sum((sys_.c @ stat.x_bar - z) ** 2) + np.sum(stat.u_bar**2)
            rng = np.random.Generator(np.random.Philox(key=seed))
            changes = []
            for _ in range(100):
                delta = rng.standard_normal(basis.shape[0]) @ basis
                x_p, u_p = stat.x_bar + delta[: sys_.n], stat.u_bar + delta[sys_.n :]
                changes.append(np.sum((sys_.c @ x_p - z) ** 2) + np.sum(u_p**2) - base)
            fast = _null_space_margin(sys_, z, stat, 100, seed)
            assert abs(fast - min(changes)) <= 1e-12

    def test_moved_stationary_triple_gives_a_negative_margin(self, scalar, scalar_pipeline):
        # (1, 1)/sqrt(2) spans ker [A B] = ker [-1, 1]: the moved pair stays
        # feasible but no longer minimizes, and sampling finds a cheaper one.
        sys_, z, _ = scalar
        stat, _ = scalar_pipeline
        step = 0.5 / np.sqrt(2.0)
        moved = replace(stat, x_bar=stat.x_bar + step, u_bar=stat.u_bar + step)
        assert _null_space_margin(sys_, z, moved, 100, seed=101) < -1e-12


class TestDualityResidual:
    def test_pure_semigroup_adjoint_identity(self, rand4):
        sys_, _, _ = rand4
        rng = np.random.Generator(np.random.Philox(key=8))
        y0 = rng.standard_normal(4)
        z_t = rng.standard_normal(4)
        n_nodes = 1001
        zeros_n = np.zeros((n_nodes, 4))
        zeros_m = np.zeros((n_nodes, 2))
        res = lab.duality_residual(
            sys_, (y0, zeros_n, zeros_m, np.zeros((4, 4))), (z_t, zeros_n), 1.0, 1e-3
        )
        assert res <= 1e-10

    def test_negative_horizon_and_step_rejected(self, scalar):
        # T / dt is a whole positive count here, but the grid runs backward.
        sys_, _, _ = scalar
        zeros = np.zeros((11, 1))
        with pytest.raises(ValueError, match="horizon must be positive, got -1.0"):
            lab.duality_residual(
                sys_, (np.ones(1), zeros, zeros, np.zeros((1, 1))), (np.ones(1), zeros),
                -1.0, -0.1,
            )

    def test_second_order_in_dt(self, scalar):
        sys_, _, _ = scalar
        residuals = {}
        for dt in (1e-3, 5e-4):
            grid = np.linspace(0.0, 1.0, int(round(1.0 / dt)) + 1)
            rel = grid / grid[-1]
            f = np.stack([np.sin(np.pi * rel) + 0.3 * np.cos(3 * np.pi * rel)], axis=1)
            u = np.stack([np.cos(2 * np.pi * rel)], axis=1)
            g = np.stack([0.5 * np.sin(2 * np.pi * rel)], axis=1)
            residuals[dt] = lab.duality_residual(
                sys_,
                (np.array([0.7]), f, u, np.array([[0.2]])),
                (np.array([-0.4]), g),
                1.0,
                dt,
            )
        assert residuals[1e-3] <= 1e-6
        ratio = residuals[1e-3] / residuals[5e-4]
        assert 3.0 <= ratio <= 5.0

    def test_reproduces_energy_pairing_for_deviations(self, scalar, scalar_pipeline):
        # Forward data: the deviation system x - x_bar driven by u - u_bar;
        # backward data: the adjoint deviation.  The identity then reduces
        # to the energy pairing, so the residual is pure quadrature error.
        sys_, z, x0 = scalar
        stat, _ = scalar_pipeline
        prob = scalar_problem(sys_, z, x0)
        traj = lab.solve_transcription(prob)
        n_nodes = prob.n_steps + 1
        xi0 = x0 - stat.x_bar
        eta_t = traj.y[-1] - stat.y_bar
        u_dev = np.asarray(traj.u) - stat.u_bar
        g = (np.asarray(traj.x) - stat.x_bar) @ (sys_.c.T @ sys_.c).T
        res = lab.duality_residual(
            sys_,
            (xi0, np.zeros((n_nodes, 1)), u_dev, np.zeros((1, 1))),
            (eta_t, g),
            prob.horizon,
            prob.dt,
        )
        assert res <= 1e-5


class TestInfiniteHorizon:
    def test_zero_state(self, scalar):
        sys_, _, _ = scalar
        traj = lab.solve_infinite_horizon(
            scalar_problem(sys_, np.zeros(1), np.zeros(1), horizon=5.0)
        )
        assert np.allclose(traj.x, 0.0, atol=0.0)
        assert traj.method == "closed-loop"

    def test_zero_state_costs_zero(self, scalar):
        sys_, _, _ = scalar
        prob = scalar_problem(sys_, np.zeros(1), np.zeros(1), horizon=12.0)
        assert lab.cost(prob, lab.solve_infinite_horizon(prob)) == 0.0

    def test_scalar_closed_loop_exponential(self, scalar):
        sys_, _, _ = scalar
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=5.0)
        traj = lab.solve_infinite_horizon(prob)
        for t_check in (0.5, 1.0, 2.0):
            idx = int(round(t_check / 1e-3))
            assert abs(traj.x[idx, 0] - np.exp(-np.sqrt(2.0) * t_check)) <= 1e-8

    def test_cost_matches_value_operator(self, scalar, scalar_pipeline):
        # <P x0, x0> is the optimal infinite-horizon cost.
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=20.0)
        assert abs(lab.cost(prob, lab.solve_infinite_horizon(prob)) - are.p[0, 0]) <= 1e-6

    def test_scalar_cost_matches_quadrature(self, scalar, scalar_pipeline):
        # For the scalar system P = sqrt(2) - 1, and the tail beyond
        # T = 12 is below 1e-14.
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        assert abs(are.p[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-10
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=12.0)
        value = lab.cost(prob, lab.solve_infinite_horizon(prob))
        assert abs(value - (np.sqrt(2.0) - 1.0)) <= 1e-6

    def test_quadratic_homogeneity(self, scalar):
        sys_, _, _ = scalar
        costs = []
        for scale in (1.0, 2.0):
            prob = scalar_problem(sys_, np.zeros(1), scale * np.ones(1), horizon=12.0)
            costs.append(lab.cost(prob, lab.solve_infinite_horizon(prob)))
        assert abs(costs[1] - 4.0 * costs[0]) <= 1e-9

    def test_decay_envelope(self, scalar, scalar_pipeline):
        sys_, _, _ = scalar
        _, are = scalar_pipeline
        lam = -are.closed_loop_abscissa
        prob = scalar_problem(sys_, np.zeros(1), np.ones(1), horizon=10.0)
        traj = lab.solve_infinite_horizon(prob)
        envelope = np.exp(-lam * traj.grid)
        assert np.all(np.abs(traj.x[:, 0]) <= envelope * (1.0 + 1e-9))

    def test_target_shifts_to_the_stationary_pair(self, scalar):
        # z = 1: (x_bar, y_bar) = (1/2, -1/2), so from x0 = 0 the closed
        # loop is x = (1 - e^{-sqrt(2) t}) / 2 and y = -1/2 + P (x - 1/2).
        sys_, z, _ = scalar
        traj = lab.solve_infinite_horizon(
            scalar_problem(sys_, z, np.zeros(1), horizon=5.0)
        )
        x_exact = 0.5 * (1.0 - np.exp(-np.sqrt(2.0) * traj.grid))
        y_exact = -0.5 + (np.sqrt(2.0) - 1.0) * (x_exact - 0.5)
        assert np.max(np.abs(traj.x[:, 0] - x_exact)) <= 1e-8
        assert np.max(np.abs(traj.y[:, 0] - y_exact)) <= 1e-8
        assert np.array_equal(traj.u, -traj.y)


def _unit_problem(sys_, p0):
    zeros = np.zeros(sys_.n)
    return lab.LqProblem(sys=sys_, horizon=1.0, target=zeros, x0=zeros, dt=0.1, p0=p0)


def _off_grid_duality(sys_):
    """The duality residual of the scalar system with f one node short of the grid."""
    zeros = np.zeros((11, 1))
    forward = (np.ones(1), zeros[:10], zeros, np.zeros((1, 1)))
    return lab.duality_residual(sys_, forward, (np.ones(1), zeros), 1.0, 0.1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda sys1, sys4: _unit_problem(sys1, np.eye(2)),
            DimensionError, "p0 must be 1 x 1, got shape (2, 2)",
        ),
        (
            lambda sys1, sys4: _unit_problem(sys4, np.triu(np.ones((4, 4)))),
            ValueError, "p0 must be symmetric",
        ),
        (
            lambda sys1, sys4: _off_grid_duality(sys1),
            GridMismatchError, "f must have shape (11, 1), got (10, 1)",
        ),
    ],
    ids=["p0 shape", "asymmetric p0", "f off the grid"],
)
def test_problem_data_checks(scalar, rand4, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(scalar[0], rand4[0])


def test_non_finite_trajectory_is_refused():
    # The sweep's Riccati flow overflows on A = 1e300, and the trajectory
    # it would return is refused rather than locked.
    sys_ = lab.make_system([[1e300]], [[1.0]], [[1.0]])
    prob = lab.LqProblem(sys=sys_, horizon=1.0, target=np.ones(1), x0=np.ones(1), dt=0.1)
    message = "riccati-sweep produced non-finite values"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=re.escape(message)):
            lab.solve_riccati_sweep(prob)
