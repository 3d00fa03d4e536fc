import math
import re

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

import lqturnpike as lab
from lqturnpike.errors import DimensionError, IntegrationError, NonFiniteError, ResolventError
from lqturnpike.operators import _RANK_TOL, _solve_small, riccati_step_flow


class TestMakeSystem:
    def test_smallest_admissible_system(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        assert sys_.n == 1 and sys_.m == 1

    def test_two_by_two_validates(self):
        sys_ = lab.make_system(
            [[-1.0, 0.5], [0.0, -2.0]], [[1.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]]
        )
        assert sys_.n == 2 and sys_.m == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            lab.make_system(np.eye(2), np.ones((3, 1)), np.eye(2))

    def test_rectangular_c_rejected(self):
        with pytest.raises(DimensionError):
            lab.make_system(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            lab.make_system([[np.nan]], [[1.0]], [[1.0]])

    def test_matrices_are_immutable(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            sys_.a[0, 0] = 0.0


def _flow_semigroup(a, t):
    """The E block of the Riccati flow of (A, 0, 0) over t, which is e^{tA}."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    e, v, g = riccati_step_flow(a, np.zeros((n, 1)), np.zeros((n, n)), t)
    assert v.shape == (n, 0) and not np.any(g)
    return e


class TestSemigroup:
    def test_identity_at_zero(self):
        assert np.allclose(_flow_semigroup([[-1.0]], 0.0), np.eye(1), atol=0.0)

    def test_scalar_exponential(self):
        # Oracle: the scalar exponential evaluated independently.
        assert abs(_flow_semigroup([[-1.0]], 1.0)[0, 0] - math.exp(-1.0)) < 1e-9

    def test_nilpotent_closed_form(self):
        # Oracle: truncated power series, exact for a nilpotent generator.
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        series = np.eye(2) + a + 0.5 * (a @ a)
        expected = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(series, expected, atol=0.0)
        assert np.allclose(_flow_semigroup(a, 1.0), expected, atol=1e-12)

    def test_semigroup_law_on_random_systems(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(10):
            a = lab.random_stable(4, 2, int(rng.integers(0, 2**32))).a
            s, t = rng.uniform(0.0, 2.0, size=2)
            whole = _flow_semigroup(a, s + t)
            split = _flow_semigroup(a, s) @ _flow_semigroup(a, t)
            assert np.linalg.norm(whole - split) <= 1e-9 * np.linalg.norm(whole)


class TestStepFlowFactor:
    def test_factor_reproduces_the_whole_step_w(self, rand4):
        # Oracle: one exponential of the Hamiltonian over the whole step
        # gives W = Psi11^{-1} Psi12 without doubling.
        sys_, _, _ = rand4
        dt = 0.5
        ham = np.block([[sys_.a, -sys_.b @ sys_.b.T], [-sys_.c.T @ sys_.c, -sys_.a.T]])
        assert 2.0 * dt * np.linalg.norm(ham, 1) > 1.0  # so the flow is doubled
        psi = expm(-dt * ham)
        w = np.linalg.solve(psi[:4, :4], psi[:4, 4:])
        _, v, _ = riccati_step_flow(sys_.a, sys_.b, sys_.c, dt)
        assert v.shape[0] == 4 and v.shape[1] <= 4
        assert np.linalg.norm(v @ v.T - w) <= 1e-12 * np.linalg.norm(w)

    @pytest.mark.parametrize("control", ["distributed", "boundary_flavored"])
    def test_stiff_factor_is_no_wider_than_the_state(self, control):
        sys_, _ = lab.heat_1d(50, control)
        _, v, _ = riccati_step_flow(sys_.a, sys_.b, sys_.c, 1e-2)
        assert v.shape[0] == 50 and 1 <= v.shape[1] <= 50


def _pass_like_s(r, count, k):
    """``count`` matrices S = I + V* Q V, formed as the passes form them, and rhs.

    Q is positive semidefinite, so each S is symmetric positive definite,
    though the product leaves it symmetric only up to rounding.
    """
    rng = np.random.Generator(np.random.Philox(key=30 + r))
    v = rng.standard_normal((count, 3, r))
    root = rng.standard_normal((count, 3, 3))
    s = np.eye(r) + v.swapaxes(1, 2) @ (root @ root.swapaxes(1, 2)) @ v
    return s, rng.standard_normal((count, r, k))


class TestSolveSmall:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("r", [1, 2])
    def test_closed_forms_match_lapack(self, r, k):
        s, rhs = _pass_like_s(r, 4096, k)
        asymmetric = np.any(s != s.swapaxes(1, 2), axis=(1, 2))
        assert r == 1 or np.any(asymmetric)
        single = int(np.argmax(asymmetric))
        for s_, rhs_ in ((s, rhs), (s[single], rhs[single])):
            want = np.linalg.solve(s_, rhs_)
            err = np.max(np.abs(_solve_small(s_, rhs_) - want), axis=(-2, -1))
            assert np.all(err <= 1e-14 * np.max(np.abs(want), axis=(-2, -1)))

    def test_wider_s_is_lapack_bit_for_bit(self):
        s, rhs = _pass_like_s(3, 64, 2)
        assert np.array_equal(_solve_small(s, rhs), np.linalg.solve(s, rhs))
        assert np.array_equal(_solve_small(s[0], rhs[0]), np.linalg.solve(s[0], rhs[0]))


class TestYosida:
    def test_scalar_by_hand(self):
        # Oracle: k (k - a)^-1 = k / (k + 1) for a = -1.
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        assert abs(lab.yosida(sys_, 1.0)[0, 0] - 0.5) < 1e-15

    def test_scalar_resolvent_formula_large_k(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        assert abs(lab.yosida(sys_, 1000.0)[0, 0] - 1000.0 / 1001.0) < 1e-12

    def test_zero_generator_gives_identity(self):
        sys_ = lab.make_system(np.zeros((3, 3)), np.ones((3, 1)), np.eye(3))
        assert np.allclose(lab.yosida(sys_, 7.5), np.eye(3), atol=1e-14)

    def test_invalid_k_rejected(self):
        sys_ = lab.make_system([[2.0]], [[1.0]], [[1.0]])
        with pytest.raises(ResolventError):
            lab.yosida(sys_, 2.0)  # equals the spectral abscissa
        with pytest.raises(ResolventError):
            lab.yosida(sys_, -1.0)

    def test_consistency_under_k_doubling(self):
        # ||J_k x - x|| nonincreasing after the first term, small at k = 2^14.
        for seed in (1, 2):
            sys_ = lab.random_stable(4, 2, seed)
            rng = np.random.Generator(np.random.Philox(key=seed))
            x = rng.standard_normal(4)
            errs = [
                np.linalg.norm(lab.yosida(sys_, 2.0**j) @ x - x) for j in range(1, 15)
            ]
            assert all(b <= a + 1e-15 for a, b in zip(errs[1:], errs[2:]))
            assert errs[-1] <= 1e-3 * np.linalg.norm(x)

    # The approximate control operator B_k = J_k B is yosida_system(sys, k).b.

    def test_approx_control_operator_scalar(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        assert abs(lab.yosida_system(sys_, 1.0).b[0, 0] - 0.5) < 1e-15

    def test_approx_control_operator_zero_generator(self):
        b = np.array([[2.0], [3.0]])
        sys_ = lab.make_system(np.zeros((2, 2)), b, np.eye(2))
        assert np.allclose(lab.yosida_system(sys_, 4.0).b, b, atol=1e-14)

    def test_approx_control_operator_monotone_scalar(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        vals = [lab.yosida_system(sys_, k).b[0, 0] for k in (10, 100, 1000)]
        assert vals[0] < vals[1] < vals[2] < 1.0

    def test_yosida_system_keeps_a_and_c(self, rand4):
        sys_, _, _ = rand4
        approx = lab.yosida_system(sys_, 8.0)
        assert np.array_equal(approx.a, sys_.a) and np.array_equal(approx.c, sys_.c)
        assert np.array_equal(approx.b, lab.yosida(sys_, 8.0) @ sys_.b)

    @pytest.mark.parametrize("control", ["distributed", "boundary_flavored"])
    def test_admissibility_constant_rises_to_the_exact_one(self, control):
        # A is symmetric, so J_k is a contraction that commutes with the
        # semigroup, and the (A*, B_k*) Gramian J_k G J_k grows with k
        # towards the exact Gramian G.
        sys_, _ = lab.heat_1d(50, control)
        consts = [
            lab.check_hypotheses(lab.yosida_system(sys_, 10.0**j)).obs_astar_bstar_max
            for j in range(1, 6)
        ]
        exact = lab.check_hypotheses(sys_).obs_astar_bstar_max
        assert all(a < b for a, b in zip(consts, consts[1:]))
        assert consts[-1] < exact


class TestObservabilityGramian:
    def test_zero_generator_unit_weight(self):
        gram = lab.observability_gramian((np.zeros((1, 1)), np.eye(1)), 1.0)
        assert abs(gram[0, 0] - 1.0) < 1e-10

    def test_scalar_closed_form(self):
        # Oracle: integral of e^{-2t} over [0, 1] in closed form.
        gram = lab.observability_gramian((np.array([[-1.0]]), np.eye(1)), 1.0)
        assert abs(gram[0, 0] - (1.0 - math.exp(-2.0)) / 2.0) < 1e-8

    def test_zero_observation(self):
        gram = lab.observability_gramian((np.eye(2) * -1.0, np.zeros((2, 2))), 1.0)
        assert np.allclose(gram, 0.0, atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lab.observability_gramian((np.eye(2), np.eye(2)), -1.0)

    def test_no_control_leaves_an_empty_factor(self, rand4):
        # W = 0, so the Gramian is the flow's G block as it was before W
        # was factored.
        sys_, _, _ = rand4
        _, v, g = riccati_step_flow(sys_.a, np.zeros((4, 1)), sys_.c, 1.0)
        assert v.shape == (4, 0)
        gram = lab.observability_gramian((sys_.a, sys_.c), 1.0)
        assert np.array_equal(gram, 0.5 * (g + g.T))

    def test_stiff_heat_matches_lyapunov_route(self):
        # Independent route: for the stable heat generator the Gramian on
        # [0, t0] is W - e^{t0 M*} W e^{t0 M}, with W the Lyapunov solution
        # of M*W + WM + N*N = 0.
        sys_, _ = lab.heat_1d(50, "boundary_flavored")
        for m_op, n_op in ((sys_.a, sys_.c), (sys_.a.T, sys_.b.T)):
            w_inf = solve_continuous_lyapunov(m_op.T, -n_op.T @ n_op)
            flow = expm(m_op)
            reference = w_inf - flow.T @ w_inf @ flow
            gram = lab.observability_gramian((m_op, n_op), 1.0)
            rel = np.linalg.norm(gram - reference) / np.linalg.norm(reference)
            assert rel <= 1e-10


class TestCheckHypotheses:
    def test_scalar_all_pass(self, scalar):
        sys_, _, _ = scalar
        report = lab.check_hypotheses(sys_)
        assert report.satisfied and report.stabilizable
        assert report.obs_astar_bstar > 0
        assert abs(report.delta - 1.0) < 1e-14

    def test_shared_kernel_detected(self):
        # A = 0, B = 1 is stabilizable, so the shared kernel of A and C = 0
        # shows as coercivity failing outright.
        sys_ = lab.make_system([[0.0]], [[1.0]], [[0.0]])
        report = lab.check_hypotheses(sys_)
        assert report.stabilizable
        assert report.delta == 0.0
        assert not report.satisfied

    def test_delta_of_scaled_identity(self):
        sys_ = lab.make_system(-np.eye(2), np.ones((2, 1)), 2.0 * np.eye(2))
        assert abs(lab.check_hypotheses(sys_).delta - 4.0) < 1e-12

    @pytest.mark.parametrize("c", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [1.0, 0.0]]])
    def test_rank_deficient_observation_fails_coercivity(self, c):
        # (A, B) is stabilizable, but C has rank 1: delta sits at the
        # rounding floor of C's scale (1.1e-32 for the first C, exactly 0
        # for the second).
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        report = lab.check_hypotheses(lab.make_system(a, np.eye(2), c))
        assert report.stabilizable
        assert report.delta <= _RANK_TOL * report.delta_max
        assert not report.satisfied

    def test_random_stable_seed42_passes(self):
        report = lab.check_hypotheses(lab.random_stable(4, 2, 42))
        assert report.satisfied

    def test_overflowing_gramian_is_a_typed_error(self):
        # e^{2000} passes the double range; the report does not hold NaN.
        sys_ = lab.make_system([[1000.0]], [[1.0]], [[1.0]])
        with pytest.raises(IntegrationError, match="Riccati flow produced non-finite"):
            lab.check_hypotheses(sys_)

    @pytest.mark.parametrize(
        "gap, low, high",
        [(1e-8, -1e-15, 1e-15), (1e-3, 1e-8, 3e-8)],
        ids=["gap 1e-8", "gap 1e-3"],
    )
    def test_gramian_margin_relative_to_its_scale(self, gap, low, high):
        # Two nearly equal modes driven by one input.  At gap 1e-8 the
        # (A*, B*) Gramian is singular up to rounding: its smallest over
        # largest eigenvalue reads 3e-17.  At gap 1e-3 the ratio is 1.7e-8.
        # Exact controllability is reported, not required, so both pass.
        sys_ = lab.make_system(np.diag([-1.0, -1.0 - gap]), np.ones((2, 1)), np.eye(2))
        report = lab.check_hypotheses(sys_)
        assert low < report.obs_astar_bstar / report.obs_astar_bstar_max < high
        assert report.satisfied

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[-1.0]], [[1.0]]),
            (np.diag([1.0, -1.0]), [[1.0], [0.0]]),
            (np.diag([1.0, -1.0]), [[0.0], [1.0]]),
            (np.zeros((2, 2)), [[1.0], [1.0]]),
            (np.zeros((2, 2)), np.eye(2)),
            ([[1.0, 1.0], [0.0, 1.0]], [[1.0], [0.0]]),
            ([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]]),
            ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]]),
            (np.diag([-1.0, -1.0 - 1e-8]), [[1.0], [1.0]]),
        ],
        ids=[
            "stable scalar", "unstable mode driven", "unstable mode undriven",
            "double zero, one input", "double zero, two inputs",
            "unstable Jordan block, head driven", "unstable Jordan block, tail driven",
            "driven oscillator", "near-equal stable modes",
        ],
    )
    def test_satisfied_iff_the_are_solves(self, a, b):
        # Two routes whose errors differ: a Hautus rank test against the
        # stable invariant subspace of the Hamiltonian's ordered Schur form.
        # C = I, so delta is above its floor and only stabilizability decides.
        sys_ = lab.make_system(a, b, np.eye(np.shape(a)[0]))
        try:
            lab.solve_are(sys_)
            solves = True
        except lab.NotStabilizableError:
            solves = False
        assert lab.check_hypotheses(sys_).satisfied == solves


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: lab.make_system([-1.0], [[1.0]], [[1.0]]),
            "a must be a 2-d matrix, got ndim=1",
        ),
        (
            lambda: lab.make_system(np.ones((2, 3)), np.ones((2, 1)), np.eye(2)),
            "a must be square, got shape (2, 3)",
        ),
        (
            lambda: lab.make_system(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((0, 0))),
            "state dimension must be at least 1",
        ),
        (
            lambda: lab.make_system([[-1.0]], np.zeros((1, 0)), [[1.0]]),
            "control dimension must be at least 1",
        ),
        (
            lambda: lab.observability_gramian((np.ones((2, 3)), np.eye(3)), 1.0),
            "M must be square, got shape (2, 3)",
        ),
        (
            lambda: lab.observability_gramian((np.eye(2), np.ones((1, 3))), 1.0),
            "N must have 2 columns, got shape (1, 3)",
        ),
    ],
    ids=["1-d a", "non-square a", "0x0 a", "b without columns", "non-square M", "N columns"],
)
def test_shape_checks_name_the_operator(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()
