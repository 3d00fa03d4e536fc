import math

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

import lqturnpike as lab
from lqturnpike.errors import DimensionError, NonFiniteError, ResolventError


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


class TestSemigroup:
    def test_identity_at_zero(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        assert np.allclose(lab.semigroup(sys_, 0.0), np.eye(1), atol=0.0)

    def test_scalar_exponential(self):
        # Oracle: the scalar exponential evaluated independently.
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        assert abs(lab.semigroup(sys_, 1.0)[0, 0] - math.exp(-1.0)) < 1e-9

    def test_nilpotent_closed_form(self):
        # Oracle: truncated power series, exact for a nilpotent generator.
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        sys_ = lab.make_system(a, np.eye(2), np.eye(2))
        series = np.eye(2) + a + 0.5 * (a @ a)
        expected = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(series, expected, atol=0.0)
        assert np.allclose(lab.semigroup(sys_, 1.0), expected, atol=1e-12)

    def test_negative_time_rejected(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            lab.semigroup(sys_, -0.1)

    def test_semigroup_law_on_random_systems(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(10):
            sys_ = lab.random_stable(4, 2, int(rng.integers(0, 2**32)))
            s, t = rng.uniform(0.0, 2.0, size=2)
            whole = lab.semigroup(sys_, s + t)
            split = lab.semigroup(sys_, s) @ lab.semigroup(sys_, t)
            assert np.linalg.norm(whole - split) <= 1e-9 * np.linalg.norm(whole)


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

    def test_approx_control_operator_scalar(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        assert abs(lab.approx_control_operator(sys_, 1.0)[0, 0] - 0.5) < 1e-15

    def test_approx_control_operator_zero_generator(self):
        b = np.array([[2.0], [3.0]])
        sys_ = lab.make_system(np.zeros((2, 2)), b, np.eye(2))
        assert np.allclose(lab.approx_control_operator(sys_, 4.0), b, atol=1e-14)

    def test_approx_control_operator_monotone_scalar(self):
        sys_ = lab.make_system([[-1.0]], [[1.0]], [[1.0]])
        vals = [lab.approx_control_operator(sys_, k)[0, 0] for k in (10, 100, 1000)]
        assert vals[0] < vals[1] < vals[2] < 1.0


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
        report = lab.check_hypotheses(sys_, t0=1.0)
        assert report.satisfied
        assert report.ker_ac_trivial and report.ker_astar_bstar_trivial
        assert report.obs_ac > 0 and report.obs_astar_bstar > 0
        assert abs(report.delta - 1.0) < 1e-14

    def test_shared_kernel_detected(self):
        sys_ = lab.make_system([[0.0]], [[1.0]], [[0.0]])
        report = lab.check_hypotheses(sys_)
        assert not report.ker_ac_trivial
        assert not report.satisfied

    def test_delta_of_scaled_identity(self):
        sys_ = lab.make_system(-np.eye(2), np.ones((2, 1)), 2.0 * np.eye(2))
        assert abs(lab.check_hypotheses(sys_).delta - 4.0) < 1e-12

    @pytest.mark.parametrize("c", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [1.0, 0.0]]])
    def test_rank_deficient_observation_fails_coercivity(self, c):
        # (A, C) is observable and both kernels are trivial, but C has
        # rank 1: delta sits at the rounding floor of C's scale (1.1e-32
        # for the first C, exactly 0 for the second).
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        report = lab.check_hypotheses(lab.make_system(a, np.eye(2), c))
        assert report.ker_ac_trivial and report.ker_astar_bstar_trivial
        assert report.obs_ac > report.tol * report.obs_ac_max
        assert report.delta <= report.tol * report.delta_max
        assert not report.satisfied

    def test_kernel_flag_matches_svd_rank(self):
        # Constructed rank deficiency: second state invisible to A and C.
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        sys_ = lab.make_system(a, np.ones((2, 1)), c)
        report = lab.check_hypotheses(sys_)
        stacked = np.vstack([a, c])
        rank = np.linalg.matrix_rank(stacked)
        assert report.ker_ac_trivial == (rank == 2) == False  # noqa: E712

    def test_random_stable_seed42_passes(self):
        report = lab.check_hypotheses(lab.random_stable(4, 2, 42))
        assert report.satisfied

    @pytest.mark.parametrize("gap, satisfied", [(1e-8, False), (1e-3, True)])
    def test_gramian_margin_relative_to_its_scale(self, gap, satisfied):
        # Two nearly equal modes driven by one input.  At gap 1e-8 the
        # (A*, B*) Gramian is singular up to rounding: its smallest over
        # largest eigenvalue is 3e-17, positive only by chance.  At gap
        # 1e-3 the ratio is 2e-8, clear of the relative tolerance 1e-10.
        sys_ = lab.make_system(np.diag([-1.0, -1.0 - gap]), np.ones((2, 1)), np.eye(2))
        report = lab.check_hypotheses(sys_)
        assert report.ker_ac_trivial and report.ker_astar_bstar_trivial
        assert report.obs_astar_bstar_max > 0.0
        assert report.satisfied == satisfied
