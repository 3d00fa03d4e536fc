import re

import numpy as np
import pytest

import lqturnpike as lab
from lqturnpike.errors import DimensionError, UniquenessError


class TestSolveStationary:
    def test_scalar_hand_kkt(self, scalar):
        # Oracle: minimize (x - 1)^2 + u^2 subject to -x + u = 0, solved by
        # hand: x = u = 1/2, multiplier from y = -(C x - z) gives y = -1/2.
        sys_, z, _ = scalar
        triple = lab.solve_stationary(sys_, z)
        assert abs(triple.x_bar[0] - 0.5) < 1e-12
        assert abs(triple.u_bar[0] - 0.5) < 1e-12
        assert abs(triple.y_bar[0] + 0.5) < 1e-12

    def test_zero_target_gives_zero_triple(self, rand4):
        sys_, _, _ = rand4
        triple = lab.solve_stationary(sys_, np.zeros(4))
        assert np.allclose(triple.x_bar, 0.0, atol=1e-14)
        assert np.allclose(triple.u_bar, 0.0, atol=1e-14)
        assert np.allclose(triple.y_bar, 0.0, atol=1e-14)

    def test_linearity_in_target(self, scalar):
        sys_, z, _ = scalar
        doubled = lab.solve_stationary(sys_, 2.0 * z)
        assert abs(doubled.x_bar[0] - 1.0) < 1e-12
        assert abs(doubled.u_bar[0] - 1.0) < 1e-12
        assert abs(doubled.y_bar[0] + 1.0) < 1e-12

    def test_linearity_combination_random(self, rand4):
        sys_, _, _ = rand4
        rng = np.random.Generator(np.random.Philox(key=21))
        z1, z2 = rng.standard_normal((2, 4))
        alpha, beta = 0.7, -1.3
        combined = lab.solve_stationary(sys_, alpha * z1 + beta * z2)
        t1 = lab.solve_stationary(sys_, z1)
        t2 = lab.solve_stationary(sys_, z2)
        for attr in ("x_bar", "u_bar", "y_bar"):
            lhs = getattr(combined, attr)
            rhs = alpha * getattr(t1, attr) + beta * getattr(t2, attr)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_residuals_below_tolerance(self, rand4):
        sys_, z, _ = rand4
        triple = lab.solve_stationary(sys_, z)
        scale = max(1.0, np.linalg.norm(z))
        for res in (
            triple.residual_constraint,
            triple.residual_adjoint,
            triple.residual_control,
        ):
            assert res <= 1e-10 * scale

    def test_rank_deficiency_reported(self):
        sys_ = lab.make_system([[0.0]], [[1.0]], [[0.0]])
        with pytest.raises(UniquenessError) as excinfo:
            lab.solve_stationary(sys_, np.array([1.0]))
        assert excinfo.value.rank is not None
        assert excinfo.value.rank < excinfo.value.full_rank
        assert "rank" in str(excinfo.value)

    def test_optimality_by_null_space_sampling(self, rand4):
        # 100 feasible perturbations drawn in ker [A B] never beat the optimum.
        sys_, z, _ = rand4
        triple = lab.solve_stationary(sys_, z)
        stacked = np.hstack([sys_.a, sys_.b])
        _, sv, vt = np.linalg.svd(stacked)
        basis = vt[int(np.sum(sv > 1e-12 * sv[0])):]
        assert basis.shape[0] == sys_.m  # generic null-space dimension
        base = (
            np.linalg.norm(sys_.c @ triple.x_bar - z) ** 2
            + np.linalg.norm(triple.u_bar) ** 2
        )
        rng = np.random.Generator(np.random.Philox(key=33))
        for _ in range(100):
            delta = rng.standard_normal(basis.shape[0]) @ basis
            x_p = triple.x_bar + delta[: sys_.n]
            u_p = triple.u_bar + delta[sys_.n :]
            assert np.linalg.norm(sys_.a @ x_p + sys_.b @ u_p) < 1e-10
            perturbed = np.linalg.norm(sys_.c @ x_p - z) ** 2 + np.linalg.norm(u_p) ** 2
            assert perturbed >= base - 1e-12


class TestSolveStationaryApprox:
    # The approximate problem is the exact one on yosida_system(sys, k).

    def test_scalar_hand_kkt_with_smoothed_control(self, scalar):
        # Oracle: constraint becomes -x + u/2 = 0; minimizing (x-1)^2 + u^2
        # over that line gives x = 1/5, u = 2/5, and y = -(x - 1) / ... the
        # adjoint equation y = x - 1 yields y = -4/5.
        sys_, z, _ = scalar
        triple = lab.solve_stationary(lab.yosida_system(sys_, 1.0), z)
        assert abs(triple.x_bar[0] - 0.2) < 1e-12
        assert abs(triple.u_bar[0] - 0.4) < 1e-12
        assert abs(triple.y_bar[0] + 0.8) < 1e-12

    def test_zero_target(self, scalar):
        sys_, _, _ = scalar
        triple = lab.solve_stationary(lab.yosida_system(sys_, 3.0), np.zeros(1))
        assert abs(triple.x_bar[0]) < 1e-14
        assert abs(triple.u_bar[0]) < 1e-14
        assert abs(triple.y_bar[0]) < 1e-14

    def test_large_k_matches_exact(self, scalar):
        sys_, z, _ = scalar
        exact = lab.solve_stationary(sys_, z)
        approx = lab.solve_stationary(lab.yosida_system(sys_, 1e6), z)
        assert abs(approx.x_bar[0] - exact.x_bar[0]) < 1e-5
        assert abs(approx.u_bar[0] - exact.u_bar[0]) < 1e-5
        assert abs(approx.y_bar[0] - exact.y_bar[0]) < 1e-5

    def test_smoothed_control_law_holds(self, rand4):
        # u_k = -B_k* y_k at solver tolerance, for each k.
        sys_, z, _ = rand4
        for k in (2.0, 16.0, 256.0):
            b_k = lab.yosida(sys_, k) @ sys_.b
            triple = lab.solve_stationary(lab.yosida_system(sys_, k), z)
            defect = np.linalg.norm(triple.u_bar + b_k.T @ triple.y_bar)
            assert defect <= 1e-10 * max(1.0, np.linalg.norm(triple.u_bar))


class TestConvergenceStudy:
    def test_scalar_errors_strictly_decreasing(self, scalar):
        sys_, z, _ = scalar
        rows = lab.stationary_convergence_study(sys_, z, [1.0, 10.0, 100.0, 1000.0])
        for col in (1, 2, 3):
            vals = [row[col] for row in rows]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_zero_target_all_zero(self, scalar):
        sys_, _, _ = scalar
        rows = lab.stationary_convergence_study(sys_, np.zeros(1), [1.0, 10.0])
        assert all(row[1] == row[2] == row[3] == 0.0 for row in rows)

    def test_random_system_decay_over_doubling_sweep(self):
        # Self-checking against solve_stationary.  The tail decays like 1/k
        # (consecutive rows halve); the total reduction over k = 2..4096 is
        # about 2^-11 times the saturation factor at k = 2, which lands the
        # final rows near 1.5e-3 of the first rows for these systems.
        sys_ = lab.random_stable(4, 2, 6)
        rng = np.random.Generator(np.random.Philox(key=6))
        z = rng.standard_normal(4)
        rows = lab.stationary_convergence_study(
            sys_, z, [2.0**j for j in range(1, 13)]
        )
        for col in (1, 2, 3):
            vals = [row[col] for row in rows]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert 0.4 <= vals[-1] / vals[-2] <= 0.65  # 1/k tail
            assert vals[-1] <= 3e-3 * vals[0]

    def test_validation(self, scalar):
        sys_, z, _ = scalar
        with pytest.raises(ValueError):
            lab.stationary_convergence_study(sys_, z, [])
        with pytest.raises(ValueError):
            lab.stationary_convergence_study(sys_, z, [4.0, 2.0])
        with pytest.raises(ValueError):
            lab.stationary_convergence_study(sys_, z, [-1.0, 2.0])


@pytest.mark.parametrize(
    "solve",
    [
        lab.solve_stationary,
        lambda sys_, z: lab.stationary_convergence_study(sys_, z, [10.0]),
    ],
    ids=["solve_stationary", "stationary_convergence_study"],
)
def test_target_of_the_wrong_length_is_refused(scalar, solve):
    sys_, _, _ = scalar
    message = "target z must have length 1, got (2,)"
    with pytest.raises(DimensionError, match=re.escape(message)):
        solve(sys_, np.ones(2))


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize(
    "system, rank",
    [
        # The LU factorization succeeds, but its solution overflows.
        (([[0.0]], [[1e-160]], [[1e-160]]), 1),
        # A finite solution whose residual exceeds 1e-8 of its scale.
        (([[1e15]], [[1e15]], [[1.0]]), 2),
    ],
    ids=["non-finite solution", "residual above tolerance"],
)
def test_kkt_guards_refuse_a_near_singular_solve(system, rank):
    message = (
        f"stationary KKT matrix is rank deficient (rank {rank} of 3); "
        "the optimal triple is not unique"
    )
    with pytest.raises(UniquenessError, match=re.escape(message)) as excinfo:
        lab.solve_stationary(lab.make_system(*system), np.ones(1))
    assert excinfo.value.__cause__ is None  # not the factorization's own LinAlgError
