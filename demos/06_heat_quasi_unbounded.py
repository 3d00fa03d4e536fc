"""Heat equation with distributed and boundary-flavored control columns.

Genuine boundary control has no matrix representation, so unboundedness
is emulated two ways: by resolvent-smoothed operators B_k at finite k and
by a control column concentrated on the first grid node whose norm grows
like 1/dx under refinement.  The script runs the turnpike pipeline on the
distributed variant (exact-step Riccati sweep: the Laplacian is stiff at
the PDE step, and the sweep has no stability limit) and the smoothing study
on the boundary-flavored variant.
"""

import numpy as np

import lqturnpike as lab
from lqturnpike.turnpike import yosida_dynamic_study


def run():
    n = 50
    sys_, z = lab.heat_1d(n, "distributed")
    x0 = np.zeros(n)
    print(f"heat rod, {n} interior nodes, bump target, control on [0.25, 0.75]")

    report = lab.check_hypotheses(sys_)
    print(f"  admissibility constant      : {report.obs_astar_bstar_max:.4f}")
    print(f"  exact-controllability floor : {report.obs_astar_bstar:.3e}")
    print("  the floor falls below double precision: heat observability")
    print("  constants decay exponentially in the mode index, which is exactly")
    print("  the near-unbounded regime this scenario emulates.  It is reported,")
    print("  not required.")
    print(f"  delta = {report.delta}, stabilizable = {report.stabilizable}, "
          f"satisfied = {report.satisfied}")

    prob = lab.LqProblem(
        sys=sys_, horizon=20.0, target=z, x0=x0, dt=1e-2
    )
    print("\nsolving T = 20 at the PDE step...")
    turnpike = lab.verify_turnpike(prob, [20.0], solver="riccati-sweep")[0]
    stat = turnpike.stationary
    print(f"  |x_bar| = {np.linalg.norm(stat.x_bar):.4f}, "
          f"|y_bar| = {np.linalg.norm(stat.y_bar):.4f}")
    print(f"  closed-loop decay rate: {turnpike.lambda_reference:.4f}")
    gap_mid = turnpike.gap_x[len(turnpike.gap_x) // 2]
    print(f"  midpoint distance to the turnpike: {gap_mid:.3e}")
    print(f"  semigroup propagation residual of the deviation: "
          f"{turnpike.propagation_residual:.3e}")

    print("\nboundary-flavored control column: |B| grows like 1/dx")
    for nn in (25, 50, 100):
        b_col = lab.heat_1d(nn, "boundary_flavored")[0].b
        print(f"  n = {nn:3d}: |B| = {np.linalg.norm(b_col):.1f}")

    bsys, bz = lab.heat_1d(n, "boundary_flavored")
    bprob = lab.LqProblem(
        sys=bsys, horizon=5.0, target=bz, x0=np.zeros(n), dt=1e-2
    )
    print("\nsmoothing study on the boundary-flavored variant (transcription)")
    for k, err_u, _, _ in yosida_dynamic_study(
        bprob, [10.0, 100.0, 1000.0], solver="transcription"
    ):
        print(f"  k = {k:6.0f}: control error = {err_u:.4f}")


if __name__ == "__main__":
    run()
