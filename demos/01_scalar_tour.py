"""Tour of the canonical scalar system.

Everything in this laboratory has a closed form when A = -1, B = 1, C = 1:
the stationary triple is (1/2, 1/2, -1/2) for the target z = 1, the value
operator is P = sqrt(2) - 1, and the closed loop decays at rate sqrt(2).
This script walks the whole chain and prints each quantity next to its
hand-computed value.
"""

import numpy as np

import lqturnpike as lab


def run():
    sys_, z, x0 = lab.scalar_example()
    print("system: A = -1, B = 1, C = 1, target z = 1, x0 = 0")

    report = lab.check_hypotheses(sys_)
    print("\nstructural hypotheses")
    # The (A*, B*) Gramian on [0, 1] is the scalar (1 - e^-2) / 2, so the
    # admissibility constant and the exact-controllability floor coincide.
    print(f"  admissibility constant      : {report.obs_astar_bstar_max:.10f} "
          f"(hand value {(1.0 - np.exp(-2.0)) / 2.0:.10f})")
    print(f"  exact-controllability floor : {report.obs_astar_bstar:.10f}")
    print(f"  coercivity constant delta   : {report.delta}")
    print(f"  stabilizable                : {report.stabilizable}")
    print(f"  satisfied                   : {report.satisfied}")

    triple = lab.solve_stationary(sys_, z)
    print("\nstationary triple (hand value 0.5, 0.5, -0.5)")
    print(f"  x_bar = {triple.x_bar[0]:+.12f}")
    print(f"  u_bar = {triple.u_bar[0]:+.12f}")
    print(f"  y_bar = {triple.y_bar[0]:+.12f}")

    are = lab.solve_are(sys_)
    print("\nalgebraic Riccati equation (positive root of P^2 + 2P - 1 = 0)")
    print(f"  P          = {are.p[0, 0]:.12f}  vs sqrt(2) - 1 = {np.sqrt(2) - 1:.12f}")
    print(f"  residual   = {are.residual:.3e}")
    print(f"  closed loop abscissa = {are.closed_loop_abscissa:.12f} (= -sqrt(2))")

    dre = lab.solve_dre(lab.LqProblem(sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3))
    print("\ndifferential Riccati equation from zero terminal cost")
    print(f"  P_T(0) after T = 10 : {dre.p_samples[0][0, 0]:.12f} (tends to P)")

    # Zero target and no terminal cost: the closed loop's cost up to T = 12
    # is the infinite-horizon value <P xi, xi> up to a tail below 1e-14.
    prob = lab.LqProblem(sys=sys_, horizon=12.0, target=np.zeros(1),
                         x0=np.array([1.0]), dt=1e-3)
    traj = lab.solve_infinite_horizon(prob)
    value = lab.cost(prob, traj)
    print("\nvalue function against the closed-loop cost")
    print(f"  <P xi, xi> = {are.p[0, 0]:.12f}, closed-loop cost = {value:.12f}")

    print("\nclosed-loop decay x(t) = e^(-sqrt(2) t)")
    for t_check in (0.5, 1.0, 2.0):
        idx = int(round(t_check / 1e-3))
        print(f"  x({t_check}) = {traj.x[idx, 0]:.10f}  "
              f"exact {np.exp(-np.sqrt(2) * t_check):.10f}")


if __name__ == "__main__":
    run()
