"""Resolvent smoothing of the control operator, statically and dynamically.

Replacing B by B_k = k (kI - A)^{-1} B gives a bounded surrogate whose
solutions converge to the original ones as k grows.  The script tabulates
that convergence for the stationary problem and for a finite-horizon
tracking problem on the scalar instance.
"""

import lqturnpike as lab
from lqturnpike.turnpike import yosida_dynamic_study


def run():
    sys_, z, x0 = lab.scalar_example()
    ks = [2.0**j for j in range(1, 11)]

    print("stationary problem: errors of the smoothed triple against the exact one")
    print(f"{'k':>8} {'err x':>12} {'err u':>12} {'err y':>12}")
    for k, err_x, err_u, err_y in lab.stationary_convergence_study(sys_, z, ks):
        print(f"{k:8.0f} {err_x:12.3e} {err_u:12.3e} {err_y:12.3e}")
    print("each column shrinks like 1/k once k clears the spectrum of A.\n")

    prob = lab.LqProblem(
        sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3
    )
    print("dynamic problem (T = 10): errors against the exact-B solution")
    print(f"{'k':>8} {'u (L2)':>12} {'x (max)':>12} {'y (max)':>12}")
    for k, err_u, err_x, err_y in yosida_dynamic_study(prob, ks, solver="riccati-sweep"):
        print(f"{k:8.0f} {err_u:12.3e} {err_x:12.3e} {err_y:12.3e}")
    print("\nthe finite-horizon problem with terminal cost P is the bridge between")
    print("the smoothed problems and the infinite-horizon one; re-running with")
    print("p0 = solve_are(sys).p exercises exactly that form.")


if __name__ == "__main__":
    run()
