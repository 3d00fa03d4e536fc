"""Two independent solvers for one tracking problem.

The transcription solver discretizes first, with the trapezoid rule, and
solves the resulting quadratic program exactly; the Riccati sweep
optimizes first and follows the exact flow of the resulting feedback and
feedforward equations.  Both run the same backward and forward passes,
but over different one-step maps, so their error mechanisms are
unrelated and node-wise agreement is a strong consistency check.  The
script also shows the optimality law u = -B* y holding at every node and
the state round trip: re-integrated exactly, the transcription's control
gives back its state up to the transcription's second-order error.
"""

import numpy as np

import lqturnpike as lab


def run():
    sys_, z, x0 = lab.scalar_example()
    prob = lab.LqProblem(
        sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3
    )

    direct = lab.solve_transcription(prob)
    sweep = lab.solve_riccati_sweep(prob)

    print("node-wise agreement of the two solvers (dt = 1e-3)")
    for field in ("x", "y", "u"):
        gap = np.max(np.abs(getattr(direct, field) - getattr(sweep, field)))
        print(f"  max |{field}_direct - {field}_sweep| = {gap:.3e}")

    print("\noptimality law on the transcription solution")
    law = np.max(np.abs(direct.u + direct.y @ sys_.b))
    print(f"  max |u + B* y| = {law:.3e}")

    print("\ncosts")
    print(f"  transcription : {lab.cost(prob, direct):.12f}")
    print(f"  Riccati sweep : {lab.cost(prob, sweep):.12f}")
    print("  (running cost of holding x = 0 for T = 10 would be 10)")

    x_rec = lab.simulate_forward(prob, direct.u)
    print("\nround trip: re-integrating the state from the control")
    print(f"  max state gap = {np.max(np.abs(x_rec - direct.x)):.3e}")

    print("\nagreement improves at second order under step refinement")
    for dt in (2e-3, 1e-3, 5e-4):
        p = lab.LqProblem(
            sys=sys_, horizon=2.0, target=z, x0=x0, dt=dt
        )
        gap = np.max(np.abs(lab.solve_transcription(p).x - lab.solve_riccati_sweep(p).x))
        print(f"  dt = {dt:g}: max state gap = {gap:.3e}")


if __name__ == "__main__":
    run()
