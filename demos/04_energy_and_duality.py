"""Energy identity and the integration-by-parts duality.

Pairing the deviation state with the deviation adjoint turns the running
energy integral into pure boundary terms; applying Cauchy-Schwarz to the
pairing gives the inequality that seeds the turnpike estimate.  Both the
exact identity and the duality relation behind it are checked here, with
the quadrature order made visible by step halving.
"""

import numpy as np

import lqturnpike as lab
from lqturnpike.turnpike import energy_diagnostics


def run():
    sys_, z, x0 = lab.scalar_example()
    stat = lab.solve_stationary(sys_, z)
    prob = lab.LqProblem(
        sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3
    )
    traj = lab.solve_transcription(prob)

    report = energy_diagnostics(traj, stat, sys_)
    print("energy identity for the deviation from the turnpike")
    print(f"  integral of |u - u_bar|^2 + |C(x - x_bar)|^2 : {report.lhs:.10f}")
    print(f"  boundary pairing                              : "
          f"{report.rhs_identity:.10f}")
    print(f"  identity residual                             : "
          f"{report.identity_residual:.3e}")
    print(f"  Cauchy-Schwarz upper bound                    : "
          f"{report.rhs_cauchy_schwarz:.10f}")
    print(f"  slack of the inequality                       : {report.cs_margin:.3e}")

    print("\nduality residual on smooth random data, halving the step")
    rng = np.random.Generator(np.random.Philox(key=12))
    n, m = 3, 2
    a = rng.standard_normal((n, n))
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
    sys_rand = lab.make_system(a, rng.standard_normal((n, m)), np.eye(n))
    y0 = 0.5 * rng.standard_normal(n)
    z_t = 0.5 * rng.standard_normal(n)
    m_op = 0.3 * rng.standard_normal((n, n))
    coeffs = [rng.standard_normal((4, 2, width)) for width in (n, m, n)]

    def sampled(grid, which):
        rel = grid / grid[-1]
        out = np.zeros((grid.size, coeffs[which].shape[2]))
        for j in range(4):
            out += (
                coeffs[which][j, 0][None, :] * np.cos((j + 1) * np.pi * rel)[:, None]
                + coeffs[which][j, 1][None, :] * np.sin((j + 1) * np.pi * rel)[:, None]
            )
        return out / 8.0

    previous = None
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        grid = np.linspace(0.0, 1.0, int(round(1.0 / dt)) + 1)
        res = lab.duality_residual(
            sys_rand,
            (y0, sampled(grid, 0), sampled(grid, 1), m_op),
            (z_t, sampled(grid, 2)),
            1.0,
            dt,
        )
        note = "" if previous is None else f"  (ratio {previous / res:.2f})"
        print(f"  dt = {dt:6.0e}: residual = {res:.3e}{note}")
        previous = res
    print("ratios near 4 confirm the second-order trapezoid quadrature.")


if __name__ == "__main__":
    run()
