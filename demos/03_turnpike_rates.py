"""The exponential turnpike property, measured.

For growing horizons the optimal trajectory approaches the stationary
triple exponentially fast away from the two boundary layers.  The script
tabulates the midpoint gaps, fits the decay rate of the reversed
deviation h(t) = y - y_bar - P(x - x_bar), compares it with the spectral
rate of the closed-loop generator, and checks the semigroup propagation
of h, which is the mechanism behind the whole estimate.
"""

import lqturnpike as lab


def run():
    sys_, z, x0 = lab.scalar_example()
    prob = lab.LqProblem(sys=sys_, horizon=10.0, target=z, x0=x0, dt=1e-3)
    reports = lab.verify_turnpike(prob, [5.0, 10.0, 20.0, 40.0], solver="transcription")
    lam_ref = reports[0].lambda_reference
    print(f"spectral decay rate of the closed loop: {lam_ref:.6f} (= sqrt(2))\n")

    print(f"{'T':>5} {'gap_x(T/2)':>12} {'fitted c':>10} {'fitted rate':>12} "
          f"{'propagation':>12} {'c':>8}")
    for rep in reports:
        mid = rep.gap_x[len(rep.trajectory.grid) // 2]
        print(
            f"{rep.horizon:5.0f} {mid:12.3e} {rep.fitted_c:10.4f} "
            f"{rep.fitted_lambda:12.6f} {rep.propagation_residual:12.3e} "
            f"{rep.c_min:8.4f}"
        )

    c_values = [rep.c_min for rep in reports]
    print("\nc is the smallest envelope constant of each horizon, at the reference")
    print("rate, on the nodes where the envelope is at least 1e-6; its spread")
    print(f"across horizons is {max(c_values) / min(c_values):.4f}x "
          "(one c for every horizon, as the theory requires)")
    print("\nmidpoint gaps shrink exponentially with T: each doubling of the")
    print("horizon multiplies the interior deviation by roughly "
          f"exp(-{lam_ref:.3f} * T/2).")


if __name__ == "__main__":
    run()
