"""The benchmark's workloads: scenario set-up, operations and correctness checks.

A workload is a function ``(seed, work_dir) -> Workload``.  Building it is
the set-up that ``setup_s`` times; ``run_pass`` then runs the fixed
operations once and yields ``(operation, ok, detail)`` for each, in order.
An operation that raises is recorded as failed by the caller, together
with every operation the pass did not reach.

Each workload is a closed loop with one client: one process, ``jobs=1``.
"""

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lqturnpike as lab
from lqturnpike import cli, verification

HEAT_SWEEP_N = 50
HEAT_SWEEP_HORIZON = 0.25
HEAT_REFINE_NS = (50, 100)
HEAT_DT = 1e-2
# Criterion 8's bounds for the heat energy identity, and criterion 5's for
# the heat propagation residual.
HEAT_ENERGY_TOL = 1e-4
HEAT_PROPAGATION_TOL = 1e-4
LAMBDA_RTOL = 0.05


@dataclass
class Workload:
    operations: tuple
    run_pass: Callable


def smooth_profile(seed, n):
    """Seeded smooth initial state on the ``n`` interior heat nodes.

    Eight sine modes with standard normal coefficients times 0.5, smoothed
    by the heat flow for time 0.05: mode k is damped by
    ``exp(-0.05 (k pi)^2)``.  The same seed gives the same continuous
    profile at every n.  Without the damping, modes k >= 2 at this
    amplitude put an initial transient into the first steps that the
    dt = 1e-2 grid does not resolve, and the energy identity residual
    exceeds its 1e-4 bound (see README.md).
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    k = np.arange(1, 9)
    coef = 0.5 * rng.standard_normal(k.size) * np.exp(-0.05 * (k * np.pi) ** 2)
    nodes = np.arange(1, n + 1) / (n + 1)
    return np.sin(np.pi * np.outer(nodes, k)) @ coef


def quick_gate(seed, work_dir):
    """``verification.run_suite("quick")``; its 11 criteria are the operations.

    The gate's data are fixed by the gate, so the seed is not used.
    """
    operations = tuple(f"criterion_{k}" for k in range(1, len(verification.CRITERIA) + 1))
    passes = itertools.count()

    def run_pass():
        out_dir = os.path.join(work_dir, f"quick-{next(passes)}")
        results = verification.run_suite("quick", out_dir=out_dir, jobs=1)
        for name, result in zip(operations, results):
            yield name, bool(result.passed), result.line()

    return Workload(operations, run_pass)


def heat_sweep(seed, work_dir, n=HEAT_SWEEP_N, horizon=HEAT_SWEEP_HORIZON):
    """The library pipeline around the stiff Riccati sweep on heat_1d(n)."""
    sys_, z = lab.heat_1d(n, "distributed")
    prob = lab.LqProblem(
        sys=sys_, horizon=horizon, target=z, x0=smooth_profile(seed, n),
        p0=np.zeros((n, n)), dt=HEAT_DT,
    )
    operations = ("stationary", "are", "sweep", "propagation", "energy")

    def run_pass():
        stat = lab.solve_stationary(sys_, z)
        yield "stationary", True, f"KKT residual {stat.residual_constraint:.3e}"
        are = lab.solve_are(sys_)
        yield "are", True, f"ARE residual {are.residual:.3e}"
        traj = lab.solve_riccati_sweep(prob)
        law = float(np.max(np.abs(traj.u + traj.y @ sys_.b)))
        law_tol = 1e-12 * max(1.0, float(np.max(np.abs(traj.u))))
        yield "sweep", law <= law_tol, f"max|u + B*y| {law:.3e} <= {law_tol:.1e}"
        h = lab.h_trajectory(traj, stat, are)
        res = lab.propagation_residual(h, sys_, are, traj.grid)
        yield (
            "propagation",
            res <= HEAT_PROPAGATION_TOL,
            f"propagation residual {res:.3e} <= {HEAT_PROPAGATION_TOL:.0e}",
        )
        energy = lab.energy_diagnostics(traj, stat, sys_)
        ok = (
            energy.identity_residual <= HEAT_ENERGY_TOL
            and energy.cs_margin >= -HEAT_ENERGY_TOL
        )
        yield (
            "energy",
            ok,
            f"identity residual {energy.identity_residual:.3e} <= {HEAT_ENERGY_TOL:.0e}, "
            f"Cauchy-Schwarz margin {energy.cs_margin:.3e}",
        )

    return Workload(operations, run_pass)


def heat_refine(seed, work_dir, ns=HEAT_REFINE_NS):
    """``lqturnpike turnpike`` on the grid-refined quasi-boundary heat column."""
    configs = {}
    for n in ns:
        path = os.path.join(work_dir, f"heat{n}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "scenario": "heat_1d",
                    "n": n,
                    "control": "boundary_flavored",
                    "horizons": [5.0],
                    "dt": HEAT_DT,
                    "x0": smooth_profile(seed, n).tolist(),
                },
                handle,
            )
        configs[f"heat{n}"] = path
    passes = itertools.count()

    def run_pass():
        index = next(passes)
        for name, config in configs.items():
            out_dir = os.path.join(work_dir, f"{name}-{index}")
            code = cli.main(["turnpike", "--config", config, "--out", out_dir, "--jobs", "1"])
            yield (name, *_check_turnpike_outputs(code, out_dir))

    return Workload(tuple(configs), run_pass)


def _check_turnpike_outputs(code, out_dir):
    if code != 0:
        return False, f"exit code {code}"
    for name in ("turnpike_T5.csv", "turnpike_summary.csv", "manifest.json"):
        if not os.path.exists(os.path.join(out_dir, name)):
            return False, f"missing {name}"
    with open(os.path.join(out_dir, "turnpike_summary.csv"), encoding="utf-8") as handle:
        header, row = (line.strip().split(",") for line in handle.readlines()[:2])
    summary = dict(zip(header, row))
    fitted = float(summary["fitted_lambda"])
    reference = float(summary["lambda_reference"])
    err = abs(fitted - reference) / reference
    return err <= LAMBDA_RTOL, f"lambda error {err:.2%} <= {LAMBDA_RTOL:.0%}"


WORKLOADS = {
    "quick-gate": quick_gate,
    "heat-sweep": heat_sweep,
    "heat-refine": heat_refine,
    # Not part of the benchmark of record: n = 200 fails today (README.md).
    "heat-refine-full": lambda seed, work_dir: heat_refine(seed, work_dir, ns=(50, 100, 200)),
}
