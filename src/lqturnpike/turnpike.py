"""Turnpike verification: deviation propagation, rate fits, bounds, and smoothing studies.

The central object is the deviation

    h(t) = y(t) - y_bar - P (x(t) - x_bar),

built from a solved finite-horizon trajectory, the stationary triple, and
the infinite-horizon value operator P.  Reversed in time, g(t) = h(T - t)
is propagated exactly by the adjoint closed-loop semigroup,

    g(t) = e^{t (A - BB*P)*} g(0),

which makes the turnpike mechanism directly checkable as a matrix
exponential comparison.  On top of that this module fits exponential
decay rates, checks the node-wise turnpike envelope with a constant
shared across horizons, evaluates the energy identity that precedes the
Cauchy-Schwarz step of the main estimate, and tabulates the dynamic
convergence of Yosida-smoothed problems.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .errors import DimensionError, UndefinedRateError
from .lq import LqProblem, Trajectory, _trapezoid, solve_riccati_sweep, solve_transcription
from .operators import LtiSystem, approx_control_operator, make_system
from .riccati import AreSolution, lifted_orbit
from .stationary import StationaryTriple, _check_ks

__all__ = [
    "TurnpikeReport",
    "EnergyReport",
    "h_trajectory",
    "propagation_residual",
    "fit_decay_rate",
    "verify_turnpike",
    "energy_diagnostics",
    "yosida_dynamic_study",
]

SOLVERS = {
    "transcription": solve_transcription,
    "riccati-sweep": solve_riccati_sweep,
}


def _solver(name: str):
    """The registered solver function called ``name``."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver '{name}', expected one of {sorted(SOLVERS)}")
    return SOLVERS[name]


# Below this deviation scale the problem starts on the turnpike and the
# envelope degenerates; gaps are then compared against solver tolerance.
_TRIVIAL_SCALE = 1e-12


@dataclass(frozen=True)
class TurnpikeReport:
    """Turnpike diagnostics for one horizon.

    Attributes
    ----------
    horizon : float
    grid : (N + 1,) ndarray
    gap_x, gap_y : (N + 1,) ndarray
        Node-wise deviations |x(t) - x_bar| and |y(t) - y_bar|.
    gap_u_window : (N + 1,) ndarray
        Windowed L2 norm of u - u_bar over I_t, where I_t = (t, T - t)
        for t <= T/2 and (T - t, t) otherwise; zero at the degenerate
        midpoint by convention.
    h_norm : (N + 1,) ndarray
        |h(t)| node-wise.
    fitted_c, fitted_lambda : float
        Log-linear fit of the reversed deviation magnitude |g|.
    lambda_reference : float
        Negated spectral abscissa of the closed-loop generator.
    propagation_residual : float
        Max node-wise defect of the semigroup propagation of g.
    c_min : float
        Minimal constant making the node-wise envelope bound hold for
        this horizon with the fitted rate.
    c_uniform : float
        Constant shared across all horizons of the run (max of c_min).
    bound_satisfied : bool
        Node-wise envelope bound with the shared constant.
    bound_margin : float
        Smallest slack of the bound over the grid (nonnegative when
        satisfied).
    """

    horizon: float
    grid: np.ndarray
    gap_x: np.ndarray
    gap_y: np.ndarray
    gap_u_window: np.ndarray
    h_norm: np.ndarray
    fitted_c: float
    fitted_lambda: float
    lambda_reference: float
    propagation_residual: float
    c_min: float
    c_uniform: float
    bound_satisfied: bool
    bound_margin: float


@dataclass(frozen=True)
class EnergyReport:
    """Both sides of the energy identity and its Cauchy-Schwarz relaxation.

    ``lhs`` is the integral of |u - u_bar|^2 + |C(x - x_bar)|^2 over the
    horizon; ``rhs_identity`` is the boundary pairing
    <x0 - x_bar, y(0) - y_bar> + <x(T) - x_bar, y_bar>, equal to the
    integral exactly; ``rhs_cauchy_schwarz`` is its product-of-norms
    upper bound.
    """

    lhs: float
    rhs_identity: float
    rhs_cauchy_schwarz: float
    identity_residual: float
    cs_margin: float


def h_trajectory(traj: Trajectory, stat: StationaryTriple, are: AreSolution) -> np.ndarray:
    """Node-wise deviation h(t) = y(t) - y_bar - P (x(t) - x_bar)."""
    n = stat.x_bar.shape[0]
    if traj.x.shape[1] != n or are.p.shape != (n, n):
        raise DimensionError(
            "trajectory, stationary triple, and Riccati solution must share "
            "one state dimension"
        )
    return traj.y - stat.y_bar - (traj.x - stat.x_bar) @ are.p.T


def propagation_residual(h: np.ndarray, sys: LtiSystem, are: AreSolution, grid) -> float:
    """Max defect of g(t) = e^{t A_cl*} g(0) with g(t) = h(T - t).

    ``A_cl = A - BB*P`` is the closed-loop generator ``are.a_cl``.
    The propagator is evaluated at every node, as the orbit of g(0) under
    the one-step matrix exponential (one ``expm`` per call), walked by
    binary lifting (:func:`~lqturnpike.riccati.lifted_orbit`); by the
    semigroup law it agrees with the per-node exponential up to rounding.
    Returns ``max_j |g(t_j) - e^{t_j A_cl*} g(0)|``.
    """
    grid = np.asarray(grid, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.shape != (grid.shape[0], sys.n):
        raise DimensionError(
            f"h must have shape ({grid.shape[0]}, {sys.n}): one state per grid node"
        )
    if grid.shape[0] < 2:
        return 0.0
    dt = _uniform_step(grid, "propagation check")
    g = h[::-1]
    predicted = lifted_orbit(expm(dt * are.a_cl.T), g[0], g.shape[0] - 1)
    return float(np.max(np.linalg.norm(g - predicted, axis=1)))


def _uniform_step(grid: np.ndarray, what: str) -> float:
    """The step of a uniform grid of at least two nodes."""
    steps = np.diff(grid)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError(f"{what} requires a uniform grid")
    return float(dt)


def _simpson(values: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on a uniform grid, as ``scipy.integrate.simpson``.

    An even node count takes Simpson on all but the last interval, which
    gets Cartwright's correction dx (5 y_N + 8 y_{N-1} - y_{N-2}) / 12;
    two nodes take the trapezoid rule.
    """
    nodes = values.shape[0]
    if nodes == 2:
        return 0.5 * dx * float(values[0] + values[1])
    tail = 0.0
    if nodes % 2 == 0:
        tail = dx * float(5.0 * values[-1] + 8.0 * values[-2] - values[-3]) / 12.0
        values = values[:-1]
    body = np.sum(values[0:-1:2] + 4.0 * values[1::2] + values[2::2])
    return float(body * (dx / 3.0)) + tail


def fit_decay_rate(series, window) -> tuple:
    """Least-squares fit of log magnitude = log c - lambda * t on a window.

    Parameters
    ----------
    series : (t, magnitude) pair of 1-d arrays
    window : (a, b) sub-interval of the time axis; must contain at least
        5 nodes.

    Returns
    -------
    (c, lam) : tuple of float

    Raises
    ------
    UndefinedRateError
        If the series is identically zero on the window.
    """
    t, mag = series
    t = np.asarray(t, dtype=float)
    mag = np.asarray(mag, dtype=float)
    if t.shape != mag.shape:
        raise DimensionError("time and magnitude arrays must have equal shape")
    a, b = float(window[0]), float(window[1])
    mask = (t >= a) & (t <= b)
    if int(np.sum(mask)) < 5:
        raise ValueError(
            f"fit window [{a}, {b}] contains {int(np.sum(mask))} nodes, need >= 5"
        )
    tw = t[mask]
    mw = mag[mask]
    if np.all(mw == 0.0):
        raise UndefinedRateError("cannot fit a decay rate to an all-zero series")
    logs = np.log(np.maximum(mw, 1e-300))
    design = np.column_stack([np.ones_like(tw), -tw])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    return float(np.exp(coef[0])), float(coef[1])


def _windowed_control_gap(u_dev_sq_int: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """L2 norm of the control deviation over I_t for every node.

    ``u_dev_sq_int`` is the cumulative trapezoid integral of |u - u_bar|^2.
    """
    i = np.arange(grid.shape[0])
    j = i[::-1]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return np.sqrt(np.maximum(u_dev_sq_int[hi] - u_dev_sq_int[lo], 0.0))


def _report_for_horizon(
    sys, stat, are, horizon, z, x0, scale, dt, solver_fn, fit_window_fractions
):
    prob = LqProblem(
        sys=sys,
        horizon=horizon,
        target=z,
        x0=x0,
        p0=np.zeros((sys.n, sys.n)),
        dt=dt,
    )
    traj = solver_fn(prob)
    grid = traj.grid
    gap_x = np.linalg.norm(traj.x - stat.x_bar, axis=1)
    gap_y = np.linalg.norm(traj.y - stat.y_bar, axis=1)
    u_dev_sq = np.sum((traj.u - stat.u_bar) ** 2, axis=1)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (u_dev_sq[:-1] + u_dev_sq[1:]))]
    )
    gap_u_window = _windowed_control_gap(cum, grid)
    h = h_trajectory(traj, stat, are)
    h_norm = np.linalg.norm(h, axis=1)
    prop_res = propagation_residual(h, sys, are, grid)
    lam_ref = -are.closed_loop_abscissa

    if scale <= _TRIVIAL_SCALE:
        fitted_c, fitted_lambda, c_min = 0.0, lam_ref, 0.0
    else:
        layer = min(horizon / 2.0, 5.0 / lam_ref)
        window = (fit_window_fractions[0] * layer, fit_window_fractions[1] * layer)
        fitted_c, fitted_lambda = fit_decay_rate((grid, h_norm[::-1]), window)
        total = gap_x + gap_y + gap_u_window
        c_min = float(np.max(total / (_envelope(grid, horizon, fitted_lambda) * scale)))
    # The shared constant and the bound need every horizon's c_min;
    # verify_turnpike fills them in.
    return TurnpikeReport(
        horizon=horizon,
        grid=grid,
        gap_x=gap_x,
        gap_y=gap_y,
        gap_u_window=gap_u_window,
        h_norm=h_norm,
        fitted_c=fitted_c,
        fitted_lambda=fitted_lambda,
        lambda_reference=lam_ref,
        propagation_residual=prop_res,
        c_min=c_min,
        c_uniform=np.nan,
        bound_satisfied=False,
        bound_margin=np.nan,
    )


def _envelope(grid, horizon, lam):
    return np.exp(-lam * grid) + np.exp(-lam * (horizon - grid))


def verify_turnpike(
    sys: LtiSystem,
    stat: StationaryTriple,
    are: AreSolution,
    horizons,
    *,
    z,
    x0,
    dt: float = 1e-3,
    solver: str = "transcription",
    jobs: int = 1,
    fit_window_fractions=(0.1, 0.9),
):
    """Turnpike reports for a list of horizons with one shared constant.

    For each horizon the tracking problem is solved with zero terminal
    cost, node-wise gaps against the stationary triple are collected, the
    decay rate of the reversed deviation is fitted on the initial layer
    (of length ``min(T/2, 5 / lambda_reference)``, trimmed to its inner
    fractions to avoid endpoint noise), and the envelope bound

        gap(t) <= c (e^{-lambda t} + e^{-lambda (T - t)}) (|x0 - x_bar| + |y_bar|)

    is checked node-wise on the summed gap with the constant taken
    uniform across all requested horizons (the maximum of the per-horizon
    minimal constants).

    Returns
    -------
    list of TurnpikeReport, ordered like ``horizons``.
    """
    solver_fn = _solver(solver)
    horizons = [float(t) for t in horizons]
    z = np.asarray(z, dtype=float).reshape(sys.n)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    scale = float(np.linalg.norm(x0 - stat.x_bar) + np.linalg.norm(stat.y_bar))

    def run(horizon):
        return _report_for_horizon(
            sys, stat, are, horizon, z, x0, scale, dt, solver_fn, fit_window_fractions
        )

    if jobs > 1 and len(horizons) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(run, horizons))
    else:
        partials = [run(t) for t in horizons]

    c_uniform = max((p.c_min for p in partials), default=0.0)
    reports = []
    for partial in partials:
        total = partial.gap_x + partial.gap_y + partial.gap_u_window
        if scale <= _TRIVIAL_SCALE:
            margin = float(1e-8 - np.max(total))
            satisfied = bool(margin >= 0.0)
        else:
            envelope = _envelope(partial.grid, partial.horizon, partial.fitted_lambda)
            margin = float(np.min(c_uniform * scale * envelope - total))
            satisfied = bool(margin >= -1e-12 * max(1.0, c_uniform * scale))
        reports.append(
            replace(
                partial,
                c_uniform=c_uniform,
                bound_satisfied=satisfied,
                bound_margin=margin,
            )
        )
    return reports


def energy_diagnostics(
    traj: Trajectory, stat: StationaryTriple, sys: LtiSystem
) -> EnergyReport:
    """Energy identity margins for a trajectory solved with zero terminal cost.

    Checks the exact identity

        int ( |u - u_bar|^2 + |C(x - x_bar)|^2 ) dt
            = <x0 - x_bar, y(0) - y_bar> + <x(T) - x_bar, y_bar>

    (which presumes y(T) = 0) and the Cauchy-Schwarz upper bound obtained
    by replacing the pairings with products of norms.  The integral is
    evaluated by composite Simpson quadrature on the uniform trajectory
    grid, with a corrected last interval for an even node count.
    """
    n = stat.x_bar.shape[0]
    if traj.x.shape[1] != n or sys.n != n:
        raise DimensionError(
            "trajectory, stationary triple, and system dimensions differ"
        )
    x_dev = traj.x - stat.x_bar
    u_dev = traj.u - stat.u_bar
    integrand = np.sum(u_dev * u_dev, axis=1) + np.sum(
        (x_dev @ sys.c.T) ** 2, axis=1
    )
    lhs = _simpson(integrand, _uniform_step(traj.grid, "energy quadrature"))
    rhs_identity = float(
        np.dot(x_dev[0], traj.y[0] - stat.y_bar) + np.dot(x_dev[-1], stat.y_bar)
    )
    rhs_cs = float(
        np.linalg.norm(x_dev[0]) * np.linalg.norm(traj.y[0] - stat.y_bar)
        + np.linalg.norm(x_dev[-1]) * np.linalg.norm(stat.y_bar)
    )
    return EnergyReport(
        lhs=lhs,
        rhs_identity=rhs_identity,
        rhs_cauchy_schwarz=rhs_cs,
        identity_residual=abs(lhs - rhs_identity),
        cs_margin=rhs_cs - lhs,
    )


def yosida_dynamic_study(prob: LqProblem, ks, solver: str = "riccati-sweep", jobs: int = 1):
    """Convergence table of Yosida-smoothed dynamic problems.

    For each k the tracking problem is re-solved with the control
    operator replaced by B_k = J_k B (same horizon, target, initial
    state, terminal cost, and step), and the error against the exact-B
    solution is tabulated.  Distinct k values may solve concurrently;
    rows come back ordered by k either way.

    Returns
    -------
    list of (k, err_u_l2, err_x_max, err_y_max) tuples, ordered by k,
    where err_u_l2 is the L2-in-time control error and the other two are
    max-over-nodes state and adjoint errors.
    """
    ks = _check_ks(ks)
    solver_fn = _solver(solver)
    base = solver_fn(prob)
    dt = prob.dt

    def run(k):
        sys_k = make_system(
            prob.sys.a, approx_control_operator(prob.sys, k), prob.sys.c
        )
        prob_k = LqProblem(
            sys=sys_k,
            horizon=prob.horizon,
            target=prob.target,
            x0=prob.x0,
            p0=prob.p0,
            dt=dt,
        )
        traj_k = solver_fn(prob_k)
        du_sq = np.sum((traj_k.u - base.u) ** 2, axis=1)
        err_u = float(np.sqrt(_trapezoid(du_sq, dt)))
        err_x = float(np.max(np.linalg.norm(traj_k.x - base.x, axis=1)))
        err_y = float(np.max(np.linalg.norm(traj_k.y - base.y, axis=1)))
        return (k, err_u, err_x, err_y)

    if jobs > 1 and len(ks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, ks))
    return [run(k) for k in ks]
