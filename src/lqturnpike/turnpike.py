"""Turnpike verification: deviation propagation, rate fits, bounds, and smoothing studies.

The central object is the deviation

    h(t) = y(t) - y_bar - P (x(t) - x_bar),

built from a solved finite-horizon trajectory, the stationary triple, and
the infinite-horizon value operator P.  Reversed in time, g(t) = h(T - t)
is propagated exactly by the adjoint closed-loop semigroup,

    g(t) = e^{t (A - BB*P)*} g(0),

which makes the turnpike mechanism directly checkable as a matrix
exponential comparison.  On top of that this module fits exponential
decay rates, measures the constant of the node-wise turnpike envelope
for each horizon, evaluates the energy identity that precedes the
Cauchy-Schwarz step of the main estimate, and tabulates the dynamic
convergence of Yosida-smoothed problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, DimensionError, GridMismatchError, UndefinedRateError
from .lq import LqProblem, Trajectory, _trapezoid, solve_riccati_sweep, solve_transcription
from .operators import LtiSystem, _check_ks, linear_recurrence, yosida_system
from .riccati import AreSolution, solve_are
from .stationary import StationaryTriple, solve_stationary

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
    if not isinstance(name, str) or name not in SOLVERS:
        raise ConfigError(f"unknown solver {name!r}, expected one of {sorted(SOLVERS)}")
    return SOLVERS[name]


# Below this deviation scale the problem starts on the turnpike: there is
# no layer to fit, and the envelope constant is 0.
_TRIVIAL_SCALE = 1e-12

# The envelope constant is taken on the nodes where the envelope of the
# reference rate is at least this floor; below it the gap/envelope ratio
# measures rounding, not the turnpike.
_ENVELOPE_FLOOR = 1e-6

# The rate is fitted on these fractions of the initial layer, clear of
# the noise at both of its ends.
_FIT_WINDOW = (0.1, 0.9)


@dataclass(frozen=True)
class TurnpikeReport:
    """Turnpike diagnostics for one horizon, with the solves they measure.

    Attributes
    ----------
    horizon : float
    trajectory : Trajectory
    stationary : StationaryTriple
    are : AreSolution
        The infinite-horizon pair every horizon of the run is measured
        against: the turnpike (x_bar, u_bar, y_bar) and the value operator P.
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
    propagation_residual : float
        Max node-wise defect of the semigroup propagation of g.
    c_min : float
        Smallest c in the envelope estimate of :func:`verify_turnpike`, at
        the reference rate, on the nodes where the envelope is at least
        1e-6; 0 at the trivial scale.
    """

    horizon: float
    trajectory: Trajectory
    stationary: StationaryTriple
    are: AreSolution
    gap_x: np.ndarray
    gap_y: np.ndarray
    gap_u_window: np.ndarray
    h_norm: np.ndarray
    fitted_c: float
    fitted_lambda: float
    propagation_residual: float
    c_min: float

    @property
    def lambda_reference(self) -> float:
        """Negated spectral abscissa of the closed-loop generator ``are.a_cl``."""
        return -self.are.closed_loop_abscissa


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
    the one-step matrix exponential (one ``expm`` per call), walked with no
    forcing by :func:`~lqturnpike.operators.linear_recurrence`; by the
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
    predicted = np.zeros(g.shape)
    predicted[0] = g[0]
    predicted = linear_recurrence(expm(dt * are.a_cl.T), predicted)
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
    two nodes take the trapezoid rule.  Hand-rolled because importing
    ``scipy.integrate`` took 0.17-0.28 s on a 2-CPU x86-64 host, on top of
    the package's own 0.36-0.45 s import.
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
    GridMismatchError
        If the window holds fewer than 5 nodes.
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
        raise GridMismatchError(
            f"fit window [{a}, {b}] contains {int(np.sum(mask))} nodes, need >= 5: "
            "refine dt or lengthen the horizon"
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


def _report_for_horizon(prob, stat, are, scale, solver_fn):
    traj = solver_fn(prob)
    grid = traj.grid
    gap_x = np.linalg.norm(traj.x - stat.x_bar, axis=1)
    gap_y = np.linalg.norm(traj.y - stat.y_bar, axis=1)
    u_dev_sq = np.sum((traj.u - stat.u_bar) ** 2, axis=1)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * prob.dt * (u_dev_sq[:-1] + u_dev_sq[1:]))]
    )
    gap_u_window = _windowed_control_gap(cum, grid)
    h = h_trajectory(traj, stat, are)
    h_norm = np.linalg.norm(h, axis=1)
    prop_res = propagation_residual(h, prob.sys, are, grid)
    lam_ref = -are.closed_loop_abscissa

    if scale <= _TRIVIAL_SCALE:
        fitted_c, fitted_lambda, c_min = 0.0, lam_ref, 0.0
    else:
        layer = min(prob.horizon / 2.0, 5.0 / lam_ref)
        window = (_FIT_WINDOW[0] * layer, _FIT_WINDOW[1] * layer)
        fitted_c, fitted_lambda = fit_decay_rate((grid, h_norm[::-1]), window)
        envelope = np.exp(-lam_ref * grid) + np.exp(-lam_ref * (grid[-1] - grid))
        kept = envelope >= _ENVELOPE_FLOOR
        total = gap_x + gap_y + gap_u_window
        c_min = float(np.max(total[kept] / (envelope[kept] * scale)))
    return TurnpikeReport(
        horizon=prob.horizon,
        trajectory=traj,
        stationary=stat,
        are=are,
        gap_x=gap_x,
        gap_y=gap_y,
        gap_u_window=gap_u_window,
        h_norm=h_norm,
        fitted_c=fitted_c,
        fitted_lambda=fitted_lambda,
        propagation_residual=prop_res,
        c_min=c_min,
    )


def verify_turnpike(prob: LqProblem, horizons, *, solver: str):
    """Turnpike reports for a list of horizons, each with its envelope constant.

    The stationary triple of ``prob.target`` and the Riccati solution are
    solved once, and every report carries them.  Each horizon T solves
    ``replace(prob, horizon=T)`` by ``solver`` once, and its report keeps
    that trajectory: ``prob.horizon`` is never read, and ``prob.p0`` is
    solved as given (zero at every caller).  The node-wise gaps against
    the stationary triple are taken, and the decay rate of the reversed
    deviation is fitted on the initial layer (of length
    ``min(T/2, 5 / lambda_reference)``, trimmed to its inner 10%-90% to
    avoid endpoint noise).  ``c_min`` is the smallest c in the estimate

        gap(t) <= c (e^{-lambda t} + e^{-lambda (T - t)}) (|x0 - x_bar| + |y_bar|)

    on the summed gap, with lambda the reference rate ``lambda_reference``,
    taken over the nodes where the envelope is at least rho = 1e-6.  The
    envelope is at least 1 at t = 0, so that set is never empty, and the
    floor keeps out the nodes where both sides are rounding.  The theory
    asks for one c for every horizon, so the spread of ``c_min`` across
    horizons is what can fail.  At the trivial scale
    (|x0 - x_bar| + |y_bar| <= 1e-12) the problem starts on the turnpike,
    and ``c_min`` is 0.  ``turnpike_summary.csv``
    (:func:`~lqturnpike.reporting.turnpike_summary_rows`) writes each
    report's ``c_min`` beside a ``sha256`` column, the digest of its
    full-resolution arrays.

    Returns
    -------
    list of TurnpikeReport, ordered like ``horizons``.

    Raises
    ------
    UndefinedRateError
        If a horizon's deviation is zero on its fit window.
    """
    solver_fn = _solver(solver)
    stat = solve_stationary(prob.sys, prob.target)
    are = solve_are(prob.sys)
    scale = float(np.linalg.norm(prob.x0 - stat.x_bar) + np.linalg.norm(stat.y_bar))

    return [
        _report_for_horizon(replace(prob, horizon=horizon), stat, are, scale, solver_fn)
        for horizon in horizons
    ]


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


def yosida_dynamic_study(prob: LqProblem, ks, solver: str):
    """Convergence table of Yosida-smoothed dynamic problems.

    For each k the tracking problem is re-solved by ``solver`` on
    ``yosida_system(prob.sys, k)``, whose control operator is B_k = J_k B
    (same horizon, target, initial state, terminal cost, and step), and
    the error against the exact-B solution is tabulated.

    Returns
    -------
    list of (k, err_u_l2, err_x_max, err_y_max) tuples, ordered by k,
    where err_u_l2 is the L2-in-time control error and the other two are
    max-over-nodes state and adjoint errors.
    """
    ks = _check_ks(ks)
    solver_fn = _solver(solver)
    base = solver_fn(prob)

    def run(k):
        traj_k = solver_fn(replace(prob, sys=yosida_system(prob.sys, k)))
        du_sq = np.sum((traj_k.u - base.u) ** 2, axis=1)
        err_u = float(np.sqrt(_trapezoid(du_sq, prob.dt)))
        err_x = float(np.max(np.linalg.norm(traj_k.x - base.x, axis=1)))
        err_y = float(np.max(np.linalg.norm(traj_k.y - base.y, axis=1)))
        return (k, err_u, err_x, err_y)

    return [run(k) for k in ks]
