"""Algebraic and differential Riccati equations.

The infinite-horizon value operator P is the stabilizing solution of

    A*P + P A + C*C - P B B* P = 0,

computed here by the Hamiltonian-Schur method (ordered real Schur form of
the 2n x 2n Hamiltonian) followed by a few Newton-Kleinman refinement
steps.  :func:`solve_are` also returns the closed-loop generator
A - BB*P, formed once, and its spectral abscissa, whose negation is the
turnpike rate; every closed-loop computation reads it from there.
``<P xi, xi>`` is the optimal infinite-horizon cost from xi, a fact
:func:`value_function_check` verifies against brute-force quadrature
along the closed-loop trajectory.

The finite-horizon value operator P_T(.) solves the matrix differential
Riccati equation

    P_T'(t) + A* P_T(t) + P_T(t) A + C*C - P_T(t) B B* P_T(t) = 0,
    P_T(T) = P0.

:func:`solve_dre` samples it with the exact one-step flow of
:func:`lqturnpike.operators.riccati_step_flow`, formed by
structure-preserving doubling, through the same backward pass as the
tracking sweep in :mod:`lqturnpike.lq`, so stiff generators need no
finer step.  :func:`lifted_orbit` walks a linear map's orbit by binary
lifting, for the closed-loop and propagation checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, schur, solve_continuous_lyapunov

from .errors import (
    ConvergenceError,
    DimensionError,
    IntegrationError,
    NotStabilizableError,
    TruncationError,
)
from .operators import (
    LtiSystem,
    riccati_backward_pass,
    riccati_step_flow,
    spectral_abscissa,
)

__all__ = [
    "AreSolution",
    "DreSolution",
    "solve_are",
    "solve_dre",
    "value_function_check",
]

@dataclass(frozen=True)
class AreSolution:
    """Stabilizing solution of the algebraic Riccati equation.

    Attributes
    ----------
    p : (n, n) ndarray
        Symmetric positive semidefinite value operator.
    residual : float
        Relative Frobenius norm of ``A*P + PA + C*C - PBB*P``.
    closed_loop_abscissa : float
        Largest real part of the eigenvalues of ``a_cl``; its negation is
        the closed-loop decay rate.
    a_cl : (n, n) ndarray
        Read-only closed-loop generator ``A - (BB*)P``.
    """

    p: np.ndarray
    residual: float
    closed_loop_abscissa: float
    a_cl: np.ndarray


@dataclass(frozen=True)
class DreSolution:
    """Backward solution of the differential Riccati equation on a grid.

    Attributes
    ----------
    grid : (steps + 1,) ndarray
        Uniform time grid on [0, T].
    p_samples : (steps + 1, n, n) ndarray
        Symmetric samples P_T(t_j); the terminal sample equals p0 exactly.
    """

    grid: np.ndarray
    p_samples: np.ndarray


def _are_residual(sys: LtiSystem, p: np.ndarray):
    a, b, c = sys.a, sys.b, sys.c
    terms = (a.T @ p, p @ a, c.T @ c, p @ b @ b.T @ p)
    res = terms[0] + terms[1] + terms[2] - terms[3]
    denom = max(1.0, sum(np.linalg.norm(t) for t in terms))
    return res, float(np.linalg.norm(res) / denom)


def solve_are(sys: LtiSystem, tol: float = 1e-10, newton_steps: int = 5) -> AreSolution:
    """Solve the algebraic Riccati equation by Hamiltonian-Schur + Newton.

    The stable invariant subspace of the Hamiltonian
    ``[[A, -BB*], [-C*C, -A*]]`` yields P; up to ``newton_steps``
    Newton-Kleinman corrections (each a Lyapunov solve with the current
    closed-loop generator) polish the residual.

    Raises
    ------
    NotStabilizableError
        If the Hamiltonian has no stable invariant subspace of dimension n
        (finite cost condition violated).
    ConvergenceError
        If the relative residual stays above ``tol`` after refinement.
    """
    n = sys.n
    bbt = sys.b @ sys.b.T
    ham = np.block([[sys.a, -bbt], [-sys.c.T @ sys.c, -sys.a.T]])
    _, vecs, sdim = schur(ham, output="real", sort="lhp")
    if sdim != n:
        raise NotStabilizableError(
            f"Hamiltonian has a stable invariant subspace of dimension {sdim}, "
            f"expected {n}; the system is not stabilizable with finite cost"
        )
    u1 = vecs[:n, :n]
    u2 = vecs[n:, :n]
    sv = np.linalg.svd(u1, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise NotStabilizableError(
            "stable invariant subspace has no graph representation; "
            "the system is not stabilizable with finite cost"
        )
    p = np.linalg.solve(u1.T, u2.T).T
    p = 0.5 * (p + p.T)

    res, rel = _are_residual(sys, p)
    for step in range(newton_steps + 1):
        # Every exit leaves a_cl formed from the final p.
        a_cl = sys.a - bbt @ p
        if rel <= 1e-14 or step == newton_steps:
            break
        try:
            delta = solve_continuous_lyapunov(a_cl.T, -res)
        except Exception:  # Lyapunov solve can only fail far from a solution
            break
        p = 0.5 * ((p + delta) + (p + delta).T)
        res, rel = _are_residual(sys, p)
    if rel > tol:
        raise ConvergenceError(
            f"Riccati residual {rel:.3e} above tolerance {tol:.1e} after refinement"
        )
    return AreSolution(
        p=_lock(p),
        residual=rel,
        closed_loop_abscissa=spectral_abscissa(a_cl),
        a_cl=_lock(a_cl),
    )


def _lock(*arrays):
    """Make arrays read-only in place; return the first."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays[0]


def _check_terminal_cost(p0, n: int) -> np.ndarray:
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n, n):
        raise DimensionError(f"p0 must be {n} x {n}, got shape {p0.shape}")
    if np.linalg.norm(p0 - p0.T) > 1e-10 * max(1.0, np.linalg.norm(p0)):
        raise ValueError("p0 must be symmetric")
    if np.linalg.eigvalsh(0.5 * (p0 + p0.T))[0] < -1e-10 * max(
        1.0, np.linalg.norm(p0)
    ):
        raise ValueError("p0 must be positive semidefinite")
    return 0.5 * (p0 + p0.T)


def solve_dre(sys: LtiSystem, horizon: float, p0, steps: int) -> DreSolution:
    """Solve the differential Riccati equation backward from P_T(T) = p0.

    Samples P_T on ``steps`` uniform intervals (at least 2) with the
    exact flow over one interval, :func:`~lqturnpike.operators.riccati_step_flow`,
    applied by :func:`~lqturnpike.operators.riccati_backward_pass`.  The
    samples carry no time-discretization error, so the step count sets
    only where P_T is sampled, and a stiff generator needs no finer step.
    Every sample is symmetrized, and the terminal sample is ``p0`` itself.

    Raises
    ------
    IntegrationError
        If a sample is non-finite.
    """
    horizon = float(horizon)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    p0 = _check_terminal_cost(p0, sys.n)
    flow = riccati_step_flow(sys.a, sys.b, sys.c, horizon / steps)
    p_samples, _ = riccati_backward_pass(flow, p0, steps)
    if not np.all(np.isfinite(p_samples)):
        raise IntegrationError("Riccati flow produced non-finite samples")
    return DreSolution(
        grid=_lock(np.linspace(0.0, horizon, steps + 1)),
        p_samples=_lock(p_samples),
    )


def lifted_orbit(m, v0, nsteps: int) -> np.ndarray:
    """Orbit ``v_j = M^j v0`` for j = 0..nsteps, by binary lifting.

    Level k fills nodes [2^k, 2^{k+1}) from nodes [0, 2^k) with one
    batched product by ``M^{2^k}``, then squares the power for the next
    level: about 2 log2(nsteps) numpy calls for the flops of stepping
    node by node.  Returns an (nsteps + 1, n) array.  For a strongly
    non-normal M, whose powers grow far before they decay, the rounding
    of the squared powers grows with that transient.
    """
    v0 = np.asarray(v0, dtype=float)
    orbit = np.empty((nsteps + 1,) + v0.shape)
    orbit[0] = v0
    power = np.asarray(m, dtype=float)
    lo = 1
    while lo <= nsteps:
        hi = min(2 * lo, nsteps + 1)
        np.matmul(orbit[: hi - lo], power.T, out=orbit[lo:hi])
        lo *= 2
        if lo <= nsteps:
            power = power @ power
    return orbit


def value_function_check(
    sys: LtiSystem,
    are: AreSolution,
    xi,
    horizon: float,
    dt: float,
):
    """Compare <P xi, xi> with the simulated infinite-horizon cost.

    Walks the closed-loop trajectory x' = A_cl x, with ``A_cl = are.a_cl``,
    from xi exactly on the grid, as the orbit of the one-step propagator
    e^{h A_cl} (:func:`lifted_orbit`), and integrates the running cost
    |Cx|^2 + |u|^2, u = -B*P x, by trapezoid quadrature on [0, horizon].

    Returns
    -------
    (quadratic_form, simulated_cost) : tuple of float

    Raises
    ------
    TruncationError
        If the closed-loop propagator at the truncation horizon still has
        norm above 1e-6, so the tail of the integral is not negligible.
    IntegrationError
        If the trajectory has non-finite values.
    """
    xi = np.asarray(xi, dtype=float).reshape(sys.n)
    horizon = float(horizon)
    dt = float(dt)
    if horizon <= 0.0 or dt <= 0.0:
        raise ValueError("horizon and dt must be positive")
    tail = np.linalg.norm(expm(horizon * are.a_cl), 2)
    if tail > 1e-6:
        raise TruncationError(
            f"closed-loop propagator norm {tail:.3e} at t={horizon} exceeds 1e-6; "
            "increase the truncation horizon"
        )
    nsteps = max(2, int(round(horizon / dt)))
    h = horizon / nsteps
    x = lifted_orbit(expm(h * are.a_cl), xi, nsteps)
    if not np.all(np.isfinite(x)):
        raise IntegrationError("closed-loop trajectory has non-finite values")
    cx = x @ sys.c.T
    u = x @ are.p @ sys.b  # u = -B*P x; only |u|^2 enters
    running = np.sum(cx * cx, axis=1) + np.sum(u * u, axis=1)
    simulated = float(h * (np.sum(running) - 0.5 * (running[0] + running[-1])))
    quad_form = float(xi @ (are.p @ xi))
    return quad_form, simulated
