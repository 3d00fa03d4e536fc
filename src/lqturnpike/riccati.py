"""Algebraic and differential Riccati equations.

The infinite-horizon value operator P is the stabilizing solution of

    A*P + P A + C*C - P B B* P = 0,

computed here by the Hamiltonian-Schur method (ordered real Schur form of
the 2n x 2n Hamiltonian) followed by a few Newton-Kleinman refinement
steps.  :func:`solve_are` also returns the closed-loop generator
A - BB*P, formed once, and its spectral abscissa, whose negation is the
turnpike rate; every closed-loop computation reads it from there.

The finite-horizon value operator P_T(.) solves the matrix differential
Riccati equation

    P_T'(t) + A* P_T(t) + P_T(t) A + C*C - P_T(t) B B* P_T(t) = 0,
    P_T(T) = P0.

:func:`solve_dre` samples it on the grid of an :class:`~lqturnpike.lq.LqProblem`
with the exact one-step flow of :func:`lqturnpike.operators.riccati_step_flow`,
formed by structure-preserving doubling, through the same backward pass as
the tracking sweep in :mod:`lqturnpike.lq`, so stiff generators need no
finer step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_continuous_lyapunov

from .errors import ConvergenceError, IntegrationError, NotStabilizableError
from .operators import (
    LtiSystem,
    _pass_schedule,
    check_sample_memory,
    riccati_backward_pass,
    riccati_step_flow,
    spectral_abscissa,
)

__all__ = [
    "AreSolution",
    "DreSolution",
    "solve_are",
    "solve_dre",
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


# solve_are's acceptance bound on the relative residual, and its budget of
# Newton-Kleinman corrections.
_ARE_TOL = 1e-10
_NEWTON_STEPS = 5


def solve_are(sys: LtiSystem) -> AreSolution:
    """Solve the algebraic Riccati equation by Hamiltonian-Schur + Newton.

    The stable invariant subspace of the Hamiltonian
    ``[[A, -BB*], [-C*C, -A*]]`` yields P; up to five Newton-Kleinman
    corrections (each a Lyapunov solve with the current closed-loop
    generator) polish the residual, stopping early once it reaches
    ``1e-14`` or once a correction fails to halve it: near the rounding
    floor a further solve no longer pays (``heat_1d(200)`` stalls at
    about 2e-14 after one correction), and Newton's convergence is
    quadratic before it.  The last correction's P is kept.

    Raises
    ------
    NotStabilizableError
        If the Hamiltonian has no stable invariant subspace of dimension n
        (finite cost condition violated).
    ConvergenceError
        If the relative residual stays above ``1e-10`` after refinement.
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
    last = np.inf  # the residual before the latest correction
    for step in range(_NEWTON_STEPS + 1):
        # Every exit leaves a_cl formed from the final p.
        a_cl = sys.a - bbt @ p
        if rel <= 1e-14 or step == _NEWTON_STEPS or rel > 0.5 * last:
            break
        try:
            delta = solve_continuous_lyapunov(a_cl.T, -res)
        except Exception:  # Lyapunov solve can only fail far from a solution
            break
        p = 0.5 * ((p + delta) + (p + delta).T)
        last = rel
        res, rel = _are_residual(sys, p)
    if rel > _ARE_TOL:
        raise ConvergenceError(
            f"Riccati residual {rel:.3e} above tolerance {_ARE_TOL:.1e} after refinement"
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


def solve_dre(prob) -> DreSolution:
    """Solve the differential Riccati equation of ``prob`` backward from its p0.

    Samples P_T at the nodes of ``prob.grid`` with the exact flow over one
    step of ``prob.dt``, :func:`~lqturnpike.operators.riccati_step_flow`,
    applied by :func:`~lqturnpike.operators.riccati_backward_pass`.  The
    samples carry no time-discretization error, so ``prob.dt`` sets only
    where P_T is sampled, and a stiff generator needs no finer step.  Every
    sample is symmetrized, and the terminal sample is ``prob.p0`` itself.
    The Riccati equation does not depend on the tracking data, so
    ``prob.target`` and ``prob.x0`` are not read.

    Raises
    ------
    ProblemSizeError
        If the (steps + 1) n^2 doubles of samples exceed the memory cap.
    IntegrationError
        If a sample is non-finite.
    """
    sys, steps = prob.sys, prob.n_steps
    check_sample_memory(steps, sys.n)
    flow = riccati_step_flow(sys.a, sys.b, sys.c, prob.dt)
    p_samples = riccati_backward_pass(_pass_schedule(flow, steps), prob.p0)
    if not np.all(np.isfinite(p_samples)):
        raise IntegrationError("Riccati flow produced non-finite samples")
    return DreSolution(grid=_lock(prob.grid), p_samples=_lock(p_samples))

