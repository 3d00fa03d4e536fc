"""Stationary optimization: the steady-state KKT triple and its smoothed variants.

The stationary problem minimizes ``|Cx - z|^2 + |u|^2`` over all pairs with
``Ax + Bu = 0``.  Its optimality system is the linear saddle-point system

    A x + B u           = 0
    C*C x + A* y        = C* z
    u + B* y            = 0

in the unknowns (x, u, y), where y is the Lagrange multiplier of the
equality constraint.  The system is solved directly as one dense linear
solve of dimension 2n + m; non-uniqueness surfaces as rank deficiency of
the KKT matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, UniquenessError
from .operators import LtiSystem, approx_control_operator

__all__ = [
    "StationaryTriple",
    "solve_stationary",
    "solve_stationary_approx",
    "stationary_convergence_study",
]


@dataclass(frozen=True)
class StationaryTriple:
    """Solution (x_bar, u_bar, y_bar) of the stationary problem with residuals.

    The residuals are the norms of the three KKT equations evaluated at
    the returned triple:

    * ``residual_constraint`` = |A x_bar + B u_bar|
    * ``residual_adjoint``    = |A* y_bar + C*(C x_bar - z)|
    * ``residual_control``    = |u_bar + B* y_bar|

    where B is the (possibly smoothed) control operator the triple was
    solved with.
    """

    x_bar: np.ndarray
    u_bar: np.ndarray
    y_bar: np.ndarray
    residual_constraint: float
    residual_adjoint: float
    residual_control: float


def _check_target(sys: LtiSystem, z) -> np.ndarray:
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (sys.n,):
        raise DimensionError(
            f"target z must have length {sys.n}, got {z.shape}"
        )
    return z


def _check_ks(ks) -> list:
    """Smoothing parameters as floats; nonempty and strictly increasing."""
    ks = [float(k) for k in ks]
    if not ks:
        raise ValueError("ks must be nonempty")
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    return ks


def _solve_kkt(a: np.ndarray, b: np.ndarray, c: np.ndarray, z: np.ndarray):
    n = a.shape[0]
    m = b.shape[1]
    dim = 2 * n + m
    kkt = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    ctc = c.T @ c
    # rows 0..n: constraint; rows n..2n: adjoint equation; rest: control law
    kkt[:n, :n] = a
    kkt[:n, n : n + m] = b
    kkt[n : 2 * n, :n] = ctc
    kkt[n : 2 * n, n + m :] = a.T
    kkt[2 * n :, n : n + m] = np.eye(m)
    kkt[2 * n :, n + m :] = b.T
    rhs[n : 2 * n] = c.T @ z

    def _rank_failure():
        sv = np.linalg.svd(kkt, compute_uv=False)
        rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0)))
        return UniquenessError(
            "stationary KKT matrix is rank deficient "
            f"(rank {rank} of {dim}); the optimal triple is not unique",
            rank=rank,
            full_rank=dim,
        )

    try:
        sol = scipy.linalg.solve(kkt, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise _rank_failure() from exc
    if not np.all(np.isfinite(sol)):
        raise _rank_failure()
    # Guard near-singular solves that slipped through the factorization.
    scale = max(np.linalg.norm(rhs), 1.0) * max(np.linalg.norm(sol), 1.0)
    if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * scale:
        raise _rank_failure()
    return sol[:n], sol[n : n + m], sol[n + m :]


def _triple_from(a, b_eff, c, z) -> StationaryTriple:
    x_bar, u_bar, y_bar = _solve_kkt(a, b_eff, c, z)
    res_constraint = float(np.linalg.norm(a @ x_bar + b_eff @ u_bar))
    res_adjoint = float(np.linalg.norm(a.T @ y_bar + c.T @ (c @ x_bar - z)))
    res_control = float(np.linalg.norm(u_bar + b_eff.T @ y_bar))
    return StationaryTriple(
        x_bar=x_bar,
        u_bar=u_bar,
        y_bar=y_bar,
        residual_constraint=res_constraint,
        residual_adjoint=res_adjoint,
        residual_control=res_control,
    )


def solve_stationary(sys: LtiSystem, z) -> StationaryTriple:
    """Solve the stationary problem for target z.

    Raises
    ------
    UniquenessError
        If the KKT matrix is rank deficient (the structural hypotheses on
        kernel triviality or observability fail); the error names the
        deficient rank.
    """
    z = _check_target(sys, z)
    return _triple_from(sys.a, sys.b, sys.c, z)


def solve_stationary_approx(sys: LtiSystem, z, k: float) -> StationaryTriple:
    """Solve the stationary problem with the smoothed control operator B_k.

    Identical to :func:`solve_stationary` with B replaced by
    ``B_k = J_k B``; the control residual is evaluated against B_k.
    """
    z = _check_target(sys, z)
    b_k = approx_control_operator(sys, k)
    return _triple_from(sys.a, b_k, sys.c, z)


def stationary_convergence_study(sys: LtiSystem, z, ks):
    """Error table of the smoothed triples against the exact triple.

    Parameters
    ----------
    ks : sequence of float
        Nonempty, strictly increasing smoothing parameters.

    Returns
    -------
    list of (k, err_x, err_u, err_y) tuples, ordered by k.
    """
    ks = _check_ks(ks)
    z = _check_target(sys, z)
    exact = solve_stationary(sys, z)
    rows = []
    for k in ks:
        approx = solve_stationary_approx(sys, z, k)
        rows.append(
            (
                k,
                float(np.linalg.norm(approx.x_bar - exact.x_bar)),
                float(np.linalg.norm(approx.u_bar - exact.u_bar)),
                float(np.linalg.norm(approx.y_bar - exact.y_bar)),
            )
        )
    return rows
