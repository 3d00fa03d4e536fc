"""Stationary optimization: the steady-state KKT triple and its Yosida convergence.

The stationary problem minimizes ``|Cx - z|^2 + |u|^2`` over all pairs with
``Ax + Bu = 0``.  Its optimality system is the linear saddle-point system

    A x + B u           = 0
    C*C x + A* y        = C* z
    u + B* y            = 0

in the unknowns (x, u, y), where y is the Lagrange multiplier of the
equality constraint.  The system is solved directly as one dense linear
solve of dimension 2n + m; non-uniqueness surfaces as rank deficiency of
the KKT matrix.  The approximate problems of the convergence study are the
same problem on :func:`~lqturnpike.operators.yosida_system`, solved by the
same :func:`solve_stationary`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, UniquenessError
from .operators import LtiSystem, _check_ks, yosida_system

__all__ = [
    "StationaryTriple",
    "solve_stationary",
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

    where A, B and C are the system the triple was solved with; for a
    :func:`~lqturnpike.operators.yosida_system` B is B_k.
    """

    x_bar: np.ndarray
    u_bar: np.ndarray
    y_bar: np.ndarray
    residual_constraint: float
    residual_adjoint: float
    residual_control: float


def _solve_kkt(sys: LtiSystem, z: np.ndarray):
    a, b, c = sys.a, sys.b, sys.c
    n, m = sys.n, sys.m
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

    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            sol = scipy.linalg.solve(kkt, rhs)
        except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
            raise _rank_failure() from None
    if not np.all(np.isfinite(sol)):
        raise _rank_failure()
    # Guard near-singular solves that slipped through the factorization.
    scale = max(np.linalg.norm(rhs), 1.0) * max(np.linalg.norm(sol), 1.0)
    if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * scale:
        raise _rank_failure()
    return sol[:n], sol[n : n + m], sol[n + m :]


def solve_stationary(sys: LtiSystem, z) -> StationaryTriple:
    """Solve the stationary problem for target z.

    Raises
    ------
    UniquenessError
        If the KKT matrix is singular or too ill-conditioned to solve;
        the error names its numerical rank.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape != (sys.n,):
        raise DimensionError(f"target z must have length {sys.n}, got {z.shape}")
    x_bar, u_bar, y_bar = _solve_kkt(sys, z)
    a, b, c = sys.a, sys.b, sys.c
    return StationaryTriple(
        x_bar=x_bar,
        u_bar=u_bar,
        y_bar=y_bar,
        residual_constraint=float(np.linalg.norm(a @ x_bar + b @ u_bar)),
        residual_adjoint=float(np.linalg.norm(a.T @ y_bar + c.T @ (c @ x_bar - z))),
        residual_control=float(np.linalg.norm(u_bar + b.T @ y_bar)),
    )


def stationary_convergence_study(sys: LtiSystem, z, ks):
    """Error table of the triples of ``yosida_system(sys, k)`` against the exact triple.

    Parameters
    ----------
    ks : sequence of float
        Nonempty, positive, strictly increasing smoothing parameters.

    Returns
    -------
    list of (k, err_x, err_u, err_y) tuples, ordered by k.
    """
    ks = _check_ks(ks)
    exact = solve_stationary(sys, z)
    rows = []
    for k in ks:
        approx = solve_stationary(yosida_system(sys, k), z)
        rows.append(
            (
                k,
                float(np.linalg.norm(approx.x_bar - exact.x_bar)),
                float(np.linalg.norm(approx.u_bar - exact.u_bar)),
                float(np.linalg.norm(approx.y_bar - exact.y_bar)),
            )
        )
    return rows
