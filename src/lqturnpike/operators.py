"""System triples, matrix semigroups, resolvent smoothing, and structural checks.

This module owns the finite-dimensional realization of a linear control
system: the generator A, the control operator B, and the observation
operator C, all real matrices acting on Euclidean spaces.  On top of the
triple it provides the building blocks the rest of the package relies on:

* evaluation of the state semigroup ``e^{tA}``,
* the resolvent smoother ``J_k = k (kI - A)^{-1}`` and the smoothed
  control operator ``B_k = J_k B`` used to emulate unbounded control
  operators at finite resolution,
* the exact one-step flow of the Riccati equation of a triple, which is
  the one-step semigroup of its Hamiltonian, formed by
  structure-preserving doubling,
* finite-time observability Gramians, read off that flow, and
* the structural hypothesis report (kernel intersections, observability
  margins, and the coercivity constant of ``C*C``) that the turnpike
  estimates require.

All operations are pure functions; :class:`LtiSystem` is immutable after
construction and safe to share across threads.  A control matrix is
admissible at every fixed dimension, but that alone does not carry the
turnpike estimate to the limit: the paper's hypothesis is that the
admissibility constant, the largest eigenvalue of
``observability_gramian((A*, B*), tau)``, stays uniform along the
approximating sequences (the Yosida operators B_k and the refined
boundary column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DimensionError, NonFiniteError, ResolventError

__all__ = [
    "LtiSystem",
    "HypothesisReport",
    "make_system",
    "semigroup",
    "yosida",
    "approx_control_operator",
    "observability_gramian",
    "check_hypotheses",
]


def _as_locked_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LtiSystem:
    """Real matrix triple (A, B, C) of a linear time-invariant system.

    Attributes
    ----------
    a : (n, n) ndarray
        Generator of the state dynamics.
    b : (n, m) ndarray
        Control operator.
    c : (n, n) ndarray
        Observation operator (square, acting on the state space).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n(self) -> int:
        """State dimension."""
        return self.a.shape[0]

    @property
    def m(self) -> int:
        """Control dimension."""
        return self.b.shape[1]


@dataclass(frozen=True)
class HypothesisReport:
    """Structural hypothesis margins for a system triple.

    Attributes
    ----------
    obs_ac : float
        Smallest eigenvalue of the (A, C) observability Gramian on [0, t0].
    obs_astar_bstar : float
        Smallest eigenvalue of the (A*, B*) observability Gramian on [0, t0].
    obs_ac_max, obs_astar_bstar_max : float
        Largest eigenvalues of the same two Gramians.
    ker_ac_trivial : bool
        True iff the stacked matrix [A; C] has full column rank, i.e.
        ker A and ker C intersect trivially.
    ker_astar_bstar_trivial : bool
        Same test for the stacked matrix [A*; B*].
    delta : float
        Coercivity constant of C*C, the squared smallest singular value
        of C.
    delta_max : float
        Squared largest singular value of C, the scale of ``delta``.
    t0 : float
        Horizon used for both Gramians.
    tol : float
        Relative rank tolerance used by the kernel tests.
    """

    obs_ac: float
    obs_astar_bstar: float
    obs_ac_max: float
    obs_astar_bstar_max: float
    ker_ac_trivial: bool
    ker_astar_bstar_trivial: bool
    delta: float
    delta_max: float
    t0: float
    tol: float

    @property
    def satisfied(self) -> bool:
        """Whether every hypothesis holds with a margin above rounding.

        Each Gramian, and C*C, must be positive definite relative to its
        own scale: its smallest eigenvalue above ``tol`` times its
        largest, the test the kernel flags apply to singular values.  A
        smallest eigenvalue at the rounding floor fails whatever its sign.
        """
        return (
            self.ker_ac_trivial
            and self.ker_astar_bstar_trivial
            and self.obs_ac > self.tol * self.obs_ac_max
            and self.obs_astar_bstar > self.tol * self.obs_astar_bstar_max
            and self.delta > self.tol * self.delta_max
        )


def make_system(a, b, c) -> LtiSystem:
    """Validate and freeze a system triple.

    Parameters
    ----------
    a, b, c : array_like
        Generator (n x n), control operator (n x m), and observation
        operator (n x n).  All entries must be finite.

    Returns
    -------
    LtiSystem

    Raises
    ------
    DimensionError
        If the shapes are inconsistent or any dimension is < 1.
    NonFiniteError
        If any entry is NaN or infinite.
    """
    a = _as_locked_matrix(a, "a")
    b = _as_locked_matrix(b, "b")
    c = _as_locked_matrix(c, "c")
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionError(f"a must be square, got shape {a.shape}")
    if n < 1:
        raise DimensionError("state dimension must be at least 1")
    if b.shape[0] != n:
        raise DimensionError(
            f"b must have {n} rows to match a, got shape {b.shape}"
        )
    if b.shape[1] < 1:
        raise DimensionError("control dimension must be at least 1")
    if c.shape != (n, n):
        raise DimensionError(
            f"c must be {n} x {n} to match the state space, got shape {c.shape}"
        )
    return LtiSystem(a=a, b=b, c=c)


def semigroup(sys: LtiSystem, t: float) -> np.ndarray:
    """Evaluate the state semigroup e^{tA} at a nonnegative time.

    Uses the scaling-and-squaring Pade approximation of the matrix
    exponential, accurate to machine-level relative tolerance for the
    well-conditioned matrices used here.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return expm(t * sys.a)


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part of the eigenvalues of a matrix."""
    return float(np.max(np.linalg.eigvals(a).real))


def yosida(sys: LtiSystem, k: float) -> np.ndarray:
    """Resolvent smoother J_k = k (kI - A)^{-1}.

    J_k converges strongly to the identity as k grows, and J_k B is the
    standard bounded surrogate for a rough control operator.

    Raises
    ------
    ResolventError
        If k does not exceed the spectral abscissa of A (which would make
        kI - A singular or the smoother ill-defined).
    """
    k = float(k)
    if k <= 0.0:
        raise ResolventError(f"k must be positive, got {k}")
    abscissa = spectral_abscissa(sys.a)
    if k <= abscissa:
        raise ResolventError(
            f"k={k} does not exceed the spectral abscissa {abscissa:.6g} of A"
        )
    n = sys.n
    try:
        return np.linalg.solve(k * np.eye(n) - sys.a, k * np.eye(n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ResolventError(f"kI - A is singular for k={k}") from exc


def approx_control_operator(sys: LtiSystem, k: float) -> np.ndarray:
    """Smoothed control operator B_k = J_k B."""
    return yosida(sys, k) @ sys.b


def riccati_step_flow(a, b, c, dt: float):
    """Exact one-step flow of the Riccati equation, by doubling.

    Over one step ``dt`` the solution of
    ``-Q' = A*Q + QA + C*C - QBB*Q`` maps as

        Q(t) = G + E* Q(t + dt) (I + W Q(t + dt))^{-1} E,

    and the optimal state of the same problem moves as
    ``x(t + dt) = (I + W Q(t + dt))^{-1} E x(t)``.  The triple is formed
    at ``h0 = dt / 2^k``, small enough that ``h0 * |H|_1 <= 1/2`` for the
    Hamiltonian ``H = [[A, -BB*], [-C*C, -A*]]``, from
    ``Psi = expm(-h0 H)`` as ``E = Psi11^{-1}``, ``W = Psi11^{-1} Psi12``,
    ``G = Psi21 Psi11^{-1}``, and then doubled k times with the
    structure-preserving doubling recursion (Chu, Fan & Lin, Linear
    Algebra Appl. 2005).  No step is exponentiated whole, so stiff
    generators cause no overflow, and no stabilizability is assumed.

    Returns
    -------
    (e, w, g) : three (n, n) ndarrays; ``w`` and ``g`` are symmetric
    positive semidefinite.
    """
    n = a.shape[0]
    ham = np.block([[a, -b @ b.T], [-c.T @ c, -a.T]])
    scale = 2.0 * dt * np.linalg.norm(ham, 1)
    doublings = int(np.ceil(np.log2(scale))) if scale > 1.0 else 0
    psi = expm(-(dt / 2.0**doublings) * ham)
    e = np.linalg.inv(psi[:n, :n])
    w = e @ psi[:n, n:]
    g = psi[n:, :n] @ e
    for _ in range(doublings):
        e, w, g = double_step_flow(e, w, g)
    return e, w, g


def double_step_flow(e, w, g):
    """Flow triple over twice the step of ``(e, w, g)``.

    One structure-preserving doubling step: if ``(e, w, g)`` maps the
    Riccati pair over a step ``tau`` as in :func:`riccati_step_flow`, the
    result maps it over ``2 tau``.  ``w`` and ``g`` stay symmetric.
    """
    n = e.shape[0]
    solved = np.linalg.solve(np.eye(n) + w @ g, np.hstack([e, w]))
    e_solved, w_solved = solved[:, :n], solved[:, n:]
    w = w + e @ w_solved @ e.T
    g = g + e.T @ g @ e_solved
    e = e @ e_solved
    return e, 0.5 * (w + w.T), 0.5 * (g + g.T)


def observability_gramian(pair, t0: float) -> np.ndarray:
    """Finite-time observability Gramian of a pair (M, N).

    The integral of ``e^{tM*} N* N e^{tM}`` for t in [0, t0] is the
    solution at time 0 of ``-Q' = M*Q + QM + N*N`` from ``Q(t0) = 0``,
    the Riccati equation of (M, 0, N).  With no control, ``W = 0`` in the
    flow of :func:`riccati_step_flow` over the single step t0, so its
    ``G`` block is the Gramian, exact up to rounding for stiff and
    unstable M alike.  Use (A, C) for state observability and (A*, B*)
    for the dual pair.

    Parameters
    ----------
    pair : (ndarray, ndarray)
        M is n x n; N has n columns (square or rectangular).
    t0 : float
        Positive integration horizon.

    Returns
    -------
    (n, n) ndarray, symmetric positive semidefinite up to rounding.
    """
    m_op, n_op = pair
    m_op = np.asarray(m_op, dtype=float)
    n_op = np.asarray(n_op, dtype=float)
    if m_op.ndim != 2 or m_op.shape[0] != m_op.shape[1]:
        raise DimensionError(f"M must be square, got shape {m_op.shape}")
    if n_op.ndim != 2 or n_op.shape[1] != m_op.shape[0]:
        raise DimensionError(
            f"N must have {m_op.shape[0]} columns, got shape {n_op.shape}"
        )
    t0 = float(t0)
    if t0 <= 0.0:
        raise ValueError(f"t0 must be positive, got {t0}")
    _, _, gram = riccati_step_flow(m_op, np.zeros((m_op.shape[0], 1)), n_op, t0)
    return 0.5 * (gram + gram.T)


def _full_column_rank(stacked: np.ndarray, tol: float) -> bool:
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    ncols = stacked.shape[1]
    return bool(np.sum(sv > tol * sv[0]) == ncols)


def check_hypotheses(
    sys: LtiSystem,
    t0: float = 1.0,
    tol: float = 1e-10,
) -> HypothesisReport:
    """Evaluate the structural hypotheses of the turnpike estimate.

    Reports the smallest and largest eigenvalues of the (A, C) and
    (A*, B*) observability Gramians on [0, t0], kernel-intersection flags
    via a full-column-rank test on the stacked matrices [A; C] and
    [A*; B*] (singular values above ``tol`` times the largest), and the
    smallest and largest eigenvalues ``delta`` and ``delta_max`` of C*C.  Failures are reported, never
    raised.
    """
    gram_ac = observability_gramian((sys.a, sys.c), t0)
    gram_ab = observability_gramian((sys.a.T, sys.b.T), t0)
    eig_ac = np.linalg.eigvalsh(gram_ac)
    eig_ab = np.linalg.eigvalsh(gram_ab)
    ker_ac = _full_column_rank(np.vstack([sys.a, sys.c]), tol)
    ker_ab = _full_column_rank(np.vstack([sys.a.T, sys.b.T]), tol)
    sv_c = np.linalg.svd(sys.c, compute_uv=False)
    return HypothesisReport(
        obs_ac=float(eig_ac[0]),
        obs_astar_bstar=float(eig_ab[0]),
        obs_ac_max=float(eig_ac[-1]),
        obs_astar_bstar_max=float(eig_ab[-1]),
        ker_ac_trivial=ker_ac,
        ker_astar_bstar_trivial=ker_ab,
        delta=float(sv_c[-1] ** 2),
        delta_max=float(sv_c[0] ** 2),
        t0=float(t0),
        tol=float(tol),
    )
