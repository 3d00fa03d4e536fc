"""System triples, Riccati flows, resolvent smoothing, and structural checks.

This module owns the finite-dimensional realization of a linear control
system: the generator A, the control operator B, and the observation
operator C, all real matrices acting on Euclidean spaces.  On top of the
triple it provides the building blocks the rest of the package relies on:

* the resolvent smoother ``J_k = k (kI - A)^{-1}`` and the approximate
  system ``(A, J_k B, C)`` of :func:`yosida_system`, the one way the
  package replaces a rough control operator by a bounded one,
* the exact one-step flow of the Riccati equation of a triple, which is
  the one-step semigroup of its Hamiltonian, formed by
  structure-preserving doubling and carried as ``(E, V, G)`` with
  ``W = V V*`` factored,
* the backward and forward passes of that flow over a uniform grid, on
  the levels of one schedule that lifts the sizes one predicate names,
  the one guard on their samples' memory, and one walker of
  ``v_{j+1} = R v_j + f``,
* finite-time observability Gramians, read off that flow, and
* the structural hypothesis report: stabilizability of (A, B), the
  coercivity constant of ``C*C`` and the (A*, B*) Gramian's extreme
  eigenvalues.

All operations are pure functions; :class:`LtiSystem` is immutable after
construction and safe to share across threads.  A control matrix is
admissible at every fixed dimension, but that alone does not carry the
turnpike estimate to the limit: the paper's hypothesis is that the
admissibility constant, the largest eigenvalue of
``observability_gramian((A*, B*), tau)``, stays uniform along the
approximating sequence, the Yosida systems ``(A, J_k B, C)``.
``heat_1d``'s ``boundary_flavored`` column, whose norm grows like 1/dx,
is no such sequence: on its Dirichlet grid the limit problem is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimensionError, IntegrationError, NonFiniteError, ProblemSizeError, ResolventError
)

__all__ = [
    "LtiSystem",
    "HypothesisReport",
    "make_system",
    "yosida",
    "yosida_system",
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


# The hypothesis report's Gramian horizon, and its relative tolerance for
# rank and definiteness: a singular value or eigenvalue at or below
# _RANK_TOL times the largest counts as zero.
_GRAMIAN_T0 = 1.0
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class HypothesisReport:
    """Structural hypothesis margins for a system triple.

    Attributes
    ----------
    obs_astar_bstar : float
        Smallest eigenvalue of the (A*, B*) observability Gramian on
        [0, ``_GRAMIAN_T0``], the exact-controllability floor.
    obs_astar_bstar_max : float
        Largest eigenvalue of the same Gramian, the admissibility constant.
    delta : float
        Coercivity constant of C*C, the squared smallest singular value
        of C.
    delta_max : float
        Squared largest singular value of C, the scale of ``delta``.
    stabilizable : bool
        Whether (A, B) passes the Hautus test of :func:`_stabilizable`.
    """

    obs_astar_bstar: float
    obs_astar_bstar_max: float
    delta: float
    delta_max: float
    stabilizable: bool

    @property
    def satisfied(self) -> bool:
        """Whether (A, B) is stabilizable and C*C coercive above rounding.

        The lab's choice, not the paper's list: LQ turnpike results in
        Hilbert spaces rest on stabilizability of (A, B) and detectability
        of (A, C) (Trelat, Zhang & Zuazua, SICON 2018; Grune, Schaller &
        Schiela, JDE 2020).  Coercivity makes C injective, so (A, C) is
        observable and ker A meets ker C trivially; stabilizability gives
        rank [A, B] = n, so ker A* meets ker B* trivially.  Exact
        controllability, a definite (A*, B*) Gramian, fails for every heat
        system and is reported, not asked.
        """
        return self.stabilizable and self.delta > _RANK_TOL * self.delta_max


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


def yosida_system(sys: LtiSystem, k: float) -> LtiSystem:
    """The approximate system (A, J_k B, C), solved by the exact problem's own solver."""
    return make_system(sys.a, yosida(sys, k) @ sys.b, sys.c)


def _check_ks(ks) -> list:
    """Smoothing parameters as floats; nonempty, positive and strictly increasing."""
    ks = [float(k) for k in ks]
    if not ks:
        raise ValueError("ks must be nonempty")
    if any(k <= 0.0 for k in ks):
        raise ValueError("all ks must be positive")
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    return ks


# Overflow runs on to inf and NaN for the typed guards, even under ``-W error``.
_let_overflow = np.errstate(over="ignore", invalid="ignore")


@_let_overflow
def _check_target(c, z, *, square: bool) -> None:
    """NonFiniteError unless the target's cost products are finite.

    C*z always, and |z|^2 where the solver may form it (``square``): an
    :class:`~lqturnpike.lq.LqProblem` can reach the transcription, whose
    cost weights hold it; the stationary KKT solve forms C*z only.
    A finite target can still overflow them (C = 1e10, z = 1e300), so the
    problem is refused where it is built.
    """
    if not np.all(np.isfinite(c.T @ z)):
        raise NonFiniteError("the target's cost product C*z is not finite")
    if square and not np.isfinite(z @ z):
        raise NonFiniteError("the target's cost product |z|^2 is not finite")


@_let_overflow
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

    ``W`` is returned as its factor ``V`` (``W = V V*``), for the passes'
    Woodbury form.  ``V`` holds the eigenpairs of ``W`` (scaled by its
    diagonal, see :func:`_psd_factor`) with positive eigenvalue; ``W`` is
    positive semidefinite, so the ones dropped are rounding.  On the
    sweep of ``heat_1d(n)`` at dt = 1e-2, ``V`` keeps 32 to 36 of 51
    columns at n = 50 and 60 to 64 of 101 at n = 100.

    Returns
    -------
    (e, v, g) : (n, n), (n, r) and (n, n) ndarrays with r <= n; ``g`` is
    symmetric positive semidefinite.
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
    return e, _psd_factor(w), g


def _psd_factor(w) -> np.ndarray:
    """V with V V* = W for a symmetric positive semidefinite W.

    The eigenpairs are those of ``D^{-1/2} W D^{-1/2}`` with D the
    diagonal of W, the ones with positive eigenvalue kept.  The scaling
    keeps each entry's rounding relative to its own row and column, so a
    graded W keeps the digits of its small entries.  The transcription's
    doubled W is 1/dt in its control block and small in its state block:
    on random_stable(4, 2, 42) at dt = 1e-3 the lifted forward pass moved
    3e-13 from the unfactored one with a plain eigendecomposition and
    2e-14 with this.  A W that overflowed raises IntegrationError.
    """
    if not np.all(np.isfinite(w)):
        raise IntegrationError("Riccati flow produced non-finite samples")
    scale = np.sqrt(np.abs(np.diag(w)))
    scale[scale == 0.0] = 1.0
    lam, vec = np.linalg.eigh(w / np.outer(scale, scale))
    keep = lam > 0.0
    return np.ascontiguousarray(scale[:, None] * vec[:, keep] * np.sqrt(lam[keep]))


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


# States of size up to this run both passes by binary lifting, larger ones
# node by node.  Lifting saves per-call overhead, which only matters
# while each node's matrix work is small.  On a 2-CPU x86-64 host (CPU
# time, one BLAS thread) the lifted sweep was 40x faster at size 2
# (N = 10,000), 2.6x at 16, 1.3x at 32 and 1.05x at 51 (N = 2,000), but
# ran at 0.93x, 0.69x and 0.59x the stepwise speed at 16, 32 and 51 on
# N = 25.  Of these sizes only 2 has an S narrow enough for the closed
# forms of _solve_small, and with them lifting there is 55-78x faster
# (5.5-8.2 ms against 430-450 ms; 15 against 680 ms with LAPACK).
_LIFTED_SWEEP_MAX_STATE = 16


def _lifts(size: int) -> bool:
    """Whether the passes walk a state of this size by binary lifting.

    The one statement of the threshold: :func:`_pass_schedule` and the
    transcription's choice of route both ask it.
    """
    return size <= _LIFTED_SWEEP_MAX_STATE


# Most nodes one block of a pass takes in one batched call.  A block's
# temporaries are several times its samples, and the last lifted blocks
# would hold up to half the nodes.  On the scalar problem at N = 2.1e6
# (2-CPU x86-64 host) the cap lowered peak RSS from 478 to 334 MiB for
# the transcription and from 267 to 222 MiB for the sweep, at no
# measured cost in time.
_BLOCK_NODES = 65_536

# Most doubles of Riccati samples one solve may hold: 5e7 doubles, 381 MiB.
# Measured peak RSS (2-CPU x86-64 host) was the samples plus 70 MiB node by
# node (heat_1d(200), both solvers) and at most 2.5 times the samples plus
# 60 MiB lifted (the scalar problem at N = 2.1e6), so a solve at the cap
# stays near 1 GiB.
_SAMPLE_CAP = 50_000_000


def check_sample_memory(nsteps: int, size: int) -> None:
    """ProblemSizeError if (nsteps + 1) samples of size x size exceed ``_SAMPLE_CAP``.

    Solvers call this before they form their flow, so a refused problem
    costs nothing.
    """
    doubles = (nsteps + 1) * size * size
    if doubles > _SAMPLE_CAP:
        raise ProblemSizeError(
            f"the Riccati samples would hold {doubles:.3g} doubles "
            f"({nsteps + 1} nodes of size {size}), above the cap of "
            f"{_SAMPLE_CAP:.3g} doubles; use a coarser dt, a shorter horizon "
            "or a smaller state"
        )


@_let_overflow
def _pass_schedule(flow, nsteps: int) -> list:
    """Levels ``(flow over span, lo, hi, span)`` covering nodes 1..nsteps in order.

    Each level takes the nodes ``[lo, hi)`` from ``[lo - span, hi - span)``,
    counted from the pass's starting node, with the flow ``(e, v, g)`` of
    :func:`riccati_step_flow` over ``span`` steps; the last ``hi`` is
    ``nsteps + 1``.  All nodes a level reads lie before its ``lo``, so
    :func:`_batches` may cut it anywhere.  A state of size up to
    ``_LIFTED_SWEEP_MAX_STATE`` is lifted: level k spans 2^k steps, the
    flow doubled and refactored once per level, about log2(nsteps) levels
    in all.  A larger state, whose per-node matrix work outweighs the call
    overhead lifting saves, gets the one level ``(flow, 1, nsteps + 1, 1)``.
    A solve forms its levels once and walks both passes on them.  With no
    control, doubling keeps W exactly zero and every level's V of width 0.
    """
    e, v, g = flow
    if not _lifts(e.shape[0]):
        return [(flow, 1, nsteps + 1, 1)]
    w = v @ v.T
    levels = [(flow, 1, min(2, nsteps + 1), 1)]
    while levels[-1][2] <= nsteps:
        lo = levels[-1][2]
        e, w, g = double_step_flow(e, w, g)
        levels.append(((e, _psd_factor(w), g), lo, min(2 * lo, nsteps + 1), lo))
    return levels


def _batches(levels):
    """The levels in batches ``(flow, lo, hi, span)`` of ``min(span, _BLOCK_NODES)`` nodes."""
    for flow, lo, hi, span in levels:
        for start in range(lo, hi, min(span, _BLOCK_NODES)):
            yield flow, start, min(start + span, start + _BLOCK_NODES, hi), span


def _solve_small(s, rhs):
    """``S^{-1} rhs`` for a (..., r, r) batch of the passes' S, in closed form at r <= 2.

    At r = 1 it divides (Sherman-Morrison, Hager 1989), at r = 2 it takes
    one elimination step without pivoting, and at any other r it calls
    ``np.linalg.solve``, whose LAPACK call costs 0.1 to 0.3 us per matrix
    however small.  Every step is elementwise over the batch, so a node's
    result does not depend on the batch it is taken in.  Neither closed
    form pivots, which is safe for a symmetric positive definite S, whose
    leading entry and Schur complement are positive; S = I + V* Q V is one
    wherever the passes form it.  On the sweep Q is positive semidefinite,
    and on the transcription S is the scaled Hessian of a cost strictly
    convex in the decided control.
    """
    r = s.shape[-1]
    if r == 1:
        return rhs / s
    if r == 2:
        s00, s01 = s[..., :1, :1], s[..., :1, 1:]
        s10, s11 = s[..., 1:, :1], s[..., 1:, 1:]
        b0, b1 = rhs[..., :1, :], rhs[..., 1:, :]
        ratio = s10 / s00
        x1 = (b1 - ratio * b0) / (s11 - ratio * s01)
        return np.concatenate([(b0 - s01 * x1) / s00, x1], axis=-2)
    return np.linalg.solve(s, rhs)


@_let_overflow
def riccati_backward_pass(levels, q_end) -> np.ndarray:
    """Riccati samples at every node of a uniform grid, exact up to rounding.

    With the one-step flow ``(e, v, g)`` of :func:`riccati_step_flow`,
    the pass maps

        Q_j = G + E* Q_{j+1} (I + V V* Q_{j+1})^{-1} E
            = G + E* (Q_{j+1} - Q_{j+1} V S^{-1} V* Q_{j+1}) E,
        S = I + V* Q_{j+1} V,

    backward from ``Q_N = q_end``, which is stored as given; the second
    line is the Woodbury form, which solves only the r x r system S for
    a V of width r.  :func:`_solve_small` solves it in closed form at
    r = 1 (the scalar sweep, the scalar transcription's first level and
    a nonsymmetric one-control transcription such as
    ``random_stable(20, 1, 7)``; a ``heat_1d`` transcription above 14
    cells walks ``lq._modal_walk`` and never calls it) and r = 2 (the
    scalar transcription's lifted levels), and by LAPACK
    at the heat sweep's r = 32 to 36 (50 state cells) and 60 to 64 (100
    cells).  The same map holds over 2^k steps with the doubled
    flow.  ``levels`` are :func:`_pass_schedule` of that flow, and each
    batch of :func:`_batches` takes its nodes in one batched call.

    Returns
    -------
    (N + 1, size, size) ndarray of samples in node order.
    """
    q_nodes = np.empty((levels[-1][2],) + q_end.shape)
    q_rev = q_nodes[::-1]  # q_rev[k] is node N - k
    q_rev[0] = q_end
    for (e, v, g), lo, hi, span in _batches(levels):
        q = q_rev[lo - span : hi - span]
        qv = q @ v
        s = np.eye(v.shape[1]) + v.T @ qv
        prev = g + e.T @ (q - qv @ _solve_small(s, qv.swapaxes(1, 2))) @ e
        q_rev[lo:hi] = 0.5 * (prev + prev.swapaxes(1, 2))
    return q_nodes


@_let_overflow
def riccati_forward_pass(levels, q_nodes, x_start) -> np.ndarray:
    """Closed loop ``x_{j+1} = E x_j - V S^{-1} V* Q_{j+1} E x_j`` from ``x_start``.

    This is ``(I + V V* Q_{j+1}) x_{j+1} = E x_j`` in the Woodbury form
    of :func:`riccati_backward_pass`, with ``S = I + V* Q_{j+1} V``.
    ``q_nodes`` are that pass's samples on the same ``levels``, which take
    the state over 2^k steps when they lift; returns the (N + 1, size) states.
    """
    x_nodes = np.empty((q_nodes.shape[0], x_start.shape[0]))
    x_nodes[0] = x_start
    for (e, v, _), lo, hi, span in _batches(levels):
        # One product per node: the rows of one 2-d product per batch can
        # round differently with the batch's row count (a single row takes
        # another BLAS route), and the block cap changes those counts.
        ex = e @ x_nodes[lo - span : hi - span, :, None]
        vq = v.T @ q_nodes[lo:hi]
        s = np.eye(v.shape[1]) + vq @ v
        x_nodes[lo:hi] = (ex - v @ _solve_small(s, vq @ ex))[:, :, 0]
    return x_nodes


@_let_overflow
def linear_recurrence(r, out) -> np.ndarray:
    """``out[j + 1] += r @ out[j]`` for j = 0..N-1, in place; returns ``out``.

    ``out`` is (N + 1, n) or (N + 1, n, columns): the start, then the
    forcing.  In blocks of L = isqrt(N) nodes, every block first runs from
    zero, all at once in L batched products; then each block in turn adds
    ``r, ..., r^L`` times the node before it.  That is about 3 sqrt(N)
    calls instead of N; the temporaries are 2L nodes and the L powers.
    """
    x = out[..., None] if out.ndim == 2 else out
    nodes = x.shape[0]
    span = max(math.isqrt(nodes - 1), 1)
    for i in range(1, span):
        ahead = x[1 + i :: span]
        ahead += r @ x[i::span][: len(ahead)]
    powers = np.empty((span,) + r.shape)
    powers[0] = r
    for i in range(1, span):
        np.matmul(r, powers[i - 1], out=powers[i])
    for lo in range(1, nodes, span):
        x[lo : lo + span] += powers[: nodes - lo] @ x[lo - 1]
    return out


def observability_gramian(pair, t0: float) -> np.ndarray:
    """Finite-time observability Gramian of a pair (M, N).

    The integral of ``e^{tM*} N* N e^{tM}`` for t in [0, t0] is the
    solution at time 0 of ``-Q' = M*Q + QM + N*N`` from ``Q(t0) = 0``,
    the Riccati equation of (M, 0, N).  With no control, ``W = 0`` in the
    flow of :func:`riccati_step_flow` over the single step t0, so its
    ``G`` block is the Gramian, exact up to rounding for stiff and
    unstable M alike, or IntegrationError where it overflows.  Use (A, C)
    for state observability and (A*, B*) for the dual pair.

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


def _stabilizable(a: np.ndarray, b: np.ndarray) -> bool:
    """rank [A - mu I, B] = n at each eigenvalue mu of A with Re mu >= -_RANK_TOL rho(A).

    The rank counts singular values above ``_RANK_TOL`` times the largest.
    """
    n = a.shape[0]
    mus = np.linalg.eigvals(a)
    floor = -_RANK_TOL * np.max(np.abs(mus))
    for mu in mus[mus.real >= floor]:
        sv = np.linalg.svd(np.hstack([a - mu * np.eye(n), b]), compute_uv=False)
        if np.sum(sv > _RANK_TOL * sv[0]) < n:
            return False
    return True


def check_hypotheses(sys: LtiSystem) -> HypothesisReport:
    """Evaluate the structural hypotheses of the turnpike estimate.

    Reports the smallest and largest eigenvalues of the (A*, B*)
    observability Gramian on [0, ``_GRAMIAN_T0``], the smallest and
    largest eigenvalues ``delta`` and ``delta_max`` of C*C, and the
    Hautus test of (A, B).  Failures are reported, never raised; a Gramian
    that overflows raises IntegrationError.
    """
    eig_ab = np.linalg.eigvalsh(observability_gramian((sys.a.T, sys.b.T), _GRAMIAN_T0))
    sv_c = np.linalg.svd(sys.c, compute_uv=False)
    return HypothesisReport(
        obs_astar_bstar=float(eig_ab[0]),
        obs_astar_bstar_max=float(eig_ab[-1]),
        delta=float(sv_c[-1] ** 2),
        delta_max=float(sv_c[0] ** 2),
        stabilizable=_stabilizable(sys.a, sys.b),
    )
