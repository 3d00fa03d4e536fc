"""Finite-horizon linear-quadratic tracking: two independent solvers and checks.

The tracking problem minimizes

    J_T(x, u) = integral_0^T ( |C x - z|^2 + |u|^2 ) dt  +  <P0 x(T), x(T)>

over controls u, subject to x' = A x + B u, x(0) = x0.  Its optimality
system couples the state with the adjoint

    y' = -A* y - C*(C x - z),   y(T) = P0 x(T),

through the pointwise law u = -B* y.

Two solvers with independent error structure are provided:

``solve_transcription``
    Discretize-then-optimize.  The dynamics are discretized with the
    implicit trapezoid rule, the cost with trapezoid quadrature, and the
    resulting sparse symmetric KKT system in all node states and controls
    is solved directly.  Nodal adjoints are recovered from the constraint
    multipliers: the multipliers live naturally at interval midpoints, so
    adjacent multipliers are averaged onto nodes and the two boundary
    nodes get a half-step correction from the adjoint equation, which
    keeps the recovery second-order accurate up to and including the
    endpoints.  The discrete optimality law then fixes u = -B* y at every
    node (at interior nodes this reproduces the KKT controls exactly; the
    nodal control values at t = 0 and t = T are a convention, since the
    continuous problem only determines u in L^2).

``solve_riccati_sweep``
    Optimize-then-discretize.  The value operator P_T(.) solves the
    differential Riccati equation backward; for a nonzero target the
    adjoint is represented as y = P_T x + r where the feedforward state
    solves

        r'(t) = (P_T(t) B B* - A*) r(t) + C* z,    r(T) = 0,

    obtained by substituting the ansatz into the adjoint equation and
    cancelling with the Riccati equation.  The closed loop
    x' = A x - B B*(P_T x + r) is then followed forward.  Both passes
    take the exact flow of the Riccati pair over one grid step, computed
    once per solve by structure-preserving doubling, so the sweep has no
    time-discretization error and no stability limit on stiff generators.
    Doubling that flow further gives the flow over 2^k steps, so for a
    small state (n + 1 <= 16) both passes run by binary lifting, in
    O(log N) batched calls instead of one call per node; larger states,
    whose per-node matrix work dominates, step node by node.

Both solvers are pure functions returning an immutable :class:`Trajectory`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import expm
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .errors import (
    DimensionError,
    GridMismatchError,
    IntegrationError,
    LqTurnpikeError,
    ProblemSizeError,
)
from .operators import LtiSystem, riccati_backward_pass, riccati_step_flow
from .riccati import _check_terminal_cost, _lock, lifted_orbit, solve_are

__all__ = [
    "LqProblem",
    "Trajectory",
    "solve_transcription",
    "solve_riccati_sweep",
    "adjoint_from_control",
    "simulate_forward",
    "cost",
    "duality_residual",
    "solve_infinite_horizon",
]

TRANSCRIPTION_UNKNOWN_CAP = 2_000_000
_BLOWUP_LIMIT = 1e12


def _step_count(horizon: float, dt: float) -> int:
    """Number of whole steps of ``dt`` in ``horizon``; at least one."""
    ratio = horizon / dt
    nsteps = int(round(ratio))
    if nsteps < 1 or abs(ratio - nsteps) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    return nsteps


@dataclass(frozen=True)
class LqProblem:
    """A finite-horizon tracking problem on a uniform grid.

    Attributes
    ----------
    sys : LtiSystem
    horizon : float
        Final time T > 0.
    target : (n,) ndarray
        Tracking target z.
    x0 : (n,) ndarray
        Initial state.
    p0 : (n, n) ndarray
        Symmetric positive semidefinite terminal-cost operator.
    dt : float
        Uniform step; T/dt must be an integer number of steps.
    """

    sys: LtiSystem
    horizon: float
    target: np.ndarray
    x0: np.ndarray
    p0: np.ndarray
    dt: float

    def __post_init__(self):
        n = self.sys.n
        horizon = float(self.horizon)
        dt = float(self.dt)
        if horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        _step_count(horizon, dt)
        target = np.asarray(self.target, dtype=float).reshape(-1)
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if target.shape != (n,):
            raise DimensionError(f"target must have length {n}, got {target.shape}")
        if x0.shape != (n,):
            raise DimensionError(f"x0 must have length {n}, got {x0.shape}")
        p0 = _check_terminal_cost(self.p0, n)
        for name, arr in (("target", target), ("x0", x0), ("p0", p0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "dt", dt)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """State, adjoint, and control samples of one solved problem.

    Attributes
    ----------
    grid : (N + 1,) ndarray
    x : (N + 1, n) ndarray
    y : (N + 1, n) ndarray
    u : (N + 1, m) ndarray
    method : str
        One of ``transcription``, ``riccati-sweep``, ``closed-loop``.
    """

    grid: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    method: str


def _step_coefficients(a_mat, h):
    """Exact one-step map of v' = a v + w(t) over a step h, w quadratic.

    For forcing quadratic over the step and sampled at its start, middle
    and end,

        v_{j+1} = R v_j + S0 w(t_j) + Sm w(t_j + h/2) + S1 w(t_j + h)

    holds exactly at any h, with R = e^{hA} and, in the functions
    phi_k(Z) = sum_i Z^i / (i + k)! of Z = h a,

        S0 = h (phi_1 - 3 phi_2 + 4 phi_3),
        Sm = 4h (phi_2 - 2 phi_3),   S1 = h (4 phi_3 - phi_2).

    (R, S0, Sm, S1) is returned.  R and the phi_k are the top block row
    of one exponential of [[Z, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I],
    [0, 0, 0, 0]] (Van Loan, IEEE TAC 1978), whose diagonal holds only Z
    and zeros, so it grows no faster than e^{hA} itself.
    """
    n = a_mat.shape[0]
    block = np.zeros((4 * n, 4 * n))
    block[:n, :n] = h * a_mat
    for k in range(3):
        block[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = np.eye(n)
    top = expm(block)[:n]
    r, phi1, phi2, phi3 = (top[:, k * n : (k + 1) * n] for k in range(4))
    s0 = h * (phi1 - 3.0 * phi2 + 4.0 * phi3)
    sm = (4.0 * h) * (phi2 - 2.0 * phi3)
    return r, s0, sm, h * (4.0 * phi3 - phi2)


def _affine_steps(r, out, what):
    """Run v_{j+1} = r v_j + out[j + 1] in place and return ``out``.

    ``out`` has shape (steps + 1, n, columns): on entry ``out[0]`` holds
    v_0 and ``out[j + 1]`` the forcing of step j; on exit it holds the
    states.  Growth that blows up is caught after the loop.
    """
    for j in range(out.shape[0] - 1):
        out[j + 1] += r @ out[j]
    if not np.all(np.isfinite(out)) or np.max(np.abs(out[-1])) > _BLOWUP_LIMIT:
        raise IntegrationError(
            f"{what} integration diverged: the solution grew past the "
            f"blow-up limit {_BLOWUP_LIMIT:.0e} over the horizon"
        )
    return out


def _nodal_steps(a_mat, h, b, w, v0, what):
    """Exact steps of v' = a v + b w(t) for nodal data w linear between nodes.

    ``w`` has shape (nodes, k, columns) and ``v0`` shape (n, columns) or
    (n, 1); returns the nodal states, shape (nodes, n, columns).  The mid
    sample of linear data is the average of the two end nodes, so with
    :func:`_step_coefficients` one step is

        v_{i+1} = R v_i + (S0 + Sm/2) b w_i + (Sm/2 + S1) b w_{i+1}.

    The forcing of every step is written into the output buffer, so
    memory is the output plus one array of its size.
    """
    r, s0, sm, s1 = _step_coefficients(a_mat, h)
    out = np.empty((w.shape[0], a_mat.shape[0], w.shape[2]))
    out[0] = v0
    np.matmul((s0 + 0.5 * sm) @ b, w[:-1], out=out[1:])
    out[1:] += ((0.5 * sm + s1) @ b) @ w[1:]
    return _affine_steps(r, out, what)


def _half_sampled_steps(a_mat, forcing_half, v0, h, nsteps, what="trajectory"):
    """Exact steps of v' = a v + w(t) for forcing sampled at half-step spacing.

    ``forcing_half`` must hold 2*nsteps + 1 samples at spacing h/2, read
    as quadratic over each step: step j uses samples 2j, 2j+1, 2j+2 with
    the coefficients of :func:`_step_coefficients`.  Supports batched
    columns: v0 of shape (n,) or (n, nbatch) with forcing shaped
    accordingly.
    """
    r, s0, sm, s1 = _step_coefficients(a_mat, h)
    n = a_mat.shape[0]
    v0 = np.asarray(v0, dtype=float)
    # Carry states as (n, columns) so one matmul serves both layouts.
    w = np.asarray(forcing_half, dtype=float).reshape((2 * nsteps + 1, n, -1))
    out = np.empty((nsteps + 1, n, w.shape[2]))
    out[0] = v0.reshape(n, -1)
    steps = out[1:]
    np.matmul(s0, w[0:-1:2], out=steps)
    steps += sm @ w[1::2]
    steps += s1 @ w[2::2]
    return _affine_steps(r, out, what).reshape((nsteps + 1,) + v0.shape)


def simulate_forward(prob: LqProblem, u) -> np.ndarray:
    """Integrate x' = A x + B u from x0 for nodal controls u.

    Controls are nodal values interpreted by piecewise-linear
    interpolation.  Accepts a single control path of shape (N + 1, m) or
    a batch of shape (N + 1, m, nbatch); returns state samples of shape
    (N + 1, n) or (N + 1, n, nbatch).

    Each node interval takes the exact step of :func:`_nodal_steps`, so
    the samples carry no time-discretization error and a stiff generator
    needs no finer step; the loop does one matrix product per node.
    """
    u = np.asarray(u, dtype=float)
    n_nodes, n = prob.n_steps + 1, prob.sys.n
    if u.shape[0] != n_nodes or u.shape[1] != prob.sys.m:
        raise GridMismatchError(
            f"controls must be sampled on the {n_nodes}-node grid with "
            f"{prob.sys.m} components, got shape {u.shape}"
        )
    cols = u.reshape(n_nodes, prob.sys.m, -1)
    out = _nodal_steps(prob.sys.a, prob.dt, prob.sys.b, cols, prob.x0[:, None], "state")
    return out.reshape((n_nodes, n) + u.shape[2:])


def adjoint_from_control(prob: LqProblem, u):
    """Recompute the state and adjoint generated by a given control.

    Integrates x' = A x + B u forward from x0, then the adjoint
    y' = -A* y - C*(C x - z) backward from y(T) = P0 x(T).  The state
    takes exact steps of dt/2 (:func:`_nodal_steps`, the midpoint
    controls being node averages), so the adjoint pass, which takes
    exact steps of dt, reads its forcing as quadratic through the node
    and midpoint samples (:func:`_half_sampled_steps`).  The state is
    exact for the piecewise-linear control; the adjoint's error is that
    of the quadratic reading of C*(C x - z).

    Returns
    -------
    (x, y) : ((N + 1, n) ndarray, (N + 1, n) ndarray)
    """
    u = np.asarray(u, dtype=float)
    n_nodes = prob.n_steps + 1
    if u.shape != (n_nodes, prob.sys.m):
        raise GridMismatchError(
            f"controls must have shape ({n_nodes}, {prob.sys.m}), got {u.shape}"
        )
    sys = prob.sys
    u_half = np.empty((2 * prob.n_steps + 1, sys.m, 1))
    u_half[::2, :, 0] = u
    u_half[1::2, :, 0] = 0.5 * (u[:-1] + u[1:])
    x_half = _nodal_steps(
        sys.a, 0.5 * prob.dt, sys.b, u_half, prob.x0[:, None], "state"
    )[:, :, 0]
    # Backward pass in reversed time s = T - t: Y' = A* Y + g(T - s) with
    # g = C*(C x - z); the reversed forcing samples come from the half-step
    # state grid, so no interpolation of computed values is needed.
    g_half = (x_half @ sys.c.T - prob.target) @ sys.c  # C*(C x - z) row-wise
    y_rev = _half_sampled_steps(
        sys.a.T,
        g_half[::-1],
        prob.p0 @ x_half[-1],
        prob.dt,
        prob.n_steps,
        what="adjoint",
    )
    return x_half[::2], y_rev[::-1]


def _trapezoid(values: np.ndarray, dt: float):
    """Composite trapezoid with uniform step along axis 0."""
    return dt * (np.sum(values, axis=0) - 0.5 * (values[0] + values[-1]))


def cost(prob: LqProblem, traj: Trajectory) -> float:
    """Cost J_T of a trajectory: running cost quadrature plus terminal term."""
    n_nodes = prob.n_steps + 1
    if traj.grid.shape[0] != n_nodes or not np.allclose(
        traj.grid, prob.grid, rtol=0.0, atol=1e-9 * max(1.0, prob.horizon)
    ):
        raise GridMismatchError("trajectory grid does not match the problem grid")
    dev = traj.x @ prob.sys.c.T - prob.target
    running = np.sum(dev * dev, axis=1) + np.sum(traj.u * traj.u, axis=1)
    terminal = float(traj.x[-1] @ (prob.p0 @ traj.x[-1]))
    return float(_trapezoid(running, prob.dt) + terminal)


def _sweep_data(prob: LqProblem):
    """One-step flow, terminal value and initial state of the augmented sweep."""
    sys = prob.sys
    n = sys.n
    a_aug = np.zeros((n + 1, n + 1))
    a_aug[:n, :n] = sys.a
    b_aug = np.vstack([sys.b, np.zeros((1, sys.m))])
    c_aug = np.hstack([sys.c, -prob.target[:, None]])
    q_end = np.zeros((n + 1, n + 1))
    q_end[:n, :n] = prob.p0
    x_start = np.append(prob.x0, 1.0)
    return riccati_step_flow(a_aug, b_aug, c_aug, prob.dt), q_end, x_start


def _forward_pass(flow, flows, q_nodes, x_start):
    """Closed loop (I + W Q_{j+1}) x_aug(t_{j+1}) = E x_aug(t_j) from x_start.

    ``flows`` is what the backward pass returned: when it lifted,
    ``flows[k]`` spans 2^k steps and level k takes the nodes j in
    [2^k, 2^{k+1}) from j - 2^k in one batched call; when it is ``None``
    the loop steps node by node with ``flow``.
    """
    e, w, _ = flow
    eye = np.eye(e.shape[0])
    x_aug = np.empty((q_nodes.shape[0], e.shape[0]))
    x_aug[0] = x_start
    if flows is None:
        for j in range(q_nodes.shape[0] - 1):
            x_aug[j + 1] = np.linalg.solve(eye + w @ q_nodes[j + 1], e @ x_aug[j])
        return x_aug
    for level, (e, w, _) in enumerate(flows):
        lo = 2**level
        hi = min(2 * lo, q_nodes.shape[0])
        rhs = (x_aug[: hi - lo] @ e.T)[:, :, None]
        x_aug[lo:hi] = np.linalg.solve(eye + w @ q_nodes[lo:hi], rhs)[:, :, 0]
    return x_aug


def solve_riccati_sweep(prob: LqProblem) -> Trajectory:
    """Solve the tracking problem by an exact-step Riccati sweep.

    The state is extended by a constant coordinate, so the tracking cost
    becomes plain quadratic through the stacked observation [C, -z]: the
    augmented value matrix Q = [[P_T, r], [r*, w]] solves the Riccati
    equation of (A_aug, B_aug, C_aug) = ([[A, 0], [0, 0]], [B; 0], [C, -z])
    from Q(T) = [[P0, 0], [0, 0]], and carries the feedforward state r as
    its border column.  With the one-step flow (E, W, G) of
    :func:`~lqturnpike.operators.riccati_step_flow`, the backward pass
    (:func:`~lqturnpike.operators.riccati_backward_pass`) maps

        Q_j = G + E* Q_{j+1} (I + W Q_{j+1})^{-1} E

    node by node and the forward pass solves

        (I + W Q_{j+1}) x_aug(t_{j+1}) = E x_aug(t_j),   x_aug = (x, 1).

    Both are exact in time up to rounding, so no step is too coarse for
    a stiff generator, and neither the algebraic Riccati solution nor
    stabilizability of (A, B) is needed.  Then y = P_T x + r, u = -B* y.

    The same maps hold over 2^k steps with the doubled flow, so when the
    backward pass lifts (augmented state n + 1 <= 16) the forward pass
    lifts with its doubled flows too, in O(log N) batched numpy calls,
    each block of nodes taken from nodes 2^k steps away.  Larger states
    step node by node: there each node's matrix work outweighs the call
    overhead that lifting saves (on heat_1d(50), n + 1 = 51, lifting was
    1.25x slower).  The two paths agree to rounding, within 3e-14
    relative on rand4.

    Raises
    ------
    IntegrationError
        If the sweep produces non-finite values.
    """
    sys = prob.sys
    n = sys.n
    flow, q_end, x_start = _sweep_data(prob)
    q_nodes, flows = riccati_backward_pass(flow, q_end, prob.n_steps)
    x_aug = _forward_pass(flow, flows, q_nodes, x_start)

    x_nodes = np.ascontiguousarray(x_aug[:, :n])
    y_nodes = np.einsum("tij,tj->ti", q_nodes[:, :n, :], x_aug)
    if not (np.all(np.isfinite(x_nodes)) and np.all(np.isfinite(y_nodes))):
        raise IntegrationError("Riccati sweep produced non-finite values")
    u_nodes = -(y_nodes @ sys.b)
    grid = prob.grid
    _lock(grid, x_nodes, y_nodes, u_nodes)
    return Trajectory(grid=grid, x=x_nodes, y=y_nodes, u=u_nodes, method="riccati-sweep")


def _stamp(rows, cols, data, r0s, c0s, block):
    """Append the non-zero entries of one block at each (row, col) offset pair."""
    block = np.asarray(block, dtype=float)
    br, bc = np.nonzero(block)
    r0s = np.atleast_1d(np.asarray(r0s, dtype=np.int64))
    c0s = np.atleast_1d(np.asarray(c0s, dtype=np.int64))
    rows.append((r0s[:, None] + br[None, :]).ravel())
    cols.append((c0s[:, None] + bc[None, :]).ravel())
    data.append(np.tile(block[br, bc], len(r0s)))


def _kkt_system(prob: LqProblem):
    """Sparse KKT matrix and right-hand side of the transcribed problem.

    The unknowns are all node states, then all node controls, then the
    dynamics multipliers.  Only the structural non-zeros of each block
    (A through the trapezoid blocks, C*C, P0, B and the identities) are
    stored, so a banded generator gives a KKT matrix whose size is linear
    in the state dimension.
    """
    sys = prob.sys
    n, m = sys.n, sys.m
    nsteps = prob.n_steps
    dt = prob.dt
    q_mat = sys.c.T @ sys.c
    q_vec = sys.c.T @ prob.target

    n_x = (n + m) * (nsteps + 1)
    dim = n_x + n * (nsteps + 1)
    x_base = np.arange(nsteps + 1, dtype=np.int64) * n
    u_base = n * (nsteps + 1) + np.arange(nsteps + 1, dtype=np.int64) * m
    mu_base = n_x + np.arange(nsteps + 1, dtype=np.int64) * n

    rows, cols, data = [], [], []

    # Cost Hessian: trapezoid weights dt/2 at the endpoints, dt inside.
    _stamp(rows, cols, data, x_base[1:-1], x_base[1:-1], 2.0 * dt * q_mat)
    _stamp(rows, cols, data, x_base[0], x_base[0], dt * q_mat)
    _stamp(rows, cols, data, x_base[-1], x_base[-1], dt * q_mat + 2.0 * prob.p0)
    _stamp(rows, cols, data, u_base[1:-1], u_base[1:-1], 2.0 * dt * np.eye(m))
    _stamp(rows, cols, data, u_base[0], u_base[0], dt * np.eye(m))
    _stamp(rows, cols, data, u_base[-1], u_base[-1], dt * np.eye(m))

    # Trapezoid dynamics: E x_i - F x_{i-1} - G(u_i + u_{i-1}) = 0.
    e_blk = np.eye(n) - (0.5 * dt) * sys.a
    f_blk = np.eye(n) + (0.5 * dt) * sys.a
    g_blk = (0.5 * dt) * sys.b
    for r0s, c0s, blk in (
        (mu_base[0], x_base[0], np.eye(n)),
        (mu_base[1:], x_base[1:], e_blk),
        (mu_base[1:], x_base[:-1], -f_blk),
        (mu_base[1:], u_base[1:], -g_blk),
        (mu_base[1:], u_base[:-1], -g_blk),
    ):
        _stamp(rows, cols, data, r0s, c0s, blk)
        _stamp(rows, cols, data, c0s, r0s, blk.T)

    weights = np.full(nsteps + 1, dt)
    weights[0] = weights[-1] = 0.5 * dt
    rhs = np.zeros(dim)
    # The node states are stored contiguously, node after node.
    rhs[: n * (nsteps + 1)] = (2.0 * weights[:, None] * q_vec[None, :]).ravel()
    rhs[mu_base[0] : mu_base[0] + n] = prob.x0

    kkt = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsc()
    return kkt, rhs


def solve_transcription(prob: LqProblem) -> Trajectory:
    """Solve the tracking problem by sparse direct transcription.

    Assembles the symmetric KKT system of the trapezoid-discretized
    problem in all node states, node controls, and dynamics multipliers,
    and solves it with a sparse LU factorization.  The KKT matrix stores
    only the non-zeros of A, C*C, B and P0, so for the tridiagonal heat
    generator it grows linearly in n and SuperLU's factorization is
    nearly all of the cost.  On ``heat_1d(n, "boundary_flavored")`` with
    T = 5 and dt = 1e-2 (2-CPU x86-64 host, OpenBLAS with 2 threads) one
    solve takes 0.31 s at n = 50, 0.90 s at n = 100 and 2.6 s at
    n = 200, with process peak RSS of 156, 261 and 498 MB.
    """
    sys = prob.sys
    n, m = sys.n, sys.m
    nsteps = prob.n_steps
    if nsteps * (n + m) > TRANSCRIPTION_UNKNOWN_CAP:
        raise ProblemSizeError(
            f"transcription would need {nsteps * (n + m)} primal unknowns, "
            f"above the cap {TRANSCRIPTION_UNKNOWN_CAP}; use the sweep solver"
        )
    dt = prob.dt
    q_mat = sys.c.T @ sys.c
    q_vec = sys.c.T @ prob.target
    n_x = (n + m) * (nsteps + 1)
    kkt, rhs = _kkt_system(prob)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            sol = spsolve(kkt, rhs)
        except MatrixRankWarning as exc:
            raise LqTurnpikeError("transcription KKT system is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise LqTurnpikeError("transcription KKT system is singular")

    x_nodes = sol[: n * (nsteps + 1)].reshape(nsteps + 1, n)
    mu = sol[n_x:].reshape(nsteps + 1, n)

    # The dynamics multipliers approximate -2 y at interval midpoints:
    # averaging adjacent ones is second-order at interior nodes, and the
    # boundary nodes take a half-step of the adjoint equation.
    nu = -0.5 * mu[1:]  # nu[i] ~ y(t_{i+1/2}), i = 0..nsteps-1
    y_nodes = np.empty_like(x_nodes)
    y_nodes[1:-1] = 0.5 * (nu[:-1] + nu[1:])
    y_nodes[0] = nu[0] + (0.5 * dt) * (
        sys.a.T @ nu[0] + q_mat @ (0.5 * (x_nodes[0] + x_nodes[1])) - q_vec
    )
    y_nodes[-1] = nu[-1] - (0.5 * dt) * (
        sys.a.T @ nu[-1] + q_mat @ x_nodes[-1] - q_vec
    )
    # Discrete optimality gives u = -B* y exactly at interior nodes; the
    # same law defines the nodal convention at t = 0 and t = T.
    u_nodes = -(y_nodes @ sys.b)

    grid = prob.grid
    _lock(grid, x_nodes, y_nodes, u_nodes)
    return Trajectory(grid=grid, x=x_nodes, y=y_nodes, u=u_nodes, method="transcription")


def duality_residual(sys: LtiSystem, forward, backward, horizon: float, dt: float) -> float:
    """Residual of the integration-by-parts identity for dual linear systems.

    For the forward system y' = A y + f + B u + M y, y(0) = y0, and the
    backward system z' = -A* z - g, z(T) = z_T, the exact identity

        <y(T), z_T> - <y0, z(0)>
            = int <u, B* z> - int <y, g> + int <f, z> + int <M y, z>

    holds.  All data are nodal samples interpreted piecewise-linearly;
    both systems take exact steps for that data (:func:`_nodal_steps`)
    and the integrals are evaluated by trapezoid quadrature, so the
    returned residual is second-order in dt.
    """
    y0, f, u, m_op = forward
    z_t, g = backward
    horizon = float(horizon)
    dt = float(dt)
    nsteps = _step_count(horizon, dt)
    n, m = sys.n, sys.m
    y0 = np.asarray(y0, dtype=float).reshape(n)
    z_t = np.asarray(z_t, dtype=float).reshape(n)
    m_op = np.asarray(m_op, dtype=float).reshape(n, n)
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    for name, arr, width in (("f", f, n), ("u", u, m), ("g", g, n)):
        if arr.shape != (nsteps + 1, width):
            raise GridMismatchError(
                f"{name} must have shape ({nsteps + 1}, {width}), got {arr.shape}"
            )

    eye = np.eye(n)
    y_nodes = _nodal_steps(
        sys.a + m_op, dt, eye, (f + u @ sys.b.T)[:, :, None], y0[:, None], "forward"
    )[:, :, 0]
    z_nodes = _nodal_steps(
        sys.a.T, dt, eye, g[::-1, :, None], z_t[:, None], "backward"
    )[::-1, :, 0]

    int_u_bz = _trapezoid(np.sum(u * (z_nodes @ sys.b), axis=1), dt)
    int_y_g = _trapezoid(np.sum(y_nodes * g, axis=1), dt)
    int_f_z = _trapezoid(np.sum(f * z_nodes, axis=1), dt)
    int_my_z = _trapezoid(np.sum((y_nodes @ m_op.T) * z_nodes, axis=1), dt)
    return float(
        abs(
            np.dot(y_nodes[-1], z_t)
            - np.dot(y0, z_nodes[0])
            - int_u_bz
            + int_y_g
            - int_f_z
            - int_my_z
        )
    )


def solve_infinite_horizon(sys: LtiSystem, x0, horizon: float, dt: float) -> Trajectory:
    """Closed-loop realization of the infinite-horizon problem, truncated.

    Solves the Riccati equation, then walks x' = A_cl x, with the
    closed-loop generator ``A_cl = A - BB*P`` of :func:`solve_are`, exactly
    on the grid as the orbit of the one-step propagator e^{dt A_cl}
    (:func:`~lqturnpike.riccati.lifted_orbit`) and sets y = P x,
    u = -B* P x.

    Raises
    ------
    IntegrationError
        If the trajectory has non-finite values.
    """
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    horizon = float(horizon)
    dt = float(dt)
    nsteps = _step_count(horizon, dt)
    are = solve_are(sys)
    x_nodes = lifted_orbit(expm(dt * are.a_cl), x0, nsteps)
    if not np.all(np.isfinite(x_nodes)):
        raise IntegrationError("closed-loop trajectory has non-finite values")
    y_nodes = x_nodes @ are.p
    u_nodes = -(y_nodes @ sys.b)
    grid = np.linspace(0.0, horizon, nsteps + 1)
    _lock(grid, x_nodes, y_nodes, u_nodes)
    return Trajectory(grid=grid, x=x_nodes, y=y_nodes, u=u_nodes, method="closed-loop")
