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

Both solvers are pure functions returning an immutable :class:`Trajectory`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .errors import (
    DimensionError,
    GridMismatchError,
    IntegrationError,
    LqTurnpikeError,
    ProblemSizeError,
)
from .operators import LtiSystem
from .riccati import (
    _BLOWUP_LIMIT,
    _check_terminal_cost,
    _lock,
    riccati_step_flow,
    solve_are,
)

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
        ratio = horizon / dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"horizon {horizon} is not an integer multiple of dt {dt}"
            )
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


def _refine_linear(values: np.ndarray, factor: int) -> np.ndarray:
    """Exact piecewise-linear refinement of nodal data by an integer factor."""
    nodes = values.shape[0]
    out = np.empty((factor * (nodes - 1) + 1,) + values.shape[1:])
    out[::factor] = values
    for j in range(1, factor):
        w = j / factor
        out[j::factor] = (1.0 - w) * values[:-1] + w * values[1:]
    return out


def _rk4_linear(a_mat, forcing_half, v0, h, nsteps, what="trajectory"):
    """RK4 for v' = a v + w(t) with forcing sampled at half-step spacing.

    ``forcing_half`` must hold 2*nsteps + 1 samples at spacing h/2; step j
    uses samples 2j, 2j+1, 2j+2.  Supports batched columns: v0 of shape
    (n,) or (n, nbatch) with forcing shaped accordingly.
    """
    v = np.array(v0, dtype=float)
    out = np.empty((nsteps + 1,) + v.shape)
    out[0] = v
    for j in range(nsteps):
        w0 = forcing_half[2 * j]
        wm = forcing_half[2 * j + 1]
        w1 = forcing_half[2 * j + 2]
        k1 = a_mat @ v + w0
        k2 = a_mat @ (v + (0.5 * h) * k1) + wm
        k3 = a_mat @ (v + (0.5 * h) * k2) + wm
        k4 = a_mat @ (v + h * k3) + w1
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j + 1] = v
    if not np.all(np.isfinite(out)) or np.max(np.abs(out[-1])) > _BLOWUP_LIMIT:
        raise IntegrationError(
            f"{what} integration diverged; the step does not resolve the "
            "fastest generator mode"
        )
    return out


def simulate_forward(prob: LqProblem, u) -> np.ndarray:
    """Integrate x' = A x + B u from x0 for nodal controls u.

    Controls are nodal values interpreted by piecewise-linear
    interpolation.  Accepts a single control path of shape (N + 1, m) or
    a batch of shape (N + 1, m, nbatch); returns state samples of shape
    (N + 1, n) or (N + 1, n, nbatch).
    """
    u = np.asarray(u, dtype=float)
    n_nodes = prob.n_steps + 1
    if u.shape[0] != n_nodes or u.shape[1] != prob.sys.m:
        raise GridMismatchError(
            f"controls must be sampled on the {n_nodes}-node grid with "
            f"{prob.sys.m} components, got shape {u.shape}"
        )
    batched = u.ndim == 3
    # Integrate at half the grid step so downstream backward passes can
    # consume exact mid-step state samples; the control is refined to the
    # quarter grid, which is exact for piecewise-linear data.
    u_quarter = _refine_linear(u, 4)
    if batched:
        forcing = np.einsum("ij,tjb->tib", prob.sys.b, u_quarter)
        x0 = np.broadcast_to(prob.x0[:, None], (prob.sys.n, u.shape[2]))
    else:
        forcing = u_quarter @ prob.sys.b.T
        x0 = prob.x0
    fine = _rk4_linear(
        prob.sys.a, forcing, x0, 0.5 * prob.dt, 2 * prob.n_steps, what="state"
    )
    return fine[::2]


def adjoint_from_control(prob: LqProblem, u):
    """Recompute the state and adjoint generated by a given control.

    Integrates x' = A x + B u forward from x0, then the adjoint
    y' = -A* y - C*(C x - z) backward from y(T) = P0 x(T).

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
    u_quarter = _refine_linear(u, 4)
    x_fine = _rk4_linear(
        sys.a,
        u_quarter @ sys.b.T,
        prob.x0,
        0.5 * prob.dt,
        2 * prob.n_steps,
        what="state",
    )
    # Backward pass in reversed time s = T - t: Y' = A* Y + g(T - s) with
    # g = C*(C x - z); the reversed forcing samples come from the fine
    # state grid, so no interpolation of computed values is needed.
    g_fine = (x_fine @ sys.c.T - prob.target) @ sys.c  # C*(C x - z) row-wise
    y_rev = _rk4_linear(
        sys.a.T,
        g_fine[::-1],
        prob.p0 @ x_fine[-1],
        prob.dt,
        prob.n_steps,
        what="adjoint",
    )
    return x_fine[::2], y_rev[::-1]


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


def solve_riccati_sweep(prob: LqProblem) -> Trajectory:
    """Solve the tracking problem by an exact-step Riccati sweep.

    The state is extended by a constant coordinate, so the tracking cost
    becomes plain quadratic through the stacked observation [C, -z]: the
    augmented value matrix Q = [[P_T, r], [r*, w]] solves the Riccati
    equation of (A_aug, B_aug, C_aug) = ([[A, 0], [0, 0]], [B; 0], [C, -z])
    from Q(T) = [[P0, 0], [0, 0]], and carries the feedforward state r as
    its border column.  With the one-step flow (E, W, G) of
    :func:`~lqturnpike.riccati.riccati_step_flow`, the backward pass maps

        Q_j = G + E* Q_{j+1} (I + W Q_{j+1})^{-1} E

    node by node and the forward pass solves

        (I + W Q_{j+1}) x_aug(t_{j+1}) = E x_aug(t_j),   x_aug = (x, 1).

    Both are exact in time up to rounding, so no step is too coarse for
    a stiff generator, and neither the algebraic Riccati solution nor
    stabilizability of (A, B) is needed.  Then y = P_T x + r, u = -B* y.

    Raises
    ------
    IntegrationError
        If the sweep produces non-finite values.
    """
    sys = prob.sys
    n, nsteps = sys.n, prob.n_steps
    a_aug = np.zeros((n + 1, n + 1))
    a_aug[:n, :n] = sys.a
    b_aug = np.vstack([sys.b, np.zeros((1, sys.m))])
    c_aug = np.hstack([sys.c, -prob.target[:, None]])
    e, w, g = riccati_step_flow(a_aug, b_aug, c_aug, prob.dt)
    eye = np.eye(n + 1)

    q_nodes = np.zeros((nsteps + 1, n + 1, n + 1))
    q_nodes[nsteps, :n, :n] = prob.p0
    for j in range(nsteps, 0, -1):
        q = q_nodes[j]
        prev = g + e.T @ q @ np.linalg.solve(eye + w @ q, e)
        q_nodes[j - 1] = 0.5 * (prev + prev.T)

    x_aug = np.empty((nsteps + 1, n + 1))
    x_aug[0, :n] = prob.x0
    x_aug[0, n] = 1.0
    for j in range(nsteps):
        x_aug[j + 1] = np.linalg.solve(eye + w @ q_nodes[j + 1], e @ x_aug[j])

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
    the integrals are evaluated by trapezoid quadrature, so the returned
    residual is second-order in dt.
    """
    y0, f, u, m_op = forward
    z_t, g = backward
    horizon = float(horizon)
    dt = float(dt)
    nsteps = int(round(horizon / dt))
    if abs(horizon / dt - nsteps) > 1e-9 * max(1.0, horizon / dt):
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
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

    forcing = _refine_linear(f + u @ sys.b.T, 2)
    y_nodes = _rk4_linear(sys.a + m_op, forcing, y0, dt, nsteps, what="forward")
    z_rev = _rk4_linear(sys.a.T, _refine_linear(g, 2)[::-1], z_t, dt, nsteps, what="backward")
    z_nodes = z_rev[::-1]

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

    Solves the Riccati equation, then integrates x' = (A - BB*P) x with
    RK4 and sets y = P x, u = -B* P x.
    """
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    horizon = float(horizon)
    dt = float(dt)
    nsteps = int(round(horizon / dt))
    if nsteps < 1 or abs(horizon / dt - nsteps) > 1e-9 * max(1.0, horizon / dt):
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    are = solve_are(sys)
    a_cl = sys.a - sys.b @ (sys.b.T @ are.p)
    x = x0.copy()
    x_nodes = np.empty((nsteps + 1, sys.n))
    x_nodes[0] = x
    for i in range(nsteps):
        k1 = a_cl @ x
        k2 = a_cl @ (x + (0.5 * dt) * k1)
        k3 = a_cl @ (x + (0.5 * dt) * k2)
        k4 = a_cl @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_nodes[i + 1] = x
    if not np.all(np.isfinite(x_nodes)) or np.max(np.abs(x_nodes)) > _BLOWUP_LIMIT:
        raise IntegrationError("closed-loop integration diverged")
    y_nodes = x_nodes @ are.p
    u_nodes = -(y_nodes @ sys.b)
    grid = np.linspace(0.0, horizon, nsteps + 1)
    _lock(grid, x_nodes, y_nodes, u_nodes)
    return Trajectory(grid=grid, x=x_nodes, y=y_nodes, u=u_nodes, method="closed-loop")
