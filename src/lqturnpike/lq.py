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
    implicit trapezoid rule and the cost with trapezoid quadrature; that
    discrete LQ problem's KKT system is solved exactly by the sweep's own
    passes over the trapezoid's one-step map.  Nodal adjoints are
    recovered from the constraint multipliers: the multipliers live
    naturally at interval midpoints, so adjacent multipliers are averaged
    onto nodes and the two boundary nodes get a half-step correction
    from the adjoint equation, which keeps the recovery second-order
    accurate up to and including the endpoints.  The discrete optimality
    law then fixes u = -B* y at every node (at interior nodes this
    reproduces the discrete controls exactly; the nodal control values at
    t = 0 and t = T are a convention, since the continuous problem only
    determines u in L^2).

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

The two solvers share the passes of :mod:`lqturnpike.operators`, which
decide how the grid is walked and refuse a problem whose samples exceed
the memory cap, but not the flow: the transcription steps by the
trapezoid's Cayley map, the sweep by the exact flow of the Riccati pair,
so their errors stay independent.  Both are pure functions returning an
immutable :class:`Trajectory`.
:func:`solve_infinite_horizon` realizes the infinite-horizon problem on
the same grid, the Riccati closed loop around the stationary pair; it
does not solve the finite-horizon problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, expm, lu_factor, lu_solve

from .errors import (
    DimensionError,
    GridMismatchError,
    IntegrationError,
    LqTurnpikeError,
    NonFiniteError,
)
from .operators import (
    LtiSystem,
    _pass_schedule,
    check_sample_memory,
    linear_recurrence,
    riccati_backward_pass,
    riccati_forward_pass,
    riccati_step_flow,
)
from .riccati import _lock, solve_are
from .stationary import solve_stationary

__all__ = [
    "LqProblem",
    "Trajectory",
    "solve_transcription",
    "solve_riccati_sweep",
    "simulate_forward",
    "cost",
    "duality_residual",
    "solve_infinite_horizon",
]

_BLOWUP_LIMIT = 1e12


def _step_count(horizon: float, dt: float) -> int:
    """Number of whole steps of ``dt`` in ``horizon``; at least one.

    The one check that a time grid's horizon and step are positive and finite.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.isfinite(horizon) and np.isfinite(dt)):
        raise ValueError(f"horizon and dt must be finite, got {horizon} and {dt}")
    ratio = horizon / dt
    nsteps = int(round(ratio))
    if nsteps < 1 or abs(ratio - nsteps) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"dt {dt} does not divide horizon {horizon} into whole steps")
    return nsteps


def _check_terminal_cost(p0, n: int) -> np.ndarray:
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n, n):
        raise DimensionError(f"p0 must be {n} x {n}, got shape {p0.shape}")
    if not np.all(np.isfinite(p0)):
        raise NonFiniteError("p0 contains non-finite entries")
    if np.linalg.norm(p0 - p0.T) > 1e-10 * max(1.0, np.linalg.norm(p0)):
        raise ValueError("p0 must be symmetric")
    if np.linalg.eigvalsh(0.5 * (p0 + p0.T))[0] < -1e-10 * max(
        1.0, np.linalg.norm(p0)
    ):
        raise ValueError("p0 must be positive semidefinite")
    return 0.5 * (p0 + p0.T)


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
    dt : float
        Uniform step; T/dt must be an integer number of steps.
    p0 : (n, n) ndarray, optional
        Symmetric positive semidefinite terminal-cost operator; zero if omitted.
    """

    sys: LtiSystem
    horizon: float
    target: np.ndarray
    x0: np.ndarray
    dt: float
    p0: np.ndarray = None

    def __post_init__(self):
        n = self.sys.n
        horizon = float(self.horizon)
        dt = float(self.dt)
        _step_count(horizon, dt)
        for name in ("target", "x0"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if arr.shape != (n,):
                raise DimensionError(f"{name} must have length {n}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        p0 = _check_terminal_cost(np.zeros((n, n)) if self.p0 is None else self.p0, n)
        p0.setflags(write=False)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "dt", dt)

    @property
    def n_steps(self) -> int:
        return _step_count(self.horizon, self.dt)

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


def _nodal_steps(a_mat, h, b, w, v0, what):
    """Exact steps of v' = a v + b w(t) for nodal data w linear between nodes.

    ``w`` has shape (nodes, k, columns) and ``v0`` shape (n, columns) or
    (n, 1); returns the nodal states, shape (nodes, n, columns).  With
    R = e^{hA} and, in the functions phi_k(Z) = sum_i Z^i / (i + k)! of
    Z = h a, one step is the exact map

        v_{i+1} = R v_i + h (phi_1 - phi_2) b w_i + h phi_2 b w_{i+1}

    at any h.  R, phi_1 and phi_2 are the top block row of one exponential
    of [[Z, I, 0], [0, 0, I], [0, 0, 0]] (Van Loan, IEEE TAC 1978), whose
    diagonal holds only Z and zeros, so it grows no faster than e^{hA}
    itself.  Each step's forcing is written into the output, which
    :func:`~lqturnpike.operators.linear_recurrence` walks in place: memory
    is the output plus one array of its size.  Blow-up is caught after.
    """
    n = a_mat.shape[0]
    block = np.zeros((3 * n, 3 * n))
    block[:n, :n] = h * a_mat
    block[: 2 * n, n:] += np.eye(2 * n)  # the two identity blocks
    r, phi1, phi2 = np.split(expm(block)[:n], 3, axis=1)
    out = np.empty((w.shape[0], n, w.shape[2]))
    out[0] = v0
    np.matmul((h * (phi1 - phi2)) @ b, w[:-1], out=out[1:])
    out[1:] += ((h * phi2) @ b) @ w[1:]
    out = linear_recurrence(r, out)
    if not np.all(np.isfinite(out)) or np.max(np.abs(out[-1])) > _BLOWUP_LIMIT:
        raise IntegrationError(
            f"{what} integration diverged: the solution grew past the "
            f"blow-up limit {_BLOWUP_LIMIT:.0e} over the horizon"
        )
    return out


def simulate_forward(prob: LqProblem, u) -> np.ndarray:
    """Integrate x' = A x + B u from x0 for nodal controls u.

    Controls are nodal values interpreted by piecewise-linear
    interpolation.  Accepts a single control path of shape (N + 1, m) or
    a batch of shape (N + 1, m, nbatch); returns state samples of shape
    (N + 1, n) or (N + 1, n, nbatch).

    Each node interval takes the exact step of :func:`_nodal_steps`, so
    the samples carry no time-discretization error and a stiff generator
    needs no finer step; the walk takes about 3 sqrt(N) batched products.
    """
    u = np.asarray(u, dtype=float)
    n_nodes, n = prob.n_steps + 1, prob.sys.n
    if u.shape[:2] != (n_nodes, prob.sys.m):
        raise GridMismatchError(
            f"controls must be sampled on the {n_nodes}-node grid with "
            f"{prob.sys.m} components, got shape {u.shape}"
        )
    cols = u.reshape(n_nodes, prob.sys.m, -1)
    out = _nodal_steps(prob.sys.a, prob.dt, prob.sys.b, cols, prob.x0[:, None], "state")
    return out.reshape((n_nodes, n) + u.shape[2:])


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


def _trajectory(prob: LqProblem, x_nodes, y_nodes, method: str) -> Trajectory:
    """The locked trajectory with u = -B* y; IntegrationError if x or y is non-finite."""
    if not (np.all(np.isfinite(x_nodes)) and np.all(np.isfinite(y_nodes))):
        raise IntegrationError(f"{method} produced non-finite values")
    u_nodes = -(y_nodes @ prob.sys.b)
    grid = prob.grid
    _lock(grid, x_nodes, y_nodes, u_nodes)
    return Trajectory(grid=grid, x=x_nodes, y=y_nodes, u=u_nodes, method=method)


def solve_riccati_sweep(prob: LqProblem) -> Trajectory:
    """Solve the tracking problem by an exact-step Riccati sweep.

    The state is extended by a constant coordinate, so the tracking cost
    becomes plain quadratic through the stacked observation [C, -z]: the
    augmented value matrix Q = [[P_T, r], [r*, w]] solves the Riccati
    equation of (A_aug, B_aug, C_aug) = ([[A, 0], [0, 0]], [B; 0], [C, -z])
    from Q(T) = [[P0, 0], [0, 0]], and carries the feedforward state r as
    its border column.  With the one-step flow (E, V, G) of
    :func:`~lqturnpike.operators.riccati_step_flow`, W = V V*, the
    backward pass (:func:`~lqturnpike.operators.riccati_backward_pass`)
    maps

        Q_j = G + E* Q_{j+1} (I + W Q_{j+1})^{-1} E

    and the forward pass
    (:func:`~lqturnpike.operators.riccati_forward_pass`) solves

        (I + W Q_{j+1}) x_aug(t_{j+1}) = E x_aug(t_j),   x_aug = (x, 1),

    both in the Woodbury form, which solves only with S = I + V* Q V,
    r x r for a V of r <= n + 1 columns.  Both passes are exact in time
    up to rounding, so no step is too coarse for a stiff generator, and
    neither the algebraic Riccati solution nor stabilizability of (A, B)
    is needed.  Then y = P_T x + r, u = -B* y.

    Raises
    ------
    ProblemSizeError
        If the (N + 1)(n + 1)^2 doubles of samples exceed the memory cap.
    IntegrationError
        If the sweep produces non-finite values.
    """
    sys = prob.sys
    n = sys.n
    check_sample_memory(prob.n_steps, n + 1)
    a_aug = np.zeros((n + 1, n + 1))
    a_aug[:n, :n] = sys.a
    b_aug = np.vstack([sys.b, np.zeros((1, sys.m))])
    c_aug = np.hstack([sys.c, -prob.target[:, None]])
    q_end = np.zeros((n + 1, n + 1))
    q_end[:n, :n] = prob.p0
    flow = riccati_step_flow(a_aug, b_aug, c_aug, prob.dt)
    levels = _pass_schedule(flow, prob.n_steps)
    q_nodes = riccati_backward_pass(levels, q_end)
    x_aug = riccati_forward_pass(levels, q_nodes, np.append(prob.x0, 1.0))

    x_nodes = np.ascontiguousarray(x_aug[:, :n])
    y_nodes = np.einsum("tij,tj->ti", q_nodes[:, :n, :], x_aug)
    return _trajectory(prob, x_nodes, y_nodes, "riccati-sweep")


def _nodal_adjoint(prob: LqProblem, x_nodes, nu):
    """Nodal adjoints from the transcription's midpoint multipliers.

    ``nu[i]`` approximates y(t_{i + 1/2}), i = 0..N-1.  Averaging adjacent
    ones is second order at interior nodes, and the two boundary nodes
    take a half-step of the adjoint equation y' = -A* y - C*(C x - z).
    """
    sys = prob.sys
    half = 0.5 * prob.dt
    q_mat = sys.c.T @ sys.c
    q_vec = sys.c.T @ prob.target
    y_nodes = np.empty_like(x_nodes)
    y_nodes[1:-1] = 0.5 * (nu[:-1] + nu[1:])
    y_nodes[0] = nu[0] + half * (
        sys.a.T @ nu[0] + q_mat @ (0.5 * (x_nodes[0] + x_nodes[1])) - q_vec
    )
    y_nodes[-1] = nu[-1] - half * (sys.a.T @ nu[-1] + q_mat @ x_nodes[-1] - q_vec)
    return y_nodes


def solve_transcription(prob: LqProblem) -> Trajectory:
    """Solve the tracking problem by trapezoid transcription.

    The trapezoid dynamics

        (I - dt/2 A) x_{i+1} = (I + dt/2 A) x_i + (dt/2) B (u_i + u_{i+1})

    with the trapezoid cost (weights dt/2 at the end nodes, dt inside,
    plus <P0 x_N, x_N>) are an LQ problem on s_i = (x_i, u_i, 1), with
    u_{i+1} decided at step i.  One LU of I - dt/2 A gives
    Phi = (I - dt/2 A)^{-1} (I + dt/2 A) and Gamma = (I - dt/2 A)^{-1} (dt/2) B,
    and so the flow triple

        E = [[Phi, Gamma, 0], [0, 0, 0], [0, 0, 1]],
        V = [Gamma; I; 0] / sqrt(dt),   G = dt L,

    with W = V V* of rank m, where s* L s = |C x - z|^2 and u_{i+1}
    weighs dt at its decision.
    :func:`~lqturnpike.operators.riccati_backward_pass` runs from the end
    weights (dt/2 L + P0, with u_N down to dt/2) and
    :func:`~lqturnpike.operators.riccati_forward_pass` from (x0, u_0, 1),
    u_0 minimizing the node-0 value at end weights dt/2; this solves the
    discrete KKT system exactly.  Node by node, each pass solves one
    m x m system per node.  The multipliers nu_i = (I - dt/2 A)^{-*}
    (Q_{i+1} s_{i+1})_x approximate y(t_{i+1/2}), and
    :func:`_nodal_adjoint` carries them to the nodes.

    Memory is the (N + 1)(n + m + 1)^2 doubles of the Q samples.  On
    ``heat_1d(n, "boundary_flavored")`` with T = 5 and dt = 1e-2 (2-CPU
    x86-64 host, medians of five solves in each of two processes) one
    solve takes 0.041-0.044 s at n = 50, 0.10-0.15 s at n = 100 and
    0.56-0.65 s at n = 200 on one OpenBLAS thread (0.03-0.04, 0.23-0.27
    and 0.73-0.78 s on two), with process peak RSS of 71, 103 and 226 MB;
    at n = 400 and T = 1 the two are level (0.76-0.95 s against
    0.82-0.86 s).  This call keeps the caller's BLAS thread count; the
    command line runs it on one thread.

    Raises
    ------
    ProblemSizeError
        If the (N + 1)(n + m + 1)^2 doubles of samples exceed the memory cap.
    LqTurnpikeError
        If I - dt/2 A is singular.
    IntegrationError
        If the solve gives non-finite values.
    """
    sys = prob.sys
    n, m = sys.n, sys.m
    nsteps = prob.n_steps
    check_sample_memory(nsteps, n + m + 1)
    dt = prob.dt
    half = 0.5 * dt
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        try:
            lu = lu_factor(np.eye(n) - half * sys.a)
        except LinAlgWarning as exc:
            raise LqTurnpikeError(
                f"the trapezoid step dt={dt} makes I - (dt/2) A singular "
                "(dt/2 times an eigenvalue of A equals 1)"
            ) from exc
    phi_gamma = lu_solve(lu, np.hstack([np.eye(n) + half * sys.a, half * sys.b]))

    u_blk = slice(n, n + m)
    e = np.zeros((n + m + 1, n + m + 1))
    e[:n, : n + m] = phi_gamma
    e[-1, -1] = 1.0
    v = np.vstack([phi_gamma[:, n:], np.eye(m), np.zeros((1, m))])
    ell = np.zeros_like(e)
    ell[:n, :n] = sys.c.T @ sys.c
    ell[:n, -1] = ell[-1, :n] = -(sys.c.T @ prob.target)
    ell[-1, -1] = prob.target @ prob.target
    levels = _pass_schedule((e, v / np.sqrt(dt), dt * ell), nsteps)
    q_end = half * ell
    q_end[:n, :n] += prob.p0
    q_end[u_blk, u_blk] -= half * np.eye(m)
    q_nodes = riccati_backward_pass(levels, q_end)

    # Node 0 carries the end weights dt/2, and u_0 is free.
    v0 = q_nodes[0] - half * ell
    v0[u_blk, u_blk] += half * np.eye(m)
    s_start = np.concatenate([prob.x0, np.zeros(m), [1.0]])
    s_start[u_blk] = -np.linalg.solve(v0[u_blk, u_blk], v0[u_blk] @ s_start)
    s_nodes = riccati_forward_pass(levels, q_nodes, s_start)

    x_nodes = np.ascontiguousarray(s_nodes[:, :n])
    grad = np.einsum("tij,tj->it", q_nodes[1:, :n, :], s_nodes[1:])
    nu = lu_solve(lu, grad, trans=1, check_finite=False).T  # _trajectory refuses NaN
    y_nodes = _nodal_adjoint(prob, x_nodes, nu)
    # Discrete optimality gives u = -B* y exactly at interior nodes; the
    # same law defines the nodal convention at t = 0 and t = T.
    return _trajectory(prob, x_nodes, y_nodes, "transcription")


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


def solve_infinite_horizon(prob: LqProblem) -> Trajectory:
    """Closed-loop realization of the infinite-horizon problem on the problem's grid.

    Solves the stationary pair (x_bar, y_bar) of ``prob.target`` and the
    Riccati equation once, then walks

        x(t) = x_bar + e^{t A_cl} (x0 - x_bar),

    with the closed-loop generator ``A_cl = A - BB*P`` of :func:`solve_are`,
    exactly on the grid as the orbit of the one-step propagator e^{dt A_cl}
    (:func:`~lqturnpike.operators.linear_recurrence` with no forcing), and sets
    y = y_bar + P (x - x_bar), u = -B* y.  The infinite-horizon problem has
    no terminal cost, so ``prob.p0`` is not read; with a zero target,
    ``cost(prob, traj)`` approximates the optimal cost <P x0, x0>.

    Raises
    ------
    UniquenessError
        If the stationary triple is not unique.
    IntegrationError
        If the trajectory has non-finite values.
    """
    sys = prob.sys
    stat = solve_stationary(sys, prob.target)
    are = solve_are(sys)
    dev = np.zeros((prob.n_steps + 1, sys.n))
    dev[0] = prob.x0 - stat.x_bar
    dev = linear_recurrence(expm(prob.dt * are.a_cl), dev)
    return _trajectory(prob, stat.x_bar + dev, stat.y_bar + dev @ are.p, "closed-loop")
