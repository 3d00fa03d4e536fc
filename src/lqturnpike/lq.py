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
    discrete LQ problem's KKT system is solved exactly by Riccati passes
    over the trapezoid's one-step map: the sweep's own passes, or, for a
    symmetric A with one control whose state the passes walk node by
    node, the same two recursions in A's eigenbasis, where the map is
    diagonal but for one column.  Nodal adjoints are recovered from the
    constraint multipliers: the multipliers live naturally at interval
    midpoints, so adjacent multipliers are averaged onto nodes and the
    two boundary nodes get a half-step correction from the adjoint
    equation, which keeps the recovery second-order accurate up to and
    including the endpoints.  The discrete optimality
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

Both solvers refuse a problem whose samples exceed the memory cap of
:mod:`lqturnpike.operators`, and both walk its passes but on the
transcription's eigenbasis route, which walks its own two.  They never
share the flow: the transcription steps by the trapezoid's Cayley map,
the sweep by the exact flow of the Riccati pair, so their errors stay
independent.  Both are pure functions returning an immutable
:class:`Trajectory`.  :func:`solve_infinite_horizon` realizes the
infinite-horizon problem on the same grid, the Riccati closed loop
around the stationary pair; it does not solve the finite-horizon
problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, eigh, expm, lu_factor, lu_solve
from scipy.linalg.blas import dger

from .errors import (
    DimensionError,
    GridMismatchError,
    IntegrationError,
    LqTurnpikeError,
    NonFiniteError,
)
from .operators import (
    LtiSystem,
    _check_target,
    _let_overflow,
    _lifts,
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
        _check_target(self.sys.c, self.target, square=True)
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


def _free_start(q0, ell, s_start, half: float, n: int) -> np.ndarray:
    """(x0, u_0, 1) from ``s_start`` = (x0, 0, 1), which it changes in place.

    Node 0 carries the end weights dt/2, and u_0 is free: it minimizes
    the node-0 value.
    """
    u_blk = slice(n, s_start.shape[0] - 1)
    v0 = q0 - half * ell
    v0[u_blk, u_blk] += half * np.eye(u_blk.stop - n)
    s_start[u_blk] = -np.linalg.solve(v0[u_blk, u_blk], v0[u_blk] @ s_start)
    return s_start


def _dense_walk(prob, lu, ell, q_end, s_start):
    """States and midpoint multipliers of the transcription, by the generic passes.

    The flow triple is the dense one of :func:`solve_transcription`, from
    one LU of I - dt/2 A, on :func:`~lqturnpike.operators._pass_schedule`'s
    levels.
    """
    sys = prob.sys
    n, m = sys.n, sys.m
    dt = prob.dt
    half = 0.5 * dt
    phi_gamma = lu_solve(lu, np.hstack([np.eye(n) + half * sys.a, half * sys.b]))
    e = np.zeros((n + m + 1, n + m + 1))
    e[:n, : n + m] = phi_gamma
    e[-1, -1] = 1.0
    v = np.vstack([phi_gamma[:, n:], np.eye(m), np.zeros((1, m))])
    levels = _pass_schedule((e, v / np.sqrt(dt), dt * ell), prob.n_steps)
    q_nodes = riccati_backward_pass(levels, q_end)
    s_start = _free_start(q_nodes[0], ell, s_start, half, n)
    s_nodes = riccati_forward_pass(levels, q_nodes, s_start)

    x_nodes = np.ascontiguousarray(s_nodes[:, :n])
    grad = np.einsum("tij,tj->it", q_nodes[1:, :n, :], s_nodes[1:])
    nu = lu_solve(lu, grad, trans=1, check_finite=False).T  # _trajectory refuses NaN
    return x_nodes, nu


@_let_overflow
def _modal_backward_pass(flow, q_end, nsteps: int):
    """Riccati samples and gains for a one-control map diagonal but for one column.

    The map of :func:`~lqturnpike.operators.riccati_backward_pass`, node
    by node from ``Q_N = q_end``.  ``flow`` is ``(d, gamma, v, g)``:
    E = diag(d) plus the column ``gamma`` (length n) from the control,
    entry n of the state, to the n states, with ``d`` zero at the
    control, ``v`` the column of the generic pass's V and ``g`` its G,
    zero on the control's row and column.  With w = Q_{j+1} v and
    S = 1 + v* w, the Woodbury form M = Q_{j+1} - w w* / S is never
    formed: off the control

        Q_j = G + (d d*) o Q_{j+1} - (d o w^)(d o w^)*,   w^ = w / sqrt(S),

    the last term one in-place BLAS rank-one update, and the control's
    row and column are d o c and their crossing gamma* c_x, with
    c = Q_{j+1}[:, :n] gamma - w^ (w^_x* gamma) = M_{:,x} gamma.  Every
    term is symmetric to the bit, so every sample is.  Returns the
    (N + 1, size, size) samples and the (N + 1, size) gains
    k_{j+1} = w / S of :func:`_modal_forward_pass`; row 0 of the gains
    is zero, as no step ends at node 0.
    """
    d, gamma, v, g = flow
    n = gamma.shape[0]
    dd = np.outer(d, d)
    q_nodes = np.empty((nsteps + 1,) + q_end.shape)
    q_nodes[-1] = q_end
    gains = np.empty((nsteps + 1, q_end.shape[0]))
    gains[0] = 0.0
    for j in range(nsteps - 1, -1, -1):
        q = q_nodes[j + 1]
        w = q @ v
        s = 1.0 + v @ w
        np.divide(w, s, out=gains[j + 1])
        w /= np.sqrt(s)
        prev = np.multiply(dd, q, out=q_nodes[j])
        prev += g
        dw = d * w
        # prev.T is Fortran-ordered over prev's memory, so dger updates prev in place.
        dger(-1.0, dw, dw, a=prev.T, overwrite_a=True)
        c = q[:, :n] @ gamma
        c -= w * (w[:n] @ gamma)
        prev[n] = prev[:, n] = d * c
        prev[n, n] = gamma @ c[:n]
    return q_nodes, gains


@_let_overflow
def _modal_forward_pass(flow, gains, s_start) -> np.ndarray:
    """Closed loop of :func:`_modal_backward_pass`'s map from its gains, O(size) a node.

    ``flow`` is ``(d, gamma, v)`` of that pass.  Each step forms
    E s_j = d o s_j plus gamma times the control entry on the n states,
    then s_{j+1} = E s_j - v (k_{j+1}* E s_j): the generic
    x_{j+1} = E x_j - V S^{-1} V* Q_{j+1} E x_j with V* Q_{j+1} = w*, as
    every sample is symmetric to the bit.  Returns the (N + 1, size) states.
    """
    d, gamma, v = flow
    n = gamma.shape[0]
    s_nodes = np.empty(gains.shape)
    s_nodes[0] = s_start
    for j in range(gains.shape[0] - 1):
        ex = d * s_nodes[j]
        ex[:n] += s_nodes[j, n] * gamma
        np.subtract(ex, (gains[j + 1] @ ex) * v, out=s_nodes[j + 1])
    return s_nodes


@_let_overflow
def _modal_walk(prob, ell, q_end, s_start):
    """States and midpoint multipliers of the transcription, in A's eigenbasis.

    For symmetric A = U diag(lambda) U* and one control, the coordinates
    (U* x, u, 1) make the Cayley map diag((1 + h lambda) / (1 - h lambda)),
    h = dt/2, and Gamma the column U* h B / (1 - h lambda), so E is
    diagonal but for that column.  :func:`_modal_backward_pass` walks it
    back and records its gains, and :func:`_modal_forward_pass` walks the
    closed loop on those gains, so E is never formed.  The weights, the
    start and the multipliers' (I - h A)^{-*} are taken in the same
    coordinates, the last a division by 1 - h lambda; x and nu are
    mapped back by U.
    """
    sys = prob.sys
    n = sys.n
    dt = prob.dt
    half = 0.5 * dt
    lam, basis = eigh(sys.a)
    frame = np.eye(n + 2)
    frame[:n, :n] = basis
    ell, q_end = (frame.T @ mat @ frame for mat in (ell, q_end))
    ell, q_end = 0.5 * (ell + ell.T), 0.5 * (q_end + q_end.T)
    resolvent = 1.0 / (1.0 - half * lam)
    gamma = half * resolvent * (basis.T @ sys.b[:, 0])
    d = np.concatenate([(1.0 + half * lam) * resolvent, [0.0, 1.0]])
    v = np.concatenate([gamma, [1.0, 0.0]]) / np.sqrt(dt)
    q_nodes, gains = _modal_backward_pass((d, gamma, v, dt * ell), q_end, prob.n_steps)
    s_start = _free_start(q_nodes[0], ell, frame.T @ s_start, half, n)
    s_nodes = _modal_forward_pass((d, gamma, v), gains, s_start)

    grad = (q_nodes[1:, :n, :] @ s_nodes[1:, :, None])[:, :, 0]
    return s_nodes[:, :n] @ basis.T, (grad * resolvent) @ basis.T


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
    weighs dt at its decision.  A backward pass runs from the end
    weights (dt/2 L + P0, with u_N down to dt/2) and a forward pass from
    (x0, u_0, 1), u_0 minimizing the node-0 value at end weights dt/2;
    this solves the discrete KKT system exactly.  The multipliers
    nu_i = (I - dt/2 A)^{-*} (Q_{i+1} s_{i+1})_x approximate
    y(t_{i+1/2}), and :func:`_nodal_adjoint` carries them to the nodes.

    Two routes walk the passes.  A state size n + m + 1 that
    :func:`~lqturnpike.operators._lifts` takes, a nonsymmetric A or more
    than one control walks
    :func:`~lqturnpike.operators.riccati_backward_pass` and
    :func:`~lqturnpike.operators.riccati_forward_pass` on the dense
    triple, two (n + m + 1)-square products per node when it walks node
    by node.  A larger state with A exactly symmetric and m = 1 is walked
    in A's eigenbasis by :func:`_modal_walk`, O((n + 2)^2) work per
    backward node and O(n) per forward node.

    Memory is the (N + 1)(n + m + 1)^2 doubles of the Q samples on either
    route, and the eigenbasis route's (N + 1)(n + 2) gains.  On
    ``heat_1d(n, "boundary_flavored")`` with T = 5 and dt = 1e-2 (2-CPU
    x86-64 host, one OpenBLAS thread as the command line runs it, medians
    of nine solves in each of two processes) one solve takes 0.014 s at
    n = 50, 0.032 s at n = 100 and 0.097-0.100 s at n = 200 in A's
    eigenbasis, against 0.034, 0.115-0.120 and 0.54-0.56 s on the dense
    triple.  This call keeps the caller's BLAS thread count.

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
    check_sample_memory(prob.n_steps, n + m + 1)
    dt = prob.dt
    half = 0.5 * dt
    # Both routes refuse a singular step here; only the dense one solves with the LU.
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        try:
            lu = lu_factor(np.eye(n) - half * sys.a)
        except LinAlgWarning as exc:
            raise LqTurnpikeError(
                f"the trapezoid step dt={dt} makes I - (dt/2) A singular "
                "(dt/2 times an eigenvalue of A equals 1)"
            ) from exc

    u_blk = slice(n, n + m)
    ell = np.zeros((n + m + 1, n + m + 1))
    ell[:n, :n] = sys.c.T @ sys.c
    ell[:n, -1] = ell[-1, :n] = -(sys.c.T @ prob.target)
    ell[-1, -1] = prob.target @ prob.target
    q_end = half * ell
    q_end[:n, :n] += prob.p0
    q_end[u_blk, u_blk] -= half * np.eye(m)
    s_start = np.concatenate([prob.x0, np.zeros(m), [1.0]])
    if m == 1 and np.array_equal(sys.a, sys.a.T) and not _lifts(n + m + 1):
        x_nodes, nu = _modal_walk(prob, ell, q_end, s_start)
    else:
        x_nodes, nu = _dense_walk(prob, lu, ell, q_end, s_start)
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
