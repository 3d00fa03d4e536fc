from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import expm

import lqturnpike as lab
from lqturnpike import operators, turnpike


@pytest.fixture(scope="session")
def scalar():
    """Canonical scalar instance (system, target, initial state)."""
    return lab.scalar_example()


@pytest.fixture(scope="session")
def rand4():
    """Seeded 4x4 random stable system with companion target and state."""
    sys_ = lab.random_stable(4, 2, 42)
    z, x0 = np.ones(4), np.zeros(4)
    return sys_, z, x0


@pytest.fixture(scope="session")
def scalar_pipeline(scalar):
    """Stationary triple and Riccati solution of the scalar instance."""
    sys_, z, _ = scalar
    return lab.solve_stationary(sys_, z), lab.solve_are(sys_)


@pytest.fixture(params=[1e-3, 1e-2])
def off_turnpike_solver(request, monkeypatch):
    """Registers a ``transcription`` that solves on B (1 + eps), eps = the param.

    ``verify_turnpike`` still measures each solve against the true
    stationary triple and Riccati solution, so the gap stops decaying and
    no one envelope constant fits several horizons.
    """
    solve = turnpike.SOLVERS["transcription"]

    def off(prob):
        return solve(replace(prob, sys=replace(prob.sys, b=prob.sys.b * (1 + request.param))))

    monkeypatch.setitem(turnpike.SOLVERS, "transcription", off)


def _rk4_dre(sys_, horizon, p0, steps):
    """Samples of the differential Riccati equation by classical RK4.

    Integrates -P' = A*P + PA + C*C - PBB*P backward from P(T) = p0 with
    ``steps`` uniform steps, symmetrizing after each.  An independent
    route to the exact flow of :func:`lqturnpike.solve_dre`: its error is
    the fourth-order truncation of the step, where the flow's is
    rounding alone.
    """
    at, b, ctc = sys_.a.T, sys_.b, sys_.c.T @ sys_.c
    h = horizon / steps

    def rate(q):
        s = at @ q
        g = q @ b
        return s + s.T + ctc - g @ g.T

    samples = np.empty((steps + 1,) + p0.shape)
    samples[steps] = q = p0
    for j in range(steps - 1, -1, -1):
        k1 = rate(q)
        k2 = rate(q + (0.5 * h) * k1)
        k3 = rate(q + (0.5 * h) * k2)
        k4 = rate(q + h * k3)
        q = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        samples[j] = q = 0.5 * (q + q.T)
    return samples


@pytest.fixture(scope="session")
def rk4_dre():
    """The RK4 oracle for the Riccati flow, ``(sys, T, p0, steps) -> samples``."""
    return _rk4_dre


def _half_sampled_steps(a_mat, forcing_half, v0, h, nsteps):
    """Exact steps of v' = a v + w(t) for forcing sampled at half-step spacing.

    ``forcing_half`` holds 2*nsteps + 1 samples at spacing h/2, read as
    quadratic over each step: step j uses samples 2j, 2j+1, 2j+2 in

        v_{j+1} = R v_j + S0 w(t_j) + Sm w(t_j + h/2) + S1 w(t_j + h),

    exact at any h, with R = e^{hA} and, in the functions
    phi_k(Z) = sum_i Z^i / (i + k)! of Z = h a,

        S0 = h (phi_1 - 3 phi_2 + 4 phi_3),
        Sm = 4h (phi_2 - 2 phi_3),   S1 = h (4 phi_3 - phi_2),

    read off the top block row of one exponential of [[Z, I, 0, 0],
    [0, 0, I, 0], [0, 0, 0, I], [0, 0, 0, 0]].  An independent route to
    :func:`lqturnpike.lq._nodal_steps`: its own exponential and a
    quadratic reading of the forcing, where the nodal steps read it as
    linear.  ``v0`` of shape (n,) or (n, columns), forcing shaped
    accordingly.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    n = a_mat.shape[0]
    block = np.zeros((4 * n, 4 * n))
    block[:n, :n] = h * a_mat
    block[: 3 * n, n:] += np.eye(3 * n)
    r, phi1, phi2, phi3 = np.split(expm(block)[:n], 4, axis=1)
    s0 = h * (phi1 - 3.0 * phi2 + 4.0 * phi3)
    sm = (4.0 * h) * (phi2 - 2.0 * phi3)
    s1 = h * (4.0 * phi3 - phi2)
    v0 = np.asarray(v0, dtype=float)
    w = np.asarray(forcing_half, dtype=float).reshape((2 * nsteps + 1, n, -1))
    out = np.empty((nsteps + 1, n, w.shape[2]))
    out[0] = v0.reshape(n, -1)
    steps = out[1:]
    np.matmul(s0, w[0:-1:2], out=steps)
    steps += sm @ w[1::2]
    steps += s1 @ w[2::2]
    for j in range(nsteps):
        out[j + 1] += r @ out[j]
    return out.reshape((nsteps + 1,) + v0.shape)


@pytest.fixture(scope="session")
def half_sampled_steps():
    """The quadratic-forcing oracle of the exact steps, ``(a, w, v0, h, N) -> v``."""
    return _half_sampled_steps


def _direct_schedule(flow, nsteps):
    """Batches ``(e, w, g), lo, hi, span`` of the passes, on the unfactored flow.

    The same walk as the levels of :func:`lqturnpike.operators._pass_schedule`
    without the block-size cap of their batches: a state whose size
    ``operators._lifts`` takes level k over 2^k steps with ``W`` itself
    doubled, any other its single level node by node.
    """
    lifted = operators._lifts(flow[0].shape[0])
    lo = 1
    while lo <= nsteps:
        if lifted and lo > 1:
            flow = operators.double_step_flow(*flow)
        span = lo if lifted else 1
        yield flow, lo, min(lo + span, nsteps + 1), span
        lo += span


def _direct_backward_pass(flow, q_end, nsteps):
    """Riccati samples by the direct map Q_j = G + E* Q (I + W Q)^{-1} E.

    ``flow`` is ``(e, w, g)`` with ``W = V V*`` formed.  Solving the full
    size-square system at every node, it is an independent route to the
    Woodbury body of :func:`lqturnpike.operators.riccati_backward_pass`.
    """
    eye = np.eye(q_end.shape[0])
    q_nodes = np.empty((nsteps + 1,) + q_end.shape)
    q_rev = q_nodes[::-1]  # q_rev[k] is node N - k
    q_rev[0] = q_end
    for (e, w, g), lo, hi, span in _direct_schedule(flow, nsteps):
        q = q_rev[lo - span : hi - span]
        prev = g + e.T @ q @ np.linalg.solve(eye + w @ q, e[None])
        q_rev[lo:hi] = 0.5 * (prev + prev.swapaxes(1, 2))
    return q_nodes


def _direct_forward_pass(flow, q_nodes, x_start):
    """Closed loop by the direct solve (I + W Q_{j+1}) x_{j+1} = E x_j."""
    eye = np.eye(x_start.shape[0])
    x_nodes = np.empty((q_nodes.shape[0], x_start.shape[0]))
    x_nodes[0] = x_start
    for (e, w, _), lo, hi, span in _direct_schedule(flow, q_nodes.shape[0] - 1):
        rhs = (x_nodes[lo - span : hi - span] @ e.T)[:, :, None]
        x_nodes[lo:hi] = np.linalg.solve(eye + w @ q_nodes[lo:hi], rhs)[:, :, 0]
    return x_nodes


@pytest.fixture(scope="session")
def direct_passes():
    """The unfactored oracle of the Riccati passes, ``(backward, forward)``."""
    return _direct_backward_pass, _direct_forward_pass


def _stepwise_recurrence(r, forced):
    """``v_{j+1} = r v_j + forced[j + 1]`` from ``v_0 = forced[0]``, node by node.

    One product per node, the loop that
    :func:`lqturnpike.operators.linear_recurrence` walks in blocks.
    Returns a new array; ``forced`` is left as it is.
    """
    out = np.array(forced, dtype=float)
    for j in range(out.shape[0] - 1):
        out[j + 1] += r @ out[j]
    return out


@pytest.fixture(scope="session")
def stepwise_recurrence():
    """The node-by-node oracle of the blocked walker, ``(r, forced) -> v``."""
    return _stepwise_recurrence


def _lifted_orbit(m, v0, nsteps):
    """Orbit ``v_j = M^j v0`` for j = 0..nsteps, by power squaring.

    Level k fills nodes [2^k, 2^{k+1}) from nodes [0, 2^k) with one
    batched product by ``M^{2^k}``, then squares the power.  An independent
    route to the unforced walk of
    :func:`lqturnpike.operators.linear_recurrence`, whose powers are
    repeated products over blocks of about sqrt(nsteps) nodes.
    """
    orbit = np.empty((nsteps + 1,) + v0.shape)
    orbit[0] = v0
    power = m
    lo = 1
    while lo <= nsteps:
        hi = min(2 * lo, nsteps + 1)
        np.matmul(orbit[: hi - lo], power.T, out=orbit[lo:hi])
        lo *= 2
        if lo <= nsteps:
            power = power @ power
    return orbit


@pytest.fixture(scope="session")
def lifted_orbit():
    """The power-squaring oracle of the closed-loop orbit, ``(M, v0, N) -> orbit``."""
    return _lifted_orbit


def _stamp(rows, cols, data, r0s, c0s, block):
    """Append the non-zero entries of one block at each (row, col) offset pair."""
    block = np.asarray(block, dtype=float)
    br, bc = np.nonzero(block)
    r0s = np.atleast_1d(np.asarray(r0s, dtype=np.int64))
    c0s = np.atleast_1d(np.asarray(c0s, dtype=np.int64))
    rows.append((r0s[:, None] + br[None, :]).ravel())
    cols.append((c0s[:, None] + bc[None, :]).ravel())
    data.append(np.tile(block[br, bc], len(r0s)))


def _kkt_system(prob):
    """Sparse KKT matrix and right-hand side of the transcribed problem.

    The unknowns are all node states, then all node controls, then the
    dynamics multipliers.  Only the structural non-zeros of each block
    (A through the trapezoid blocks, C*C, P0, B and the identities) are
    stored, so a banded generator gives a KKT matrix whose size is linear
    in the state dimension.  The multipliers mu approximate -2 y:
    ``-0.5 * mu[1:]`` are the midpoint adjoints that
    :func:`lqturnpike.solve_transcription` recovers by its Riccati passes.
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


@pytest.fixture(scope="session")
def kkt_system():
    """The sparse KKT oracle of the transcription, ``prob -> (kkt, rhs)``."""
    return _kkt_system
