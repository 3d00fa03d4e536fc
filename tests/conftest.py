import numpy as np
import pytest

import lqturnpike as lab


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
