import time

import numpy as np
import pytest

_SESSION_T0 = time.perf_counter()


def session_elapsed() -> float:
    return time.perf_counter() - _SESSION_T0


def pytest_sessionfinish(session, exitstatus):
    dur = session_elapsed()
    print(f"\nfull suite wall-clock: {dur:.1f}s (budget 60s)")


@pytest.fixture
def uniform_mesh():
    """``mesh(order, panels)``: ``(nodes, weights)`` of Gauss-Legendre on equal panels of [0, 1].

    The rule's own meshes are graded toward both ends, which an L1 norm of
    a function rough inside the interval does not want.  For a power of
    two ``panels`` the edges k / panels are exact, so the nodes and
    weights are bit for bit those of the composite rule's arithmetic with
    the grading strength at 1.
    """

    def mesh(order, panels):
        edges = np.arange(panels + 1) / panels
        x, w = np.polynomial.legendre.leggauss(order)
        half = 0.5 * np.diff(edges)[:, None]
        return (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel(), (half * w).ravel()

    return mesh
