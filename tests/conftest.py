import numpy as np
import pytest

from quartic.bvp import ProblemSpec, _lambda_frame
from quartic.grids import GridFunction, cgl_grid
from quartic.operators import make_operator


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def scalar_op():
    return make_operator([[-1.0]])


@pytest.fixture
def diag3_op():
    return make_operator(np.diag([-1.0, -4.0, -9.0]))


@pytest.fixture
def pi_grid():
    return cgl_grid(64, 0.0, np.pi)


def frame_at(A, lam, k=0.0, c=np.pi):
    """The first family's frame on (0, c) at one parameter (shared test helper)."""
    return _lambda_frame(ProblemSpec(0.0, c, k, A, 1), lam)


def smooth_field(rng, grid, dim, modes=5):
    """Random resolved trigonometric field (shared test helper)."""
    x = grid.nodes
    span = grid.b - grid.a
    vals = np.zeros((dim, grid.n), dtype=complex)
    for m in range(1, modes + 1):
        cs = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        ph = m * np.pi * (x - grid.a) / span
        vals += cs[:, :1] * np.sin(ph) + cs[:, 1:] * np.cos(ph)
    return GridFunction(grid, vals)
