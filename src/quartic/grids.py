"""Grids and vector-valued grid functions on an interval.

The default grid is Chebyshev-Gauss-Lobatto with Clenshaw-Curtis quadrature
weights (they sum to b - a).  Grid-data derivatives in the solver path use
local finite-difference stencils (Fornberg weights), which keeps the formula
path independent of the global spectral differentiation matrices used by the
collocation oracle.  Each grid caches its stencils as bands, one window of
nearest nodes and one weight row per derivative order at every node
(``Grid.stencils``), so applying them costs O(width N) and no N x N matrix
is built, and the same bands give every unit delta's data on each step
(``Grid.step_band``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Grid",
    "GridFunction",
    "cgl_grid",
    "uniform_grid",
    "chebyshev_gauss_nodes",
    "fornberg_weights",
    "stencil_bands",
]


def _cgl_nodes(n: int, a: float, b: float) -> np.ndarray:
    x = np.cos(np.pi * np.arange(n) / (n - 1))[::-1]
    return (a + b) / 2 + (b - a) / 2 * x


# Rows of the Clenshaw-Curtis cosine table built at once.
_CC_ROWS = 256


def _clenshaw_curtis_weights(n: int, a: float, b: float) -> np.ndarray:
    """Quadrature weights at CGL nodes, exact for polynomials of degree n-1."""
    if n == 1:
        return np.array([b - a])
    m = n - 1
    # integral of the j-th Lagrange cardinal = 1 - sum over even 2k of cosine
    # terms; the cumulative sum subtracts them from 1 in increasing k order.
    # Blocks of rows keep the cosine table at _CC_ROWS x m/2, not n x m/2.
    k = np.arange(1, m // 2 + 1)
    f = np.where(2 * k < m, 2.0, 1.0)
    s = np.empty(n)
    for lo in range(0, n, _CC_ROWS):
        j = np.arange(lo, min(lo + _CC_ROWS, n))[:, None]
        terms = f * np.cos(2 * k * np.pi * j / m) / (4 * k * k - 1)
        s[lo:lo + len(j)] = np.cumsum(np.hstack([np.ones((len(j), 1)), -terms]), axis=1)[:, -1]
    c = 2.0 * s / m
    c[0] /= 2.0
    c[-1] /= 2.0
    return c[::-1] * (b - a) / 2.0


def chebyshev_gauss_nodes(n: int, a: float, b: float) -> np.ndarray:
    """First-kind Chebyshev points (no endpoints), ascending on [a, b]."""
    t = np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n))[::-1]
    return (a + b) / 2 + (b - a) / 2 * t


def fornberg_weights(z, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for derivatives 0..m at z from nodes x.

    Classic recursive algorithm.  For scalar z and x of shape (n,) returns
    (m+1, n); for z of shape (R,) and x of shape (R, n) it runs the R
    stencils at once and returns (m+1, R, n), with w[k, ..., i] the weight
    of node x[..., i] for the k-th derivative.
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    w = np.zeros((m + 1,) + x.shape)
    w[0, ..., 0] = 1.0
    c1 = 1.0
    c4 = x[..., 0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, ..., i] = c1 * (k * w[k - 1, ..., i - 1] - c5 * w[k, ..., i - 1]) / c2
                w[0, ..., i] = -c1 * c5 * w[0, ..., i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, ..., j] = (c4 * w[k, ..., j] - k * w[k - 1, ..., j]) / c3
            w[0, ..., j] = c4 * w[0, ..., j] / c3
        c1 = c2
    return w


def stencil_bands(nodes: np.ndarray, width: int = 7):
    """First- and second-derivative Fornberg stencils at every node, as bands.

    Node i differentiates the local polynomial through the ``width`` nearest
    nodes (one-sided near the ends), whose indices are idx[i]; accuracy is
    O(h^(width-order)) for smooth data.  Returns idx (N, w) and weights
    (N, 2, w), with weights[i, order - 1] the row of that order, w = min(width, N).
    """
    n = len(nodes)
    width = min(width, n)
    lo = np.clip(np.arange(n) - width // 2, 0, n - width)
    idx = lo[:, None] + np.arange(width)
    return idx, fornberg_weights(nodes, nodes[idx], 2)[1:].transpose(1, 0, 2).copy()


@dataclass(frozen=True)
class Grid:
    """Strictly increasing nodes on [a, b] plus positive quadrature weights."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "cgl"

    def __post_init__(self):
        x, w = np.asarray(self.nodes, float), np.asarray(self.weights, float)
        if x.ndim != 1 or x.shape != w.shape:
            raise DimensionMismatch("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(x) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def stencils(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid's ``stencil_bands`` (idx, weights), cached read-only."""
        bands = stencil_bands(self.nodes)
        for a in bands:
            a.setflags(write=False)
        return bands

    @cached_property
    def step_band(self) -> tuple[np.ndarray, np.ndarray]:
        """The step data of every unit delta, as bands: (start, table), cached
        read-only.

        Step j reads the node data (f_j, f'_j, f''_j, f_{j+1}, f'_{j+1},
        f''_{j+1}) (``kernels``).  For a unit delta at node y they are rows j
        and j + 1 of I, D1 and D2, the stencil matrices, at column y: nonzero
        only where y lies in the union of nodes j's and j + 1's stencil
        windows.  W is the widest such union, start (J,) its first node clipped
        so that the W nodes start[j] .. start[j] + W - 1 stay on the grid, and
        table (6, J, W) holds datum k of step j for the delta at node
        start[j] + w.  Windows of width w that move by at most one node per
        node make W = min(w + 1, N): 8 for the 7-point stencils.  Dense
        derivatives, with every window the whole grid, give W = N, and the
        band is then as wide as the delta tile it replaces.
        """
        idx, weights = self.stencils
        first = np.minimum(idx[:-1, 0], idx[1:, 0])
        width = int(np.max(np.maximum(idx[:-1, -1], idx[1:, -1]) - first)) + 1
        start = np.minimum(first, self.n - width)
        steps = np.arange(self.n - 1)
        table = np.zeros((6, len(steps), width))
        for end in (0, 1):  # node j + end of step j
            node = steps + end
            table[3 * end, steps, node - start] = 1.0
            cols = idx[node] - start[:, None]
            table[3 * end + 1, steps[:, None], cols] = weights[node, 0]
            table[3 * end + 2, steps[:, None], cols] = weights[node, 1]
        for a in (start, table):
            a.setflags(write=False)
        return start, table


@lru_cache(maxsize=8)
def cgl_grid(n: int, a: float, b: float) -> Grid:
    """Chebyshev-Gauss-Lobatto grid with Clenshaw-Curtis weights, memoized on
    (n, a, b): its callers share one grid, read-only nodes and weights, and
    the stencils it caches."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    grid = Grid(_cgl_nodes(n, a, b), _clenshaw_curtis_weights(n, a, b), "cgl")
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def uniform_grid(n: int, a: float, b: float) -> Grid:
    """Uniform grid with trapezoid weights."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    x = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return Grid(x, w, "uniform")


class GridFunction:
    """X-valued function sampled on a grid: values has shape (dim, n_nodes)."""

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2 or values.shape[1] != grid.n:
            raise DimensionMismatch(
                f"values shape {values.shape} does not match grid with {grid.n} nodes"
            )
        self.grid = grid
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, grid: Grid, dim: int) -> "GridFunction":
        return cls(grid, np.zeros((dim, grid.n), dtype=complex))

    def norm(self) -> float:
        """Weighted-l2 surrogate of the L2(a,b;X) norm."""
        per_node = np.sum(np.abs(self.values) ** 2, axis=0)
        return float(np.sqrt(np.sum(self.grid.weights * per_node)))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values + other.values)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())
