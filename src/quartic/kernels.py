"""Exponential-kernel machinery for the representation formulas.

The convolutions I+(x) = int_a^x e^{(x-s)X} f(s) ds and I-(x) =
int_x^b e^{(s-x)X} f(s) ds integrate a local degree-5 polynomial model of f
exactly against the matrix exponential kernel.  The kernel side is exact for
every step size, so the scheme stays stable for arbitrarily stiff
generators; the only error is the local-model error O(h^6 f^(6)).

On step j (length h, z = h X) the model is the two-point Hermite interpolant
of the node data (f_j, f'_j, f''_j, f_{j+1}, f'_{j+1}, f''_{j+1}): its
coefficients are d = T g, g the k-th datum times h^{e_k} (e = 0, 1, 2, 0, 1,
2), for one constant 6 x 6 matrix T read from ``hermite_step_coefficients``.
The forward step integral h int_0^1 e^{z(1-s)} p(s) ds is thus a sum of node
data times the weights G_k = h^{1+e_k} sum_m m! phi_{m+1}(z) T_mk, which
depend on X and the grid alone: a grid kit computes them once
(``Propagator.step_weights``) and a solve only multiplies and adds
(``convolve_nodes``).  The backward step integral int_0^1 e^{zs} p(s) ds =
int_0^1 e^{z(1-u)} p(1-u) du is the forward one on the reflected model,
whose node data swap the two ends and negate the slopes, so it reuses the
forward weights and only phi_1..phi_6 are evaluated.

X is a stack of R b x b blocks (``bvp.BCFrame``), and so is every stack
here: e^{tX} is (..., R, b, b) and the node weights (6, J, R, b, b).  Blocks
of size 1 are X's eigenvalues: the phi functions come elementwise
(``phi_stack``), and the recurrence I_{j+1} = e^{h_j X} I_j + c_j runs
as one log-depth (Hillis-Steele) scan whose step compositions are exact
elementwise products that a grid kit also computes once per direction
(``scan_factors``).  Larger blocks take batched ``scipy.linalg.expm`` calls,
the phi functions through the exponential of augmented blocks, and the plain
recurrence: composing such steps explicitly multiplies their round-off by
their non-normality at every pass.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from . import tolerances as tol

__all__ = [
    "phi_stack",
    "Propagator",
    "hermite_step_coefficients",
    "scan_factors",
    "convolve_nodes",
]

_SERIES_TERMS = 30


@lru_cache(maxsize=16)
def _series_table(kmax: int) -> np.ndarray:
    """Read-only coefficients of z^0..z^{_SERIES_TERMS-1} (rows) in the
    small-|z| series of phi_1..phi_kmax (columns), 1/(i+k)!."""
    inv_fact = np.array([1.0 / factorial(j) for j in range(_SERIES_TERMS + kmax)])
    table = inv_fact[np.arange(_SERIES_TERMS)[:, None] + np.arange(1, kmax + 1)]
    table.setflags(write=False)
    return table


def _real_product(M: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """M @ Z for a real matrix M and a complex (k, l) array Z, as one real
    BLAS product on Z's real view."""
    return (M @ np.ascontiguousarray(Z).view(float)).view(complex)


def _entries(mask: np.ndarray):
    """An index of the entries where mask holds: ``...`` when it holds
    everywhere, so indexing takes no masked copy, and None when nowhere."""
    if mask.all():
        return ...
    return mask if mask.any() else None


def phi_stack(z: np.ndarray, kmax: int) -> np.ndarray:
    """phi_0..phi_kmax for complex array z, shape (kmax+1,) + z.shape.

    phi_0 = e^z, and the upward recurrence phi_{k+1} = (phi_k - 1/k!)/z runs
    on the entries with |z| >= PHI_SERIES_RADIUS only.  It divides by z once
    per order, so its error grows like k! eps / |z|^k; inside the radius the
    series phi_k(z) = sum_i z^i / (i+k)! comes from one power matrix times
    the coefficient table, which is at round-off there.  A stack wholly
    inside or wholly outside the radius is indexed with ``...``, not through
    a mask; each entry's arithmetic is the same either way.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < tol.PHI_SERIES_RADIUS
    ez = np.exp(z)
    phi = np.empty((kmax + 1,) + z.shape, dtype=complex)
    phi[0] = ez
    large = _entries(~small)
    if large is not None:
        zl = z[large]
        term = ez[large]
        for k in range(kmax):
            term = (term - 1.0 / factorial(k)) / zl
            phi[k + 1, large] = term
    small = _entries(small)
    if small is not None:
        zs = z[small]
        flat = zs.reshape(-1)
        powers = np.empty((_SERIES_TERMS, zs.size), dtype=complex)
        powers[0] = 1.0
        for i in range(1, _SERIES_TERMS):
            np.multiply(powers[i - 1], flat, out=powers[i])
        phi[1:, small] = _real_product(_series_table(kmax).T, powers).reshape(
            (kmax,) + zs.shape)
    return phi


def _phi_blocks(hX: np.ndarray, p: int) -> np.ndarray:
    """phi_1(hX)..phi_p(hX) for a stack of b x b blocks hX, shape (p,) +
    hX.shape, from one batched exponential of augmented blocks."""
    import scipy.linalg as sla

    b = hX.shape[-1]
    C = np.zeros(hX.shape[:-2] + ((p + 1) * b, (p + 1) * b), dtype=complex)
    C[..., :b, :b] = hX
    i = np.arange(p * b)
    C[..., i, i + b] = 1.0
    E = sla.expm(C)
    return np.stack([E[..., :b, k * b:(k + 1) * b] for k in range(1, p + 1)])


class Propagator:
    """e^{tX} stacks and exponential step integrals for one X, a stack of R
    b x b blocks; every stack it returns keeps the trailing (R, b, b)."""

    MAX_DEG = 6  # local polynomial model degree + 1

    def __init__(self, x):
        self.blocks = np.asarray(x, dtype=complex)

    def exp_stack(self, ts: np.ndarray) -> np.ndarray:
        """e^{t X} for each t in ts: shape (len(ts), R, b, b)."""
        tx = np.multiply.outer(np.asarray(ts, dtype=float), self.blocks)
        if self.blocks.shape[-1] == 1:
            return np.exp(tx)
        import scipy.linalg as sla

        return sla.expm(tx)

    def step_weights(self, hs: np.ndarray) -> np.ndarray:
        """Node weights G of the forward step integrals over steps of lengths
        hs (module docstring): shape (6, J, R, b, b), with G[k, j] multiplying
        node datum k of step j in ``convolve_nodes``.  Only phi_1..phi_MAX_DEG
        are evaluated."""
        hs = np.asarray(hs, dtype=float)
        p = self.MAX_DEG
        hx = np.multiply.outer(hs, self.blocks)
        phi = phi_stack(hx, p)[1:] if hx.shape[-1] == 1 else _phi_blocks(hx, p)
        G = _real_product(_PSI_MODEL.T, phi.reshape(p, -1)).reshape(phi.shape)
        scale = hs ** (1 + _SLOPE_ORDER)[:, None]  # (6, J)
        return G * scale[..., None, None, None]


def hermite_step_coefficients(
    nodes: np.ndarray, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray
) -> np.ndarray:
    """Per-step degree-5 model coefficients in the scaled variable s=(x-x_j)/h.

    f, fp, fpp have shape (N, n, r): values and first two derivatives at the
    nodes.  Returns d of shape (J, 6, n, r) with p(s) = sum_m d_m s^m matching
    value, slope and curvature at both step endpoints.
    """
    h = np.diff(nodes)[:, None, None]
    d0 = f[:-1]
    d1 = h * fp[:-1]
    d2 = 0.5 * h * h * fpp[:-1]
    r0 = f[1:] - d0 - d1 - d2
    r1 = h * fp[1:] - d1 - 2 * d2
    r2 = h * h * fpp[1:] - 2 * d2
    d3 = 0.5 * (20 * r0 - 8 * r1 + r2)
    d4 = 0.5 * (-30 * r0 + 14 * r1 - 2 * r2)
    d5 = 0.5 * (12 * r0 - 6 * r1 + r2)
    return np.stack([d0, d1, d2, d3, d4, d5], axis=1)


# Node datum k of step j is (f_j, f'_j, f''_j, f_{j+1}, f'_{j+1}, f''_{j+1})[k];
# _SLOPE_ORDER[k] is its derivative order, the power of h that scales it in g.
_SLOPE_ORDER = np.array([0, 1, 2, 0, 1, 2])


def _model_matrix() -> np.ndarray:
    """m! T_mk: T maps the scaled node data g of a unit step to the model
    coefficients d, read from hermite_step_coefficients on unit data."""
    unit = np.eye(6).reshape(6, 1, 6)  # unit[k] selects g_k: (f, fp, fpp) x 2 nodes
    d = hermite_step_coefficients(np.array([0.0, 1.0]), unit[0::3], unit[1::3], unit[2::3])
    psi_order = np.array([factorial(m) for m in range(6)], dtype=float)
    return psi_order[:, None] * d[0, :, 0, :]


_PSI_MODEL = _model_matrix()
_PSI_MODEL.setflags(write=False)

# The reflected model p(1 - s) gives node datum k the weight of datum
# _REFLECT[k] (the other end), negated for the slopes (_SLOPE_ORDER odd).
_REFLECT = (3, 4, 5, 0, 1, 2)


def scan_factors(steps: np.ndarray):
    """The factors ``_scan`` applies for the (J, R, b, b) step factors e^{h_j X}.

    Blocks of size 1 give a tuple of read-only (J - s, R, 1) arrays, one per
    pass of the log-depth scan with shift s = 1, 2, 4, ... < J: the
    compositions of the s steps ending at each j >= s, formed as exact
    elementwise products.  Composed steps are exponentials with Re <= 0, so
    they cannot overflow.  Larger blocks are returned as they are; they run
    the sequential recurrence.  Pass steps[::-1] for the backward scan.
    """
    if steps.shape[-1] > 1:
        return steps
    factors, e, s = [], steps[1:, :, 0].copy(), 1
    while len(e):
        e.setflags(write=False)
        factors.append(e)
        e = e[s:] * e[:-s]  # compositions of 2s steps ending at j >= 2s
        s *= 2
    return tuple(factors)


def _scan(factors, y: np.ndarray) -> None:
    """y_j <- e_j y_{j-1} + y_j along axis 0 (y_{-1} = 0), in place, for the
    steps that ``scan_factors`` prepared.

    Factors of size-1 blocks run a log-depth (Hillis-Steele) scan: after the
    pass with shift s, y_j sums the contributions of the 2s steps ending at
    j.  Larger blocks, with y in blocks (J, R, b, r), run the sequential
    recurrence, since an explicit composition would amplify round-off by the
    steps' non-normality.
    """
    if isinstance(factors, np.ndarray):
        for j in range(1, len(y)):
            y[j] += factors[j] @ y[j - 1]
        return
    s = 1
    for e in factors:
        y[s:] += e * y[:-s]
        s *= 2


def convolve_nodes(weights: np.ndarray, scans: tuple, f: np.ndarray, fp: np.ndarray,
                   fpp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I+, I-) on the grid, I+(x_i) = int_a^{x_i} e^{(x_i - s) X} f(s) ds and
    I-(x_i) = int_{x_i}^b e^{(s - x_i) X} f(s) ds, each of shape (N, R b, r).

    f, fp, fpp: (N, R b, r) node values and first two derivatives of the
    data; weights: the grid's (6, J, R, b, b) node weights from
    ``Propagator.step_weights``; scans: ``scan_factors`` of the steps
    e^{h_j X} and of the reversed steps.  The step contributions c_j are sums
    of weights times node data, the backward ones under the reflection, and
    the running sums I+(x_{j+1}) = e^{h_j X} I+(x_j) + c_j and I-(x_j) =
    e^{h_j X} I-(x_{j+1}) + c_j come from ``_scan``.  The backward scan runs
    forward on a reversed contiguous copy of its contributions, which is
    copied back: numpy cannot coalesce the passes' loops over a
    negative-stride view and runs them 2.5-3x slower.
    """
    J, shape, b = len(f) - 1, f.shape, weights.shape[-1]
    if b == 1:
        G, mul = weights[..., 0], np.multiply
    else:
        G, mul = weights, np.matmul
        f, fp, fpp = (x.reshape(len(x), -1, b, shape[-1]) for x in (f, fp, fpp))
    data = (f[:-1], fp[:-1], fpp[:-1], f[1:], fp[1:], fpp[1:])
    fwd = np.zeros((J + 1,) + f.shape[1:], dtype=complex)
    bwd = np.zeros_like(fwd)
    c_fwd, c_bwd = fwd[1:], bwd[:J]
    tmp = np.empty_like(c_fwd)
    for k, x in enumerate(data):
        mul(G[k], x, out=tmp)
        c_fwd += tmp
        mul(G[_REFLECT[k]], x, out=tmp)
        if _SLOPE_ORDER[k] == 1:
            c_bwd -= tmp
        else:
            c_bwd += tmp
    _scan(scans[0], c_fwd)
    tmp[...] = c_bwd[::-1]
    _scan(scans[1], tmp)
    c_bwd[...] = tmp[::-1]
    return fwd.reshape(shape), bwd.reshape(shape)
