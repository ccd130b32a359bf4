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

The step contributions, weights times node data, have two sources that feed
the same running sums (``_running_sums``).  Data sampled on the grid brings
its node values and stencil derivatives (``convolve_nodes``).  The unit tile
of per-block resolvent blocks, a unit delta at each node and block index,
brings none: a delta's data on step j are nonzero only on the two nodes'
stencil windows, W nodes in all, so the contributions of all N b columns are
the weights times the grid's (6, J, W) step band (``grids.Grid.step_band``),
scattered into the zero tile (``convolve_units``).  They cost O(J W R b^2)
instead of the tile's O(J N R b^3), a saving that dense derivatives (W = N)
would undo.

X is a stack of R b x b blocks (``bvp.BCFrame``), and so is every stack
here: e^{tX} is (..., R, b, b) and the node weights (6, J, R, b, b).  Blocks
of size 1 are X's eigenvalues: the phi functions come elementwise
(``phi_stack``), and by the semigroup law e^{(x_i - x_j)X} = e^{(x_i - x_s)X}
e^{-(x_j - x_s)X} the recurrences I_{j+1} = e^{h_j X} I_j + c_j and I_j =
e^{h_j X} I_{j+1} + c_j become, on each segment [x_s, x_e] of the grid, an
exponential times one cumulative sum of the contributions scaled by the
inverse exponentials (``Propagator.grid_stacks``).  A segment spans at most
|X| (x_e - x_s) <= SEGMENT_EXPONENT, so no factor overflows, and each factor
is at a few eps, its argument's rounding compensated (``_exp_diff``).
Larger blocks take batched ``scipy.linalg.expm`` calls,
the phi functions through the exponential of augmented blocks, and the plain
recurrences: an inverse or a composition of such steps multiplies their
round-off by their non-normality.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from . import tolerances as tol

__all__ = [
    "phi_stack",
    "Propagator",
    "hermite_step_coefficients",
    "convolve_nodes",
    "convolve_units",
]

_SERIES_TERMS = 30


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
    per order, so its error grows like k! eps / |z|^k; inside the radius
    phi_kmax(z) = sum_i z^i / (i+kmax)! is summed by Horner steps over its
    _SERIES_TERMS terms, and the lower orders follow downward by
    phi_k = z phi_{k+1} + 1/k!, which is at round-off there.  Every entry
    takes the same number of terms.  A stack wholly inside or wholly outside
    the radius is indexed with ``...``, not through a mask; each entry's
    arithmetic is the same either way.
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
        term = np.full(zs.shape, 1.0 / factorial(_SERIES_TERMS - 1 + kmax), dtype=complex)
        for i in range(_SERIES_TERMS - 2, -1, -1):
            term *= zs
            term += 1.0 / factorial(i + kmax)
        phi[kmax, small] = term
        for k in range(kmax - 1, 0, -1):
            term *= zs
            term += 1.0 / factorial(k)
            phi[k, small] = term
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


_SPLITTER = 2.0 ** 27 + 1  # Veltkamp's: halves a double's significand


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a exactly and 26-bit hi and lo, whose
    products are exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _exp_diff(ends, starts, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{(e - s) X} for each pair of ends and starts (broadcast) and each
    block of a stack X of 1 x 1 blocks, shape (len, R, 1, 1), into ``out``
    when given (C-contiguous).

    The offset e - s is rounded with its exact error (Knuth's two-sum), and
    so is its product with X (Dekker's two-product on Veltkamp halves); the
    exponential of the rounded argument times 1 + the errors is then at a
    few eps.  Rounding the argument alone costs eps |(e - s) X|, which the
    convolutions' inverse exponentials (``Propagator.grid_stacks``) reach
    at large offsets even where e^{(e - s) X} has not decayed.  Past 1e300,
    where the halves overflow, the argument goes uncompensated.
    """
    e, s = np.broadcast_arrays(np.asarray(ends, dtype=float), np.asarray(starts, dtype=float))
    t = (e - s).reshape(-1, 1)
    v = t - e.reshape(t.shape)
    t_err = (e.reshape(t.shape) - (t - v)) - (s.reshape(t.shape) + v)
    x = np.ascontiguousarray(X).view(float).reshape(-1)  # Re and Im of each block
    if out is None:
        out = np.empty(e.shape + X.shape, dtype=complex)
    arg = out.reshape(len(t), -1).view(float)
    with np.errstate(over="ignore", invalid="ignore"):
        (t_hi, t_lo), (x_hi, x_lo) = _split(t), _split(x)
        np.multiply(t, x, out=arg)
        corr = t_hi * x_hi
        corr -= arg
        corr += t_hi * x_lo
        corr += (t_lo + t_err) * x  # the last two terms of the product's error, merged
    corr[~np.isfinite(corr)] = 0.0
    corr = corr.view(complex)
    corr += 1.0
    z = arg.view(complex)
    np.exp(z, out=z)
    z *= corr
    return out


class Propagator:
    """e^{tX} stacks and exponential step integrals for one X, a stack of R
    b x b blocks; every stack it returns keeps the trailing (R, b, b)."""

    MAX_DEG = 6  # local polynomial model degree + 1

    def __init__(self, x):
        self.blocks = np.asarray(x, dtype=complex)

    def exp_stack(self, ends, starts=0.0) -> np.ndarray:
        """e^{(e - s) X} for each pair of ends and starts (broadcast): shape
        (len, R, b, b), at a few eps for b = 1 (``_exp_diff``)."""
        if self.blocks.shape[-1] == 1:
            return _exp_diff(ends, starts, self.blocks)
        import scipy.linalg as sla

        ts = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
        return sla.expm(np.multiply.outer(ts, self.blocks))

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

    def grid_stacks(self, nodes: np.ndarray) -> dict:
        """X's read-only grid-kit entries on ``nodes``, which
        ``convolve_nodes`` reads: "exa" e^{(x-a)X}, "ebx" e^{(b-x)X}, the
        node "weights" of the step integrals, and "scans".

        For blocks larger than 1, "scans" holds the (J, R, b, b) steps
        e^{h_j X}.  For blocks of size 1 it holds the inverse exponentials
        of the convolutions' segments (module docstring): when every block
        has |X| (b - a) <= SEGMENT_EXPONENT, one segment spans the grid, and
        "scans" is the (2, J, R, 1, 1) rows e^{-(x_{j+1} - a) X} and
        e^{-(b - x_j) X}, which like "ebx" come from "exa" by the semigroup
        law; otherwise the rows of ``_segment_rows``.
        """
        x = np.asarray(nodes, dtype=float)
        X, J = self.blocks, len(x) - 1
        reach = np.max(np.abs(X), initial=0.0) * (x[-1] - x[0])
        exa = self.exp_stack(x, x[0])
        if X.shape[-1] > 1:
            ebx, scans = self.exp_stack(x[-1], x), self.exp_stack(np.diff(x))
        elif reach <= tol.SEGMENT_EXPONENT:
            scans = np.empty((2, J) + X.shape, dtype=complex)
            np.divide(1.0, exa[1:], out=scans[0])
            np.multiply(exa[:-1], 1.0 / exa[-1], out=scans[1])
            ebx = np.empty_like(exa)
            ebx[0] = exa[-1]
            np.multiply(exa[-1], scans[0], out=ebx[1:])
        else:
            span = tol.SEGMENT_EXPONENT * (x[-1] - x[0]) / reach
            ebx, scans = self.exp_stack(x[-1], x), _segment_rows(x, X, span)
        stacks = {"exa": exa, "ebx": ebx, "weights": self.step_weights(np.diff(x)),
                  "scans": scans}
        for stack in stacks.values():
            stack.setflags(write=False)
        return stacks


def _segment_rows(x: np.ndarray, X: np.ndarray, span: float) -> np.ndarray:
    """The "scans" rows of a stack X of 1 x 1 blocks on the nodes x, on
    segments of the grid no longer than ``span``.

    The steps split into the fewest segments [x_s, x_e] with x_e - x_s <=
    span (a longer step is a segment of its own), and each step j of a
    segment has, in a (5, J, R, 1, 1) array, the rows e^{-(x_{j+1} - x_s) X}
    and e^{-(x_e - x_j) X} (1 on a segment of one step, where they go
    unused), the exponentials e^{(x_{j+1} - x_s) X} and e^{(x_e - x_j) X},
    and a row that is 1 on the first step of each segment and 0 elsewhere.
    The segmentation thus travels with the rows when a kit is sliced or
    conjugated.
    """
    J, starts = len(x) - 1, [0]
    while True:  # each segment runs to the last node within span, or one step
        e = max(int(np.searchsorted(x, x[starts[-1]] + span, side="right")) - 1,
                starts[-1] + 1)
        if e >= J:
            break
        starts.append(e)
    starts = np.array(starts)
    ends = np.append(starts[1:], J)
    seg = np.repeat(np.arange(len(starts)), ends - starts)
    x_s, x_e = x[starts][seg], x[ends][seg]
    inner = (ends - starts > 1)[seg]
    rows = np.empty((5, J) + X.shape, dtype=complex)
    _exp_diff(np.where(inner, x_s, x[1:]), x[1:], X, out=rows[0])
    _exp_diff(x[:-1], np.where(inner, x_e, x[:-1]), X, out=rows[1])
    _exp_diff(x[1:], x_s, X, out=rows[2])
    _exp_diff(x_e, x[:-1], X, out=rows[3])
    rows[4] = 0.0
    rows[4, starts] = 1.0
    return rows


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


def _accumulate(y: np.ndarray, inv: np.ndarray, ex: np.ndarray, carry) -> None:
    """y_i <- ex_i (carry + sum_{k <= i} inv_k y_k) along axis 0, in place."""
    y *= inv
    y[0] += carry
    np.cumsum(y, axis=0, out=y)
    y *= ex


def _scan(steps: np.ndarray, y: np.ndarray, backward: bool = False) -> None:
    """y_j <- e_j y_{j-1} + y_j along axis 0 (y_{-1} = 0), or with ``backward``
    y_j <- e_j y_{j+1} + y_j (y_J = 0), in place, for (J, R, b, b) steps e_j
    and y in blocks (J, R, b, r): the sequential recurrence of b > 1."""
    for j in range(len(y) - 2, -1, -1) if backward else range(1, len(y)):
        y[j] += steps[j] @ y[j + 1 if backward else j - 1]


def _segmented_sums(stacks: dict, fwd: np.ndarray, bwd: np.ndarray) -> None:
    """I+ and I- in place from the contributions in fwd[1:] and bwd[:-1],
    for b = 1, segment by segment (``Propagator.grid_stacks``); the end
    value of each segment carries into the next."""
    rows = stacks["scans"][..., 0]
    if len(rows) == 2:  # one segment: its exponentials are exa and ebx
        _accumulate(fwd[1:], rows[0], stacks["exa"][1:, ..., 0], 0.0)
        _accumulate(bwd[-2::-1], rows[1, ::-1], stacks["ebx"][-2::-1, ..., 0], 0.0)
        return
    starts = np.flatnonzero(rows[4, :, 0, 0].real)
    bounds = list(zip(starts, [*starts[1:], len(rows[0])]))
    for s, e in bounds:
        if e - s == 1:
            fwd[e] += rows[2, s] * fwd[s]
        else:
            _accumulate(fwd[s + 1:e + 1], rows[0, s:e], rows[2, s:e], fwd[s])
    for s, e in reversed(bounds):
        if e - s == 1:
            bwd[s] += rows[3, s] * bwd[e]
        else:
            back = slice(e - 1, s - 1 if s else None, -1)
            _accumulate(bwd[back], rows[1, back], rows[3, back], bwd[e])


def _accumulate_steps(weights: np.ndarray, data, mul, c_fwd: np.ndarray,
                      c_bwd: np.ndarray) -> None:
    """c_fwd = sum_k mul(G[k], data[k]) and c_bwd = sum_k +-mul(G[REFLECT[k]],
    data[k]), the slopes negated, each summed in place in k order."""
    tmp = np.empty_like(c_fwd)
    for k, x in enumerate(data):
        mul(weights[k], x, out=tmp)
        c_fwd += tmp
        mul(weights[_REFLECT[k]], x, out=tmp)
        if _SLOPE_ORDER[k] == 1:
            c_bwd -= tmp
        else:
            c_bwd += tmp


def _contributions(weights: np.ndarray, f: np.ndarray, fp: np.ndarray,
                   fpp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step contributions c_j of both convolutions of (N, R b, r) node
    data: (J + 1, R, b, r) arrays holding the forward ones in rows 1..J and
    the backward ones, sums of the reflected weights, in rows 0..J-1."""
    J, b = len(f) - 1, weights.shape[-1]
    mul = np.multiply if b == 1 else np.matmul
    f, fp, fpp = (x.reshape(len(x), -1, b, x.shape[-1]) for x in (f, fp, fpp))
    data = (f[:-1], fp[:-1], fpp[:-1], f[1:], fp[1:], fpp[1:])
    fwd = np.zeros((J + 1,) + f.shape[1:], dtype=complex)
    bwd = np.zeros_like(fwd)
    _accumulate_steps(weights, data, mul, fwd[1:], bwd[:J])
    return fwd, bwd


def _unit_contributions(weights: np.ndarray, start: np.ndarray, table: np.ndarray,
                        fwd: np.ndarray, bwd: np.ndarray) -> None:
    """The step contributions of the unit tile, a unit delta at each node y
    and block index i in every block at once (N b columns (y, i)), from the
    grid's step band (``grids.Grid.step_band``), written into the zero
    (J + 1, R, b, N, b) arrays fwd and bwd, in ``_contributions``' rows.

    Step j's data are nonzero only for the W deltas at nodes start[j] ..
    start[j] + W - 1, whose data are the band's table[:, j].  Datum k of the
    delta in column (y, i) enters through column i of G[k], so step j's
    contributions to those W b columns are the node weights times the table
    row, summed over k in ``_contributions``' order: the same products and
    sums, bit for bit, on the columns where the data can be nonzero.
    """
    _, J, R, b, _ = weights.shape
    near = np.zeros((2, J, table.shape[-1], R, b, b), dtype=complex)
    data = table[..., None, None, None]  # (6, J, W, 1, 1, 1)
    _accumulate_steps(weights[:, :, None], data, np.multiply, near[0], near[1])
    cols = start[:, None] + np.arange(table.shape[-1])
    for c, rows in ((fwd[1:], near[0]), (bwd[:J], near[1])):
        c.transpose(0, 3, 1, 2, 4)[np.arange(J)[:, None], cols] = rows


def _running_sums(stacks: dict, fwd: np.ndarray, bwd: np.ndarray) -> None:
    """I+ and I- in place from (J + 1, R, b, r) contributions: the b = 1
    cumulative sums of ``_segmented_sums``, or the b > 1 recurrences of
    ``_scan``."""
    if stacks["weights"].shape[-1] == 1:
        _segmented_sums(stacks, fwd[:, :, 0], bwd[:, :, 0])
    else:
        _scan(stacks["scans"], fwd[1:])
        _scan(stacks["scans"], bwd[:-1], backward=True)


def convolve_nodes(stacks: dict, f: np.ndarray, fp: np.ndarray,
                   fpp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I+, I-) on the grid, I+(x_i) = int_a^{x_i} e^{(x_i - s) X} f(s) ds and
    I-(x_i) = int_{x_i}^b e^{(s - x_i) X} f(s) ds, each of shape (N, R b, r).

    f, fp, fpp: (N, R b, r) node values and first two derivatives of the
    data; stacks: X's grid-kit entries (``Propagator.grid_stacks``), of which
    the node weights, "scans" and, for b = 1, "exa" and "ebx" are read.  The
    step contributions c_j are sums of weights times node data, the backward
    ones under the reflection (``_contributions``; ``convolve_units`` takes
    them from the grid's step band instead).  The running sums
    (``_running_sums``) are then, for b = 1, on each segment [x_s, x_e],

        I+(x_i) = e^{(x_i - x_s) X} [I+(x_s) + sum_{s <= j < i} c_j e^{-(x_{j+1} - x_s) X}],
        I-(x_i) = e^{(x_e - x_i) X} [I-(x_e) + sum_{i <= j < e} c_j e^{-(x_e - x_j) X}],

    one cumulative sum per direction and segment; a segment of one step
    takes its step e^{h X} directly.  For b > 1 the running sums I+(x_{j+1})
    = e^{h_j X} I+(x_j) + c_j and I-(x_j) = e^{h_j X} I-(x_{j+1}) + c_j run
    step by step.
    """
    fwd, bwd = _contributions(stacks["weights"], f, fp, fpp)
    _running_sums(stacks, fwd, bwd)
    return fwd.reshape(f.shape), bwd.reshape(f.shape)


def convolve_units(kits, band) -> list[tuple[np.ndarray, np.ndarray]]:
    """``convolve_nodes`` of the unit tile, the N b columns of unit deltas at
    each node and block index in every block at once, from the grid's step
    band (``grids.Grid.step_band``), for the grid-kit stacks of each
    generator in ``kits``: a list of (I+, I-), each of shape (N, R b, N b)
    and equal bit for bit to ``convolve_nodes`` of the tile and its stencil
    derivatives.

    The running sums are ``convolve_nodes``' own.  All the convolutions are
    views of one zero array, allocated once and freed together, so that
    repeated solves reuse the heap instead of growing and trimming it around
    each stage.
    """
    _, J, R, b, _ = kits[0]["weights"].shape
    tiles = np.zeros((len(kits), 2, J + 1, R, b, J + 1, b), dtype=complex)
    for stacks, (fwd, bwd) in zip(kits, tiles):
        _unit_contributions(stacks["weights"], *band, fwd, bwd)
        _running_sums(stacks, *(c.reshape(J + 1, R, b, -1) for c in (fwd, bwd)))
    return [tuple(c.reshape(J + 1, R * b, -1) for c in pair) for pair in tiles]
