"""Exponential-kernel machinery for the representation formulas.

The convolution integrals int e^{(x-s)X} f(s) ds are evaluated by exact
integration of a local degree-5 polynomial model of f against the matrix
exponential kernel.  The kernel side is exact for every step size, so the
scheme stays stable for arbitrarily stiff generators; the only error is the
local-model error O(h^6 f^(6)).

Per step the needed weights are, with z = h X,

    psi_m(z) = int_0^1 e^{z(1-s)} s^m ds   (forward kernel e^{(x-s)X})
    chi_m(z) = int_0^1 e^{z s} s^m ds      (backward kernel e^{(s-x)X})

computed per eigenmode when X is given by its eigenvalues (a modal frame),
and through the exponential of an augmented block matrix when X is a dense
matrix (the frame of an A whose eigenbasis is too ill-conditioned to use),
whose e^{tX} comes from its Schur form.  In X's eigenbasis the weights are
diagonal, so the modal stacks keep only their (..., n) diagonals.  The
convolution recurrence I_{j+1} = e^{h_j X} I_j + c_j is evaluated for modal
steps as one log-depth (Hillis-Steele) scan over the steps, whose
compositions are exact elementwise products.  Dense steps
(the fallback for an ill-conditioned eigenbasis) run the plain recurrence:
composing such steps explicitly multiplies their round-off by their
non-normality at every pass.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from . import tolerances as tol
from .operators import OperatorHandle

__all__ = [
    "phi_stack",
    "chi_stack",
    "Propagator",
    "hermite_step_coefficients",
    "convolve_forward",
    "convolve_backward",
]

_SERIES_TERMS = 30


@lru_cache(maxsize=16)
def _series_table(kmax: int, mmax: int) -> np.ndarray:
    """Read-only coefficients of z^0..z^{_SERIES_TERMS-1} (rows) in the
    small-|z| series of phi_1..phi_kmax, 1/(i+k)!, then chi_0..chi_mmax,
    1/(i! (m+i+1)) (columns)."""
    inv_fact = np.array([1.0 / factorial(j) for j in range(_SERIES_TERMS + kmax)])
    i = np.arange(_SERIES_TERMS)[:, None]
    table = np.hstack([inv_fact[i + np.arange(1, kmax + 1)],
                       inv_fact[i] / (np.arange(mmax + 1) + i + 1)])
    table.setflags(write=False)
    return table


def _exp_integrals(z: np.ndarray, kmax: int, mmax: int):
    """(phi_0..phi_kmax, chi_0..chi_mmax) for complex array z.

    Upward recurrences, phi_{k+1} = (phi_k - 1/k!)/z and
    chi_m = (e^z - m chi_{m-1})/z, except for |z| < PHI_SERIES_RADIUS.
    The recurrences divide by z once per order, so their error grows like
    k! eps / |z|^k; inside the radius both come from one power matrix times
    the series coefficient table, which is at round-off there.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < tol.PHI_SERIES_RADIUS
    zb = np.where(small, 1.0, z)  # avoid 0/0 in the recurrence branch
    ez = np.exp(z)
    phi = np.empty((kmax + 1,) + z.shape, dtype=complex)
    chi = np.empty((mmax + 1,) + z.shape, dtype=complex)
    phi[0] = ez
    for k in range(kmax):
        phi[k + 1] = (phi[k] - 1.0 / factorial(k)) / zb
    if mmax >= 0:
        chi[0] = (ez - 1.0) / zb
    for m in range(1, mmax + 1):
        chi[m] = (ez - m * chi[m - 1]) / zb
    if np.any(small):
        powers = np.vander(z[small], _SERIES_TERMS, increasing=True)
        sums = (powers @ _series_table(kmax, mmax)).T
        phi[1:, small] = sums[:kmax]
        chi[:, small] = sums[kmax:]
    return phi, chi


def phi_stack(z: np.ndarray, kmax: int) -> np.ndarray:
    """phi_0..phi_kmax for complex array z; phi_0 = e^z, phi_{k+1}=(phi_k-1/k!)/z.

    Returns shape (kmax+1,) + z.shape.  Small |z| uses the series
    phi_k(z) = sum_i z^i / (i+k)! to avoid cancellation.
    """
    return _exp_integrals(z, kmax, -1)[0]


def chi_stack(z: np.ndarray, mmax: int) -> np.ndarray:
    """chi_0..chi_mmax = int_0^1 e^{zs} s^m ds for complex array z."""
    return _exp_integrals(z, 0, mmax)[1]


def _phi_block_matrices(hX: np.ndarray, p: int) -> list[np.ndarray]:
    """phi_1(hX)..phi_p(hX) via one exponential of an augmented block matrix."""
    import scipy.linalg as sla

    n = hX.shape[0]
    C = np.zeros(((p + 1) * n, (p + 1) * n), dtype=complex)
    C[:n, :n] = hX
    for k in range(p):
        r = k * n
        C[r:r + n, r + n:r + 2 * n] = np.eye(n)
    E = sla.expm(C)
    return [E[:n, (k + 1) * n:(k + 2) * n] for k in range(p)]


class Propagator:
    """Evaluates e^{tX} stacks and exponential step integrals for one X.

    Built from the eigenvalues of X it returns modal (..., n) stacks, the
    diagonals of the stacks in X's eigenbasis.  Built from an OperatorHandle
    it returns dense (..., n, n) stacks through X's Schur form; a frame only
    holds such members when A's eigenbasis is too ill-conditioned to use.
    """

    MAX_DEG = 6  # local polynomial model degree + 1

    def __init__(self, op):
        if isinstance(op, OperatorHandle):
            self.op = op
            self.n = op.dim
            self.modal = False
        else:
            self.op = None
            self._w = np.asarray(op, dtype=complex)
            self.n = len(self._w)
            self.modal = True

    def exp_stack(self, ts: np.ndarray) -> np.ndarray:
        """e^{t X} for each t in ts: shape (len(ts), n, n), or (len(ts), n) modal."""
        ts = np.asarray(ts, dtype=float)
        if self.modal:
            return np.exp(np.multiply.outer(ts, self._w))
        import scipy.linalg as sla

        T, Q = self.op.schur()
        out = np.empty((len(ts), self.n, self.n), dtype=complex)
        for i, t in enumerate(ts):
            out[i] = Q @ sla.expm(t * T) @ Q.conj().T
        return out

    def step_weights(self, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, chi) step-integral weights: each (J, MAX_DEG, n, n), or
        (J, MAX_DEG, n) modal."""
        hs = np.asarray(hs, dtype=float)
        p = self.MAX_DEG
        if self.modal:
            Z = np.multiply.outer(hs, self._w)  # (J, n)
            phis, chi = _exp_integrals(Z, p, p - 1)       # (p+1, J, n), (p, J, n)
            # psi_m = m! phi_{m+1}
            psi = phis[1:] * np.array([factorial(m) for m in range(p)])[:, None, None]
            return np.moveaxis(psi, 0, 1), np.moveaxis(chi, 0, 1)
        X = np.asarray(self.op.matrix)
        J = len(hs)
        psi_d = np.empty((J, p, self.n, self.n), dtype=complex)
        chi_d = np.empty((J, p, self.n, self.n), dtype=complex)
        binom = [[factorial(m) // (factorial(j) * factorial(m - j)) for j in range(m + 1)]
                 for m in range(p)]
        for i, h in enumerate(hs):
            phis = _phi_block_matrices(h * X, p + 1)
            for m in range(p):
                psi_d[i, m] = factorial(m) * phis[m]
                # chi_m(z) = sum_j (-1)^j C(m,j) j! phi_{j+1}(z)
                acc = np.zeros((self.n, self.n), dtype=complex)
                for j in range(m + 1):
                    acc += ((-1) ** j) * binom[m][j] * factorial(j) * phis[j]
                chi_d[i, m] = acc
        return psi_d, chi_d


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


def _step_contributions(nodes, d, weights):
    """h_j sum_m W_jm d_jm for modal (J, 6, n) or dense (J, 6, n, n) weights."""
    hs = np.diff(nodes)
    spec = "jmi,jmir->jir" if weights.ndim == 3 else "jmik,jmkr->jir"
    return hs[:, None, None] * np.einsum(spec, weights, d)


def _scan(steps: np.ndarray, y: np.ndarray) -> None:
    """y_j <- e_j y_{j-1} + y_j along axis 0 (y_{-1} = 0), in place.

    Modal steps (J, n) run a log-depth (Hillis-Steele) scan: after the pass
    with shift s, (e_j, y_j) is the composition of the 2s steps ending at j.
    Composed steps are exponentials with Re <= 0, so they cannot overflow.
    Dense steps (J, n, n) only occur for an ill-conditioned eigenbasis, where
    an explicit composition would amplify round-off by the step's
    non-normality; they run the sequential recurrence instead.
    """
    if steps.ndim == 3:
        for j in range(1, len(y)):
            y[j] += steps[j] @ y[j - 1]
        return
    e = steps[..., None].copy()
    J, s = len(y), 1
    while s < J:
        y[s:] += e[s:] * y[:-s]
        if 2 * s < J:
            e[s:] = e[s:] * e[:-s]
        s *= 2


def convolve_forward(
    prop: Propagator, nodes: np.ndarray, d: np.ndarray, exp_steps: np.ndarray,
    psi: np.ndarray,
) -> np.ndarray:
    """I(x_i) = int_a^{x_i} e^{(x_i - s) X} f(s) ds on the grid.

    d: hermite coefficients (J, 6, n, r); exp_steps: e^{h_j X}, (J, n, n) or
    modal (J, n); psi: forward step weights, (J, 6, n, n) or modal (J, 6, n).
    Returns (N, n, r): the running sums I(x_{j+1}) = e^{h_j X} I(x_j) + c_j
    of the step contributions c_j, by ``_scan``.  prop is unused.
    """
    J = d.shape[0]
    out = np.zeros((J + 1,) + d.shape[2:], dtype=complex)
    out[1:] = _step_contributions(nodes, d, psi)
    _scan(exp_steps, out[1:])
    return out


def convolve_backward(
    prop: Propagator, nodes: np.ndarray, d: np.ndarray, exp_steps: np.ndarray,
    chi: np.ndarray,
) -> np.ndarray:
    """I(x_i) = int_{x_i}^b e^{(s - x_i) X} f(s) ds on the grid (shapes as
    in convolve_forward): I(x_j) = e^{h_j X} I(x_{j+1}) + c_j, the forward
    scan run on the reversed steps."""
    J = d.shape[0]
    out = np.zeros((J + 1,) + d.shape[2:], dtype=complex)
    out[:J] = _step_contributions(nodes, d, chi)
    _scan(exp_steps[::-1], out[J - 1::-1])
    return out
