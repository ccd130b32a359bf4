"""Exponential-kernel machinery for the representation formulas.

The convolution integrals int e^{(x-s)X} f(s) ds are evaluated by exact
integration of a local degree-5 polynomial model of f against the matrix
exponential kernel.  The kernel side is exact for every step size, so the
scheme stays stable for arbitrarily stiff generators; the only error is the
local-model error O(h^6 f^(6)).

Per step the needed weights are, with z = h X,

    psi_m(z) = int_0^1 e^{z(1-s)} s^m ds   (forward kernel e^{(x-s)X})
    chi_m(z) = int_0^1 e^{z s} s^m ds      (backward kernel e^{(s-x)X})

computed per eigenmode when X is diagonalizable with a well-conditioned
basis, and through the exponential of an augmented block matrix otherwise.
"""

from __future__ import annotations

from math import factorial

import numpy as np
import scipy.linalg as sla

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


def phi_stack(z: np.ndarray, kmax: int) -> np.ndarray:
    """phi_0..phi_kmax for complex array z; phi_0 = e^z, phi_{k+1}=(phi_k-1/k!)/z.

    Returns shape (kmax+1,) + z.shape.  Small |z| uses the series
    phi_k(z) = sum_i z^i / (i+k)! to avoid cancellation.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty((kmax + 1,) + z.shape, dtype=complex)
    small = np.abs(z) < tol.PHI_SERIES_RADIUS
    zb = np.where(small, 0.0, z)  # avoid 0/0 in the recurrence branch
    out[0] = np.exp(z)
    rec = out[0]
    for k in range(kmax):
        rec = (rec - 1.0 / factorial(k)) / np.where(zb == 0, 1.0, zb)
        out[k + 1] = rec
    if np.any(small):
        zs = z[small]
        for k in range(1, kmax + 1):
            acc = np.zeros_like(zs)
            term = np.ones_like(zs)
            for i in range(_SERIES_TERMS):
                acc = acc + term / factorial(i + k)
                term = term * zs
            out[k][small] = acc
    return out


def chi_stack(z: np.ndarray, mmax: int) -> np.ndarray:
    """chi_0..chi_mmax = int_0^1 e^{zs} s^m ds for complex array z."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((mmax + 1,) + z.shape, dtype=complex)
    small = np.abs(z) < tol.PHI_SERIES_RADIUS
    zb = np.where(small, 1.0, z)
    ez = np.exp(z)
    out[0] = (ez - 1.0) / zb
    for m in range(1, mmax + 1):
        out[m] = (ez - m * out[m - 1]) / zb
    if np.any(small):
        zs = z[small]
        for m in range(mmax + 1):
            acc = np.zeros_like(zs)
            term = np.ones_like(zs)
            for i in range(_SERIES_TERMS):
                acc = acc + term / (m + i + 1)
                term = term * zs / (i + 1)
            out[m][small] = acc
    return out


def _psi_from_phi(phis: np.ndarray) -> np.ndarray:
    """psi_m = m! phi_{m+1}; phis has leading axis phi_0..phi_p."""
    p = phis.shape[0] - 1
    return np.stack([factorial(m) * phis[m + 1] for m in range(p)], axis=0)


def _phi_block_matrices(hX: np.ndarray, p: int) -> list[np.ndarray]:
    """phi_1(hX)..phi_p(hX) via one exponential of an augmented block matrix."""
    n = hX.shape[0]
    C = np.zeros(((p + 1) * n, (p + 1) * n), dtype=complex)
    C[:n, :n] = hX
    for k in range(p):
        r = k * n
        C[r:r + n, r + n:r + 2 * n] = np.eye(n)
    E = sla.expm(C)
    return [E[:n, (k + 1) * n:(k + 2) * n] for k in range(p)]


class Propagator:
    """Evaluates e^{tX} stacks and exponential step integrals for one X."""

    MAX_DEG = 6  # local polynomial model degree + 1

    def __init__(self, op: OperatorHandle):
        self.op = op
        self.n = op.dim
        self.modal = op.diagonalizable
        if self.modal:
            self._w = op.spectrum
            self._V = op.eigvecs
            self._Vinv = op.eigvecs_inv

    def _assemble(self, coeffs: np.ndarray) -> np.ndarray:
        """Turn modal coefficients (..., n) into dense stacks (..., n, n)."""
        return np.einsum("ij,...j,jk->...ik", self._V, coeffs, self._Vinv)

    def exp_stack(self, ts: np.ndarray) -> np.ndarray:
        """Dense matrices e^{t X} for each t in ts: shape (len(ts), n, n)."""
        ts = np.asarray(ts, dtype=float)
        if self.modal:
            return self._assemble(np.exp(np.multiply.outer(ts, self._w)))
        T, Q = self.op.schur()
        out = np.empty((len(ts), self.n, self.n), dtype=complex)
        for i, t in enumerate(ts):
            out[i] = Q @ sla.expm(t * T) @ Q.conj().T
        return out

    def step_weights(self, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, chi) step-integral weights: each shape (J, MAX_DEG, n, n)."""
        hs = np.asarray(hs, dtype=float)
        p = self.MAX_DEG
        if self.modal:
            Z = np.multiply.outer(hs, self._w)  # (J, n)
            psi = _psi_from_phi(phi_stack(Z, p))          # (p, J, n)
            chi = chi_stack(Z, p - 1)                     # (p, J, n)
            psi_d = self._assemble(np.moveaxis(psi, 0, 1))
            chi_d = self._assemble(np.moveaxis(chi, 0, 1))
            return psi_d, chi_d
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


def convolve_forward(
    prop: Propagator, nodes: np.ndarray, d: np.ndarray, exp_steps: np.ndarray,
    psi: np.ndarray,
) -> np.ndarray:
    """I(x_i) = int_a^{x_i} e^{(x_i - s) X} f(s) ds on the grid.

    d: hermite coefficients (J, 6, n, r); exp_steps: e^{h_j X} (J, n, n);
    psi: forward step weights (J, 6, n, n).  Returns (N, n, r).
    """
    J = d.shape[0]
    hs = np.diff(nodes)
    contrib = hs[:, None, None] * np.einsum("jmik,jmkr->jir", psi, d)
    out = np.zeros((J + 1,) + d.shape[2:], dtype=complex)
    for j in range(J):
        out[j + 1] = exp_steps[j] @ out[j] + contrib[j]
    return out


def convolve_backward(
    prop: Propagator, nodes: np.ndarray, d: np.ndarray, exp_steps: np.ndarray,
    chi: np.ndarray,
) -> np.ndarray:
    """I(x_i) = int_{x_i}^b e^{(s - x_i) X} f(s) ds on the grid."""
    J = d.shape[0]
    hs = np.diff(nodes)
    contrib = hs[:, None, None] * np.einsum("jmik,jmkr->jir", chi, d)
    out = np.zeros((J + 1,) + d.shape[2:], dtype=complex)
    for j in range(J - 1, -1, -1):
        out[j] = exp_steps[j] @ out[j + 1] + contrib[j]
    return out
