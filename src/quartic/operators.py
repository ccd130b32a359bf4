"""Dense finite-dimensional surrogate operators and the pieces of calculus
the frames share.

A handle (``make_operator``) is an immutable dense complex matrix A with a
validated eigendecomposition.  Its ``block_form`` is the one factorization
every function of A starts from: A's eigenvalues in a trusted eigenbasis,
otherwise one upper-triangular block, A's complex Schur form.  The functions
themselves (the factors P and Q, l = -sqrt(-Q), m = -sqrt(-P), the interval
exponentials and the guarded inverses) are evaluated block by block by the
frame calculus, ``bvp._Blocks`` with ``kernels.Propagator``; this module
supplies their principal square roots (``sqrt_symbols`` for eigenvalues,
``sqrt_matrix`` for a block), the weighted operator norm of one matrix or a
stack of blocks, which the sweep's dense routes and the growth probe share,
and the sector angle of -A.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    FactorizationFailure,
    NonFinite,
    SpectrumOnCut,
    at_row,
)

__all__ = [
    "OperatorHandle",
    "make_operator",
    "dirichlet_laplacian_modes",
    "sqrt_symbols",
    "sqrt_matrix",
    "operator_norm",
    "sector_half_angle",
]


@dataclass(frozen=True)
class OperatorHandle:
    """Immutable dense operator with cached factorization data.

    ``eigvecs``/``eigvecs_inv`` are None when the eigenvector basis is too
    ill conditioned to trust.
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    eigvecs: np.ndarray | None = None
    eigvecs_inv: np.ndarray | None = None
    eig_cond: float = np.inf

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def diagonalizable(self) -> bool:
        return self.eigvecs is not None

    @cached_property
    def block_form(self):
        """(T, V, V^{-1}, cond(V)) with A = V diag(T_1, ..., T_R) V^{-1}, T the
        (R, b, b) stack of blocks.  A trusted eigenbasis gives b = 1 blocks,
        A's eigenvalues; otherwise A is one upper-triangular block, its
        complex Schur form, in the unitary Schur basis (cond 1), where the
        exponentials of its functions keep their accuracy however non-normal
        A is."""
        if self.diagonalizable:
            return self.spectrum[:, None, None], self.eigvecs, self.eigvecs_inv, self.eig_cond
        import scipy.linalg as sla

        T, Q = sla.schur(self.matrix, output="complex")
        return T[None], Q, Q.conj().T, 1.0


def make_operator(matrix) -> OperatorHandle:
    """Wrap a square complex matrix, validating its factorization.

    Raises NonFinite for NaN/Inf entries and FactorizationFailure when the
    eigenpair backward errors exceed tolerance.
    """
    A = np.asarray(matrix, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise NonFinite("matrix has non-finite entries")
    A = A.copy()
    A.setflags(write=False)

    w, V = np.linalg.eig(A)
    scale = max(np.linalg.norm(A, 2), 1.0)
    # per-eigenpair backward error ||Av - wv|| <= tol * ||A||
    res = np.linalg.norm(A @ V - V * w, axis=0) / np.linalg.norm(V, axis=0)
    if not np.max(res) <= 1e3 * tol.FACTOR_RESIDUAL * scale:  # NaN pairs fail too
        raise FactorizationFailure(
            f"eigenpair residual {np.max(res):.3e} exceeds tolerance"
        )
    cond = np.linalg.cond(V)
    if cond <= tol.EIG_COND_CAP:
        Vinv = np.linalg.inv(V)
        V.setflags(write=False)
        Vinv.setflags(write=False)
        return OperatorHandle(A, w, V, Vinv, float(cond))
    return OperatorHandle(A, w, None, None, float(cond))


def dirichlet_laplacian_modes(n_modes: int) -> OperatorHandle:
    """Diagonal surrogate of the Dirichlet Laplacian on (0, pi).

    Modes are the sine eigenfunctions, so the operator is diag(-1, -4, ...,
    -n^2); its negative is positive definite with sector half-angle 0.
    """
    if n_modes < 1:
        raise DimensionMismatch("n_modes must be >= 1")
    d = -np.arange(1, n_modes + 1, dtype=float) ** 2
    return make_operator(np.diag(d.astype(complex)))


def sqrt_symbols(w: np.ndarray) -> np.ndarray:
    """Principal square roots of the eigenvalues w: one operator's (n,), or
    (K, n) rows of K operators'.

    Rejects any eigenvalue within tolerance of the cut (-inf, 0], measured on
    the scale of its own row; the SpectrumOnCut records the first such row
    as ``row``.
    """
    scale = np.maximum(np.max(np.abs(w), axis=-1, keepdims=True), 1.0)
    on_cut = (w.real <= tol.FACTOR_RESIDUAL * scale) & (
        np.abs(w.imag) <= 1e3 * tol.FACTOR_RESIDUAL * scale
    )
    if np.any(on_cut):
        raise at_row(SpectrumOnCut(f"eigenvalue(s) {w[on_cut]} on the branch cut"),
                     int(np.argmax(np.atleast_2d(on_cut).any(axis=-1))))
    return np.sqrt(w)


def sqrt_matrix(M: np.ndarray) -> np.ndarray:
    """Principal square root of the square matrix M through its Schur form.

    Rejects M with an eigenvalue within tolerance of the cut (-inf, 0]
    (``sqrt_symbols``, SpectrumOnCut), and a root whose relative residual
    ||S^2 - M|| exceeds tolerance or is not finite (FactorizationFailure).
    """
    import scipy.linalg as sla

    sqrt_symbols(np.linalg.eigvals(M))
    return _checked_root(sla.sqrtm(M), M)


def _checked_root(S: np.ndarray, M: np.ndarray) -> np.ndarray:
    """S, after checking that it squares to M to tolerance."""
    res = np.linalg.norm(S @ S - M) / max(np.linalg.norm(M), 1.0)
    if not res <= 1e3 * tol.FACTOR_RESIDUAL:
        raise FactorizationFailure(f"square-root residual {res:.3e}")
    return S


def operator_norm(M: np.ndarray, weights: np.ndarray) -> float:
    """Weighted-l2 induced norm: the largest singular value of
    D^{1/2} M D^{-1/2}, D = diag(weights), for one (m, m) matrix M, or the
    largest over an (R, m, m) stack of blocks.

    This is the package-wide surrogate for operator norms on function
    spaces.  A sweep's per-mode blocks, with A's eigenbasis V unitary and
    the node weights W, give the weighted norm of V diag(R_i) V^{-1}
    assembled, since V acts on the components and W on the nodes.

    Only the blocks that can hold the maximum take an SVD.  The weighted
    blocks are visited in decreasing Frobenius norm, and a block's 2-norm is
    computed only while its Frobenius norm times 1 + 1e-12 exceeds the
    largest 2-norm so far.  Since ||M||_2 <= ||M||_F, and the margin covers
    the rounding of both computed norms, a skipped block cannot exceed that
    maximum: the result is the maximum over all blocks bit for bit.
    """
    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix has non-finite entries")
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != M.shape[-1] or np.any(w <= 0):
        raise DimensionMismatch("weights must be positive and match the matrix")
    d = np.sqrt(w)
    scaled = d[:, None] * M.reshape((-1,) + M.shape[-2:]) / d
    fro = np.linalg.norm(scaled, axis=(1, 2))
    best = 0.0
    for i in np.argsort(-fro):
        if fro[i] * (1.0 + 1e-12) <= best:
            break
        best = max(best, float(np.linalg.norm(scaled[i], 2)))
    return best


def _outside_closed_sector(z: complex, alpha: float) -> bool:
    """True when z lies outside the closed sector S̄_alpha (arg in (-pi, pi])."""
    if z == 0:
        return False
    if alpha == 0.0:
        return not (z.imag == 0.0 and z.real > 0.0)
    return abs(np.angle(z)) > alpha


def sector_half_angle(T: OperatorHandle) -> float:
    """max |arg(-eig)| over the spectrum: the sector angle of -T.

    Zero for negative-definite diagonal surrogates; pi/2 or more means -T is
    not sectorial with an acute angle.
    """
    w = -T.spectrum
    w = w[np.abs(w) > 0]
    if w.size == 0:
        return 0.0
    return float(np.max(np.abs(np.angle(w))))
