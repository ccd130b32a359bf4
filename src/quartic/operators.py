"""Functional calculus on dense finite-dimensional surrogate operators.

Handles are immutable dense complex matrices with a validated spectral
factorization.  Matrix functions go through the eigendecomposition when the
eigenvector basis is well conditioned and through Schur-based numerics
(``scipy.linalg.sqrtm``, ``expm``) otherwise.  All operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    FactorizationFailure,
    NearSpectrum,
    NonFinite,
    SampleOnSpectrum,
    SingularOrIllConditioned,
    SpectrumOnCut,
)

__all__ = [
    "OperatorHandle",
    "SectorProbe",
    "make_operator",
    "dirichlet_laplacian_modes",
    "sqrt_symbols",
    "sqrt_matrix",
    "sqrt_principal",
    "expm_apply",
    "resolvent_apply",
    "inverse_I_minus",
    "guarded_inverse_I_minus",
    "sector_angle_probe",
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
    label: str = ""
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


def make_operator(matrix, label: str = "", eig=None) -> OperatorHandle:
    """Wrap a square complex matrix, validating its factorization.

    ``eig`` = (w, V) hands in eigenpairs the caller already has, such as
    (conj(a), V_A^{-H}) for A^H when A = V_A diag(a) V_A^{-1}, in place of
    ``np.linalg.eig``; they pass the same residual check, condition test and
    inversion as computed ones.  Raises
    NonFinite for NaN/Inf entries and FactorizationFailure when the
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

    if eig is None:
        w, V = np.linalg.eig(A)
    else:
        w, V = (np.array(x, dtype=complex) for x in eig)
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
        return OperatorHandle(A, w, label, V, Vinv, float(cond))
    return OperatorHandle(A, w, label, None, None, float(cond))


def dirichlet_laplacian_modes(n_modes: int) -> OperatorHandle:
    """Diagonal surrogate of the Dirichlet Laplacian on (0, pi).

    Modes are the sine eigenfunctions, so the operator is diag(-1, -4, ...,
    -n^2); its negative is positive definite with sector half-angle 0.
    """
    if n_modes < 1:
        raise DimensionMismatch("n_modes must be >= 1")
    d = -np.arange(1, n_modes + 1, dtype=float) ** 2
    return make_operator(np.diag(d.astype(complex)), label=f"laplacian[{n_modes}]")


def sqrt_symbols(w: np.ndarray) -> np.ndarray:
    """Principal square roots of the eigenvalues w: one operator's (n,), or
    (K, n) rows of K operators'.

    Rejects any eigenvalue within tolerance of the cut (-inf, 0], measured on
    the scale of its own row.
    """
    scale = np.maximum(np.max(np.abs(w), axis=-1, keepdims=True), 1.0)
    on_cut = (w.real <= tol.FACTOR_RESIDUAL * scale) & (
        np.abs(w.imag) <= 1e3 * tol.FACTOR_RESIDUAL * scale
    )
    if np.any(on_cut):
        raise SpectrumOnCut(f"eigenvalue(s) {w[on_cut]} on the branch cut")
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


def sqrt_principal(T: OperatorHandle) -> OperatorHandle:
    """Principal matrix square root: spectrum in the open right half-plane.

    Rejects operators with an eigenvalue within tolerance of the cut
    (-inf, 0].  A trusted eigenbasis gives the root mode by mode; otherwise
    it comes from ``sqrt_matrix``.
    """
    if T.diagonalizable:
        S = _checked_root((T.eigvecs * sqrt_symbols(T.spectrum)) @ T.eigvecs_inv, T.matrix)
    else:
        S = sqrt_matrix(T.matrix)
    return make_operator(S, label=f"sqrt({T.label})")


def expm_apply(T: OperatorHandle, t: float, v: np.ndarray) -> np.ndarray:
    """Evaluate e^{tT} v for t >= 0; t = 0 returns v exactly."""
    v = np.asarray(v, dtype=complex)
    if v.shape[0] != T.dim:
        raise DimensionMismatch(f"vector length {v.shape[0]} != dim {T.dim}")
    if t < 0:
        raise ValueError("t must be >= 0 (forward semigroup only)")
    if t == 0:
        return v.copy()
    if T.diagonalizable:
        y = T.eigvecs_inv @ v.reshape(T.dim, -1)
        y = np.exp(t * T.spectrum)[:, None] * y
        return (T.eigvecs @ y).reshape(v.shape)
    import scipy.linalg as sla

    return sla.expm(t * np.asarray(T.matrix)) @ v


def resolvent_apply(T: OperatorHandle, lam: complex, v: np.ndarray) -> np.ndarray:
    """Solve (lam I - T) x = v with a conditioning guard.

    Raises NearSpectrum when the shifted matrix condition estimate exceeds
    the cap, and checks the back-substituted residual.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape[0] != T.dim:
        raise DimensionMismatch(f"vector length {v.shape[0]} != dim {T.dim}")
    A = lam * np.eye(T.dim) - T.matrix
    # scaled condition estimate: stays meaningful even at dim 1, where the
    # raw matrix condition number is identically one
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    cond = (abs(lam) + T.norm()) / smin if smin > 0 else np.inf
    if not np.isfinite(cond) or cond > tol.CONDITION_CAP:
        raise NearSpectrum(f"shift {lam} too close to spectrum (cond {cond:.3e})")
    x = np.linalg.solve(A, v)
    res = np.linalg.norm(A @ x - v)
    bound = tol.FACTOR_RESIDUAL * (abs(lam) + T.norm()) * max(np.linalg.norm(x), 1e-300)
    if res > max(bound, 1e4 * tol.FACTOR_RESIDUAL * np.linalg.norm(v)):
        raise NearSpectrum(f"resolvent residual {res:.3e} above bound {bound:.3e}")
    return x


def inverse_I_minus(T: np.ndarray, label: str) -> np.ndarray:
    """(I - T)^{-1} for the square matrix T, refusing non-finite T and
    ill-conditioned inversions with SingularOrIllConditioned."""
    if not np.all(np.isfinite(T)):
        raise SingularOrIllConditioned(f"{label} has non-finite entries")
    eye = np.eye(len(T))
    A = eye - T
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularOrIllConditioned(f"I - {label} is singular") from exc
    # scaled condition estimate (valid at dim 1): size of the inverse against
    # the natural scale of I - T
    cond = (1.0 + np.linalg.norm(T, 2)) * np.linalg.norm(inv, 2)
    if not np.isfinite(cond) or cond > tol.CONDITION_CAP:
        raise SingularOrIllConditioned(f"I - {label} has condition estimate {cond:.3e}")
    res = np.linalg.norm(A @ inv - eye)
    if res > tol.FACTOR_RESIDUAL * max(cond, 1.0) * 1e3:
        raise SingularOrIllConditioned(f"inverse residual {res:.3e}")
    return inv


def guarded_inverse_I_minus(T: OperatorHandle) -> OperatorHandle:
    """Return (I - T)^{-1}, refusing ill-conditioned inversions
    (``inverse_I_minus``).

    The returned handle's label records whether ||T|| < 1, i.e. whether the
    inverse is in the Neumann-series-safe regime.
    """
    inv = inverse_I_minus(T.matrix, T.label or "T")
    regime = "contractive" if T.norm() < 1.0 else "non-contractive"
    return make_operator(inv, label=f"(I-{T.label})^-1[{regime}]")


def operator_norm(M: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted-l2 induced norm: largest singular value of D^{1/2} M D^{-1/2}.

    D = diag(weights); unit weights give the plain spectral norm.  This is
    the package-wide surrogate for operator norms on function spaces.
    """
    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise NonFinite("matrix has non-finite entries")
    if weights is None:
        return float(np.linalg.norm(M, 2))
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != M.shape[0] or np.any(w <= 0):
        raise DimensionMismatch("weights must be positive and match the matrix")
    d = np.sqrt(w)
    return float(np.linalg.norm((d[:, None] * M) / d[None, :], 2))


@dataclass(frozen=True)
class SectorProbe:
    """Result of sampling ||lam (lam I - T)^{-1}|| outside a shifted sector."""

    angle_alpha: float
    shift: complex
    ray_samples: tuple  # of (lam, norm) pairs
    sup_bound: float
    blow_up: bool


def _outside_closed_sector(z: complex, alpha: float) -> bool:
    """True when z lies outside the closed sector S̄_alpha (arg in (-pi, pi])."""
    if z == 0:
        return False
    if alpha == 0.0:
        return not (z.imag == 0.0 and z.real > 0.0)
    return abs(np.angle(z)) > alpha


def sector_angle_probe(
    T: OperatorHandle,
    alpha: float,
    shift: complex = 0.0,
    radii=None,
    angles=None,
    weights: np.ndarray | None = None,
) -> SectorProbe:
    """Sample the sectoriality bound of T about the vertex ``shift``.

    The claim being probed is sigma(T) subset shift + S̄_alpha together with
    a finite sup of ||lam (lam I - (T - shift I))^{-1}|| over lam outside the
    closed sector.  Samples lam = rho e^{i phi} must satisfy |phi| > alpha.
    """
    if radii is None:
        radii = np.logspace(-2, 3, 26)
    if angles is None:
        lo = min(alpha + tol.SECTOR_MARGIN, np.pi - 1e-9)
        mags = np.linspace(lo, np.pi, 5)
        angles = np.concatenate([mags, -mags[:-1]])
    Ts = T.matrix - shift * np.eye(T.dim)
    samples = []
    # containment is half of the sectoriality claim: an eigenvalue outside
    # the closed shifted sector is itself a blow-up witness
    blow_up = bool(
        np.any([_outside_closed_sector(ev - shift, alpha) for ev in T.spectrum])
    )
    sup = 0.0
    eye = np.eye(T.dim)
    for phi in np.atleast_1d(angles):
        for rho in np.atleast_1d(radii):
            lam = rho * np.exp(1j * phi)
            if not _outside_closed_sector(lam, alpha):
                raise SampleOnSpectrum(
                    f"sample {lam} not outside the closed sector of angle {alpha}"
                )
            A = lam * eye - Ts
            smin = np.linalg.svd(A, compute_uv=False)[-1]
            if smin <= 1e-300:
                blow_up = True
                samples.append((lam, np.inf))
                continue
            nrm = abs(lam) * operator_norm(np.linalg.inv(A), weights)
            if nrm > tol.BLOWUP_CAP:
                blow_up = True
            samples.append((lam, nrm))
            sup = max(sup, nrm)
    return SectorProbe(float(alpha), complex(shift), tuple(samples), sup, blow_up)


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
