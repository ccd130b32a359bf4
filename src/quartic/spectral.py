"""Parameter sweeps: resolvent norms, sector geometry, decay diagnostics.

The sweep walks a polar grid around the branch vertex -k^2/4, materializes
the resolvent of the fourth-order generator as a matrix on the sample grid,
and records weighted operator norms and the scaled ratio
(1 + |lambda - vertex|) * ||R(lambda)||.  Per-parameter failures are
collected as findings, not fatal errors: for the clamped/derivative families
they witness the excluded ball around the vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .bvp import (
    DERIVATIVE_FAMILIES,
    ProblemSpec,
    _SOLVERS,
    _field_to_internal,
    _lambda_frames,
    _particular,
    _seed_conjugate_kit,
    _zero_phi,
    resolvent_blocks,
    resolvent_matrix,
)
from .errors import BranchCut, NearSpectrum, NonFinite, NotInResolventSet, SingularSystem
from .grids import Grid, GridFunction, cgl_grid
from .operators import OperatorHandle, _outside_closed_sector, make_operator, operator_norm
from .oracle import dense_generator

__all__ = [
    "SweepGrid",
    "SweepReport",
    "SweepRecord",
    "classify_lambda",
    "classify_lambda_by_argument",
    "branch_angle_check",
    "make_sweep_grid",
    "run_sweep",
    "decay_diagnostics",
    "generator_sector_check",
]

INSIDE_SECTOR = "INSIDE_SECTOR"
OUTSIDE_SECTOR = "OUTSIDE_SECTOR"
VERTEX = "VERTEX"


def classify_lambda(lam: complex, k: float, theta_a: float) -> str:
    """Direct geometric test of lam against the shifted closed sector.

    The vertex is -k^2/4; INSIDE means lam - vertex lies in the closed
    sector of half-angle 2*theta_a around the positive real axis (a ray for
    theta_a = 0).
    """
    w = complex(lam) + k * k / 4.0
    if w == 0:
        return VERTEX
    return OUTSIDE_SECTOR if _outside_closed_sector(w, 2.0 * theta_a) else INSIDE_SECTOR


def classify_lambda_by_argument(lam: complex, k: float, theta_a: float) -> str:
    """Equivalent argument-inequality test: |arg(-w) +/- pi| < 2(pi - theta_a)."""
    w = complex(lam) + k * k / 4.0
    if w == 0:
        return VERTEX
    arg = np.angle(-w)
    bound = 2.0 * (np.pi - theta_a)
    outside = (abs(arg + np.pi) < bound) and (abs(arg - np.pi) < bound)
    return OUTSIDE_SECTOR if outside else INSIDE_SECTOR


def branch_angle_check(lam: complex, k: float, theta_a: float):
    """Angles of the two shifted factors and the parabolicity inequality.

    Returns (theta1, theta2, ok) where theta1/theta2 are the sector angles
    the two factor operators inherit at this parameter and ok records the
    strict inequality theta_a + |arg(+-i sqrt(-lam-k^2/4))| < pi.
    """
    w = -complex(lam) - k * k / 4.0
    if w == 0:
        raise BranchCut("angle check undefined at the vertex")
    arg = np.angle(w)
    half_plus = abs(arg + np.pi) / 2.0
    half_minus = abs(arg - np.pi) / 2.0
    theta1 = max(theta_a, half_plus)
    theta2 = max(theta_a, half_minus)
    ok = (theta_a + half_plus < np.pi) and (theta_a + half_minus < np.pi)
    return theta1, theta2, bool(ok)


@dataclass(frozen=True)
class SweepGrid:
    """Polar sample grid around the branch vertex, outside the closed sector.

    Every point must lie at its radius from the vertex to 1e-3 relative: a
    vertex -k^2/4 far larger than the radii rounds the offsets away.
    """

    vertex: complex
    radii: np.ndarray
    angles: np.ndarray
    exclusion_radius: float = 0.0
    theta_a: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        if len(self.radii) == 0 or len(self.angles) == 0:
            raise ValueError("sweep grid must have radii and angles")
        radii = np.tile(np.asarray(self.radii, float), len(self.angles))
        for lam, rho in zip(self.points(), radii):
            if abs(abs(lam - self.vertex) - rho) > 1e-3 * rho:
                raise ValueError(
                    f"grid point at radius {rho:g} lies {abs(lam - self.vertex):g} from the "
                    f"vertex {self.vertex} (k = {self.k!r}): the vertex rounds the radius away")
            if classify_lambda(lam, self.k, self.theta_a) != OUTSIDE_SECTOR:
                raise ValueError(f"grid point {lam} is not outside the closed sector")
            if abs(lam - self.vertex) <= self.exclusion_radius * (1 - 1e-12):
                raise ValueError(f"grid point {lam} violates the exclusion radius")

    def points(self) -> np.ndarray:
        rho = np.asarray(self.radii, float)
        phi = np.asarray(self.angles, float)
        return (self.vertex + np.multiply.outer(np.exp(1j * phi), rho)).reshape(-1)


def make_sweep_grid(
    k: float,
    theta_a: float,
    radii=None,
    n_angles: int = 10,
    margin: float = tol.SECTOR_MARGIN,
    exclusion_radius: float = 0.0,
    angle_min: float | None = None,
) -> SweepGrid:
    """Log-spaced radii and symmetric angles outside the closed shifted sector.

    ``margin`` is the validity floor above the sector boundary; the default
    smallest sampled angle sits further out so that resolvent-norm peaks
    (width ~ sin(angle) near eigenvalue shadows) stay resolved by the radial
    grid and the reported maximum is stable under radial refinement.
    """
    if radii is None:
        radii = np.logspace(-2, 4, 50)
    radii = np.asarray(radii, float)
    if exclusion_radius > 0:
        radii = radii[radii > exclusion_radius]
    lo = 2.0 * theta_a + margin
    if lo >= np.pi:
        raise ValueError("sector leaves no room for sampling")
    amin = max(lo, angle_min if angle_min is not None else 2.0 * theta_a + 0.35)
    amin = min(amin, np.pi - 1e-6)
    half = (n_angles + 1) // 2
    mags = np.linspace(amin, np.pi, half)
    angles = np.concatenate([mags, -mags[: n_angles - half]])
    return SweepGrid(-k * k / 4.0, radii, angles, exclusion_radius, theta_a, k)


@dataclass(frozen=True)
class SweepRecord:
    lam: complex
    norm: float
    ratio: float
    frame_ok: bool
    note: str = ""


@dataclass
class SweepReport:
    """Per-parameter records plus the empirical constants of the sweep."""

    grid: SweepGrid
    records: list
    c_empirical: float
    failures: list
    r_observed: float
    upward_flags: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "c_empirical": self.c_empirical,
            "r_observed": self.r_observed,
            "failures": len(self.failures),
            "n_points": len(self.records),
            "upward_flagged_angles": len(self.upward_flags),
        }


def _start_vector(size: int) -> np.ndarray:
    """``size`` standard complex Gaussians from the stdlib Mersenne Twister,
    seed 7: the same numbers on every platform and Python >= 3.9, and no
    ``numpy.random`` import.  Each pair of little-endian 64-bit words gives
    two uniforms in the open interval (0, 1), ((bits >> 11) + 1/2) 2^-53, and
    one Box-Muller pair."""
    bits = np.frombuffer(random.Random(7).randbytes(16 * size), dtype="<u8")
    u = ((bits >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log(u[0::2])) * np.exp(2j * np.pi * u[1::2])


def _ritz_norm(w: np.ndarray, x_prev: np.ndarray, x: np.ndarray, bx_prev: np.ndarray,
               bx: np.ndarray, rayleigh: float) -> float:
    """sqrt of the largest Rayleigh-Ritz value of B on span{x_prev, x} in the
    W-inner product, given B x_prev and B x: the 2 x 2 pencil
    (Q^H W B Q, Q^H W Q) on Q = [x_prev, x], with the Hermitian part of the
    projected B.  Falls back to ``rayleigh`` when the Gram matrix is not
    numerically positive definite or the Ritz value lies below it.  The Gram
    matrix counts as singular when x is W-parallel to x_prev to within
    sin^2 <= 1e4 eps: the pencil then scales the rounding of B x by 1/sin^2,
    and for a nearly rank-one B, whose iterates agree to rounding, it gave
    values up to 18 % too large."""
    q, bq = np.stack([x_prev, x], axis=1), np.stack([bx_prev, bx], axis=1)
    wq = w[:, None] * q
    h = wq.conj().T @ bq
    gram = wq.conj().T @ q
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return rayleigh
    if abs(L[1, 1]) ** 2 <= 1e4 * np.finfo(float).eps * gram[1, 1].real:
        return rayleigh
    c = np.linalg.inv(L)
    theta = np.linalg.eigvalsh(c @ (0.5 * (h + h.conj().T)) @ c.conj().T)[-1]
    return float(np.sqrt(theta)) if theta >= rayleigh * rayleigh else rayleigh


def _adjoint_operator(A: OperatorHandle) -> OperatorHandle:
    """A^H.  For A with a trusted eigenbasis, A^H = V^{-H} diag(conj a) V^H is
    built from A's eigenpairs conjugated, in A's mode order, with no ``eig``
    of its own; that order lets ``_map_norm_power`` share each grid kit."""
    eig = (A.spectrum.conj(), A.eigvecs_inv.conj().T) if A.diagonalizable else None
    return make_operator(A.matrix.conj().T, eig=eig)


def _map_norm_power(spec: ProblemSpec, adj_spec: ProblemSpec, lam: complex, grid: Grid,
                    w: np.ndarray, rel_tol: float = 1e-6, max_iter: int = 200) -> float:
    """Norm estimate without materialization: power iteration on B = R~* R.

    The adjoint application uses the resolvent of ``adj_spec``, the
    conjugate-transposed problem; for the normal surrogates this is the exact
    discrete adjoint up to quadrature asymmetry.  ``w`` holds the norm's
    quadrature weights.  Both frames are built once and reused by every
    iteration.  When ``adj_spec``'s operator holds A's eigenvalues conjugated
    in A's mode order (``run_sweep``), the adjoint frame's generators are the
    forward frame's conjugated and swapped, and it takes the forward grid
    kit conjugated instead of computing its own (``bvp._seed_conjugate_kit``).
    The start vector comes from ``_start_vector``.  The iteration stops when
    the Rayleigh value sqrt(<x, Bx>_W / <x, x>_W) moves by at most
    ``rel_tol``; the reported norm is then the Rayleigh-Ritz value on the
    last two iterates (``_ritz_norm``), which needs no further solve: B x_prev
    is the previous step's z, and B x the last one's.
    """
    n = spec.A.dim
    solve = _SOLVERS[spec.bc_family]
    frame = _lambda_frames(spec, lam)
    adj_frame = _lambda_frames(adj_spec, np.conj(lam))
    _seed_conjugate_kit(frame, adj_frame, grid)

    def apply(v):  # B v on node-major vectors
        gv = GridFunction(grid, v.reshape(grid.n, n).T)
        return solve(adj_frame, solve(frame, gv)).values.T.reshape(-1)

    x = _start_vector(n * grid.n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(max_iter):
        z = apply(x)
        ray = np.vdot(x, w * z).real / np.vdot(x, w * x).real
        new = float(np.sqrt(max(ray, 0.0)))
        nz = np.linalg.norm(z)
        if nz == 0:
            return 0.0
        if est > 0 and abs(new - est) <= rel_tol * est:
            return _ritz_norm(w, x_prev, x, z_prev, z, new)
        x_prev, z_prev, est = x, z, new
        x = z / nz
    return float(est)


def _per_mode_norm(blocks: np.ndarray, weights: np.ndarray) -> float:
    """max_i ||W^{1/2} R_i W^{-1/2}||_2 over (n, N, N) per-mode blocks R_i.

    ``weights`` are the N node weights W.  With A's eigenbasis V unitary this
    is the weighted norm of V R_i V^{-1} assembled, since V acts on the
    components and W on the nodes; otherwise it is off by up to cond(V) - 1.
    """
    if not np.all(np.isfinite(blocks)):
        raise NonFinite("resolvent blocks have non-finite entries")
    d = np.sqrt(weights)
    return float(np.max(np.linalg.norm(d[:, None] * blocks / d, 2, axis=(1, 2))))


def run_sweep(
    spec: ProblemSpec,
    sweep: SweepGrid,
    n_nodes: int = 40,
) -> SweepReport:
    """Measure resolvent norms over the sweep grid.

    Requires a positive exclusion radius for the clamped/derivative families
    (DERIVATIVE_FAMILIES); per-parameter frame failures become findings.
    While dim(A) * n_nodes <= DENSE_CAP every norm is exact (note "dense"):
    for A with a unitary eigenbasis (eig_cond - 1 <= UNITARY_BASIS_GAP) it is
    the largest weighted norm of the per-mode blocks (``resolvent_blocks``),
    and for every other A the weighted SVD of the materialized resolvent
    (``resolvent_matrix``).  Beyond the cap norms come from power iteration
    (note "power", ``_map_norm_power``) against the resolvent of the
    conjugate-transposed problem, whose operator is built once
    (``_adjoint_operator``).
    """
    if spec.bc_family in DERIVATIVE_FAMILIES and sweep.exclusion_radius <= 0:
        raise ValueError(f"families {DERIVATIVE_FAMILIES} need exclusion_radius > 0")
    grid = cgl_grid(n_nodes, spec.a, spec.b)
    lams = sweep.points()
    weights = np.repeat(grid.weights, spec.A.dim)
    power = spec.A.dim * grid.n > tol.DENSE_CAP
    per_mode = spec.A.diagonalizable and spec.A.eig_cond - 1.0 <= tol.UNITARY_BASIS_GAP
    adj_spec = ProblemSpec(spec.a, spec.b, spec.k, _adjoint_operator(spec.A),
                           spec.bc_family) if power else None

    def job(lam):
        try:
            if power:
                nrm, how = _map_norm_power(spec, adj_spec, lam, grid, weights), "power"
            elif per_mode:
                nrm = _per_mode_norm(resolvent_blocks(spec, lam, grid), grid.weights)
                how = "dense"
            else:
                nrm, how = operator_norm(resolvent_matrix(spec, lam, grid), weights), "dense"
            ratio = (1.0 + abs(lam - sweep.vertex)) * nrm
            return SweepRecord(lam, nrm, ratio, True, how)
        except (NotInResolventSet, BranchCut, NearSpectrum, SingularSystem) as exc:
            return SweepRecord(lam, np.nan, np.nan, False, type(exc).__name__)

    records = [job(lam) for lam in lams]

    good = [r for r in records if r.frame_ok]
    failures = [r for r in records if not r.frame_ok]
    c_emp = max((r.ratio for r in good), default=np.nan)
    r_obs = max((abs(r.lam - sweep.vertex) for r in failures), default=0.0)

    # upward-trend heuristic: slope of log ratio vs log radius over the last
    # decade of each angle ray
    upward = []
    nr = len(sweep.radii)
    for ia in range(len(sweep.angles)):
        ray = records[ia * nr:(ia + 1) * nr]
        rr, yy = [], []
        for r, rad in zip(ray, sweep.radii):
            if r.frame_ok and np.isfinite(r.ratio) and rad >= sweep.radii[-1] / 10.0:
                rr.append(np.log10(rad))
                yy.append(np.log10(max(r.ratio, 1e-300)))
        if len(rr) >= 3:
            slope = np.polyfit(rr, yy, 1)[0]
            if slope > 0.05:
                upward.append((float(sweep.angles[ia]), float(slope)))
    return SweepReport(sweep, records, float(c_emp), failures, float(r_obs), upward)


def decay_diagnostics(spec: ProblemSpec, lam_samples) -> dict:
    """Factor-operator norm table over parameter samples.

    Tabulates ||M L^{-1}||, ||L M^{-1}||, the interval decay of the squared
    generators, and the particular-solution decay ratios; reports the fitted
    decay rate and boundedness/monotonicity findings.
    """
    rows = []
    c = spec.c
    grid = cgl_grid(48, spec.a, spec.b)
    rng = np.random.default_rng(3)
    fvals = rng.normal(size=(spec.A.dim, grid.n)) + 1j * rng.normal(size=(spec.A.dim, grid.n))
    f = GridFunction(grid, fvals)
    fnorm = f.norm()
    for lam in lam_samples:
        frame = _lambda_frames(spec, lam)
        dist = abs(lam + spec.k**2 / 4.0)
        ml = operator_norm(frame.m @ np.linalg.inv(frame.l))
        lm = operator_norm(frame.l @ np.linalg.inv(frame.m))
        m2e = operator_norm(frame.m @ frame.m @ frame.e_cm)
        l2e = operator_norm(frame.l @ frame.l @ frame.e_cl)
        ecm = operator_norm(frame.e_cm)
        part = _particular(frame, grid, frame.to_modes(_field_to_internal(f)),
                           _zero_phi(frame.n))
        v0n = GridFunction(grid, frame.from_modes(part["v0"])[:, :, 0].T).norm()
        fpn = float(np.linalg.norm(frame.from_modes(part["fpa"]))
                    + np.linalg.norm(frame.from_modes(part["fpb"])))
        rows.append({
            "lam": lam, "dist": dist, "ml": ml, "lm": lm,
            "m2ecm": m2e, "l2ecl": l2e, "ecm": ecm,
            "v0_ratio": v0n / fnorm, "fp_ratio": fpn / fnorm,
        })
    rows.sort(key=lambda r: r["dist"])
    dists = np.array([r["dist"] for r in rows])
    m2 = np.array([max(r["m2ecm"], 1e-300) for r in rows])
    # fitted rate: ||M^2 e^{cM}|| <= K exp(-c w |lam - vertex|^{1/4})
    q = dists ** 0.25
    slope = np.polyfit(q, np.log(m2), 1)[0] if len(rows) >= 2 else 0.0
    omega_fit = max(-slope / c, 0.0)
    bounded = float(max(max(r["ml"], r["lm"]) for r in rows))
    ecm_vals = [r["ecm"] for r in rows]
    v0_vals = [r["v0_ratio"] for r in rows]
    return {
        "rows": rows,
        "ml_lm_bound": bounded,
        "omega_fit": float(omega_fit),
        "ecm_monotone_decreasing": all(
            ecm_vals[i + 1] <= ecm_vals[i] * (1 + 1e-8) for i in range(len(ecm_vals) - 1)
        ),
        "v0_monotone_decreasing": all(
            v0_vals[i + 1] <= v0_vals[i] * (1 + 1e-8) for i in range(len(v0_vals) - 1)
        ),
    }


def generator_sector_check(spec: ProblemSpec, n_nodes: int = 48,
                           bc_operator: str = "fixed") -> dict:
    """Eigenvalues of the dense surrogate shifted by the vertex.

    Reports the largest |arg| over the shifted spectrum and the largest
    relative imaginary part; the sector containment claim is that the former
    stays within 2*theta_a plus the probe margin.
    """
    gen = dense_generator(spec, n_nodes, bc_operator=bc_operator)
    evs = np.linalg.eigvals(gen.minus_generator) + spec.k**2 / 4.0
    mags = np.maximum(np.abs(evs), 1e-300)
    args = np.abs(np.angle(evs))
    rel_imag = np.abs(evs.imag) / np.maximum(1.0, mags)
    return {
        "eigenvalues": evs,
        "max_abs_arg": float(np.max(args)),
        "max_rel_imag": float(np.max(rel_imag)),
        "min_real": float(np.min(evs.real)),
    }
