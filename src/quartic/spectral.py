"""Parameter sweeps: resolvent norms, sector geometry, decay diagnostics.

The sweep walks a polar grid around the branch vertex -k^2/4, materializes
the resolvent of the fourth-order generator as a matrix on the sample grid,
and records weighted operator norms and the scaled ratio
(1 + |lambda - vertex|) * ||R(lambda)||.  Per-parameter failures are
collected as findings, not fatal errors: for the clamped/derivative families
they witness the excluded ball around the vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .bvp import (
    DERIVATIVE_FAMILIES,
    ProblemSpec,
    _SOLVERS,
    _field_to_internal,
    _lambda_frame,
    _particular,
    _zero_phi,
    resolvent_matrix,
)
from .errors import BranchCut, NearSpectrum, NotInResolventSet, SingularSystem
from .grids import Grid, GridFunction, cgl_grid
from .operators import make_operator, operator_norm
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
    alpha = 2.0 * theta_a
    if alpha == 0.0:
        inside = (w.imag == 0.0) and (w.real > 0.0)
    else:
        inside = abs(np.angle(w)) <= alpha
    return INSIDE_SECTOR if inside else OUTSIDE_SECTOR


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
    """Polar sample grid around the branch vertex, outside the closed sector."""

    vertex: complex
    radii: np.ndarray
    angles: np.ndarray
    exclusion_radius: float = 0.0
    theta_a: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        if len(self.radii) == 0 or len(self.angles) == 0:
            raise ValueError("sweep grid must have radii and angles")
        for lam in self.points():
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


def _map_norm_power(spec: ProblemSpec, adj_spec: ProblemSpec, lam: complex, grid: Grid,
                    w: np.ndarray, rel_tol: float = 1e-6, max_iter: int = 200) -> float:
    """Norm estimate without materialization: power iteration on R~* R.

    The adjoint application uses the resolvent of ``adj_spec``, the
    conjugate-transposed problem; for the normal surrogates this is the exact
    discrete adjoint up to quadrature asymmetry.  ``w`` holds the norm's
    quadrature weights.  Both frames are built once and reused by every
    iteration.
    """
    n = spec.A.dim
    solve = _SOLVERS[spec.bc_family]
    frame = _lambda_frame(spec, lam)
    adj_frame = _lambda_frame(adj_spec, np.conj(lam))
    rng = np.random.default_rng(7)
    x = rng.normal(size=n * grid.n) + 1j * rng.normal(size=n * grid.n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(max_iter):
        gx = GridFunction(grid, x.reshape(grid.n, n).T)
        y = solve(frame, gx).values.T.reshape(-1)
        gy = GridFunction(grid, y.reshape(grid.n, n).T)
        z = solve(adj_frame, gy).values.T.reshape(-1)
        ray = np.vdot(x, w * z).real / np.vdot(x, w * x).real
        new = float(np.sqrt(max(ray, 0.0)))
        nz = np.linalg.norm(z)
        if nz == 0:
            return 0.0
        x = z / nz
        if est > 0 and abs(new - est) <= rel_tol * est:
            return new
        est = new
    return float(est)


def run_sweep(
    spec: ProblemSpec,
    sweep: SweepGrid,
    n_nodes: int = 40,
) -> SweepReport:
    """Measure resolvent norms over the sweep grid.

    Requires a positive exclusion radius for the clamped/derivative families
    (DERIVATIVE_FAMILIES); per-parameter frame failures become findings.
    Norms are weighted SVDs of the materialized resolvent while
    dim(A) * n_nodes <= DENSE_CAP, and power iterations beyond.
    """
    if spec.bc_family in DERIVATIVE_FAMILIES and sweep.exclusion_radius <= 0:
        raise ValueError(f"families {DERIVATIVE_FAMILIES} need exclusion_radius > 0")
    grid = cgl_grid(n_nodes, spec.a, spec.b)
    lams = sweep.points()
    weights = np.repeat(grid.weights, spec.A.dim)
    power = spec.A.dim * grid.n > tol.DENSE_CAP
    adj_spec = ProblemSpec(spec.a, spec.b, spec.k, make_operator(spec.A.matrix.conj().T),
                           spec.bc_family) if power else None

    def job(lam):
        try:
            if power:
                nrm, how = _map_norm_power(spec, adj_spec, lam, grid, weights), "power"
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
        frame = _lambda_frame(spec, lam)
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
