"""Parameter sweeps: resolvent norms over a polar grid, sector geometry.

The sweep walks a polar grid around the branch vertex -k^2/4 and records the
weighted resolvent norm of the fourth-order generator on the sample grid and
the scaled ratio (1 + |lambda - vertex|) * ||R(lambda)||, by one of three
routes (``run_sweep``): per-mode blocks, the assembled resolvent matrix, or
power iteration with an adjoint frame derived from the forward one.  Every
frame member is a scalar function of A, so the points of a sweep batch
like contour nodes: a batch of K = max(1, BATCH_ENTRIES // (dim(A) b N))
points (``bvp._batch_size``, b the block size) shares one batch frame and one
grid kit, and each point solves on its own view of them
(``BCFrame.parameter``); the power route, beyond DENSE_CAP, has K = 1.  A
batch that refuses is split at its first refused point.  The batches change
no record: a view equals the frame its point assembles alone.

A real problem (``ProblemSpec.real``), or A with a unitary eigenbasis and a
spectrum closed under conjugation (family 2 excepted), has
||R(conj lambda)|| = ||R(lambda)||, the identity that makes a real matrix's
pseudospectra mirror-symmetric.  The symmetric angles of ``make_sweep_grid``
then come in exact conjugate pairs, and the sweep evaluates one point of
each pair.  The discrete norms at lambda and conj(lambda) differ only by
the factor-order asymmetry (P and Q swap), measured at most 3.4e-5 relative
at N = 24 and 2.3e-7 at N = 48.
Per-parameter failures are collected as findings, not fatal errors: for the
clamped/derivative families they witness the excluded ball around the vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from . import tolerances as tol
from .bvp import (
    DERIVATIVE_FAMILIES,
    BCFrame,
    ProblemSpec,
    _SOLVERS,
    _batch_size,
    _lambda_frames,
    resolvent_blocks,
    resolvent_matrix,
)
from .errors import BranchCut, NonFinite, NotInResolventSet
from .grids import Grid, GridFunction, cgl_grid
from .operators import _outside_closed_sector, operator_norm

__all__ = [
    "SweepGrid",
    "SweepReport",
    "SweepRecord",
    "classify_lambda",
    "classify_lambda_by_argument",
    "make_sweep_grid",
    "run_sweep",
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
            "unconverged": sum(r.note == "power-unconverged" for r in self.records),
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


class _Unconverged(float):
    """The last estimate of a power iteration that ran ``max_iter`` steps."""


def _map_norm_power(spec: ProblemSpec, lam: complex, grid: Grid, w: np.ndarray,
                    rel_tol: float = 1e-6, max_iter: int = 200,
                    frame: BCFrame | None = None) -> float:
    """Norm estimate without materialization: power iteration on B = R~* R.

    R~ is the resolvent of A^H at conj(lam), whose frame and grid kit are
    derived from the forward ones (``BCFrame.adjoint``); for the normal
    surrogates it is the exact discrete adjoint up to quadrature asymmetry.
    ``w`` holds the norm's quadrature weights; the start vector comes from
    ``_start_vector``.  The iteration stops when the Rayleigh value
    sqrt(<x, Bx>_W / <x, x>_W) moves by at most ``rel_tol``; the reported
    norm is then the Rayleigh-Ritz value on the last two iterates
    (``_ritz_norm``), which needs no further solve: B x_prev is the previous
    step's z, and B x the last one's.  An iteration that has not converged
    after ``max_iter`` B-applications returns its last Rayleigh value as an
    ``_Unconverged``.  ``frame``, the forward frame at lam, is assembled when
    not given.
    """
    n = spec.A.dim
    solve = _SOLVERS[spec.bc_family]
    if frame is None:
        frame = _lambda_frames(spec, lam)
    frame.grid_kit(grid)  # before adjoint(), which derives its kit from this one
    adj_frame = frame.adjoint()

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
    return _Unconverged(est)


def _per_mode_norm(blocks: np.ndarray, weights: np.ndarray) -> float:
    """max_i ||W^{1/2} R_i W^{-1/2}||_2 over (n, N, N) per-mode blocks R_i.

    ``weights`` are the N node weights W.  With A's eigenbasis V unitary this
    is the weighted norm of V R_i V^{-1} assembled, since V acts on the
    components and W on the nodes; otherwise it is off by up to cond(V) - 1.

    Only the blocks that can hold the maximum take an SVD.  The weighted
    blocks are visited in decreasing Frobenius norm, and a block's 2-norm is
    computed only while its Frobenius norm times 1 + 1e-12 exceeds the
    largest 2-norm so far.  Since ||M||_2 <= ||M||_F, and the margin covers
    the rounding of both computed norms, a skipped block cannot exceed that
    maximum: the result is the maximum over all blocks bit for bit.
    """
    if not np.all(np.isfinite(blocks)):
        raise NonFinite("resolvent blocks have non-finite entries")
    d = np.sqrt(weights)
    scaled = d[:, None] * blocks / d
    fro = np.linalg.norm(scaled, axis=(1, 2))
    best = 0.0
    for i in np.argsort(-fro):
        if fro[i] * (1.0 + 1e-12) <= best:
            break
        best = max(best, float(np.linalg.norm(scaled[i], 2)))
    return best


def _conjugation_closed(w: np.ndarray) -> bool:
    """Every conj(w_i) lies within make_operator's eigenpair tolerance of
    some w_j."""
    gap = np.min(np.abs(w.conj()[:, None] - w[None, :]), axis=1)
    return bool(np.all(gap <= 1e3 * tol.FACTOR_RESIDUAL * max(1.0, np.max(np.abs(w)))))


def _conjugate_partners(lams: np.ndarray) -> dict:
    """{j: i} for the exact conjugate pairs lams[j] == conj(lams[i]), i < j:
    in grid order each point pairs with an earlier unpaired point."""
    partner, unpaired = {}, {}
    for j, lam in enumerate(map(complex, lams)):
        if lam.conjugate() in unpaired:
            partner[j] = unpaired.pop(lam.conjugate())
        else:
            unpaired[lam] = j
    return partner


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
    conjugate-transposed problem, whose frame each point derives from its
    forward frame (``BCFrame.adjoint``), so A is factored once per sweep.
    A point whose iteration does not converge keeps its last estimate with
    the note "power-unconverged".  Families 2 and 4 have no power route,
    because their formal adjoints have other boundary conditions than the
    family itself: beyond the cap they raise ValueError before any solve.

    When the norm is conjugation-symmetric, ||R(conj lam)|| = ||R(lam)||
    (a real problem, ``ProblemSpec.real``, or A with a unitary eigenbasis and
    a spectrum closed under conjugation, ``_conjugation_closed``, family 2
    excepted), only the first point of each exact conjugate pair in grid
    order is evaluated.  Its partner copies the norm, note and
    frame_ok, refusals included, and takes its ratio from its own lambda.
    A direct evaluation at conj(lambda) differs from the copy only by the
    discretization's factor-order asymmetry (P and Q swap): measured at most
    3.4e-5 relative at N = 24 and 2.3e-7 at N = 48, a small fraction of the
    discretization error itself.

    The evaluated points are taken in grid order in batches of
    K = max(1, BATCH_ENTRIES // (dim(A) b N)) on the dense route, b the
    block size (``bvp._batch_size``), the budget that sizes contour batches
    too; the power route takes K = 1, and each power point assembles its own
    frame.  A batch of K > 1 points assembles one batch frame and one grid
    kit (``_lambda_frames``), and each point solves on its view
    (``BCFrame.parameter``), which equals its own frame bit for bit.  A
    batch that refuses (NotInResolventSet or BranchCut) names its first
    refused point: the points before it are solved on the frame the refusal
    assembled for them (the exception's ``prefix``), the refusal is recorded
    from the exception, and batching resumes after it.  One batch is held at
    a time.
    """
    if spec.bc_family in DERIVATIVE_FAMILIES and sweep.exclusion_radius <= 0:
        raise ValueError(f"families {DERIVATIVE_FAMILIES} need exclusion_radius > 0")
    grid = cgl_grid(n_nodes, spec.a, spec.b)
    lams = sweep.points()
    weights = np.repeat(grid.weights, spec.A.dim)
    power = spec.A.dim * grid.n > tol.DENSE_CAP
    if power and spec.bc_family in (2, 4):
        raise ValueError(
            f"family {spec.bc_family} has no power route: dim(A) * n_nodes = "
            f"{spec.A.dim * grid.n} exceeds DENSE_CAP = {tol.DENSE_CAP}, and the adjoint "
            f"of family {spec.bc_family} has other boundary conditions than the family")
    per_mode = spec.A.diagonalizable and spec.A.eig_cond - 1.0 <= tol.UNITARY_BASIS_GAP
    size = 1 if power else _batch_size(spec, grid.n)
    symmetric = spec.real or (spec.bc_family != 2 and per_mode
                              and _conjugation_closed(spec.A.spectrum))
    partner = _conjugate_partners(lams) if symmetric else {}

    def record(lam, nrm, note="power" if power else "dense"):
        ratio = (1.0 + abs(lam - sweep.vertex)) * nrm
        return SweepRecord(lam, float(nrm), ratio, True, note)

    def job(lam, frame):
        if power:
            nrm = _map_norm_power(spec, lam, grid, weights, frame=frame)
            return record(lam, nrm, "power-unconverged" if isinstance(nrm, _Unconverged)
                          else "power")
        if per_mode:
            return record(lam, _per_mode_norm(resolvent_blocks(spec, lam, grid, frame),
                                              grid.weights))
        return record(lam, operator_norm(resolvent_matrix(spec, lam, grid, frame), weights))

    def evaluate(batch):
        """Records of the leading points of lams[batch]: all of them, from one
        frame and its grid kit, or those up to the first refused point."""
        try:
            frame, refused = _lambda_frames(spec, lams[batch]), []
        except (NotInResolventSet, BranchCut) as exc:
            bad = int(np.flatnonzero(lams[batch] == exc.lam)[0])
            refused = [SweepRecord(lams[batch[bad]], np.nan, np.nan, False, type(exc).__name__)]
            frame, batch = getattr(exc, "prefix", None), batch[:bad]
        if batch:
            frame.grid_kit(grid)
        return [job(lams[i], frame.parameter(j)) for j, i in enumerate(batch)] + refused

    by_index = {}
    todo = [i for i in range(len(lams)) if i not in partner]
    while todo:
        done = evaluate(todo[:size])
        by_index.update(zip(todo, done))
        todo = todo[len(done):]
    for j, i in partner.items():
        rec = by_index[i]
        by_index[j] = (record(lams[j], rec.norm, rec.note) if rec.frame_ok
                       else replace(rec, lam=lams[j]))
    records = [by_index[i] for i in range(len(lams))]

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
