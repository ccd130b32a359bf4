"""Parameter sweeps: resolvent norms over a polar grid, sector geometry.

The sweep walks a polar grid around the branch vertex -k^2/4 and records the
weighted resolvent norm of the fourth-order generator on the sample grid and
the scaled ratio (1 + |lambda - vertex|) * ||R(lambda)||, by one of three
routes: per-mode blocks, the assembled resolvent matrix, or a Lanczos
iteration (``krylov_norm``) on the point's resolvent map
(``bvp.ResolventMap``) and its adjoint.  ``run_sweep`` gives the rules: which
route a sweep takes, how its points share batch frames, and which conjugate
pairs it evaluates once.  Per-parameter failures are collected as findings,
not fatal errors: for the clamped/derivative families they witness the
excluded ball around the vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from . import tolerances as tol
from .bvp import (
    DERIVATIVE_FAMILIES,
    ProblemSpec,
    ResolventMap,
    _batch_size,
    _lambda_frames,
    resolvent_blocks,
    resolvent_matrix,
)
from .errors import BranchCut, NotInResolventSet
from .grids import cgl_grid
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


class _Unconverged(float):
    """The last estimate of a Lanczos iteration that ran ``max_iter`` steps."""


def krylov_norm(apply, apply_adjoint, w: np.ndarray, start: np.ndarray,
                rel_tol: float = 1e-7, max_iter: int = 40) -> float:
    """Weighted 2-norm of a linear map from its applications: Lanczos on
    B = apply_adjoint o apply.

    ``start``, the first Krylov vector, has the layout both callables take
    and return (the sweep's: node-major (N, dim(A), 1) data in X's
    coordinates, ``bvp.ResolventMap.apply``).  ``w`` is the flat vector of
    the inner product's weights, one per entry of start in its flat order, and
    ``apply_adjoint`` is ``apply``'s adjoint in it, for a resolvent only up
    to quadrature asymmetry.  The iteration builds a W-orthonormal Krylov
    basis Q of B, each new B q W-orthogonalized against every earlier q
    twice, and estimates the norm as sqrt of the largest eigenvalue of the
    Hermitian part of Q^H W B Q.  One step is one B-application.  It stops
    when the estimate moves by at most ``rel_tol``, or when the residual
    vanishes (Q spans an invariant subspace); one that has not stopped after
    ``max_iter`` steps returns its last estimate as an ``_Unconverged``.
    """
    shape = np.shape(start)

    def b_apply(v):
        return apply_adjoint(apply(v.reshape(shape))).reshape(-1)

    def w_norm(v):
        return float(np.sqrt(np.vdot(v, w * v).real))

    # rows of Q and B Q, touched only as they are filled, and the projected
    # matrix Q^H W B Q, extended by one row and column per step
    Q = np.empty((max_iter, w.size), dtype=complex)
    BQ = np.empty_like(Q)
    h = np.empty((max_iter, max_iter), dtype=complex)
    q, est = np.reshape(start, -1), 0.0
    for k in range(max_iter):
        Q[k] = q / w_norm(q)
        BQ[k] = b_apply(Q[k])
        WQh = (w * Q[:k + 1]).conj()
        h[:k + 1, k] = WQh @ BQ[k]
        h[k, :k] = BQ[:k] @ WQh[k]
        hk = h[:k + 1, :k + 1]
        new = float(np.sqrt(max(np.linalg.eigvalsh(0.5 * (hk + hk.conj().T))[-1], 0.0)))
        q = BQ[k]
        for _ in range(2):
            q = q - (WQh @ q) @ Q[:k + 1]
        if (w_norm(q) <= np.finfo(float).eps * w_norm(BQ[k])
                or (est > 0 and abs(new - est) <= rel_tol * est)):
            return new
        est = new
    return _Unconverged(est)


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
    the weighted norm (``operators.operator_norm``) of the per-mode blocks
    (``resolvent_blocks``) for A with a unitary eigenbasis
    (eig_cond - 1 <= UNITARY_BASIS_GAP), and of the materialized resolvent
    (``resolvent_matrix``) for every other A.  Beyond the cap norms come
    from a Lanczos iteration (note "power", ``krylov_norm``) on the point's
    resolvent map (``bvp.ResolventMap``) and its adjoint, the map of the
    conjugate-transposed problem, whose frame each point derives from its
    forward frame (``BCFrame.adjoint``), so A is factored once per sweep.
    Every point starts from one vector, drawn once (``_start_vector``).
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
    (``BCFrame.parameter``), which equals its own frame bit for bit while
    the batch's convolutions run one segment
    (``kernels.Propagator.grid_stacks``).  A batch that refuses
    (NotInResolventSet or BranchCut) names its first refused point: the
    points before it are solved on the frame the refusal assembled for them
    (the exception's ``prefix``), the refusal is recorded from the
    exception, and batching resumes after it.  One batch is held at a time.
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
    if power:  # one Krylov start vector serves every point
        start = _start_vector(spec.A.dim * grid.n).reshape(grid.n, spec.A.dim, 1)

    def record(lam, nrm, note="power" if power else "dense"):
        ratio = (1.0 + abs(lam - sweep.vertex)) * nrm
        return SweepRecord(lam, float(nrm), ratio, True, note)

    def job(lam, frame):
        if power:
            fwd = ResolventMap(frame, grid, spec.bc_family)
            nrm = krylov_norm(fwd.apply, fwd.adjoint().apply, weights, start)
            return record(lam, nrm, "power-unconverged" if isinstance(nrm, _Unconverged)
                          else "power")
        if per_mode:
            return record(lam, operator_norm(resolvent_blocks(spec, lam, grid, frame),
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
