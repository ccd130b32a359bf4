"""Abstract Cauchy problem v' = G v + f via the analytic-semigroup structure.

The semigroup is evaluated either by inverse-Laplace quadrature on a
left-opening hyperbola or by implicit one-step schemes whose stage operators
are again resolvents at real shifts.  The growth probe takes its norms from
the dense exponential of the collocation generator
(``oracle.dense_generator``).

The quadrature groups the output times into windows [t_s, 8 t_s] (narrower
for wide sectors).  A window has one hyperbola whose mu is fixed by the
truncation bound at t_s, after Weideman & Trefethen, Math. Comp. 76 (2007),
and Lopez-Fernandez, Palencia & Schaedle, SINUM 44 (2006).  Each node is one
resolvent solve of the stationary code path on the distinct data columns,
v0 and the forcing samples, and a batch of nodes shares one frame, sized by
the budget that sizes sweep batches (``bvp._batch_size``).  Every
output of the window is a weighted sum of those solves, and each refinement
n -> 2n - 1 solves only the new trapezoid midpoints.  A hyperbola whose
vertex factor e^{t lam} at the window start would pass 1/eps is refused
before any node is solved: the sum's round-off would exceed the data.

A real problem (``ProblemSpec.real`` and real data) has R(conj lam) =
conj R(lam), so the hyperbola's terms at th and -th are conjugates and each
such pair left of the vertex is solved once, at th > 0, with twice the
weight; its outputs are exactly real.  Family 2's boundary operator
u'' + P u moves with lam, so it solves every node.

The implicit schemes solve at the real shift -1/dt (-2/dt for Crank-Nicolson).
There a real problem's R(lam) f = conj(R(conj lam) conj f) = conj(R(lam) f)
for real f: the resolvent maps real data to real data.  So a step of a real
problem whose right-hand side has no imaginary part keeps only the real part
of its solve, as the contour keeps the real part of its sums, and the
trajectory is exactly real instead of carrying the solves' round-off
imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bvp import (
    DERIVATIVE_FAMILIES,
    ProblemSpec,
    ResolventMap,
    _batch_size,
    _lambda_frames,
    _SOLVERS,
)
from .errors import (
    BranchCut,
    ContourTooClose,
    DimensionMismatch,
    NotInResolventSet,
    QuadratureNotConverged,
    SectorAngleExceeded,
    StepRejected,
)
from .grids import Grid, GridFunction
from .kernels import phi_stack
from .operators import operator_norm

__all__ = [
    "EvolutionSpec",
    "ContourParams",
    "default_contour",
    "evolve",
    "growth_bound_probe",
]

_SCHEMES = ("CONTOUR", "IMPLICIT_EULER", "CRANK_NICOLSON")

# Output times in [t_s, WINDOW_RATIO t_s] share one hyperbola.  Its mu keeps
# e^{t lam} at the truncated ends below e^{-TAIL_EXPONENT} e^{t vertex} for
# every t of the window, and a window narrows below WINDOW_RATIO t_s where
# e^{t lam} at the vertex, the round-off the sum amplifies, would pass
# e^{VERTEX_EXPONENT}.
WINDOW_RATIO = 8.0
TAIL_EXPONENT = 37.0
VERTEX_EXPONENT = 8.0
# A window refuses when that exponent at its start passes ln(1 / eps).
ROUNDOFF_EXPONENT = -float(np.log(np.finfo(float).eps))
# Trapezoid refinements n -> 2n - 1 before QuadratureNotConverged.
MAX_REFINEMENTS = 4


@dataclass(frozen=True)
class EvolutionSpec:
    """Cauchy-problem description with homogeneous boundary data."""

    problem: ProblemSpec
    t_final: float
    v0: GridFunction
    forcing: Optional[Callable[[float], np.ndarray]] = None
    scheme: str = "CONTOUR"
    dt: float | None = None
    contour_points: int = 32

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.scheme != "CONTOUR":
            if self.dt is None or self.dt <= 0 or self.dt > self.t_final:
                raise ValueError("stepping schemes need 0 < dt <= t_final")
        if self.v0.dim != self.problem.A.dim:
            raise DimensionMismatch("v0 dimension does not match the operator")


@dataclass(frozen=True)
class ContourParams:
    """Left-opening hyperbola lam(th) = vertex + mu (1 - sin(beta - i th)),
    |th| <= half_width, sampled by the trapezoid rule in th (``at``).

    The rightmost point sits at vertex + mu(1 - sin beta) > vertex, so every
    node stays clear of the branch ray; the asymptote half-angle pi/2 + beta
    must stay below pi minus the spectral sector angle.  A window of output
    times shares one mu (``window``).
    """

    vertex: float
    beta: float
    half_width: float = 3.0

    def at(self, mu: float, th: np.ndarray, h: float):
        """Nodes lam(th) and their weights lam'(th) h / (2 pi i) at scale mu."""
        lam = self.vertex + mu * (1.0 - np.sin(self.beta - 1j * th))
        dlam = mu * 1j * np.cos(self.beta - 1j * th)
        return lam, dlam * h / (2j * np.pi)

    def window(self, t_s: float):
        """(mu, t_max) of the window of output times [t_s, t_max].

        mu = TAIL_EXPONENT / ((sin beta cosh H - 1) t_s) bounds the truncated
        tail for every t >= t_s at any node count, so refinement controls the
        discretization error alone.  t_max is WINDOW_RATIO t_s, or less where
        t_max mu (1 - sin beta) would pass VERTEX_EXPONENT (never below t_s).
        Raises QuadratureNotConverged when the hyperbola has no decaying tail,
        or when the vertex exponent t_s mu (1 - sin beta) passes
        ROUNDOFF_EXPONENT: e^{t lam} at the vertex would then amplify the
        round-off of every node solve past the data.
        """
        decay = np.sin(self.beta) * np.cosh(self.half_width) - 1.0
        if decay <= 0:
            raise QuadratureNotConverged(
                f"hyperbola with beta {self.beta:.3g} and half-width "
                f"{self.half_width:g} has no decaying tail")
        mu = TAIL_EXPONENT / (decay * t_s)
        vertex_rate = TAIL_EXPONENT * (1.0 - np.sin(self.beta)) / decay  # per t / t_s
        if vertex_rate > ROUNDOFF_EXPONENT:
            raise QuadratureNotConverged(
                f"hyperbola with beta {self.beta:.3g} has vertex exponent "
                f"{vertex_rate:.3g} > ln(1/eps) = {ROUNDOFF_EXPONENT:.3g}: its "
                f"round-off would exceed the data")
        if vertex_rate * WINDOW_RATIO <= VERTEX_EXPONENT:
            return mu, WINDOW_RATIO * t_s
        return mu, max(1.0, VERTEX_EXPONENT / vertex_rate) * t_s


def _gate_angle(spec: ProblemSpec):
    if spec.theta_a >= np.pi / 4:
        raise SectorAngleExceeded(
            f"sector half-angle {spec.theta_a:.3f} >= pi/4: no analytic semigroup"
        )


def default_contour(spec: ProblemSpec) -> ContourParams:
    """Contour clearing the spectral sector."""
    _gate_angle(spec)
    beta = min(0.9 * (np.pi / 2 - 2 * spec.theta_a), 1.0)
    return ContourParams(vertex=spec.k**2 / 4.0, beta=beta)


def _distinct_columns(fields):
    """(columns, sel): the distinct fields stacked as (r, dim, N) columns and
    the (len(fields), r) 0/1 matrix with fields[i] = sel[i] @ columns."""
    index, columns, rows = {}, [], []
    for f in fields:
        f = np.asarray(f, dtype=complex)
        rows.append(index.setdefault(f.tobytes(), len(columns)))
        if rows[-1] == len(columns):
            columns.append(f)
    return np.stack(columns), np.eye(len(columns))[rows]


def _node_sums(spec: ProblemSpec, grid: Grid, lams, weights, columns) -> np.ndarray:
    """sum_k,c weights[o, k, c] R(lams[k]) columns[c] for every output o.

    columns (r, dim, N) are the data all nodes share and weights (O, K, r)
    carry every e^{t lam}-type factor; those decay along the contour tails,
    so no overflow can occur here.  Returns (O, dim, N).  The nodes are
    solved in batches, each one frame over the stacked (node, block) axis
    (``bvp._lambda_frames``) whose guards act per node, solved on all r
    columns at once.  A batch holds max(1, BATCH_ENTRIES // (dim(A) b N))
    nodes (``bvp._batch_size``), each node's blocks having dim(A) b entries
    per grid node; the grid kit, the step weights and the convolution
    buffers of a batch scale at most with that budget, so it bounds a pass's
    memory whatever its node count.  Data columns are not counted: the
    frame, its grid kit and its step weights serve every column.  A refused
    node raises ContourTooClose naming the first refused node.
    """
    r, dim, n_grid = columns.shape
    size = _batch_size(spec, n_grid)
    data = np.ascontiguousarray(columns.transpose(2, 1, 0))  # (N, dim, r)
    acc = 0.0
    for i in range(0, len(lams), size):
        nodes = lams[i:i + size]
        try:
            frame = _lambda_frames(spec, -nodes)
            fv = np.tile(frame.to_modes(data), (1, len(nodes), 1))
            u = ResolventMap(frame, grid, spec.bc_family).solve_modes(fv)
        except NotInResolventSet as exc:
            node = -exc.lam if exc.lam is not None else nodes[0]
            raise ContourTooClose(f"contour node {node}: {exc}") from exc
        u = u.reshape(n_grid, len(nodes), dim, r)
        acc = acc + frame.from_modes(np.tensordot(u, weights[:, i:i + size], ([1, 3], [1, 2])))
    return acc.transpose(2, 1, 0)


def _window_sums(spec: ProblemSpec, mu: float, payloads, columns, n_points: int,
                 params: ContourParams, rel_tol: float, scale_floor: float) -> np.ndarray:
    """Converged contour sums of a window's outputs on one hyperbola: (O, dim, N).

    Each payload holds one output's weights over the data columns, and mu
    is the window's (``ContourParams.window``).  Every pass halves the
    trapezoid step (n -> 2n - 1 nodes), so it solves only the new midpoints;
    the earlier nodes enter through the previous sum.  Each output's change
    over a pass must fall to rel_tol times the larger of its size and
    scale_floor, the data's size: the quadrature's error is relative to the
    data, and a decayed solution lies below the sum's round-off.
    QuadratureNotConverged after MAX_REFINEMENTS passes.

    A real problem (``ProblemSpec.real`` and every data column real) pairs
    nodes: its terms at th and -th are conjugates, so a pass drops each node
    th < 0 left of the vertex (Re lam <= vertex, i.e. sin beta cosh th >= 1),
    doubles the weight of its index partner -th in the symmetric linspace
    and returns the real part of its sum.  Nodes right of the vertex are all
    solved: the discrete solves at lam and conj(lam) are conjugates only up
    to their discretization's asymmetry (P and Q swap), about 1e-13 relative
    on resolved data, and e^{t lam} there amplifies it up to
    e^{VERTEX_EXPONENT}.  Family 2's boundary operator u'' + P u moves with
    lam, so it is not paired.
    """
    grid = payloads[0].grid
    real = spec.real and not np.any(columns.imag)

    def pass_sum(th, h):
        lam, wgt = params.at(mu, th, h)
        if real:
            drop = np.flatnonzero(np.sin(params.beta) * np.cosh(th[:len(th) // 2]) >= 1.0)
            wgt[len(th) - 1 - drop] *= 2.0
            lam, wgt = np.delete(lam, drop), np.delete(wgt, drop)
        weights = np.stack([p.transform(lam) * wgt[:, None] for p in payloads])
        sums = _node_sums(spec, grid, lam, weights, columns)
        return sums.real if real else sums

    n = n_points
    th = np.linspace(-params.half_width, params.half_width, n)
    prev = pass_sum(th, th[1] - th[0])
    for _ in range(MAX_REFINEMENTS):
        n = 2 * n - 1
        th = np.linspace(-params.half_width, params.half_width, n)
        cur = 0.5 * prev + pass_sum(th[1::2], th[1] - th[0])
        scale = np.maximum(np.max(np.abs(cur), axis=(1, 2)), max(scale_floor, 1e-300))
        if np.all(np.max(np.abs(cur - prev), axis=(1, 2)) <= rel_tol * scale):
            return cur
        prev = cur
    raise QuadratureNotConverged(f"contour self-error above {rel_tol} at {n} nodes")


def _contour_outputs(spec: ProblemSpec, ts: np.ndarray, v0: GridFunction, f_samples,
                     n_points: int, rel_tol: float) -> list:
    """e^{tG} v0 plus the forcing's Duhamel term at each output time ts[1:].

    f_samples holds the forcing at every ts (None for no forcing).  Each
    node is solved once on the distinct data columns among v0 and the
    samples, and the outputs of each window (``ContourParams.window``) weigh
    those solves with their own transform (``_Payload``, ``_forced_payload``);
    ``_window_sums`` refines each window.
    """
    grid = v0.grid
    columns, sel = _distinct_columns([v0.values] + list(f_samples or ()))
    params = default_contour(spec)
    scale = np.max(np.abs(v0.values))
    out = []
    i = 1
    while i < len(ts):
        mu, t_max = params.window(ts[i])
        j = max(int(np.searchsorted(ts, t_max * (1 + 1e-12), side="right")), i + 1)
        payloads = [_Payload(grid, sel[0], t) if f_samples is None
                    else _forced_payload(grid, sel[0], sel[1:], ts, t) for t in ts[i:j]]
        out += list(_window_sums(spec, mu, payloads, columns, n_points, params, rel_tol, scale))
        i = j
    return out


@dataclass(frozen=True)
class _Payload:
    """Transformed data of one output time t at the contour nodes.

    e^{t lam} v0, plus the transform of piecewise-linear forcing given as the
    steps' lengths ``dts``, right ends ``ends`` and values ``f0``/``f1``
    (S, dim, N) at both ends, less the algebraic tail of the last step (see
    ``_forced_payload``).  The transform is linear in v0, f0 and f1 and takes
    them of any shape (``transform``): as fields it gives the data at the
    nodes, as weight vectors over data columns each column's weight.
    """

    grid: Grid
    v0: np.ndarray
    t: float
    dts: np.ndarray | None = None
    ends: np.ndarray | None = None
    f0: np.ndarray | None = None
    f1: np.ndarray | None = None

    def transform(self, lams: np.ndarray) -> np.ndarray:
        """The transform at the K nodes lams, (K,) + v0.shape."""
        lams = np.asarray(lams, dtype=complex)
        col = lams.reshape((-1,) + (1,) * np.ndim(self.v0))
        data = np.exp(self.t * col) * self.v0
        if self.dts is not None:
            ph = phi_stack(np.multiply.outer(lams, self.dts), 2)  # (3, K, S)
            decay = self.dts * np.exp(np.multiply.outer(lams, self.t - self.ends))
            data = data + np.tensordot(decay * (ph[1] - ph[2]), self.f0, 1) \
                + np.tensordot(decay * ph[2], self.f1, 1)
            f_end, slope_end = self.f1[-1], (self.f1[-1] - self.f0[-1]) / self.dts[-1]
            data = data + f_end / col + slope_end / (col * col)
        return data


def _forced_payload(grid, v0_vals, f_samples, ts, t_now) -> _Payload:
    """Initial data plus the transform of piecewise-linear forcing.

    int_0^t e^{(t-s)lam} f(s) ds over each forcing step reduces to the
    order-0/1 exponential step integrals, evaluated for all nodes and steps of
    a batch by one ``phi_stack`` call.  The s = t endpoint of the last step
    leaves algebraic terms -f(t)/lam - f'(t-)/lam^2 whose resolvent
    integrals over the closed left contour vanish exactly (both poles are
    enclosed and the partial fractions cancel); removing them keeps every
    surviving term exponentially damped, so the trapezoid sum converges
    geometrically again.  Linear in v0_vals and f_samples: given weight
    vectors over data columns for them, the payload gives the columns'
    weights.
    """
    idx = int(np.searchsorted(ts, t_now, side="right")) - 1
    steps = [(ts[j], ts[j + 1], f_samples[j], f_samples[j + 1]) for j in range(idx)]
    if idx < len(ts) - 1 and t_now > ts[idx] + 1e-15:
        frac = (t_now - ts[idx]) / (ts[idx + 1] - ts[idx])
        f_mid = f_samples[idx] * (1 - frac) + f_samples[idx + 1] * frac
        steps.append((ts[idx], t_now, f_samples[idx], f_mid))
    if not steps:
        return _Payload(grid, v0_vals, t_now)
    t0, t1, f0, f1 = (np.array(col) for col in zip(*steps))
    return _Payload(grid, v0_vals, t_now, dts=t1 - t0, ends=t1, f0=f0, f1=f1)


def evolve(espec: EvolutionSpec, rel_tol: float = 1e-6):
    """Trajectory of the Cauchy problem at the scheme's time nodes.

    Returns a list of (t, GridFunction) including t = 0.  Implicit schemes
    reuse one resolvent frame across all steps, and a step of a real problem
    (``ProblemSpec.real``) with a real right-hand side keeps only the real
    part of its solve: the resolvent at the real shift maps real data to real
    data, so its imaginary part is round-off.  The contour scheme solves
    each node once on the distinct data columns among v0 and the forcing
    samples, and every output time of a window (``ContourParams.window``)
    weighs those solves with its own transform of v0 and the
    piecewise-linear forcing (``_forced_payload``).  Its outputs lie dt
    apart (8 of them without dt), so dt = t_final gives the one at t_final.
    """
    spec = espec.problem
    _gate_angle(spec)
    grid = espec.v0.grid
    n = spec.A.dim

    if espec.scheme == "CONTOUR":
        n_out = max(int(round(espec.t_final / espec.dt)), 1) if espec.dt else 8
        ts = np.linspace(0.0, espec.t_final, n_out + 1)
        f_samples = None if espec.forcing is None else [espec.forcing(t) for t in ts]
        vals = _contour_outputs(spec, ts, espec.v0, f_samples, espec.contour_points, rel_tol)
        return [(0.0, espec.v0.copy())] + [(float(t), GridFunction(grid, v))
                                           for t, v in zip(ts[1:], vals)]

    dt = float(espec.dt)
    n_steps = int(round(espec.t_final / dt))
    shift = -1.0 / dt if espec.scheme == "IMPLICIT_EULER" else -2.0 / dt
    try:
        frame = _lambda_frames(spec, shift)
    except (NotInResolventSet, BranchCut, ValueError) as exc:
        raise StepRejected(f"scheme shift {shift} rejected: {exc}") from exc
    solver = _SOLVERS[spec.bc_family]

    def f_at(t):
        if espec.forcing is None:
            return np.zeros((n, grid.n), dtype=complex)
        return np.asarray(espec.forcing(t), dtype=complex)

    real = spec.real

    def solve(rhs):
        w = solver(frame, GridFunction(grid, rhs)).values
        if real and not rhs.imag.any():
            w.imag = 0.0  # in place: v stays complex, so no step casts it
        return w

    traj = [(0.0, espec.v0.copy())]
    v = espec.v0.values.copy()
    t = 0.0
    for _ in range(n_steps):
        if espec.scheme == "IMPLICIT_EULER":
            v = solve((v + dt * f_at(t + dt)) / dt)
        else:
            fbar = 0.5 * (f_at(t) + f_at(t + dt))
            v = 2.0 * solve((2.0 / dt) * (v + 0.5 * dt * fbar)) - v
        t += dt
        traj.append((float(t), GridFunction(grid, v.copy())))
    return traj


def growth_bound_probe(spec: ProblemSpec, t_grid, n_nodes: int = 40):
    """Fit the smallest M with ||e^{tG}|| <= M e^{t k^2/4} over the t grid.

    Defined for the families outside DERIVATIVE_FAMILIES under the
    quarter-angle hypothesis.  Norms come from the dense exponential of
    ``oracle.dense_generator`` on the interior dofs; returns (M_fit,
    samples), samples being the (t, ||e^{tG}||) pairs.  M_fit is their
    largest ||e^{tG}|| e^{-t k^2/4}, so every sample meets the bound.
    """
    if spec.bc_family in DERIVATIVE_FAMILIES:
        raise ValueError(f"growth bound probe excludes families {DERIVATIVE_FAMILIES}")
    _gate_angle(spec)
    import scipy.linalg as sla

    from .oracle import dense_generator

    gen = dense_generator(spec, n_nodes)
    G = gen.generator
    w = gen.weights()
    rate = spec.k**2 / 4.0
    samples = []
    m_fit = 1.0  # t = 0 always contributes norm 1
    for t in t_grid:
        nrm = 1.0 if t == 0 else operator_norm(sla.expm(t * G), w)
        samples.append((float(t), float(nrm)))
        m_fit = max(m_fit, nrm * np.exp(-t * rate))
    return float(m_fit), samples

