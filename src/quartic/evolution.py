"""Abstract Cauchy problem v' = G v + f via the analytic-semigroup structure.

The semigroup is evaluated either by inverse-Laplace quadrature on a
left-opening hyperbola (each node is one resolvent solve of the stationary
code path; with a trusted eigenbasis of A a batch of nodes shares one
frame) or by implicit one-step schemes whose stage operators are again
resolvents at real shifts.  A dense-exponential oracle covers small
instances for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bvp import (
    DERIVATIVE_FAMILIES,
    ProblemSpec,
    _lambda_frame,
    _lambda_frames,
    _SOLVERS,
    bc_conditions,
)
from .errors import (
    BranchCut,
    ContourTooClose,
    DimensionMismatch,
    NearSpectrum,
    NotInResolventSet,
    QuadratureNotConverged,
    SectorAngleExceeded,
    StepRejected,
)
from .grids import Grid, GridFunction
from .kernels import phi_stack
from .operators import operator_norm
from .oracle import _build_system, _coeffs_from_A, dense_generator

__all__ = [
    "EvolutionSpec",
    "ContourParams",
    "default_contour",
    "semigroup_apply_contour",
    "evolve",
    "growth_bound_probe",
    "variation_of_constants_check",
    "compatibility_check",
]

_SCHEMES = ("CONTOUR", "IMPLICIT_EULER", "CRANK_NICOLSON")

# Contour nodes solved as one batch frame hold at most this many
# (node x mode x grid step) elements: the grid kit, the step weights and the
# convolution buffers of a batch all scale with it, so it bounds a pass's
# memory whatever its node count.
CONTOUR_BATCH_ELEMENTS = 1536


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
    """Left-opening hyperbola lam(th) = vertex + mu (1 - sin(beta - i th)).

    The rightmost point sits at vertex + mu(1 - sin beta) > vertex, so every
    node stays clear of the branch ray; the asymptote half-angle pi/2 + beta
    must stay below pi minus the spectral sector angle.
    """

    vertex: float
    beta: float
    mu_over_n: float = 0.4
    half_width: float = 3.0

    def nodes(self, n_points: int, t: float):
        mu = self.mu_over_n * n_points / t
        th = np.linspace(-self.half_width, self.half_width, n_points)
        h = th[1] - th[0]
        lam = self.vertex + mu * (1.0 - np.sin(self.beta - 1j * th))
        dlam = mu * 1j * np.cos(self.beta - 1j * th)
        return lam, dlam * h / (2j * np.pi)


def _gate_angle(spec: ProblemSpec):
    if spec.theta_a >= np.pi / 4:
        raise SectorAngleExceeded(
            f"sector half-angle {spec.theta_a:.3f} >= pi/4: no analytic semigroup"
        )


def default_contour(spec: ProblemSpec, ball_radius: float = 0.0) -> ContourParams:
    """Contour clearing the spectral sector and any excluded vertex ball."""
    _gate_angle(spec)
    beta = min(0.9 * (np.pi / 2 - 2 * spec.theta_a), 1.0)
    vertex = spec.k**2 / 4.0 + max(ball_radius, 0.0)
    return ContourParams(vertex=vertex, beta=beta)


def _contour_sum(spec: ProblemSpec, t: float, payload, n_points: int,
                 params: ContourParams) -> np.ndarray:
    """sum of weights * R(lam) payload(lam) over the hyperbola nodes.

    payload (a ``_Payload``) must already carry every e^{t lam}-type factor;
    all such factors decay along the contour tails, so no overflow can occur
    here.  For A with a trusted eigenbasis the nodes are solved in batches of
    up to CONTOUR_BATCH_ELEMENTS / (dim(A) x grid steps) nodes, each batch one
    frame over the flattened (node, mode) axis (``bvp._lambda_frames``) whose
    guards act per node; the dense route solves one node at a time.  A
    refused node raises ContourTooClose naming the first refused node.
    """
    lam, wgt = params.nodes(n_points, t)
    dim = spec.A.dim
    size = 1
    if spec.A.diagonalizable:
        size = max(1, CONTOUR_BATCH_ELEMENTS // (dim * (payload.grid.n - 1)))
    acc = 0.0
    for i in range(0, len(lam), size):
        nodes = lam[i:i + size]
        try:
            frame = _lambda_frames(spec, -nodes)
            u = _SOLVERS[spec.bc_family](frame, payload(nodes))
        except (NotInResolventSet, NearSpectrum) as exc:
            node = -exc.lam if getattr(exc, "lam", None) is not None else nodes[0]
            raise ContourTooClose(f"contour node {node}: {exc}") from exc
        acc = acc + np.tensordot(wgt[i:i + size], u.values.reshape(len(nodes), dim, -1), 1)
    return acc


def _converged_contour(spec, t, payload, n0, params, rel_tol,
                       max_doublings=4) -> np.ndarray:
    prev = _contour_sum(spec, t, payload, n0, params)
    n = n0
    for _ in range(max_doublings):
        n *= 2
        cur = _contour_sum(spec, t, payload, n, params)
        scale = max(np.max(np.abs(cur)), 1e-300)
        if np.max(np.abs(cur - prev)) <= rel_tol * scale:
            return cur
        prev = cur
    raise QuadratureNotConverged(f"contour self-error above {rel_tol} at {n} nodes")


def semigroup_apply_contour(
    spec: ProblemSpec,
    t: float,
    v0: GridFunction,
    n_points: int = 32,
    rel_tol: float = 1e-6,
    params: ContourParams | None = None,
) -> GridFunction:
    """e^{tG} v0 by hyperbola quadrature with self-error control.

    Doubles the node count until the relative change is below rel_tol;
    raises QuadratureNotConverged if the budget runs out.
    """
    if t <= 0:
        raise ValueError("contour evaluation needs t > 0")
    if params is None:
        params = default_contour(spec)

    vals = _converged_contour(spec, t, _Payload(v0.grid, v0.values, t), n_points,
                              params, rel_tol)
    return GridFunction(v0.grid, vals)


@dataclass(frozen=True)
class _Payload:
    """Transformed data of one output time t at the contour nodes.

    e^{t lam} v0, plus the transform of piecewise-linear forcing given as the
    steps' lengths ``dts``, right ends ``ends`` and values ``f0``/``f1``
    (S, dim, N) at both ends, less the algebraic tail of the last step (see
    ``_forced_payload``).
    """

    grid: Grid
    v0: np.ndarray
    t: float
    dts: np.ndarray | None = None
    ends: np.ndarray | None = None
    f0: np.ndarray | None = None
    f1: np.ndarray | None = None

    def __call__(self, lams: np.ndarray) -> GridFunction:
        """Data of the K nodes lams, stacked node-major as a (K dim, N) field."""
        lams = np.asarray(lams, dtype=complex)
        data = np.exp(self.t * lams)[:, None, None] * self.v0
        if self.dts is not None:
            ph = phi_stack(np.multiply.outer(lams, self.dts), 2)  # (3, K, S)
            decay = self.dts * np.exp(np.multiply.outer(lams, self.t - self.ends))
            data = data + np.tensordot(decay * (ph[1] - ph[2]), self.f0, 1) \
                + np.tensordot(decay * ph[2], self.f1, 1)
            f_end, slope_end = self.f1[-1], (self.f1[-1] - self.f0[-1]) / self.dts[-1]
            data = data + f_end / lams[:, None, None] + slope_end / (lams * lams)[:, None, None]
        return GridFunction(self.grid, data.reshape(-1, self.grid.n))


def _forced_payload(grid, v0_vals, f_samples, ts, t_now) -> _Payload:
    """Initial data plus the transform of piecewise-linear forcing.

    int_0^t e^{(t-s)lam} f(s) ds over each forcing step reduces to the
    order-0/1 exponential step integrals, evaluated for all nodes and steps of
    a batch by one ``phi_stack`` call.  The s = t endpoint of the last step
    leaves algebraic terms -f(t)/lam - f'(t-)/lam^2 whose resolvent
    integrals over the closed left contour vanish exactly (both poles are
    enclosed and the partial fractions cancel); removing them keeps every
    surviving term exponentially damped, so the trapezoid sum converges
    geometrically again.
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
    reuse one resolvent frame across all steps; the contour scheme folds
    piecewise-linear forcing into the transform evaluated at each node.
    """
    spec = espec.problem
    _gate_angle(spec)
    grid = espec.v0.grid
    n = spec.A.dim

    if espec.scheme == "CONTOUR":
        n_out = max(int(round(espec.t_final / espec.dt)), 1) if espec.dt else 8
        ts = np.linspace(0.0, espec.t_final, n_out + 1)
        f_samples = None
        if espec.forcing is not None:
            f_samples = [np.asarray(espec.forcing(t), dtype=complex) for t in ts]
        params = default_contour(spec)
        traj = [(0.0, espec.v0.copy())]
        for t_now in ts[1:]:
            if f_samples is None:
                payload = _Payload(grid, espec.v0.values, t_now)
            else:
                payload = _forced_payload(grid, espec.v0.values, f_samples, ts, t_now)
            vals = _converged_contour(spec, t_now, payload, espec.contour_points,
                                      params, rel_tol)
            traj.append((float(t_now), GridFunction(grid, vals)))
        return traj

    dt = float(espec.dt)
    n_steps = int(round(espec.t_final / dt))
    shift = -1.0 / dt if espec.scheme == "IMPLICIT_EULER" else -2.0 / dt
    try:
        frame = _lambda_frame(spec, shift)
    except (NotInResolventSet, BranchCut, ValueError) as exc:
        raise StepRejected(f"scheme shift {shift} rejected: {exc}") from exc
    solver = _SOLVERS[spec.bc_family]

    def f_at(t):
        if espec.forcing is None:
            return np.zeros((n, grid.n), dtype=complex)
        return np.asarray(espec.forcing(t), dtype=complex)

    traj = [(0.0, espec.v0.copy())]
    v = espec.v0.values.copy()
    t = 0.0
    for _ in range(n_steps):
        if espec.scheme == "IMPLICIT_EULER":
            rhs = (v + dt * f_at(t + dt)) / dt
            v = solver(frame, GridFunction(grid, rhs)).values
        else:
            fbar = 0.5 * (f_at(t) + f_at(t + dt))
            rhs = (2.0 / dt) * (v + 0.5 * dt * fbar)
            w = solver(frame, GridFunction(grid, rhs)).values
            v = 2.0 * w - v
        t += dt
        traj.append((float(t), GridFunction(grid, v.copy())))
    return traj


def growth_bound_probe(spec: ProblemSpec, t_grid, n_nodes: int = 40):
    """Fit the smallest M with ||e^{tG}|| <= M e^{t k^2/4} over the t grid.

    Defined for the families outside DERIVATIVE_FAMILIES under the
    quarter-angle hypothesis.  Norms come from the dense-exponential oracle
    on the interior dofs; returns (M_fit, violation_flag, samples).
    """
    if spec.bc_family in DERIVATIVE_FAMILIES:
        raise ValueError(f"growth bound probe excludes families {DERIVATIVE_FAMILIES}")
    _gate_angle(spec)
    import scipy.linalg as sla

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
    violation = any(nrm > m_fit * np.exp(t * rate) + 1e-8 for t, nrm in samples)
    return float(m_fit), bool(violation), samples


def variation_of_constants_check(L1, L2, B, psi, x_grid) -> float:
    """Max gap between (e^{xL2} - e^{xL1}) psi and its Duhamel integral.

    The integral form int_0^x e^{(x-s)L1} B e^{s L2} psi ds is evaluated
    exactly per eigenmode when the pair shares a diagonalizing basis and by
    panel Gauss quadrature otherwise.
    """
    import scipy.linalg as sla

    L1m = np.asarray(getattr(L1, "matrix", L1), dtype=complex)
    L2m = np.asarray(getattr(L2, "matrix", L2), dtype=complex)
    Bm = np.asarray(getattr(B, "matrix", B), dtype=complex)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n = L1m.shape[0]
    if np.linalg.norm(L2m - L1m - Bm) > 1e-10 * max(np.linalg.norm(L2m), 1.0):
        raise ValueError("need L2 = L1 + B")

    w1, V = np.linalg.eig(L1m)
    common = False
    w2 = bdiag = Vinv = None
    if np.linalg.cond(V) < 1e8:
        Vinv = np.linalg.inv(V)
        T2 = Vinv @ L2m @ V
        if np.linalg.norm(T2 - np.diag(np.diag(T2))) < 1e-10 * max(np.linalg.norm(T2), 1.0):
            common = True
            w2 = np.diag(T2)
            bdiag = np.diag(Vinv @ Bm @ V)

    worst = 0.0
    for x in np.atleast_1d(x_grid):
        direct = (sla.expm(x * L2m) - sla.expm(x * L1m)) @ psi
        if x == 0:
            integral = np.zeros(n, dtype=complex)
        elif common:
            z = x * (w2 - w1)
            phi1 = phi_stack(z, 1)[1]
            modal = bdiag * x * np.exp(x * w1) * phi1 * (Vinv @ psi)
            integral = V @ modal
        else:
            nodes, wq = np.polynomial.legendre.leggauss(24)
            integral = np.zeros(n, dtype=complex)
            for nd, wgt in zip(nodes, wq):
                s = 0.5 * x * (nd + 1.0)
                integral += 0.5 * x * wgt * (
                    sla.expm((x - s) * L1m) @ (Bm @ (sla.expm(s * L2m) @ psi))
                )
        worst = max(worst, float(np.max(np.abs(direct - integral))))
    return worst


def compatibility_check(espec: EvolutionSpec):
    """Initial-data admissibility shadow: boundary rows plus finiteness.

    Checks that v0 satisfies the homogeneous condition rows of the family
    (discrete domain membership) and that f(0) + G v0 is finite.  The
    smoothness-scale refinement behind the sharp continuous condition
    collapses at finite dimension and is reported as non-discriminating.
    """
    spec = espec.problem
    grid = espec.v0.grid
    coeff2, coeff0 = _coeffs_from_A(spec.A, spec.k)
    sys_ = _build_system(grid.n, grid.a, grid.b, coeff2, coeff0,
                         spec.bc_family, np.asarray(spec.A.matrix))
    vvec = espec.v0.values.T.reshape(-1)
    resid = sys_.R @ vvec
    scale = max(np.max(np.abs(vvec)), 1.0)
    names = [name for name, _, _ in bc_conditions(spec.bc_family, s_name="A")]
    violated = []
    per_row = np.linalg.norm(resid.reshape(4, spec.A.dim), axis=1)
    for name, r in zip(names, per_row):
        if r > 1e-6 * scale:
            violated.append(f"{name} (residual {r:.3e})")
    gv = -(sys_.K @ vvec)
    f0 = (np.asarray(espec.forcing(0.0), dtype=complex).T.reshape(-1)
          if espec.forcing is not None else np.zeros_like(gv))
    finite = bool(np.all(np.isfinite((gv + f0).real)) and np.all(np.isfinite((gv + f0).imag)))
    ok = (not violated) and finite
    note = ("smoothness-scale admissibility condition is not discriminating "
            "at this finite dimension")
    return ok, violated, note
