"""Explicit solution formulas for u'''' + (P+Q)u'' + PQ u = f on (a,b).

The solver assembles, per spectral parameter, a frame of commuting operators
(the quadratic factors P and Q, the semigroup generators l = -sqrt(-Q) and
m = -sqrt(-P), the interval-length exponentials and their guarded inverses)
and evaluates the closed-form representation of the solution under the five
boundary-condition families.  All heavy objects are dense complex matrices;
fields are sampled on a grid and batched over right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import tolerances as tol
from .errors import (
    BranchCut,
    DimensionMismatch,
    FrameSingular,
    NonCommutingOperators,
    NotInResolventSet,
    SingularOrIllConditioned,
    SpectrumOnCut,
)
from .grids import Grid, GridFunction
from .kernels import (
    Propagator,
    convolve_backward,
    convolve_forward,
    hermite_step_coefficients,
)
from .operators import (
    OperatorHandle,
    guarded_inverse_I_minus,
    make_operator,
    sector_half_angle,
    sqrt_principal,
)

__all__ = [
    "BC_FAMILIES",
    "DERIVATIVE_FAMILIES",
    "bc_conditions",
    "condition_value",
    "ProblemSpec",
    "BCFrame",
    "build_pq_lambda",
    "assemble_frame",
    "particular_solution_F",
    "fprime_boundary",
    "solve_bc1",
    "solve_bc2",
    "solve_bc3",
    "solve_bc4",
    "solve_bc5",
    "resolvent_solve",
    "boundary_residuals",
    "frame_identity_residual",
    "resolvent_product_residual",
]

# Each family's two condition kinds (a derivative order, or "S" for u'' + S u),
# imposed in phi order at a, b, a, b.  Checks and oracles read this table; the
# formulas in _solve_family do not, which keeps them independent of the solver.
BC_FAMILIES = {1: (0, 2), 2: (1, "S"), 3: (0, 1), 4: (1, 2), 5: (0, "S")}

# Families whose frames need the interval operators U and V to invert.
DERIVATIVE_FAMILIES = (3, 4)

_KIND_NAMES = {0: "u", 1: "u'", 2: "u''", "S": "(u''+{}u)"}


def bc_conditions(family: int, s_name: str = "P") -> tuple:
    """(name, endpoint index, kind) of the family's four conditions in phi order.

    The endpoint index is 0 for a and -1 for b; ``s_name`` spells the operator
    of the "S" kind in the names, e.g. "(u''+Pu)(b)".
    """
    if family not in BC_FAMILIES:
        raise ValueError(f"unknown bc family {family}")
    return tuple((f"{_KIND_NAMES[kind].format(s_name)}({side})", end, kind)
                 for kind in BC_FAMILIES[family]
                 for end, side in ((0, "a"), (-1, "b")))


def condition_value(kind, deriv, apply_s):
    """Value of one condition: deriv(order) gives u's derivative at the
    endpoint, apply_s applies the operator of the "S" kind."""
    if kind == "S":
        return deriv(2) + apply_s(deriv(0))
    return deriv(kind)


@dataclass(frozen=True)
class ProblemSpec:
    """Interval, drift constant, base operator and boundary family."""

    a: float
    b: float
    k: float
    A: OperatorHandle
    bc_family: int
    phi: tuple | None = None  # four vectors in X, None = homogeneous
    f: GridFunction | None = None

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")
        if self.bc_family not in BC_FAMILIES:
            raise ValueError(f"bc_family must be in {tuple(BC_FAMILIES)}")
        scale = max(1.0, float(np.max(np.abs(self.A.spectrum))))
        on_ray = (np.abs(self.A.spectrum.imag) < 1e-9 * scale) & (
            self.A.spectrum.real >= self.k - 1e-9 * scale
        )
        if np.any(on_ray):
            raise ValueError(
                f"[k, inf) with k={self.k} intersects the spectrum of A"
            )
        if self.phi is not None:
            if len(self.phi) != 4:
                raise ValueError("phi must have four entries")
            for p in self.phi:
                if np.asarray(p).shape[-1] != self.A.dim:
                    raise DimensionMismatch("phi entries must have dim(A) entries")

    @property
    def c(self) -> float:
        return self.b - self.a

    @property
    def theta_a(self) -> float:
        """Sector half-angle of -A (0 for negative-definite diagonal A)."""
        return sector_half_angle(self.A)

    def phi_vectors(self) -> tuple:
        if self.phi is None:
            z = np.zeros(self.A.dim, dtype=complex)
            return (z, z.copy(), z.copy(), z.copy())
        return tuple(np.asarray(p, dtype=complex) for p in self.phi)


@dataclass
class BCFrame:
    """Operator bundle entering the representation formulas for one parameter.

    All members are dense complex (n, n) matrices acting on X.  ``u_op`` and
    ``v_op`` are the two interval operators whose invertibility governs the
    value/derivative condition families; their inverses are None when the
    guarded inversion refused (recorded in ``uv_ok``).
    """

    n: int
    c: float
    lam: complex | None
    p: np.ndarray
    q: np.ndarray
    b_op: np.ndarray
    m: np.ndarray
    l: np.ndarray
    binv: np.ndarray
    minv: np.ndarray
    linv: np.ndarray
    e_cm: np.ndarray
    e_cl: np.ndarray
    e_clm: np.ndarray
    z: np.ndarray
    w: np.ndarray
    t_minus: np.ndarray
    t_plus: np.ndarray
    u_op: np.ndarray
    v_op: np.ndarray
    uinv: np.ndarray | None
    vinv: np.ndarray | None
    uv_ok: bool
    inv_ip_em: np.ndarray
    inv_im_em: np.ndarray
    inv_ip_el: np.ndarray
    inv_im_el: np.ndarray
    prop_m: Propagator
    prop_l: Propagator
    diagnostics: dict = field(default_factory=dict)
    _grid_cache: dict = field(default_factory=dict, repr=False)

    def grid_kit(self, grid: Grid) -> dict:
        """Grid-dependent exponential stacks and step weights, cached."""
        key = grid.nodes.tobytes()
        kit = self._grid_cache.get(key)
        if kit is None:
            x = grid.nodes
            hs = np.diff(x)
            kit = {
                "hs": hs,
                "exa_m": self.prop_m.exp_stack(x - x[0]),
                "ebx_m": self.prop_m.exp_stack(x[-1] - x),
                "exa_l": self.prop_l.exp_stack(x - x[0]),
                "ebx_l": self.prop_l.exp_stack(x[-1] - x),
                "estep_m": self.prop_m.exp_stack(hs),
                "estep_l": self.prop_l.exp_stack(hs),
            }
            kit["w_m"] = self.prop_m.step_weights(hs)
            kit["w_l"] = self.prop_l.step_weights(hs)
            self._grid_cache[key] = kit
        return kit


def build_pq_lambda(A: OperatorHandle, k: float, lam: complex):
    """Quadratic-factor operators for the shifted parameter.

    Returns (P, Q, B) handles with P = A - k/2 + i s, Q = A - k/2 - i s and
    B = 2 i s I, where s is the principal square root of -lam - k^2/4.
    Raises BranchCut when that argument falls on (-inf, 0].
    """
    s2 = -complex(lam) - k * k / 4.0
    scale = max(1.0, abs(s2))
    if abs(s2.imag) <= 1e-14 * scale and s2.real <= 1e-14 * scale:
        raise BranchCut(f"-lambda - k^2/4 = {s2} lies on the branch cut")
    s = np.sqrt(s2)
    n = A.dim
    eye = np.eye(n)
    ak2 = A.matrix - (k / 2.0) * eye
    P = make_operator(ak2 + 1j * s * eye, label="P_lam")
    Q = make_operator(ak2 - 1j * s * eye, label="Q_lam")
    B = make_operator(2j * s * eye, label="B_lam")
    return P, Q, B


def _as_handle(op) -> OperatorHandle:
    return op if isinstance(op, OperatorHandle) else make_operator(op)


def assemble_frame(P, Q, B, c: float, require_uv: bool = False) -> BCFrame:
    """Build the operator frame from commuting factors P, Q with P = Q + B.

    Raises SpectrumOnCut when a square root is undefined, FrameSingular when
    B or an interval operator needed unconditionally is not invertible, and
    NonCommutingOperators when the factors fail the commutation validation.
    With ``require_uv`` the two derivative-family operators must also invert.
    """
    P, Q, B = _as_handle(P), _as_handle(Q), _as_handle(B)
    if c <= 0:
        raise ValueError("interval length c must be positive")
    n = P.dim
    if Q.dim != n or B.dim != n:
        raise DimensionMismatch("P, Q, B must share dimensions")
    pn, qn = max(P.norm(), 1e-300), max(Q.norm(), 1e-300)
    comm = np.linalg.norm(P.matrix @ Q.matrix - Q.matrix @ P.matrix)
    if comm > 1e-10 * pn * qn * n:
        raise NonCommutingOperators(f"||[P,Q]|| = {comm:.3e} too large")
    gap = np.linalg.norm(P.matrix - Q.matrix - B.matrix)
    if gap > 1e-10 * max(pn, B.norm()):
        raise FrameSingular(f"P - Q - B residual {gap:.3e}")
    try:
        binv_norm = np.linalg.norm(np.linalg.inv(B.matrix), 2)
    except np.linalg.LinAlgError:
        binv_norm = np.inf
    # B is "invertible" only on the scale of the factors it separates
    if not np.isfinite(binv_norm) or binv_norm * max(pn, qn, 1.0) > tol.CONDITION_CAP:
        raise FrameSingular("B is not invertible")

    m_mat = -sqrt_principal(make_operator(-P.matrix, label="-P")).matrix
    l_mat = -sqrt_principal(make_operator(-Q.matrix, label="-Q")).matrix
    prop_m = Propagator(make_operator(m_mat, label="m"))
    prop_l = Propagator(make_operator(l_mat, label="l"))
    e_cm, e_2cm = prop_m.exp_stack(np.array([c, 2 * c]))
    e_cl, e_2cl = prop_l.exp_stack(np.array([c, 2 * c]))
    e_clm = Propagator(make_operator(l_mat + m_mat, label="l+m")).exp_stack(
        np.array([c]))[0]
    try:
        z = guarded_inverse_I_minus(make_operator(e_2cm, label="e2cM")).matrix
        w = guarded_inverse_I_minus(make_operator(e_2cl, label="e2cL")).matrix
        inv_im_em = guarded_inverse_I_minus(make_operator(e_cm, label="ecM")).matrix
        inv_im_el = guarded_inverse_I_minus(make_operator(e_cl, label="ecL")).matrix
        inv_ip_em = guarded_inverse_I_minus(make_operator(-e_cm, label="-ecM")).matrix
        inv_ip_el = guarded_inverse_I_minus(make_operator(-e_cl, label="-ecL")).matrix
    except SingularOrIllConditioned as exc:
        raise FrameSingular(f"interval exponential not invertible: {exc}") from exc

    binv = np.linalg.inv(B.matrix)
    minv = np.linalg.inv(m_mat)
    linv = np.linalg.inv(l_mat)
    lm = l_mat + m_mat
    gain = binv @ (lm @ lm) @ (e_cm - e_cl)
    t_minus = e_clm + gain
    t_plus = e_clm - gain
    u_op = np.eye(n) - t_minus
    v_op = np.eye(n) - t_plus
    uinv = vinv = None
    uv_ok = True
    try:
        uinv = guarded_inverse_I_minus(make_operator(t_minus, label="T-")).matrix
        vinv = guarded_inverse_I_minus(make_operator(t_plus, label="T+")).matrix
    except SingularOrIllConditioned as exc:
        uv_ok = False
        if require_uv:
            raise FrameSingular(f"U or V not invertible: {exc}") from exc

    diagnostics = {
        "norm_t_minus": float(np.linalg.norm(t_minus, 2)),
        "norm_t_plus": float(np.linalg.norm(t_plus, 2)),
        "res_m_sq": float(np.linalg.norm(m_mat @ m_mat + P.matrix) / pn),
        "res_l_sq": float(np.linalg.norm(l_mat @ l_mat + Q.matrix) / qn),
        "contractive": bool(
            np.linalg.norm(t_minus, 2) < 1.0 and np.linalg.norm(t_plus, 2) < 1.0
        ),
    }
    return BCFrame(
        n=n, c=c, lam=None,
        p=np.asarray(P.matrix), q=np.asarray(Q.matrix), b_op=np.asarray(B.matrix),
        m=m_mat, l=l_mat, binv=binv, minv=minv, linv=linv,
        e_cm=e_cm, e_cl=e_cl, e_clm=e_clm, z=z, w=w,
        t_minus=t_minus, t_plus=t_plus, u_op=u_op, v_op=v_op,
        uinv=uinv, vinv=vinv, uv_ok=uv_ok,
        inv_ip_em=inv_ip_em, inv_im_em=inv_im_em,
        inv_ip_el=inv_ip_el, inv_im_el=inv_im_el,
        prop_m=prop_m,
        prop_l=prop_l,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# sampled-field plumbing


def _field_to_internal(f: GridFunction) -> np.ndarray:
    """(dim, N) -> (N, dim, 1)."""
    return np.ascontiguousarray(f.values.T)[:, :, None]


def _internal_to_field(grid: Grid, vals: np.ndarray) -> GridFunction:
    return GridFunction(grid, vals[:, :, 0].T)


def _data_derivatives(grid: Grid, fv: np.ndarray):
    """First two x-derivatives of sampled data via local stencils."""
    fp = np.einsum("ab,bnr->anr", grid.derivative_matrix(1), fv)
    fpp = np.einsum("ab,bnr->anr", grid.derivative_matrix(2), fv)
    return fp, fpp


def _stage(prop: Propagator, grid: Grid, fv, fp, fpp, estep, weights):
    """Running convolutions of f against the exponential kernel of one generator.

    Returns (fwd, bwd) with fwd[i] = int_a^{x_i} e^{(x_i-s)X} f ds and
    bwd[i] = int_{x_i}^b e^{(s-x_i)X} f ds, each (N, n, r).
    """
    d = hermite_step_coefficients(grid.nodes, fv, fp, fpp)
    psi, chi = weights
    fwd = convolve_forward(prop, grid.nodes, d, estep, psi)
    bwd = convolve_backward(prop, grid.nodes, d, estep, chi)
    return fwd, bwd


def _particular(frame: BCFrame, grid: Grid, fv: np.ndarray, phi) -> dict:
    """Particular solution F_{Phi,f} and its building blocks on the grid.

    fv has shape (N, n, r); phi is a 4-tuple of (n,) vectors (broadcast over
    the batch axis).  Returns every object the family solvers need.
    """
    kit = frame.grid_kit(grid)
    p1, p2, p3, p4 = (np.asarray(p, dtype=complex)[:, None] for p in phi)

    fp, fpp = _data_derivatives(grid, fv)
    i_fwd, i_bwd = _stage(frame.prop_l, grid, fv, fp, fpp, kit["estep_l"], kit["w_l"])
    j1 = i_bwd[0]
    j2 = i_fwd[-1]

    g1 = frame.w @ (p3 + frame.p @ p1)
    g2 = frame.w @ (p4 + frame.p @ p2)
    gj1 = 0.5 * frame.w @ (frame.linv @ j1)
    gj2 = 0.5 * frame.w @ (frame.linv @ j2)
    c_xa = g1 - frame.e_cl @ g2 - gj1 + frame.e_cl @ gj2
    c_bx = -frame.e_cl @ g1 + g2 + frame.e_cl @ gj1 - gj2
    ikern = 0.5 * frame.linv @ (i_fwd + i_bwd)
    v0 = kit["exa_l"] @ c_xa + kit["ebx_l"] @ c_bx + ikern
    v0p = frame.l @ (kit["exa_l"] @ c_xa) - frame.l @ (kit["ebx_l"] @ c_bx) \
        + 0.5 * (i_fwd - i_bwd)
    v0pp = -(frame.q @ v0) + fv

    c_fwd, c_bwd = _stage(frame.prop_m, grid, v0, v0p, v0pp, kit["estep_m"], kit["w_m"])
    k1 = c_bwd[0]
    k2 = c_fwd[-1]

    zq1 = frame.z @ p1
    zq2 = frame.z @ p2
    zk1 = 0.5 * frame.z @ (frame.minv @ k1)
    zk2 = 0.5 * frame.z @ (frame.minv @ k2)
    cm_xa = zq1 - frame.e_cm @ zq2 - zk1 + frame.e_cm @ zk2
    cm_bx = -frame.e_cm @ zq1 + zq2 + frame.e_cm @ zk1 - zk2
    mkern = 0.5 * frame.minv @ (c_fwd + c_bwd)
    F = kit["exa_m"] @ cm_xa + kit["ebx_m"] @ cm_bx + mkern
    Fp = frame.m @ (kit["exa_m"] @ cm_xa) - frame.m @ (kit["ebx_m"] @ cm_bx) \
        + 0.5 * (c_fwd - c_bwd)
    Fpp = -(frame.p @ F) + v0

    return {
        "F": F, "Fp": Fp, "Fpp": Fpp,
        "v0": v0, "v0p": v0p, "v0pp": v0pp,
        "k1": k1, "k2": k2, "kit": kit,
        "fpa": Fp[0], "fpb": Fp[-1],
    }


def _zero_phi(n: int):
    z = np.zeros(n, dtype=complex)
    return (z, z, z, z)


def particular_solution_F(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """The particular solution with value/second-derivative boundary data.

    With homogeneous data the result vanishes at both endpoints together
    with its second derivative.
    """
    phi = _zero_phi(frame.n) if phi is None else phi
    part = _particular(frame, f.grid, _field_to_internal(f), phi)
    return _internal_to_field(f.grid, part["F"])


def fprime_boundary(frame: BCFrame, f: GridFunction):
    """Endpoint first derivatives of the homogeneous particular solution.

    Evaluated from the closed-form derivative expression (exponentials and
    full-interval kernel integrals), never by differencing F itself.
    """
    part = _particular(frame, f.grid, _field_to_internal(f), _zero_phi(frame.n))
    k1, k2 = part["k1"], part["k2"]
    e2 = frame.e_cm @ frame.e_cm
    eye = np.eye(frame.n)
    fa = -0.5 * ((eye + e2) @ (frame.z @ k1)) + frame.e_cm @ (frame.z @ k2) - 0.5 * k1
    fb = -frame.e_cm @ (frame.z @ k1) + 0.5 * ((eye + e2) @ (frame.z @ k2)) + 0.5 * k2
    return fa[:, 0], fb[:, 0]


def _mode_solution(frame, kit, alphas, base):
    a1, a2, a3, a4 = alphas
    u = (
        kit["exa_m"] @ (a1 + a3) + kit["ebx_m"] @ (a3 - a1)
        + kit["exa_l"] @ (a2 + a4) + kit["ebx_l"] @ (a4 - a2)
    )
    return u + base


def _solve_family(frame: BCFrame, grid: Grid, fv: np.ndarray, phi, bc: int) -> np.ndarray:
    """Dispatch on the boundary family; fv is (N, n, r), phi a 4-tuple (n,)."""
    n = frame.n
    if bc == 1:
        part = _particular(frame, grid, fv, phi)
        return part["F"]
    if bc == 5:
        p1, p2, p3, p4 = (np.asarray(p, dtype=complex) for p in phi)
        reduced = (p1, p2, p3 - frame.p @ p1, p4 - frame.p @ p2)
        part = _particular(frame, grid, fv, reduced)
        return part["F"]

    part = _particular(frame, grid, fv, _zero_phi(n))
    kit = part["kit"]
    fpa, fpb = part["fpa"], part["fpb"]
    p1, p2, p3, p4 = (np.asarray(p, dtype=complex)[:, None] for p in phi)
    eye = np.eye(n)

    if bc == 2:
        alphas = _family2_alphas(frame, part, phi)
        return _mode_solution(frame, kit, alphas, part["F"])

    if not frame.uv_ok or frame.uinv is None or frame.vinv is None:
        raise FrameSingular(
            "derivative-family solve needs invertible interval operators; "
            "the parameter may belong to the spectrum"
        )
    common = frame.binv @ (frame.l + frame.m)

    if bc == 3:
        pt1 = 0.5 * (p3 + p4 - fpa - fpb)
        pt2 = 0.5 * (p3 - p4 - fpa + fpb)
        dm = p1 - p2
        sm = p1 + p2
        a1 = 0.5 * common @ (frame.uinv @ (
            frame.l @ ((eye + frame.e_cl) @ dm) - 2 * (eye - frame.e_cl) @ pt1))
        a2 = -0.5 * common @ (frame.uinv @ (
            frame.m @ ((eye + frame.e_cm) @ dm) - 2 * (eye - frame.e_cm) @ pt1))
        a3 = 0.5 * common @ (frame.vinv @ (
            frame.l @ ((eye - frame.e_cl) @ sm) - 2 * (eye + frame.e_cl) @ pt2))
        a4 = -0.5 * common @ (frame.vinv @ (
            frame.m @ ((eye - frame.e_cm) @ sm) - 2 * (eye + frame.e_cm) @ pt2))
        return _mode_solution(frame, kit, (a1, a2, a3, a4), part["F"])

    if bc == 4:
        pt1 = 0.5 * (p1 + p2 - fpa - fpb)
        pt2 = 0.5 * (p1 - p2 - fpa + fpb)
        dm = p3 - p4
        sm = p3 + p4
        lminv = frame.l @ frame.minv
        mlinv = frame.m @ frame.linv
        a1 = 0.5 * common @ (frame.vinv @ (
            2 * (eye - frame.e_cl) @ (lminv @ pt1) - (eye + frame.e_cl) @ (frame.minv @ dm)))
        a2 = -0.5 * common @ (frame.vinv @ (
            2 * (eye - frame.e_cm) @ (mlinv @ pt1) - (eye + frame.e_cm) @ (frame.linv @ dm)))
        a3 = 0.5 * common @ (frame.uinv @ (
            2 * (eye + frame.e_cl) @ (lminv @ pt2) - (eye - frame.e_cl) @ (frame.minv @ sm)))
        a4 = -0.5 * common @ (frame.uinv @ (
            2 * (eye + frame.e_cm) @ (mlinv @ pt2) - (eye - frame.e_cm) @ (frame.linv @ sm)))
        return _mode_solution(frame, kit, (a1, a2, a3, a4), part["F"])

    raise ValueError(f"unknown bc family {bc}")


def _solve_public(frame, f, phi, bc):
    phi = _zero_phi(frame.n) if phi is None else tuple(
        np.asarray(p, dtype=complex) for p in phi
    )
    vals = _solve_family(frame, f.grid, _field_to_internal(f), phi, bc)
    return _internal_to_field(f.grid, vals)


def _family2_alphas(frame: BCFrame, part: dict, phi):
    fpa, fpb = part["fpa"], part["fpb"]
    p1, p2, p3, p4 = (np.asarray(p, dtype=complex)[:, None] for p in phi)
    eye = np.eye(frame.n)
    pt1 = 0.5 * (p1 + p2 - fpa - fpb)
    pt2 = 0.5 * (p1 - p2 - fpa + fpb)
    a2 = frame.inv_im_el @ (frame.binv @ (0.5 * (p3 - p4)))
    a4 = frame.inv_ip_el @ (frame.binv @ (0.5 * (p3 + p4)))
    lm_inv = frame.l @ frame.minv
    a1 = frame.inv_ip_em @ (frame.minv @ pt1 - (eye + frame.e_cl) @ (lm_inv @ a2))
    a3 = frame.inv_im_em @ (frame.minv @ pt2 - (eye - frame.e_cl) @ (lm_inv @ a4))
    return a1, a2, a3, a4


def family2_coefficients(frame: BCFrame, f: GridFunction, phi=None):
    """The four mode coefficients of the derivative/(u''+Pu) solver.

    Read-back seam for bookkeeping checks: the returned vectors are exactly
    the coefficients multiplying the four exponential mode stacks in the
    assembled solution (same code path as the solver).
    """
    phi = _zero_phi(frame.n) if phi is None else tuple(
        np.asarray(p, dtype=complex) for p in phi
    )
    part = _particular(frame, f.grid, _field_to_internal(f), _zero_phi(frame.n))
    a1, a2, a3, a4 = _family2_alphas(frame, part, phi)
    return a1[:, 0], a2[:, 0], a3[:, 0], a4[:, 0]


def solve_bc1(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Value / second-derivative conditions at both endpoints."""
    return _solve_public(frame, f, phi, 1)


def solve_bc2(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Derivative / (u'' + P u) conditions at both endpoints."""
    return _solve_public(frame, f, phi, 2)


def solve_bc3(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Value / derivative (clamped-type) conditions at both endpoints."""
    return _solve_public(frame, f, phi, 3)


def solve_bc4(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Derivative / second-derivative conditions at both endpoints."""
    return _solve_public(frame, f, phi, 4)


def solve_bc5(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Value / (u'' + P u) conditions; reduces to the first family."""
    return _solve_public(frame, f, phi, 5)


_SOLVERS = {1: solve_bc1, 2: solve_bc2, 3: solve_bc3, 4: solve_bc4, 5: solve_bc5}


def _lambda_frame(spec: ProblemSpec, lam: complex) -> BCFrame:
    """Frame for the shifted equation; lam = 0 with k != 0 uses the direct
    factorization (A, A - k I) instead of the branch-cut parameterization."""
    if lam == 0 and spec.k != 0:
        eye = np.eye(spec.A.dim)
        shifted = make_operator(spec.A.matrix - spec.k * eye, label="A-k")
        if spec.k > 0:
            P, Q = shifted, spec.A
            B = make_operator(-spec.k * eye, label="B0")
        else:
            P, Q = spec.A, shifted
            B = make_operator(spec.k * eye, label="B0")
    else:
        P, Q, B = build_pq_lambda(spec.A, spec.k, lam)
    try:
        frame = assemble_frame(P, Q, B, spec.c,
                               require_uv=spec.bc_family in DERIVATIVE_FAMILIES)
    except (FrameSingular, SingularOrIllConditioned, SpectrumOnCut) as exc:
        raise NotInResolventSet(f"frame assembly failed at lambda={lam}: {exc}") from exc
    frame.lam = complex(lam)
    return frame


def resolvent_solve(spec: ProblemSpec, lam: complex, f: GridFunction) -> GridFunction:
    """u = (-G - lam I)^{-1} f for the fourth-order generator G of the family.

    Builds the parameter frame and dispatches to the matching family solver
    with homogeneous boundary data.
    """
    frame = _lambda_frame(spec, lam)
    return _SOLVERS[spec.bc_family](frame, f)


def resolvent_matrix(spec: ProblemSpec, lam: complex, grid: Grid,
                     frame: BCFrame | None = None) -> np.ndarray:
    """Materialize f -> resolvent_solve(f) as a dense matrix on the grid.

    Degrees of freedom are node-major blocks of dim(A) components.  Used by
    the sweep layer; shares one frame across all basis columns.
    """
    if frame is None:
        frame = _lambda_frame(spec, lam)
    n, N = spec.A.dim, grid.n
    basis = np.eye(n * N, dtype=complex).reshape(N, n, n * N)
    sol = _solve_family(frame, grid, basis, _zero_phi(n), spec.bc_family)
    return sol.reshape(N * n, N * n)


def boundary_residuals(grid: Grid, u: GridFunction, phi, bc: int,
                       p_mat: np.ndarray) -> dict:
    """Endpoint condition residuals measured from the samples alone.

    Derivatives come from one-sided local stencils so the check is
    independent of the representation that produced u.
    """
    vals = u.values  # (n, N)
    derivs = (vals, vals @ grid.derivative_matrix(1).T, vals @ grid.derivative_matrix(2).T)
    res = {}
    for (name, end, kind), p in zip(bc_conditions(bc), phi):
        got = condition_value(kind, lambda order: derivs[order][:, end],
                              lambda v: p_mat @ v)
        res[name] = float(np.linalg.norm(got - np.asarray(p, dtype=complex)))
    return res


def frame_identity_residual(frame: BCFrame) -> float:
    """|| (L - M) - B (L + M)^{-1} || relative to ||L - M||."""
    lm = frame.l + frame.m
    target = frame.b_op @ np.linalg.inv(lm)
    diff = (frame.l - frame.m) - target
    scale = max(np.linalg.norm(frame.l - frame.m), 1e-300)
    return float(np.linalg.norm(diff) / scale)


def resolvent_product_residual(frame: BCFrame, z: complex) -> float:
    """Residual of B (-Q - z)^{-1} (-P - z)^{-1} = (-P - z)^{-1} - (-Q - z)^{-1}."""
    n = frame.n
    eye = np.eye(n)
    rp = np.linalg.inv(-frame.p - z * eye)
    rq = np.linalg.inv(-frame.q - z * eye)
    lhs = frame.b_op @ rq @ rp
    rhs = rp - rq
    scale = max(np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)
