"""Explicit solution formulas for u'''' + (P+Q)u'' + PQ u = f on (a,b).

The solver assembles, per spectral parameter, a frame of commuting operators
(the quadratic factors P and Q, the semigroup generators l = -sqrt(-Q) and
m = -sqrt(-P), the interval-length exponentials and their guarded inverses)
and evaluates the closed-form representation of the solution under the five
boundary-condition families.  Fields are sampled on a grid and batched over
right-hand sides.

Every frame member is a scalar function of the base operator A.  When A is
diagonalizable with a trusted eigenvector basis (eig_cond <= EIG_COND_CAP),
the frame is modal: each member is the length-n array of its eigenvalues,
data and boundary vectors are mapped into A's eigenbasis on entry and back
on exit, and every member acts elementwise, so a parameter costs O(nN) work
and no factorization.  Otherwise the frame is dense: members are (n, n)
matrices from the Schur-backed functional calculus of ``operators``.  One
set of formulas serves both; ``BCFrame.apply`` tells them apart.

A modal frame may also hold K parameters at once (``_lambda_frames``): its
members are the K rows of n eigenvalues flattened parameter-major to one axis
of length K n, and the basis maps act on each parameter's block of n rows.
The kernels, the grid kit and the family formulas run on that longer axis
unchanged, so K resolvent solves cost one.  Every guard of the frame
assembly compares per parameter row, with the per-parameter thresholds, so a
batch refuses exactly when one of its parameters would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

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
    shift_operator,
    sqrt_principal,
    sqrt_symbols,
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

    @property
    def c(self) -> float:
        return self.b - self.a

    @property
    def theta_a(self) -> float:
        """Sector half-angle of -A (0 for negative-definite diagonal A)."""
        return sector_half_angle(self.A)


@dataclass
class BCFrame:
    """Operator bundle entering the representation formulas for one parameter.

    ``ops`` holds the members (p, q, b_op, m, l, their inverses, the interval
    exponentials e_cm, e_cl, e_clm, the guarded inverses z, w, inv_ip_em, ...,
    T-/T+, U = I - T-, V = I - T+, uinv, vinv, and the identity eye).  A modal
    frame (``basis`` = (V, V^{-1}), the eigenvectors P, Q and B share) stores
    each member as its (n,) eigenvalues and its propagators give (N, n)
    exponentials and (J, 6, n) step weights; a dense frame (``basis`` None)
    stores (n, n) matrices and (N, n, n), (J, 6, n, n) stacks.  Attribute
    access ``frame.p``, ``frame.inv_im_el``, ... always gives the dense
    matrix, built on first use as V diag(.) V^{-1} for a modal frame.
    ``uinv``/``vinv`` are None when the guarded inversion of U or V refused
    (recorded in ``uv_ok``).

    A batch frame (``_lambda_frames``) is a modal frame whose members have
    K n entries, the n eigenvalues of each of its K parameters in turn; ``n``
    is then K n, ``lam`` the array of the K parameters, data and boundary
    vectors are stacked the same way, and ``to_modes``/``from_modes`` map
    each block of dim(A) rows, one block per parameter.  It has no dense
    member views, so it takes family 5 boundary data only as None.
    """

    n: int
    c: float
    lam: complex | np.ndarray | None
    ops: SimpleNamespace
    basis: tuple | None
    uv_ok: bool
    prop_m: Propagator
    prop_l: Propagator
    _dense: dict = field(default_factory=dict, repr=False)
    _grid_cache: dict = field(default_factory=dict, repr=False)

    @property
    def modal(self) -> bool:
        return self.basis is not None

    def __getattr__(self, name):
        ops = self.__dict__.get("ops")
        if ops is None or not hasattr(ops, name):
            raise AttributeError(name)
        x = getattr(ops, name)
        if x is None or not self.modal:
            return x
        if name not in self._dense:
            V, Vinv = self.basis
            if len(x) != len(V):
                raise AttributeError(f"{name}: a batch frame has no dense member views")
            self._dense[name] = (V * x) @ Vinv
        return self._dense[name]

    def apply(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """x @ v for a member or grid-kit stack x in this frame's representation;
        v is (n, r) or (N, n, r)."""
        return x[..., None] * v if self.modal else x @ v

    def to_modes(self, v: np.ndarray) -> np.ndarray:
        """(..., n, r) data in X's coordinates -> the frame's coordinates."""
        return _blockwise(self.basis[1], v) if self.modal else v

    def from_modes(self, v: np.ndarray) -> np.ndarray:
        """Inverse of ``to_modes``."""
        return _blockwise(self.basis[0], v) if self.modal else v

    @property
    def diagnostics(self) -> dict:
        """Contractivity of T-/T+ and square-root residuals, from dense members."""
        nt_minus = float(np.linalg.norm(self.t_minus, 2))
        nt_plus = float(np.linalg.norm(self.t_plus, 2))
        pn = max(float(np.linalg.norm(self.p, 2)), 1e-300)
        qn = max(float(np.linalg.norm(self.q, 2)), 1e-300)
        return {
            "norm_t_minus": nt_minus,
            "norm_t_plus": nt_plus,
            "res_m_sq": float(np.linalg.norm(self.m @ self.m + self.p) / pn),
            "res_l_sq": float(np.linalg.norm(self.l @ self.l + self.q) / qn),
            "contractive": bool(nt_minus < 1.0 and nt_plus < 1.0),
        }

    def grid_kit(self, grid: Grid) -> dict:
        """Grid stacks, cached: kit["nodes"] and, for X in "m" and "l", kit[X]
        holding "prop" (X's propagator), "exa" e^{(x-a)X}, "ebx" e^{(b-x)X},
        "estep" e^{h_j X} and "weights", the (psi, chi) step weights."""
        key = grid.nodes.tobytes()
        kit = self._grid_cache.get(key)
        if kit is None:
            x = grid.nodes
            hs = np.diff(x)
            kit = {"nodes": x}
            for name, prop in (("m", self.prop_m), ("l", self.prop_l)):
                kit[name] = {"prop": prop, "exa": prop.exp_stack(x - x[0]),
                             "ebx": prop.exp_stack(x[-1] - x),
                             "estep": prop.exp_stack(hs), "weights": prop.step_weights(hs)}
            self._grid_cache[key] = kit
        return kit


def _blockwise(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ each block of len(M) rows of (..., K len(M), r) data."""
    blocks = v.reshape(v.shape[:-2] + (-1, len(M), v.shape[-1]))
    return (M @ blocks).reshape(v.shape)


def _cut_shifts(k: float, lam: complex):
    """(p, q, b) with P = A + p, Q = A + q, B = b I: p, q = -k/2 +- i s and
    b = 2 i s, s the principal square root of -lam - k^2/4.  Raises BranchCut
    when that argument falls on (-inf, 0]."""
    s2 = -complex(lam) - k * k / 4.0
    scale = max(1.0, abs(s2))
    if abs(s2.imag) <= 1e-14 * scale and s2.real <= 1e-14 * scale:
        raise BranchCut(f"-lambda - k^2/4 = {s2} lies on the branch cut")
    s = np.sqrt(s2)
    return -k / 2.0 + 1j * s, -k / 2.0 - 1j * s, 2j * s


def _factor_shifts(k: float, lam: complex):
    """_cut_shifts, except lam = 0 with k != 0, which factors directly as
    (A - k, A) for k > 0 and (A, A - k) for k < 0 with B = -|k| I."""
    if lam == 0 and k != 0:
        return (-k, 0.0, -abs(k)) if k > 0 else (0.0, -k, -abs(k))
    return _cut_shifts(k, lam)


def build_pq_lambda(A: OperatorHandle, k: float, lam: complex):
    """Quadratic-factor operators for the shifted parameter.

    Returns (P, Q, B) handles with P = A - k/2 + i s, Q = A - k/2 - i s and
    B = 2 i s I, where s is the principal square root of -lam - k^2/4.  All
    three share A's eigenvectors.  Raises BranchCut when that argument falls
    on (-inf, 0].
    """
    p, q, b = _cut_shifts(k, lam)
    return (shift_operator(A, p, label="P_lam"), shift_operator(A, q, label="Q_lam"),
            shift_operator(A, b, scale=0.0, label="B_lam"))


def _as_handle(op) -> OperatorHandle:
    return op if isinstance(op, OperatorHandle) else make_operator(op)


def _refuse(bad, exc_type, message: str, *values):
    """Raise exc_type at the first row (parameter) where the guard ``bad``
    holds, with ``message`` formatted from that row's ``values``."""
    bad = np.atleast_1d(bad)
    if bad.any():
        i = int(np.argmax(bad))
        raise exc_type(message.format(*(np.atleast_1d(v)[i] for v in values)))


class _Symbols:
    """Calculus of a modal frame: each member holds the n eigenvalues of each
    of K parameters' operators in one basis of condition kappa, flattened
    parameter-major to (K n,).  Norms are per parameter row, the bounds
    ||V diag(x) V^{-1}|| <= kappa max|x|, so a guard refuses a row whenever
    the dense guard would refuse that parameter, and never because of the
    scale of another row."""

    def __init__(self, K: int, n: int, kappa: float):
        self.shape = (K, n)
        self.eye = np.ones(K * n, dtype=complex)
        self.kappa = kappa

    @staticmethod
    def of(X: OperatorHandle) -> np.ndarray:
        return X.spectrum

    def rows(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.shape)

    def norm(self, x: np.ndarray) -> np.ndarray:
        return self.kappa * np.abs(self.rows(x)).max(axis=1)

    def fro(self, x) -> np.ndarray:
        return np.linalg.norm(self.rows(x), axis=1)

    @staticmethod
    def inv(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / x

    @staticmethod
    def mul(x, y):
        return x * y

    def neg_sqrt_neg(self, x):
        return -sqrt_symbols(-self.rows(x)).reshape(-1)

    @staticmethod
    def propagator(x) -> Propagator:
        return Propagator(x)

    def inv_i_minus(self, t, label: str):
        """(I - T)^{-1} under guarded_inverse_I_minus's condition cap, per row."""
        inv = self.inv(1.0 - t)
        cond = (1.0 + self.norm(t)) * self.norm(inv)
        _refuse(~np.isfinite(cond) | (cond > tol.CONDITION_CAP), SingularOrIllConditioned,
                f"I - {label} has condition estimate {{:.3e}}", cond)
        return inv


class _Matrices:
    """Calculus of a dense frame: members are (n, n) matrices."""

    def __init__(self, n: int):
        self.eye = np.eye(n)

    @staticmethod
    def of(X: OperatorHandle) -> np.ndarray:
        return np.asarray(X.matrix)

    @staticmethod
    def norm(x) -> float:
        return float(np.linalg.norm(x, 2))

    @staticmethod
    def fro(x) -> float:
        return float(np.linalg.norm(x))

    @staticmethod
    def inv(x):
        return np.linalg.inv(x)

    @staticmethod
    def mul(x, y):
        return x @ y

    @staticmethod
    def neg_sqrt_neg(x):
        return -sqrt_principal(make_operator(-x)).matrix

    @staticmethod
    def propagator(x) -> Propagator:
        return Propagator(make_operator(x))

    @staticmethod
    def inv_i_minus(t, label: str):
        return guarded_inverse_I_minus(make_operator(t, label=label)).matrix


def assemble_frame(P, Q, B, c: float, require_uv: bool = False,
                   basis: tuple | None = None) -> BCFrame:
    """Build the operator frame from commuting factors P, Q with P = Q + B.

    The frame is modal when the three handles share one trusted eigenvector
    basis (as ``build_pq_lambda`` makes them for diagonalizable A) and dense
    otherwise.  With ``basis`` = (V, V^{-1}, cond(V)), P, Q and B are instead
    (K, n) arrays holding the eigenvalues in that basis of K parameters'
    factors, and the frame is one modal batch frame over the K n flattened
    rows.  Raises SpectrumOnCut when a square root is undefined,
    FrameSingular when B or an interval operator needed unconditionally is not
    invertible, and NonCommutingOperators when the factors fail the
    commutation validation; on a batch, when any parameter's would.  With
    ``require_uv`` the two derivative-family operators must also invert.
    """
    if basis is not None:
        V, Vinv, kappa = basis
        calc = _Symbols(*np.shape(P), kappa)
        p, q, b = (np.reshape(x, -1) for x in (P, Q, B))
        return _frame(calc, p, q, b, c, require_uv, (V, Vinv))
    P, Q, B = _as_handle(P), _as_handle(Q), _as_handle(B)
    modal = P.eigvecs is not None and Q.eigvecs is P.eigvecs and B.eigvecs is P.eigvecs
    return _build_frame(P, Q, B, c, require_uv, modal)


def _build_frame(P, Q, B, c, require_uv=False, modal=True) -> BCFrame:
    """assemble_frame on handles, in the representation ``modal`` selects."""
    n = P.dim
    if Q.dim != n or B.dim != n:
        raise DimensionMismatch("P, Q, B must share dimensions")
    calc = _Symbols(1, n, P.eig_cond) if modal else _Matrices(n)
    p, q, b = calc.of(P), calc.of(Q), calc.of(B)
    if not modal:  # a shared eigenbasis commutes exactly
        comm = np.linalg.norm(p @ q - q @ p)
        if comm > 1e-10 * max(calc.norm(p), 1e-300) * max(calc.norm(q), 1e-300) * n:
            raise NonCommutingOperators(f"||[P,Q]|| = {comm:.3e} too large")
    basis = (P.eigvecs, P.eigvecs_inv) if modal else None
    return _frame(calc, p, q, b, c, require_uv, basis)


def _frame(calc, p, q, b, c, require_uv, basis) -> BCFrame:
    """The frame of the members p, q, b in the calculus ``calc``; every guard
    compares per row of ``calc`` (one row for a single parameter)."""
    if c <= 0:
        raise ValueError("interval length c must be positive")
    pn, qn = np.maximum(calc.norm(p), 1e-300), np.maximum(calc.norm(q), 1e-300)
    gap = calc.fro(p - q - b)
    _refuse(gap > 1e-10 * np.maximum(pn, calc.norm(b)), FrameSingular,
            "P - Q - B residual {:.3e}", gap)
    try:
        binv = calc.inv(b)
        binv_norm = calc.norm(binv)
    except np.linalg.LinAlgError:
        binv_norm = np.inf
    # B is "invertible" only on the scale of the factors it separates
    _refuse(~np.isfinite(binv_norm)
            | (binv_norm * np.maximum(np.maximum(pn, qn), 1.0) > tol.CONDITION_CAP),
            FrameSingular, "B is not invertible")

    m = calc.neg_sqrt_neg(p)
    l = calc.neg_sqrt_neg(q)
    prop_m = calc.propagator(m)
    prop_l = calc.propagator(l)
    e_cm, e_2cm = prop_m.exp_stack(np.array([c, 2 * c]))
    e_cl, e_2cl = prop_l.exp_stack(np.array([c, 2 * c]))
    lm = l + m
    e_clm = calc.propagator(lm).exp_stack(np.array([c]))[0]
    try:
        z = calc.inv_i_minus(e_2cm, "e2cM")
        w = calc.inv_i_minus(e_2cl, "e2cL")
        inv_im_em = calc.inv_i_minus(e_cm, "ecM")
        inv_im_el = calc.inv_i_minus(e_cl, "ecL")
        inv_ip_em = calc.inv_i_minus(-e_cm, "-ecM")
        inv_ip_el = calc.inv_i_minus(-e_cl, "-ecL")
    except SingularOrIllConditioned as exc:
        raise FrameSingular(f"interval exponential not invertible: {exc}") from exc

    gain = calc.mul(calc.mul(binv, calc.mul(lm, lm)), e_cm - e_cl)
    t_minus = e_clm + gain
    t_plus = e_clm - gain
    uinv = vinv = None
    uv_ok = True
    try:
        uinv = calc.inv_i_minus(t_minus, "T-")
        vinv = calc.inv_i_minus(t_plus, "T+")
    except SingularOrIllConditioned as exc:
        uv_ok = False
        if require_uv:
            raise FrameSingular(f"U or V not invertible: {exc}") from exc

    ops = SimpleNamespace(
        eye=calc.eye, p=p, q=q, b_op=b, m=m, l=l,
        binv=binv, minv=calc.inv(m), linv=calc.inv(l),
        e_cm=e_cm, e_cl=e_cl, e_clm=e_clm, z=z, w=w,
        t_minus=t_minus, t_plus=t_plus,
        u_op=calc.eye - t_minus, v_op=calc.eye - t_plus, uinv=uinv, vinv=vinv,
        inv_ip_em=inv_ip_em, inv_im_em=inv_im_em,
        inv_ip_el=inv_ip_el, inv_im_el=inv_im_el,
    )
    return BCFrame(n=len(calc.eye), c=c, lam=None, ops=ops, basis=basis, uv_ok=uv_ok,
                   prop_m=prop_m, prop_l=prop_l)


# ---------------------------------------------------------------------------
# sampled-field plumbing


def _field_to_internal(f: GridFunction) -> np.ndarray:
    """(dim, N) -> (N, dim, 1)."""
    return np.ascontiguousarray(f.values.T)[:, :, None]


def _internal_to_field(grid: Grid, vals: np.ndarray) -> GridFunction:
    return GridFunction(grid, vals[:, :, 0].T)


def _data_derivatives(grid: Grid, fv: np.ndarray):
    """First two x-derivatives of sampled data via local stencils.

    The real stencil matrices act on the (N, 2nr) real view of the complex
    (N, n, r) data, so each order is one real BLAS product.
    """
    flat = np.ascontiguousarray(fv, dtype=complex).reshape(len(fv), -1).view(float)
    return tuple((grid.derivative_matrix(k) @ flat).view(complex).reshape(fv.shape)
                 for k in (1, 2))


# Each generator's frame members: X, X^{-1}, e^{cX}, (I - e^{2cX})^{-1} and the
# quadratic factor S = -X^2 (l = -sqrt(-Q), m = -sqrt(-P)).
_GENERATORS = {"l": ("l", "linv", "e_cl", "w", "q"), "m": ("m", "minv", "e_cm", "z", "p")}


def _second_order(frame: BCFrame, kit: dict, generator: str, f, fp, fpp, v_a, v_b):
    """v'' - X^2 v = f with v(a) = v_a, v(b) = v_b, X the ``generator`` "l" or "m".

    f, fp, fpp are (N, n, r) data and its first two x-derivatives, v_a, v_b
    (n, r) columns, all in the frame's coordinates.  With I+(x) =
    int_a^x e^{(x-s)X} f ds and I-(x) = int_x^b e^{(s-x)X} f ds, v is
    e^{(x-a)X} c_a + e^{(b-x)X} c_b + X^{-1} (I+ + I-) / 2, the endpoint values
    fixing c_a, c_b through (I - e^{2cX})^{-1}.  Returns (v, v', v'', I-(a), I+(b)).
    """
    o, ap = frame.ops, frame.apply
    x, x_inv, e_c, g, s = (getattr(o, name) for name in _GENERATORS[generator])
    stacks, nodes = kit[generator], kit["nodes"]
    d = hermite_step_coefficients(nodes, f, fp, fpp)
    psi, chi = stacks["weights"]
    fwd = convolve_forward(stacks["prop"], nodes, d, stacks["estep"], psi)
    bwd = convolve_backward(stacks["prop"], nodes, d, stacks["estep"], chi)
    k_a, k_b = bwd[0], fwd[-1]
    g_a, g_b = ap(g, v_a), ap(g, v_b)
    gk_a, gk_b = (0.5 * ap(g, ap(x_inv, k)) for k in (k_a, k_b))
    c_a = g_a - ap(e_c, g_b) - gk_a + ap(e_c, gk_b)
    c_b = -ap(e_c, g_a) + g_b + ap(e_c, gk_a) - gk_b
    e_a, e_b = ap(stacks["exa"], c_a), ap(stacks["ebx"], c_b)
    v = e_a + e_b + 0.5 * ap(x_inv, fwd + bwd)
    vp = ap(x, e_a) - ap(x, e_b) + 0.5 * (fwd - bwd)
    return v, vp, -ap(s, v) + f, k_a, k_b


def _particular(frame: BCFrame, grid: Grid, fv: np.ndarray, phi) -> dict:
    """Particular solution F_{Phi,f} and its building blocks on the grid.

    fv has shape (N, n, r) and phi is a 4-tuple of (n, 1) columns (broadcast
    over the r right-hand sides), both in the frame's coordinates.
    The two second-order solves follow (d^2 + P)(d^2 + Q): first
    v0'' + Q v0 = f with v0 = F'' + P F at the endpoints, then F'' + P F = v0.
    Returns every object the family solvers need, in the same coordinates.
    """
    o, ap = frame.ops, frame.apply
    kit = frame.grid_kit(grid)
    p1, p2, p3, p4 = phi
    v0, v0p, v0pp, _, _ = _second_order(frame, kit, "l", fv, *_data_derivatives(grid, fv),
                                        p3 + ap(o.p, p1), p4 + ap(o.p, p2))
    F, Fp, _, k1, k2 = _second_order(frame, kit, "m", v0, v0p, v0pp, p1, p2)
    return {"F": F, "v0": v0, "k1": k1, "k2": k2, "kit": kit,
            "fpa": Fp[0], "fpb": Fp[-1]}


def _zero_phi(n: int):
    z = np.zeros((n, 1), dtype=complex)
    return (z, z, z, z)


def _frame_phi(frame: BCFrame, phi, bc: int = 1):
    """Boundary data as four (n, 1) columns in the frame's coordinates.

    Each phi has frame.n entries: on a batch frame, one block per parameter.
    Family 5 data is reduced here, in X's coordinates, to the family 1 data
    (phi1, phi2, phi3 - P phi1, phi4 - P phi2) that _solve_family solves.
    The reduction needs the dense view of P, so a batch frame takes family 5
    data only as None; even all-zero vectors fail there.
    """
    if phi is None:
        return _zero_phi(frame.n)
    p1, p2, p3, p4 = (np.asarray(p, dtype=complex) for p in phi)
    if bc == 5:
        p3, p4 = p3 - frame.p @ p1, p4 - frame.p @ p2
    return tuple(frame.to_modes(p.reshape(frame.n, 1)) for p in (p1, p2, p3, p4))


def particular_solution_F(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """The particular solution with value/second-derivative boundary data.

    With homogeneous data the result vanishes at both endpoints together
    with its second derivative.
    """
    fv = frame.to_modes(_field_to_internal(f))
    part = _particular(frame, f.grid, fv, _frame_phi(frame, phi))
    return _internal_to_field(f.grid, frame.from_modes(part["F"]))


def fprime_boundary(frame: BCFrame, f: GridFunction):
    """Endpoint first derivatives of the homogeneous particular solution.

    Evaluated from the closed-form derivative expression (exponentials and
    full-interval kernel integrals), never by differencing F itself.
    """
    o, ap = frame.ops, frame.apply
    fv = frame.to_modes(_field_to_internal(f))
    part = _particular(frame, f.grid, fv, _zero_phi(frame.n))
    zk1, zk2 = ap(o.z, part["k1"]), ap(o.z, part["k2"])
    e2zk1, e2zk2 = (ap(o.e_cm, ap(o.e_cm, v)) for v in (zk1, zk2))
    fa = -0.5 * (zk1 + e2zk1) + ap(o.e_cm, zk2) - 0.5 * part["k1"]
    fb = -ap(o.e_cm, zk1) + 0.5 * (zk2 + e2zk2) + 0.5 * part["k2"]
    return frame.from_modes(fa)[:, 0], frame.from_modes(fb)[:, 0]


def _mode_solution(frame, kit, alphas, base):
    ap, m, l = frame.apply, kit["m"], kit["l"]
    a1, a2, a3, a4 = alphas
    u = (
        ap(m["exa"], a1 + a3) + ap(m["ebx"], a3 - a1)
        + ap(l["exa"], a2 + a4) + ap(l["ebx"], a4 - a2)
    )
    return u + base


def _solve_family(frame: BCFrame, grid: Grid, fv: np.ndarray, phi, bc: int) -> np.ndarray:
    """Dispatch on the boundary family; fv is (N, n, r) and phi four (n, 1)
    columns from _frame_phi, all in the frame's coordinates."""
    o, ap = frame.ops, frame.apply
    if bc in (1, 5):  # family 5 data arrives reduced to family 1 data
        return _particular(frame, grid, fv, phi)["F"]

    part = _particular(frame, grid, fv, _zero_phi(frame.n))
    kit = part["kit"]
    fpa, fpb = part["fpa"], part["fpb"]
    p1, p2, p3, p4 = phi
    eye = o.eye

    if bc == 2:
        alphas = _family2_alphas(frame, part, phi)
        return _mode_solution(frame, kit, alphas, part["F"])

    if not frame.uv_ok or o.uinv is None or o.vinv is None:
        raise FrameSingular(
            "derivative-family solve needs invertible interval operators; "
            "the parameter may belong to the spectrum"
        )

    def common(v):  # B^{-1} (L + M) v
        return ap(o.binv, ap(o.l + o.m, v))

    if bc == 3:
        pt1 = 0.5 * (p3 + p4 - fpa - fpb)
        pt2 = 0.5 * (p3 - p4 - fpa + fpb)
        dm = p1 - p2
        sm = p1 + p2
        a1 = 0.5 * common(ap(o.uinv,
            ap(o.l, ap(eye + o.e_cl, dm)) - 2 * ap(eye - o.e_cl, pt1)))
        a2 = -0.5 * common(ap(o.uinv,
            ap(o.m, ap(eye + o.e_cm, dm)) - 2 * ap(eye - o.e_cm, pt1)))
        a3 = 0.5 * common(ap(o.vinv,
            ap(o.l, ap(eye - o.e_cl, sm)) - 2 * ap(eye + o.e_cl, pt2)))
        a4 = -0.5 * common(ap(o.vinv,
            ap(o.m, ap(eye - o.e_cm, sm)) - 2 * ap(eye + o.e_cm, pt2)))
        return _mode_solution(frame, kit, (a1, a2, a3, a4), part["F"])

    if bc == 4:
        pt1 = 0.5 * (p1 + p2 - fpa - fpb)
        pt2 = 0.5 * (p1 - p2 - fpa + fpb)
        dm = p3 - p4
        sm = p3 + p4
        a1 = 0.5 * common(ap(o.vinv,
            2 * ap(eye - o.e_cl, ap(o.l, ap(o.minv, pt1)))
            - ap(eye + o.e_cl, ap(o.minv, dm))))
        a2 = -0.5 * common(ap(o.vinv,
            2 * ap(eye - o.e_cm, ap(o.m, ap(o.linv, pt1)))
            - ap(eye + o.e_cm, ap(o.linv, dm))))
        a3 = 0.5 * common(ap(o.uinv,
            2 * ap(eye + o.e_cl, ap(o.l, ap(o.minv, pt2)))
            - ap(eye - o.e_cl, ap(o.minv, sm))))
        a4 = -0.5 * common(ap(o.uinv,
            2 * ap(eye + o.e_cm, ap(o.m, ap(o.linv, pt2)))
            - ap(eye - o.e_cm, ap(o.linv, sm))))
        return _mode_solution(frame, kit, (a1, a2, a3, a4), part["F"])

    raise ValueError(f"unknown bc family {bc}")


def _solve_public(frame, f, phi, bc):
    fv = frame.to_modes(_field_to_internal(f))
    vals = _solve_family(frame, f.grid, fv, _frame_phi(frame, phi, bc), bc)
    return _internal_to_field(f.grid, frame.from_modes(vals))


def _family2_alphas(frame: BCFrame, part: dict, phi):
    o, ap = frame.ops, frame.apply
    fpa, fpb = part["fpa"], part["fpb"]
    p1, p2, p3, p4 = phi
    pt1 = 0.5 * (p1 + p2 - fpa - fpb)
    pt2 = 0.5 * (p1 - p2 - fpa + fpb)
    a2 = ap(o.inv_im_el, ap(o.binv, 0.5 * (p3 - p4)))
    a4 = ap(o.inv_ip_el, ap(o.binv, 0.5 * (p3 + p4)))
    a1 = ap(o.inv_ip_em,
            ap(o.minv, pt1) - ap(o.eye + o.e_cl, ap(o.l, ap(o.minv, a2))))
    a3 = ap(o.inv_im_em,
            ap(o.minv, pt2) - ap(o.eye - o.e_cl, ap(o.l, ap(o.minv, a4))))
    return a1, a2, a3, a4


def family2_coefficients(frame: BCFrame, f: GridFunction, phi=None):
    """The four mode coefficients of the derivative/(u''+Pu) solver.

    Read-back seam for bookkeeping checks: the returned vectors are exactly
    the coefficients multiplying the four exponential mode stacks in the
    assembled solution (same code path as the solver), in X's coordinates.
    """
    fv = frame.to_modes(_field_to_internal(f))
    part = _particular(frame, f.grid, fv, _zero_phi(frame.n))
    alphas = _family2_alphas(frame, part, _frame_phi(frame, phi))
    return tuple(frame.from_modes(a)[:, 0] for a in alphas)


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


def _lambda_frames(spec: ProblemSpec, lams) -> BCFrame:
    """One frame for the shifted equation at each parameter of ``lams``.

    The factors are P = A - k/2 + i s, Q = A - k/2 - i s and B = 2 i s with
    s = sqrt(-lam - k^2/4), except lam = 0 with k != 0, which uses the direct
    factorization (A, A - k I) instead of the branch-cut parameterization.
    For A with a trusted eigenbasis the frame is modal and built from A's
    eigenvalues alone, with no factorization, and K parameters make one batch
    frame over the flattened (parameter, mode) axis; otherwise ``lams`` must
    hold one parameter, and the frame is dense.

    A batch refuses exactly when one of its parameters would: it raises the
    exception of the first refused parameter in node order, BranchCut for a
    parameter on the cut, and NotInResolventSet (carrying ``lam``) for a
    frame that cannot be assembled.
    """
    A = spec.A
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    require_uv = spec.bc_family in DERIVATIVE_FAMILIES
    try:
        shifts = np.array([_factor_shifts(spec.k, lam) for lam in lams])
        if A.diagonalizable:
            p, q = (A.spectrum + shifts[:, j, None] for j in (0, 1))
            b = 0.0 * A.spectrum + shifts[:, 2, None]
            frame = assemble_frame(p, q, b, spec.c, require_uv,
                                   basis=(A.eigvecs, A.eigvecs_inv, A.eig_cond))
        elif len(lams) == 1:
            (p, q, b), = shifts
            frame = assemble_frame(shift_operator(A, p), shift_operator(A, q),
                                   shift_operator(A, b, scale=0.0), spec.c, require_uv)
        else:
            raise ValueError("only A with a trusted eigenbasis batches parameters")
    except (BranchCut, FrameSingular, SingularOrIllConditioned, SpectrumOnCut) as exc:
        if len(lams) > 1:  # the first refused parameter names the refusal
            for lam in lams:
                _lambda_frames(spec, lam)
        if isinstance(exc, BranchCut):
            raise
        raise NotInResolventSet(f"frame assembly failed at lambda={lams[0]}: {exc}",
                                lam=lams[0]) from exc
    frame.lam = lams if len(lams) > 1 else complex(lams[0])
    return frame


def _lambda_frame(spec: ProblemSpec, lam: complex) -> BCFrame:
    """Frame for the shifted equation at one parameter (``_lambda_frames``)."""
    return _lambda_frames(spec, lam)


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
    the sweep layer; shares one frame across all basis columns.  A modal
    frame decouples the modes, so N columns (node deltas in every mode at
    once) give each mode's N x N block, and V R_i V^{-1} assembles them.
    """
    if frame is None:
        frame = _lambda_frame(spec, lam)
    n, N = spec.A.dim, grid.n
    if frame.modal:
        deltas = np.repeat(np.eye(N, dtype=complex)[:, None, :], n, axis=1)
        blocks = _solve_family(frame, grid, deltas, _zero_phi(n), spec.bc_family)
        V, Vinv = frame.basis
        return np.einsum("ai,xiy,ib->xayb", V, blocks, Vinv,
                         optimize=True).reshape(N * n, N * n)
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
