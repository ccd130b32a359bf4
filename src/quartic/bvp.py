"""Explicit solution formulas for u'''' + (P+Q)u'' + PQ u = f on (a,b).

The solver assembles, per spectral parameter, a frame of commuting operators
(the quadratic factors P and Q, the semigroup generators l = -sqrt(-Q) and
m = -sqrt(-P), the interval-length exponentials and their guarded inverses)
and evaluates the closed-form representation of the solution under the five
boundary-condition families.  Fields are sampled on a grid and batched over
right-hand sides.

Every frame member is a function of the base operator A, and the factors
are A shifted by scalars, so ``_lambda_frames`` builds every frame from A's
block form A = V diag(T_1, ..., T_R) V^{-1} (``OperatorHandle.block_form``):
each member is the stack of R b x b blocks of that function of the T_r, and
data and boundary vectors are mapped into the basis V on entry and back on
exit.  The block size b comes from A alone.  A trusted eigenbasis
(eig_cond <= EIG_COND_CAP) gives b = 1: the blocks are eigenvalues, every
member acts elementwise, and a parameter costs O(nN) work and no
factorization.  Otherwise A is one block, b = n: its upper-triangular
complex Schur form in the unitary Schur basis, whose square roots and
exponentials stay triangular and accurate however non-normal A is
(``operators.sqrt_matrix``, ``scipy.linalg.expm``).  One set of formulas
serves every b; only the calculus (``_Blocks``), ``BCFrame.apply`` and
``kernels`` look at it.

A frame may hold K parameters at once (``_lambda_frames``): its members
stack the blocks of each parameter in turn, K n / b blocks in all, and the
basis maps act on each parameter's n rows.  The kernels, the grid kit and
the family formulas run on that longer axis unchanged, so K resolvent solves
cost one.  Every guard of the frame assembly compares per parameter row,
with the per-parameter thresholds, so a batch refuses exactly when one of its
parameters would.

Every solve goes through a ``ResolventMap``, one frame, grid and family
applied to node-major (N, n, r) data, r right-hand sides on the N nodes and
n = frame.n rows: in the frame's coordinates (``solve_modes``), or in X's
with boundary data (``apply``; ``apply_field`` on a GridFunction), the path
of ``solve_bc1``-``solve_bc5``.  ``adjoint`` gives the map of A^H at
conj(lambda) on the frame ``BCFrame.adjoint`` derives.  The per-block
resolvent blocks (``resolvent_blocks``), discrete Green's kernels, are the
family's solve of the unit tile, a unit delta at each node and block index:
the same end constants, mode coefficients and assembly, but with step
contributions from the grid's step band (``kernels.convolve_units``) instead
of N b delta columns and their stencil derivatives.

Every family starts from the partial fraction F = B^{-1} (W_Q - W_P), one
second-order stage per factor (``_particular``).  It is symmetric in (P, Q),
which conj(lambda) swaps, so a real problem's solves at lambda and
conj(lambda) are conjugates to round-off, and ``apply`` solves real data at
a real lambda left of the vertex from one stage (``BCFrame.conjugate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import tolerances as tol
from .errors import (
    BranchCut,
    FrameSingular,
    NotInResolventSet,
    SingularOrIllConditioned,
    SpectrumOnCut,
    at_row,
)
from .grids import Grid, GridFunction
from .kernels import Propagator, convolve_nodes, convolve_units
from .operators import (
    OperatorHandle,
    sector_half_angle,
    sqrt_matrix,
    sqrt_symbols,
)

__all__ = [
    "BC_FAMILIES",
    "DERIVATIVE_FAMILIES",
    "bc_conditions",
    "condition_value",
    "ProblemSpec",
    "BCFrame",
    "assemble_frame",
    "ResolventMap",
    "solve_bc1",
    "solve_bc2",
    "solve_bc3",
    "solve_bc4",
    "solve_bc5",
    "resolvent_solve",
    "resolvent_blocks",
    "boundary_residuals",
    "frame_identity_residual",
    "resolvent_product_residual",
]

# Each family's two condition kinds (a derivative order, or "S" for u'' + S u),
# imposed in phi order at a, b, a, b.  Checks and oracles read this table; the
# formulas in _mode_coefficients do not, which keeps them independent of the solver.
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

    @property
    def real(self) -> bool:
        """A real and bc_family != 2: then R(conj lam) f = conj(R(lam) conj f).

        Family 2's boundary operator u'' + P u moves with lam, so it is never
        real in this sense.  The discrete solves keep the identity to
        round-off (module docstring).
        """
        return self.bc_family != 2 and not np.any(np.imag(self.A.matrix))


@dataclass
class BCFrame:
    """Operator bundle entering the representation formulas for one parameter.

    Frames come from ``_lambda_frames``, which assembles them with
    ``assemble_frame``.  ``ops`` holds the members (p, q, b_op, m, l, their
    inverses, the interval exponentials e_cm, e_cl, e_clm, the guarded
    inverses z, w, inv_ip_em, ..., T-/T+, uinv and vinv, which invert
    U = I - T- and V = I - T+, and the identity eye), each a stack of R
    b x b blocks in the basis ``basis`` = (V, V^{-1}) that P, Q and B share:
    b = 1 blocks are eigenvalues in A's eigenbasis, and b = n is one matrix,
    triangular in A's Schur basis from ``_lambda_frames`` (module docstring).
    Every grid-kit entry is one read-only array with the trailing (R, b, b):
    (N, R, b, b) exponentials, (6, J, R, b, b) node weights and the
    convolutions' scan factors (``Propagator.grid_stacks``: the steps for
    b > 1, segment rows of inverse exponentials for b = 1).  Attribute access
    ``frame.p``, ``frame.inv_im_el``, ... gives the dense matrix
    V diag(blocks) V^{-1}, built on first use.
    ``uinv``/``vinv`` are None when the guarded inversion of U or V refused
    (recorded in ``uv_ok``).  ``real_a``: A is real (``conjugate``).

    A batch frame (``_lambda_frames``) stacks the blocks of its K parameters
    in turn; ``n`` is then K n, ``lam`` the array of the K parameters, data
    and boundary vectors are stacked the same way, and
    ``to_modes``/``from_modes`` map each parameter's dim(A) rows.  It has no
    dense member views, but ``parameter(i)`` gives parameter i as a
    single-parameter view: its member blocks and cached grid-kit stacks are
    slices of the batch's along the block axis, so it solves and has dense
    member views like a frame of its own.
    """

    n: int
    c: float
    lam: complex | np.ndarray | None
    ops: SimpleNamespace
    basis: tuple
    uv_ok: bool
    prop_m: Propagator
    prop_l: Propagator
    real_a: bool = False
    _dense: dict = field(default_factory=dict, repr=False)
    _grid_cache: dict = field(default_factory=dict, repr=False)

    @property
    def conjugate(self) -> bool:
        """Q = conj(P) in X's coordinates: A real, one parameter, B = 2 i s imaginary."""
        return self.real_a and np.ndim(self.lam) == 0 and not self.ops.b_op.real.any()

    @property
    def block(self) -> int:
        """The block size b."""
        return self.ops.eye.shape[-1]

    def __getattr__(self, name):
        ops = self.__dict__.get("ops")
        if ops is None or not hasattr(ops, name):
            raise AttributeError(name)
        x = getattr(ops, name)
        if x is None:
            return x
        if name not in self._dense:
            V, Vinv = self.basis
            if len(x) * x.shape[-1] != len(V):
                raise AttributeError(f"{name}: a batch frame has no dense member views")
            self._dense[name] = V @ self.apply(x, Vinv)
        return self._dense[name]

    @staticmethod
    def apply(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """x @ v for a member or grid-kit stack x of (..., R, b, b) blocks and
        (n, r) or (N, n, r) data v, n = R b."""
        b, r = x.shape[-1], v.shape[-1]
        if b == 1:
            return x[..., 0] * v
        y = x @ v.reshape(v.shape[:-2] + (-1, b, r))
        return y.reshape(y.shape[:-3] + (-1, r))

    def to_modes(self, v: np.ndarray) -> np.ndarray:
        """(..., n, r) data in X's coordinates -> the frame's coordinates."""
        return _blockwise(self.basis[1], v)

    def from_modes(self, v: np.ndarray) -> np.ndarray:
        """Inverse of ``to_modes``."""
        return _blockwise(self.basis[0], v)

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
        """Grid stacks, cached and read-only: for X in "m" and "l", kit[X]
        holds "exa" e^{(x-a)X}, "ebx" e^{(b-x)X}, "weights", the node
        weights of the step integrals, and "scans", what both convolutions'
        running sums read besides (``Propagator.grid_stacks``): the steps
        e^{h_j X} for b > 1, and for b = 1 the inverse exponentials on X's
        segments of the grid, whose exponentials are "exa" and "ebx" when
        one segment spans it.  The segmentation is the kit's, so parameter
        and adjoint views keep it."""
        key = grid.nodes.tobytes()
        kit = self._grid_cache.get(key)
        if kit is None:
            kit = {name: prop.grid_stacks(grid.nodes)
                   for name, prop in (("m", self.prop_m), ("l", self.prop_l))}
            self._grid_cache[key] = kit
        return kit

    def parameter(self, i: int) -> BCFrame:
        """Parameter i of a K-parameter batch frame as a single-parameter frame.

        The view's member blocks, the grid kits cached so far and ``lam`` are
        parameter i's slices of the batch's (no copy), so it keeps the batch's
        arrays alive.  The assembly computes each parameter's blocks from that
        parameter alone, so they are the blocks of the frame it assembles
        alone.  ``uv_ok`` is the batch's: when U or V refused for one
        parameter, no view has ``uinv``/``vinv``.  A single-parameter frame is
        its own parameter 0.
        """
        K = self.n // len(self.basis[0])
        if not 0 <= i < K:
            raise IndexError(f"parameter {i} of a {K}-parameter frame")
        if K == 1:
            return self
        R = len(self.ops.eye) // K
        rows = slice(i * R, (i + 1) * R)
        ops = {name: None if x is None else x[rows] for name, x in vars(self.ops).items()}
        kits = {key: {name: {item: x[..., rows, :, :] for item, x in s.items()}
                      for name, s in kit.items()}
                for key, kit in self._grid_cache.items()}
        return BCFrame(n=self.n // K, c=self.c, lam=complex(self.lam[i]),
                       ops=SimpleNamespace(**ops), basis=self.basis, uv_ok=self.uv_ok,
                       prop_m=Propagator(ops["m"]), prop_l=Propagator(ops["l"]),
                       real_a=self.real_a, _grid_cache=kits)

    def adjoint(self) -> BCFrame:
        """The frame of A^H at conj(lam), derived with no assembly.

        Each member is f(A + s) for a scalar s and a function f with
        f(X)^H = f(X^H), so the factors become P' = Q^H, Q' = P^H and
        B' = -B^H: each member is its partner's (``_ADJOINT_PARTNERS``)
        blocks conjugate-transposed (b_op and binv negated) in the basis
        (V^{-H}, V^H), and so is each cached grid kit, kept read-only.  A frame
        at lam = 0 (the direct factorization, not swapped) raises ValueError.
        """
        if self.lam is not None and np.any(np.asarray(self.lam) == 0):
            raise ValueError("a frame at lambda = 0 has no derived adjoint")
        V, Vinv = self.basis
        ops = {name: _adjoint_blocks(getattr(self.ops, _ADJOINT_PARTNERS.get(name, name)))
               for name in vars(self.ops)}
        ops["b_op"], ops["binv"] = -ops["b_op"], -ops["binv"]
        kits = {key: {name: {item: _adjoint_blocks(x) for item, x in kit[partner].items()}
                      for name, partner in (("m", "l"), ("l", "m"))}
                for key, kit in self._grid_cache.items()}
        return BCFrame(n=self.n, c=self.c, lam=None if self.lam is None else self.lam.conjugate(),
                       ops=SimpleNamespace(**ops), basis=(Vinv.conj().T, V.conj().T),
                       uv_ok=self.uv_ok, prop_m=Propagator(ops["m"]), prop_l=Propagator(ops["l"]),
                       real_a=self.real_a, _grid_cache=kits)


# Partner members under ``BCFrame.adjoint``; the others are their own partners.
_ADJOINT_PARTNERS = {"p": "q", "m": "l", "minv": "linv", "e_cm": "e_cl", "z": "w",
                     "inv_ip_em": "inv_ip_el", "inv_im_em": "inv_im_el"}
_ADJOINT_PARTNERS.update({v: k for k, v in _ADJOINT_PARTNERS.items()})


def _adjoint_blocks(x):
    """Read-only blockwise conjugate transpose of a (..., R, b, b) stack;
    None stays None."""
    if x is None:
        return None
    y = np.conj(x.swapaxes(-1, -2))
    y.setflags(write=False)
    return y


def _blockwise(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ each block of len(M) rows of (..., K len(M), r) data: one matrix
    product on the (..., K len(M)) rows of single-column data, a batched one
    otherwise."""
    n, r = len(M), v.shape[-1]
    if r == 1:
        return (v.reshape(-1, n) @ M.T).reshape(v.shape)
    return (M @ v.reshape(v.shape[:-2] + (-1, n, r))).reshape(v.shape)


def _cut_shifts(k: float, lam: complex):
    """(p, q, b) with P = A + p, Q = A + q, B = b I: p, q = -k/2 +- i s and
    b = 2 i s, s the principal square root of -lam - k^2/4.  Raises BranchCut
    when that argument falls on (-inf, 0]."""
    s2 = -complex(lam) - k * k / 4.0
    scale = max(1.0, abs(s2))
    if abs(s2.imag) <= 1e-14 * scale and s2.real <= 1e-14 * scale:
        raise BranchCut(f"-lambda - k^2/4 = {s2} lies on the branch cut", lam=lam)
    s = np.sqrt(s2)
    return -k / 2.0 + 1j * s, -k / 2.0 - 1j * s, 2j * s


def _factor_shifts(k: float, lam: complex):
    """_cut_shifts, except lam = 0 with k != 0, which factors directly as
    (A - k, A) for k > 0 and (A, A - k) for k < 0 with B = -|k| I."""
    if lam == 0 and k != 0:
        return (-k, 0.0, -abs(k)) if k > 0 else (0.0, -k, -abs(k))
    return _cut_shifts(k, lam)


def _refuse(bad, exc_type, message: str, *values):
    """Raise exc_type at the first row (parameter) where the guard ``bad``
    holds, with ``message`` formatted from that row's ``values``; the
    exception records the row as ``row``."""
    bad = np.atleast_1d(bad)
    if bad.any():
        i = int(np.argmax(bad))
        raise at_row(exc_type(message.format(*(np.atleast_1d(v)[i] for v in values))), i)


class _Blocks:
    """Calculus of a frame: each member is a stack of R b x b blocks, the
    blocks of K parameters' operators in one basis of condition kappa, R / K
    blocks per parameter.  Blocks of size 1 are eigenvalues and act
    elementwise; larger blocks are matrices.  Norms are per parameter row,
    kappa times the largest block 2-norm of the row, which bounds
    ||V diag(blocks) V^{-1}||: for b = 1 that is kappa max|x|, and for one
    block with kappa = 1 it is ||X||_2.  So a guard refuses a row whenever the
    one-block frame of that parameter would, and never because of the scale
    of another row."""

    def __init__(self, K: int, R: int, b: int, kappa: float):
        self.K, self.b, self.kappa = K, b, kappa
        self.eye = np.tile(np.eye(b, dtype=complex), (R, 1, 1))

    def norm(self, x: np.ndarray) -> np.ndarray:
        if self.b == 1:
            blocks = np.abs(x[:, 0, 0])
        else:  # an SVD refuses non-finite blocks; they get an infinite norm
            finite = np.isfinite(x).all(axis=(1, 2))
            blocks = np.full(len(x), np.inf)
            blocks[finite] = np.linalg.norm(x[finite], 2, axis=(1, 2))
        return self.kappa * blocks.reshape(self.K, -1).max(axis=1)

    def fro(self, x) -> np.ndarray:
        return np.linalg.norm(x.reshape(self.K, -1), axis=1)

    def inv(self, x):
        if self.b == 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / x
        try:
            return np.linalg.inv(x)
        except np.linalg.LinAlgError:  # a singular block: every norm reads inf
            return np.full_like(x, np.nan)

    def mul(self, x, y):
        return x * y if self.b == 1 else x @ y

    def neg_sqrt_neg(self, x):
        if self.b == 1:
            return -sqrt_symbols(-x.reshape(self.K, -1)).reshape(x.shape)
        roots = []
        for i, block in enumerate(x):
            try:
                roots.append(sqrt_matrix(-block))
            except SpectrumOnCut as exc:
                exc.row = i * self.K // len(x)
                raise
        return -np.array(roots)

    def inv_i_minus(self, t, label: str):
        """(I - T)^{-1} under the condition cap (1 + ||T||) ||(I - T)^{-1}||
        <= CONDITION_CAP, per row."""
        inv = self.inv(self.eye - t)
        cond = (1.0 + self.norm(t)) * self.norm(inv)
        _refuse(~np.isfinite(cond) | (cond > tol.CONDITION_CAP), SingularOrIllConditioned,
                f"I - {label} has condition estimate {{:.3e}}", cond)
        return inv


def assemble_frame(P, Q, B, c: float, require_uv: bool = False, *,
                   basis: tuple) -> BCFrame:
    """Build the operator frame from commuting factors P, Q with P = Q + B.

    ``basis`` = (V, V^{-1}, cond(V)), and P, Q and B are stacks of R b x b
    blocks, the factors of K parameters in that basis (R b = K len(V)); the
    frame is one batch frame over them.  Raises SpectrumOnCut when a square
    root is undefined and FrameSingular when B or an interval operator needed
    unconditionally is not invertible, for one of its parameters.  With
    ``require_uv`` the two derivative-family operators must also invert.
    """
    p, q, b = (np.asarray(x, dtype=complex) for x in (P, Q, B))
    V, Vinv, kappa = basis
    if c <= 0:
        raise ValueError("interval length c must be positive")
    calc = _Blocks(len(p) * p.shape[-1] // len(V), len(p), p.shape[-1], kappa)
    pn, qn = np.maximum(calc.norm(p), 1e-300), np.maximum(calc.norm(q), 1e-300)
    gap = calc.fro(p - q - b)
    _refuse(gap > 1e-10 * np.maximum(pn, calc.norm(b)), FrameSingular,
            "P - Q - B residual {:.3e}", gap)
    binv = calc.inv(b)
    binv_norm = calc.norm(binv)
    # B is "invertible" only on the scale of the factors it separates
    _refuse(~np.isfinite(binv_norm)
            | (binv_norm * np.maximum(np.maximum(pn, qn), 1.0) > tol.CONDITION_CAP),
            FrameSingular, "B is not invertible")
    m = calc.neg_sqrt_neg(p)
    l = calc.neg_sqrt_neg(q)
    prop_m = Propagator(m)
    prop_l = Propagator(l)
    e_cm, e_2cm = prop_m.exp_stack(np.array([c, 2 * c]))
    e_cl, e_2cl = prop_l.exp_stack(np.array([c, 2 * c]))
    lm = l + m
    e_clm = Propagator(lm).exp_stack(np.array([c]))[0]
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
        uinv=uinv, vinv=vinv,
        inv_ip_em=inv_ip_em, inv_im_em=inv_im_em,
        inv_ip_el=inv_ip_el, inv_im_el=inv_im_el,
    )
    return BCFrame(n=len(p) * calc.b, c=c, lam=None, ops=ops, basis=(V, Vinv), uv_ok=uv_ok,
                   prop_m=prop_m, prop_l=prop_l)


def _data_derivatives(grid: Grid, fv: np.ndarray):
    """First two x-derivatives of sampled data via local stencils.

    The grid's stencil bands act on the (N, 2nr) real view of the complex
    (N, n, r) data: each node's (2, w) weights times its (w, 2nr) window of
    rows gives both orders at once, O(w N n r) work and no N x N matrix.
    The product is written order-major, so each derivative is contiguous.
    """
    idx, weights = grid.stencils
    flat = np.ascontiguousarray(fv, dtype=complex).reshape(len(fv), -1).view(float)
    d = np.empty((2,) + flat.shape)
    np.matmul(weights, flat[idx], out=d.transpose(1, 0, 2))
    return tuple(x.view(complex).reshape(fv.shape) for x in d)


def _second_order(frame: BCFrame, kit: dict, generator: str, conv, v_a, v_b):
    """v'' - X^2 v = f with v(a) = v_a, v(b) = v_b, X the ``generator`` "l" or "m".

    ``conv`` = (I+, I-) of the data f on the grid, I+(x) = int_a^x e^{(x-s)X}
    f ds and I-(x) = int_x^b e^{(s-x)X} f ds, (N, n, r) arrays, and v_a, v_b
    are (n, r) columns, all in the frame's coordinates.  v is e^{(x-a)X} c_a +
    e^{(b-x)X} c_b + X^{-1} (I+ + I-) / 2, the endpoint values fixing c_a,
    c_b through (I - e^{2cX})^{-1}.  Both integrals come from the kit's node
    weights (``_stage_convolutions``), so the stage builds no polynomial
    model of its own.  Returns (v, v'(a), v'(b)).
    """
    o, ap = frame.ops, frame.apply
    # X, X^{-1}, e^{cX} and (I - e^{2cX})^{-1}, for l = -sqrt(-Q) or m = -sqrt(-P)
    x, x_inv, e_c, g = ((o.l, o.linv, o.e_cl, o.w) if generator == "l"
                        else (o.m, o.minv, o.e_cm, o.z))
    stacks = kit[generator]
    fwd, bwd = conv
    k_a, k_b = bwd[0], fwd[-1]
    d_a, d_b = (ap(g, v_end - 0.5 * ap(x_inv, k)) for v_end, k in ((v_a, k_a), (v_b, k_b)))
    c_a, c_b = d_a - ap(e_c, d_b), d_b - ap(e_c, d_a)
    v = ap(stacks["exa"], c_a) + ap(stacks["ebx"], c_b) + 0.5 * ap(x_inv, fwd + bwd)
    return v, ap(x, c_a - ap(e_c, c_b)) - 0.5 * k_a, ap(x, ap(e_c, c_a) - c_b) + 0.5 * k_b


def _stage_convolutions(kit: dict, grid: Grid, fv, generators: str):
    """(I+, I-) on the grid for the stage of each generator in
    ``generators``, in turn.

    fv is (N, n, r) data in the frame's coordinates, convolved stage by stage
    (``kernels.convolve_nodes``) from the stencil derivatives all stages
    share (``_data_derivatives``), or None for the unit tile: a unit delta at
    each node and block index in every block at once, N b columns, whose
    stages are convolved at once from the grid's step band
    (``kernels.convolve_units``).
    """
    if fv is None:
        yield from convolve_units([kit[g] for g in generators], grid.step_band)
        return
    fp, fpp = _data_derivatives(grid, fv)
    for g in generators:
        yield convolve_nodes(kit[g], fv, fp, fpp)


def _particular(frame: BCFrame, grid: Grid, fv, phi, real: bool = False):
    """(F, F'(a), F'(b)) of the particular solution F_{Phi,f}, from fv
    (N, n, r) data or None for the unit tile (``_stage_convolutions``) and
    phi, four (n, 1) columns, in the frame's coordinates.

    F = B^{-1} (W_Q - W_P): W_Q = F'' + P F solves w'' + Q w = f (generator l)
    with w = phi3 + P phi1, phi4 + P phi2 at the ends, W_P = F'' + Q F the
    same with P and Q swapped (generator m), and F' combines their slopes
    alike.  Next to the vertex the difference loses |P| / |B| of round-off.
    With ``real`` (``ResolventMap.apply``) W_P = conj(W_Q) in X's coordinates
    and B = 2 i s, so F = Im(W_Q) / s: the three come back real in X's.
    """
    o, ap = frame.ops, frame.apply
    kit = frame.grid_kit(grid)
    convs = _stage_convolutions(kit, grid, fv, "l" if real else "lm")
    p1, p2, p3, p4 = phi
    w_q = _second_order(frame, kit, "l", next(convs), p3 + ap(o.p, p1), p4 + ap(o.p, p2))
    if real:
        s = 0.5 * o.b_op[0, 0, 0].imag
        return tuple(frame.from_modes(w).imag / s for w in w_q)
    w_p = _second_order(frame, kit, "m", next(convs), p3 + ap(o.q, p1), p4 + ap(o.q, p2))
    return tuple(ap(o.binv, wq - wp) for wq, wp in zip(w_q, w_p))


def _zero_phi(n: int):
    z = np.zeros((n, 1), dtype=complex)
    return (z, z, z, z)


def _frame_phi(frame: BCFrame, phi, bc: int):
    """Boundary data as four (n, 1) columns in the frame's coordinates.

    Each phi has frame.n entries: on a batch frame, one block per parameter.
    Family 5 data is reduced here, in the frame's coordinates, to the family 1
    data (phi1, phi2, phi3 - P phi1, phi4 - P phi2) that _solve_family
    solves, so it needs no dense view of P and a batch frame takes it too.
    """
    if phi is None:
        return _zero_phi(frame.n)
    p1, p2, p3, p4 = (frame.to_modes(np.asarray(p, dtype=complex).reshape(frame.n, 1))
                      for p in phi)
    if bc == 5:
        p3, p4 = p3 - frame.apply(frame.ops.p, p1), p4 - frame.apply(frame.ops.p, p2)
    return p1, p2, p3, p4


def _solve_family(frame: BCFrame, grid: Grid, fv, phi, bc: int, real=False):
    """Dispatch on the boundary family: fv (N, n, r) or None for the unit
    tile (``_stage_convolutions``), phi four (n, 1) columns from _frame_phi
    and u in the frame's coordinates, or u real in X's with ``real``
    (``_particular``).  Families 2-4 add to the homogeneous particular
    solution F the four mode stacks weighted by _mode_coefficients."""
    if bc in (1, 5):  # family 5 data arrives reduced to family 1 data
        return _particular(frame, grid, fv, phi, real)[0]
    if bc in DERIVATIVE_FAMILIES and not frame.uv_ok:
        raise FrameSingular(
            "derivative-family solve needs invertible interval operators; "
            "the parameter may belong to the spectrum"
        )
    F, *slopes = _particular(frame, grid, fv, _zero_phi(frame.n), real)
    if real:
        slopes = [frame.to_modes(fp) for fp in slopes]
    a1, a2, a3, a4 = _mode_coefficients(frame, *slopes, phi, bc)
    ap, kit = frame.apply, frame.grid_kit(grid)
    m, l = kit["m"], kit["l"]
    u = (ap(m["exa"], a1 + a3) + ap(m["ebx"], a3 - a1)
         + ap(l["exa"], a2 + a4) + ap(l["ebx"], a4 - a2))
    return frame.from_modes(u).real + F if real else u + F


def _mode_coefficients(frame: BCFrame, fpa, fpb, phi, bc: int):
    """Coefficients (a1, a2, a3, a4) of e^{(x-a)M} (a1 + a3), e^{(b-x)M} (a3 - a1),
    e^{(x-a)L} (a2 + a4) and e^{(b-x)L} (a4 - a2) in the family 2-4 solutions.

    Each family splits its data into a slope pair, the derivative conditions
    (phi3, phi4) in family 3 and (phi1, phi2) in families 2 and 4, and a data
    pair, the other two.  The parity s = +1 gives (a1, a2) and s = -1 gives
    (a3, a4) from pt_s = (slope_a + s slope_b - fpa - s fpb) / 2, fpa = F'(a)
    and fpb = F'(b), and d_s = data_a - s data_b.

    Families 3 and 4 share one formula over the generator pairs (X, Y^{-1}):
    (L, M^{-1}) gives M's coefficient, +1/2 B^{-1}(L + M) W_s r, and (M, L^{-1})
    gives L's, -1/2 B^{-1}(L + M) W_s r, with e = e^{cX} and
        family 3:  r = X (I + s e) d_s - 2 (I - s e) pt_s,
                   W_{+1} = U^{-1}, W_{-1} = V^{-1};
        family 4:  r = 2 (I - s e) X Y^{-1} pt_s - (I + s e) Y^{-1} d_s,
                   W_{+1} = V^{-1}, W_{-1} = U^{-1},
    where U^{-1} = (I - T-)^{-1} and V^{-1} = (I - T+)^{-1}.  Family 2 is
    triangular: a_L = (I - s e^{cL})^{-1} B^{-1} d_s / 2, then
    a_M = (I + s e^{cM})^{-1} (M^{-1} pt_s - (I + s e^{cL}) L M^{-1} a_L).
    """
    o, ap, eye = frame.ops, frame.apply, frame.ops.eye
    slope, data = (phi[2:], phi[:2]) if bc == 3 else (phi[:2], phi[2:])
    w = (o.uinv, o.vinv) if bc == 3 else (o.vinv, o.uinv)  # W_s at s = +1, -1
    alphas = []
    # s = +1, -1 as the ufunc pair (+, -) or (-, +), so each sum rounds as written
    for i, (plus, minus) in enumerate(((np.add, np.subtract), (np.subtract, np.add))):
        pt = 0.5 * minus(plus(*slope) - fpa, fpb)
        d = minus(*data)
        if bc == 2:
            a_l = ap((o.inv_im_el, o.inv_ip_el)[i], ap(o.binv, 0.5 * d))
            alphas += [ap((o.inv_ip_em, o.inv_im_em)[i], ap(o.minv, pt)
                          - ap(plus(eye, o.e_cl), ap(o.l, ap(o.minv, a_l)))), a_l]
            continue
        for x, y_inv, e, half in ((o.l, o.minv, o.e_cl, 0.5), (o.m, o.linv, o.e_cm, -0.5)):
            if bc == 3:  # X multiplies the data term
                r = ap(x, ap(plus(eye, e), d)) - 2 * ap(minus(eye, e), pt)
            else:  # X multiplies the slope term
                r = 2 * ap(minus(eye, e), ap(x, ap(y_inv, pt))) - ap(plus(eye, e), ap(y_inv, d))
            alphas.append(half * ap(o.binv, ap(o.l + o.m, ap(w[i], r))))
    return tuple(alphas)


@dataclass(frozen=True)
class ResolventMap:
    """The family's solve on one frame and grid (module docstring)."""

    frame: BCFrame
    grid: Grid
    family: int

    def solve_modes(self, fv: np.ndarray) -> np.ndarray:
        """(N, n, r) data in the frame's coordinates, zero boundary data."""
        return _solve_family(self.frame, self.grid, fv, _zero_phi(self.frame.n), self.family)

    def apply(self, v: np.ndarray, phi=None) -> np.ndarray:
        """(N, n, r) data and boundary data ``phi`` (as ``_frame_phi`` takes
        it) in X's coordinates.  Real data and no phi on a ``conjugate``
        frame, family 2 excepted, have a real solution from one factor."""
        frame, bc = self.frame, self.family
        fv = frame.to_modes(v)
        if phi is None and bc != 2 and frame.conjugate and not np.any(v.imag):
            return _solve_family(frame, self.grid, fv, _zero_phi(frame.n), bc, True) + 0j
        u = _solve_family(frame, self.grid, fv, _frame_phi(frame, phi, bc), bc)
        return frame.from_modes(u)

    def apply_field(self, f: GridFunction, phi=None) -> GridFunction:
        """``apply`` to the (dim, N) samples of f as one right-hand side."""
        u = self.apply(np.ascontiguousarray(f.values.T)[:, :, None], phi)
        return GridFunction(f.grid, u[:, :, 0].T)

    def adjoint(self) -> ResolventMap:
        """The same family's map on ``frame.adjoint()``, built after the
        forward grid kit, from which the adjoint derives its own."""
        self.frame.grid_kit(self.grid)
        return ResolventMap(self.frame.adjoint(), self.grid, self.family)


def solve_bc1(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Value / second-derivative conditions at both endpoints."""
    return ResolventMap(frame, f.grid, 1).apply_field(f, phi)


def solve_bc2(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Derivative / (u'' + P u) conditions at both endpoints."""
    return ResolventMap(frame, f.grid, 2).apply_field(f, phi)


def solve_bc3(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Value / derivative (clamped-type) conditions at both endpoints."""
    return ResolventMap(frame, f.grid, 3).apply_field(f, phi)


def solve_bc4(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Derivative / second-derivative conditions at both endpoints."""
    return ResolventMap(frame, f.grid, 4).apply_field(f, phi)


def solve_bc5(frame: BCFrame, f: GridFunction, phi=None) -> GridFunction:
    """Value / (u'' + P u) conditions; reduces to the first family."""
    return ResolventMap(frame, f.grid, 5).apply_field(f, phi)


_SOLVERS = {1: solve_bc1, 2: solve_bc2, 3: solve_bc3, 4: solve_bc4, 5: solve_bc5}


def _shifted(T: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The blocks T + s I for each shift s in turn: (len(shifts) R, b, b)."""
    out = np.tile(T, (len(shifts), 1, 1))
    d = np.arange(T.shape[-1])
    out[:, d, d] += np.repeat(shifts, len(T))[:, None]
    return out


def _refused_row(exc, lams) -> int:
    """The batch row a frame refusal ``exc`` names: a BranchCut's ``lam``
    (the shifts are computed in node order), else the ``row`` that the guard
    recorded on ``exc`` or on the refusal it wraps."""
    if isinstance(exc, BranchCut):
        return int(np.argmax(lams == exc.lam))
    return exc.row if hasattr(exc, "row") else exc.__cause__.row


def _lambda_frames(spec: ProblemSpec, lams) -> BCFrame:
    """One frame for the shifted equation at each parameter of ``lams``.

    The factors are P = A - k/2 + i s, Q = A - k/2 - i s and B = 2 i s with
    s = sqrt(-lam - k^2/4), except lam = 0 with k != 0, which uses the direct
    factorization (A, A - k I) instead of the branch-cut parameterization.
    This is the package's one frame assembler.  The factors are A's blocks
    (``OperatorHandle.block_form``) shifted per parameter, so no factor passes
    through ``make_operator`` or ``eig``, and K parameters make one batch
    frame.

    A batch refuses exactly when one of its parameters would: it raises the
    exception of the first refused parameter in node order, BranchCut for a
    parameter on the cut, and NotInResolventSet (carrying ``lam``) for a
    frame that cannot be assembled.  A refused batch names that parameter
    from the row its guard refused (``_refused_row``): the parameters before
    it are assembled as one batch, which raises instead if one of them fails
    a later guard, and the refused parameter is then assembled alone, which
    raises its own exception.  That exception carries the batch frame of the
    parameters before it as ``prefix`` (None when it is the first), so a
    caller solves them without assembling them again.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    T, V, Vinv, kappa = spec.A.block_form
    try:
        shifts = np.array([_factor_shifts(spec.k, lam) for lam in lams])
        frame = assemble_frame(_shifted(T, shifts[:, 0]), _shifted(T, shifts[:, 1]),
                               _shifted(0.0 * T, shifts[:, 2]), spec.c,
                               spec.bc_family in DERIVATIVE_FAMILIES, basis=(V, Vinv, kappa))
    except (BranchCut, FrameSingular, SingularOrIllConditioned, SpectrumOnCut) as exc:
        if len(lams) > 1:  # the first refused parameter names the refusal
            row = _refused_row(exc, lams)
            prefix = _lambda_frames(spec, lams[:row]) if row else None
            try:
                _lambda_frames(spec, lams[row])
            except (BranchCut, NotInResolventSet) as single:
                single.prefix = prefix
                raise
        if isinstance(exc, BranchCut):
            raise
        raise NotInResolventSet(f"frame assembly failed at lambda={lams[0]}: {exc}",
                                lam=lams[0]) from exc
    frame.lam = lams if len(lams) > 1 else complex(lams[0])
    frame.real_a = not np.any(np.imag(spec.A.matrix))
    return frame


def _batch_size(spec: ProblemSpec, n_nodes: int) -> int:
    """Parameters of one batch frame on n_nodes grid nodes: each holds
    dim(A) b entries per node in its R blocks of b x b, and a batch holds at
    most ``tolerances.BATCH_ENTRIES`` (parameter x block entry x node)
    entries, or one parameter."""
    b = spec.A.block_form[0].shape[-1]
    return max(1, tol.BATCH_ENTRIES // (spec.A.dim * b * n_nodes))


# perfbench/make_reference.py builds its frames through this name
_lambda_frame = _lambda_frames


def resolvent_solve(spec: ProblemSpec, lam: complex, f: GridFunction) -> GridFunction:
    """u = (-G - lam I)^{-1} f for the fourth-order generator G of the family:
    the family solver on the parameter's frame, with zero boundary data."""
    return _SOLVERS[spec.bc_family](_lambda_frames(spec, lam), f)


def resolvent_blocks(spec: ProblemSpec, lam: complex, grid: Grid,
                     frame: BCFrame | None = None) -> np.ndarray:
    """Per-block resolvent blocks R_r of a frame, shape (R, N b, N b).

    A frame decouples its R blocks, so the family's solve of the unit tile
    (a unit delta at each node and block index, in every block at once; N b
    columns) gives them all: R_r[(x, i), (y, j)] is block r's component i at
    node x for a unit delta in its component j at node y, a discrete Green's
    kernel.  The tile never exists: its step contributions are the kit's node
    weights times the grid's step band (``kernels.convolve_units``), and the
    end constants, mode coefficients and assembly are every solve's own
    (``_solve_family``).  The resolvent on the grid is V diag(R_r) V^{-1}
    with V the frame's basis; for b = 1 the R_r are the (dim(A), N, N)
    per-mode blocks in A's eigenbasis.
    """
    if frame is None:
        frame = _lambda_frames(spec, lam)
    n, N, b = frame.n, grid.n, frame.block
    sol = _solve_family(frame, grid, None, _zero_phi(n), spec.bc_family)
    return sol.reshape(N, n // b, b, N * b).transpose(1, 0, 2, 3).reshape(n // b, N * b, N * b)


def resolvent_matrix(spec: ProblemSpec, lam: complex, grid: Grid,
                     frame: BCFrame | None = None) -> np.ndarray:
    """Materialize f -> resolvent_solve(f) as a dense matrix on the grid.

    Degrees of freedom are node-major blocks of dim(A) components; the
    matrix is V diag(R_r) V^{-1} assembled from ``resolvent_blocks``, whose
    solve takes the unit tile's step contributions from the grid's step band,
    not from N b delta columns.  The sweep takes the norm of this matrix
    unless A's eigenbasis is unitary, where the norm of the stack of per-mode
    blocks (``operators.operator_norm``) is the same number for a fraction of
    the work (``spectral.run_sweep``).
    """
    if frame is None:
        frame = _lambda_frames(spec, lam)
    (V, Vinv), n, N, b = frame.basis, spec.A.dim, grid.n, frame.block
    blocks = resolvent_blocks(spec, lam, grid, frame).reshape(n // b, N, b, N, b)
    return np.einsum("arj,rxjyk,rkc->xayc", V.reshape(n, n // b, b), blocks,
                     Vinv.reshape(n // b, b, n), optimize=True).reshape(N * n, N * n)


def boundary_residuals(grid: Grid, u: GridFunction, phi, bc: int,
                       p_mat: np.ndarray) -> dict:
    """Endpoint condition residuals measured from the samples alone.

    Derivatives come from the one-sided local stencils at the two end nodes,
    so the check is independent of the representation that produced u.
    """
    vals = u.values  # (n, N)
    idx, weights = grid.stencils
    res = {}
    for (name, end, kind), p in zip(bc_conditions(bc), phi):
        got = condition_value(
            kind, lambda order: vals[:, end] if order == 0
            else vals[:, idx[end]] @ weights[end, order - 1], lambda v: p_mat @ v)
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
