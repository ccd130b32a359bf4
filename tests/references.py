"""Reference functions that tests compare the package against.

No command runs these, so they live with the tests rather than in
``quartic``.  Several are independent references (the dense exponential,
the chi step integrals, the dense stencil matrices, the dense generator's
pencil solve); the others read back intermediate quantities of the formula
path (the particular solution's endpoint slopes, the family-2 mode
coefficients) or check initial data against the collocation rows.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from quartic import tolerances as tol
from quartic.bvp import (
    BCFrame,
    _data_derivatives,
    _frame_phi,
    _mode_coefficients,
    _particular,
    _zero_phi,
    bc_conditions,
)
from quartic.errors import CapExceeded, DimensionMismatch
from quartic.grids import GridFunction, stencil_bands
from quartic.kernels import _SERIES_TERMS, _real_product, convolve_nodes
from quartic.oracle import DenseGenerator, _build_system, _coeffs_from_A

# ---------------------------------------------------------------------------
# formula-path read-backs


def fprime_boundary(frame: BCFrame, f: GridFunction):
    """Endpoint first derivatives of the homogeneous particular solution.

    The partial fraction F = B^{-1} (W_Q - W_P) gives F' = B^{-1} (W_Q' - W_P').
    Each stage W_X (X = l for W_Q, m for W_P; zero end values) has the
    closed-form endpoint slopes of its own exponentials and full-interval
    kernel integrals I-(a) and I+(b), with g = (I - e^{2cX})^{-1} and
    e = e^{cX}; F itself is never differenced.
    """
    o, ap = frame.ops, frame.apply
    fv = frame.to_modes(f.values.T[:, :, None])
    kit = frame.grid_kit(f.grid)
    derivs = _data_derivatives(f.grid, fv)
    slopes = []
    for generator, g, e in (("l", o.w, o.e_cl), ("m", o.z, o.e_cm)):
        fwd, bwd = convolve_nodes(kit[generator], fv, *derivs)
        k_a, k_b = bwd[0], fwd[-1]
        gk_a, gk_b = ap(g, k_a), ap(g, k_b)
        e2gk_a, e2gk_b = (ap(e, ap(e, v)) for v in (gk_a, gk_b))
        slopes.append((-0.5 * (gk_a + e2gk_a) + ap(e, gk_b) - 0.5 * k_a,
                       -ap(e, gk_a) + 0.5 * (gk_b + e2gk_b) + 0.5 * k_b))
    (qa, qb), (pa, pb) = slopes
    fa, fb = ap(o.binv, qa - pa), ap(o.binv, qb - pb)
    return frame.from_modes(fa)[:, 0], frame.from_modes(fb)[:, 0]


def family2_coefficients(frame: BCFrame, f: GridFunction, phi=None):
    """The four mode coefficients of the derivative/(u''+Pu) solver.

    The returned vectors are exactly the coefficients multiplying the four
    exponential mode stacks in the assembled solution (the solver's own
    ``_mode_coefficients``), in X's coordinates.
    """
    fv = frame.to_modes(f.values.T[:, :, None])
    _, fpa, fpb = _particular(frame, f.grid, fv, _zero_phi(frame.n))
    alphas = _mode_coefficients(frame, fpa, fpb, _frame_phi(frame, phi, 2), 2)
    return tuple(frame.from_modes(a)[:, 0] for a in alphas)


def compatibility_check(espec):
    """Initial-data admissibility shadow: boundary rows plus finiteness.

    Checks that v0 satisfies the homogeneous condition rows of the family
    (discrete domain membership) and that f(0) + G v0 is finite.  The
    smoothness-scale refinement behind the sharp continuous condition
    collapses at finite dimension and is reported as non-discriminating.
    Returns (ok, violated row names, note).
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


# ---------------------------------------------------------------------------
# step integrals


def chi_stack(z: np.ndarray, mmax: int) -> np.ndarray:
    """chi_0..chi_mmax = int_0^1 e^{zs} s^m ds for complex array z, shape
    (mmax+1,) + z.shape.

    The upward recurrence chi_m = (e^z - m chi_{m-1})/z runs on the entries
    with |z| >= PHI_SERIES_RADIUS; inside the radius the series
    chi_m(z) = sum_i z^i / (i! (m+i+1)) comes from one power matrix times its
    coefficient table, as ``kernels.phi_stack`` does for phi.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < tol.PHI_SERIES_RADIUS
    chi = np.empty((mmax + 1,) + z.shape, dtype=complex)
    if not np.all(small):
        large = ~small
        zl, el = z[large], np.exp(z[large])
        term = (el - 1.0) / zl
        chi[0, large] = term
        for m in range(1, mmax + 1):
            term = (el - m * term) / zl
            chi[m, large] = term
    if np.any(small):
        zs = z[small]
        powers = np.empty((_SERIES_TERMS, zs.size), dtype=complex)
        powers[0] = 1.0
        for i in range(1, _SERIES_TERMS):
            np.multiply(powers[i - 1], zs, out=powers[i])
        i = np.arange(_SERIES_TERMS)[:, None]
        inv_fact = np.array([1.0 / factorial(j) for j in range(_SERIES_TERMS)])
        table = inv_fact[i] / (np.arange(mmax + 1) + i + 1)
        chi[:, small] = _real_product(table.T, powers)
    return chi


# ---------------------------------------------------------------------------
# dense references


def stencil_derivative_matrix(nodes: np.ndarray, order: int, width: int = 7) -> np.ndarray:
    """Dense N x N view of ``grids.stencil_bands`` for derivative order 1 or 2."""
    idx, weights = stencil_bands(nodes, width)
    D = np.zeros((len(idx), len(idx)))
    np.put_along_axis(D, idx, weights[:, order - 1], axis=1)
    return D


def dense_expm(G: np.ndarray, t: float, v0: np.ndarray) -> np.ndarray:
    """e^{tG} v0 by ``scipy.linalg.expm`` (scaling and squaring).

    Near machine precision only where the exponential is well conditioned:
    the forward error is the round-off times the condition number of e^{tG},
    which grows with the non-normality of G.  For the generator of an A with
    eigenvector condition 4.4e6 (family 1, N = 16) it is 100 % off; check
    such A against the eigenbasis exponential instead, as
    ``test_ill_conditioned_block_matches_eigen_exponential`` in
    test_evolution.py does.
    """
    G = np.asarray(G)
    if G.shape[0] > tol.DENSE_CAP:
        raise CapExceeded(f"dense expm size {G.shape[0]} exceeds cap")
    if v0.shape[0] != G.shape[0]:
        raise DimensionMismatch("v0 length does not match generator")
    if t == 0:
        return np.asarray(v0, dtype=complex).copy()
    import scipy.linalg as sla

    return sla.expm(t * G) @ v0


def embed(gen: DenseGenerator, u_inner: np.ndarray) -> np.ndarray:
    """All (dim, N) node values of the generator's interior dofs u_inner."""
    full = gen.embed_matrix @ u_inner
    return full.reshape(gen.grid.n, gen.dim).T


def project(gen: DenseGenerator, f_values: np.ndarray) -> np.ndarray:
    """The reduced right-hand side of a forcing field: (-G - lam)^{-1}
    project(f) solves the problem: mass^{-1} E_rows f."""
    fvec = np.asarray(f_values, dtype=complex).T.reshape(-1)
    return np.linalg.solve(gen.mass, gen.E_rows @ fvec)


def resolvent_apply(gen: DenseGenerator, lam: complex, f_values: np.ndarray) -> np.ndarray:
    """(-G - lam I)^{-1} project(f) through the equilibrated pencil solve.

    Mathematically identical to inverting the reduced generator; solving
    the stiffness/mass pencil with refinement keeps the agreement with
    the direct collocation solve at the round-off floor.
    """
    fvec = np.asarray(f_values, dtype=complex).T.reshape(-1)
    A = gen.stiffness - lam * gen.mass
    dr = 1.0 / np.maximum(np.max(np.abs(A), axis=1), 1e-300)
    import scipy.linalg as sla

    lu = sla.lu_factor(dr[:, None] * A)
    rhs = dr * (gen.E_rows @ fvec)
    u = sla.lu_solve(lu, rhs)
    u += sla.lu_solve(lu, rhs - (dr[:, None] * A) @ u)
    return u


# ---------------------------------------------------------------------------
# operator files


def format_complex(z: complex, prec: int = 17) -> str:
    """z as "a+bi" / "a-bi" with ``prec`` significant digits, which
    ``io.parse_complex`` reads back exactly at the default 17."""
    re_s = f"{z.real:+.{prec}g}".lstrip("+")
    sign = "+" if z.imag >= 0 or np.isnan(z.imag) else "-"
    return f"{re_s}{sign}{abs(z.imag):.{prec}g}i"


def write_operator_file(path, matrix: np.ndarray) -> None:
    """The operator file that ``io.read_operator_file`` reads: "dim n", then
    n rows of n entries."""
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("operator file needs a square matrix")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {A.shape[0]}\n")
        for row in A:
            fh.write(" ".join(format_complex(z) for z in row) + "\n")


# ---------------------------------------------------------------------------
# closed forms, families 1 and 5 on (0, pi)
#
# -G = d^4 + (2A - k) d^2 + A^2 - kA acts on sin(jx) c, for any n x n A, as
# the matrix (j^2 - A)(j^2 - A + k), and sin(jx) satisfies u = u'' = 0 at
# both ends, which is family 1 and, u'' + S u = 0 for every S, family 5 too.


def _sine_symbols(A: np.ndarray, lam: complex, js: np.ndarray, k: float = 0.0) -> np.ndarray:
    """(j^2 - A)(j^2 - A + k) - lam for each j in js: shape (len(js), n, n)."""
    A = np.asarray(A, dtype=complex)
    eye = np.eye(len(A))
    shifted = np.multiply.outer(np.asarray(js, float) ** 2, eye) - A
    return shifted @ (shifted + k * eye) - lam * eye


def sine_mode_resolvent(A: np.ndarray, lam: complex, j: int, c: np.ndarray,
                        k: float = 0.0) -> np.ndarray:
    """v with R(lam)(sin(jx) c) = sin(jx) v: v = ((j^2 - A)(j^2 - A + k) - lam)^{-1} c."""
    return np.linalg.solve(_sine_symbols(A, lam, [j], k)[0], np.asarray(c, dtype=complex))


def sine_resolvent_norm(A: np.ndarray, lam: complex, j_max: int = 400, k: float = 0.0) -> float:
    """||R(lam)|| on L^2((0, pi); C^n) = sup_j ||((j^2 - A)(j^2 - A + k) - lam)^{-1}||_2,
    since the sin(jx) are orthogonal and R(lam) maps each to itself.  The
    supremum is taken over j <= j_max: the terms fall like j^-4 once j^2
    passes ||A|| + |k| + sqrt|lam|, so it lies at small j."""
    inv = np.linalg.inv(_sine_symbols(A, lam, np.arange(1, j_max + 1), k))
    return float(np.max(np.linalg.norm(inv, 2, axis=(1, 2))))


def sine_semigroup_norm(A: np.ndarray, t: float, j_max: int = 50, k: float = 0.0) -> float:
    """||e^{tG}|| on L^2((0, pi); C^n) = sup_j ||e^{-t(j^2 - A)(j^2 - A + k)}||_2
    for a diagonalizable A = V diag(w) V^{-1}, each term
    V e^{-t(j^2 - w)(j^2 - w + k)} V^{-1}.  The eigenbasis keeps it accurate
    where A is far from normal: scaling and squaring of the symbol
    (``scipy.linalg.expm``) loses every digit on the eig_cond 4.4e6 A.  The
    terms fall once t times the symbol passes ln cond(V), so the supremum
    lies at small j."""
    w, V = np.linalg.eig(np.asarray(A, dtype=complex))
    s = np.arange(1, j_max + 1)[:, None] ** 2 - w  # (j_max, n)
    terms = (V * np.exp(-t * s * (s + k))[:, None, :]) @ np.linalg.inv(V)
    return float(np.max(np.linalg.norm(terms, 2, axis=(1, 2))))
