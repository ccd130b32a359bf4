"""Brute-force reference solvers used to validate every formula path.

The only thing shared with the representation-formula solvers is the table
of boundary conditions (``bvp.BC_FAMILIES``), which says which condition
each family imposes where; no solution formula or solver machinery is
shared.  The fourth-order problem is discretized by global Chebyshev
collocation with the operator rows downsampled to interior first-kind points
(rectangular collocation), boundary conditions appended as explicit rows, and
the system solved densely.  A scalar closed-form solver over the
characteristic exponential basis covers the X = C case with inhomogeneous
data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .bvp import bc_conditions, condition_value
from .errors import CapExceeded, DegenerateRoots, DimensionMismatch, SingularSystem
from .grids import Grid, GridFunction, cgl_grid, chebyshev_gauss_nodes
from .operators import OperatorHandle

__all__ = [
    "CollocationSystem",
    "collocation_solve",
    "DenseGenerator",
    "dense_generator",
    "low_spectrum",
    "characteristic_root_solve",
    "ScalarForcing",
    "cheb_diff_matrix",
    "ode_residual",
]


def cheb_diff_matrix(n: int, a: float, b: float) -> np.ndarray:
    """Global spectral differentiation matrix at ascending CGL nodes."""
    if n < 2:
        raise ValueError("need n >= 2")
    x = np.cos(np.pi * np.arange(n) / (n - 1))
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    X = np.tile(x, (n, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    flip = np.eye(n)[::-1]
    return flip @ D @ flip * (2.0 / (b - a))


def _downsample_matrix(n: int, a: float, b: float) -> np.ndarray:
    """Barycentric evaluation from n CGL nodes onto n-4 interior first-kind points."""
    xs = cgl_grid(n, a, b).nodes
    xt = chebyshev_gauss_nodes(n - 4, a, b)
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    E = np.zeros((n - 4, n))
    for i, t in enumerate(xt):
        q = w / (t - xs)
        E[i] = q / q.sum()
    return E


@dataclass
class CollocationSystem:
    """Square rectangular-collocation system for one boundary family.

    ``K`` applies u -> u'''' + C2 u'' + C0 u at all nodes; the first n-4 rows
    of ``full(lam)`` are K - lam downsampled to interior points and the last
    four are the boundary-condition block rows.
    """

    grid: Grid
    dim: int
    K: np.ndarray
    E: np.ndarray          # downsample, (n-4)*dim x n*dim
    R: np.ndarray          # boundary rows, 4*dim x n*dim
    bidx: np.ndarray       # boundary-eliminated dof indices
    iidx: np.ndarray       # retained dof indices

    def full(self, lam: complex) -> np.ndarray:
        shifted = self.K - lam * np.eye(self.K.shape[0])
        return np.vstack([self.E @ shifted, self.R])

    def rhs(self, f_values: np.ndarray) -> np.ndarray:
        fvec = np.asarray(f_values, dtype=complex).T.reshape(-1)
        out = np.zeros(self.E.shape[0] + self.R.shape[0], dtype=complex)
        out[: self.E.shape[0]] = self.E @ fvec
        return out


def _build_system(
    n_nodes: int,
    a: float,
    b: float,
    coeff2: np.ndarray,
    coeff0: np.ndarray,
    bc_family: int,
    bc_second_op: np.ndarray,
) -> CollocationSystem:
    dim = coeff2.shape[0]
    grid = cgl_grid(n_nodes, a, b)
    D1 = cheb_diff_matrix(n_nodes, a, b)
    D2 = D1 @ D1
    D4 = D2 @ D2
    Idim = np.eye(dim)
    In = np.eye(n_nodes)
    K = np.kron(D4, Idim) + np.kron(D2, coeff2) + np.kron(In, coeff0)
    E = np.kron(_downsample_matrix(n_nodes, a, b), Idim)

    derivs = (In, D1, D2)
    rows = [
        condition_value(kind, lambda order: np.kron(derivs[order][end][None, :], Idim),
                        lambda r: bc_second_op @ r)
        for _, end, kind in bc_conditions(bc_family)
    ]
    R = np.vstack(rows)

    node_b = np.array([0, 1, n_nodes - 2, n_nodes - 1])
    bidx = (node_b[:, None] * dim + np.arange(dim)[None, :]).reshape(-1)
    iidx = np.setdiff1d(np.arange(n_nodes * dim), bidx)
    return CollocationSystem(grid, dim, K, E, R, bidx, iidx)


def _coeffs_from_A(A: OperatorHandle, k: float):
    Am = np.asarray(A.matrix)
    coeff2 = 2 * Am - k * np.eye(A.dim)
    coeff0 = Am @ Am - k * Am
    return coeff2, coeff0


def _frame_bc2_operator(A: OperatorHandle, k: float, lam: complex) -> np.ndarray:
    """The second-order boundary operator the formula path imposes at lam."""
    if lam == 0 and k != 0:
        shift = k if k > 0 else 0.0
        return np.asarray(A.matrix) - shift * np.eye(A.dim)
    s = np.sqrt(-complex(lam) - k * k / 4.0)
    return np.asarray(A.matrix) - (k / 2.0) * np.eye(A.dim) + 1j * s * np.eye(A.dim)


def collocation_solve(spec, lam: complex, f: GridFunction) -> GridFunction:
    """Direct dense solve of the shifted fourth-order problem, homogeneous BCs.

    The boundary operator S of the u'' + S u conditions (families 2 and 5)
    is the representation formulas' factor P(lam) (``_frame_bc2_operator``).
    """
    if f.grid.kind != "cgl":
        raise DimensionMismatch("collocation oracle needs a CGL grid")
    coeff2, coeff0 = _coeffs_from_A(spec.A, spec.k)
    sys_ = _build_system(f.grid.n, f.grid.a, f.grid.b, coeff2, coeff0,
                         spec.bc_family, _frame_bc2_operator(spec.A, spec.k, lam))
    M = sys_.full(lam)
    # the raw system is badly row-scaled (fourth-derivative rows); row
    # equilibration keeps the singularity test and the solve meaningful
    dr = 1.0 / np.maximum(np.max(np.abs(M), axis=1), 1e-300)
    Ms = dr[:, None] * M
    cond = np.linalg.cond(Ms)
    if not np.isfinite(cond) or cond > tol.CONDITION_CAP:
        raise SingularSystem(
            f"collocation system condition {cond:.3e} at lambda={lam}"
        )
    rhs = dr * sys_.rhs(f.values)
    import scipy.linalg as sla

    lu = sla.lu_factor(Ms)
    u = sla.lu_solve(lu, rhs)
    u += sla.lu_solve(lu, rhs - Ms @ u)  # one refinement step
    return GridFunction(f.grid, u.reshape(f.grid.n, spec.A.dim).T)


@dataclass
class DenseGenerator:
    """Dense surrogate of the fourth-order generator on interior dofs.

    ``minus_generator`` is the matrix of -G (positive spectrum for the
    diagonal negative surrogates); ``embed_matrix`` maps interior dofs to
    all node values, and ``project_matrix`` maps forcing values to the
    reduced right-hand side that (-G - lam)^{-1} solves.  ``stiffness`` and
    ``mass`` form the pencil with -G = mass^{-1} stiffness, and ``E_rows``
    maps forcing values to its right-hand side; ``low_spectrum`` solves
    through that pencil.
    """

    grid: Grid
    dim: int
    minus_generator: np.ndarray
    embed_matrix: np.ndarray
    project_matrix: np.ndarray
    iidx: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray
    E_rows: np.ndarray

    @property
    def generator(self) -> np.ndarray:
        return -self.minus_generator

    def weights(self) -> np.ndarray:
        w = np.repeat(self.grid.weights, self.dim)
        return w[self.iidx]


def dense_generator(spec, n_nodes: int) -> DenseGenerator:
    """Matrix of the generator with boundary rows eliminated exactly.

    The boundary block solves the four condition rows for the dofs at the
    two extreme node pairs; the downsampled operator rows then close on the
    remaining dofs (a Schur complement against the mass of the embedding).
    The boundary operator S of the u'' + S u conditions (families 2 and 5)
    is A itself: the generator's own domain.
    """
    if n_nodes * spec.A.dim > tol.DENSE_CAP:
        raise CapExceeded(
            f"dense generator size {n_nodes * spec.A.dim} exceeds cap {tol.DENSE_CAP}"
        )
    coeff2, coeff0 = _coeffs_from_A(spec.A, spec.k)
    sys_ = _build_system(n_nodes, spec.a, spec.b, coeff2, coeff0, spec.bc_family,
                         np.asarray(spec.A.matrix))
    Rb = sys_.R[:, sys_.bidx]
    Ri = sys_.R[:, sys_.iidx]
    condb = np.linalg.cond(Rb)
    if not np.isfinite(condb) or condb > tol.CONDITION_CAP:
        raise SingularSystem("boundary rows are not solvable for the edge dofs")
    Sb = -np.linalg.solve(Rb, Ri)
    ndof = n_nodes * spec.A.dim
    T = np.zeros((ndof, len(sys_.iidx)), dtype=complex)
    T[sys_.iidx, np.arange(len(sys_.iidx))] = 1.0
    T[sys_.bidx] = Sb
    mass = sys_.E @ T
    stiff = sys_.E @ sys_.K @ T
    mass_inv = np.linalg.inv(mass)
    return DenseGenerator(
        grid=sys_.grid,
        dim=spec.A.dim,
        minus_generator=mass_inv @ stiff,
        embed_matrix=T,
        project_matrix=mass_inv @ sys_.E,
        iidx=sys_.iidx,
        stiffness=stiff,
        mass=mass,
        E_rows=sys_.E,
    )


def low_spectrum(gen: DenseGenerator, count: int = 5, shift: float = -1.0) -> np.ndarray:
    """Accurate smallest eigenvalues of -G via the shift-inverted pencil.

    Inverting (stiffness - shift * mass) turns the smooth low modes into the
    dominant, well-conditioned eigenvalues, dodging the round-off floor set
    by the fourth-derivative scale of the raw generator matrix.
    """
    W = np.linalg.solve(gen.stiffness - shift * gen.mass, gen.mass)
    nu = np.linalg.eigvals(W)
    nu = nu[np.abs(nu) > 1e-300]
    mu = shift + 1.0 / nu
    return np.sort(mu.real)[:count]


def _cgl_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients, along the last axis, of samples at ascending CGL nodes."""
    v = np.asarray(values, dtype=complex)[..., ::-1]
    n = v.shape[-1]
    # DCT-I through the FFT of the even extension
    c = np.fft.fft(np.concatenate([v, v[..., -2:0:-1]], axis=-1), axis=-1)[..., :n]
    c /= n - 1
    c[..., 0] /= 2
    c[..., -1] /= 2
    return c


def ode_residual(coeff2: np.ndarray, coeff0: np.ndarray, lam: complex,
                 u: GridFunction, f: GridFunction) -> float:
    """Relative residual of u'''' + C2 u'' + (C0 - lam) u = f in integrated form.

    u and f are read as their Chebyshev interpolants on a CGL grid.
    Integrating the equation four times gives
    w = u + I^2(C2 u) + I^4((C0 - lam) u - f), which is a cubic exactly when
    u solves the equation (the constants of integration only add a cubic).
    The result is the norm of w's Chebyshev coefficients of degree >= 4,
    relative to the largest such norm among the four terms of w.

    The strong form through the global D^4 loses about N^8 eps to round-off
    and scores the exact solution at 1e-1 for N = 256.  Integration is well
    conditioned (Olver & Townsend, SIAM Rev. 55, 2013), so the exact solution
    scores near eps at every N and the metric measures u, not the gate.
    Independent of how u was produced.  Raises DimensionMismatch unless u and
    f share one CGL grid.
    """
    if u.grid.kind != "cgl" or f.grid.kind != "cgl" or u.grid.n != f.grid.n:
        raise DimensionMismatch(
            f"interior residual needs u and f on one CGL grid, got {u.grid.kind} "
            f"({u.grid.n} nodes) and {f.grid.kind} ({f.grid.n} nodes)")
    from numpy.polynomial.chebyshev import chebint

    scl = (u.grid.b - u.grid.a) / 2.0
    cu = _cgl_coefficients(u.values)
    terms = [
        cu,
        chebint(np.asarray(coeff2) @ cu, m=2, scl=scl, axis=-1),
        chebint((np.asarray(coeff0) - lam * np.eye(u.dim)) @ cu, m=4, scl=scl, axis=-1),
        -chebint(_cgl_coefficients(f.values), m=4, scl=scl, axis=-1),
    ]
    width = u.grid.n + 4
    high = [np.pad(t, ((0, 0), (0, width - t.shape[-1])))[:, 4:] for t in terms]
    scale = max(max(np.linalg.norm(t) for t in high), 1e-300)
    return float(np.linalg.norm(sum(high)) / scale)


class ScalarForcing:
    """Analytic scalar forcing: polynomial plus exponential terms.

    f(x) = sum_j poly[j] x^j + sum_i amp_i e^{gamma_i x}.  Knowing f in closed
    form lets the oracle build exact particular solutions by undetermined
    coefficients.
    """

    def __init__(self, poly=(), exps=()):
        self.poly = [complex(cj) for cj in poly]
        self.exps = [(complex(g), complex(amp)) for g, amp in exps]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=complex)
        for j, cj in enumerate(self.poly):
            out += cj * x**j
        for g, amp in self.exps:
            out = out + amp * np.exp(g * x)
        return out

    def sample(self, grid: Grid) -> GridFunction:
        return GridFunction(grid, self(grid.nodes)[None, :])


def characteristic_root_solve(
    p: complex,
    q: complex,
    a: float,
    b: float,
    bc_family: int,
    phi,
    forcing: ScalarForcing,
):
    """Closed-form scalar solve of u'''' + (p+q) u'' + p q u = f.

    Works over the four characteristic exponentials (scaled to decay from
    each endpoint) plus an exact particular solution; returns a sampler
    callable.  A shifted problem is solved by passing the shifted factor
    pair.  Raises DegenerateRoots when the characteristic roots collide.
    """
    p_eff, q_eff = complex(p), complex(q)
    if abs(p_eff - q_eff) < 1e-12 * max(abs(p_eff), abs(q_eff), 1.0):
        raise DegenerateRoots("p == q gives repeated characteristic roots")
    if abs(p_eff) < 1e-300 or abs(q_eff) < 1e-300:
        raise DegenerateRoots("zero factor makes the characteristic roots repeat")
    m = -np.sqrt(-p_eff)
    l = -np.sqrt(-q_eff)
    c = b - a

    def chi(g):
        return g**4 + (p_eff + q_eff) * g**2 + p_eff * q_eff

    # particular solution: polynomial part by downward recurrence
    deg = len(forcing.poly) - 1
    dpoly = np.zeros(max(deg + 1, 0), dtype=complex)
    pq = p_eff * q_eff
    ps = p_eff + q_eff
    for j in range(deg, -1, -1):
        val = forcing.poly[j]
        if j + 2 <= deg:
            val -= ps * (j + 2) * (j + 1) * dpoly[j + 2]
        if j + 4 <= deg:
            val -= (j + 4) * (j + 3) * (j + 2) * (j + 1) * dpoly[j + 4]
        dpoly[j] = val / pq
    exp_terms = []
    for g, amp in forcing.exps:
        den = chi(g)
        if abs(den) < 1e-10 * max(1.0, abs(g) ** 4):
            raise DegenerateRoots(f"forcing exponent {g} resonates with the roots")
        exp_terms.append((g, amp / den))

    def u_part(x, order=0):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=complex)
        for j, dj in enumerate(dpoly):
            if j - order >= 0:
                fac = 1.0
                for i in range(order):
                    fac *= j - i
                out += dj * fac * x ** (j - order)
        for g, amp in exp_terms:
            out = out + amp * g**order * np.exp(g * x)
        return out

    # basis functions and derivatives, scaled against overflow
    def basis(x, order=0):
        x = np.asarray(x, dtype=float)
        cols = [
            m**order * np.exp((x - a) * m),
            (-m) ** order * np.exp((b - x) * m),
            l**order * np.exp((x - a) * l),
            (-l) ** order * np.exp((b - x) * l),
        ]
        return np.stack(cols, axis=-1)

    A = np.zeros((4, 4), dtype=complex)
    rhs = np.zeros(4, dtype=complex)
    for i, ((_, end, kind), ph) in enumerate(zip(bc_conditions(bc_family), phi)):
        x0 = (a, b)[end]
        A[i] = condition_value(kind, lambda order: basis(x0, order), lambda v: p_eff * v)
        rhs[i] = complex(ph) - condition_value(kind, lambda order: u_part(x0, order),
                                               lambda v: p_eff * v)
    condA = np.linalg.cond(A)
    if not np.isfinite(condA) or condA > tol.CONDITION_CAP:
        raise SingularSystem(f"scalar boundary system condition {condA:.3e}")
    coeff = np.linalg.solve(A, rhs)

    def sampler(x):
        return basis(x, 0) @ coeff + u_part(x, 0)

    return sampler
