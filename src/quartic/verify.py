"""Seeded property suite aggregating the package's algebraic invariants.

Each check returns (name, max_residual, tolerance); the CLI prints one
machine-readable line per check and fails when any residual exceeds its
tolerance.  Tolerances can be scaled globally to probe gate behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bvp import (
    ProblemSpec,
    _lambda_frames,
    boundary_residuals,
    frame_identity_residual,
    particular_solution_F,
    resolvent_matrix,
    resolvent_product_residual,
    resolvent_solve,
    solve_bc1,
    solve_bc2,
    solve_bc3,
    solve_bc4,
    solve_bc5,
)
from .evolution import semigroup_apply_contour, variation_of_constants_check
from .grids import GridFunction, cgl_grid
from .operators import (
    expm_apply,
    guarded_inverse_I_minus,
    make_operator,
    operator_norm,
    resolvent_apply,
    sqrt_principal,
)
from .oracle import ScalarForcing, characteristic_root_solve, collocation_solve, dense_generator, low_spectrum
from .spectral import classify_lambda, classify_lambda_by_argument, make_sweep_grid, run_sweep

__all__ = ["CheckResult", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.tol)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} value={self.value:.3e} tol={self.tol:.1e}"


def _random_sectorial(rng, n):
    """Random diagonalizable matrix with spectrum in the open right half-plane."""
    lam = rng.uniform(0.5, 6.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    V = rng.normal(size=(n, n)) + 0.1j * rng.normal(size=(n, n))
    V += 3 * np.eye(n)
    return make_operator(V @ np.diag(lam) @ np.linalg.inv(V))


def _random_smooth_field(rng, grid, dim, modes: int = 6):
    """Random trigonometric combination, resolved on the grid."""
    x = grid.nodes
    span = grid.b - grid.a
    vals = np.zeros((dim, grid.n), dtype=complex)
    for m in range(1, modes + 1):
        cs = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        phase = m * np.pi * (x - grid.a) / span
        vals += cs[:, :1] * np.sin(phase) + cs[:, 1:] * np.cos(phase)
    return GridFunction(grid, vals)


def run_verification(seed: int = 1234, tol_scale: float = 1.0) -> tuple[list, float]:
    """Run the full invariant suite; returns (results, elapsed_seconds)."""
    rng = np.random.default_rng(seed)
    start = time.time()
    out: list[CheckResult] = []

    def add(name, value, tolerance):
        out.append(CheckResult(name, float(value), tolerance * tol_scale))

    # square root squares back on random sectorial operators
    worst = 0.0
    for _ in range(10):
        T = _random_sectorial(rng, 4)
        S = sqrt_principal(T)
        worst = max(worst, np.linalg.norm(S.matrix @ S.matrix - T.matrix)
                    / max(np.linalg.norm(T.matrix), 1.0))
    add("sqrt_squares_back", worst, 1e-10)

    # semigroup law for the dense exponential
    T = _random_sectorial(rng, 5)
    Tneg = make_operator(-T.matrix)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    lhs = expm_apply(Tneg, 0.8, v)
    rhs = expm_apply(Tneg, 0.5, expm_apply(Tneg, 0.3, v))
    add("semigroup_law_dense", np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30), 1e-10)

    # resolvent identity R(l1) - R(l2) = (l2 - l1) R(l1) R(l2)
    l1, l2 = 2.0 + 1.5j, -3.0 + 0.4j
    worst = 0.0
    for _ in range(5):
        T = _random_sectorial(rng, 4)
        r1 = resolvent_apply(T, l1, np.eye(4, dtype=complex))
        r2 = resolvent_apply(T, l2, np.eye(4, dtype=complex))
        res = np.linalg.norm(r1 - r2 - (l2 - l1) * (r1 @ r2)) / max(np.linalg.norm(r1), 1e-30)
        worst = max(worst, res)
    add("resolvent_identity", worst, 1e-10)

    # Neumann identity (I+V)^{-1} = I - V (I+V)^{-1}
    worst = 0.0
    for _ in range(5):
        Vm = rng.normal(size=(4, 4)) * 0.2
        H = make_operator(-Vm)
        inv = guarded_inverse_I_minus(H).matrix    # (I + V)^{-1}
        res = np.linalg.norm(inv - (np.eye(4) - Vm @ inv))
        worst = max(worst, res)
    add("neumann_identity", worst, 1e-10)

    # commutation transport for commuting (diagonal) pairs
    dv = rng.normal(size=4) * 0.4
    dt_ = rng.normal(size=4) + 1.5
    Vd, Td = np.diag(dv), np.diag(dt_)
    inv = np.linalg.inv(np.eye(4) + Vd)
    res = np.linalg.norm(Vd @ inv @ Td - Td @ (Vd @ inv))
    add("commutation_transport", res, 1e-12)

    # sector classification equivalence on random parameters
    k = 1.0
    theta = 0.3
    lam = rng.normal(size=10_000) * 50 + 1j * rng.normal(size=10_000) * 50
    bad = 0
    for z in lam:
        if classify_lambda(z, k, theta) != classify_lambda_by_argument(z, k, theta):
            bad += 1
    add("sector_classification_equivalence", float(bad), 0.0)

    # frame identities over sampled parameters
    A = make_operator(np.diag([-1.0, -4.0, -9.0]))
    worst_id = 0.0
    worst_resolv = 0.0
    for lam_s in (-3.0, -40.0, -2.0 + 9.0j, -800.0):
        frame = _lambda_frames(ProblemSpec(0.0, np.pi, k, A, 1), lam_s)
        worst_id = max(worst_id, frame_identity_residual(frame))
        for z in (1.0 + 2.0j, 15.0, -4.0 + 1.0j):
            worst_resolv = max(worst_resolv, resolvent_product_residual(frame, z))
    add("factor_difference_identity", worst_id, 1e-8)
    add("resolvent_product_identity", worst_resolv, 1e-8)

    # homogeneous particular solution boundary values
    grid = cgl_grid(64, 0.0, np.pi)
    f = _random_smooth_field(rng, grid, 3)
    frame = _lambda_frames(ProblemSpec(0.0, np.pi, 0.0, A, 1), -6.0)
    F = particular_solution_F(frame, f)
    res = boundary_residuals(grid, F, [np.zeros(3)] * 4, 1, frame.p)
    add("homogeneous_particular_boundary", max(res.values()) / max(f.norm(), 1e-30), 1e-8)

    # value/(u''+Pu) family reduces to the value/second-derivative family
    phi = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4)]
    u5 = solve_bc5(frame, f, phi)
    u1 = solve_bc1(frame, f, (phi[0], phi[1],
                              phi[2] - frame.p @ phi[0], phi[3] - frame.p @ phi[1]))
    add("family5_reduction", np.max(np.abs(u5.values - u1.values))
        / max(np.max(np.abs(u1.values)), 1e-30), 1e-12)

    # linearity of the solve in the forcing
    g = _random_smooth_field(rng, grid, 3)
    for bc, solver in ((2, solve_bc2), (3, solve_bc3), (4, solve_bc4)):
        ua = solver(frame, f)
        ub = solver(frame, g)
        uab = solver(frame, f + g)
        res = np.max(np.abs(uab.values - ua.values - ub.values))
        add(f"linearity_family{bc}", res / max(np.max(np.abs(uab.values)), 1e-30), 1e-10)

    # scalar oracle cross-check, one instance per family
    A1 = make_operator([[-1.0]])
    forcing = ScalarForcing(poly=[0.4, 0.2], exps=[(2j, 0.7), (-2j, 0.3)])
    gridp = cgl_grid(120, 0.0, np.pi)
    fsg = forcing.sample(gridp)
    framep = _lambda_frames(ProblemSpec(0.0, np.pi, 0.0, A1, 1), -9.0)
    p_s, q_s = complex(framep.p[0, 0]), complex(framep.q[0, 0])
    worst = 0.0
    for bc, solver in ((1, solve_bc1), (2, solve_bc2), (3, solve_bc3),
                       (4, solve_bc4), (5, solve_bc5)):
        phi_s = tuple(rng.normal() + 1j * rng.normal() for _ in range(4))
        u = solver(framep, fsg, [np.array([z]) for z in phi_s])
        ref = characteristic_root_solve(p_s, q_s, 0.0, np.pi, bc, phi_s, forcing)
        worst = max(worst, np.max(np.abs(u.values[0] - ref(gridp.nodes))))
    add("scalar_oracle_crosscheck", worst, 1e-6)

    # resolvent vs collocation for the matrix case
    spec3 = ProblemSpec(0.0, np.pi, 0.0, A, 1)
    grid64 = cgl_grid(64, 0.0, np.pi)
    f3 = _random_smooth_field(rng, grid64, 3)
    worst = 0.0
    for bc in (1, 3):
        s = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        u_f = resolvent_solve(s, -17.0, f3)
        u_c = collocation_solve(s, -17.0, f3)
        worst = max(worst, np.max(np.abs(u_f.values - u_c.values))
                    / max(np.max(np.abs(u_c.values)), 1e-30))
    add("collocation_crosscheck", worst, 1e-6)

    # variation of constants
    res = variation_of_constants_check([[-1.0]], [[-2.0]], [[-1.0]], [1.0],
                                       np.linspace(0.0, 1.0, 7))
    add("variation_of_constants_scalar", res, 1e-10)
    d1 = -np.array([1.0, 2.0, 3.0, 1.5, 2.5])
    d2 = d1 - np.array([0.5, 0.2, 0.9, 0.4, 0.1])
    res = variation_of_constants_check(np.diag(d1), np.diag(d2),
                                       np.diag(d2 - d1), rng.normal(size=5),
                                       np.linspace(0.0, 2.0, 5))
    add("variation_of_constants_modal", res, 1e-8)

    # contour semigroup vs dense exponential on a small instance
    spec1 = ProblemSpec(0.0, np.pi, 0.0, A1, 1)
    grid48 = cgl_grid(48, 0.0, np.pi)
    v0 = GridFunction(grid48, np.sin(grid48.nodes)[None, :].astype(complex))
    u_c = semigroup_apply_contour(spec1, 0.4, v0, n_points=24)
    exact = np.exp(-4 * 0.4) * v0.values
    add("contour_vs_exact_mode", np.max(np.abs(u_c.values - exact)), 1e-6)
    u_ab = semigroup_apply_contour(spec1, 0.7, v0, n_points=24)
    u_a = semigroup_apply_contour(spec1, 0.3, u_ab, n_points=24)
    u_full = semigroup_apply_contour(spec1, 1.0, v0, n_points=24)
    add("semigroup_law_contour", np.max(np.abs(u_a.values - u_full.values))
        / max(np.max(np.abs(u_full.values)), 1e-30), 1e-5)

    # dense generator anchor: lowest modes of the value/second-derivative family
    gen = dense_generator(spec1, 48)
    evs = low_spectrum(gen, 3)
    target = np.array([4.0, 25.0, 100.0])
    add("generator_low_modes", np.max(np.abs(evs - target) / target), 1e-6)

    # sweep norms of a unitary-basis A, mode by mode, against the weighted
    # SVD of the assembled resolvent
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    spec_u = ProblemSpec(0.0, np.pi, 0.0, make_operator((U * [-1.0, -4.0, -9.0]) @ U.conj().T), 1)
    sweep = make_sweep_grid(0.0, 0.0, radii=np.array([0.5, 5.0, 50.0]), n_angles=1,
                            angle_min=2.0)
    grid32 = cgl_grid(32, 0.0, np.pi)
    weights = np.repeat(grid32.weights, 3)
    gaps = []
    for rec in run_sweep(spec_u, sweep, n_nodes=32).records:
        full = operator_norm(resolvent_matrix(spec_u, rec.lam, grid32), weights)
        gaps.append(abs(rec.norm - full) / full)
    add("sweep_per_mode_norm", np.max(gaps), 1e-12)  # NaN propagates and fails

    return out, time.time() - start
