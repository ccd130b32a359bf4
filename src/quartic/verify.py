"""Seeded property suite over the package paths that produce answers.

Each check returns (name, max_residual, tolerance); the CLI prints one
machine-readable line per check and fails when any residual exceeds its
tolerance.  Tolerances can be scaled globally to probe gate behavior.  The
checks, with the path each one exercises:

- frame_sqrt_squares_back, frame_exp_semigroup_law, frame_guarded_inverses,
  frame_members_commute: the frame calculus (``bvp._Blocks``,
  ``kernels.Propagator``) on b = 1 and one-block frames from
  ``bvp._lambda_frames``, as ``BCFrame.parameter`` views of batch frames:
  m^2 = -P and l^2 = -Q (``BCFrame.diagnostics``), e^{0.8X} =
  e^{0.5X} e^{0.3X} for X = M, L (``Propagator.exp_stack``), each guarded
  inverse times I minus its argument, and [P, Q], [M, L], [Z, L],
  [e^{cM}, e^{cL}];
- bvp_resolvent_identity: R(l) - R(m) = (l - m) R(l) R(m) of
  ``bvp.resolvent_matrix`` for families 1, 3, 4 and 5;
- sector_classification_equivalence: ``spectral.classify_lambda`` against
  ``classify_lambda_by_argument``;
- factor_difference_identity, resolvent_product_identity:
  ``bvp.frame_identity_residual`` and ``resolvent_product_residual``;
- homogeneous_particular_boundary: ``bvp.particular_solution_F`` under
  ``bvp.boundary_residuals``;
- family5_reduction, linearity_family2..4: ``bvp.solve_bc1``-``solve_bc5``;
- scalar_oracle_crosscheck: every family against
  ``oracle.characteristic_root_solve``;
- collocation_crosscheck: ``bvp.resolvent_solve`` against
  ``oracle.collocation_solve``;
- contour_vs_exact_mode, semigroup_law_contour:
  ``evolution.semigroup_apply_contour``;
- forced_contour_steady/_ramp: ``evolution.evolve`` on the CONTOUR scheme
  with steady and linearly growing forcing (the forcing transform,
  ``_forced_payload``) against the Duhamel formula in closed form;
- generator_low_modes: ``oracle.dense_generator`` and ``low_spectrum``;
- sweep_per_mode_norm: ``spectral.run_sweep`` against
  ``operators.operator_norm`` of ``bvp.resolvent_matrix``.
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
from .evolution import EvolutionSpec, evolve, semigroup_apply_contour
from .grids import GridFunction, cgl_grid
from .operators import make_operator, operator_norm
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

    # the frame calculus on b = 1 frames (diagonal A) and one-block frames
    # (a Jordan block, in its Schur form), as views of one batch frame each
    A = make_operator(np.diag([-1.0, -4.0, -9.0]))
    jordan = make_operator(np.eye(4, k=1) - 2.0 * np.eye(4))
    lams = (-3.0, -2.0 + 9.0j, -40.0)
    frames = []
    for op in (A, jordan):
        batch = _lambda_frames(ProblemSpec(0.0, np.pi, 1.0, op, 1), lams)
        frames += [batch.parameter(i) for i in range(len(lams))]

    def gap(x, y):  # ||x - y|| relative to ||y||
        return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)

    add("frame_sqrt_squares_back",
        max(max(d["res_m_sq"], d["res_l_sq"]) for d in (f.diagnostics for f in frames)), 1e-10)

    worst = 0.0
    for f in frames:
        for prop in (f.prop_m, f.prop_l):
            e8, e5, e3 = prop.exp_stack(np.array([0.8, 0.5, 0.3]))
            worst = max(worst, gap(e5 @ e3, e8))
    add("frame_exp_semigroup_law", worst, 1e-10)

    # each guarded inverse X of (I - T), multiplied back: (I - T) X = I
    worst = 0.0
    for f in frames:
        o = f.ops
        (e2m,), (e2l,) = (prop.exp_stack(np.array([2.0 * f.c])) for prop in (f.prop_m, f.prop_l))
        for t, x in ((e2m, o.z), (e2l, o.w), (o.t_minus, o.uinv), (o.t_plus, o.vinv),
                     (o.e_cm, o.inv_im_em), (-o.e_cm, o.inv_ip_em),
                     (o.e_cl, o.inv_im_el), (-o.e_cl, o.inv_ip_el)):
            worst = max(worst, gap((o.eye - t) @ x, o.eye))
    add("frame_guarded_inverses", worst, 1e-10)

    worst = 0.0
    for f in frames:
        o = f.ops
        for x, y in ((o.p, o.q), (o.m, o.l), (o.z, o.l), (o.e_cm, o.e_cl)):
            worst = max(worst, np.linalg.norm(x @ y - y @ x)
                        / max(np.linalg.norm(x) * np.linalg.norm(y), 1e-300))
    add("frame_members_commute", worst, 1e-12)

    # resolvent identity R(l) - R(m) = (l - m) R(l) R(m) of the assembled
    # solves; family 2 is left out: its boundary operator moves with lambda
    grid64 = cgl_grid(64, 0.0, np.pi)
    l1, l2 = -3.0 + 2.0j, 5.0 - 1.0j
    worst = 0.0
    for bc in (1, 3, 4, 5):
        s = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        r1, r2 = resolvent_matrix(s, l1, grid64), resolvent_matrix(s, l2, grid64)
        worst = max(worst, np.linalg.norm(r1 - r2 - (l1 - l2) * (r1 @ r2), 2)
                    / np.linalg.norm(r1 - r2, 2))
    add("bvp_resolvent_identity", worst, 1e-9)

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
    f3 = _random_smooth_field(rng, grid64, 3)
    worst = 0.0
    for bc in (1, 3):
        s = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        u_f = resolvent_solve(s, -17.0, f3)
        u_c = collocation_solve(s, -17.0, f3)
        worst = max(worst, np.max(np.abs(u_f.values - u_c.values))
                    / max(np.max(np.abs(u_c.values)), 1e-30))
    add("collocation_crosscheck", worst, 1e-6)

    # contour semigroup vs dense exponential on a small instance
    spec1 = ProblemSpec(0.0, np.pi, 0.0, A1, 1)
    grid48 = cgl_grid(48, 0.0, np.pi)
    sine = np.sin(grid48.nodes)[None, :].astype(complex)
    v0 = GridFunction(grid48, sine)
    u_c = semigroup_apply_contour(spec1, 0.4, v0, n_points=24)
    exact = np.exp(-4 * 0.4) * v0.values
    add("contour_vs_exact_mode", np.max(np.abs(u_c.values - exact)), 1e-6)
    u_ab = semigroup_apply_contour(spec1, 0.7, v0, n_points=24)
    u_a = semigroup_apply_contour(spec1, 0.3, u_ab, n_points=24)
    u_full = semigroup_apply_contour(spec1, 1.0, v0, n_points=24)
    add("semigroup_law_contour", np.max(np.abs(u_a.values - u_full.values))
        / max(np.max(np.abs(u_full.values)), 1e-30), 1e-5)

    # the contour's forcing transform against the Duhamel formula: G sin x =
    # -4 sin x, so e^{-4t} v0 + int_0^t e^{-4(t-s)} f(s) ds in closed form,
    # for steady forcing and for a ramp, which reaches the slope terms
    for name, forcing, duhamel in (
            ("forced_contour_steady", lambda t: 0.7 * sine,
             lambda t: (1.0 - np.exp(-4.0 * t)) * 0.7 / 4.0),
            ("forced_contour_ramp", lambda t: 0.7 * t * sine,
             lambda t: 0.7 * (t / 4.0 - (1.0 - np.exp(-4.0 * t)) / 16.0))):
        traj = evolve(EvolutionSpec(spec1, 1.0, v0, forcing=forcing, dt=0.25,
                                    contour_points=24))
        add(name, max(np.max(np.abs(u.values - (np.exp(-4.0 * t) + duhamel(t)) * sine))
                      for t, u in traj[1:]), 1e-9)

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
