"""Spectral diagnostics that only the tests call: the branch-angle
inequality at one parameter, the factor-operator decay table and the sector
containment of the dense surrogate's spectrum."""

import numpy as np

from quartic.bvp import (
    ProblemSpec,
    _lambda_frames,
    _particular,
    _second_order,
    _stage_convolutions,
    _zero_phi,
)
from quartic.errors import BranchCut
from quartic.grids import GridFunction, cgl_grid
from quartic.oracle import dense_generator


def branch_angle_check(lam: complex, k: float, theta_a: float):
    """Angles of the two shifted factors and the parabolicity inequality.

    Returns (theta1, theta2, ok) where theta1/theta2 are the sector angles
    the two factor operators inherit at this parameter and ok records the
    strict inequality theta_a + |arg(+-i sqrt(-lam-k^2/4))| < pi.
    """
    w = -complex(lam) - k * k / 4.0
    if w == 0:
        raise BranchCut("angle check undefined at the vertex")
    arg = np.angle(w)
    half_plus = abs(arg + np.pi) / 2.0
    half_minus = abs(arg - np.pi) / 2.0
    theta1 = max(theta_a, half_plus)
    theta2 = max(theta_a, half_minus)
    ok = (theta_a + half_plus < np.pi) and (theta_a + half_minus < np.pi)
    return theta1, theta2, bool(ok)


def decay_diagnostics(spec: ProblemSpec, lam_samples) -> dict:
    """Factor-operator norm table over parameter samples.

    Tabulates ||M L^{-1}||, ||L M^{-1}||, the interval decay of the squared
    generators, and the particular-solution decay ratios; reports the fitted
    decay rate and boundedness/monotonicity findings.
    """
    rows = []
    c = spec.c
    grid = cgl_grid(48, spec.a, spec.b)
    rng = np.random.default_rng(3)
    fvals = rng.normal(size=(spec.A.dim, grid.n)) + 1j * rng.normal(size=(spec.A.dim, grid.n))
    f = GridFunction(grid, fvals)
    fnorm = f.norm()
    for lam in lam_samples:
        frame = _lambda_frames(spec, lam)
        dist = abs(lam + spec.k**2 / 4.0)
        ml = np.linalg.norm(frame.m @ np.linalg.inv(frame.l), 2)
        lm = np.linalg.norm(frame.l @ np.linalg.inv(frame.m), 2)
        m2e = np.linalg.norm(frame.m @ frame.m @ frame.e_cm, 2)
        l2e = np.linalg.norm(frame.l @ frame.l @ frame.e_cl, 2)
        ecm = np.linalg.norm(frame.e_cm, 2)
        fv = frame.to_modes(f.values.T[:, :, None])
        _, fpa, fpb = _particular(frame, grid, fv, _zero_phi(frame.n))
        # v0 = F'' + P F = W_Q, the l stage of the partial fraction
        zero = _zero_phi(frame.n)[0]
        kit = frame.grid_kit(grid)
        v0 = _second_order(frame, kit, "l", next(_stage_convolutions(kit, grid, fv, "l")),
                           zero, zero)[0]
        v0n = GridFunction(grid, frame.from_modes(v0)[:, :, 0].T).norm()
        fpn = float(np.linalg.norm(frame.from_modes(fpa)) + np.linalg.norm(frame.from_modes(fpb)))
        rows.append({
            "lam": lam, "dist": dist, "ml": ml, "lm": lm,
            "m2ecm": m2e, "l2ecl": l2e, "ecm": ecm,
            "v0_ratio": v0n / fnorm, "fp_ratio": fpn / fnorm,
        })
    rows.sort(key=lambda r: r["dist"])
    dists = np.array([r["dist"] for r in rows])
    m2 = np.array([max(r["m2ecm"], 1e-300) for r in rows])
    # fitted rate: ||M^2 e^{cM}|| <= K exp(-c w |lam - vertex|^{1/4})
    q = dists ** 0.25
    slope = np.polyfit(q, np.log(m2), 1)[0] if len(rows) >= 2 else 0.0
    omega_fit = max(-slope / c, 0.0)
    bounded = float(max(max(r["ml"], r["lm"]) for r in rows))
    ecm_vals = [r["ecm"] for r in rows]
    v0_vals = [r["v0_ratio"] for r in rows]
    return {
        "rows": rows,
        "ml_lm_bound": bounded,
        "omega_fit": float(omega_fit),
        "ecm_monotone_decreasing": all(
            ecm_vals[i + 1] <= ecm_vals[i] * (1 + 1e-8) for i in range(len(ecm_vals) - 1)
        ),
        "v0_monotone_decreasing": all(
            v0_vals[i + 1] <= v0_vals[i] * (1 + 1e-8) for i in range(len(v0_vals) - 1)
        ),
    }


def generator_sector_check(spec: ProblemSpec, n_nodes: int = 48) -> dict:
    """Eigenvalues of the dense surrogate shifted by the vertex.

    Reports the largest |arg| over the shifted spectrum and the largest
    relative imaginary part; the sector containment claim is that the former
    stays within 2*theta_a plus the probe margin.
    """
    gen = dense_generator(spec, n_nodes)
    evs = np.linalg.eigvals(gen.minus_generator) + spec.k**2 / 4.0
    mags = np.maximum(np.abs(evs), 1e-300)
    args = np.abs(np.angle(evs))
    rel_imag = np.abs(evs.imag) / np.maximum(1.0, mags)
    return {
        "eigenvalues": evs,
        "max_abs_arg": float(np.max(args)),
        "max_rel_imag": float(np.max(rel_imag)),
        "min_real": float(np.min(evs.real)),
    }
