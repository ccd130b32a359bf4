"""Command-line front end: solve | sweep | evolve | verify.

Exit codes: 0 success; 1 failed verification property; 2 configuration
error; 3 singular frame during a solve; 4 residual tolerance breach, or a
sweep norm whose Lanczos iteration did not converge (the CSV is written);
5 sector-angle gate for time evolution.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

import numpy as np

from .bvp import DERIVATIVE_FAMILIES, boundary_residuals, _lambda_frames, _SOLVERS
from .config import RunConfig, build_v0, load_config
from .errors import (
    ConfigError,
    FrameSingular,
    NotInResolventSet,
    QuarticError,
    SectorAngleExceeded,
)
from .io import write_solution_csv, write_sweep_csv, write_trajectory_csv

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_FRAME_SINGULAR = 3
EXIT_TOLERANCE = 4
EXIT_ANGLE_GATE = 5


def cmd_solve(cfg: RunConfig, args) -> int:
    from .oracle import _coeffs_from_A, ode_residual

    spec = cfg.problem
    try:
        frame = _lambda_frames(spec, cfg.lam)
        u = _SOLVERS[spec.bc_family](frame, cfg.forcing, cfg.phi)
    except (NotInResolventSet, FrameSingular) as exc:
        print(f"frame singular: {exc}", file=sys.stderr)
        return EXIT_FRAME_SINGULAR
    res = boundary_residuals(cfg.grid, u, cfg.phi, spec.bc_family, frame.p)
    coeff2, coeff0 = _coeffs_from_A(spec.A, spec.k)
    res["interior_ode"] = ode_residual(coeff2, coeff0, cfg.lam, u, cfg.forcing)

    out = os.path.join(cfg.output_dir, "solution.csv")
    scale = max(cfg.forcing.norm(), max(float(np.linalg.norm(p)) for p in cfg.phi), 1e-30)
    rel = {name: val / scale if name != "interior_ode" else val
           for name, val in res.items()}
    write_solution_csv(out, u, rel)
    for name, val in rel.items():
        print(f"residual {name} = {val:.6e}")
    print(f"wrote {out}")
    if not all(val <= cfg.solve_tol for val in rel.values()):  # NaN fails too
        print(f"residuals exceed tolerance {cfg.solve_tol:g} or are not finite",
              file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    from .spectral import make_sweep_grid, run_sweep

    spec = cfg.problem
    sw = cfg.sweep
    radii = np.logspace(np.log10(sw["radius_min"]), np.log10(sw["radius_max"]),
                        sw["n_radii"])
    excl = sw["exclusion_radius"]
    if spec.bc_family in DERIVATIVE_FAMILIES and excl <= 0:
        excl = sw["radius_min"] / 2
    try:
        grid = make_sweep_grid(spec.k, spec.theta_a, radii=radii,
                               n_angles=sw["n_angles"], exclusion_radius=excl)
        report = run_sweep(spec, grid, n_nodes=sw["n_nodes"])
    except ValueError as exc:
        print(f"sweep setup failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = os.path.join(cfg.output_dir, "sweep.csv")
    write_sweep_csv(out, report)
    print(f"wrote {out}")
    summary = report.summary()
    for key, val in summary.items():
        print(f"{key} = {val}")
    if summary["unconverged"]:
        print(f"{summary['unconverged']} power-route norms did not converge in the "
              "iteration cap; their rows hold the last estimate", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, args) -> int:
    from .evolution import EvolutionSpec, evolve, growth_bound_probe

    spec = cfg.problem
    ev = cfg.evolve
    v0 = build_v0(cfg)
    fvals = cfg.forcing.values
    forcing = None
    if np.max(np.abs(fvals)) > 0:
        forcing = lambda t: fvals  # noqa: E731 - steady-in-time forcing
    try:
        espec = EvolutionSpec(
            problem=spec, t_final=ev["t_final"], v0=v0, forcing=forcing,
            scheme=ev["scheme"], dt=ev["dt"], contour_points=ev["contour_points"],
        )
        traj = evolve(espec)
    except SectorAngleExceeded as exc:
        print(f"angle gate: {exc}", file=sys.stderr)
        return EXIT_ANGLE_GATE
    except ValueError as exc:
        print(f"evolve setup failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = os.path.join(cfg.output_dir, "trajectory.csv")
    write_trajectory_csv(out, traj, v0.grid, ev["scheme"])
    print(f"wrote {out}")
    if ev["growth_probe"] and spec.bc_family not in DERIVATIVE_FAMILIES:
        t_grid = np.linspace(0.0, ev["t_final"], 9)
        m_fit, flag, _ = growth_bound_probe(spec, t_grid)
        print(f"growth_bound_M = {m_fit:.6g} (violation={flag})")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    from .verify import run_verification

    results, elapsed = run_verification(seed=args.seed, tol_scale=args.tol_scale)
    for r in results:
        print(r.line())
    n_fail = sum(0 if r.passed else 1 for r in results)
    print(f"# {len(results) - n_fail}/{len(results)} checks passed")
    print(f"verify finished in {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quartic",
        description="Fourth-order operator boundary-value solver and spectral explorer",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # each command with the module it runs (see ``main``)
    for name, fn, module in (("solve", cmd_solve, "oracle"), ("sweep", cmd_sweep, "spectral"),
                             ("evolve", cmd_evolve, "evolution"),
                             ("verify", cmd_verify, "verify")):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: every command runs its "
                            "lambda points serially")
        if name == "verify":  # the one command that reads them
            p.add_argument("--seed", type=int, default=1234)
            p.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale")
        p.set_defaults(fn=fn, module=module)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Only the command's own module is loaded, and before load_config, so the
    # import is part of the set-up; the command's import then finds it loaded.
    importlib.import_module(f".{args.module}", __package__)
    try:
        cfg = load_config(args.config, out_dir=args.out)
        os.makedirs(cfg.output_dir, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuarticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
