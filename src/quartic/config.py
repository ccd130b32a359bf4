"""Run configuration: flat key=value text with [sections].

The format is plain configparser INI; operators come from builtin
constructors ("laplacian:n", "diag:z1,z2,...") or matrix text files
("file:path").  Everything validates early and raises ConfigError so the
CLI can map problems to its config exit code.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .bvp import BC_FAMILIES, ProblemSpec
from .errors import ConfigError
from .grids import Grid, GridFunction, cgl_grid, uniform_grid
from .io import parse_complex, read_gridfunction_csv, read_operator_file
from .operators import OperatorHandle, dirichlet_laplacian_modes, make_operator

__all__ = ["RunConfig", "load_config"]

# Longest trajectory an [evolve] section may ask for, in dt steps.
MAX_TIME_STEPS = 10**6


def _parse_operator(spec_text: str, base_dir: str) -> OperatorHandle:
    kind, _, arg = spec_text.partition(":")
    kind = kind.strip().lower()
    if kind == "laplacian":
        try:
            count = int(arg)
        except ValueError as exc:
            raise ConfigError(f"bad laplacian mode count {arg!r}") from exc
        if count < 1:
            raise ConfigError(f"operator = {spec_text!r}: the laplacian mode count "
                              "must be at least 1")
        return dirichlet_laplacian_modes(count)
    if kind == "diag":
        try:
            entries = [parse_complex(p) for p in arg.split(",")]
        except ConfigError as exc:
            raise ConfigError(f"bad diag operator {arg!r}: {exc}") from exc
        return make_operator(np.diag(entries), label="diag")
    if kind == "file":
        path = os.path.join(base_dir, arg.strip())
        if not os.path.exists(path):
            raise ConfigError(f"operator file {path} does not exist")
        try:
            return make_operator(read_operator_file(path), label=os.path.basename(path))
        except Exception as exc:
            raise ConfigError(f"cannot read operator file {path}: {exc}") from exc
    raise ConfigError(f"unknown operator spec {spec_text!r}")


def _number(sec, key: str, default: str, kind=float, minimum=None):
    """One numeric field; junk, non-finite floats and values below
    ``minimum`` raise ConfigError."""
    text = sec.get(key, default)
    try:
        val = kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad {key} = {text!r}: {exc}") from exc
    if kind is float and not np.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {text!r}")
    return val


def _parse_vector(text: str, dim: int) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    vals = [parse_complex(p) for p in parts]
    if len(vals) == 1:
        return np.full(dim, vals[0], dtype=complex)
    if len(vals) != dim:
        raise ConfigError(f"vector {text!r} has {len(vals)} entries, wanted {dim}")
    return np.asarray(vals, dtype=complex)


def _forcing_profile(kind: str, arg: str, grid: Grid, a: float, b: float):
    x = grid.nodes
    if kind == "zero" or kind == "":
        return np.zeros(grid.n, dtype=complex)
    if kind == "poly":
        coeffs = [parse_complex(p) for p in arg.split(",")]
        out = np.zeros(grid.n, dtype=complex)
        for j, cj in enumerate(coeffs):
            out += cj * x**j
        return out
    if kind == "sines":
        amps = [parse_complex(p) for p in arg.split(",")]
        out = np.zeros(grid.n, dtype=complex)
        for m, am in enumerate(amps, start=1):
            out += am * np.sin(m * np.pi * (x - a) / (b - a))
        return out
    raise ConfigError(f"unknown forcing type {kind!r}")


@dataclass
class RunConfig:
    """Parsed configuration for one CLI invocation."""

    path: str
    problem: ProblemSpec
    grid: Grid
    forcing: GridFunction
    phi: tuple
    lam: complex
    solve_tol: float
    sweep: dict = field(default_factory=dict)
    evolve: dict = field(default_factory=dict)
    output_dir: str = "."


def load_config(path: str, out_dir: str | None = None) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))

    if "problem" not in cp:
        raise ConfigError("config needs a [problem] section")
    prob = cp["problem"]
    a = _number(prob, "a", "0.0")
    b = _number(prob, "b", repr(np.pi))
    k = _number(prob, "k", "0.0")
    if not a < b:
        raise ConfigError(f"the interval needs a < b, got a = {a!r}, b = {b!r}")
    bc = _number(prob, "bc_family", "1", int)
    A = _parse_operator(prob.get("operator", "laplacian:1"), base_dir)
    if bc not in BC_FAMILIES:
        raise ConfigError(f"bc_family must be one of {tuple(BC_FAMILIES)}, got {bc}")

    gsec = cp["grid"] if "grid" in cp else {}
    n_nodes = _number(gsec, "n_nodes", "64", int, minimum=2)
    kind = str(gsec.get("kind", "cgl")).lower()
    if kind not in ("cgl", "uniform"):
        raise ConfigError(f"grid kind must be cgl or uniform, got {kind!r}")
    try:
        grid = (cgl_grid if kind == "cgl" else uniform_grid)(n_nodes, a, b)
    except ValueError as exc:
        raise ConfigError(f"no {kind} grid of n_nodes = {n_nodes} on the interval "
                          f"a = {a!r}, b = {b!r}: {exc}") from exc

    fsec = cp["forcing"] if "forcing" in cp else {}
    ftype = str(fsec.get("type", "zero")).lower()
    if ftype == "file":
        fpath = os.path.join(base_dir, fsec.get("path", ""))
        if not os.path.exists(fpath):
            raise ConfigError(f"forcing file {fpath} does not exist")
        forcing = read_gridfunction_csv(fpath)
        if forcing.dim != A.dim:
            raise ConfigError("forcing file dimension does not match operator")
        if forcing.grid.n != grid.n or not np.allclose(forcing.grid.nodes, grid.nodes):
            raise ConfigError(f"forcing file {fpath} has {forcing.grid.n} {forcing.grid.kind} "
                              f"nodes, not those of [grid] n_nodes = {grid.n}, kind = {kind}")
    else:
        profile = _forcing_profile(ftype, fsec.get("coefficients", ""), grid, a, b)
        weights = _parse_vector(fsec.get("component_weights", "1"), A.dim)
        forcing = GridFunction(grid, np.outer(weights, profile))

    ssec = cp["solve"] if "solve" in cp else {}
    lam = parse_complex(ssec.get("lambda", "-4")) if ssec.get("lambda") else complex(-4.0)
    phi = tuple(
        _parse_vector(ssec.get(f"phi{i}", "0"), A.dim) for i in range(1, 5)
    )
    solve_tol = _number(ssec, "tol_residual", "1e-6")
    if solve_tol <= 0:
        raise ConfigError("tol_residual must be positive")

    try:
        spec = ProblemSpec(a, b, k, A, bc)
    except ValueError as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc

    swsec = cp["sweep"] if "sweep" in cp else {}
    sweep = {
        "radius_min": _number(swsec, "radius_min", "1e-2"),
        "radius_max": _number(swsec, "radius_max", "1e4"),
        "n_radii": _number(swsec, "n_radii", "50", int, minimum=1),
        "n_angles": _number(swsec, "n_angles", "10", int, minimum=1),
        "exclusion_radius": _number(swsec, "exclusion_radius", "0.0"),
        "n_nodes": _number(swsec, "n_nodes", "40", int, minimum=2),
    }
    if sweep["radius_min"] <= 0 or sweep["radius_max"] <= sweep["radius_min"]:
        raise ConfigError("sweep radii must satisfy 0 < radius_min < radius_max")

    evsec = cp["evolve"] if "evolve" in cp else {}
    evolve = {
        "scheme": str(evsec.get("scheme", "CONTOUR")).upper(),
        "dt": _number(evsec, "dt", "0.05"),
        "t_final": _number(evsec, "t_final", "1.0"),
        "v0": str(evsec.get("v0", "sine:1")),
        "contour_points": _number(evsec, "contour_points", "32", int, minimum=2),
        "growth_probe": str(evsec.get("growth_probe", "false")).lower() == "true",
    }
    if evolve["dt"] <= 0 or evolve["t_final"] <= 0:
        raise ConfigError("evolve dt and t_final must be positive")
    if evolve["t_final"] / evolve["dt"] > MAX_TIME_STEPS:
        raise ConfigError(f"evolve t_final/dt exceeds {MAX_TIME_STEPS} steps")

    return RunConfig(
        path=path,
        problem=spec,
        grid=grid,
        forcing=forcing,
        phi=phi,
        lam=lam,
        solve_tol=solve_tol,
        sweep=sweep,
        evolve=evolve,
        output_dir=out_dir or ".",
    )


def build_v0(cfg: RunConfig) -> GridFunction:
    """Initial data for the evolution command."""
    spec_text = cfg.evolve["v0"]
    kind, _, arg = spec_text.partition(":")
    kind = kind.strip().lower()
    grid = cfg.grid
    dim = cfg.problem.A.dim
    if kind == "zero":
        return GridFunction.zeros(grid, dim)
    if kind == "sine":
        try:
            m = int(arg) if arg else 1
        except ValueError as exc:
            raise ConfigError(f"bad v0 mode in {spec_text!r}") from exc
        prof = np.sin(m * np.pi * (grid.nodes - grid.a) / (grid.b - grid.a))
        vals = np.tile(prof, (dim, 1)).astype(complex)
        return GridFunction(grid, vals)
    if kind == "file":
        fpath = os.path.join(os.path.dirname(os.path.abspath(cfg.path)), arg.strip())
        if not os.path.exists(fpath):
            raise ConfigError(f"v0 file {fpath} does not exist")
        return read_gridfunction_csv(fpath)
    raise ConfigError(f"unknown v0 spec {spec_text!r}")
