"""The four benchmark workloads: seeded inputs, references and tolerances.

Each workload writes a quartic config (plus any ``file:`` operator) from the
benchmark seed and returns a ``Case`` describing what the CLI must produce.
References are computed here, independently of the program, except for
sweep-power, whose dense-route reference is stored in
``reference/sweep_power_dense.json`` (see ``make_reference.py``).

The seed changes the inputs but not the amount of work: operators are drawn
in a seeded basis around a fixed spectrum and eigenvector conditioning, and
evolution data only changes amplitudes.  The run-to-run spread the benchmark
reports is then timing noise, not a change of problem size.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_POWER_REFERENCE = os.path.join(HERE, "reference", "sweep_power_dense.json")

# Seed of the base operator behind the stored sweep-power reference.
SWEEP_POWER_BASE_SEED = 2111


@dataclass
class Case:
    """One generated workload instance."""

    command: str  # quartic CLI subcommand
    config: str  # path of the generated config file
    output: str  # CSV file the command writes
    tol: float  # relative error above which an op fails
    n_ops: int  # lambda points, output times or steps
    # sweeps: reference(lams) -> norms; evolutions: reference(ts) -> (T, dim, N)
    reference: Callable
    keys: np.ndarray | None = None  # expected times (evolutions)
    radii: np.ndarray | None = None  # expected |lambda - vertex| (sweeps)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conditioned_basis(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Real basis with singular values geomspace(1, cond): cond(V) = cond."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(np.geomspace(1.0, cond, n)) @ q2


def _fmt(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def write_operator(path: str, matrix: np.ndarray) -> None:
    """quartic's operator text format: "dim n", then n rows of a+bi entries."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {matrix.shape[0]}\n")
        for row in matrix:
            fh.write(" ".join(_fmt(z) for z in row) + "\n")


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cgl_nodes(n: int) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto nodes on quartic's default interval (0, pi)."""
    return np.pi / 2 * (1 - np.cos(np.pi * np.arange(n) / (n - 1)))


def sweep_config(operator_file: str, bc_family: int, n_nodes: int, radii: np.ndarray,
                 n_angles: int, exclusion_radius: float = 0.0) -> str:
    """Sweep config on n_nodes CGL nodes; the CLI samples radii x angles."""
    return f"""\
[problem]
operator = file:{operator_file}
bc_family = {bc_family}
k = 0
[grid]
n_nodes = {n_nodes}
[sweep]
radius_min = {float(radii[0])!r}
radius_max = {float(radii[-1])!r}
n_radii = {len(radii)}
n_angles = {n_angles}
exclusion_radius = {float(exclusion_radius)!r}
n_nodes = {n_nodes}
"""


# ---------------------------------------------------------------------------
# sweep-dense: normal A, every lambda on the dense route


def sweep_dense(seed: int, workdir: str) -> Case:
    a = -np.arange(1, 5, dtype=float) ** 2
    u = _unitary(_rng(seed, 1), 4)
    write_operator(os.path.join(workdir, "a_normal.txt"), (u * a) @ u.conj().T)
    radii, n_angles = np.logspace(-1, 3, 4), 5
    cfg = _write(os.path.join(workdir, "sweep_dense.ini"),
                 sweep_config("a_normal.txt", 1, 48, radii, n_angles))
    # (d^2/dx^2 + A)^2 has eigenvalues (j^2 - a_i)^2 on sin(jx) x e_i; A is
    # normal, so ||R(lam)|| = 1 / distance(lam, spectrum)
    mu = (np.arange(1, 2001, dtype=float)[:, None] ** 2 - a[None, :]) ** 2

    def reference(lams):
        return np.array([1.0 / np.min(np.abs(mu - lam)) for lam in lams])

    return Case("sweep", cfg, "sweep.csv", 1e-3,
                len(radii) * n_angles, reference, radii=radii)


# ---------------------------------------------------------------------------
# sweep-power: non-normal A, nN above the dense cap, family 3

SWEEP_POWER_RADII = np.logspace(np.log10(0.6), np.log10(1.5), 3)


def sweep_power_base() -> np.ndarray:
    """Fixed non-normal operator: spectrum -1..-36, eigenvector condition 30."""
    v = _conditioned_basis(_rng(SWEEP_POWER_BASE_SEED, 2), 6, 30.0)
    return v @ np.diag(-np.arange(1, 7, dtype=float) ** 2) @ np.linalg.inv(v)


def sweep_power_config(operator_file: str) -> str:
    return sweep_config(operator_file, 3, 344, SWEEP_POWER_RADII, 1, exclusion_radius=0.5)


def load_sweep_power_reference() -> dict:
    with open(SWEEP_POWER_REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    stored = np.array(ref["base_operator_re"]) + 1j * np.array(ref["base_operator_im"])
    if ref["base_seed"] != SWEEP_POWER_BASE_SEED or not np.allclose(
            stored, sweep_power_base(), rtol=0, atol=1e-13):
        raise RuntimeError("stored sweep-power reference does not match the base "
                           "operator; regenerate it with make_reference.py")
    return ref


def sweep_power(seed: int, workdir: str) -> Case:
    # a unitary change of basis leaves every weighted resolvent norm unchanged,
    # so the stored reference of the base operator holds for every seed
    u = _unitary(_rng(seed, 3), 6)
    write_operator(os.path.join(workdir, "a_nonnormal.txt"),
                   u @ sweep_power_base() @ u.conj().T)
    cfg = _write(os.path.join(workdir, "sweep_power.ini"),
                 sweep_power_config("a_nonnormal.txt"))
    ref = load_sweep_power_reference()
    ref_lams = np.array(ref["lambda_re"]) + 1j * np.array(ref["lambda_im"])
    ref_norms = np.array(ref["norm"])

    def reference(lams):
        out = np.full(len(lams), np.nan)
        for i, lam in enumerate(lams):
            j = int(np.argmin(np.abs(ref_lams - lam)))
            if abs(ref_lams[j] - lam) <= 1e-9 * max(abs(lam), 1.0):
                out[i] = ref_norms[j]
        return out

    return Case("sweep", cfg, "sweep.csv", 1e-5, len(ref_lams),
                reference, radii=SWEEP_POWER_RADII)


# ---------------------------------------------------------------------------
# contour-evolve: hyperbola quadrature, one resolvent frame per node


def contour_evolve(seed: int, workdir: str) -> Case:
    rng = _rng(seed, 4)
    amp = rng.uniform(0.5, 2.0)
    weights = rng.uniform(0.5, 1.5, size=3)
    t_final, dt = 0.1, 0.05
    cfg = _write(os.path.join(workdir, "contour_evolve.ini"), f"""\
[problem]
operator = laplacian:3
bc_family = 1
[grid]
n_nodes = 64
[forcing]
type = sines
coefficients = {float(amp)!r}
component_weights = {",".join(repr(float(w)) for w in weights)}
[evolve]
scheme = CONTOUR
t_final = {t_final!r}
dt = {dt!r}
v0 = sine:1
contour_points = 32
""")
    rho = (1.0 + np.arange(1, 4, dtype=float) ** 2) ** 2  # (1 - a_i)^2, a_i = -i^2
    f = amp * weights
    prof = np.sin(_cgl_nodes(64))
    n_out = int(round(t_final / dt))

    def reference(ts):
        e = np.exp(-np.outer(ts, rho))  # (T, 3)
        amps = e + (1.0 - e) * (f / rho)[None, :]
        return amps[:, :, None] * prof[None, None, :]

    times = np.linspace(0.0, t_final, n_out + 1)[1:]
    return Case("evolve", cfg, "trajectory.csv", 1e-8, n_out,
                reference, keys=times)


# ---------------------------------------------------------------------------
# implicit-steps: one frame, many single-column solves, a large trajectory


def implicit_steps(seed: int, workdir: str) -> Case:
    n, steps, dt = 12, 100, 0.005
    a = -np.linspace(1.0, 12.0, n)
    v = _conditioned_basis(_rng(seed, 5), n, 24.0)
    vinv = np.linalg.inv(v)
    write_operator(os.path.join(workdir, "a_steps.txt"), v @ np.diag(a) @ vinv)
    cfg = _write(os.path.join(workdir, "implicit_steps.ini"), f"""\
[problem]
operator = file:a_steps.txt
bc_family = 1
[grid]
n_nodes = 128
[evolve]
scheme = IMPLICIT_EULER
t_final = {steps * dt!r}
dt = {dt!r}
v0 = sine:1
""")
    rho = (1.0 - a) ** 2
    coef = vinv @ np.ones(n)
    prof = np.sin(_cgl_nodes(128))

    def reference(ts):
        k = np.rint(np.asarray(ts) / dt)
        # exact implicit-Euler amplification of the sin(x) mode
        amps = (v @ (coef[:, None] * (1.0 + rho[:, None] * dt) ** -k[None, :])).T
        return amps[:, :, None] * prof[None, None, :]

    return Case("evolve", cfg, "trajectory.csv", 1e-8, steps,
                reference, keys=dt * np.arange(1, steps + 1))


WORKLOADS = {
    "sweep-dense": sweep_dense,
    "sweep-power": sweep_power,
    "contour-evolve": contour_evolve,
    "implicit-steps": implicit_steps,
}
