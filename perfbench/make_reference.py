"""Regenerate reference/sweep_power_dense.json (about a minute, one thread).

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root; scratch files go under .perfbench_work/.

Computes the sweep-power resolvent norms on the dense route, which the CLI
does not take at this size (dim(A) * N = 2064 > DENSE_CAP): the resolvent
matrix is assembled column block by column block through the family solver
that ``quartic.bvp.resolvent_matrix`` uses, and its weighted norm comes from
``quartic.operators.operator_norm``.  The operator is the unrotated base
operator of ``workloads.sweep_power_base()`` (seed ``SWEEP_POWER_BASE_SEED``);
the benchmark's seeded operators are unitary rotations of it, which leave
these norms unchanged.  The lambda points are the ones the CLI's own sweep
of that config visits.
"""

import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from quartic import bvp, cli  # noqa: E402
from quartic.config import load_config  # noqa: E402
from quartic.grids import cgl_grid  # noqa: E402
from quartic.operators import operator_norm  # noqa: E402

import check  # noqa: E402
from workloads import (SWEEP_POWER_BASE_SEED, SWEEP_POWER_REFERENCE,  # noqa: E402
                       sweep_power_base, sweep_power_config, write_operator)

COLUMNS_PER_BLOCK = 256  # bounds the (J, 6, n, r) kernel arrays to ~50 MB


def dense_norm(spec, lam, grid) -> float:
    frame = bvp._lambda_frame(spec, lam)
    n, N = spec.A.dim, grid.n
    eye = np.eye(n * N, dtype=complex).reshape(N, n, n * N)
    blocks = []
    for c0 in range(0, n * N, COLUMNS_PER_BLOCK):
        cols = eye[:, :, c0:c0 + COLUMNS_PER_BLOCK]
        sol = bvp._solve_family(frame, grid, cols, bvp._zero_phi(n), spec.bc_family)
        blocks.append(sol.reshape(N * n, -1))
    return operator_norm(np.hstack(blocks), np.repeat(grid.weights, n))


def main() -> int:
    base = sweep_power_base()
    os.makedirs(".perfbench_work", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench_work") as tmp:
        write_operator(os.path.join(tmp, "a_nonnormal.txt"), base)
        config = os.path.join(tmp, "sweep_power.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(sweep_power_config("a_nonnormal.txt"))
        cfg = load_config(config)
        if cli.main(["sweep", "--config", config, "--out", tmp, "--threads", "1"]) != 0:
            raise SystemExit("CLI sweep of the base operator failed")
        power = check.parse_sweep(os.path.join(tmp, "sweep.csv"))
    grid = cgl_grid(cfg.sweep["n_nodes"], cfg.problem.a, cfg.problem.b)
    norms = []
    for lam, pnorm in zip(power.keys, power.values):
        norms.append(dense_norm(cfg.problem, lam, grid))
        print(f"lambda {lam:.6g}: dense {norms[-1]!r}, power route rel. diff "
              f"{abs(pnorm - norms[-1]) / norms[-1]:.2e}", file=sys.stderr)
    ref = {
        "about": "sweep-power reference: weighted resolvent norms on the dense route "
                 "(family solver on all dim*N basis columns, then operator_norm)",
        "base_seed": SWEEP_POWER_BASE_SEED,
        "grid_nodes": grid.n,
        "base_operator_re": base.real.tolist(),
        "base_operator_im": base.imag.tolist(),
        "lambda_re": power.keys.real.tolist(),
        "lambda_im": power.keys.imag.tolist(),
        "norm": norms,
    }
    with open(SWEEP_POWER_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
