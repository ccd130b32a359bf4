"""Self-test of the reference checker on every workload.

    PYTHONPATH=src python3 perfbench/selftest.py [--seed N]

Run from the repository root.  For each workload it runs the CLI command once
and requires that (1) every op passes against the reference, (2) scaling one
op's output by (1 + 10 * tol) fails exactly that op, and (3) a nonzero exit
code fails every op.  Exits 1 if any of these does not hold.
"""

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from quartic import cli  # noqa: E402

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def selftest(name: str, seed: int, workdir: str) -> list:
    case = WORKLOADS[name](seed, workdir)
    out_dir = os.path.join(workdir, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([case.command, "--config", case.config, "--out", out_dir,
                         "--threads", "1"])
    problems = []
    at_reference = check.score(case, check.parse(case, out_dir), code)
    if at_reference.failed:
        problems.append(f"{at_reference.failed}/{at_reference.attempted} ops fail "
                        f"at the reference (max rel. error {at_reference.max_rel_err:.2e})")
    perturbed = check.parse(case, out_dir)
    perturbed.values[case.n_ops // 2] *= 1.0 + 10.0 * case.tol
    if check.score(case, perturbed, 0).failed != at_reference.failed + 1:
        problems.append("an output scaled by (1 + 10 tol) is not counted as failed")
    crashed = check.score(case, check.parse(case, out_dir), 1)
    if crashed.failed != crashed.attempted:
        problems.append("a nonzero exit does not fail every op")
    print(f"{name}: {at_reference.attempted} ops, max rel. error "
          f"{at_reference.max_rel_err:.2e} (tol {case.tol:g}): "
          f"{'; '.join(problems) or 'ok'}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(".perfbench_work", exist_ok=True)
    problems = []
    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(dir=".perfbench_work")
        try:
            problems += selftest(name, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
