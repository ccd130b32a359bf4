"""quartic benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; quartic is imported from ./src.  The run
writes the workload's seeded inputs under .perfbench_work/, then starts one
worker process after another (each one CLI invocation: interpreter start,
load_config, the sweep/evolve command, the output CSV) until --seconds have
passed, checking every invocation's CSV against the workload's reference.
BLAS is pinned to one thread and quartic runs with --threads 1.

--trace 0 reports the end-to-end metrics: medians over the invocations of
set-up and command time, rescaled to a reference host speed by a calibration
kernel timed in the same invocations, and of peak memory; and accuracy and
pass rate over all ops.  --trace 1 alternates untraced invocations with traced ones (layer
wrappers from layers.py) and reports the medians of the per-layer metrics
over the traced ones.  The last line of stdout is the JSON result; a summary
with sample counts and quartiles goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 165.0  # every run must end within 180 s
WORKER_SLACK_S = 40.0  # do not start an invocation this close to the limit
# Reported times are rescaled to a host on which worker.calibrate() takes this
# long.  The speed of a shared host drifts by tens of percent within minutes;
# the kernel, timed in every invocation, drifts with it and the ratio cancels.
CALIBRATION_REF_S = 0.25


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _worker_env(src: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("QUARTIC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_invocation(case, workdir: str, k: int, traced: bool, env: dict,
                   timeout: float) -> dict:
    """Start one worker, wait for it, check its output; returns one sample."""
    out_dir = os.path.join(workdir, f"out{k}")
    result_path = os.path.join(workdir, f"result{k}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), result_path,
            "1" if traced else "0", "--", case.command, "--config", case.config,
            "--out", out_dir, "--threads", "1"]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: invocation {k} gave no result: {exc}", file=sys.stderr)
        res = {"exit_code": None, "error": str(exc), "setup_done": None}
    else:
        if proc.returncode != 0 or res["error"]:
            print(f"perfbench: invocation {k} failed:\n{proc.stderr}{res['error'] or ''}",
                  file=sys.stderr)
    sc = check.score(case, check.parse(case, out_dir), res["exit_code"])
    shutil.rmtree(out_dir, ignore_errors=True)
    res["traced"] = traced
    res["score"] = sc
    if res["setup_done"] is not None:
        res["setup_s"] = res["setup_done"] - t0
    return res


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _summary(name: str, values, unit: str) -> str:
    values = sorted(v for v in values if v is not None)
    if len(values) < 2:
        return f"  {name}: {values} {unit}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"  {name}: median {q2:.6g} {unit}, quartiles [{q1:.6g}, {q3:.6g}], "
            f"min {values[0]:.6g}, max {values[-1]:.6g}, n = {len(values)}")


def measure(case, workdir: str, seconds: float, trace: bool, env: dict, t_start: float):
    """Invocations until `seconds` have passed and at least 3 (trace: 2 + 2) ran."""
    samples = []
    need = 4 if trace else 3
    while len(samples) < need or time.monotonic() - t_start < seconds:
        remaining = RUN_LIMIT_S - (time.monotonic() - t_start)
        if samples and remaining < WORKER_SLACK_S:
            break
        traced = trace and len(samples) % 2 == 1
        samples.append(run_invocation(case, workdir, len(samples), traced, env, remaining))
    return samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    t_start = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quartic", "cli.py")):
        print("perfbench: ./src/quartic not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    workdir = os.path.join(root, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        case = WORKLOADS[args.workload](args.seed, workdir)
        samples = measure(case, workdir, args.seconds, bool(args.trace),
                          _worker_env(src), t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s["score"].attempted for s in samples)
    failed = sum(s["score"].failed for s in samples)
    plain = [s for s in samples if not s["traced"]]
    print(f"perfbench {args.workload} seed {args.seed}: {len(samples)} invocations, "
          f"{attempted} ops, {failed} failed", file=sys.stderr)
    if args.trace:
        traced = [s for s in samples if s["traced"] and "layers" in s]
        values = {name: _median([s["layers"].get(name) for s in traced])
                  for name in units if name != "trace.overhead_frac"}
        wall_traced = _median([s.get("wall_s") for s in traced])
        wall_plain = _median([s.get("wall_s") for s in plain])
        values["trace.overhead_frac"] = (
            wall_traced / wall_plain - 1.0 if wall_traced and wall_plain else None)
        print(_summary("traced wall_s", [s.get("wall_s") for s in traced], "s"),
              file=sys.stderr)
        print(_summary("untraced wall_s", [s.get("wall_s") for s in plain], "s"),
              file=sys.stderr)
    else:
        max_err = max(s["score"].max_rel_err for s in samples)
        # the mean, not the median: a command lasting seconds averages over
        # the host's fast and slow spells, and so does the mean kernel time
        cal = [s["calibration_s"] for s in samples if s.get("calibration_s")]
        calibration = statistics.fmean(cal) if cal else None

        def at_reference_speed(name):
            raw = _median([s.get(name) for s in samples])
            return raw * CALIBRATION_REF_S / calibration if raw and calibration else None

        values = {
            "setup_s": at_reference_speed("setup_s"),
            "wall_s": at_reference_speed("wall_s"),
            "accuracy_digits": -math.log10(max(max_err, 1e-17)) if max_err < math.inf else 0.0,
            "pass_rate": 1.0 - failed / attempted,
            "peak_rss_mb": _median([s.get("peak_rss_mb") for s in samples]),
        }
        for name in ("setup_s", "wall_s", "calibration_s", "peak_rss_mb"):
            unit = "MB" if name == "peak_rss_mb" else "s (as measured)"
            print(_summary(name, [s.get(name) for s in samples], unit), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
