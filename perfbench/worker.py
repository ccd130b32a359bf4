"""One quartic CLI invocation in its own process, timed from inside.

    python3 worker.py RESULT_JSON TRACE -- <quartic CLI arguments>

Runs ``quartic.cli.main`` on the given arguments and writes RESULT_JSON with
the CLOCK_MONOTONIC instant at which ``load_config`` returned (the parent
turns it into set-up time from its own spawn instant), the command's wall
time after that instant, the exit code, the peak resident memory, and the
time of a fixed calibration kernel run after the command.  With
TRACE = 1 the layer wrappers of ``layers.py`` are installed first and the
per-layer metrics are added.  The CLI's own stdout is discarded.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def calibrate() -> float:
    """Seconds for a fixed mix of small complex factorizations and Python loops.

    quartic's commands spend their time in the same mix (per-lambda n x n
    eig/inv and Python-level bookkeeping), so this time tracks how fast the
    host runs them at the moment; it is timed right after the command.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(64, 6, 6)) + 0j
    t0 = time.perf_counter()
    for _ in range(2000):
        _, v = np.linalg.eig(a)
        np.linalg.inv(v)
        np.einsum("jik,jkl->jil", b, b)
    return time.perf_counter() - t0


def main() -> int:
    result_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[4:]
    from quartic import cli

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    stamps = {}
    load_config = cli.load_config

    def stamped_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        stamps["setup_done"] = time.monotonic()
        return cfg

    cli.load_config = stamped_load_config
    error = None
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:  # the parent fails every op of this invocation
            code, error = None, traceback.format_exc()
    done = time.monotonic()
    out = {
        "exit_code": code,
        "error": error,
        "setup_done": stamps.get("setup_done"),
        "wall_s": done - stamps["setup_done"] if "setup_done" in stamps else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": calibrate(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
