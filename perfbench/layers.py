"""Outside-in layer tracing: wrappers around quartic's functions and methods.

``install()`` replaces each traced function at every binding quartic's own
modules hold (``quartic.bvp.assemble_frame``, the names ``quartic.bvp``
imported from ``quartic.kernels``, the ``_SOLVERS`` table that ``cli`` and
``evolution`` call through, ...) and each traced method on its class.  Every
call becomes a span with its layer name, start, end and parent; a call into a
layer that is already open is folded into the open span.  Spans stay in
memory; ``metrics()`` turns them into the per-layer numbers once the command
has returned.  Names that a later version of quartic no longer has are
skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

SOLVE_FUNCTIONS = ("solve_bc1", "solve_bc2", "solve_bc3", "solve_bc4", "solve_bc5",
                   "resolvent_solve", "resolvent_matrix")

# layer -> (module, function name) pairs
FUNCTIONS = {
    "operators.make_operator": [("quartic.operators", "make_operator")],
    "operators.operator_norm": [("quartic.operators", "operator_norm")],
    "bvp.assemble_frame": [("quartic.bvp", "assemble_frame")],
    "bvp.solve": [("quartic.bvp", name) for name in SOLVE_FUNCTIONS],
    "kernels.convolve": [("quartic.kernels", "convolve_forward"),
                         ("quartic.kernels", "convolve_backward")],
    "kernels.hermite": [("quartic.kernels", "hermite_step_coefficients")],
    "grids.build": [("quartic.grids", "cgl_grid"), ("quartic.grids", "uniform_grid")],
    "config.load_config": [("quartic.config", "load_config")],
    "io.write": [("quartic.io", "write_sweep_csv"), ("quartic.io", "write_trajectory_csv")],
    "spectral.run_sweep": [("quartic.spectral", "run_sweep")],
    "evolution.evolve": [("quartic.evolution", "evolve")],
    "evolution.contour_pass": [("quartic.evolution", "_contour_sum")],
}

# layer -> (module, class, method)
METHODS = {
    "bvp.grid_kit": ("quartic.bvp", "BCFrame", "grid_kit"),
    "kernels.step_weights": ("quartic.kernels", "Propagator", "step_weights"),
    "grids.derivative_matrix": ("quartic.grids", "Grid", "derivative_matrix"),
}

_C16 = 16  # bytes per complex double


def _attrs(layer, fn_name, args, kwargs, result):
    """Per-span facts read from the arguments and the result."""
    if layer == "bvp.solve":
        if fn_name == "resolvent_matrix":
            spec, grid = args[0], args[2] if len(args) > 2 else kwargs["grid"]
            return {"fn": fn_name, "rhs_cols": spec.A.dim * grid.n}
        return {"fn": fn_name, "rhs_cols": 1}
    if layer == "bvp.assemble_frame":
        key = tuple(getattr(op, "matrix", op).tobytes() for op in args[:3]) + (args[3],)
        return {"key": key, "uv_refused": not result.uv_ok}
    if layer == "kernels.convolve":
        # contrib (J,6,n,n) x (J,6,n,r) plus the J steps of (n,n) @ (n,r)
        d, exp_steps, weights = args[2], args[3], args[4]
        J, six, n, r = d.shape
        flop = 8 * J * n * n * r * (six + 1)
        nbytes = _C16 * (weights.size + d.size + exp_steps.size + 2 * J * n * r
                         + (J + 1) * n * r)
        return {"flop": flop, "bytes": nbytes}
    if layer == "operators.operator_norm":
        m = args[0].shape[0]
        return {"flop": 32 * m ** 3 // 3}  # complex bidiagonalisation
    if layer == "io.write":
        return {"bytes": os.path.getsize(args[0])}
    if layer == "spectral.run_sweep":
        notes = [r.note if r.frame_ok else "failed" for r in result.records]
        return {"points": len(notes), "dense": notes.count("dense"),
                "power": notes.count("power"), "failed": notes.count("failed")}
    if layer == "evolution.evolve":
        stepping = args[0].scheme != "CONTOUR"
        return {"steps": len(result) - 1 if stepping else 0}
    if layer == "evolution.contour_pass":
        return {"t": args[1], "nodes": args[3]}
    return None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, attrs]
        self._stack = []
        self._open = defaultdict(int)
        self.refused_frames = 0

    def wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[layer]:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [layer, time.perf_counter(), None, parent, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            tracer._open[layer] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if layer == "bvp.assemble_frame" and "U or V" in str(exc):
                    tracer.refused_frames += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._open[layer] -= 1
                tracer._stack.pop()
            try:
                span[4] = _attrs(layer, fn.__name__, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # a changed signature loses this span's extra facts only
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "quartic" or name.startswith("quartic.")]
        solvers = getattr(sys.modules.get("quartic.bvp"), "_SOLVERS", {})
        for layer, targets in FUNCTIONS.items():
            for mod_name, fn_name in targets:
                original = getattr(sys.modules.get(mod_name), fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(layer, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                for key, val in list(solvers.items()):
                    if val is original:
                        solvers[key] = wrapper
        for layer, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth)))

    def metrics(self) -> dict:
        """Per-layer counts, inclusive seconds and self seconds."""
        calls = defaultdict(int)
        secs = defaultdict(float)
        child = defaultdict(float)
        for layer, t0, t1, parent, _ in self.spans:
            calls[layer] += 1
            secs[layer] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for i, (layer, t0, t1, _, _) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]

        def attrs(layer):
            return [s[4] for s in self.spans if s[0] == layer and s[4] is not None]

        frames = attrs("bvp.assemble_frame")
        seen = set()
        repeats = 0
        for a in frames:
            repeats += a["key"] in seen
            seen.add(a["key"])
        kit_spans = {i for i, s in enumerate(self.spans) if s[0] == "bvp.grid_kit"}
        kit_misses = {s[3] for s in self.spans
                      if s[0] == "kernels.step_weights" and s[3] in kit_spans}
        solves = attrs("bvp.solve")
        conv = attrs("kernels.convolve")
        sweeps = attrs("spectral.run_sweep")
        passes = attrs("evolution.contour_pass")
        last_pass = {}
        for p in passes:
            last_pass[p["t"]] = p["nodes"]
        nodes = sum(p["nodes"] for p in passes)

        def total(items, key):
            return sum(a[key] for a in items)

        return {
            "operators.make_operator.calls": calls["operators.make_operator"],
            "operators.make_operator.s": secs["operators.make_operator"],
            "operators.operator_norm.calls": calls["operators.operator_norm"],
            "operators.operator_norm.mflop_computed":
                total(attrs("operators.operator_norm"), "flop") / 1e6,
            "bvp.assemble_frame.calls": calls["bvp.assemble_frame"],
            "bvp.assemble_frame.s": secs["bvp.assemble_frame"],
            "bvp.assemble_frame.repeat_frac": repeats / len(frames) if frames else 0.0,
            "bvp.assemble_frame.uv_refusals":
                sum(a["uv_refused"] for a in frames) + self.refused_frames,
            "bvp.grid_kit.calls": calls["bvp.grid_kit"],
            "bvp.grid_kit.misses": len(kit_misses),
            "bvp.grid_kit.hit_frac":
                1.0 - len(kit_misses) / len(kit_spans) if kit_spans else 0.0,
            "bvp.grid_kit.s": secs["bvp.grid_kit"],
            "kernels.step_weights.calls": calls["kernels.step_weights"],
            "kernels.step_weights.s": secs["kernels.step_weights"],
            "bvp.solve.calls": calls["bvp.solve"],
            "bvp.solve.rhs_cols": total(solves, "rhs_cols"),
            "bvp.solve.s": secs["bvp.solve"],
            "bvp.solve.self_s": self_s["bvp.solve"],
            "kernels.convolve.calls": calls["kernels.convolve"],
            "kernels.convolve.s": secs["kernels.convolve"],
            "kernels.convolve.mflop_computed": total(conv, "flop") / 1e6,
            "kernels.convolve.mb_computed": total(conv, "bytes") / 1e6,
            "kernels.hermite.s": secs["kernels.hermite"],
            "grids.build.s": secs["grids.build"],
            "grids.derivative_matrix.calls": calls["grids.derivative_matrix"],
            "grids.derivative_matrix.s": secs["grids.derivative_matrix"],
            "spectral.points": total(sweeps, "points"),
            "spectral.dense_points": total(sweeps, "dense"),
            "spectral.power_points": total(sweeps, "power"),
            "spectral.failed_points": total(sweeps, "failed"),
            "spectral.power_solves":
                sum(1 for a in solves if a["fn"] == "resolvent_solve") if sweeps else 0,
            "evolution.contour_passes": len(passes),
            "evolution.contour_nodes": nodes,
            "evolution.node_yield": sum(last_pass.values()) / nodes if nodes else 0.0,
            "evolution.steps": total(attrs("evolution.evolve"), "steps"),
            "config.load_config.s": secs["config.load_config"],
            "io.write.s": secs["io.write"],
            "io.write.mb": total(attrs("io.write"), "bytes") / 1e6,
        }
