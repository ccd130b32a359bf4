"""Reference checker for the CLI's sweep.csv and trajectory.csv outputs.

Both files carry 17 significant digits, so parsed doubles equal the
program's values.  An op is one lambda point (sweeps) or one output time or
step (evolutions).  An op fails when the command exited nonzero, when its row
is missing or malformed, or when its relative error against the reference is
above the workload's tolerance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Outputs:
    """Parsed output: one key (lambda or t) and one value per row."""

    keys: np.ndarray
    values: np.ndarray  # sweeps: norms (P,); evolutions: (T, dim, N)
    ok: np.ndarray  # per-row flag the program itself reports


@dataclass
class Score:
    attempted: int
    failed: int
    max_rel_err: float  # over all ops; inf when an op has no usable value


def parse_sweep(path: str) -> Outputs:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    return Outputs(rows[:, 0] + 1j * rows[:, 1], rows[:, 2], rows[:, 4] == 1)


def parse_trajectory(path: str) -> Outputs:
    with open(path, encoding="utf-8") as fh:
        manifest = dict(kv.split("=", 1) for kv in fh.readline().split()[2:])
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    dim, n = int(manifest["dim"]), int(manifest["n"])
    vals = (rows[:, 1::2] + 1j * rows[:, 2::2]).reshape(len(rows), dim, n)
    # the first row is the initial state, not an op
    return Outputs(rows[1:, 0], vals[1:], np.ones(len(rows) - 1, dtype=bool))


def parse(case, out_dir: str) -> Outputs | None:
    path = os.path.join(out_dir, case.output)
    try:
        return parse_sweep(path) if case.command == "sweep" else parse_trajectory(path)
    except (OSError, ValueError, KeyError, IndexError):
        return None


def _sweep_errors(case, out: Outputs) -> np.ndarray:
    if len(out.keys) != case.n_ops:
        return np.full(case.n_ops, np.inf)
    # each lambda must sit on one of the configured radii around the vertex 0
    rad = np.abs(out.keys)
    on_radius = np.min(np.abs(rad[:, None] / case.radii[None, :] - 1.0), axis=1) <= 1e-9
    ref = case.reference(out.keys)
    err = np.abs(out.values - ref) / np.abs(ref)
    return np.where(on_radius & out.ok & np.isfinite(err), err, np.inf)


def _trajectory_errors(case, out: Outputs) -> np.ndarray:
    if len(out.keys) != case.n_ops:
        return np.full(case.n_ops, np.inf)
    ref = case.reference(case.keys)
    if out.values.shape != ref.shape:
        return np.full(case.n_ops, np.inf)
    scale = np.max(np.abs(ref), axis=(1, 2))
    err = np.max(np.abs(out.values - ref), axis=(1, 2)) / scale
    on_time = np.abs(out.keys - case.keys) <= 1e-12 * max(case.keys[-1], 1.0)
    return np.where(on_time & np.isfinite(err), err, np.inf)


def score(case, out: Outputs | None, exit_code) -> Score:
    """Count failed ops; a nonzero exit or unreadable output fails every op."""
    if exit_code != 0 or out is None:
        return Score(case.n_ops, case.n_ops, np.inf)
    err = _sweep_errors(case, out) if case.command == "sweep" else _trajectory_errors(case, out)
    failed = int(np.sum(~(err <= case.tol)))
    return Score(case.n_ops, failed, float(np.max(err)))
