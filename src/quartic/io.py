"""Text formats: operator files, grid-function CSVs, sweep and trajectory output.

Complex numbers are written as "a+bi" / "a-bi" with decimal or scientific
mantissas and parsed locale-independently; CSV values carry 17 significant
digits so doubles round-trip exactly.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .grids import Grid, GridFunction

__all__ = [
    "parse_complex",
    "format_complex",
    "read_operator_file",
    "write_operator_file",
    "write_solution_csv",
    "read_gridfunction_csv",
    "write_gridfunction_csv",
    "write_sweep_csv",
    "write_trajectory_csv",
]

_PREC = 17

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?\s*$"
)
_PURE_IMAG_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse "a+bi" / "a-bi" / "a" / "bi" forms; a part that overflows to
    infinity raises ConfigError."""
    m = _PURE_IMAG_RE.match(text)
    if m:
        re_part, im_part = 0.0, float(m.group(1))
    else:
        m = _COMPLEX_RE.match(text)
        if not m:
            raise ConfigError(f"cannot parse complex number {text!r}")
        re_part = float(m.group(1))
        im_part = float(m.group(2)) if m.group(2) is not None else 0.0
    if not (np.isfinite(re_part) and np.isfinite(im_part)):
        raise ConfigError(f"complex number {text!r} is not finite")
    return complex(re_part, im_part)


def format_complex(z: complex, prec: int = _PREC) -> str:
    re_s = f"{z.real:+.{prec}g}".lstrip("+")
    sign = "+" if z.imag >= 0 or np.isnan(z.imag) else "-"
    return f"{re_s}{sign}{abs(z.imag):.{prec}g}i"


def read_operator_file(path) -> np.ndarray:
    """Matrix text format: first line "dim n", then n rows of n entries."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim"):
        raise ConfigError(f"{path}: expected first line 'dim n'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed dim line {lines[0]!r}") from exc
    if len(lines) - 1 < n:
        raise ConfigError(f"{path}: expected {n} matrix rows, found {len(lines) - 1}")
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        parts = lines[1 + i].split()
        if len(parts) != n:
            raise ConfigError(f"{path}: row {i} has {len(parts)} entries, wanted {n}")
        out[i] = [parse_complex(p) for p in parts]
    return out


def write_operator_file(path, matrix: np.ndarray) -> None:
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("operator file needs a square matrix")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {A.shape[0]}\n")
        for row in A:
            fh.write(" ".join(format_complex(z) for z in row) + "\n")


def _write_rows(fh, rows, width: int) -> None:
    """One line per (x, values) pair: x, then the real and imaginary parts of
    the width complex values (flattened row-major) interleaved, each cell as
    %.17g.  One row template serves the whole file."""
    template = ",".join([f"%.{_PREC}g"] * (1 + 2 * width)) + "\n"
    for x, values in rows:
        flat = np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float)
        fh.write(template % (x, *flat.tolist()))


def write_gridfunction_csv(path, gf: GridFunction) -> None:
    """Manifest line then rows: x, re/im interleaved per component."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# gridfunc a={gf.grid.a:.{_PREC}g} b={gf.grid.b:.{_PREC}g} "
            f"n={gf.grid.n} dim={gf.dim} kind={gf.grid.kind}\n"
        )
        _write_rows(fh, zip(gf.grid.nodes.tolist(), gf.values.T), gf.dim)


def read_gridfunction_csv(path) -> GridFunction:
    from .grids import cgl_grid, uniform_grid

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [ln.strip() for ln in fh if ln.strip()]
    m = re.match(
        r"# gridfunc a=(\S+) b=(\S+) n=(\d+) dim=(\d+) kind=(\S+)", header
    )
    if not m:
        raise ConfigError(f"{path}: malformed gridfunc manifest {header!r}")
    a, b = float(m.group(1)), float(m.group(2))
    n, dim, kind = int(m.group(3)), int(m.group(4)), m.group(5)
    if len(rows) != n:
        raise ConfigError(f"{path}: expected {n} rows, found {len(rows)}")
    vals = np.empty((dim, n), dtype=complex)
    for j, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 1 + 2 * dim:
            raise ConfigError(f"{path}: row {j} has {len(parts)} cells")
        for i in range(dim):
            vals[i, j] = complex(float(parts[1 + 2 * i]), float(parts[2 + 2 * i]))
    grid = cgl_grid(n, a, b) if kind == "cgl" else uniform_grid(n, a, b)
    return GridFunction(grid, vals)


def write_solution_csv(path, gf: GridFunction, residuals: dict | None = None) -> None:
    write_gridfunction_csv(path, gf)
    if residuals:
        with open(path, "a", encoding="utf-8") as fh:
            for name, val in residuals.items():
                fh.write(f"# residual {name} = {val:.6e}\n")


def write_sweep_csv(path, report) -> None:
    """Fixed column order, then a JSON-like summary block as comments."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda_re,lambda_im,resolvent_norm,ratio,frame_ok\n")
        for r in report.records:
            fh.write(
                f"{r.lam.real:.{_PREC}g},{r.lam.imag:.{_PREC}g},"
                f"{r.norm:.{_PREC}g},{r.ratio:.{_PREC}g},{int(r.frame_ok)}\n"
            )
        fh.write("# summary " + json.dumps(report.summary()) + "\n")


def write_trajectory_csv(path, trajectory, grid: Grid, scheme: str) -> None:
    """Manifest line, then per step: t plus flattened re/im-interleaved values."""
    dim = trajectory[0][1].dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# trajectory a={grid.a:.{_PREC}g} b={grid.b:.{_PREC}g} n={grid.n} "
            f"dim={dim} scheme={scheme}\n"
        )
        # row-major values: component-major blocks
        _write_rows(fh, ((t, gf.values) for t, gf in trajectory),
                    trajectory[0][1].values.size)
