"""Text formats: operator files, grid-function CSVs, sweep and trajectory output.

Complex numbers in operator files and configs are "a+bi" / "a-bi" with
decimal or scientific mantissas, parsed locale-independently.  CSV values
carry 17 significant digits so doubles round-trip exactly.

Every CSV cell goes through one vectorized formatter, ``_format_cells``,
which writes exactly the bytes of ``"%.17g" % x``:

- A cell is fast when it is +-0 or finite with 1e-260 <= |x| <= 1e260; the
  range keeps every partial product normal (or zero) and finite.  Its decimal
  exponent X = floor(log10 |x|) is corrected until the truncated
  |x| * 10**(16 - X) lies in [1e16, 1e17).
- That product is a double-double.  10**k = hi + lo comes from a table built
  at import from exact integers (error below 2**-106 relative); |x| * hi is
  exact as Dekker's two-product with Veltkamp splits (Numer. Math. 18,
  1971), and |x| * lo is added.  The result is off by less than 1e-14
  units of the 17th digit: 1.2e-15 from the table, a few 1e-15 from
  rounding |x| * lo (|.| < 12) and the sum of the low parts (|.| < 20).
- The 17 digits D are the product rounded half to even.  A cell whose
  fraction lies within 1e-9 of one half, which covers exact ties and every
  product the error could carry across one, is not fast; so D is the
  correctly rounded mantissa of every fast cell.  A carry to 10**17 becomes
  10**16 with X + 1.
- D's digits: the first, then the 16 below it four at a time from _QUADS,
  "0000".."9999" as uint32 values whose four bytes are the digits.
- The 'g' layout follows from D and X: fixed for -4 <= X < 17, otherwise
  d.ddde+dd; trailing zeros are stripped, integer digits never.
- Cells that are not fast (nan, +-inf, subnormal or out of range, near
  ties) are printed by "%.17g" itself; a chunk without them does no per-cell
  Python work.
- Each cell is followed by its column's entry in the row's separator table
  (``_separators``), up to three bytes: "," after each cell and a newline
  after the last, in every CSV.
- Grid-function and trajectory rows are complex: x, then the real and
  imaginary parts interleaved.  When every imaginary part of the file is +0
  the stream is real: only x and the real parts are formatted, and the table
  writes "," after x, ",0," after each real part and ",0\n" at the row end,
  so the imaginary cells "0" cost no formatting.  The writers decide once per
  file (``_write_complex_rows``).  np.signbit sends a -0 imaginary part,
  which prints "-0", to the interleaved path, so the bytes are the same
  either way.
- A cell's text fills a 32-byte slot with 0 as filler; one
  ``bytes.translate`` drops a chunk's filler.
- Cells are formatted and written _CHUNK_CELLS = 2752 at a time, whatever
  the row width, so memory stays flat.  The largest temporary, the slots, is
  then 86 KiB, below glibc's default 128 KiB mmap threshold, so no chunk
  page-faults its work arrays in afresh; the tests' 2801-cell rows still
  straddle chunks.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError
from .grids import Grid, GridFunction
from .kernels import _split

__all__ = [
    "parse_complex",
    "read_operator_file",
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


_CHUNK_CELLS = 2752  # cells formatted and written at a time
_K_MIN, _K_MAX = -250, 280  # 10**k for k = 16 - X, |X| <= 262


def _powers_of_ten():
    """hi + lo = 10**k to about 2**-106 relative, and hi's Veltkamp halves,
    for k in [_K_MIN, _K_MAX], from exact Python integers."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den  # int / int rounds correctly
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    return (hi, np.array(lo)) + _split(hi)


def _layouts():
    """Per decimal exponent X (index X + 300): the "0.000" lead and "e+dd"
    tail as bytes (0 where absent), the digit after which the point goes
    (17: none) and the digits never stripped."""
    X = np.arange(-300, 301)
    lead = (X >= -4) & (X < 0)
    sci = (X < -4) | (X >= 17)
    E = np.abs(X)
    text = np.array([lead * 48, lead * 46] + [lead * (-X - 1 > j) * 48 for j in range(3)]
                    + [sci * 101, sci * np.where(X < 0, 45, 43),
                       sci * (E >= 100) * (48 + E // 100),
                       sci * (48 + E // 10 % 10), sci * (48 + E % 10)], np.uint8)
    point = np.where(lead, 17, np.where(sci, 0, X))
    kmin = np.where(lead | sci, 0, X + 1)
    return text, point.astype(np.uint8), kmin.astype(np.uint8)


_POW_HI, _POW_LO, _POW_HH, _POW_HL = _powers_of_ten()
_TEXT, _POINT, _KMIN = _layouts()
# "00".."99" as uint16 and "0000".."9999" as uint32 whose bytes are the digits
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()
_R = np.arange(18, dtype=np.uint8)[:, None]


def _scaled(ax, X):
    """floor(ax * 10**(16 - X)) and the fraction left over: Dekker's exact
    product ax * hi = ph + pl, plus ax * lo."""
    i = 16 - X - _K_MIN
    ph = ax * _POW_HI[i]
    ah, al = _split(ax)
    hh, hl = _POW_HH[i], _POW_HL[i]
    t = ah * hh
    t -= ph
    t += ah * hl
    t += al * hh
    t += al * hl
    t += ax * _POW_LO[i]
    ft = np.floor(t)
    t -= ft
    return ph.astype(np.int64) + ft.astype(np.int64), t


def _separators(ncells: int, real: bool = False) -> np.ndarray:
    """The (3, ncells) separator table of an ncells-cell row, column j the
    bytes after cell j with 0 as filler: "," and a newline after the last
    cell, or a real stream's (module docstring)."""
    seps = np.zeros((3, ncells), np.uint8)
    seps[0] = 44
    if real:
        seps[1, 1:] = 48
        seps[2, 1:] = 44
    seps[2 if real else 0, -1] = 10
    return seps


def _format_cells(x: np.ndarray, start: int, ncells: int, seps=None) -> str:
    """Cells start, start + 1, ... of a row-major stream of ncells-cell rows,
    each exactly as "%.17g" prints it (see the module docstring), followed by
    its column's bytes in the separator table ``seps`` (``_separators``; by
    default "," or, at the end of a row, a newline)."""
    n = x.size
    ax = np.abs(x)
    zero = ax == 0
    fast = ((ax >= 1e-260) & (ax <= 1e260)) | zero
    ax[~fast | zero] = 1.0
    X = np.floor(np.log10(ax)).astype(np.int64)
    T, frac = _scaled(ax, X)
    miss = np.flatnonzero((T < 10 ** 16) | (T >= 10 ** 17))
    if miss.size:  # log10 rounded across a power of ten
        X[miss] += np.where(T[miss] < 10 ** 16, -1, 1)
        T[miss], frac[miss] = _scaled(ax[miss], X[miss])
        fast &= (T >= 10 ** 16) & (T < 10 ** 17)
    fast &= np.abs(frac - 0.5) > 1e-9  # ties and near-ties print through "%.17g"
    D = T + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X += carry
    # the 17 digits, digit j in row j + 1: the first, then four at a time
    dig = np.zeros((19, n), np.uint8)
    top, eight = D // 10 ** 16, D // 10 ** 8
    dig[1] = 48 + top
    quads = np.empty((n, 4), np.uint32)
    for j, part in enumerate((eight - top * 10 ** 8, D - eight * 10 ** 8)):
        four = part // 10 ** 4
        quads[:, 2 * j] = _QUADS.take(four)
        quads[:, 2 * j + 1] = _QUADS.take(part - four * 10 ** 4)
    dig[2:18] = quads.view(np.uint8).T
    nd = ((dig[1:18] != 48) * _R[1:]).max(axis=0)  # digits left after stripping
    dig[1, zero] = 48  # ±0 was formatted as 1
    # 32 output rows, one per column of a cell's text, with 0 as filler: sign,
    # "0.000" lead, digits 0..P, the point, digits P+1..16, "e+dd", separator
    xi = X + 300
    P = _POINT.take(xi)
    keep = np.maximum(nd, _KMIN.take(xi))
    dig[1:18] *= _R[:17] < keep
    out = np.zeros((32, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(45)
    text = _TEXT.take(xi, axis=1)
    out[1:6] = text[:5]
    body = out[6:24]
    np.multiply(dig[1:], _R <= P, out=body)
    body += dig[:-1] * (_R > P + 1)
    body += (_R == P + 1) * (keep > P + 1) * np.uint8(46)
    out[24:29] = text[5:]
    if seps is None:
        seps = _separators(ncells)
    col = start % ncells
    out[29:] = np.tile(seps, -(-(col + n) // ncells))[:, col:col + n]
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = "".join(("%.17g" % v).ljust(29, "\0") for v in x[slow].tolist())
        out[:29, slow] = np.frombuffer(cells.encode(), np.uint8).reshape(-1, 29).T
    return out.T.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(fh, pieces, ncells: int, seps=None) -> None:
    """CSV lines of ncells cells from flat float arrays that each hold whole
    rows, each cell followed by its column's bytes in ``seps`` (default:
    ``_separators(ncells)``); the cells are formatted and written
    _CHUNK_CELLS at a time, whatever the row width."""
    start, rest = 0, np.empty(0)
    for piece in pieces:
        rest = np.concatenate((rest, piece))
        while rest.size >= _CHUNK_CELLS:
            fh.write(_format_cells(rest[:_CHUNK_CELLS], start, ncells, seps))
            start += _CHUNK_CELLS
            rest = rest[_CHUNK_CELLS:]
    if rest.size:
        fh.write(_format_cells(rest, start, ncells, seps))


def _write_complex_rows(fh, blocks) -> None:
    """CSV lines of complex rows: each x, then the real and imaginary parts
    of its row of values interleaved, from a list of (xs, values) pairs with
    values (len(xs), m) complex; a real stream when every imaginary part is
    +0 (module docstring)."""
    real = not any(np.any(v.imag) or np.signbit(v.imag).any() for _, v in blocks)
    m = blocks[0][1].shape[1]
    ncells = 1 + m if real else 1 + 2 * m
    pieces = (np.column_stack((xs, v.real if real else np.ascontiguousarray(v).view(float)))
              .reshape(-1) for xs, v in blocks)
    _write_rows(fh, pieces, ncells, _separators(ncells, real))


def write_gridfunction_csv(path, gf: GridFunction) -> None:
    """Manifest line then rows: x, re/im interleaved per component."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# gridfunc a={gf.grid.a:.{_PREC}g} b={gf.grid.b:.{_PREC}g} "
            f"n={gf.grid.n} dim={gf.dim} kind={gf.grid.kind}\n"
        )
        _write_complex_rows(fh, [(gf.grid.nodes, gf.values.T)])


def read_gridfunction_csv(path) -> GridFunction:
    from .grids import cgl_grid, uniform_grid

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    m = re.match(
        r"# gridfunc a=(\S+) b=(\S+) n=(\d+) dim=(\d+) kind=(\S+)", header
    )
    if not m:
        raise ConfigError(f"{path}: malformed gridfunc manifest {header!r}")
    a, b = float(m.group(1)), float(m.group(2))
    n, dim, kind = int(m.group(3)), int(m.group(4)), m.group(5)
    if kind not in ("cgl", "uniform"):
        raise ConfigError(f"{path}: unknown grid kind={kind} in the manifest "
                          "(cgl or uniform)")
    if len(rows) != n:
        raise ConfigError(f"{path}: expected {n} rows, found {len(rows)}")
    vals = np.empty((dim, n), dtype=complex)
    for j, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 1 + 2 * dim:
            raise ConfigError(f"{path}: row {j} has {len(parts)} cells")
        for i in range(dim):
            vals[i, j] = complex(float(parts[1 + 2 * i]), float(parts[2 + 2 * i]))
    return GridFunction((cgl_grid if kind == "cgl" else uniform_grid)(n, a, b), vals)


def write_solution_csv(path, gf: GridFunction, residuals: dict | None = None) -> None:
    write_gridfunction_csv(path, gf)
    if residuals:
        with open(path, "a", encoding="utf-8") as fh:
            for name, val in residuals.items():
                fh.write(f"# residual {name} = {val:.6e}\n")


def write_sweep_csv(path, report) -> None:
    """Fixed column order, then a JSON-like summary block as comments.

    ``converged`` is 0 on a refused row and on a power-route norm whose
    iteration did not converge (note "power-unconverged"), 1 otherwise."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda_re,lambda_im,resolvent_norm,ratio,frame_ok,converged\n")
        cells = [(r.lam.real, r.lam.imag, r.norm, r.ratio, r.frame_ok,
                  r.frame_ok and r.note != "power-unconverged") for r in report.records]
        _write_rows(fh, [np.array(cells, dtype=float).reshape(-1)], 6)
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
        _write_complex_rows(fh, [([t], gf.values.reshape(1, -1)) for t, gf in trajectory])
