import importlib
import os
import pkgutil
import re
from decimal import Decimal
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quartic
from quartic import cli
from quartic import io as quartic_io
from quartic.cli import main
from quartic.errors import ConfigError
from quartic.grids import GridFunction, cgl_grid
from quartic.io import (
    _CHUNK_CELLS,
    _format_cells,
    _write_rows,
    parse_complex,
    read_gridfunction_csv,
    read_operator_file,
    write_gridfunction_csv,
    write_solution_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from quartic.spectral import SweepRecord, SweepReport
from references import format_complex, write_operator_file

finite = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=-1e300, max_value=1e300)


class TestComplexFormat:
    @pytest.mark.parametrize("text,want", [
        ("1.5+2i", 1.5 + 2j),
        ("-1.5-2.25i", -1.5 - 2.25j),
        ("3", 3.0 + 0j),
        ("-2.5e-3+1e4i", -0.0025 + 10000j),
        ("4i", 4j),
        ("-0.5i", -0.5j),
    ])
    def test_parse(self, text, want):
        assert parse_complex(text) == want

    def test_reject_garbage(self):
        for bad in ("", "abc", "1+2", "1++2i", "1 + 2i"):
            with pytest.raises(ConfigError):
                parse_complex(bad)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e400i", "1-1e400i", "2e308+1i"])
    def test_reject_overflow(self, text):
        with pytest.raises(ConfigError, match="not finite"):
            parse_complex(text)

    @settings(max_examples=200, deadline=None)
    @given(finite, finite)
    def test_roundtrip_property(self, re, im):
        z = complex(re, im)
        assert parse_complex(format_complex(z)) == z


class TestGridFileChecks:
    """A v0 or forcing file must sit on the nodes of [grid] and have the
    operator's dimension; a manifest kind other than cgl or uniform is
    refused."""

    @staticmethod
    def _config(tmp_path, scheme, forcing, n_file=24, dim_file=1):
        grid = cgl_grid(n_file, 0.0, np.pi)
        vals = np.tile(np.sin(grid.nodes), (dim_file, 1)) + 0j
        write_gridfunction_csv(tmp_path / "v0.csv", GridFunction(grid, vals))
        body = DEMO.replace("n_nodes = 96", "n_nodes = 32") + f"""
[evolve]
scheme = {scheme}
dt = 0.05
t_final = 0.1
v0 = file:v0.csv
"""
        if not forcing:
            body = body.replace("type = sines\ncoefficients = 1.0, 0.5", "type = zero")
        return write_config(tmp_path / "c.cfg", body)

    @pytest.mark.parametrize("forcing", [False, True])
    @pytest.mark.parametrize("scheme", ["IMPLICIT_EULER", "CONTOUR"])
    def test_v0_nodes_not_those_of_grid_exit2(self, tmp_path, capsys, scheme, forcing):
        cfg = self._config(tmp_path, scheme, forcing)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "v0 file" in err and "24 cgl nodes" in err and "[grid] n_nodes = 32" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("scheme", ["IMPLICIT_EULER", "CONTOUR"])
    def test_v0_dimension_not_the_operators_exit2(self, tmp_path, capsys, scheme):
        cfg = self._config(tmp_path, scheme, True, n_file=32, dim_file=2)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "v0 file" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["IMPLICIT_EULER", "CONTOUR"])
    def test_v0_on_the_grid_runs(self, tmp_path, scheme):
        cfg = self._config(tmp_path, scheme, True, n_file=32)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trajectory.csv").read_text().startswith(
            "# trajectory a=0 b=3.1415926535897931 n=32 dim=1")

    def test_unknown_kind_rejected(self, tmp_path):
        grid = cgl_grid(8, 0.0, 1.0)
        write_gridfunction_csv(tmp_path / "f.csv", GridFunction(grid, np.ones((1, 8)) + 0j))
        text = (tmp_path / "f.csv").read_text().replace("kind=cgl", "kind=chebyshev")
        (tmp_path / "f.csv").write_text(text)
        with pytest.raises(ConfigError, match="kind=chebyshev"):
            read_gridfunction_csv(tmp_path / "f.csv")


class TestOperatorFile:
    def test_roundtrip(self, tmp_path, rng):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "op.txt"
        write_operator_file(path, A)
        B = read_operator_file(path)
        assert np.array_equal(A, B)

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 2\n1+0i 2+0i\n")
        with pytest.raises(ConfigError):
            read_operator_file(p)
        p.write_text("not a header\n")
        with pytest.raises(ConfigError):
            read_operator_file(p)


class TestGridFunctionFile:
    # solve's output, with the residual comment lines it appends, reads back
    # as v0 = file:... or file forcing
    @pytest.mark.parametrize("write", [
        write_gridfunction_csv,
        lambda path, gf: write_solution_csv(path, gf, {"u(a)": 1.5e-12, "interior_ode": 3e-9}),
    ], ids=["gridfunction", "solution"])
    def test_roundtrip(self, tmp_path, rng, write):
        grid = cgl_grid(20, 0.0, np.pi)
        gf = GridFunction(grid, rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20)))
        path = tmp_path / "f.csv"
        write(path, gf)
        back = read_gridfunction_csv(path)
        assert np.array_equal(back.values, gf.values)
        assert np.allclose(back.grid.nodes, grid.nodes)


def _edge_values(rng, dim, n):
    """Random complex values with nan, +-inf, -0.0, 1e-300 and 1e300 cells."""
    vals = rng.normal(size=(dim, n)) + 1j * rng.normal(size=(dim, n))
    edges = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300, -1e-300, -1e300]
    flat = vals.reshape(-1)
    for i, x in enumerate(edges):
        flat[3 * i] = complex(x, edges[-1 - i])
    flat[1] = complex(-0.0, -0.0)
    return vals


class TestRowWriters:
    """Both CSV writers against a reference that formats every value with
    f"{x:.17g}", byte for byte."""

    def test_gridfunction_csv(self, tmp_path, rng):
        grid = cgl_grid(20, -1.0, 2.0)
        # a transposed (non-contiguous) value array, as the solvers hand over
        gf = GridFunction(grid, np.ascontiguousarray(_edge_values(rng, 20, 3)).T)
        write_gridfunction_csv(tmp_path / "f.csv", gf)
        want = ["# gridfunc a=-1 b=2 n=20 dim=3 kind=cgl"]
        for j, x in enumerate(grid.nodes):
            cells = [f"{x:.17g}"]
            for z in gf.values[:, j]:
                cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            want.append(",".join(cells))
        assert (tmp_path / "f.csv").read_text() == "\n".join(want) + "\n"

    def test_trajectory_csv(self, tmp_path, rng):
        grid = cgl_grid(17, 0.0, np.pi)
        traj = [(t, GridFunction(grid, _edge_values(rng, 2, 17)))
                for t in (0.0, 0.1, 1e-300, 0.30000000000000004)]
        write_trajectory_csv(tmp_path / "t.csv", traj, grid, "IMPLICIT_EULER")
        want = [f"# trajectory a=0 b={np.pi:.17g} n=17 dim=2 scheme=IMPLICIT_EULER"]
        for t, gf in traj:
            cells = [f"{t:.17g}"]
            for z in gf.values.reshape(-1):
                cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            want.append(",".join(cells))
        text = (tmp_path / "t.csv").read_text()
        assert text == "\n".join(want) + "\n"
        assert "nan" in text and "-inf" in text and "-0," in text and "1e+300" in text


def _written(tmp_path, values):
    """(rows of the file, their interleaved f"{x:.17g}" reference, the cells
    each _format_cells call got as (size, start, ncells)) for values (T, dim,
    N) written as a T-step trajectory, or (dim, N) as a grid function."""
    calls = []

    def counting(x, start, ncells, *rest):
        calls.append((x.size, start, ncells))
        return _format_cells(x, start, ncells, *rest)

    path = tmp_path / "out.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quartic_io, "_format_cells", counting)
        if values.ndim == 3:
            grid = cgl_grid(values.shape[-1], 0.0, np.pi)
            xs = [0.0, 0.1, 1e-300, 0.30000000000000004][:len(values)]
            write_trajectory_csv(path, [(t, GridFunction(grid, v)) for t, v in zip(xs, values)],
                                 grid, "CRANK_NICOLSON")
            rows = values.reshape(len(xs), -1)
        else:
            grid = cgl_grid(values.shape[-1], -1.0, 2.0)
            write_gridfunction_csv(path, GridFunction(grid, values))
            xs, rows = grid.nodes, values.T
    want = "".join(",".join([f"{x:.17g}"] + [f"{c:.17g}" for z in row for c in (z.real, z.imag)])
                   + "\n" for x, row in zip(xs, rows))
    return path.read_text().partition("\n")[2], want, calls


def _real_values(rng, shape):
    """Real parts of _edge_values (nan, +-inf, -0.0, ...), +0 imaginary parts."""
    return _edge_values(rng, 1, int(np.prod(shape))).real.reshape(shape).astype(complex)


class TestRealStreams:
    """A stream whose imaginary parts are all +0 is formatted from x and its
    real parts, the imaginary cells coming from the separator table, and
    writes the interleaved path's bytes."""

    # trajectory rows of 61 and 3001 > _CHUNK_CELLS real cells, grid-function
    # rows of 4 and 3: every chunk after the first starts mid-row
    SHAPES = [(4, 3, 20), (4, 2, 1500), (3, 20), (2, 1500)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_interleaved(self, tmp_path, rng, shape):
        got, want, calls = _written(tmp_path, _real_values(rng, shape))
        assert got == want
        assert "nan" in got and "-inf" in got and ",-0," in got
        # x and the dim N real parts of each trajectory step, x and the dim
        # real parts of each node
        rows, m = (shape[0], shape[1] * shape[2]) if len(shape) == 3 else (shape[1], shape[0])
        assert sum(size for size, _, _ in calls) == rows * (1 + m)
        assert all(ncells == 1 + m for _, _, ncells in calls)
        if max(shape) > _CHUNK_CELLS // 2:
            assert len(calls) > 1 and all(start % (1 + m) for _, start, _ in calls[1:])

    @pytest.mark.parametrize("imag", [-0.0, 2.5])
    @pytest.mark.parametrize("where", [0, 777, -1])
    @pytest.mark.parametrize("shape", SHAPES[1::2])
    def test_one_imaginary_cell_keeps_interleaved(self, tmp_path, rng, shape, where, imag):
        values = _real_values(rng, shape)
        flat = values.reshape(-1)
        flat[where] = complex(flat[where].real, imag)
        got, want, calls = _written(tmp_path, values)
        assert got == want
        m = values[0].size if len(shape) == 3 else shape[0]
        assert sum(size for size, _, _ in calls) == len(want.splitlines()) * (1 + 2 * m)


def _formatted(values, ncells=1, start=0):
    """The cell formatter's text for a flat array of float64 cells."""
    return _format_cells(np.array(values, dtype=float).reshape(-1), start, ncells)


def _reference(values, ncells=1, start=0):
    cells = np.array(values, dtype=float).reshape(-1).tolist()
    return "".join(f"{v:.17g}" + (",\n"[(start + j) % ncells == ncells - 1])
                   for j, v in enumerate(cells))


def _bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def _neighbours(x, ulps=3):
    """x and its nearest ulps doubles on either side."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


class TestCellFormatter:
    """The vectorized cell formatter against f"{x:.17g}", cell by cell."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
           st.integers(1, 7), st.integers(0, 6))
    def test_bit_patterns_property(self, patterns, ncells, start):
        x = _bits(patterns)
        assert _formatted(x, ncells, start) == _reference(x, ncells, start)

    def test_million_random_bit_patterns(self):
        x = _bits(np.random.default_rng(14402).integers(0, 2**64, size=10**6,
                                                         dtype=np.uint64))
        fh = StringIO()
        _write_rows(fh, [x], 8)
        got = fh.getvalue()
        want = "".join((",".join(["%.17g"] * 8) + "\n") % tuple(row)
                       for row in x.reshape(-1, 8).tolist())
        if got != want:
            pairs = zip(x.tolist(), re.split("[,\n]", got), re.split("[,\n]", want))
            pytest.fail(f"cells differ: {[p for p in pairs if p[1] != p[2]][:5]}")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_ten_and_neighbours(self, sign):
        x = [sign * y for k in range(-300, 301) for y in _neighbours(float(f"1e{k}"))]
        assert _formatted(x, ncells=4) == _reference(x, ncells=4)

    def test_exact_ties(self):
        # odd k / 2**m has m fraction digits; 18 significant digits ending
        # in 5 when it lies in [10**(17 - m), 10**(18 - m))
        ties = []
        for m in range(2, 25):
            k = (int(Decimal(10) ** (17 - m) * 2**m) + 1) | 1
            ties += [k / 2**m, (k + 2) / 2**m, -(k + 4) / 2**m]
        ties.append(2.0**-25)
        for t in ties:
            digits = Decimal(t).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, t
        assert _formatted(ties, ncells=3) == _reference(ties, ncells=3)

    def test_carries_to_the_next_power(self):
        # doubles below 10**k whose 17-digit rounding is 10**k
        carries = [y for k in range(-300, 301) for y in _neighbours(float(f"1e{k}"), 6)
                   if Decimal(y) < Decimal(f"1e{k}") and f"{y:.17g}" == f"{float(f'1e{k}'):.17g}"]
        assert len(carries) > 50
        assert _formatted(carries, ncells=5) == _reference(carries, ncells=5)

    def test_fixed_scientific_switches(self):
        x = [y for edge in (1e-5, 1e-4, 1e16, 1e17, 99999999999999984.0, 9.9999999999999991e-5)
             for y in _neighbours(edge, 4)]
        assert _formatted(x, ncells=3) == _reference(x, ncells=3)

    def test_16_and_17_digit_integers(self, rng):
        x = np.concatenate([rng.integers(10**15, 10**16, 5000),
                            rng.integers(10**16, 10**17, 5000)]).astype(float)
        x[::3] *= -1
        assert _formatted(x, ncells=10) == _reference(x, ncells=10)

    def test_subnormals_zeros_nan_inf(self, rng):
        sub = _bits(rng.integers(1, 2**52, 2000, dtype=np.uint64))
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e-260, -1e260, np.nextafter(1e260, np.inf)]
        x = np.concatenate([sub, -sub, special])
        assert _formatted(x, ncells=7) == _reference(x, ncells=7)

    def test_rows_wider_than_a_chunk(self, tmp_path, rng):
        # 1 + 2 * 2 * 700 cells a row: rows straddle the formatter's chunks
        grid = cgl_grid(700, 0.0, 1.0)
        assert 1 + 4 * grid.n > _CHUNK_CELLS
        traj = [(t, GridFunction(grid, _edge_values(rng, 2, 700))) for t in (0.0, 0.5, 1.0)]
        write_trajectory_csv(tmp_path / "t.csv", traj, grid, "CONTOUR")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 4
        for line, (t, gf) in zip(lines[1:], traj):
            cells = [f"{t:.17g}"]
            for z in gf.values.reshape(-1):
                cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            assert line == ",".join(cells)

    def test_sweep_csv(self, tmp_path):
        records = [SweepRecord(-0.5 + 2.25j, 1.25, 3.5, True, "dense"),
                   SweepRecord(1e-300 - 0.1j, np.nan, np.inf, False, "failed"),
                   SweepRecord(complex(-0.0, 1e17), 0.30000000000000004, 1e-5, True, "power"),
                   SweepRecord(2.0 - 1.0j, 0.75, 2.5, True, "power-unconverged")]
        report = SweepReport(grid=None, records=records, c_empirical=1.0, failures=[],
                             r_observed=0.5)
        write_sweep_csv(tmp_path / "s.csv", report)
        want = ["lambda_re,lambda_im,resolvent_norm,ratio,frame_ok,converged"]
        for r, converged in zip(records, (1, 0, 1, 0)):
            want.append(f"{r.lam.real:.17g},{r.lam.imag:.17g},{r.norm:.17g},"
                        f"{r.ratio:.17g},{int(r.frame_ok)},{converged}")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[:-1] == want
        assert lines[-1].startswith("# summary ")


def write_config(path, body):
    path.write_text(body)
    return str(path)


DEMO = """
[problem]
a = 0
b = 3.141592653589793
k = 0
bc_family = 1
operator = diag:-1

[grid]
n_nodes = 96

[forcing]
type = sines
coefficients = 1.0, 0.5

[solve]
lambda = -4
phi1 = 0.25
phi2 = 0
phi3 = 0.1
phi4 = -0.05
tol_residual = 1e-6
"""


class TestCliSolve:
    def test_zero_data_solve(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "type = sines\ncoefficients = 1.0, 0.5", "type = zero").replace(
            "phi1 = 0.25", "phi1 = 0").replace("phi3 = 0.1", "phi3 = 0").replace(
            "phi4 = -0.05", "phi4 = 0"))
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = (tmp_path / "solution.csv").read_text()
        assert "gridfunc" in out

    def test_demo_solve_residuals(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr().out
        assert rc == 0
        for line in captured.splitlines():
            if line.startswith("residual"):
                assert float(line.split("=")[1]) <= 1e-6

    def test_demo_interior_residual_at_roundoff(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("residual interior_ode"))
        assert float(line.split("=")[1]) <= 1e-10

    def test_perturbed_solution_exit4(self, tmp_path, monkeypatch):
        # a 1e-6 bump on the formula solution must fail the interior gate
        solve = cli._SOLVERS[1]

        def bumped(frame, f, phi):
            u = solve(frame, f, phi)
            bump = 1e-6 * np.exp(-(((u.grid.nodes - 1.3) / 0.2) ** 2))
            return GridFunction(u.grid, u.values + bump)

        monkeypatch.setitem(cli._SOLVERS, 1, bumped)
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5])
    def test_small_grid_exit_code(self, tmp_path, n_nodes):
        cfg = write_config(tmp_path / "c.cfg",
                           DEMO.replace("n_nodes = 96", f"n_nodes = {n_nodes}"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) in {0, 3, 4}

    def test_uniform_grid_exit2(self, tmp_path, capsys):
        # the interior residual is defined on CGL samples only
        cfg = write_config(tmp_path / "c.cfg",
                           DEMO.replace("n_nodes = 96", "n_nodes = 96\nkind = uniform"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "CGL grid" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--tol-scale", "2"]])
    @pytest.mark.parametrize("command", ["solve", "sweep", "evolve"])
    def test_verify_flags_refused_elsewhere(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section", [("solve", "grid"), ("sweep", "sweep")])
    def test_node_cap_exit2_before_any_grid(self, tmp_path, capsys, monkeypatch, command,
                                            section):
        from quartic import config

        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(config, "cgl_grid", no_grid)
        n = config.MAX_GRID_NODES + 1
        body = DEMO + "\n[sweep]\nn_nodes = 12\n"
        body = body.replace(f"[{section}]\nn_nodes = {96 if section == 'grid' else 12}",
                            f"[{section}]\nn_nodes = {n}")
        cfg = write_config(tmp_path / "c.cfg", body)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"[{section}] n_nodes = {n}" in capsys.readouterr().err

    def test_config_error_exit2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
        bad = write_config(tmp_path / "bad.cfg",
                           DEMO.replace("bc_family = 1", "bc_family = 9"))
        assert main(["solve", "--config", bad]) == 2

    def test_corrupted_operator_exit2(self, tmp_path):
        (tmp_path / "op.txt").write_text("dim 2\n1+0i\n")
        cfg = write_config(tmp_path / "c.cfg",
                           DEMO.replace("operator = diag:-1", "operator = file:op.txt"))
        assert main(["solve", "--config", cfg]) == 2

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_laplacian_mode_count_exit2(self, tmp_path, capsys, count):
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "operator = diag:-1", f"operator = laplacian:{count}"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "operator = 'laplacian:" in capsys.readouterr().err

    @pytest.mark.parametrize("a, b", [("1", "1"), ("2", "1"), ("0", "1e-320")])
    def test_bad_interval_exit2(self, tmp_path, capsys, a, b):
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace("a = 0", f"a = {a}").replace(
            "b = 3.141592653589793", f"b = {b}"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"a = {float(a)!r}, b = {float(b)!r}" in err

    def test_overflowing_interval_length_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace("a = 0", "a = -1e308").replace(
            "b = 3.141592653589793", "b = 1e308"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "a = -1e+308, b = 1e+308" in capsys.readouterr().err
        assert not (tmp_path / "solution.csv").exists()

    def test_non_finite_residual_exit4(self, tmp_path):
        # b - a is finite, but the stencil weights overflow on this interval
        # and the residuals come out NaN (numpy warns on stderr)
        import subprocess
        import sys

        cfg = write_config(tmp_path / "c.cfg", DEMO.replace("a = 0", "a = -1e300").replace(
            "b = 3.141592653589793", "b = 1e300"))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "quartic.cli", "solve", "--config", cfg,
                               "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert "= nan" in proc.stdout
        assert proc.returncode == 4, proc.stderr
        assert "not finite" in proc.stderr

    def test_forcing_file_on_other_grid_exit2(self, tmp_path, capsys):
        grid = cgl_grid(33, 0.0, np.pi)
        write_gridfunction_csv(tmp_path / "f.csv",
                               GridFunction(grid, np.sin(grid.nodes)[None, :] + 0j))
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "n_nodes = 96", "n_nodes = 64").replace(
            "type = sines\ncoefficients = 1.0, 0.5", "type = file\npath = f.csv"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "33 cgl nodes" in err and "n_nodes = 64" in err

    def test_frame_singular_exit3(self, tmp_path):
        # refine the first singular parameter of the clamped family for a
        # sectorial two-mode operator, then ask the solver to hit it
        import numpy as np
        from quartic.bvp import _cut_shifts
        from quartic.operators import make_operator

        th = 0.5
        A = make_operator(np.diag([-np.exp(1j * th), -np.exp(-1j * th)]))
        c = np.pi

        def vmin(lam):
            p, q, b = _cut_shifts(0.0, lam)
            p, q = A.spectrum + p, A.spectrum + q
            m, l = -np.sqrt(-p), -np.sqrt(-q)
            u = 1 - np.exp(c * (l + m)) - (l + m) ** 2 * (np.exp(c * m) - np.exp(c * l)) / b
            v = 1 - np.exp(c * (l + m)) + (l + m) ** 2 * (np.exp(c * m) - np.exp(c * l)) / b
            allv = np.concatenate([u, v])
            return allv[np.argmin(np.abs(allv))]

        lam = 7.85 + 2.01j
        for _ in range(60):
            h = 1e-7 * (1 + abs(lam))
            d = (vmin(lam + h) - vmin(lam - h)) / (2 * h)
            step = vmin(lam) / d
            lam -= step
            if abs(step) < 1e-15 * (1 + abs(lam)):
                break
        write_operator_file(tmp_path / "op.txt", A.matrix)
        cfg = write_config(tmp_path / "c.cfg", f"""
[problem]
a = 0
b = 3.141592653589793
k = 0
bc_family = 3
operator = file:op.txt

[grid]
n_nodes = 40

[forcing]
type = sines
coefficients = 1.0

[solve]
lambda = {format_complex(lam)}
""")
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3


class TestCliSweep:
    def test_sweep_writes_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", DEMO + """
[sweep]
radius_min = 1e-1
radius_max = 1e2
n_radii = 6
n_angles = 4
n_nodes = 24
""")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0] == "lambda_re,lambda_im,resolvent_norm,ratio,frame_ok,converged"
        assert "# summary" in text

    def test_exit_zero_despite_failures_for_clamped_family(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "bc_family = 1", "bc_family = 3") + """
[sweep]
radius_min = 1e-1
radius_max = 1e1
n_radii = 4
n_angles = 2
n_nodes = 24
exclusion_radius = 1e-2
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_vertex_that_rounds_radii_away_exit2(self, tmp_path, capsys):
        # -k^2/4 = -2.5e307: vertex + r e^{i phi} keeps no real offset for r <= 10
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace("k = 0", "k = 1e154") + """
[sweep]
radius_min = 1e-1
radius_max = 1e1
n_radii = 3
n_angles = 4
n_nodes = 12
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "k = 1e+154" in err and "vertex -2.5e+307" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("bc", [2, 4])
    def test_power_route_family_exit2(self, tmp_path, capsys, monkeypatch, bc):
        # the power route's adjoint frame solves family bc for A^H, which is
        # not the family's formal adjoint: refused before any solve
        from quartic import spectral

        def no_frames(*args, **kwargs):
            raise AssertionError("a frame was assembled")

        monkeypatch.setattr(spectral, "_lambda_frames", no_frames)
        cfg = write_config(tmp_path / "c.cfg", f"""
[problem]
operator = laplacian:6
bc_family = {bc}
[sweep]
radius_min = 1
radius_max = 10
n_radii = 2
n_angles = 1
exclusion_radius = 0.5
n_nodes = 344
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"family {bc} has no power route" in err and "DENSE_CAP = 2000" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_unconverged_power_norm_exit4(self, tmp_path, capsys, monkeypatch):
        from functools import partial

        from quartic import spectral, tolerances

        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        monkeypatch.setattr(spectral, "krylov_norm", partial(spectral.krylov_norm, max_iter=1))
        cfg = write_config(tmp_path / "c.cfg", """
[problem]
operator = laplacian:3
bc_family = 1
[sweep]
radius_min = 1
radius_max = 3
n_radii = 2
n_angles = 2
n_nodes = 16
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        assert "unconverged = 4" in out.splitlines()
        assert "4 power-route norms did not converge" in err
        text = (tmp_path / "sweep.csv").read_text()
        assert len(text.splitlines()) == 6 and '"unconverged": 4}' in text

    def test_threads_flag_and_env_are_ignored(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.cfg", DEMO + """
[sweep]
radius_min = 1e-1
radius_max = 1e1
n_radii = 3
n_angles = 2
n_nodes = 20
""")
        monkeypatch.delenv("QUARTIC_THREADS", raising=False)
        runs = {}
        for name, extra, env in (("plain", [], None), ("flag", ["--threads", "3"], None),
                                 ("env", [], "2")):
            if env is not None:
                monkeypatch.setenv("QUARTIC_THREADS", env)
            out = tmp_path / name
            assert main(["sweep", "--config", cfg, "--out", str(out)] + extra) == 0
            runs[name] = (out / "sweep.csv").read_bytes()
        assert runs["flag"] == runs["plain"]
        assert runs["env"] == runs["plain"]


class TestCliEvolve:
    def test_trajectory_written(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "type = sines\ncoefficients = 1.0, 0.5", "type = zero") + """
[evolve]
scheme = CRANK_NICOLSON
dt = 0.05
t_final = 0.5
v0 = sine:1
""")
        rc = main(["evolve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# trajectory")
        assert len(lines) == 1 + 11  # manifest + t=0..0.5 in steps of 0.05
        # sin x is an eigenmode with rate -4, so Crank-Nicolson multiplies it
        # by R(-4 dt) per step, R(z) = (1 + z/2) / (1 - z/2).  The scheme's own
        # time error |R(-0.2)^10 - exp(-2)| = 9.05e-4 is not asked of evolve,
        # which returns the trajectory at the scheme's time nodes.
        dt = 0.05
        z = -4 * dt
        amp = (1 + z / 2) / (1 - z / 2)
        grid = cgl_grid(96, 0.0, np.pi)
        for k, line in enumerate(lines[1:]):
            row = np.array([float(x) for x in line.split(",")])
            assert row[0] == pytest.approx(k * dt)
            want = amp**k * np.sin(grid.nodes)
            assert np.max(np.abs(row[1::2] - want)) <= 1e-10
            assert np.max(np.abs(row[2::2])) <= 1e-10

    @pytest.mark.parametrize("t_final", [1, 10])
    def test_decayed_contour_solution_converges(self, tmp_path, t_final):
        # e^{-25 t} sin 2x falls to 1.4e-11 at t = 1, below the round-off of
        # a contour sum of unit size: the self-error is taken against the data
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "operator = diag:-1", "operator = laplacian:1").replace(
            "n_nodes = 96", "n_nodes = 32").replace(
            "type = sines\ncoefficients = 1.0, 0.5", "type = zero") + f"""
[evolve]
scheme = CONTOUR
dt = 0.5
t_final = {t_final}
v0 = sine:2
""")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", comments="#")
        x = cgl_grid(32, 0.0, np.pi).nodes
        assert len(rows) == 1 + 2 * t_final
        v0_max = np.max(np.abs(np.sin(2 * x)))
        for row in rows:
            want = np.exp(-25.0 * row[0]) * np.sin(2 * x)
            assert np.max(np.abs(row[1::2] + 1j * row[2::2] - want)) <= 1e-11 * v0_max

    def test_angle_gate_exit5(self, tmp_path):
        A = np.diag([-np.exp(1.0j), -np.exp(-1.0j)])
        write_operator_file(tmp_path / "op.txt", A)
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "operator = diag:-1", "operator = file:op.txt").replace(
            "type = sines\ncoefficients = 1.0, 0.5", "type = zero") + """
[evolve]
scheme = IMPLICIT_EULER
dt = 0.1
t_final = 0.3
v0 = zero
""")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 5


    @staticmethod
    def _growth_probe_config(tmp_path, value):
        return write_config(tmp_path / "c.cfg", DEMO.replace(
            "type = sines\ncoefficients = 1.0, 0.5", "type = zero") + f"""
[evolve]
scheme = IMPLICIT_EULER
dt = 0.25
t_final = 0.5
v0 = sine:1
growth_probe = {value}
""")

    @pytest.mark.parametrize("value", ["yes", "1", "on", "True"])
    def test_growth_probe_boolean_spellings(self, tmp_path, capsys, value):
        cfg = self._growth_probe_config(tmp_path, value)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "growth_bound_M = " in capsys.readouterr().out

    @pytest.mark.parametrize("old, new, message", [
        ("bc_family = 1", "bc_family = 3", "growth bound probe excludes families"),
        ("operator = diag:-1", "operator = laplacian:60", "dense generator size 2400"),
    ])
    def test_refused_growth_probe_exits_2_before_solving(self, tmp_path, capsys,
                                                         old, new, message):
        cfg = self._growth_probe_config(tmp_path, "true")
        body = (tmp_path / "c.cfg").read_text()
        assert old in body
        write_config(tmp_path / "c.cfg", body.replace(old, new))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("value", ["maybe", ""])
    def test_growth_probe_junk_exits_2(self, tmp_path, capsys, value):
        cfg = self._growth_probe_config(tmp_path, value)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "growth_probe" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("t_final, dt", [(0.5, 0.3), (1.0, 0.3)])
    @pytest.mark.parametrize("scheme", ["IMPLICIT_EULER", "CRANK_NICOLSON", "CONTOUR"])
    def test_t_final_not_a_multiple_of_dt_exits_2(self, tmp_path, capsys, scheme, t_final, dt):
        cfg = write_config(tmp_path / "c.cfg", DEMO.replace(
            "type = sines\ncoefficients = 1.0, 0.5", "type = zero") + f"""
[evolve]
scheme = {scheme}
dt = {dt}
t_final = {t_final}
v0 = sine:1
""")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"t_final = {t_final!r}" in err and f"dt = {dt!r}" in err
        assert not (tmp_path / "trajectory.csv").exists()


class TestCliDenseRoute:
    """Every command on a Jordan-block operator: A has no eigenbasis, so each
    frame is dense (plain-matrix calculus) end to end."""

    @staticmethod
    def _config(tmp_path, body="", bc=1):
        write_operator_file(tmp_path / "op.txt", np.array([[-2.0, 1.0], [0.0, -2.0]]))
        return write_config(tmp_path / "c.cfg", DEMO.replace(
            "operator = diag:-1", "operator = file:op.txt").replace(
            "n_nodes = 96", "n_nodes = 32").replace("bc_family = 1", f"bc_family = {bc}") + body)

    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_solve_residuals(self, tmp_path, capsys, bc):
        cfg = self._config(tmp_path, bc=bc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        residuals = [float(line.split("=")[1]) for line in capsys.readouterr().out.splitlines()
                     if line.startswith("residual")]
        assert len(residuals) == 5 and max(residuals) <= 1e-6  # tol_residual

    def test_sweep(self, tmp_path):
        cfg = self._config(tmp_path, """
[sweep]
radius_min = 1e-1
radius_max = 1e1
n_radii = 3
n_angles = 2
n_nodes = 16
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert '"failures": 0, "n_points": 6' in (tmp_path / "sweep.csv").read_text()

    @pytest.mark.parametrize("scheme", ["IMPLICIT_EULER", "CONTOUR"])
    def test_evolve(self, tmp_path, scheme):
        cfg = self._config(tmp_path, f"""
[evolve]
scheme = {scheme}
dt = 0.05
t_final = 0.1
v0 = sine:1
""")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", comments="#")
        assert rows.shape[0] == 3 and np.all(np.isfinite(rows))


class TestStartupImports:
    """scipy is only imported by the paths that need it (the dense fallback
    and the oracles), so a modal run never loads it; nothing loads a thread
    pool."""

    def test_modal_evolve_leaves_scipy_unloaded(self, tmp_path):
        import subprocess
        import sys

        cfg = write_config(tmp_path / "c.cfg", """
[problem]
operator = laplacian:3
bc_family = 1
[grid]
n_nodes = 32
[forcing]
type = sines
coefficients = 1.0
[evolve]
scheme = CONTOUR
t_final = 0.1
dt = 0.05
v0 = sine:1
""")
        script = (
            "import sys\n"
            "import quartic.cli\n"
            "assert 'scipy' not in sys.modules, 'import quartic.cli loaded scipy'\n"
            "assert 'concurrent.futures' not in sys.modules, "
            "'import quartic.cli loaded concurrent.futures'\n"
            f"rc = quartic.cli.main(['evolve', '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, 'a modal evolve loaded scipy'\n"
            "for name in ('numpy.ma', 'fractions'):\n"
            "    assert name not in sys.modules, f'writing the trajectory loaded {name}'\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "trajectory.csv").exists()


    def test_power_sweep_leaves_numpy_random_unloaded(self, tmp_path):
        import subprocess
        import sys

        from quartic import tolerances

        n_nodes = 344
        assert 6 * n_nodes > tolerances.DENSE_CAP  # every point takes the power route
        cfg = write_config(tmp_path / "c.cfg", f"""
[problem]
operator = laplacian:6
bc_family = 1
[sweep]
radius_min = 1
radius_max = 10
n_radii = 2
n_angles = 1
n_nodes = {n_nodes}
""")
        script = (
            "import sys\n"
            "import quartic.cli\n"
            f"rc = quartic.cli.main(['sweep', '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
            "assert rc == 0, rc\n"
            "for name in ('numpy.random', 'secrets', 'scipy'):\n"
            "    assert name not in sys.modules, f'a power-route sweep loaded {name}'\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 2 + 1


class TestCommandImports:
    """``import quartic`` resolves its exports on first access, and a CLI run
    loads only its own command's module (``cli.main``)."""

    SWEEP = """
[problem]
operator = laplacian:2
bc_family = 1
[sweep]
radius_min = 1
radius_max = 10
n_radii = 2
n_angles = 1
n_nodes = 16
"""
    EVOLVE = """
[problem]
operator = laplacian:2
bc_family = 1
[grid]
n_nodes = 16
[evolve]
scheme = IMPLICIT_EULER
t_final = 0.1
dt = 0.05
v0 = sine:1
"""

    @staticmethod
    def _run(script):
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command, absent", [
        ("sweep", ("evolution", "verify", "oracle")),
        ("evolve", ("spectral", "verify", "oracle")),
    ])
    def test_command_loads_only_its_module(self, tmp_path, command, absent):
        cfg = write_config(tmp_path / "c.cfg", self.SWEEP if command == "sweep" else self.EVOLVE)
        self._run(
            "import sys\n"
            "import quartic.cli\n"
            f"rc = quartic.cli.main([{command!r}, '--config', {cfg!r}, "
            f"'--out', {str(tmp_path)!r}])\n"
            "assert rc == 0, rc\n"
            f"loaded = [m for m in {absent!r} if 'quartic.' + m in sys.modules]\n"
            f"assert not loaded, f'{command} loaded {{loaded}}'\n"
        )

    def test_every_export_resolves(self):
        self._run(
            "import sys\n"
            "import quartic\n"
            "assert 'quartic.bvp' not in sys.modules, 'import quartic loaded bvp'\n"
            "missing = [n for n in quartic.__all__ if getattr(quartic, n, None) is None]\n"
            "assert not missing, missing\n"
            "from quartic import *\n"
            "try:\n"
            "    quartic.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('quartic.no_such_name resolved')\n"
        )

    @pytest.mark.parametrize("name", sorted(
        info.name for info in pkgutil.iter_modules(quartic.__path__)))
    def test_module_exports_resolve(self, name):
        module = importlib.import_module("quartic." + name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, missing


class TestCliVerify:
    def test_default_seed_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        rc = main(["verify", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_tightened_tolerance_fails_controlled(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        rc = main(["verify", "--config", cfg, "--tol-scale", "1e-10"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_checks_per_mode_sweep_norm(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^PASS sweep_per_mode_norm value=", out, flags=re.M)
        assert "# 21/21 checks passed" in out

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        main(["verify", "--config", cfg, "--seed", "77"])
        first = capsys.readouterr().out
        main(["verify", "--config", cfg, "--seed", "77"])
        second = capsys.readouterr().out
        assert first == second


# Runs ``quartic.cli.main`` on the (argv, exit code) pairs of the JSON file
# argv[1] under a profile that records every Python function entered, and
# writes {"entered": [[file, first line], ...], "exits": [...]} to argv[2].  The profile is installed before ``quartic.cli`` is imported, so
# the functions that run at import time count too.
_REACH_CHILD = """
import json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import contextlib, io
from quartic.cli import main
with open(sys.argv[1]) as fh:
    runs = json.load(fh)
exits = []
for argv, _ in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(main(argv))
sys.setprofile(None)
with open(sys.argv[2], "w") as fh:
    json.dump({"entered": sorted(entered), "exits": exits}, fh)
"""

_REACH_CONFIG = """
[problem]
a = 0
b = 3.141592653589793
k = 0
bc_family = {bc}
operator = {operator}
[grid]
n_nodes = 16
kind = {kind}
[forcing]
{forcing}
[solve]
lambda = {lam}
phi1 = 0.25
phi2 = 0
phi3 = 0.1
phi4 = -0.05
tol_residual = 1e-3
[sweep]
radius_min = 0.1
radius_max = 10
n_radii = {n_radii}
n_angles = {n_radii}
n_nodes = {sweep_nodes}
[evolve]
scheme = {scheme}
dt = 0.25
t_final = 0.5
v0 = {v0}
growth_probe = {probe}
"""


class TestReachability:
    """Every function in ``src/quartic`` runs under some ``quartic`` command:
    the package holds nothing that only tests reach.  Such code belongs in
    tests/references.py."""

    # Functions that the runs below need not enter, each with the input that
    # reaches it and the test that covers it.
    ALLOWED = {
        "quartic.__getattr__": "the PEP 562 library entry point quartic.<name> (commands "
                               "enter it only through the import system's probes); "
                               "TestCommandImports::test_every_export_resolves",
        "quartic.bvp._refused_row": "a sweep or contour batch in which one parameter refuses; "
                                    "test_batch.py::TestBatchRefusals",
    }

    @staticmethod
    def _functions(src):
        """{(file, first line): qualified name} of every def under ``src``;
        a decorated function's code starts at its first decorator."""
        import ast

        found = {}
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(src, name))
            module = "quartic" + ("" if name == "__init__.py" else "." + name[:-3])
            with open(path, encoding="utf-8") as fh:
                todo = [(ast.parse(fh.read()), module)]
            while todo:
                node, prefix = todo.pop()
                for child in ast.iter_child_nodes(node):
                    qual = prefix
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                        qual = f"{prefix}.{child.name}"
                    if isinstance(child, ast.FunctionDef):
                        line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        found[(path, line)] = qual
                    todo.append((child, qual))
        return found

    def _runs(self, tmp_path):
        """(argv, exit code) of the command runs: solve, sweep and evolve on
        every family for a diagonal and a one-block (Jordan) operator, each
        scheme, the growth probe, a uniform grid, file and zero data, a
        power-route sweep, a stiff sweep, two refused solves and verify."""
        from test_batch import TestBatchRefusals

        from quartic import tolerances

        write_operator_file(tmp_path / "jordan.txt", [[-1.0, 1.0], [0.0, -1.0]])
        write_operator_file(tmp_path / "rotated.txt", TestBatchRefusals._operator().matrix)
        grid = cgl_grid(16, 0.0, np.pi)
        write_gridfunction_csv(tmp_path / "data.csv", GridFunction(
            grid, np.vstack([np.sin(grid.nodes), 1j * np.sin(2 * grid.nodes)])))
        out = str(tmp_path / "out")
        runs = []

        def add(name, commands, code=0, **fields):
            body = dict(bc=1, operator="laplacian:2", kind="cgl", lam="-4", n_radii=2,
                        sweep_nodes=16, scheme="CONTOUR", v0="sine:1", probe="false",
                        forcing="type = sines\ncoefficients = 1.0, 0.5")
            body.update(fields)
            cfg = write_config(tmp_path / f"{name}.cfg", _REACH_CONFIG.format(**body))
            runs.extend(([command, "--config", cfg, "--out", out], code)
                        for command in commands)
            return cfg

        for name, operator in (("laplacian", "laplacian:2"), ("jordan", "file:jordan.txt")):
            for bc in (1, 2, 3, 4, 5):
                add(f"{name}{bc}", ("solve", "sweep", "evolve"), bc=bc, operator=operator)
        for scheme in ("IMPLICIT_EULER", "CRANK_NICOLSON"):
            add(scheme, ("evolve",), scheme=scheme)
        add("probe", ("evolve",), probe="true")
        add("uniform", ("evolve",), kind="uniform")
        add("zero", ("evolve",), v0="zero")
        add("files", ("evolve",), v0="file:data.csv", forcing="type = file\npath = data.csv")
        # one sweep point with dim * N above DENSE_CAP takes the power route
        add("power", ("sweep",), n_radii=1, sweep_nodes=tolerances.DENSE_CAP // 2 + 1)
        # |X| c = 126 > SEGMENT_EXPONENT: the convolutions run several segments
        add("stiff", ("sweep",), operator="laplacian:40")
        add("cut", ("solve",), 2, lam="1")  # BranchCut: lambda on the cut
        add("refused", ("solve",), 3, bc=3, operator="file:rotated.txt",
            lam=format_complex(TestBatchRefusals.LAM0))  # NotInResolventSet
        runs.append((["verify", "--config", add("verify", ()), "--out", out, "--seed", "7"], 0))
        return runs

    def test_commands_enter_every_function(self, tmp_path):
        import json
        import subprocess
        import sys
        import time

        src = os.path.dirname(cli.__file__)
        functions = self._functions(src)
        assert set(self.ALLOWED) <= set(functions.values())
        runs = self._runs(tmp_path)
        (tmp_path / "runs.json").write_text(json.dumps(runs))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.dirname(src), os.environ.get("PYTHONPATH")) if p))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", _REACH_CHILD,
             str(tmp_path / "runs.json"), str(tmp_path / "result.json")],
            env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "result.json").read_text())
        assert [(argv[0], os.path.basename(argv[2]), code)
                for (argv, want), code in zip(runs, result["exits"]) if code != want] == []
        entered = {(os.path.realpath(f), line) for f, line in result["entered"]}
        missing = sorted(name for key, name in functions.items()
                         if key not in entered and name not in self.ALLOWED)
        assert not missing, "only tests enter " + ", ".join(missing)
        assert elapsed <= 10.0


NON_FINITE_SWEEP_EVOLVE = """
[sweep]
radius_min = 1e-1
radius_max = 1e1
n_radii = 2
n_angles = 2
n_nodes = 12
[evolve]
scheme = IMPLICIT_EULER
dt = 0.25
t_final = 0.5
v0 = sine:1
"""


class TestNonFiniteProblemNumbers:
    @pytest.mark.parametrize("command", ["solve", "sweep", "evolve"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["a", "b", "k", "bc_family", "tol_residual"])
    def test_exit2_names_field(self, tmp_path, capsys, field, value, command):
        body = re.sub(rf"^{field} = .*$", f"{field} = {value}", DEMO, flags=re.M)
        assert body != DEMO
        cfg = write_config(tmp_path / "c.cfg", body + NON_FINITE_SWEEP_EVOLVE)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err or f"bad {field} =" in err


NON_FINITE_DATA = {
    "operator": [("operator = diag:-1", "operator = diag:1e400")],
    "coefficients": [("type = sines", "type = poly"),
                     ("coefficients = 1.0, 0.5", "coefficients = 1e400")],
    "component_weights": [("type = sines", "type = poly"),
                          ("coefficients = 1.0, 0.5",
                           "coefficients = 1e300\ncomponent_weights = 1e300")],
    "phi1": [("phi1 = 0.25", "phi1 = 1e400")],
    "lambda": [("lambda = -4", "lambda = 1e400i")],
}


class TestNonFiniteConfigData:
    """Complex entries that overflow, and forcing samples that do, exit 2
    with a message naming the field."""

    @pytest.mark.parametrize("command", ["solve", "sweep", "evolve"])
    @pytest.mark.parametrize("field", list(NON_FINITE_DATA))
    def test_exit2_names_field(self, tmp_path, capsys, field, command):
        body = DEMO
        for old, new in NON_FINITE_DATA[field]:
            assert old in body
            body = body.replace(old, new)
        cfg = write_config(tmp_path / "c.cfg", body + NON_FINITE_SWEEP_EVOLVE)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("field", ["forcing", "v0"])
    def test_file_with_nan_exit2(self, tmp_path, capsys, field):
        grid = cgl_grid(96, 0.0, np.pi)
        vals = np.sin(grid.nodes)[None, :] + 0j
        vals[0, 5] = np.nan
        write_gridfunction_csv(tmp_path / "f.csv", GridFunction(grid, vals))
        body = DEMO + NON_FINITE_SWEEP_EVOLVE.replace("n_nodes = 12\n", "")
        if field == "forcing":
            body = body.replace("type = sines\ncoefficients = 1.0, 0.5",
                                "type = file\npath = f.csv")
        else:
            body = body.replace("v0 = sine:1", "v0 = file:f.csv")
        cfg = write_config(tmp_path / "c.cfg", body)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "not all finite" in err
        assert not (tmp_path / "trajectory.csv").exists()


class TestOverflowingK:
    @pytest.mark.parametrize("command", ["solve", "sweep", "evolve"])
    def test_exit2_names_k(self, tmp_path, capsys, command):
        body = DEMO.replace("k = 0", "k = 1e200")
        cfg = write_config(tmp_path / "c.cfg", body + NON_FINITE_SWEEP_EVOLVE)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "k = 1e+200" in capsys.readouterr().err


FUZZ_BASE = {
    "problem": {"a": "0", "b": "3.141592653589793", "k": "0", "bc_family": "1",
                "operator": "diag:-1"},
    "grid": {"n_nodes": "16"},
    "sweep": {"radius_min": "1e-1", "radius_max": "1e1", "n_radii": "2",
              "n_angles": "2", "exclusion_radius": "0", "n_nodes": "12"},
    "evolve": {"scheme": "IMPLICIT_EULER", "dt": "0.25", "t_final": "0.5",
               "v0": "sine:1", "contour_points": "8", "growth_probe": "false"},
}
FUZZ_FIELDS = [(sec, key) for sec in ("grid", "sweep", "evolve")
               for key in FUZZ_BASE[sec]]
FUZZ_VALUES = ["", "abc", "nan", "inf", "-inf", "1e400", "-1", "0", "1", "2", "5",
               "2.5", "1e-300", "1e300", "sine:2.5", "true", "CONTOUR"]


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES))
    def test_one_bad_field_maps_to_exit_code(self, tmp_path_factory, field, value):
        sec, key = field
        cfg = {s: dict(kv) for s, kv in FUZZ_BASE.items()}
        cfg[sec][key] = value
        body = "\n".join(f"[{s}]\n" + "\n".join(f"{k} = {v}" for k, v in kv.items())
                         for s, kv in cfg.items())
        out = tmp_path_factory.mktemp("fuzz")
        path = write_config(out / "c.cfg", body)
        command = "sweep" if sec == "sweep" else "evolve"
        assert main([command, "--config", path, "--out", str(out)]) in {0, 2, 3, 4, 5}
