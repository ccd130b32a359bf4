import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic import cli
from quartic.cli import main
from quartic.errors import ConfigError
from quartic.grids import GridFunction, cgl_grid
from quartic.io import (
    format_complex,
    parse_complex,
    read_gridfunction_csv,
    read_operator_file,
    write_gridfunction_csv,
    write_operator_file,
    write_trajectory_csv,
)

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

    @settings(max_examples=200, deadline=None)
    @given(finite, finite)
    def test_roundtrip_property(self, re, im):
        z = complex(re, im)
        assert parse_complex(format_complex(z)) == z


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
    def test_roundtrip(self, tmp_path, rng):
        grid = cgl_grid(20, 0.0, np.pi)
        gf = GridFunction(grid, rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20)))
        path = tmp_path / "f.csv"
        write_gridfunction_csv(path, gf)
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
        from quartic.bvp import build_pq_lambda
        from quartic.operators import make_operator

        th = 0.5
        A = make_operator(np.diag([-np.exp(1j * th), -np.exp(-1j * th)]))
        c = np.pi

        def vmin(lam):
            P, Q, B = build_pq_lambda(A, 0.0, lam)
            p = np.diag(P.matrix)
            q = np.diag(Q.matrix)
            b = np.diag(B.matrix)
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
        from quartic.io import format_complex, write_operator_file

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
        assert text.splitlines()[0] == "lambda_re,lambda_im,resolvent_norm,ratio,frame_ok"
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

    def test_angle_gate_exit5(self, tmp_path):
        from quartic.io import write_operator_file

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
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "trajectory.csv").exists()


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

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", DEMO)
        main(["verify", "--config", cfg, "--seed", "77"])
        first = capsys.readouterr().out
        main(["verify", "--config", cfg, "--seed", "77"])
        second = capsys.readouterr().out
        assert first == second


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
