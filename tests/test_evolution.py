import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import smooth_field
from quartic import evolution
from quartic.bvp import ProblemSpec, _lambda_frames, boundary_residuals
from quartic.errors import QuadratureNotConverged, SectorAngleExceeded, StepRejected
from quartic.evolution import (
    EvolutionSpec,
    evolve,
    growth_bound_probe,
)
from quartic.grids import GridFunction, cgl_grid
from quartic.operators import dirichlet_laplacian_modes, make_operator
from quartic.oracle import dense_generator
from references import (
    compatibility_check,
    dense_expm,
    embed,
    project,
    resolvent_apply,
    sine_semigroup_norm,
    write_operator_file,
)
from test_batch import _operator, _relative_gap, _single_time_sum
from test_grids_kernels import _ill_conditioned, _ill_conditioned_basis


# Each family's four conditions in phi order, written out by hand: the number
# of primes is the derivative order, "+Pu" adds the operator times u.
FAMILY_CONDITIONS = {
    1: ("u(a)", "u(b)", "u''(a)", "u''(b)"),
    2: ("u'(a)", "u'(b)", "(u''+Pu)(a)", "(u''+Pu)(b)"),
    3: ("u(a)", "u(b)", "u'(a)", "u'(b)"),
    4: ("u'(a)", "u'(b)", "u''(a)", "u''(b)"),
    5: ("u(a)", "u(b)", "(u''+Pu)(a)", "(u''+Pu)(b)"),
}


def condition_row(name, a, b, p, degree=6):
    """The named condition applied to x^0..x^degree for scalar operator p."""
    x0 = a if name.endswith("(a)") else b

    def deriv(order):
        return np.array([math.perm(j, order) * x0 ** max(j - order, 0)
                         for j in range(degree + 1)])

    row = deriv(name.count("'"))
    return row + p * deriv(0) if "+Pu" in name else row


def semigroup_at(spec, t, v0, n_points=32, rel_tol=1e-6):
    """e^{tG} v0: ``evolve``'s CONTOUR scheme with the one output time t."""
    return evolve(EvolutionSpec(spec, t, v0, dt=t, contour_points=n_points), rel_tol)[-1][1]


def sine_mode(grid, dim=1, m=1):
    prof = np.sin(m * np.pi * (grid.nodes - grid.a) / (grid.b - grid.a))
    return GridFunction(grid, np.tile(prof, (dim, 1)).astype(complex))


class TestContour:
    def test_mode_decay(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(48, 0.0, np.pi)
        v0 = sine_mode(grid)
        u = semigroup_at(spec, 0.5, v0)
        assert np.max(np.abs(u.values - np.exp(-2.0) * v0.values)) <= 1e-8

    def test_strong_continuity_at_small_time(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(48, 0.0, np.pi)
        v0 = sine_mode(grid)
        u = semigroup_at(spec, 1e-3, v0)
        assert np.max(np.abs(u.values - v0.values)) <= 5e-3

    def test_strong_continuity_monotone_dyadic(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(40, 0.0, np.pi)
        v0 = sine_mode(grid)
        gaps = []
        for t in (0.2, 0.1, 0.05, 0.025):
            u = semigroup_at(spec, t, v0)
            gaps.append(float(np.max(np.abs(u.values - v0.values))))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_semigroup_law(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(48, 0.0, np.pi)
        v0 = sine_mode(grid) + GridFunction(grid, 0.3 * sine_mode(grid, m=2).values)
        u_two = semigroup_at(spec, 0.3, semigroup_at(spec, 0.7, v0))
        u_one = semigroup_at(spec, 1.0, v0)
        rel = np.max(np.abs(u_two.values - u_one.values)) / np.max(np.abs(u_one.values))
        assert rel <= 1e-5

    def test_matches_dense_exponential(self, rng, scalar_op):
        # sine-mode combination: smooth and exactly in the discrete domain
        # 32 nodes: the dense exponential's own round-off (fourth-derivative
        # scale times the squaring count) stays well under the gap tolerance
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        gen = dense_generator(spec, 32)
        grid = gen.grid
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        vals = sum(c * np.sin((m + 1) * grid.nodes) for m, c in enumerate(coeffs))
        v0 = GridFunction(grid, vals[None, :])
        v_in = v0.values.T.reshape(-1)[gen.iidx]
        t = 0.35
        u_c = semigroup_at(spec, t, v0)
        u_d = embed(gen, dense_expm(gen.generator, t, v_in))
        rel = np.max(np.abs(u_c.values - u_d)) / np.max(np.abs(u_d))
        assert rel <= 1e-6


class TestContourWindow:
    """Output times of a window share one hyperbola and its node solves."""

    def test_node_solves_shared_by_outputs(self, monkeypatch):
        # laplacian:3, N = 64, steady forcing, 2 outputs: one window of one
        # refinement, 32 + 31 nodes, where one contour per output took 192
        A = dirichlet_laplacian_modes(3)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(64, 0.0, np.pi)
        v0 = sine_mode(grid, dim=3)
        weights = np.array([0.7, 1.1, 0.9])
        fvals = weights[:, None] * v0.values
        lams = []

        def counting(spec_, nodes):
            lams.extend(np.atleast_1d(nodes))
            return _lambda_frames(spec_, nodes)

        monkeypatch.setattr(evolution, "_lambda_frames", counting)
        es = EvolutionSpec(spec, 0.1, v0, forcing=lambda t: fvals, dt=0.05,
                           contour_points=32)
        traj = evolve(es)
        assert len(lams) <= 63
        rho = (1.0 + np.arange(1, 4) ** 2.0) ** 2  # -A_ii = i^2, rate (1 + i^2)^2
        for t, u in traj[1:]:
            e = np.exp(-rho * t)
            want = (e + (1 - e) * weights / rho)[:, None] * v0.values
            assert _relative_gap(u.values, want) <= 1e-10

    @pytest.mark.parametrize("name,n_nodes", [("laplacian3", 32), ("cond30", 32),
                                              ("jordan", 12)])
    def test_time_dependent_forcing_matches_per_output_sums(self, rng, name, n_nodes):
        # 4 outputs in one window, 6 distinct data columns (v0 and 5 samples);
        # each output against its own contour (mu = 0.4 n / t) at n = 64
        A = _operator(name)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(n_nodes, 0.0, np.pi)
        v0 = smooth_field(rng, grid, A.dim).values
        g0, g1 = (smooth_field(rng, grid, A.dim).values for _ in range(2))

        def forcing(t):
            return np.cos(3.0 * t) * g0 + t * g1

        traj = evolve(EvolutionSpec(spec, 0.4, GridFunction(grid, v0), forcing=forcing,
                                    dt=0.1))
        ts = np.linspace(0.0, 0.4, 5)
        f_samples = [forcing(t) for t in ts]
        columns, sel = evolution._distinct_columns([v0] + f_samples)
        assert len(traj) == 5
        for t, u in traj[1:]:
            payload = evolution._forced_payload(grid, sel[0], sel[1:], ts, t)
            ref = _single_time_sum(spec, payload, columns, 64)
            assert _relative_gap(u.values, ref) <= 1e-10

    def test_budget_exhausted_names_node_count(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(32, 0.0, np.pi)
        n = 32
        for _ in range(evolution.MAX_REFINEMENTS):
            n = 2 * n - 1
        with pytest.raises(QuadratureNotConverged, match=f"above 1e-17 at {n} nodes"):
            semigroup_at(spec, 0.5, sine_mode(grid), n_points=32, rel_tol=1e-17)

    def test_wide_sector_matches_dense_exponential(self):
        # sector half-angle 0.5: a window narrows until the vertex factor
        # e^{t lam} stays bounded, and the quadrature converges
        A = make_operator(np.diag([-np.exp(0.5j), -2.0 * np.exp(-0.5j)]))
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        gen = dense_generator(spec, 32)
        grid = gen.grid
        v0 = GridFunction(grid, np.vstack([np.sin(grid.nodes),
                                           np.sin(2 * grid.nodes)]).astype(complex))
        v_in = v0.values.T.reshape(-1)[gen.iidx]
        traj = evolve(EvolutionSpec(spec, 1.0, v0, dt=0.125))
        for t, u in traj[1:]:
            u_d = embed(gen, dense_expm(gen.generator, t, v_in))
            assert _relative_gap(u.values, u_d) <= 1e-6

    def test_jordan_block_matches_dense_exponential(self):
        # one Schur block per node, the nodes solved in batches; measured
        # <= 4.1e-8
        spec = ProblemSpec(0.0, np.pi, 0.0, make_operator([[-2.0, 1.0], [0.0, -2.0]]), 1)
        gen = dense_generator(spec, 32)
        grid = gen.grid
        v0 = GridFunction(grid, np.vstack([np.sin(grid.nodes),
                                           np.sin(2 * grid.nodes)]).astype(complex))
        v_in = v0.values.T.reshape(-1)[gen.iidx]
        traj = evolve(EvolutionSpec(spec, 1.0, v0, dt=0.5))
        assert len(traj) == 3
        for t, u in traj[1:]:
            u_d = embed(gen, dense_expm(gen.generator, t, v_in))
            assert _relative_gap(u.values, u_d) <= 1e-6

    def test_ill_conditioned_block_matches_eigen_exponential(self):
        # the eig_cond 4.4e6 A of TestDenseRouteConvolution, A = V diag(w)
        # V^{-1}: on sin(x) c, G = -(d^2 + A)^2 acts as -(A - I)^2, so the
        # solution is sin(x) V e^{-t (w - 1)^2} V^{-1} c, with a transient of
        # 1.7e6 (scipy's expm of -(A - I)^2, as dense_expm, is off by 100 %
        # here).  Measured <= 1.4e-5
        V = _ill_conditioned_basis(1e7)
        w = np.array([-1.0, -4.0, -9.0, -16.0])
        A = _ill_conditioned(1e7)
        assert not A.diagonalizable
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(16, 0.0, np.pi)
        v0 = sine_mode(grid, dim=4)
        for t, u in evolve(EvolutionSpec(spec, 0.1, v0, dt=0.05))[1:]:
            c = V @ (np.exp(-t * (w - 1) ** 2) * np.linalg.solve(V, np.ones(4)))
            assert _relative_gap(u.values, np.outer(c, np.sin(grid.nodes))) <= 1e-4

    # vertex exponents mu t_s (1 - sin beta): 13.4, 22.9, 42.6 and 179
    @pytest.mark.parametrize("theta", [0.62, 0.66, 0.69, 0.72])
    def test_wide_sector_converges_or_refuses(self, monkeypatch, tmp_path, capsys, theta):
        # below ln(1/eps) = 36 the sum matches the dense exponential on the
        # data's scale (the quadrature's error model: a decayed output lies
        # below the round-off of the sum, up to 4e-6 of its own size at
        # theta = 0.66, t = 1); above it the window refuses before any node
        # is solved, where 0.72 used to exit 0 with values near 4e73
        from quartic.cli import main

        A = np.diag([-np.exp(1j * theta), -2.0 * np.exp(-1j * theta)])
        spec = ProblemSpec(0.0, np.pi, 0.0, make_operator(A), 1)
        gen = dense_generator(spec, 32)
        grid = gen.grid
        v0 = sine_mode(grid, dim=2)
        es = EvolutionSpec(spec, 1.0, v0, dt=0.125)
        if theta < 0.67:
            v_in = v0.values.T.reshape(-1)[gen.iidx]
            for t, u in evolve(es)[1:]:
                u_d = embed(gen, dense_expm(gen.generator, t, v_in))
                scale = max(np.max(np.abs(u_d)), np.max(np.abs(v0.values)))
                assert np.max(np.abs(u.values - u_d)) <= 1e-6 * scale, t
            return
        monkeypatch.setattr(evolution, "_lambda_frames", None)  # a node solve would fail
        with pytest.raises(QuadratureNotConverged, match="vertex exponent .* > ln"):
            evolve(es)
        monkeypatch.undo()
        write_operator_file(tmp_path / "op.txt", A)
        (tmp_path / "c.cfg").write_text(
            "[problem]\na = 0\nb = 3.141592653589793\nk = 0\nbc_family = 1\n"
            "operator = file:op.txt\n\n[grid]\nn_nodes = 32\n\n"
            "[evolve]\nscheme = CONTOUR\nt_final = 1\ndt = 0.125\nv0 = sine:1\n")
        assert main(["evolve", "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path)]) == 2
        assert "vertex exponent" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()


def _real_operator(name):
    if name == "laplacian3":
        return dirichlet_laplacian_modes(3)
    if name == "rotation":  # -A has eigenvalues 2 e^{+-0.4i}: sector angle 0.4
        c, s = np.cos(0.4), np.sin(0.4)
        return make_operator(-2.0 * np.array([[c, -s], [s, c]]))
    return _ill_conditioned(30.0)  # real basis with eig_cond 30


def _window_sums_beside_all_nodes(monkeypatch, espec):
    """(window sums, the same rules' sums over all their nodes) for each
    window of evolve(espec): the trapezoid rule on the node count the
    window's refinement reached, at the window's mu, through ``_node_sums``."""
    node_sums, window_sums = evolution._node_sums, evolution._window_sums
    windows = []

    def counting(*args):
        windows[-1][1] += 1
        return node_sums(*args)

    def recording(spec, mu, payloads, columns, n_points, params, *rest):
        windows.append([(spec, mu, payloads, columns, n_points, params), 0])
        out = window_sums(spec, mu, payloads, columns, n_points, params, *rest)
        windows[-1].append(out)
        return out

    monkeypatch.setattr(evolution, "_node_sums", counting)
    monkeypatch.setattr(evolution, "_window_sums", recording)
    evolve(espec)
    monkeypatch.undo()
    pairs = []
    for (spec, mu, payloads, columns, n_points, params), passes, out in windows:
        th = np.linspace(-params.half_width, params.half_width,
                         (n_points - 1) * 2 ** (passes - 1) + 1)
        lam, wgt = params.at(mu, th, th[1] - th[0])
        weights = np.stack([p.transform(lam) * wgt[:, None] for p in payloads])
        pairs.append((out, node_sums(spec, payloads[0].grid, lam, weights, columns)))
    return pairs


class TestConjugatePairs:
    """A real problem solves one node of each conjugate pair."""

    def test_contour_evolve_node_count(self, monkeypatch):
        # the contour-evolve case: 15 pairs and the midpoint th = 0, then 16
        # pairs, 32 of 63 nodes solved in 2 frames, one per pass
        A = dirichlet_laplacian_modes(3)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(64, 0.0, np.pi)
        v0 = sine_mode(grid, dim=3)
        weights = np.array([0.7, 1.1, 0.9])
        fvals = weights[:, None] * v0.values
        frames = []

        def counting(spec_, nodes):
            frames.append(len(np.atleast_1d(nodes)))
            return _lambda_frames(spec_, nodes)

        monkeypatch.setattr(evolution, "_lambda_frames", counting)
        traj = evolve(EvolutionSpec(spec, 0.1, v0, forcing=lambda t: fvals, dt=0.05))
        assert (sum(frames), len(frames)) == (32, 2)
        rho = (1.0 + np.arange(1, 4) ** 2.0) ** 2
        for t, u in traj[1:]:
            assert np.all(u.values.imag == 0.0)
            e = np.exp(-rho * t)
            want = (e + (1 - e) * weights / rho)[:, None] * v0.values
            assert _relative_gap(u.values, want) <= 1e-10

    @pytest.mark.parametrize("bc", [1, 3, 4, 5])
    @pytest.mark.parametrize("name", ["laplacian3", "rotation", "cond30"])
    def test_matches_all_node_sums(self, monkeypatch, rng, name, bc):
        # time-dependent forcing, 4 outputs.  The solves at lam and conj(lam)
        # are conjugates to round-off (the partial-fraction solve is
        # symmetric in P and Q), so the all-node sums carry only a round-off
        # imaginary part: measured gaps and imaginary parts 1.4e-15 to 6.2e-13
        A = _real_operator(name)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        grid = cgl_grid(64, 0.0, np.pi)
        modes = np.sin(np.outer(np.arange(1, 4), grid.nodes))  # (3, N)
        v0, g0, g1 = (rng.normal(size=(A.dim, 3)) @ modes for _ in range(3))

        def forcing(t):
            return np.cos(3.0 * t) * g0 + t * g1

        es = EvolutionSpec(spec, 0.4, GridFunction(grid, v0), forcing=forcing, dt=0.1)
        for out, ref in _window_sums_beside_all_nodes(monkeypatch, es):
            assert np.isrealobj(out)
            assert _relative_gap(out, ref) <= 1e-9

    @pytest.mark.parametrize("case", ["real", "family2", "complex_A", "complex_v0"])
    def test_pairs_only_real_problems(self, monkeypatch, case):
        # every solved node's conjugate is solved too, unless the problem is
        # real and outside family 2; then no solved node has Im lam < 0
        A = make_operator(np.diag([-1.0, -4.0]) + (0.3j if case == "complex_A" else 0.0))
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 2 if case == "family2" else 1)
        grid = cgl_grid(24, 0.0, np.pi)
        v0 = sine_mode(grid, dim=2)
        if case == "complex_v0":
            v0 = GridFunction(grid, v0.values * np.array([[1.0], [1j]]))
        lams = []

        def counting(spec_, nodes):
            lams.extend(-np.atleast_1d(nodes))  # a node's frame is at -lam
            return _lambda_frames(spec_, nodes)

        monkeypatch.setattr(evolution, "_lambda_frames", counting)
        evolve(EvolutionSpec(spec, 0.2, v0, dt=0.1))
        lams = np.array(lams)
        gap = np.min(np.abs(lams[:, None] - np.conj(lams)[None, :]), axis=1)
        closed = np.all(gap <= 1e-12 * np.abs(lams))
        assert closed == (case != "real")
        if case == "real":
            assert np.all(lams.imag >= 0.0)

    def test_decayed_solution_right_of_vertex(self):
        # e^{-25 t} sin 2x over one window [t_s, 8 t_s], where e^{t lam}
        # right of the vertex amplifies the round-off of every node solve:
        # measured 9.3e-14
        A = dirichlet_laplacian_modes(1)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(32, 0.0, np.pi)
        v0 = GridFunction(grid, np.sin(2 * grid.nodes)[None, :])
        traj = evolve(EvolutionSpec(spec, 4.0, v0, dt=0.5))
        assert len(traj) == 9
        for t, u in traj[1:]:
            want = np.exp(-25.0 * t) * v0.values
            assert np.max(np.abs(u.values - want)) <= 1e-11 * np.max(np.abs(v0.values)), t


def _dense_steps(gen, v0, forcing, scheme, dt, n_steps):
    """The implicit scheme's steps through the dense generator's resolvent
    at the scheme's shift, as (n_steps, dim, N) node values."""
    shift = -1.0 / dt if scheme == "IMPLICIT_EULER" else -2.0 / dt
    f = forcing or (lambda t: np.zeros_like(v0))
    v, t, out = v0, 0.0, []
    for _ in range(n_steps):
        if scheme == "IMPLICIT_EULER":
            v = embed(gen, resolvent_apply(gen, shift, (v + dt * f(t + dt)) / dt))
        else:
            fbar = 0.5 * (f(t) + f(t + dt))
            v = 2.0 * embed(gen, resolvent_apply(gen, shift, (2.0 / dt) * (v + 0.5 * dt * fbar))) - v
        t += dt
        out.append(v)
    return np.array(out)


class TestRealImplicitSteps:
    """Implicit steps of a real problem are exactly real; any other problem
    keeps the imaginary parts of its solves."""

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("bc", [1, 3, 4, 5])
    @pytest.mark.parametrize("name", ["laplacian3", "cond30"])
    @pytest.mark.parametrize("scheme", ["IMPLICIT_EULER", "CRANK_NICOLSON"])
    def test_real_problem_steps_are_real(self, rng, scheme, name, bc, forced):
        # the dense generator's steps at N = 48, with the bound of
        # TestContour's dense-exponential comparison: measured gaps 1.4e-8
        # to 4.9e-8 (at N = 32 the discretizations differ by up to 2.3e-6)
        A = _real_operator(name)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        gen = dense_generator(spec, 48)
        modes = np.sin(np.outer(np.arange(1, 4), gen.grid.nodes))  # (3, N)
        v0, g0, g1 = (rng.normal(size=(A.dim, 3)) @ modes for _ in range(3))

        def forcing(t):
            return np.cos(3.0 * t) * g0 + t * g1

        forcing = forcing if forced else None
        es = EvolutionSpec(spec, 0.4, GridFunction(gen.grid, v0), forcing=forcing,
                           scheme=scheme, dt=0.1)
        traj = evolve(es)
        assert all(np.all(u.values.imag == 0.0) for _, u in traj)
        ref = _dense_steps(gen, v0, forcing, scheme, 0.1, 4)
        assert _relative_gap(np.array([u.values for _, u in traj[1:]]), ref) <= 1e-6

    @pytest.mark.parametrize("scheme", ["IMPLICIT_EULER", "CRANK_NICOLSON"])
    @pytest.mark.parametrize("case", ["family2", "complex_A", "complex_v0", "complex_forcing"])
    def test_other_problems_keep_imaginary_parts(self, scheme, case):
        A = make_operator(np.diag([-1.0, -4.0]) + (0.3j if case == "complex_A" else 0.0))
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 2 if case == "family2" else 1)
        grid = cgl_grid(24, 0.0, np.pi)
        v0 = sine_mode(grid, dim=2)
        if case == "complex_v0":
            v0 = GridFunction(grid, v0.values * np.array([[1.0], [1j]]))
        fvals = 1j * sine_mode(grid, dim=2).values
        es = EvolutionSpec(spec, 0.2, v0, scheme=scheme, dt=0.1,
                           forcing=(lambda t: fvals) if case == "complex_forcing" else None)
        assert np.any(evolve(es)[-1][1].values.imag != 0.0)


class TestEvolve:
    def test_zero_everything(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(32, 0.0, np.pi)
        es = EvolutionSpec(spec, 0.5, GridFunction.zeros(grid, 1),
                           scheme="IMPLICIT_EULER", dt=0.1)
        traj = evolve(es)
        assert all(np.max(np.abs(u.values)) == 0.0 for _, u in traj)

    @pytest.mark.parametrize("scheme,order", [("IMPLICIT_EULER", 1), ("CRANK_NICOLSON", 2)])
    def test_scheme_convergence_order(self, scalar_op, scheme, order):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(40, 0.0, np.pi)
        v0 = sine_mode(grid)
        errs, dts = [], [0.1, 0.05, 0.025]
        for dt in dts:
            es = EvolutionSpec(spec, 1.0, v0, scheme=scheme, dt=dt)
            traj = evolve(es)
            errs.append(np.max(np.abs(traj[-1][1].values - np.exp(-4.0) * v0.values)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(order, abs=0.15)

    def test_contour_trajectory_matches_exact(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(40, 0.0, np.pi)
        v0 = sine_mode(grid)
        es = EvolutionSpec(spec, 0.8, v0, scheme="CONTOUR", dt=0.2)
        traj = evolve(es)
        for t, u in traj[1:]:
            assert np.max(np.abs(u.values - np.exp(-4 * t) * v0.values)) <= 1e-6

    def test_constant_forcing_reaches_steady_state(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        gen = dense_generator(spec, 40)
        grid = gen.grid
        fvals = np.tile(np.sin(grid.nodes), (1, 1)).astype(complex)
        es = EvolutionSpec(spec, 5.0, GridFunction.zeros(grid, 1),
                           forcing=lambda t: fvals, scheme="CONTOUR", dt=1.0)
        traj = evolve(es)
        # steady state: -G u = f on the interior dofs
        u_inf = embed(gen, np.linalg.solve(gen.minus_generator,
                                          project(gen, fvals)))
        gap = np.max(np.abs(traj[-1][1].values - u_inf))
        assert gap <= 1e-4

    def test_forced_crank_nicolson_matches_exact_mode(self, scalar_op):
        # forcing on the first mode: v(t) = (1 - e^{-4t})/4 * sin
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(40, 0.0, np.pi)
        fvals = sine_mode(grid).values
        es = EvolutionSpec(spec, 1.0, GridFunction.zeros(grid, 1),
                           forcing=lambda t: fvals, scheme="CRANK_NICOLSON", dt=0.005)
        traj = evolve(es)
        want = (1 - np.exp(-4.0)) / 4.0 * fvals
        assert np.max(np.abs(traj[-1][1].values - want)) <= 1e-5

    def test_step_rejected_when_shift_hits_cut(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 3.0, scalar_op, 1)
        grid = cgl_grid(24, 0.0, np.pi)
        # k = 3: shift -1/dt = -1 lies inside (-k^2/4, inf) = branch region
        es = EvolutionSpec(spec, 2.0, sine_mode(grid), scheme="IMPLICIT_EULER", dt=1.0)
        with pytest.raises(StepRejected):
            evolve(es)

    def test_angle_gate(self):
        A = make_operator(np.diag([-np.exp(1.0j), -np.exp(-1.0j)]))
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(24, 0.0, np.pi)
        es = EvolutionSpec(spec, 1.0, GridFunction.zeros(grid, 2),
                           scheme="IMPLICIT_EULER", dt=0.1)
        with pytest.raises(SectorAngleExceeded):
            evolve(es)


class TestGrowthBound:
    def test_mode_decay_gives_unit_constant(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        m_fit, samples = growth_bound_probe(spec, np.linspace(0, 2, 9))
        assert m_fit == pytest.approx(1.0, abs=1e-9)
        assert samples[0] == (0.0, 1.0)

    # largest relative gaps measured 7.7e-7, 6.3e-7 and 1.7e-6
    @pytest.mark.parametrize("A, k", [([[-1.0]], 2.0), (np.diag([-1.0, -4.0, -9.0]), 1.0),
                                      ([[-2.0, 3.0], [0.0, -5.0]], 2.0)],
                             ids=["scalar", "diag3", "triangular"])
    def test_drift_envelope_dominates(self, A, k):
        """Every sample with drift k against sup_j ||e^{-t(j^2 - A)(j^2 - A + k)}||_2,
        and that closed form under the fitted envelope M e^{t k^2/4}."""
        op = make_operator(A)
        m_fit, samples = growth_bound_probe(ProblemSpec(0.0, np.pi, k, op, 1),
                                            np.linspace(0, 1.5, 7))
        for t, nrm in samples:
            want = sine_semigroup_norm(op.matrix, t, k=k)
            assert abs(nrm - want) <= 1e-4 * want
            assert want <= m_fit * np.exp(t * k * k / 4.0) * (1.0 + 1e-4)

    def test_fit_stable_under_grid_refinement(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        m1, _ = growth_bound_probe(spec, np.linspace(0, 2, 9))
        m2, _ = growth_bound_probe(spec, np.linspace(0, 2, 17))
        assert abs(m1 - m2) <= 0.05 * m1

    def test_families34_rejected(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 3)
        with pytest.raises(ValueError):
            growth_bound_probe(spec, [0.0, 1.0])

    @pytest.mark.parametrize("cond", [
        1e2,
        # the probe's dense expm fits M = 2.70e4 where the norm reaches 6.06e5
        pytest.param(4.4e6, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP direction 12: the growth probe's scipy expm "
                                "of the dense generator is wrong on a strongly "
                                "non-normal A")),
    ])
    def test_non_normal_samples_match_closed_form(self, cond):
        """Every sampled ||e^{tG}|| of a family-1 problem whose A has
        eigenvector condition ``cond`` against sup_j ||e^{-t(j^2 - A)^2}||_2."""
        A = _ill_conditioned(cond)
        _, samples = growth_bound_probe(ProblemSpec(0.0, np.pi, 0.0, A, 1),
                                        np.linspace(0, 0.5, 9))
        for t, nrm in samples:
            want = sine_semigroup_norm(A.matrix, t)
            assert abs(nrm - want) <= 1e-4 * want


class TestDuhamel:
    """CONTOUR trajectories with forcing against the Duhamel formula
    e^{tG} v0 + int_0^t e^{(t-s)G} f(s) ds in closed form.  On family 1 with
    k = 0, G sin(jx) e = -(j^2 - A)^2 sin(jx) e, so each mode evolves under
    the matrix M_j = (j^2 - A)^2."""

    @pytest.mark.parametrize("forcing, duhamel", [
        pytest.param(lambda t: 0.7, lambda t: 0.7 * (1.0 - np.exp(-4.0 * t)) / 4.0,
                     id="steady"),
        pytest.param(lambda t: 0.7 * t,
                     lambda t: 0.7 * (t / 4.0 - (1.0 - np.exp(-4.0 * t)) / 16.0),
                     id="ramp"),
    ])
    def test_scalar_mode_closed_form(self, scalar_op, forcing, duhamel):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(48, 0.0, np.pi)
        v0 = sine_mode(grid)
        traj = evolve(EvolutionSpec(spec, 1.0, v0,
                                    forcing=lambda t: forcing(t) * v0.values,
                                    dt=0.25, contour_points=24))
        assert len(traj) == 5
        for t, u in traj[1:]:
            want = (np.exp(-4.0 * t) + duhamel(t)) * v0.values
            assert np.max(np.abs(u.values - want)) <= 1e-9

    def test_non_normal_system_two_modes(self):
        """v0 on mode 1 and a ramp forcing on mode 2 with a triangular A, so
        the mode matrices do not commute with the data's directions."""
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        spec = ProblemSpec(0.0, np.pi, 0.0, make_operator(A), 1)
        grid = cgl_grid(48, 0.0, np.pi)
        e0, F = np.array([1.0, -0.5]), np.array([0.3, 0.8])
        s1, s2 = np.sin(grid.nodes), np.sin(2 * grid.nodes)
        eye = np.eye(2)
        M1, M2 = (eye - A) @ (eye - A), (4 * eye - A) @ (4 * eye - A)
        M2inv = np.linalg.inv(M2)
        v0 = GridFunction(grid, (e0[:, None] * s1).astype(complex))
        traj = evolve(EvolutionSpec(
            spec, 1.0, v0, forcing=lambda t: (t * F[:, None] * s2).astype(complex),
            dt=0.25, contour_points=24))
        for t, u in traj[1:]:
            # int_0^t e^{-(t-s) M2} s F ds = M2^{-1} t F - M2^{-2} (I - e^{-t M2}) F
            ramp = M2inv @ (t * F) - M2inv @ M2inv @ (eye - expm(-t * M2)) @ F
            want = (expm(-t * M1) @ e0)[:, None] * s1 + ramp[:, None] * s2
            assert np.max(np.abs(u.values - want)) <= 1e-9


class TestCompatibility:
    def test_zero_data_compatible(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(32, 0.0, np.pi)
        es = EvolutionSpec(spec, 1.0, GridFunction.zeros(grid, 1),
                           scheme="IMPLICIT_EULER", dt=0.1)
        ok, violated, note = compatibility_check(es)
        assert ok and not violated
        assert "not discriminating" in note

    def test_dirichlet_violation_named(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(32, 0.0, np.pi)
        vals = np.cos(grid.nodes)[None, :].astype(complex)  # u(a) = 1 != 0
        es = EvolutionSpec(spec, 1.0, GridFunction(grid, vals),
                           scheme="IMPLICIT_EULER", dt=0.1)
        ok, violated, _ = compatibility_check(es)
        assert not ok
        assert any("u(a)" in v for v in violated)

    @pytest.mark.parametrize("bc", sorted(FAMILY_CONDITIONS))
    @pytest.mark.parametrize("broken", range(4))
    def test_single_broken_condition_named(self, scalar_op, bc, broken):
        names = FAMILY_CONDITIONS[bc]
        p = scalar_op.matrix[0, 0]
        rows = np.array([condition_row(name, 0.0, np.pi, p) for name in names])
        # degree-6 polynomial meeting three conditions and missing one by 1;
        # the 7-point derivative stencils are exact on it
        coeff = np.linalg.lstsq(rows, np.eye(4)[broken], rcond=None)[0]
        grid = cgl_grid(32, 0.0, np.pi)
        u = GridFunction(grid, np.polynomial.polynomial.polyval(grid.nodes, coeff))
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, bc)
        es = EvolutionSpec(spec, 1.0, u, scheme="IMPLICIT_EULER", dt=0.1)
        ok, violated, _ = compatibility_check(es)
        assert not ok
        assert [v.split(" ")[0] for v in violated] == [names[broken].replace("P", "A")]
        res = boundary_residuals(grid, u, [np.zeros(1)] * 4, bc, scalar_op.matrix)
        assert set(res) == set(names)
        assert res[names[broken]] == pytest.approx(1.0, rel=1e-6)
        assert all(res[name] <= 1e-8 for name in names if name != names[broken])

    def test_sine_mode_compatible(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(32, 0.0, np.pi)
        es = EvolutionSpec(spec, 1.0, sine_mode(grid),
                           scheme="IMPLICIT_EULER", dt=0.1)
        ok, violated, _ = compatibility_check(es)
        assert ok, violated
