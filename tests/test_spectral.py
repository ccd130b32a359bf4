import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartic.bvp import ProblemSpec, _lambda_frame, _seed_conjugate_kit, resolvent_matrix
from quartic.errors import BranchCut, NonFinite
from quartic.grids import cgl_grid
from quartic.operators import (
    dirichlet_laplacian_modes,
    make_operator,
    operator_norm,
    sector_angle_probe,
)
from quartic.oracle import dense_generator
from quartic.spectral import (
    INSIDE_SECTOR,
    OUTSIDE_SECTOR,
    VERTEX,
    _adjoint_operator,
    _map_norm_power,
    _ritz_norm,
    _start_vector,
    branch_angle_check,
    classify_lambda,
    classify_lambda_by_argument,
    decay_diagnostics,
    generator_sector_check,
    make_sweep_grid,
    run_sweep,
)


class TestClassify:
    def test_negative_real_outside_ray_sector(self):
        assert classify_lambda(-1.0, 0.0, 0.0) == OUTSIDE_SECTOR

    def test_positive_real_inside_ray_sector(self):
        assert classify_lambda(1.0, 0.0, 0.0) == INSIDE_SECTOR

    def test_vertex(self):
        assert classify_lambda(-1.0, 2.0, 0.0) == VERTEX

    def test_boundary_is_inside_closed_sector(self):
        th = 0.3
        lam = 2.0 * np.exp(1j * 2 * th)  # exactly on the boundary ray
        assert classify_lambda(lam, 0.0, th) == INSIDE_SECTOR
        assert classify_lambda_by_argument(lam, 0.0, th) == INSIDE_SECTOR

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(0, 3), st.floats(0, 1.5))
    def test_equivalence_property(self, re, im, k, theta):
        lam = complex(re, im)
        w = lam + k * k / 4.0
        if w != 0:
            # the two tests agree except within float resolution of the
            # sector boundary, where atan2 cannot separate the rays
            assume(abs(np.angle(-w) + np.pi) > 1e-9)
            assume(abs(np.angle(-w) - np.pi) > 1e-9)
            assume(abs(abs(np.angle(w)) - 2 * theta) > 1e-9)
        assert classify_lambda(lam, k, theta) == \
            classify_lambda_by_argument(lam, k, theta)

    def test_equivalence_bulk(self, rng):
        k, theta = 1.0, 0.4
        pts = rng.normal(size=10_000) * 40 + 1j * rng.normal(size=10_000) * 40
        for lam in pts[:10_000]:
            assert classify_lambda(lam, k, theta) == \
                classify_lambda_by_argument(lam, k, theta)


class TestBranchAngles:
    def test_real_ray_gives_right_angles(self):
        th1, th2, ok = branch_angle_check(-5.0, 0.0, 0.0)
        assert th1 == pytest.approx(np.pi / 2)
        assert th2 == pytest.approx(np.pi / 2)
        assert ok

    def test_formula_values(self):
        theta_a = 0.2
        lam = -0.25 + np.exp(1j * (np.pi - 0.01))  # vertex + unit offset, k=1
        w = -lam - 0.25
        th1, th2, ok = branch_angle_check(lam, 1.0, theta_a)
        assert th1 == pytest.approx(max(theta_a, abs(np.angle(w) + np.pi) / 2))
        assert th2 == pytest.approx(max(theta_a, abs(np.angle(w) - np.pi) / 2))
        assert ok

    def test_flag_tightens_toward_sector_boundary(self):
        # approaching the closed sector the inequality margin collapses
        theta_a = 0.3
        margins = []
        for eps in (0.5, 0.1, 0.01):
            lam = 2.0 * np.exp(1j * (2 * theta_a + eps))
            _, _, ok = branch_angle_check(lam, 0.0, theta_a)
            assert ok
            worst = max(abs(np.angle(-lam) + np.pi), abs(np.angle(-lam) - np.pi))
            margins.append(2 * (np.pi - theta_a) - worst)
        assert margins[0] > margins[1] > margins[2] > 0
        assert margins[2] == pytest.approx(0.01, rel=1e-6)

    def test_vertex_rejected(self):
        with pytest.raises(BranchCut):
            branch_angle_check(-0.25, 1.0, 0.0)


class TestSweepGrid:
    def test_points_outside_sector(self):
        g = make_sweep_grid(1.0, 0.1, radii=np.logspace(-1, 2, 8), n_angles=6)
        for lam in g.points():
            assert classify_lambda(lam, 1.0, 0.1) == OUTSIDE_SECTOR

    def test_exclusion_radius_respected(self):
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-2, 1, 10),
                            n_angles=4, exclusion_radius=0.1)
        assert np.all(np.abs(g.points()) > 0.1)

    def test_families34_need_exclusion(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 3)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 1, 4), n_angles=2)
        with pytest.raises(ValueError):
            run_sweep(spec, g, n_nodes=24)


class TestRunSweep:
    def test_scalar_norm_matches_distance(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0, 10.0]),
                            n_angles=2, angle_min=np.pi)  # negative real axis
        rep = run_sweep(spec, g, n_nodes=40)
        evs = np.array([(m * m + 1.0) ** 2 for m in range(1, 30)])
        for rec in rep.records:
            want = 1.0 / np.min(np.abs(rec.lam - evs))
            assert rec.norm == pytest.approx(want, rel=1e-3)

    def test_no_failures_for_value_families_even_near_margin(self, scalar_op):
        for bc in (1, 2, 5):
            spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, bc)
            g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-2, 3, 9),
                                n_angles=4, angle_min=0.05)
            rep = run_sweep(spec, g, n_nodes=32)
            assert not rep.failures
            assert np.isfinite(rep.c_empirical)

    def test_exclusion_ball_families(self, scalar_op):
        for bc in (3, 4):
            spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, bc)
            g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-2, 3, 8),
                                n_angles=4, exclusion_radius=5e-3)
            rep = run_sweep(spec, g, n_nodes=32)
            assert rep.r_observed <= max(
                (abs(r.lam - g.vertex) for r in rep.failures), default=0.0) + 1e-12
            good = [r for r in rep.records if r.frame_ok]
            assert len(good) > 0 and np.isfinite(rep.c_empirical)

    def test_zero_not_failing_for_clamped_families_with_drift(self, diag3_op, rng):
        # negative self-adjoint base: the origin stays solvable
        from quartic.bvp import resolvent_solve
        from quartic.grids import GridFunction

        for bc in (3, 4):
            spec = ProblemSpec(0.0, np.pi, 1.0, diag3_op, bc)
            grid = cgl_grid(48, 0.0, np.pi)
            f = GridFunction(grid, np.tile(np.sin(grid.nodes), (3, 1)).astype(complex))
            u = resolvent_solve(spec, 0.0, f)
            assert np.all(np.isfinite(u.values.real))


    def test_power_route_builds_adjoint_once(self, monkeypatch, diag3_op):
        from quartic import spectral, tolerances

        spec = ProblemSpec(0.0, np.pi, 0.0, diag3_op, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0, 3.0, 10.0]),
                            n_angles=1, angle_min=np.pi)  # negative real axis
        dense = run_sweep(spec, g, n_nodes=16)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return make_operator(*args, **kwargs)

        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        monkeypatch.setattr(spectral, "make_operator", counting)
        power = run_sweep(spec, g, n_nodes=16)
        assert [r.note for r in dense.records] == ["dense"] * 3
        assert [r.note for r in power.records] == ["power"] * 3
        assert len(calls) == 1
        # the power route's adjoint is exact only up to quadrature asymmetry
        for d, p in zip(dense.records, power.records):
            assert p.norm == pytest.approx(d.norm, rel=1e-2)


def _unitary(seed, n):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _in_basis(V, spectrum):
    return make_operator((V * np.asarray(spectrum, complex)) @ np.linalg.inv(V))


def _assembled_norms(spec, report, n_nodes):
    grid = cgl_grid(n_nodes, spec.a, spec.b)
    weights = np.repeat(grid.weights, spec.A.dim)
    return [operator_norm(resolvent_matrix(spec, r.lam, grid), weights)
            for r in report.records if r.frame_ok]


def _counting_operator_norm(monkeypatch):
    from quartic import spectral

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return operator_norm(*args, **kwargs)

    monkeypatch.setattr(spectral, "operator_norm", counting)
    return calls


NORMAL_OPERATORS = {
    "rotated": lambda: _in_basis(_unitary(5, 3), [-1.0, -4.0, -9.0]),
    "laplacian3": lambda: dirichlet_laplacian_modes(3),
}


class TestPerModeNorm:
    """Sweep norms of A with a unitary eigenbasis, taken mode by mode."""

    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("op", sorted(NORMAL_OPERATORS))
    def test_matches_assembled_norm_and_failures(self, monkeypatch, op, bc):
        from quartic import tolerances

        A = NORMAL_OPERATORS[op]()
        assert A.eig_cond - 1.0 <= tolerances.UNITARY_BASIS_GAP
        spec = ProblemSpec(0.0, np.pi, 0.5, A, bc)
        # centred on the vertex of k = 0, the grid's point -1e-2 lies on the
        # branch cut of k = 0.5: a refusal both routes must record alike
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-2, 3, 5), n_angles=3,
                            exclusion_radius=5e-3 if bc in (3, 4) else 0.0)
        calls = _counting_operator_norm(monkeypatch)
        per_mode = run_sweep(spec, g, n_nodes=24)
        assert calls == []
        monkeypatch.setattr(tolerances, "UNITARY_BASIS_GAP", -1.0)
        assembled = run_sweep(spec, g, n_nodes=24)
        assert len(calls) == len(assembled.records) - len(assembled.failures)
        assert per_mode.failures == assembled.failures
        assert [r.note for r in per_mode.failures] == ["BranchCut"]
        assert [r.note for r in per_mode.records] == [r.note for r in assembled.records]
        got = [r.norm for r in per_mode.records if r.frame_ok]
        want = [r.norm for r in assembled.records if r.frame_ok]
        assert want == _assembled_norms(spec, per_mode, 24)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spectrum", [[-1.0, -1.0, -4.0], [-4.0, -1.0, -1.0]])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_repeated_eigenvalue_matches_either_route(self, rotate, spectrum):
        V = _unitary(11, 3) if rotate else np.eye(3)
        A = _in_basis(V, spectrum)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 2, 4), n_angles=2)
        rep = run_sweep(spec, g, n_nodes=20)
        assert not rep.failures
        np.testing.assert_allclose([r.norm for r in rep.records],
                                   _assembled_norms(spec, rep, 20), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["cond30", "jordan"])
    def test_non_normal_keeps_assembled_route(self, monkeypatch, case):
        if case == "jordan":
            A = make_operator([[-2.0, 1.0], [0.0, -2.0]])
            assert not A.diagonalizable
        else:
            rng = np.random.default_rng(3)
            q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            A = _in_basis(q1 @ np.diag([1.0, 5.0, 30.0]) @ q2, [-1.0, -4.0, -9.0])
            assert A.diagonalizable and A.eig_cond > 2.0
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 2, 3), n_angles=2)
        calls = _counting_operator_norm(monkeypatch)
        rep = run_sweep(spec, g, n_nodes=20)
        assert not rep.failures
        assert len(calls) == len(rep.records)
        assert [r.norm for r in rep.records] == _assembled_norms(spec, rep, 20)

    def test_non_finite_block_raises(self, monkeypatch, diag3_op):
        from quartic import spectral

        blocks = spectral.resolvent_blocks

        def poisoned(*args, **kwargs):
            out = blocks(*args, **kwargs)
            out[1, 2, 3] = np.nan
            return out

        monkeypatch.setattr(spectral, "resolvent_blocks", poisoned)
        spec = ProblemSpec(0.0, np.pi, 0.0, diag3_op, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0]), n_angles=1, angle_min=np.pi)
        with pytest.raises(NonFinite):
            run_sweep(spec, g, n_nodes=16)


def _cond30_6x6():
    """Spectrum -1..-36 in a real basis with singular values geomspace(1, 30)."""
    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    return _in_basis(q1 @ np.diag(np.geomspace(1.0, 30.0, 6)) @ q2, -np.arange(1, 7.0) ** 2)


ADJOINT_OPERATORS = {"laplacian3": lambda: dirichlet_laplacian_modes(3), "cond30": _cond30_6x6}
ADJOINT_LAMS = [0.56 + 0.21j, -3.0 + 1.0j, 2.0 - 0.3j]


def _spy_seeding(monkeypatch):
    from quartic import spectral

    seeded = []

    def spy(*args):
        seeded.append(_seed_conjugate_kit(*args))
        return seeded[-1]

    monkeypatch.setattr(spectral, "_seed_conjugate_kit", spy)
    return seeded


class TestPowerRoute:
    """Power-iteration sweep points: the adjoint frame shares the forward grid
    kit, conjugated, and the reported norm is a Rayleigh-Ritz value."""

    @pytest.mark.parametrize("lam", ADJOINT_LAMS)
    @pytest.mark.parametrize("k", [0.0, 0.7])
    @pytest.mark.parametrize("op", sorted(ADJOINT_OPERATORS))
    def test_seeded_kit_equals_computed(self, op, k, lam):
        A = ADJOINT_OPERATORS[op]()
        spec = ProblemSpec(0.0, np.pi, k, A, 1)
        adj = ProblemSpec(0.0, np.pi, k, _adjoint_operator(A), 1)
        grid = cgl_grid(48, 0.0, np.pi)
        seeded, own = (_lambda_frame(adj, np.conj(lam)) for _ in range(2))
        assert _seed_conjugate_kit(_lambda_frame(spec, lam), seeded, grid)
        got, want = seeded.grid_kit(grid), own.grid_kit(grid)
        for gen in "ml":
            for name in ("exa", "ebx", "weights"):
                assert np.array_equal(got[gen][name], want[gen][name])
                assert not got[gen][name].flags.writeable
            for g_scan, w_scan in zip(got[gen]["scans"], want[gen]["scans"]):
                assert len(g_scan) == len(w_scan)
                for g_fac, w_fac in zip(g_scan, w_scan):
                    assert np.array_equal(g_fac, w_fac) and not g_fac.flags.writeable

    def test_direct_factorization_not_seeded(self):
        # lam = 0 with k != 0 factors as (A - k, A) for both problems: P' is
        # conj(P), not conj(Q), so the adjoint frame computes its own kit
        A = _cond30_6x6()
        spec = ProblemSpec(0.0, np.pi, 0.7, A, 1)
        adj = ProblemSpec(0.0, np.pi, 0.7, _adjoint_operator(A), 1)
        assert not _seed_conjugate_kit(_lambda_frame(spec, 0.0), _lambda_frame(adj, 0.0),
                                       cgl_grid(24, 0.0, np.pi))

    def test_seeding_changes_no_norm(self, monkeypatch):
        from quartic import spectral, tolerances

        spec = ProblemSpec(0.0, np.pi, 0.0, _cond30_6x6(), 3)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([0.6, 1.5]), n_angles=1,
                            exclusion_radius=0.5)
        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        seeded = _spy_seeding(monkeypatch)
        power = run_sweep(spec, g, n_nodes=24)
        monkeypatch.setattr(spectral, "_seed_conjugate_kit", lambda *args: False)
        unseeded = run_sweep(spec, g, n_nodes=24)
        assert seeded == [True, True]
        assert [r.note for r in power.records] == ["power"] * 2
        assert [r.norm for r in power.records] == [r.norm for r in unseeded.records]

    def test_dense_power_route_not_seeded(self, monkeypatch):
        from quartic import spectral, tolerances

        A = make_operator([[-2.0, 1.0], [0.0, -2.0]])
        assert not A.diagonalizable
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0, 10.0]), n_angles=1,
                            angle_min=np.pi)
        dense = run_sweep(spec, g, n_nodes=16)
        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        seeded = _spy_seeding(monkeypatch)
        power = run_sweep(spec, g, n_nodes=16)
        monkeypatch.setattr(spectral, "_seed_conjugate_kit", lambda *args: False)
        unseeded = run_sweep(spec, g, n_nodes=16)
        assert seeded == [False, False]
        assert [r.note for r in power.records] == ["power"] * 2
        assert [r.norm for r in power.records] == [r.norm for r in unseeded.records]
        for d, p in zip(dense.records, power.records):
            assert p.norm == pytest.approx(d.norm, rel=1e-2)

    # Largest relative gap to the weighted SVD over ADJOINT_LAMS at N = 96.
    # Family 3 is the sweep-power family.  The bounds of families 1, 2, 4 and 5
    # are 10x their measured gaps (1.8e-7, 1.0, 7.1e-2, 1.8e-7): families 2 and
    # 4 do not have the conjugate-transposed problem as their adjoint, so their
    # power norms are not resolvent norms, and these bounds only pin the route.
    @pytest.mark.parametrize("bc, bound", [(3, 1e-8), (1, 2e-6), (2, 10.0), (4, 0.72),
                                           (5, 2e-6)])
    def test_norm_against_weighted_svd(self, bc, bound):
        A = _cond30_6x6()
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        adj = ProblemSpec(0.0, np.pi, 0.0, _adjoint_operator(A), bc)
        grid = cgl_grid(96, 0.0, np.pi)
        w = np.repeat(grid.weights, A.dim)
        for lam in ADJOINT_LAMS:
            want = operator_norm(resolvent_matrix(spec, lam, grid), w)
            got = _map_norm_power(spec, adj, lam, grid, w)
            assert abs(got - want) <= bound * want

    def test_start_vector(self):
        x = _start_vector(1000)
        assert x.shape == (1000,) and x.dtype == complex
        assert np.all(np.isfinite(x))
        np.testing.assert_array_equal(x, _start_vector(1000))
        # standard complex Gaussians: E|x|^2 = 2
        assert abs(np.mean(np.abs(x) ** 2) - 2.0) < 0.3

    def test_ritz_falls_back_on_parallel_iterates(self):
        # B = 1e6 u u^H with x_prev = x + O(eps): the Gram matrix may still
        # factor, but the pencil then amplifies the rounding of B x
        rng = np.random.default_rng(5)
        n = 64
        for _ in range(50):
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            u /= np.linalg.norm(u)
            B = 1e6 * np.outer(u, u.conj())
            w = rng.uniform(0.5, 1.5, n)
            x_prev = u + 1e-16 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            ray = np.sqrt(np.vdot(u, w * (B @ u)).real / np.vdot(u, w * u).real)
            assert _ritz_norm(w, x_prev, u, B @ x_prev, B @ u, ray) == pytest.approx(ray,
                                                                                   rel=1e-9)


class TestDecayDiagnostics:
    def test_scalar_factor_ratio_bounded(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        lams = [-(10.0 ** e) for e in np.linspace(0, 4, 9)]
        diag = decay_diagnostics(spec, lams)
        # scalar closed form: |sqrt((1 - i sqrt(-lam))/(1 + i sqrt(-lam)))| <= 1
        assert diag["ml_lm_bound"] <= 3.0
        assert diag["omega_fit"] > 0
        assert diag["ecm_monotone_decreasing"]
        assert diag["v0_monotone_decreasing"]

    def test_particular_solution_decay_rate(self, scalar_op):
        # two-decade fit of the forcing-to-solution gain against |lam|^(-1/2)
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        lams = [-(10.0 ** e) for e in np.linspace(1, 3, 7)]
        diag = decay_diagnostics(spec, lams)
        rows = diag["rows"]
        dists = np.array([r["dist"] for r in rows])
        v0r = np.array([r["v0_ratio"] for r in rows])
        slope = np.polyfit(np.log(dists), np.log(v0r), 1)[0]
        assert abs(slope - (-0.5)) < 0.5 * 0.5  # within factor ~3 over 2 decades


class TestSectorContainment:
    @pytest.mark.parametrize("bc", [1, 2, 5])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_value_families_real_sector(self, scalar_op, bc, k):
        spec = ProblemSpec(0.0, np.pi, k, scalar_op, bc)
        chk = generator_sector_check(spec, 48)
        assert chk["max_abs_arg"] <= 0.05
        assert chk["max_rel_imag"] <= 1e-6
        assert chk["min_real"] > 0

    @pytest.mark.parametrize("bc", [3, 4])
    def test_clamped_families_sector_or_ball(self, scalar_op, bc):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, bc)
        chk = generator_sector_check(spec, 48)
        evs = chk["eigenvalues"]
        r_obs = max(np.max(np.abs(evs[evs.real <= 0])), 0.0) if np.any(evs.real <= 0) else 0.0
        outside_ball = evs[np.abs(evs) > r_obs + 1e-12]
        assert np.max(np.abs(np.angle(outside_ball))) <= 0.05

    def test_oracle_generator_sector_probe(self, scalar_op):
        # probe the surrogate with the operator-calculus sector machinery
        spec = ProblemSpec(0.0, np.pi, 1.0, scalar_op, 1)
        gen = dense_generator(spec, 32)
        T = make_operator(gen.minus_generator)
        probe = sector_angle_probe(T, 0.05, shift=-0.25,
                                   radii=np.logspace(-1, 2, 10))
        assert not probe.blow_up
        assert np.isfinite(probe.sup_bound)
