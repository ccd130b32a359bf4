import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartic.bvp import ProblemSpec
from quartic.errors import BranchCut
from quartic.grids import cgl_grid
from quartic.operators import make_operator, sector_angle_probe
from quartic.oracle import dense_generator
from quartic.spectral import (
    INSIDE_SECTOR,
    OUTSIDE_SECTOR,
    VERTEX,
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
