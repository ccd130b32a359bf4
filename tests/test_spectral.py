import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartic.bvp import (
    _SOLVERS,
    ProblemSpec,
    ResolventMap,
    _lambda_frames,
    resolvent_matrix,
)
from quartic.errors import BranchCut, NonFinite, NotInResolventSet
from quartic.grids import GridFunction, cgl_grid
from quartic.operators import dirichlet_laplacian_modes, make_operator, operator_norm
from quartic.oracle import dense_generator
from quartic.spectral import (
    INSIDE_SECTOR,
    OUTSIDE_SECTOR,
    VERTEX,
    _start_vector,
    classify_lambda,
    classify_lambda_by_argument,
    krylov_norm,
    make_sweep_grid,
    SweepGrid,
    run_sweep,
)
from references import resolvent_apply, sine_resolvent_norm
from spectral_diagnostics import branch_angle_check, decay_diagnostics, generator_sector_check
from test_grids_kernels import _ill_conditioned


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
        # one frame per power point: the adjoint frame is derived, not assembled
        from quartic import bvp, tolerances

        spec = ProblemSpec(0.0, np.pi, 0.0, diag3_op, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0, 3.0, 10.0]),
                            n_angles=1, angle_min=np.pi)  # negative real axis
        dense = run_sweep(spec, g, n_nodes=16)
        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        frames = _counting(monkeypatch, bvp, "assemble_frame")
        adjoints = _counting(monkeypatch, bvp.BCFrame, "adjoint")
        power = run_sweep(spec, g, n_nodes=16)
        assert [r.note for r in dense.records] == ["dense"] * 3
        assert [r.note for r in power.records] == ["power"] * 3
        assert len(frames) == len(adjoints) == 3
        # the power route's adjoint is exact only up to quadrature asymmetry
        for d, p in zip(dense.records, power.records):
            assert p.norm == pytest.approx(d.norm, rel=1e-2)


def _unitary(seed, n):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _in_basis(V, spectrum):
    return make_operator((V * np.asarray(spectrum, complex)) @ np.linalg.inv(V))


def _partners(report):
    """{j: i} for the records j whose lambda is the exact conjugate of an
    earlier record i's."""
    lams = [r.lam for r in report.records]
    return {j: i for j in range(len(lams)) for i in range(j) if lams[j] == np.conj(lams[i])}


def _assembled_norms(spec, report, n_nodes, paired=False):
    """Direct assembled norms of the report's frame_ok records; when the sweep
    pairs conjugates, a mirrored record's is taken at its partner."""
    grid = cgl_grid(n_nodes, spec.a, spec.b)
    weights = np.repeat(grid.weights, spec.A.dim)
    lams = [r.lam for r in report.records]
    partners = _partners(report) if paired else {}
    return [operator_norm(resolvent_matrix(spec, lams[partners.get(j, j)], grid), weights)
            for j, r in enumerate(report.records) if r.frame_ok]


NORMAL_OPERATORS = {
    "rotated": lambda: _in_basis(_unitary(5, 3), [-1.0, -4.0, -9.0]),
    "laplacian3": lambda: dirichlet_laplacian_modes(3),
}


def _unpruned_norm(blocks, weights):
    """``operators.operator_norm`` of a stack of blocks with an SVD of every
    block."""
    d = np.sqrt(weights)
    return float(np.max(np.linalg.norm(d[:, None] * blocks / d, 2, axis=(1, 2))))


class TestPerModeNorm:
    """Sweep norms of A with a unitary eigenbasis, taken mode by mode."""

    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("op", sorted(NORMAL_OPERATORS))
    def test_matches_assembled_norm_and_failures(self, monkeypatch, op, bc):
        from quartic import spectral, tolerances

        A = NORMAL_OPERATORS[op]()
        assert A.eig_cond - 1.0 <= tolerances.UNITARY_BASIS_GAP
        spec = ProblemSpec(0.0, np.pi, 0.5, A, bc)
        # centred on the vertex of k = 0, the grid's point -1e-2 lies on the
        # branch cut of k = 0.5: a refusal both routes must record alike
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-2, 3, 5), n_angles=3,
                            exclusion_radius=5e-3 if bc in (3, 4) else 0.0)
        calls = _counting(monkeypatch, spectral, "resolvent_matrix")
        per_mode = run_sweep(spec, g, n_nodes=24)
        assert calls == []
        monkeypatch.setattr(tolerances, "UNITARY_BASIS_GAP", -1.0)
        assembled = run_sweep(spec, g, n_nodes=24)
        mirrored = _partners(assembled) if spec.real else {}
        assert len(calls) == sum(r.frame_ok for j, r in enumerate(assembled.records)
                                 if j not in mirrored)
        assert per_mode.failures == assembled.failures
        assert [r.note for r in per_mode.failures] == ["BranchCut"]
        assert [r.note for r in per_mode.records] == [r.note for r in assembled.records]
        got = [r.norm for r in per_mode.records if r.frame_ok]
        want = [r.norm for r in assembled.records if r.frame_ok]
        assert want == _assembled_norms(spec, per_mode, 24, paired=spec.real)
        np.testing.assert_allclose(got, _assembled_norms(spec, per_mode, 24, paired=bc != 2),
                                   rtol=1e-12, atol=0.0)

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
                                   _assembled_norms(spec, rep, 20, paired=not rotate),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["cond30", "jordan"])
    def test_non_normal_keeps_assembled_route(self, monkeypatch, case):
        from quartic import spectral

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
        calls = _counting(monkeypatch, spectral, "resolvent_matrix")
        rep = run_sweep(spec, g, n_nodes=20)
        assert not rep.failures
        assert len(calls) == len(rep.records) - len(_partners(rep))
        assert [r.norm for r in rep.records] == _assembled_norms(spec, rep, 20, paired=True)

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

    @staticmethod
    def _blocks(kind, rng, w):
        """(6, 24, 24) per-mode blocks of one kind, for the node weights w."""
        def gauss(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        if kind == "random":
            return gauss(6, 24, 24) * np.geomspace(1.0, 3.0, 6)[:, None, None]
        if kind == "rank_one":  # ||M||_2 = ||M||_F
            return gauss(6, 24, 1) * gauss(6, 1, 24)
        if kind == "ties":  # equal blocks, and the same block negated
            M = gauss(24, 24)
            return np.stack([M, M, -M, 0.5 * M, M, gauss(24, 24)])
        # crossing: rank-one blocks whose Frobenius norm lies within a few
        # ulps of the 2-norm of a random block with a larger Frobenius norm
        d = np.sqrt(w)
        M = gauss(24, 24)
        top = np.linalg.norm(d[:, None] * M / d, 2)
        out = [M]
        for ulps in (-3, -1, 0, 1, 3):
            R = gauss(24, 1) * gauss(1, 24)
            R *= top / np.linalg.norm(d[:, None] * R / d) * (1.0 + ulps * 2.0 ** -52)
            out.append(R)
        return np.stack(out)

    @pytest.mark.parametrize("kind", ["random", "rank_one", "ties", "crossing"])
    def test_pruned_maximum_bit_for_bit(self, kind):
        # the SVDs skipped by the Frobenius bound change no bit of the maximum
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.uniform(0.05, 2.0, 24)
            blocks = self._blocks(kind, rng, w)
            assert operator_norm(blocks, w) == _unpruned_norm(blocks, w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pruned_non_finite_raises(self, bad):
        blocks = np.ones((3, 8, 8), dtype=complex)
        blocks[2, 7, 0] = bad
        with pytest.raises(NonFinite):
            operator_norm(blocks, np.ones(8))

    def test_sweep_dense_svd_count(self, monkeypatch):
        # perfbench's sweep-dense configuration: dim 4, N = 48, 20 points of
        # which 12 are evaluated, one batch frame; 23 of their 48 blocks can
        # hold the maximum
        from quartic import bvp, spectral

        A = _in_basis(_unitary(1, 4), -np.arange(1, 5.0) ** 2)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 3, 4), n_angles=5)
        with monkeypatch.context() as m:
            m.setattr(spectral, "operator_norm", _unpruned_norm)
            full = run_sweep(spec, g, n_nodes=48)
        frames = _counting(monkeypatch, bvp, "assemble_frame")
        svds, norm = [], np.linalg.norm

        def counting(x, ord=None, axis=None, keepdims=False):
            if ord == 2:
                svds.append(1 if axis is None else len(x))
            return norm(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "norm", counting)
        report = run_sweep(spec, g, n_nodes=48)
        assert len(frames) == 1
        assert [r.note for r in report.records] == ["dense"] * 20
        assert report.records == full.records
        assert sum(svds) == 23


def _cond30_6x6():
    """Spectrum -1..-36 in a real basis with singular values geomspace(1, 30)."""
    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    return _in_basis(q1 @ np.diag(np.geomspace(1.0, 30.0, 6)) @ q2, -np.arange(1, 7.0) ** 2)


ADJOINT_OPERATORS = {"laplacian3": lambda: dirichlet_laplacian_modes(3), "cond30": _cond30_6x6,
                     "jordan": lambda: make_operator([[-2.0, 1.0], [0.0, -2.0]])}
ADJOINT_LAMS = [0.56 + 0.21j, -3.0 + 1.0j, 2.0 - 0.3j]


def _factored_adjoint(spec, AH, lam):
    """The frame of A^H at conj(lam), with AH = A^H factored on its own."""
    return _lambda_frames(ProblemSpec(spec.a, spec.b, spec.k, AH, spec.bc_family), np.conj(lam))


def _with_kit(frame, grid):
    frame.grid_kit(grid)
    return frame


def _counting(monkeypatch, owner, name):
    """Record the calls of ``owner.name``, which still runs."""
    calls, fn = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _lanczos_norm(spec, lam, grid, w, **kwargs):
    """A power-route sweep point: ``krylov_norm`` on the resolvent map at lam
    and its adjoint, from the sweep's start vector."""
    fwd = ResolventMap(_lambda_frames(spec, lam), grid, spec.bc_family)
    start = _start_vector(w.size).reshape(grid.n, spec.A.dim, 1)
    return krylov_norm(fwd.apply, fwd.adjoint().apply, w, start, **kwargs)


class TestPowerRoute:
    """Power-route sweep points: the adjoint frame is derived from the
    forward one with its grid kit (``BCFrame.adjoint``), and the reported
    norm is a Lanczos Ritz value."""

    # the eig_cond 4.4e6 one-block A carries the dense route's kappa * 1e-12
    # floor, bounded as in TestDenseRouteConvolution
    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("op, bound", [("laplacian3", 1e-12), ("cond30", 1e-12),
                                           ("jordan", 1e-12), ("illcond", 1e-4)])
    def test_derived_adjoint_matches_factored(self, op, bound, bc):
        A = ADJOINT_OPERATORS[op]() if op in ADJOINT_OPERATORS else _ill_conditioned(4.4e6)
        AH = make_operator(A.matrix.conj().T)
        grid = cgl_grid(48, 0.0, np.pi)
        x = grid.nodes
        f = GridFunction(grid, np.array([(1 + 0.3j * i) * np.sin(x) + 0.2 * x * np.cos((i + 2) * x)
                                         for i in range(A.dim)]))
        for k in (0.0, 0.7):
            spec = ProblemSpec(0.0, np.pi, k, A, bc)
            for lam in ADJOINT_LAMS:
                adj = _with_kit(_lambda_frames(spec, lam), grid).adjoint()
                assert adj.lam == np.conj(lam)
                got = _SOLVERS[bc](adj, f).values
                want = _SOLVERS[bc](_factored_adjoint(spec, AH, lam), f).values
                assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("lam", ADJOINT_LAMS)
    @pytest.mark.parametrize("k", [0.0, 0.7])
    @pytest.mark.parametrize("op", sorted(ADJOINT_OPERATORS))
    def test_seeded_kit_equals_computed(self, op, k, lam):
        # the kit the adjoint frame derives from the forward kit against the
        # one it computes from its own generators: bit for bit where b = 1
        A = ADJOINT_OPERATORS[op]()
        grid = cgl_grid(48, 0.0, np.pi)
        adj = _with_kit(_lambda_frames(ProblemSpec(0.0, np.pi, k, A, 1), lam), grid).adjoint()
        assert len(adj._grid_cache) == 1
        got = adj.grid_kit(grid)
        want = dataclasses.replace(adj, _grid_cache={}).grid_kit(grid)
        tol = 0.0 if A.diagonalizable else 1e-14

        def check(g, w):
            assert not g.flags.writeable
            assert np.max(np.abs(g - w)) <= tol * np.max(np.abs(w))

        for gen in "ml":
            for name in ("exa", "ebx", "weights"):
                check(got[gen][name], want[gen][name])
            for g_scan, w_scan in zip(got[gen]["scans"], want[gen]["scans"]):
                assert len(g_scan) == len(w_scan)
                for g_fac, w_fac in zip(g_scan, w_scan):
                    check(g_fac, w_fac)

    def test_direct_factorization_not_seeded(self):
        # lam = 0 with k != 0 factors as (A - k, A), whose adjoint factors are
        # P^H and Q^H, not swapped: no adjoint frame is derived from it
        spec = ProblemSpec(0.0, np.pi, 0.7, _cond30_6x6(), 1)
        for lams in (0.0, [1.0 + 1.0j, 0.0]):
            with pytest.raises(ValueError):
                _lambda_frames(spec, lams).adjoint()

    def test_seeding_changes_no_norm(self, monkeypatch):
        # the derived adjoint against A^H factored on its own, on the
        # sweep-power family: the norms agree to rounding
        from quartic import bvp, tolerances

        spec = ProblemSpec(0.0, np.pi, 0.0, _cond30_6x6(), 3)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([0.6, 1.5]), n_angles=1,
                            exclusion_radius=0.5)
        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        derived = run_sweep(spec, g, n_nodes=24)
        AH = make_operator(spec.A.matrix.conj().T)
        monkeypatch.setattr(bvp.BCFrame, "adjoint",
                            lambda frame: _factored_adjoint(spec, AH, frame.lam))
        factored = run_sweep(spec, g, n_nodes=24)
        assert [r.note for r in derived.records] == ["power"] * 2
        for d, f in zip(derived.records, factored.records):
            assert d.norm == pytest.approx(f.norm, rel=1e-12)

    def test_dense_power_route_seeded(self, monkeypatch):
        # a one-block (b = n) frame: the derived adjoint conjugate-transposes
        # the Jordan block's Schur block
        from quartic import bvp, tolerances

        A = make_operator([[-2.0, 1.0], [0.0, -2.0]])
        assert not A.diagonalizable
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0, 10.0]), n_angles=1,
                            angle_min=np.pi)
        dense = run_sweep(spec, g, n_nodes=16)
        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        adjoints = _counting(monkeypatch, bvp.BCFrame, "adjoint")
        power = run_sweep(spec, g, n_nodes=16)
        assert len(adjoints) == 2
        assert [r.note for r in power.records] == ["power"] * 2
        for d, p in zip(dense.records, power.records):
            assert p.norm == pytest.approx(d.norm, rel=1e-2)

    def test_unconverged_points_are_flagged(self, monkeypatch):
        # an iteration cut at max_iter keeps its last estimate and says so,
        # and a mirrored conjugate partner copies the note
        from functools import partial

        from quartic import spectral, tolerances

        spec = ProblemSpec(0.0, np.pi, 0.0, dirichlet_laplacian_modes(3), 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0, 3.0]), n_angles=2)
        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        converged = run_sweep(spec, g, n_nodes=16)
        monkeypatch.setattr(spectral, "krylov_norm", partial(spectral.krylov_norm, max_iter=1))
        capped = run_sweep(spec, g, n_nodes=16)
        assert [r.note for r in converged.records] == ["power"] * 4
        assert converged.summary()["unconverged"] == 0
        assert [r.note for r in capped.records] == ["power-unconverged"] * 4
        assert capped.summary()["unconverged"] == 4
        assert all(r.frame_ok and np.isfinite(r.norm) and type(r.norm) is float
                   for r in capped.records)
        partners = _partners(capped)
        assert len(partners) == 2
        for j, i in partners.items():
            assert capped.records[j].norm == capped.records[i].norm

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
        grid = cgl_grid(96, 0.0, np.pi)
        w = np.repeat(grid.weights, A.dim)
        for lam in ADJOINT_LAMS:
            want = operator_norm(resolvent_matrix(spec, lam, grid), w)
            got = _lanczos_norm(spec, lam, grid, w)
            assert abs(got - want) <= bound * want

    def test_clustered_singular_values(self, monkeypatch):
        # laplacian:30 at N = 256, where many singular values of R(lam) lie
        # close together: power iteration stalled 1.53e-4 low at -174.1+984.7i
        # after 200 B-applications.  A is normal with a known spectrum, so
        # the norm is 1/min_ij |(i^2 + j^2)^2 - lam|; the estimates sit
        # 3.1e-13 to 1.2e-9 below it, and 6.4e-10 to 8.2e-9 below the
        # discrete per-mode norm, the route's adjoint-asymmetry floor.
        from quartic import bvp

        A = dirichlet_laplacian_modes(30)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(256, 0.0, np.pi)
        w = np.repeat(grid.weights, A.dim)
        i, j = np.arange(1, 31)[:, None], np.arange(1, 300)[None, :]
        solves = _counting(monkeypatch, bvp.ResolventMap, "apply")
        for lam in [-174.1 + 984.7j, 939.0 + 343.0j, -1000.0, 43.6 + 15.9j]:
            ref = 1.0 / np.min(np.abs((i * i + j * j) ** 2 - lam))
            solves.clear()
            got = _lanczos_norm(spec, lam, grid, w)
            assert type(got) is float  # not an _Unconverged
            assert abs(got - ref) <= 1e-8 * ref
            assert len(solves) <= 2 * 40  # one forward and one adjoint solve per B

    @pytest.mark.parametrize("lam", [2.0 + 1.0j, -3.0 + 0.5j])
    def test_stops_when_the_residual_vanishes(self, monkeypatch, scalar_op, lam):
        # rel_tol = 0 never stops on movement: with dim(A) N = 12 the basis
        # spans an invariant subspace of B within 12 steps, and the estimate
        # is returned there, not as an _Unconverged
        from quartic import bvp

        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(12, 0.0, np.pi)
        want = operator_norm(resolvent_matrix(spec, lam, grid), grid.weights)
        solves = _counting(monkeypatch, bvp.ResolventMap, "apply")
        got = _lanczos_norm(spec, lam, grid, grid.weights, rel_tol=0.0)
        assert type(got) is float
        assert len(solves) <= 2 * 12
        # the route's adjoint is exact only up to quadrature asymmetry
        assert got == pytest.approx(want, rel=1e-2)

    def test_start_vector(self):
        x = _start_vector(1000)
        assert x.shape == (1000,) and x.dtype == complex
        assert np.all(np.isfinite(x))
        np.testing.assert_array_equal(x, _start_vector(1000))
        # standard complex Gaussians: E|x|^2 = 2
        assert abs(np.mean(np.abs(x) ** 2) - 2.0) < 0.3

    def test_one_start_vector_per_sweep(self, monkeypatch):
        # three power points on the sweep-power family draw the start vector
        # once, and each norm is bit for bit the norm its point computes from
        # a start vector of its own
        from quartic import spectral, tolerances

        spec = ProblemSpec(0.0, np.pi, 0.0, _cond30_6x6(), 3)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([0.6, 0.95, 1.5]), n_angles=1,
                            exclusion_radius=0.5)
        grid = cgl_grid(24, 0.0, np.pi)
        w = np.repeat(grid.weights, spec.A.dim)
        want = [_lanczos_norm(spec, lam, grid, w) for lam in g.points()]
        monkeypatch.setattr(tolerances, "DENSE_CAP", 10)
        draws = _counting(monkeypatch, spectral, "_start_vector")
        report = run_sweep(spec, g, n_nodes=24)
        assert len(draws) == 1
        assert [r.note for r in report.records] == ["power"] * 3
        assert [r.norm for r in report.records] == want

    # dim 30, spectrum -1 .. -900 in a real basis with singular values
    # geomspace(1, 1e3, 30) (eig_cond 831), N = 256: measured gaps 1.5e-10 to
    # 6.8e-10 at the three large lam and 5.4e-8 and 2.0e-8 at 43.6+15.9i and
    # 2+3i, where the rel_tol stop sets them (the same at N = 128)
    def test_non_normal_dim30_against_closed_form(self):
        rng = np.random.default_rng(30)
        q1, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        q2, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        A = _in_basis(q1 @ np.diag(np.geomspace(1.0, 1e3, 30)) @ q2, -np.arange(1, 31.0) ** 2)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(256, 0.0, np.pi)
        w = np.repeat(grid.weights, A.dim)
        for lam in [-174.1 + 984.7j, 939.0 + 343.0j, -1000.0, 43.6 + 15.9j, 2.0 + 3.0j]:
            got = _lanczos_norm(spec, lam, grid, w)
            want = sine_resolvent_norm(A.matrix, lam)
            assert type(got) is float  # not an _Unconverged
            assert abs(got - want) <= 1e-6 * want


class TestKrylovNorm:
    """``krylov_norm`` on an explicit operator and its exact W-adjoint."""

    # measured 4.1e-11 to 3.5e-9 relative in 10-15 steps
    @pytest.mark.parametrize("seed", range(5))
    def test_explicit_operator(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        w = rng.uniform(0.1, 1.0, 40)
        got = krylov_norm(lambda v: M @ v, lambda v: M.conj().T @ (w * v) / w, w,
                          _start_vector(40))
        want = operator_norm(M, w)
        assert type(got) is float  # not an _Unconverged
        assert abs(got - want) <= 1e-7 * want


def _batched_sweep_case(name):
    """(spec, sweep grid, notes) of the batched-sweep cases, N = 16."""
    radii, bc, k, excl = np.logspace(-1, 3, 4), 1, 0.0, 0.0
    if name == "normal":  # per-mode blocks
        A = _in_basis(_unitary(5, 3), [-1.0, -4.0, -9.0])
    elif name == "cond30":  # resolvent_matrix, b = 1
        rng = np.random.default_rng(3)
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A = _in_basis(q1 @ np.diag([1.0, 5.0, 30.0]) @ q2, [-1.0, -4.0, -9.0])
    elif name == "jordan":  # resolvent_matrix, b = n
        A = make_operator([[-2.0, 1.0], [0.0, -2.0]])
    else:  # family 3; the point at test_batch's LAM0 refuses (V = I - T+)
        import test_batch

        A, bc, excl = test_batch.TestBatchRefusals._operator(), 3, 0.01
        lam0 = test_batch.TestBatchRefusals.LAM0
        sweep = SweepGrid(0.0, np.array([0.02, 1.0, abs(lam0)]),
                          np.array([np.angle(lam0), 1.5, np.pi]), excl)
        notes = ["dense"] * 9
        notes[2] = "NotInResolventSet"
        return ProblemSpec(0.0, np.pi, k, A, bc), sweep, notes
    sweep = make_sweep_grid(k, 0.0, radii=radii, n_angles=5, exclusion_radius=excl)
    return ProblemSpec(0.0, np.pi, k, A, bc), sweep, ["dense"] * 20


class TestBatchedSweep:
    """Sweep points in batches of K share one frame and one grid kit, each
    point solving on its view (``BCFrame.parameter``); a refused batch
    solves the points before the refused one on the frame its refusal
    assembled for them.  Every record equals the one the point gets on its
    own frame (K = 1)."""

    N = 16

    def _sweep(self, monkeypatch, spec, sweep, K):
        from quartic import tolerances

        # BATCH_ENTRIES // (dim b N) = K points a batch, every one on the
        # dense route
        b = spec.A.block_form[0].shape[-1]
        monkeypatch.setattr(tolerances, "BATCH_ENTRIES", K * spec.A.dim * b * self.N)
        return run_sweep(spec, sweep, n_nodes=self.N)

    @pytest.mark.parametrize("case", ["normal", "cond30", "jordan", "refusing"])
    def test_records_equal_per_point(self, monkeypatch, case):
        from quartic import bvp, tolerances

        spec, sweep, notes = _batched_sweep_case(case)
        per_mode = spec.A.diagonalizable and spec.A.eig_cond - 1 <= tolerances.UNITARY_BASIS_GAP
        assert per_mode == (case == "normal")
        assert spec.A.diagonalizable == (case != "jordan")
        frames = _counting(monkeypatch, bvp, "assemble_frame")
        single = self._sweep(monkeypatch, spec, sweep, 1)
        evaluated = len(notes) - len(_partners(single))  # the refusing grid has no pairs
        assert len(frames) == evaluated
        assert [r.note for r in single.records] == notes
        for K in (3, 20):
            frames.clear()
            batched = self._sweep(monkeypatch, spec, sweep, K)
            assert batched.records == single.records
            assert batched.failures == single.failures
            assert batched.c_empirical == single.c_empirical
            if case != "refusing":
                assert len(frames) == -(-evaluated // K)

    def test_one_batch_held_at_a_time(self, monkeypatch):
        import weakref

        from quartic import spectral

        spec, sweep, notes = _batched_sweep_case("refusing")
        held = []

        def recording(spec_, lams):
            assert all(ref() is None for ref in held), "an earlier frame is still alive"
            try:
                frame = _lambda_frames(spec_, lams)
            except NotInResolventSet as exc:
                held.append(weakref.ref(exc.prefix.ops.m))  # the refusal's prefix frame
                raise
            held.append(weakref.ref(frame.ops.m))  # views keep the batch's blocks
            return frame

        monkeypatch.setattr(spectral, "_lambda_frames", recording)
        report = self._sweep(monkeypatch, spec, sweep, 3)
        assert [r.note for r in report.records] == notes
        assert len(held) == 3  # two batches; the two points before the refused one

    def test_refused_batch_reuses_its_prefix(self, monkeypatch):
        # one batch of 9 refuses at its 3rd point: the frame of the 2 points
        # before it, assembled to name the refusal, is the one they solve on
        from quartic import bvp

        spec, sweep, notes = _batched_sweep_case("refusing")
        R = spec.A.dim // spec.A.block_form[0].shape[-1]
        single = self._sweep(monkeypatch, spec, sweep, 1)
        frames = _counting(monkeypatch, bvp, "assemble_frame")
        batched = self._sweep(monkeypatch, spec, sweep, 9)
        assert [len(call[0]) // R for call in frames] == [9, 2, 1, 6]
        assert [r.note for r in batched.records] == notes
        assert batched.records == single.records

    def test_batch_size_counts_the_block(self, monkeypatch):
        # the Jordan block is one 2 x 2 block (b = 2): a parameter holds
        # dim(A) b = 4 entries per node, against 2 for a diagonal A
        from quartic import bvp, tolerances
        from quartic.bvp import _batch_size

        jordan = ProblemSpec(0.0, np.pi, 0.0, make_operator([[-2.0, 1.0], [0.0, -2.0]]), 1)
        diagonal = ProblemSpec(0.0, np.pi, 0.0, make_operator(np.diag([-1.0, -2.0])), 1)
        assert jordan.A.block_form[0].shape[-1] == 2
        assert diagonal.A.block_form[0].shape[-1] == 1
        monkeypatch.setattr(tolerances, "BATCH_ENTRIES", 4096)
        assert (_batch_size(jordan, 16), _batch_size(diagonal, 16)) == (64, 128)
        assert _batch_size(diagonal, 4096) == 1
        monkeypatch.setattr(tolerances, "BATCH_ENTRIES", 3 * 2 * 2 * self.N)
        frames = _counting(monkeypatch, bvp, "assemble_frame")
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 3, 4), n_angles=2)
        report = run_sweep(jordan, g, n_nodes=self.N)
        assert [r.note for r in report.records] == ["dense"] * 8
        assert [len(call[0]) for call in frames] == [3, 1]  # one block per point

    def test_power_route_batches_of_one(self, monkeypatch, diag3_op):
        from quartic import bvp, tolerances

        spec = ProblemSpec(0.0, np.pi, 0.0, diag3_op, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.array([1.0, 3.0]), n_angles=2)
        monkeypatch.setattr(tolerances, "DENSE_CAP", 3 * 16 - 1)  # the power route
        # a budget for every point at once: the power route still takes K = 1
        monkeypatch.setattr(tolerances, "BATCH_ENTRIES", 10 * 3 * 16)
        frames = _counting(monkeypatch, bvp, "assemble_frame")
        report = run_sweep(spec, g, n_nodes=16)
        assert [r.note for r in report.records] == ["power"] * 4
        assert [len(call[0]) for call in frames] == [3] * 2  # one point's 3 blocks each


def _alone(spec, sweep, n_nodes):
    """Each grid point's record from a sweep of that point alone, which
    evaluates it directly (a one-point grid has no conjugate pair)."""
    return [run_sweep(spec, SweepGrid(sweep.vertex, np.array([rho]), np.array([phi]),
                                      sweep.exclusion_radius, sweep.theta_a, sweep.k),
                      n_nodes=n_nodes).records[0]
            for phi in sweep.angles for rho in sweep.radii]


def _counting_evaluations(monkeypatch):
    """A count of the sweep's dense per-point evaluations, either route."""
    from quartic import spectral

    blocks = _counting(monkeypatch, spectral, "resolvent_blocks")
    matrices = _counting(monkeypatch, spectral, "resolvent_matrix")
    return lambda: len(blocks) + len(matrices)


class TestConjugatePairs:
    """Where ||R(conj lam)|| = ||R(lam)|| (a real problem, or A normal with a
    conjugation-closed spectrum; never family 2), the sweep evaluates one
    point of each exact conjugate pair and mirrors it onto the other."""

    def test_sweep_dense_setup_evaluates_12_of_20(self, monkeypatch):
        A = _in_basis(_unitary(1, 4), -np.arange(1, 5.0) ** 2)
        assert np.any(A.matrix.imag)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 3, 4), n_angles=5)
        evaluations = _counting_evaluations(monkeypatch)
        report = run_sweep(spec, g, n_nodes=48)
        assert len(report.records) == 20 and evaluations() == 12
        assert len(_partners(report)) == 8

    def test_ten_angles_evaluate_half(self, monkeypatch):
        spec = ProblemSpec(0.0, np.pi, 0.0, dirichlet_laplacian_modes(3), 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 3, 3), n_angles=10)
        evaluations = _counting_evaluations(monkeypatch)
        report = run_sweep(spec, g, n_nodes=24)
        assert evaluations() == len(report.records) // 2 == len(_partners(report))

    def test_mirror_copies_partner_and_refusal(self):
        # centred on the vertex of k = 0, the rays at +-pi meet the branch cut
        # of k = 0.5 at radius 1e-2: the pair's first point refuses
        spec = ProblemSpec(0.0, np.pi, 0.5, dirichlet_laplacian_modes(3), 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-2, 3, 5), n_angles=4)
        report = run_sweep(spec, g, n_nodes=24)
        records, partners = report.records, _partners(report)
        assert len(partners) == 10
        for j, i in partners.items():
            mirror, first = records[j], records[i]
            assert mirror.lam == np.conj(first.lam)
            assert (mirror.note, mirror.frame_ok) == (first.note, first.frame_ok)
            if first.frame_ok:
                assert mirror.norm == first.norm
                assert mirror.ratio == (1.0 + abs(mirror.lam - g.vertex)) * first.norm
            else:
                assert np.isnan(mirror.norm) and np.isnan(mirror.ratio)
        assert [r.note for r in report.failures] == ["BranchCut"] * 2
        assert report.failures == [r for r in records if not r.frame_ok]
        assert report.c_empirical == max(r.ratio for r in records if r.frame_ok)
        assert report.r_observed == max(abs(r.lam - g.vertex) for r in report.failures)
        direct = _alone(spec, g, 24)
        assert [r.note for r in direct] == [r.note for r in records]

    def test_mirrors_not_in_resolvent_set_refusal(self, monkeypatch):
        # a real A with spectrum {a, conj a}: its family-3 frames refuse at
        # test_batch's LAM0 (mode a) and at conj(LAM0) (mode conj a)
        import test_batch

        lam0 = test_batch.TestBatchRefusals.LAM0
        a = -np.exp(0.5j)
        A = make_operator([[a.real, -a.imag], [a.imag, a.real]])
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 3)
        g = SweepGrid(0.0, np.array([0.02, 1.0, abs(lam0)]),
                      np.array([np.angle(lam0), -np.angle(lam0)]), 0.01)
        evaluations = _counting_evaluations(monkeypatch)
        report = run_sweep(spec, g, n_nodes=16)
        notes = ["dense", "dense", "NotInResolventSet"] * 2
        assert [r.note for r in report.records] == notes
        assert _partners(report) == {3: 0, 4: 1, 5: 2} and evaluations() == 2
        assert [r.note for r in _alone(spec, g, 16)] == notes

    @pytest.mark.parametrize("n_nodes", [24, 48])
    def test_pair_gap_below_discretization_error(self, n_nodes):
        # (d^2/dx^2 + A)^2 has eigenvalues (j^2 + i^2)^2 on sin(jx) e_i for
        # A = diag(-1, -4, -9), and A is normal: ||R(lam)|| = 1/dist.  The
        # direct evaluations at lam and conj(lam) differ by at most 3.1e-3
        # (N = 24) and 1.9e-4 (N = 48) of the pair's larger error
        spec = ProblemSpec(0.0, np.pi, 0.0, dirichlet_laplacian_modes(3), 1)
        g = make_sweep_grid(0.0, 0.0, radii=np.logspace(-1, 3, 5), n_angles=10)
        mu = ((np.arange(1, 2001.0)[:, None] ** 2 + np.arange(1, 4.0) ** 2) ** 2).ravel()
        direct = _alone(spec, g, n_nodes)
        report = run_sweep(spec, g, n_nodes=n_nodes)
        worst = 0.0
        for j, i in _partners(report).items():
            exact = 1.0 / np.min(np.abs(mu - direct[i].lam))
            error = max(abs(direct[i].norm - exact), abs(direct[j].norm - exact))
            worst = max(worst, abs(direct[j].norm - direct[i].norm) / error)
            assert report.records[j].norm == direct[i].norm
        assert worst <= 1e-2

    @pytest.mark.parametrize("case", ["family2", "open_spectrum", "non_normal"])
    def test_unpaired_cases_evaluate_every_point(self, monkeypatch, case):
        import test_batch

        A, bc = dirichlet_laplacian_modes(3), 2
        if case == "open_spectrum":  # unitary basis, spectrum not closed
            A, bc = _in_basis(_unitary(5, 2), [-1.0 + 0.5j, -4.0]), 1
            assert A.eig_cond - 1.0 <= 1e-12
        elif case == "non_normal":  # complex, spectrum {a, conj a} closed
            A, bc = test_batch.TestBatchRefusals._operator(), 1
            assert A.eig_cond > 2.0
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        g = make_sweep_grid(0.0, spec.theta_a, radii=np.logspace(-1, 3, 3), n_angles=4)
        evaluations = _counting_evaluations(monkeypatch)
        report = run_sweep(spec, g, n_nodes=16)
        assert len(_partners(report)) == 6 and evaluations() == len(report.records) == 12
        assert report.records == _alone(spec, g, 16)


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
        # -G - shift lies in the closed sector of angle alpha about 0, and
        # |z| ||(-G - shift - z)^{-1}|| on the projected forcing stays bounded
        # for z outside it, sampled through the oracle's pencil solve
        alpha, shift = 0.05, -0.25
        spec = ProblemSpec(0.0, np.pi, 1.0, scalar_op, 1)
        gen = dense_generator(spec, 32)
        evs = np.linalg.eigvals(gen.minus_generator) - shift
        assert np.max(np.abs(np.angle(evs))) <= alpha
        units = np.eye(gen.grid.n * gen.dim).reshape(-1, gen.grid.n, gen.dim).transpose(0, 2, 1)
        mags = np.linspace(alpha + 0.05, np.pi, 5)
        norms = []
        for phi in np.concatenate([mags, -mags[:-1]]):
            for rho in np.logspace(-1, 2, 10):
                z = rho * np.exp(1j * phi)
                R = np.column_stack([resolvent_apply(gen, z + shift, e) for e in units])
                norms.append(abs(z) * np.linalg.norm(R, 2))
        assert np.all(np.isfinite(norms)) and max(norms) <= 1e8
