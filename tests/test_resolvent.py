import numpy as np
import pytest

from conftest import smooth_field
from quartic.bvp import ProblemSpec, resolvent_matrix, resolvent_solve
from quartic.errors import BranchCut, NotInResolventSet
from quartic.grids import GridFunction, cgl_grid
from quartic.operators import dirichlet_laplacian_modes, make_operator, operator_norm
from quartic.oracle import collocation_solve, dense_generator, ode_residual
from quartic.spectral import SweepGrid, run_sweep
from references import embed, resolvent_apply, sine_mode_resolvent, sine_resolvent_norm
from test_grids_kernels import _ill_conditioned


class TestScalarResolvent:
    def test_sine_mode_scaling(self, scalar_op):
        # first sine mode diagonalizes the family-1 generator: eigenvalue 4
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(80, 0.0, np.pi)
        f = GridFunction(grid, np.sin(grid.nodes)[None, :].astype(complex))
        u = resolvent_solve(spec, -1.0, f)
        assert np.max(np.abs(u.values - f.values / 5.0)) <= 1e-9

    def test_zero_forcing(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 2)
        grid = cgl_grid(48, 0.0, np.pi)
        u = resolvent_solve(spec, -4.0, GridFunction.zeros(grid, 1))
        assert np.max(np.abs(u.values)) == 0.0

    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_collocation_residual(self, rng, scalar_op, bc):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, bc)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        u = resolvent_solve(spec, -6.0 + 2.0j, f)
        coeff2 = 2 * scalar_op.matrix
        coeff0 = scalar_op.matrix @ scalar_op.matrix
        assert ode_residual(coeff2, coeff0, -6.0 + 2.0j, u, f) <= 1e-6

    def test_branch_cut_rejected(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(40, 0.0, np.pi)
        f = GridFunction.zeros(grid, 1)
        with pytest.raises(BranchCut):
            resolvent_solve(spec, 0.0, f)          # branch point for k = 0
        with pytest.raises(BranchCut):
            resolvent_solve(spec, 3.0, f)          # on the cut


class TestSineClosedForm:
    """Families 1 and 5 at k = 0 against their closed forms on sin(jx) c
    (``references.sine_mode_resolvent``, ``sine_resolvent_norm``)."""

    # A with b = n (the Jordan block) and with b = 1 (basis condition 1e3):
    # the one-block recurrences and the segmented sums, forward and backward
    OPERATORS = {"jordan": (lambda: make_operator([[-1.0, 1.0], [0.0, -1.0]]), [0.3, 1.0]),
                 "cond1e3": (lambda: _ill_conditioned(1e3), [0.3, 1.0, -0.5, 0.2])}

    # measured 3.4e-10, 3.9e-12, 5.5e-14, 7.4e-16 (Jordan) and 3.4e-10,
    # 4.5e-12, 7.0e-13, 6.4e-13 (cond 1e3, its kappa eps floor) at N = 32 ..
    # 256; bounded at N = 256
    @pytest.mark.parametrize("bc", [1, 5])
    @pytest.mark.parametrize("op, bound", [("jordan", 1e-14), ("cond1e3", 5e-12)])
    def test_solve_matches_closed_form(self, op, bound, bc):
        make, c = self.OPERATORS[op]
        A = make()
        assert A.diagonalizable == (op == "cond1e3")
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        errors = []
        for n in (32, 64, 128, 256):
            grid = cgl_grid(n, 0.0, np.pi)
            f = GridFunction(grid, np.outer(c, np.sin(grid.nodes)).astype(complex))
            want = np.outer(sine_mode_resolvent(A.matrix, -17.0, 1, c), np.sin(grid.nodes))
            got = resolvent_solve(spec, -17.0, f).values
            errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert errors[0] <= 1e-9 and errors[1] <= 1e-11
        assert errors[-1] <= bound

    # measured 6.1e-4, 1.2e-5, 1.8e-7 (lambda = -3+2i), 2.3e-3, 4.6e-5,
    # 7.2e-7 (50+80i) and 8.0e-3, 1.8e-4, 2.9e-6 (-174+985i): rates 5.5-6.0
    @pytest.mark.parametrize("lam", [-3.0 + 2.0j, 50.0 + 80.0j, -174.0 + 985.0j])
    def test_dense_sweep_norm_converges(self, lam):
        A = _ill_conditioned(1e3)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        point = SweepGrid(0.0, np.array([abs(lam)]), np.array([np.angle(lam)]))
        errors = []
        for n in (24, 48, 96):
            rec, = run_sweep(spec, point, n_nodes=n).records
            assert rec.note == "dense"
            want = sine_resolvent_norm(A.matrix, rec.lam)
            errors.append(abs(rec.norm - want) / want)
        rates = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(rates >= 5.0), rates


class TestZeroShiftWithDrift:
    @pytest.mark.parametrize("k", [1.0, -0.5])
    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_lambda_zero_factorization(self, rng, k, bc):
        A = make_operator(np.diag([-1.0, -4.0, -9.0]))
        spec = ProblemSpec(0.0, np.pi, k, A, bc)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 3)
        u = resolvent_solve(spec, 0.0, f)   # direct factorization path
        u_ref = collocation_solve(spec, 0.0, f)
        rel = np.max(np.abs(u.values - u_ref.values)) / np.max(np.abs(u_ref.values))
        assert rel <= 1e-6


class TestMatrixResolvent:
    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [-7.0, -350.0, -3.0 + 40.0j])
    def test_against_collocation(self, rng, diag3_op, bc, lam):
        spec = ProblemSpec(0.0, np.pi, 0.0, diag3_op, bc)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 3)
        u_f = resolvent_solve(spec, lam, f)
        u_c = collocation_solve(spec, lam, f)
        rel = np.max(np.abs(u_f.values - u_c.values)) / np.max(np.abs(u_c.values))
        assert rel <= 1e-6

    def test_failing_parameter_for_clamped_family(self):
        # an off-cut singular point of the interval operator exists for a
        # sectorial base operator with spectrum off the real axis
        th = 0.5
        A = make_operator(np.diag([-np.exp(1j * th), -np.exp(-1j * th)]))
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 3)
        grid = cgl_grid(40, 0.0, np.pi)
        f = GridFunction(grid, np.tile(np.sin(grid.nodes), (2, 1)).astype(complex))
        lam_fail = 7.850976322480937 + 2.0141221937826654j
        with pytest.raises(NotInResolventSet) as exc:
            resolvent_solve(spec, lam_fail, f)
        assert "not invertible" in str(exc.value)
        # a short distance away the solve succeeds
        u = resolvent_solve(spec, lam_fail + 0.3j, f)
        assert np.all(np.isfinite(u.values.real))

    def test_materialized_matrix_matches_columns(self, rng, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(24, 0.0, np.pi)
        R = resolvent_matrix(spec, -5.0, grid)
        for j in (0, 7, 23):
            e = np.zeros((1, grid.n), dtype=complex)
            e[0, j] = 1.0
            u = resolvent_solve(spec, -5.0, GridFunction(grid, e))
            assert np.max(np.abs(R[:, j] - u.values[0])) <= 1e-12

    def test_dense_generator_resolvent_agreement(self, rng, scalar_op):
        # the Schur-complemented generator reproduces the collocation solve
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        gen = dense_generator(spec, 48)
        grid = gen.grid
        f = smooth_field(rng, grid, 1)
        lam = -9.0
        u_emb = embed(gen, resolvent_apply(gen, lam, f.values))
        u_col = collocation_solve(spec, lam, f)
        assert np.max(np.abs(u_emb - u_col.values)) <= 1e-8 * np.max(np.abs(u_col.values))

    def test_resolvent_norm_example(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(40, 0.0, np.pi)
        R = resolvent_matrix(spec, -1.0, grid)
        nrm = operator_norm(R, np.repeat(grid.weights, 1))
        assert nrm == pytest.approx(0.2, abs=1e-3)


class TestResolventIdentity:
    """R(l) - R(m) = (l - m) R(l) R(m) of the assembled solves, as a relative
    2-norm defect: a family's solves are the resolvent of one operator."""

    @pytest.mark.parametrize("bc", [
        1,
        pytest.param(2, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP direction 2: the family-2 boundary operator "
                                "moves with lambda, so its solves are no resolvent")),
        3, 4, 5,
    ])
    @pytest.mark.parametrize("operator", ["diag3", "laplacian2"])
    def test_bvp_resolvent_identity(self, operator, bc):
        A = (make_operator(np.diag([-1.0, -4.0, -9.0])) if operator == "diag3"
             else dirichlet_laplacian_modes(2))
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        grid = cgl_grid(64, 0.0, np.pi)
        l1, l2 = -3.0 + 2.0j, 5.0 - 1.0j
        r1, r2 = (resolvent_matrix(spec, lam, grid) for lam in (l1, l2))
        defect = np.linalg.norm(r1 - r2 - (l1 - l2) * r1 @ r2, 2) / np.linalg.norm(r1 - r2, 2)
        assert defect <= 1e-9
