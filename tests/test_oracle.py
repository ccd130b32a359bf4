import numpy as np
import pytest

from conftest import smooth_field
from quartic.bvp import ProblemSpec
from quartic.errors import CapExceeded, DegenerateRoots, DimensionMismatch, SingularSystem
from quartic.grids import GridFunction, cgl_grid, uniform_grid
from quartic.operators import make_operator
from quartic.oracle import (
    ScalarForcing,
    characteristic_root_solve,
    cheb_diff_matrix,
    collocation_solve,
    dense_generator,
    low_spectrum,
    ode_residual,
)
from references import dense_expm


class TestDifferentiation:
    def test_constants_annihilated(self):
        D = cheb_diff_matrix(32, 0.0, np.pi)
        assert np.max(np.abs(D @ np.ones(32))) <= 1e-11

    def test_spectral_accuracy(self):
        g = cgl_grid(48, 0.0, np.pi)
        D = cheb_diff_matrix(48, 0.0, np.pi)
        f = np.sin(3 * g.nodes)
        assert np.max(np.abs(D @ f - 3 * np.cos(3 * g.nodes))) <= 1e-9


class TestCollocation:
    def test_zero_forcing(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(48, 0.0, np.pi)
        u = collocation_solve(spec, -4.0, GridFunction.zeros(grid, 1))
        assert np.max(np.abs(u.values)) <= 1e-12

    def test_sine_mode_scaling(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(64, 0.0, np.pi)
        f = GridFunction(grid, np.sin(2 * grid.nodes)[None, :].astype(complex))
        u = collocation_solve(spec, -2.0, f)
        # mode m=2: eigenvalue (4+1)^2 = 25, so u = f/(25 + 2)
        assert np.max(np.abs(u.values - f.values / 27.0)) <= 1e-8

    def test_self_consistency_residual(self, rng, diag3_op):
        # the residual is measured in integrated form, so its round-off floor
        # stays near eps at any grid size; 1e-10 checks the oracle's solve
        spec = ProblemSpec(0.0, np.pi, 0.0, diag3_op, 3)
        grid = cgl_grid(32, 0.0, np.pi)
        f = smooth_field(rng, grid, 3)
        u = collocation_solve(spec, -12.0, f)
        coeff2 = 2 * diag3_op.matrix
        coeff0 = diag3_op.matrix @ diag3_op.matrix
        assert ode_residual(coeff2, coeff0, -12.0, u, f) <= 1e-10

    def test_spectral_convergence(self, scalar_op):
        # doubling nodes cuts the gap to the closed-form solution by >> 100
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        forcing = ScalarForcing(exps=[(3j, 1.0), (-3j, 1.0), (0.7, 0.5)])
        p = -1.0 + np.sqrt(5.0) * 1j
        q = np.conj(p)
        ref = characteristic_root_solve(p, q, 0.0, np.pi, 1, (0, 0, 0, 0), forcing)
        errs = []
        for n in (12, 24):
            grid = cgl_grid(n, 0.0, np.pi)
            u = collocation_solve(spec, -5.0, forcing.sample(grid))
            errs.append(np.max(np.abs(u.values[0] - ref(grid.nodes))))
        assert errs[1] <= errs[0] / 1e2

    def test_singular_at_spectrum_point(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        grid = cgl_grid(48, 0.0, np.pi)
        f = GridFunction(grid, np.sin(grid.nodes)[None, :].astype(complex))
        with pytest.raises(SingularSystem):
            collocation_solve(spec, 4.0 + 1e-14j, f)


class TestDenseGenerator:
    def test_family1_spectrum_anchor(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        gen = dense_generator(spec, 64)
        evs = low_spectrum(gen, 3)
        for got, want in zip(evs, [4.0, 25.0, 100.0]):
            assert abs(got - want) <= 1e-6 * want

    def test_spectrum_stable_under_refinement(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        e1 = low_spectrum(dense_generator(spec, 40), 5)
        e2 = low_spectrum(dense_generator(spec, 80), 5)
        assert np.max(np.abs(e1 - e2) / e2) <= 1e-6

    def test_reflection_symmetry(self, scalar_op):
        # the family-1 problem is symmetric about the midpoint: conjugating
        # the generator with the node reflection reproduces it
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        gen = dense_generator(spec, 48)
        G = gen.minus_generator
        Pflip = np.eye(G.shape[0])[::-1]
        assert np.linalg.norm(Pflip @ G @ Pflip - G) <= 1e-8 * np.linalg.norm(G)

    def test_shifted_spectrum_in_sector(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 1.0, scalar_op, 1)
        gen = dense_generator(spec, 48)
        evs = np.linalg.eigvals(gen.minus_generator) + 0.25
        assert np.max(np.abs(evs.imag) / np.maximum(1.0, np.abs(evs))) <= 1e-6
        assert np.min(evs.real) > 0

    def test_cap(self, scalar_op):
        spec = ProblemSpec(0.0, np.pi, 0.0, scalar_op, 1)
        with pytest.raises(CapExceeded):
            dense_generator(spec, 4000)


class TestDenseExpm:
    def test_t_zero(self, rng):
        G = rng.normal(size=(6, 6))
        v = rng.normal(size=6) + 0j
        assert np.array_equal(dense_expm(G, 0.0, v), v)

    def test_diagonal(self):
        G = np.diag([-1.0, -2.0])
        out = dense_expm(G, 0.5, np.array([1.0, 1.0], dtype=complex))
        assert np.allclose(out, [np.exp(-0.5), np.exp(-1.0)])

    def test_cap(self):
        with pytest.raises(CapExceeded):
            dense_expm(np.eye(2001), 1.0, np.ones(2001))


class TestCharacteristicRoots:
    def test_zero_data(self):
        ref = characteristic_root_solve(-1 + 2j, -1 - 2j, 0.0, np.pi, 1,
                                        (0, 0, 0, 0), ScalarForcing())
        x = np.linspace(0, np.pi, 20)
        assert np.max(np.abs(ref(x))) <= 1e-14

    def test_dirichlet_value_recovered(self):
        ref = characteristic_root_solve(-1 + 2j, -1 - 2j, 0.0, np.pi, 1,
                                        (1.0, 0, 0, 0), ScalarForcing())
        assert abs(ref(np.array([0.0]))[0] - 1.0) <= 1e-12

    def test_equation_residual_by_finite_differences(self):
        p, q = -2 + 1j, -1 - 3j
        forcing = ScalarForcing(poly=[1.0, 0.3], exps=[(1j, 0.5)])
        ref = characteristic_root_solve(p, q, 0.0, np.pi, 3,
                                        (0.2, -0.1, 0.05j, 0.3), forcing)
        h = 1e-3
        x = np.linspace(0.3, np.pi - 0.3, 7)
        vals = {m: ref(x + m * h) for m in range(-3, 4)}
        d4 = (vals[-2] - 4 * vals[-1] + 6 * vals[0] - 4 * vals[1] + vals[2]) / h**4
        d2 = (vals[-1] - 2 * vals[0] + vals[1]) / h**2
        resid = d4 + (p + q) * d2 + p * q * vals[0] - forcing(x)
        assert np.max(np.abs(resid)) <= 1e-3

    def test_degenerate_roots_rejected(self):
        with pytest.raises(DegenerateRoots):
            characteristic_root_solve(-1 + 1j, -1 + 1j, 0.0, 1.0, 1,
                                      (0, 0, 0, 0), ScalarForcing())

    def test_resonant_forcing_rejected(self):
        p, q = -1 + 2j, -1 - 2j
        m = -np.sqrt(-p)
        with pytest.raises(DegenerateRoots):
            characteristic_root_solve(p, q, 0.0, 1.0, 1, (0, 0, 0, 0),
                                      ScalarForcing(exps=[(m, 1.0)]))


class TestOdeResidual:
    # u'''' - 2u'' + u - lam u = f with A = -1, lam = -4: factors p, q = -1 +- 2i
    P, Q, LAM = -1 + 2j, -1 - 2j, -4.0
    COEFF2, COEFF0 = np.array([[-2.0]]), np.array([[1.0]])
    FORCING = ScalarForcing(poly=[0.5, -0.2], exps=[(1j, -0.5j), (-1j, 0.5j), (0.7, 0.3)])

    def _exact(self, n):
        ref = characteristic_root_solve(self.P, self.Q, 0.0, np.pi, 1,
                                        (0.25, 0, 0.1, -0.05), self.FORCING)
        grid = cgl_grid(n, 0.0, np.pi)
        return GridFunction(grid, ref(grid.nodes)[None, :]), self.FORCING.sample(grid)

    @pytest.mark.parametrize("n", [32, 64, 96, 128, 192, 256])
    def test_exact_solution_at_roundoff(self, n):
        u, f = self._exact(n)
        assert ode_residual(self.COEFF2, self.COEFF0, self.LAM, u, f) <= 1e-10

    @pytest.mark.parametrize("n", [32, 64, 96, 128, 192, 256])
    def test_perturbed_solution_rejected(self, n):
        u, f = self._exact(n)
        bump = 1e-6 * np.exp(-(((u.grid.nodes - 1.3) / 0.2) ** 2))
        u_bad = GridFunction(u.grid, u.values + bump)
        assert ode_residual(self.COEFF2, self.COEFF0, self.LAM, u_bad, f) >= 1e-6

    def test_needs_cgl_grid(self):
        grid = uniform_grid(64, 0.0, np.pi)
        u = GridFunction(grid, np.sin(grid.nodes)[None, :])
        with pytest.raises(DimensionMismatch):
            ode_residual(self.COEFF2, self.COEFF0, self.LAM, u, self.FORCING.sample(grid))
