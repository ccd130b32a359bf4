import numpy as np
import pytest

from conftest import frame_at, smooth_field
from quartic.bvp import (
    ProblemSpec,
    _data_derivatives,
    _lambda_frames,
    _second_order,
    bc_conditions,
    boundary_residuals,
    condition_value,
    solve_bc1,
    solve_bc2,
    solve_bc3,
    solve_bc4,
    solve_bc5,
)
from quartic.grids import GridFunction, cgl_grid
from quartic.operators import make_operator
from quartic.oracle import ScalarForcing, characteristic_root_solve, ode_residual
from references import family2_coefficients, fprime_boundary, stencil_derivative_matrix

SOLVERS = {1: solve_bc1, 2: solve_bc2, 3: solve_bc3, 4: solve_bc4, 5: solve_bc5}


def scalar_frame(lam=-4.0, k=0.0, c=np.pi):
    frame = frame_at(make_operator([[-1.0]]), lam, k, c)
    return frame, complex(frame.p[0, 0]), complex(frame.q[0, 0])


class TestParticularSolution:
    def test_zero_data_gives_zero(self):
        frame, _, _ = scalar_frame()
        grid = cgl_grid(40, 0.0, np.pi)
        F = solve_bc1(frame, GridFunction.zeros(grid, 1))
        assert np.max(np.abs(F.values)) == 0.0

    def test_constant_forcing_matches_characteristic_oracle(self):
        frame, p, q = scalar_frame(lam=-4.0)
        grid = cgl_grid(200, 0.0, np.pi)
        forcing = ScalarForcing(poly=[1.0])
        F = solve_bc1(frame, forcing.sample(grid))
        ref = characteristic_root_solve(p, q, 0.0, np.pi, 1, (0, 0, 0, 0), forcing)
        assert np.max(np.abs(F.values[0] - ref(grid.nodes))) <= 1e-6

    def test_homogeneous_boundary_residuals(self, rng):
        frame, _, _ = scalar_frame(lam=-7.0)
        grid = cgl_grid(96, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        F = solve_bc1(frame, f)
        res = boundary_residuals(grid, F, [np.zeros(1)] * 4, 1, frame.p)
        assert max(res.values()) <= 1e-8 * f.norm()

    def test_inhomogeneous_boundary_values(self, rng):
        frame, _, _ = scalar_frame(lam=-3.0)
        grid = cgl_grid(96, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        phi = [rng.normal(size=1) + 1j * rng.normal(size=1) for _ in range(4)]
        F = solve_bc1(frame, f, phi)
        res = boundary_residuals(grid, F, phi, 1, frame.p)
        assert max(res.values()) <= 1e-7 * max(f.norm(), 1.0)


class TestSecondOrderStage:
    """v'' - X^2 v = f for one generator X, on a modal and on a dense frame."""

    @pytest.mark.parametrize("lam", [-1.0 + 2.0j, -300.0])
    @pytest.mark.parametrize("generator", ["l", "m"])
    @pytest.mark.parametrize("A", [np.diag([-1.0, -4.0, -9.0]),
                                   np.array([[-2.0, 1.0], [0.0, -2.0]])],
                             ids=["modal", "jordan"])
    def test_endpoint_values_and_slope(self, rng, A, generator, lam):
        op = make_operator(A)
        frame = _lambda_frames(ProblemSpec(0.0, np.pi, 0.0, op, 1), lam)
        assert (frame.block == 1) == op.diagonalizable
        grid = cgl_grid(64, 0.0, np.pi)
        fv = frame.to_modes(smooth_field(rng, grid, op.dim).values.T[:, :, None])
        v_a, v_b = (frame.to_modes(rng.normal(size=(op.dim, 1))
                                   + 1j * rng.normal(size=(op.dim, 1))) for _ in range(2))
        v, vp, vpp, _, _ = _second_order(frame, frame.grid_kit(grid), generator, fv,
                                         *_data_derivatives(grid, fv), v_a, v_b)
        for got, want in ((v[0], v_a), (v[-1], v_b)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # the returned derivatives against stencil derivatives of the samples
        for order, got in ((1, vp), (2, vpp)):
            stencil = np.einsum("ij,jkr->ikr", stencil_derivative_matrix(grid.nodes, order), v)
            assert np.max(np.abs(stencil - got)) <= 1e-4 * np.max(np.abs(got))


class TestEndpointDerivative:
    def test_zero_forcing(self):
        frame, _, _ = scalar_frame()
        grid = cgl_grid(40, 0.0, np.pi)
        fa, fb = fprime_boundary(frame, GridFunction.zeros(grid, 1))
        assert np.all(fa == 0) and np.all(fb == 0)

    def test_symmetric_forcing_antisymmetric_slopes(self):
        # f even about the midpoint makes the particular solution even,
        # so its endpoint slopes are opposite
        frame, _, _ = scalar_frame(lam=-5.0)
        grid = cgl_grid(120, 0.0, np.pi)
        f = GridFunction(grid, np.cos(grid.nodes - np.pi / 2)[None, :].astype(complex))
        fa, fb = fprime_boundary(frame, f)
        assert abs(fa[0] + fb[0]) <= 1e-8 * max(abs(fa[0]), 1e-30)

    def test_matches_stencil_derivative_of_F(self, rng):
        frame, _, _ = scalar_frame(lam=-6.0)
        grid = cgl_grid(120, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        fa, fb = fprime_boundary(frame, f)
        F = solve_bc1(frame, f)
        D1 = stencil_derivative_matrix(grid.nodes, 1)
        slopes = F.values @ D1.T
        assert abs(slopes[0, 0] - fa[0]) <= 1e-7 * max(abs(fa[0]), 1.0)
        assert abs(slopes[0, -1] - fb[0]) <= 1e-7 * max(abs(fb[0]), 1.0)


class TestScalarFamilies:
    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_matches_characteristic_oracle(self, rng, bc):
        frame, p, q = scalar_frame(lam=-11.0, k=1.0)
        grid = cgl_grid(150, 0.0, np.pi)
        forcing = ScalarForcing(poly=[0.2, -0.4], exps=[(2j, 0.8), (-2j, 0.5 - 0.1j)])
        f = forcing.sample(grid)
        phi = tuple(rng.normal() + 1j * rng.normal() for _ in range(4))
        u = SOLVERS[bc](frame, f, [np.array([z]) for z in phi])
        ref = characteristic_root_solve(p, q, 0.0, np.pi, bc, phi, forcing)
        assert np.max(np.abs(u.values[0] - ref(grid.nodes))) <= 1e-6

    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_zero_data_zero_solution(self, bc):
        frame, _, _ = scalar_frame()
        grid = cgl_grid(40, 0.0, np.pi)
        u = SOLVERS[bc](frame, GridFunction.zeros(grid, 1))
        assert np.max(np.abs(u.values)) <= 1e-14

    def test_bc1_single_phi_mode(self):
        frame, p, q = scalar_frame(lam=-4.0)
        grid = cgl_grid(100, 0.0, np.pi)
        f = GridFunction.zeros(grid, 1)
        u = solve_bc1(frame, f, [np.array([1.0]), np.zeros(1), np.zeros(1), np.zeros(1)])
        ref = characteristic_root_solve(p, q, 0.0, np.pi, 1, (1.0, 0, 0, 0),
                                        ScalarForcing())
        assert np.max(np.abs(u.values[0] - ref(grid.nodes))) <= 1e-8
        assert abs(u.values[0, 0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("bc", [2, 3, 4])
    def test_boundary_residuals_random_data(self, rng, bc):
        frame, _, _ = scalar_frame(lam=-9.0)
        grid = cgl_grid(120, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        phi = [rng.normal(size=1) + 1j * rng.normal(size=1) for _ in range(4)]
        u = SOLVERS[bc](frame, f, phi)
        res = boundary_residuals(grid, u, phi, bc, frame.p)
        scale = max(f.norm(), max(abs(p[0]) for p in phi))
        assert max(res.values()) <= 1e-8 * scale

    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_boundary_residuals_match_dense_stencils(self, rng, bc):
        frame, _, _ = scalar_frame(lam=-9.0)
        grid = cgl_grid(120, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        phi = [rng.normal(size=1) + 1j * rng.normal(size=1) for _ in range(4)]
        u = SOLVERS[bc](frame, f, phi)
        # whole dense products, then one column of each
        dense = [stencil_derivative_matrix(grid.nodes, k) for k in (1, 2)]
        derivs = (u.values,) + tuple(u.values @ D.T for D in dense)
        res = boundary_residuals(grid, u, phi, bc, frame.p)
        for (name, end, kind), p in zip(bc_conditions(bc), phi):
            want = np.linalg.norm(condition_value(kind, lambda order: derivs[order][:, end],
                                                  lambda v: frame.p @ v) - p)
            # the round-off scale of the stencil sums: sum_i |w_i| |u_i|
            scale = max(np.linalg.norm(np.abs(u.values) @ np.abs(D[end])) for D in dense)
            assert abs(res[name] - want) <= 1e-14 * scale * max(1.0, abs(frame.p[0, 0]))

    def test_interior_ode_residual(self, rng):
        frame, _, _ = scalar_frame(lam=-4.0)
        A = make_operator([[-1.0]])
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        u = solve_bc1(frame, f)
        coeff2 = 2 * A.matrix
        coeff0 = A.matrix @ A.matrix
        assert ode_residual(coeff2, coeff0, -4.0, u, f) <= 1e-6

    def test_residual_scales_linearly(self, rng):
        frame, _, _ = scalar_frame(lam=-4.0)
        grid = cgl_grid(100, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        u1 = solve_bc1(frame, f)
        u10 = solve_bc1(frame, GridFunction(grid, 10.0 * f.values))
        assert np.max(np.abs(u10.values - 10 * u1.values)) <= 1e-9 * np.max(np.abs(u10.values))


class TestFamilyFive:
    def test_reduces_to_family_one(self, rng, diag3_op):
        frame = frame_at(diag3_op, -8.0)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 3)
        phi = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4)]
        u5 = solve_bc5(frame, f, phi)
        u1 = solve_bc1(frame, f, (phi[0], phi[1],
                                  phi[2] - frame.p @ phi[0],
                                  phi[3] - frame.p @ phi[1]))
        assert np.array_equal(u5.values, u1.values)

    def test_zero_dirichlet_identical_to_family_one(self, rng):
        frame, _, _ = scalar_frame(lam=-5.0)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        phi = [np.zeros(1), np.zeros(1), rng.normal(size=1), rng.normal(size=1)]
        assert np.array_equal(solve_bc5(frame, f, phi).values,
                              solve_bc1(frame, f, phi).values)

    def test_bc5_residuals(self, rng):
        frame, _, _ = scalar_frame(lam=-6.0)
        grid = cgl_grid(120, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        phi = [rng.normal(size=1) for _ in range(4)]
        u = solve_bc5(frame, f, phi)
        res = boundary_residuals(grid, u, phi, 5, frame.p)
        assert max(res.values()) <= 1e-8 * max(f.norm(), 1.0)

    def test_diagonal_decouples_to_scalar(self, rng, diag3_op):
        frame = frame_at(diag3_op, -8.0)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 3)
        phi = [rng.normal(size=3) + 0j for _ in range(4)]
        u = solve_bc5(frame, f, phi)
        for comp, a0 in enumerate([-1.0, -4.0, -9.0]):
            A1 = make_operator([[a0]])
            fr1 = frame_at(A1, -8.0)
            u1 = solve_bc5(fr1, GridFunction(grid, f.values[comp][None, :]),
                           [p[comp:comp + 1] for p in phi])
            assert np.max(np.abs(u.values[comp] - u1.values[0])) <= 1e-10


class TestFamilyTwoBookkeeping:
    def test_l_mode_coefficients_vanish_for_homogeneous_second_pair(self, rng):
        # phi3 = phi4 = 0 wipes the coefficients on both L-mode exponentials
        frame, _, _ = scalar_frame(lam=-7.0)
        grid = cgl_grid(80, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        phi = (np.array([0.3 + 0.2j]), np.array([-0.1j]), np.zeros(1), np.zeros(1))
        a1, a2, a3, a4 = family2_coefficients(frame, f, phi)
        assert np.max(np.abs(a2)) == 0.0
        assert np.max(np.abs(a4)) == 0.0

    def test_coefficient_formulas_read_back(self, rng, diag3_op):
        frame = frame_at(diag3_op, -5.0)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 3)
        phi = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4)]
        a1, a2, a3, a4 = family2_coefficients(frame, f, phi)
        # the published coefficient formulas, assembled independently
        fa, fb = fprime_boundary(frame, f)
        eye = np.eye(3)
        pt1 = 0.5 * (phi[0] + phi[1] - fa - fb)
        pt2 = 0.5 * (phi[0] - phi[1] - fa + fb)
        a2_ref = frame.inv_im_el @ frame.binv @ (0.5 * (phi[2] - phi[3]))
        a4_ref = frame.inv_ip_el @ frame.binv @ (0.5 * (phi[2] + phi[3]))
        a1_ref = frame.inv_ip_em @ (
            frame.minv @ pt1 - (eye + frame.e_cl) @ frame.l @ frame.minv @ a2_ref)
        a3_ref = frame.inv_im_em @ (
            frame.minv @ pt2 - (eye - frame.e_cl) @ frame.l @ frame.minv @ a4_ref)
        for got, ref in ((a1, a1_ref), (a2, a2_ref), (a3, a3_ref), (a4, a4_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-15)

    def test_reconstruction_from_coefficients(self, rng):
        frame, _, _ = scalar_frame(lam=-6.0)
        grid = cgl_grid(80, 0.0, np.pi)
        f = smooth_field(rng, grid, 1)
        phi = [rng.normal(size=1) + 1j * rng.normal(size=1) for _ in range(4)]
        a1, a2, a3, a4 = family2_coefficients(frame, f, phi)
        u = solve_bc2(frame, f, phi)
        F = solve_bc1(frame, f)
        x = grid.nodes
        m = frame.m[0, 0]
        l = frame.l[0, 0]
        modes = (
            (np.exp((x - x[0]) * m) - np.exp((x[-1] - x) * m)) * a1[0]
            + (np.exp((x - x[0]) * l) - np.exp((x[-1] - x) * l)) * a2[0]
            + (np.exp((x - x[0]) * m) + np.exp((x[-1] - x) * m)) * a3[0]
            + (np.exp((x - x[0]) * l) + np.exp((x[-1] - x) * l)) * a4[0]
        )
        assert np.max(np.abs(u.values[0] - (modes + F.values[0]))) <= 1e-10
