import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_at
from quartic.bvp import ProblemSpec, _Blocks, resolvent_matrix, resolvent_solve
from quartic.errors import (
    DimensionMismatch,
    FactorizationFailure,
    NonFinite,
    NotInResolventSet,
    SingularOrIllConditioned,
    SpectrumOnCut,
)
from quartic.grids import GridFunction, cgl_grid
from quartic.kernels import Propagator
from quartic.operators import (
    _checked_root,
    dirichlet_laplacian_modes,
    make_operator,
    operator_norm,
    sector_half_angle,
    sqrt_matrix,
    sqrt_symbols,
)


class TestMakeOperator:
    def test_scalar(self):
        h = make_operator([[-1.0]])
        assert h.dim == 1
        assert np.allclose(h.spectrum, [-1.0])

    def test_diagonal(self):
        h = make_operator(np.diag([-1.0, -4.0, -9.0]))
        assert sorted(h.spectrum.real) == [-9.0, -4.0, -1.0]
        assert np.allclose(h.spectrum.imag, 0.0)

    @pytest.mark.parametrize("jordan", [False, True], ids=["random", "jordan"])
    def test_block_form_residual(self, rng, jordan):
        import scipy.linalg as sla

        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        if jordan:
            A = np.eye(8, k=1) - 2 * np.eye(8)
        h = make_operator(A)
        T, V, Vinv, kappa = h.block_form
        assert T.shape == ((1, 8, 8) if jordan else (8, 1, 1))
        assert kappa == (1.0 if jordan else h.eig_cond)
        assert not np.any(np.tril(T[0], -1))  # the Schur block is upper triangular
        res = np.linalg.norm(V @ sla.block_diag(*T) @ Vinv - A) / np.linalg.norm(A)
        assert res <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            make_operator([[np.nan, 0], [0, 1]])
        with pytest.raises(NonFinite):
            make_operator([[np.inf]])

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_operator(np.ones((2, 3)))

    def test_immutable(self):
        h = make_operator([[1.0]])
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 2.0


class TestDirichletModes:
    def test_one_mode(self):
        assert np.allclose(dirichlet_laplacian_modes(1).matrix, [[-1.0]])

    def test_three_modes(self):
        h = dirichlet_laplacian_modes(3)
        assert np.allclose(np.diag(h.matrix), [-1.0, -4.0, -9.0])

    def test_zero_in_resolvent_set(self):
        h = dirichlet_laplacian_modes(4)
        assert np.max(h.spectrum.real) <= -1.0

    def test_sector_angle_zero(self):
        assert sector_half_angle(dirichlet_laplacian_modes(3)) == 0.0


class TestSqrtPrincipal:
    """Principal square roots of the frame calculus: ``sqrt_symbols`` for
    eigenvalues (b = 1 frames) and ``sqrt_matrix`` for a block (one-block
    frames)."""

    def test_scalar_four(self):
        assert np.allclose(sqrt_symbols(np.array([4.0 + 0j])), [2.0])
        assert np.allclose(sqrt_matrix(np.array([[4.0 + 0j]])), [[2.0]])

    def test_complex_scalar(self):
        s = sqrt_symbols(np.array([1.0 + 2.0j]))[0]
        assert abs(s - (1.27201965 + 0.78615138j)) < 1e-7
        assert abs(s ** 2 - (1 + 2j)) < 1e-12

    def test_diag(self):
        assert np.allclose(sqrt_matrix(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))

    def test_cut_rejected(self):
        with pytest.raises(SpectrumOnCut):
            sqrt_symbols(np.array([-1.0 + 0j]))
        with pytest.raises(SpectrumOnCut):
            sqrt_matrix(np.diag([1.0, 0.0]).astype(complex))
        # each row of a (K, n) stack is measured on its own scale
        with pytest.raises(SpectrumOnCut):
            sqrt_symbols(np.array([[1e6, 2e6], [1.0, -1e-20]], dtype=complex))

    def test_right_half_plane(self, rng):
        A = rng.normal(size=(5, 5))
        A = A @ A.T + 6 * np.eye(5) + 1j * rng.normal(size=(5, 5)) * 0.1
        assert np.all(np.linalg.eigvals(sqrt_matrix(A)).real > 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_square_back_property(self, n, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.3, 8.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
        V = rng.normal(size=(n, n)) + 3 * np.eye(n)
        T = V @ np.diag(lam) @ np.linalg.inv(V)
        S = sqrt_matrix(T)
        assert np.linalg.norm(S @ S - T) / np.linalg.norm(T) <= 1e-10
        # and a root that does not square back is refused
        with pytest.raises(FactorizationFailure):
            _checked_root(S + 1e-6 * np.linalg.norm(S), T)

    def test_schur_fallback_on_defective(self):
        # Jordan block: the eigenvector basis is unusable, so A is one Schur
        # block and the frame takes its roots through sqrt_matrix
        T = make_operator(np.array([[4.0, 1.0], [0.0, 4.0]]))
        assert not T.diagonalizable
        blocks = T.block_form[0]
        assert blocks.shape == (1, 2, 2)
        S = sqrt_matrix(blocks[0])
        assert np.allclose(S @ S, blocks[0], atol=1e-12)
        frame = frame_at(make_operator(-T.matrix), -3.0)
        assert frame.block == 2
        assert max(frame.diagnostics["res_m_sq"], frame.diagnostics["res_l_sq"]) <= 1e-12


def _exp_cases():
    """A b = 1 stack (two eigenvalues) and a one-block stack (a 4 x 4 Jordan
    block), the two kinds of X a frame hands to ``Propagator``."""
    return (np.array([-1.0, -4.0 + 1.0j])[:, None, None],
            (np.eye(4, k=1) - 2.0 * np.eye(4))[None].astype(complex))


class TestExpmApply:
    """e^{tX} of the frame calculus: ``kernels.Propagator.exp_stack``."""

    def test_scalar(self):
        (e,) = Propagator(np.array([[[-1.0]]])).exp_stack(np.array([1.0]))
        assert np.allclose(e, [[[np.exp(-1.0)]]])

    def test_t_zero_identity(self):
        for x in _exp_cases():
            (e,) = Propagator(x).exp_stack(np.array([0.0]))
            assert np.array_equal(e, np.broadcast_to(np.eye(x.shape[-1]), x.shape))

    def test_diagonal(self):
        x, jordan = _exp_cases()
        (e,) = Propagator(x).exp_stack(np.array([0.5]))
        assert np.allclose(e[:, 0, 0], np.exp(0.5 * x[:, 0, 0]))
        # the Jordan block's exponential in closed form: e^{-2t} t^j / j!
        (e,) = Propagator(jordan).exp_stack(np.array([0.5]))
        want = sum(np.linalg.matrix_power(np.eye(4, k=1), j) * 0.5 ** j / math.factorial(j)
                   for j in range(4)) * np.exp(-1.0)
        assert np.allclose(e[0], want, rtol=0, atol=1e-14)

    def test_semigroup_law(self):
        for x in _exp_cases():
            e9, e4, e5 = Propagator(x).exp_stack(np.array([0.9, 0.4, 0.5]))
            assert np.linalg.norm(e4 @ e5 - e9) <= 1e-14 * np.linalg.norm(e9)


def _blocks_calculus(b: int, R: int = 1) -> _Blocks:
    """The calculus of one parameter's R b x b blocks in a basis of cond 1."""
    return _Blocks(1, R, b, 1.0)


class TestResolventApply:
    """The resolvent of the fourth-order problem (``bvp.resolvent_solve``,
    ``resolvent_matrix``): closed forms on sine modes, the resolvent identity
    on a one-block frame, and the refusal at a spectral point."""

    def test_scalar(self):
        # sin 2x is an eigenfunction of family 1: u = f / ((A - 4)^2 - lam)
        spec = ProblemSpec(0.0, np.pi, 0.0, make_operator([[-1.0]]), 1)
        grid = cgl_grid(64, 0.0, np.pi)
        f = GridFunction(grid, np.sin(2 * grid.nodes)[None, :].astype(complex))
        u = resolvent_solve(spec, 1.0 + 3.0j, f)
        assert np.max(np.abs(u.values - f.values / (24.0 - 3.0j))) <= 1e-9

    def test_diag_at_zero(self):
        # lam = 0 with k = 1 takes the direct factorization (A - k, A): on sin x
        # each mode divides by (A - 1)(A - 2)
        spec = ProblemSpec(0.0, np.pi, 1.0, make_operator(np.diag([-1.0, -4.0])), 1)
        grid = cgl_grid(64, 0.0, np.pi)
        f = GridFunction(grid, np.tile(np.sin(grid.nodes), (2, 1)).astype(complex))
        u = resolvent_solve(spec, 0.0, f)
        want = f.values / np.array([[6.0], [30.0]])
        assert np.max(np.abs(u.values - want)) <= 1e-9

    def test_resolvent_identity(self):
        # one-block (Schur) frames: R(l1) - R(l2) = (l1 - l2) R(l1) R(l2)
        spec = ProblemSpec(0.0, np.pi, 0.0, make_operator(np.eye(2, k=1) - 2.0 * np.eye(2)), 1)
        assert spec.A.block_form[0].shape == (1, 2, 2)
        grid = cgl_grid(64, 0.0, np.pi)
        l1, l2 = -3.0 + 2.0j, 5.0 - 1.0j
        r1, r2 = (resolvent_matrix(spec, lam, grid) for lam in (l1, l2))
        defect = np.linalg.norm(r1 - r2 - (l1 - l2) * r1 @ r2, 2) / np.linalg.norm(r1 - r2, 2)
        assert defect <= 1e-9

    def test_near_spectrum_guard(self):
        # 4 is the first family-1 eigenvalue of A = -1; there Q = 1 and -Q
        # lies on the square root's cut, and within its tolerance the frame
        # refuses
        spec = ProblemSpec(0.0, np.pi, 0.0, make_operator([[-1.0]]), 1)
        with pytest.raises(NotInResolventSet, match="branch cut"):
            resolvent_solve(spec, 4.0 + 1e-12j, GridFunction.zeros(cgl_grid(16, 0.0, np.pi), 1))


class TestGuardedInverse:
    """Guarded inverses (I - T)^{-1} of the frame calculus:
    ``bvp._Blocks.inv_i_minus``."""

    def test_zero_gives_identity(self):
        assert np.allclose(_blocks_calculus(1).inv_i_minus(np.zeros((1, 1, 1)), "T"), 1.0)

    def test_half(self):
        assert np.allclose(_blocks_calculus(1).inv_i_minus(np.full((1, 1, 1), 0.5), "T"), 2.0)

    def test_multiply_back(self, rng):
        T = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        T *= 0.9 / np.linalg.norm(T, 2)
        inv = _blocks_calculus(5).inv_i_minus(T[None], "T")[0]
        assert np.linalg.norm((np.eye(5) - T) @ inv - np.eye(5)) <= 1e-10
        d = T.diagonal()[:, None, None]
        inv = _blocks_calculus(1, 5).inv_i_minus(d, "T")
        assert np.max(np.abs((1.0 - d) * inv - 1.0)) <= 1e-15

    def test_neumann_identity(self, rng):
        V = rng.normal(size=(4, 4)) * 0.2
        inv = _blocks_calculus(4).inv_i_minus(-V[None], "-V")[0]  # (I+V)^{-1}
        assert np.linalg.norm(inv - (np.eye(4) - V @ inv)) <= 1e-10

    def test_singular_rejected(self):
        for b in (1, 2):
            calc = _blocks_calculus(b)
            with pytest.raises(SingularOrIllConditioned):
                calc.inv_i_minus(np.eye(b)[None], "T")
            with pytest.raises(SingularOrIllConditioned):
                calc.inv_i_minus((1.0 + 1e-14) * np.eye(b)[None], "T")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_rejected(self, bad):
        # frame members that overflowed are refused, not inverted
        T = np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(SingularOrIllConditioned, match="condition estimate"):
            _blocks_calculus(2).inv_i_minus(T[None], "T")
        with pytest.raises(SingularOrIllConditioned, match="condition estimate"):
            _blocks_calculus(1, 2).inv_i_minus(T.diagonal()[:, None, None], "T")


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3), np.ones(3)) == pytest.approx(1.0)

    def test_diag(self):
        assert operator_norm(np.diag([3.0, -4.0]), np.ones(2)) == pytest.approx(4.0)

    def test_power_iteration_oracle(self, rng):
        M = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        w = rng.uniform(0.5, 2.0, 10)
        d = np.sqrt(w)
        Mw = d[:, None] * M / d[None, :]
        # independent oracle: power iteration on Mw^H Mw
        x = rng.normal(size=10) + 1j * rng.normal(size=10)
        for _ in range(2000):
            x = Mw.conj().T @ (Mw @ x)
            x /= np.linalg.norm(x)
        sigma = np.linalg.norm(Mw @ x)
        assert abs(operator_norm(M, w) - sigma) <= 1e-8 * sigma

    def test_weight_validation(self):
        with pytest.raises(DimensionMismatch):
            operator_norm(np.eye(3), np.array([1.0, -1.0, 1.0]))
