import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic.errors import (
    DimensionMismatch,
    FactorizationFailure,
    NearSpectrum,
    NonFinite,
    SampleOnSpectrum,
    SingularOrIllConditioned,
    SpectrumOnCut,
)
from quartic.operators import (
    dirichlet_laplacian_modes,
    expm_apply,
    guarded_inverse_I_minus,
    inverse_I_minus,
    make_operator,
    operator_norm,
    resolvent_apply,
    sector_angle_probe,
    sector_half_angle,
    sqrt_principal,
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


def _near_defective(gap):
    """6 x 6 A with eigenvalues -1 and -1 - gap, in a rotated triangular form."""
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    T = np.diag([-1.0, -1.0 - gap, -4.0, -9.0, -16.0, -25.0]) + np.triu(rng.normal(size=(6, 6)), 1)
    return q @ T @ q.T


class TestGivenEigenpairs:
    """make_operator(M, eig=(w, V)) validates eigenpairs the caller hands in."""

    @staticmethod
    def _adjoint_pairs(A):
        w, V = np.linalg.eig(A)
        return w.conj(), np.linalg.inv(V).conj().T

    @pytest.mark.parametrize("gap", [1.0, 1e-5, 1e-7])
    def test_same_trust_decision_as_eig(self, gap):
        A = _near_defective(gap)
        w, Vh = self._adjoint_pairs(A)
        computed = make_operator(A.conj().T)
        given = make_operator(A.conj().T, eig=(w, Vh))
        assert given.diagonalizable == computed.diagonalizable
        assert given.diagonalizable == (gap > 1e-7)
        np.testing.assert_array_equal(given.spectrum, w)
        assert given.eig_cond == pytest.approx(np.linalg.cond(Vh), rel=1e-6)
        if given.diagonalizable:
            np.testing.assert_array_equal(given.eigvecs, Vh)
            np.testing.assert_allclose(given.eigvecs_inv @ given.eigvecs, np.eye(6),
                                       atol=1e-9 * given.eig_cond)

    def test_mismatched_pairs_rejected(self):
        A = _near_defective(1.0)
        w, Vh = self._adjoint_pairs(A)
        for pairs in ((w[::-1], Vh), (w + 1e-6, Vh), (w, Vh[:, ::-1]), (w * np.nan, Vh)):
            with pytest.raises(FactorizationFailure):
                make_operator(A.conj().T, eig=pairs)


class TestDirichletModes:
    def test_one_mode(self):
        assert np.allclose(dirichlet_laplacian_modes(1).matrix, [[-1.0]])

    def test_three_modes(self):
        h = dirichlet_laplacian_modes(3)
        assert np.allclose(np.diag(h.matrix), [-1.0, -4.0, -9.0])

    def test_zero_in_resolvent_set(self):
        h = dirichlet_laplacian_modes(4)
        assert np.max(h.spectrum.real) <= -1.0
        x = resolvent_apply(h, 0.0, np.ones(4))  # 0 in the resolvent set
        assert np.allclose(x, 1.0 / np.arange(1, 5) ** 2)

    def test_sector_angle_zero(self):
        assert sector_half_angle(dirichlet_laplacian_modes(3)) == 0.0


class TestSqrtPrincipal:
    def test_scalar_four(self):
        assert np.allclose(sqrt_principal(make_operator([[4.0]])).matrix, [[2.0]])

    def test_complex_scalar(self):
        s = sqrt_principal(make_operator([[1.0 + 2.0j]]))
        assert abs(s.matrix[0, 0] - (1.27201965 + 0.78615138j)) < 1e-7
        assert abs(s.matrix[0, 0] ** 2 - (1 + 2j)) < 1e-12

    def test_diag(self):
        s = sqrt_principal(make_operator(np.diag([4.0, 9.0])))
        assert np.allclose(s.matrix, np.diag([2.0, 3.0]))

    def test_cut_rejected(self):
        with pytest.raises(SpectrumOnCut):
            sqrt_principal(make_operator([[-1.0]]))
        with pytest.raises(SpectrumOnCut):
            sqrt_principal(make_operator(np.diag([1.0, 0.0])))

    def test_right_half_plane(self, rng):
        A = rng.normal(size=(5, 5))
        A = A @ A.T + 6 * np.eye(5) + 1j * rng.normal(size=(5, 5)) * 0.1
        s = sqrt_principal(make_operator(A))
        assert np.all(s.spectrum.real > 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_square_back_property(self, n, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.3, 8.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
        V = rng.normal(size=(n, n)) + 3 * np.eye(n)
        T = make_operator(V @ np.diag(lam) @ np.linalg.inv(V))
        S = sqrt_principal(T)
        res = np.linalg.norm(S.matrix @ S.matrix - T.matrix) / np.linalg.norm(T.matrix)
        assert res <= 1e-10

    def test_schur_fallback_on_defective(self):
        # Jordan block: eigenvector basis unusable, Schur route must engage
        T = make_operator(np.array([[4.0, 1.0], [0.0, 4.0]]))
        assert not T.diagonalizable
        S = sqrt_principal(T)
        assert np.allclose(S.matrix @ S.matrix, T.matrix, atol=1e-12)


class TestExpmApply:
    def test_scalar(self):
        assert np.allclose(expm_apply(make_operator([[-1.0]]), 1.0, np.array([1.0])),
                           [np.exp(-1.0)])

    def test_t_zero_identity(self, rng):
        T = make_operator(rng.normal(size=(4, 4)))
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.array_equal(expm_apply(T, 0.0, v), v)

    def test_diagonal(self):
        T = make_operator(np.diag([-1.0, -4.0]))
        out = expm_apply(T, 0.5, np.array([1.0, 1.0]))
        assert np.allclose(out, [np.exp(-0.5), np.exp(-2.0)])

    def test_semigroup_law(self, rng):
        T = make_operator(-(rng.normal(size=(5, 5)) @ np.eye(5)) - 4 * np.eye(5))
        v = rng.normal(size=5)
        lhs = expm_apply(T, 0.9, v)
        rhs = expm_apply(T, 0.4, expm_apply(T, 0.5, v))
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(lhs), 1.0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            expm_apply(make_operator([[-1.0]]), -0.1, np.array([1.0]))


class TestResolventApply:
    def test_scalar(self):
        out = resolvent_apply(make_operator([[-1.0]]), 1.0, np.array([1.0]))
        assert np.allclose(out, [0.5])

    def test_diag_at_zero(self):
        out = resolvent_apply(make_operator(np.diag([-1.0, -4.0])), 0.0,
                              np.array([1.0, 1.0]))
        assert np.allclose(out, [1.0, 0.25])

    def test_random_residual(self, rng):
        T = make_operator(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        lam = 4.0 + 11.0j
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        x = resolvent_apply(T, lam, v)
        res = np.linalg.norm((lam * np.eye(6) - T.matrix) @ x - v)
        assert res <= 1e-10 * (abs(lam) + T.norm()) * np.linalg.norm(x)

    def test_resolvent_identity(self, rng):
        T = make_operator(rng.normal(size=(5, 5)))
        l1, l2 = 3.0 + 9.0j, -7.0 + 2.0j
        eye = np.eye(5, dtype=complex)
        r1 = resolvent_apply(T, l1, eye)
        r2 = resolvent_apply(T, l2, eye)
        assert np.linalg.norm(r1 - r2 - (l2 - l1) * r1 @ r2) <= 1e-10 * np.linalg.norm(r1)

    def test_near_spectrum_guard(self):
        T = make_operator([[-1.0]])
        with pytest.raises(NearSpectrum):
            resolvent_apply(T, -1.0 + 1e-14j, np.array([1.0]))


class TestGuardedInverse:
    def test_zero_gives_identity(self):
        inv = guarded_inverse_I_minus(make_operator([[0.0]]))
        assert np.allclose(inv.matrix, [[1.0]])

    def test_half(self):
        inv = guarded_inverse_I_minus(make_operator([[0.5]]))
        assert np.allclose(inv.matrix, [[2.0]])

    def test_multiply_back(self, rng):
        T = rng.normal(size=(5, 5))
        T *= 0.9 / np.linalg.norm(T, 2)
        h = make_operator(T)
        inv = guarded_inverse_I_minus(h)
        res = np.linalg.norm((np.eye(5) - T) @ inv.matrix - np.eye(5))
        assert res <= 1e-10
        assert "contractive" in inv.label

    def test_neumann_identity(self, rng):
        V = rng.normal(size=(4, 4)) * 0.2
        inv = guarded_inverse_I_minus(make_operator(-V)).matrix  # (I+V)^{-1}
        assert np.linalg.norm(inv - (np.eye(4) - V @ inv)) <= 1e-10

    def test_singular_rejected(self):
        with pytest.raises(SingularOrIllConditioned):
            guarded_inverse_I_minus(make_operator([[1.0]]))
        with pytest.raises(SingularOrIllConditioned):
            guarded_inverse_I_minus(make_operator([[1.0 + 1e-14]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_rejected(self, bad):
        # the array form takes frame members that never passed make_operator
        with pytest.raises(SingularOrIllConditioned, match="non-finite"):
            inverse_I_minus(np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex), "T")


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3), np.ones(3)) == pytest.approx(1.0)

    def test_diag(self):
        assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

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


class TestSectorProbe:
    def test_positive_selfadjoint_finite(self):
        probe = sector_angle_probe(make_operator(np.diag([1.0, 2.0])), 0.1)
        assert np.isfinite(probe.sup_bound)
        assert not probe.blow_up

    def test_eigenvalue_outside_sector_blows_up(self):
        T = make_operator([[np.exp(1j * np.pi / 3)]])
        probe = sector_angle_probe(
            T, np.pi / 4,
            radii=np.linspace(0.2, 3.0, 60),
            angles=np.array([np.pi / 3, -np.pi / 3, np.pi / 2]),
        )
        assert probe.blow_up

    def test_sample_inside_sector_rejected(self):
        with pytest.raises(SampleOnSpectrum):
            sector_angle_probe(make_operator([[1.0]]), 0.5,
                               radii=np.array([1.0]), angles=np.array([0.2]))

    def test_in_sector_spectrum_never_blows_up(self, rng):
        # diagonal spectrum inside the sector, probe angle strictly larger
        for _ in range(5):
            lam = rng.uniform(0.5, 5.0, 4) * np.exp(
                1j * rng.uniform(-0.3, 0.3, 4))
            probe = sector_angle_probe(make_operator(np.diag(lam)), 0.3 + 0.2)
            assert not probe.blow_up
