import numpy as np
import pytest

from conftest import frame_at
from quartic.bvp import (
    assemble_frame,
    frame_identity_residual,
    resolvent_product_residual,
)
from quartic.errors import (
    BranchCut,
    DimensionMismatch,
    FrameSingular,
    NonCommutingOperators,
    NonFinite,
)
from quartic.operators import make_operator


class TestBuildPQ:
    """The quadratic factors P, Q and their separation B of a frame."""

    def test_scalar_example(self, scalar_op):
        frame = frame_at(scalar_op, -4.0)
        assert np.allclose(frame.p, [[-1.0 + 2.0j]])
        assert np.allclose(frame.q, [[-1.0 - 2.0j]])
        assert np.allclose(frame.b_op, [[4.0j]])

    def test_branch_point_excluded(self, scalar_op):
        with pytest.raises(BranchCut):
            frame_at(scalar_op, 0.0)
        with pytest.raises(BranchCut):
            frame_at(scalar_op, -1.0, k=2.0)  # lam = -k^2/4
        with pytest.raises(BranchCut):
            frame_at(scalar_op, 5.0)   # on the cut interior

    def test_gap_vanishes_toward_branch_point(self, scalar_op):
        # continuity: the separation operator shrinks like 2 sqrt(|lam|)
        for lam in (-1e-2, -1e-5, -1e-8):
            B = frame_at(scalar_op, lam).b_op
            assert abs(B[0, 0]) == pytest.approx(2 * np.sqrt(-lam), rel=1e-12)

    def test_diag_with_drift(self, diag3_op):
        A2 = make_operator(np.diag([-1.0, -4.0]))
        frame = frame_at(A2, -10.0, k=1.0)
        s = np.sqrt(10.0 - 0.25)
        assert np.allclose(frame.p - frame.q, 2j * s * np.eye(2))
        assert np.allclose(np.diag(frame.p), np.array([-1.5, -4.5]) + 1j * s)

    def test_sum_and_product_recover_equation(self, diag3_op):
        # P + Q = 2A - kI and PQ = A^2 - kA - lam I
        k, lam = 1.0, -7.0 + 3.0j
        frame = frame_at(diag3_op, lam, k=k)
        Am = diag3_op.matrix
        assert np.allclose(frame.p + frame.q, 2 * Am - k * np.eye(3))
        assert np.allclose(frame.p @ frame.q,
                           Am @ Am - k * Am - lam * np.eye(3))


class TestAssembleFrame:
    def test_scalar_frame_residuals(self):
        frame = assemble_frame([[-1 + 2j]], [[-1 - 2j]], [[4j]], np.pi)
        assert np.linalg.norm(frame.l @ frame.l + frame.q) <= 1e-12 * np.linalg.norm(frame.q)
        assert np.linalg.norm(frame.m @ frame.m + frame.p) <= 1e-12 * np.linalg.norm(frame.p)
        e2cm = frame.prop_m.exp_stack(np.array([2 * frame.c]))[0]
        assert np.linalg.norm(frame.z @ (np.eye(1) - e2cm) - np.eye(1)) <= 1e-12

    def test_equal_factors_rejected(self):
        with pytest.raises(FrameSingular):
            assemble_frame([[-1.0 + 1j]], [[-1.0 + 1j]], [[0.0]], 1.0)

    def test_noncommuting_rejected(self, rng):
        P = rng.normal(size=(3, 3)) - 5 * np.eye(3)
        Q = rng.normal(size=(3, 3)) - 5 * np.eye(3)
        with pytest.raises((NonCommutingOperators, FrameSingular)):
            assemble_frame(P, Q, P - Q, 1.0)

    @pytest.mark.parametrize("P,Q,B", [
        (-1 + 2j, -1 - 2j, 4j),                         # scalars, not matrices
        ([[-1 + 2j]], [[-1 - 2j, 0.0]], [[4j]]),        # Q not square
        (np.eye(2), -np.eye(2), 2 * np.eye(3)),         # sizes differ
    ])
    def test_malformed_factors_rejected(self, P, Q, B):
        with pytest.raises(DimensionMismatch):
            assemble_frame(P, Q, B, 1.0)

    def test_non_finite_factors_rejected(self):
        with pytest.raises(NonFinite):
            assemble_frame([[np.nan]], [[-1 - 2j]], [[4j]], 1.0)

    def test_long_interval_contractive(self):
        frame = assemble_frame([[-1 + 2j]], [[-1 - 2j]], [[4j]], 20.0)
        assert frame.diagnostics["norm_t_minus"] < 1.0
        assert frame.diagnostics["norm_t_plus"] < 1.0
        assert frame.diagnostics["contractive"]

    def test_uv_structure(self, diag3_op):
        frame = frame_at(diag3_op, -9.0)
        assert np.allclose(frame.u_op, np.eye(3) - frame.t_minus)
        assert np.allclose(frame.v_op, np.eye(3) - frame.t_plus)
        assert frame.uv_ok

    def test_pairwise_commutation_for_diagonal_base(self, diag3_op):
        frame = frame_at(diag3_op, -5.0 + 2.0j, k=1.0)
        members = [frame.p, frame.q, frame.b_op, frame.l, frame.m,
                   frame.z, frame.w, frame.u_op, frame.v_op]
        for X in members:
            for Y in members:
                scale = max(np.linalg.norm(X) * np.linalg.norm(Y), 1e-30)
                assert np.linalg.norm(X @ Y - Y @ X) <= 1e-10 * scale


class TestFrameIdentities:
    @pytest.mark.parametrize("lam", [-3.0, -40.0, -2.0 + 9.0j, -700.0 - 5.0j])
    def test_factor_difference_identity(self, diag3_op, lam):
        frame = frame_at(diag3_op, lam, k=1.0)
        assert frame_identity_residual(frame) <= 1e-10

    @pytest.mark.parametrize("z", [1.0 + 2.0j, 15.0, -3.0 + 1.0j, 0.5j])
    def test_resolvent_product_identity(self, diag3_op, z):
        frame = frame_at(diag3_op, -11.0)
        assert resolvent_product_residual(frame, z) <= 1e-10

    def test_sqrt_sum_identity(self, diag3_op):
        # L = M + B (L+M)^{-1}: difference of generators carried by B
        frame = frame_at(diag3_op, -6.0)
        rhs = frame.m + frame.b_op @ np.linalg.inv(frame.l + frame.m)
        assert np.linalg.norm(frame.l - rhs) <= 1e-10 * np.linalg.norm(frame.l)
