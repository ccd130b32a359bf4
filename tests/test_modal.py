"""Modal (eigenbasis) frames against dense frames, and the dense fallback."""

import numpy as np
import pytest

from conftest import smooth_field
from quartic import bvp, operators
from quartic.bvp import (
    _SOLVERS,
    ProblemSpec,
    _build_frame,
    _lambda_frame,
    _lambda_frames,
    assemble_frame,
    boundary_residuals,
    build_pq_lambda,
    resolvent_matrix,
)
from quartic.errors import FrameSingular
from quartic.grids import GridFunction, cgl_grid
from quartic.operators import make_operator, shift_operator
from quartic.oracle import _coeffs_from_A, collocation_solve, ode_residual
from quartic.verify import _random_sectorial


def _nonnormal(rng, n, cond=30.0):
    """Spectrum -1, -4, ... in a basis with singular values 1..cond."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V = q1 @ np.diag(np.logspace(0, np.log10(cond), n)) @ q2
    return make_operator(V @ np.diag(-np.arange(1, n + 1, dtype=float) ** 2) @ np.linalg.inv(V))


def _operators():
    # -A sectorial in the paper's sense: the random spectrum in the left half-plane
    ops = [make_operator(-_random_sectorial(np.random.default_rng(seed), n).matrix)
           for seed, n in ((1, 3), (2, 6))]
    ops.append(_nonnormal(np.random.default_rng(3), 5))
    return ops


def _relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestModalMatchesDense:
    @pytest.mark.parametrize("A", _operators(), ids=["sectorial3", "sectorial6", "cond30"])
    @pytest.mark.parametrize("k,lam", [(0.0, -2.5 + 4j), (1.0, -7.0), (0.5, 3.0 + 2j)])
    def test_families_and_resolvent_matrix(self, rng, A, k, lam):
        assert A.diagonalizable
        P, Q, B = build_pq_lambda(A, k, lam)
        modal = assemble_frame(P, Q, B, np.pi)
        dense = _build_frame(P, Q, B, np.pi, modal=False)
        assert modal.modal and not dense.modal
        grid = cgl_grid(48, 0.0, np.pi)
        f = smooth_field(rng, grid, A.dim)
        phi = [rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim) for _ in range(4)]
        for bc, solve in _SOLVERS.items():
            ref = solve(dense, f, phi).values
            assert _relative_gap(solve(modal, f, phi).values, ref) <= 1e-12
        spec = ProblemSpec(0.0, np.pi, k, A, 3)
        ref = resolvent_matrix(spec, lam, grid, frame=dense)
        assert _relative_gap(resolvent_matrix(spec, lam, grid, frame=modal), ref) <= 1e-12

    def test_zero_parameter_branch(self, rng):
        # lam = 0, k != 0 factors as (A - k, A) without the branch-cut square root
        A = _operators()[2]
        spec = ProblemSpec(0.0, np.pi, 1.5, A, 1)
        modal = _lambda_frame(spec, 0.0)
        P = shift_operator(A, -1.5)
        dense = _build_frame(P, A, shift_operator(A, -1.5, scale=0.0), np.pi, modal=False)
        assert modal.modal
        grid = cgl_grid(48, 0.0, np.pi)
        f = smooth_field(rng, grid, A.dim)
        assert _relative_gap(_SOLVERS[1](modal, f).values,
                             _SOLVERS[1](dense, f).values) <= 1e-12

    def test_dense_views_of_members(self):
        A = _operators()[0]
        P, Q, B = build_pq_lambda(A, 0.0, -4.0 + 1j)
        modal = assemble_frame(P, Q, B, np.pi)
        dense = _build_frame(P, Q, B, np.pi, modal=False)
        for name in ("p", "l", "m", "binv", "e_cm", "z", "inv_im_el", "uinv", "vinv"):
            ref = getattr(dense, name)
            assert _relative_gap(getattr(modal, name), ref) <= 1e-12, name
        assert modal.diagnostics["contractive"] == dense.diagnostics["contractive"]


class TestModalGuards:
    def test_modal_refuses_where_dense_refuses(self):
        # the clamped family's interval operator U is singular at lam0 for
        # this spectrum (see test_resolvent); here in a non-normal basis
        th = 0.5
        V = np.array([[1.0, 0.9], [0.2, 1.0]])
        A = make_operator(V @ np.diag([-np.exp(1j * th), -np.exp(-1j * th)]) @ np.linalg.inv(V))
        lam0 = 7.850976322480937 + 2.0141221937826654j
        refused = []
        for offset in (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
            for direction in (1, 1j, -1, -1j):
                P, Q, B = build_pq_lambda(A, 0.0, lam0 + offset * direction)
                verdict = []
                for modal in (True, False):
                    try:
                        _build_frame(P, Q, B, np.pi, require_uv=True, modal=modal)
                        verdict.append(False)
                    except FrameSingular:
                        verdict.append(True)
                assert verdict[0] or not verdict[1], (offset, direction)
                refused.append(verdict[1])
        assert refused[0] and not refused[-1]


class TestDenseFallback:
    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_jordan_block_matches_collocation(self, rng, bc):
        A = make_operator([[-2.0, 1.0], [0.0, -2.0]])
        assert not A.diagonalizable
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        grid = cgl_grid(64, 0.0, np.pi)
        f = smooth_field(rng, grid, 2, modes=3)
        for lam in (-3.0, -1.0 + 2.0j):
            frame = _lambda_frame(spec, lam)
            assert not frame.modal
            ref = collocation_solve(spec, lam, f).values
            assert _relative_gap(_SOLVERS[bc](frame, f).values, ref) <= 1e-8


class TestVectorBoundaryData:
    """Nonzero boundary data on a vector A, scored by checks that share no
    formula with the solver: stencil boundary residuals and the integrated
    interior residual."""

    @pytest.mark.parametrize("lam", [-3.0, -1.0 + 2.0j])
    @pytest.mark.parametrize("name", ["jordan", "nonnormal3"])
    @pytest.mark.parametrize("bc", [2, 3, 4])
    def test_boundary_and_interior_residuals(self, rng, bc, name, lam):
        if name == "jordan":
            A = make_operator([[-2.0, 1.0], [0.0, -2.0]])
        else:
            A = _nonnormal(np.random.default_rng(3), 3)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        frame = _lambda_frame(spec, lam)
        assert frame.modal == (name == "nonnormal3")
        grid = cgl_grid(96, 0.0, np.pi)
        weights = rng.normal(size=(A.dim, 1)) + 1j * rng.normal(size=(A.dim, 1))
        f = GridFunction(grid, weights * np.exp(grid.nodes / 2))
        phi = [rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim) for _ in range(4)]
        u = _SOLVERS[bc](frame, f, phi)
        res = boundary_residuals(grid, u, phi, bc, frame.p)
        scale = max(f.norm(), max(np.linalg.norm(p) for p in phi))
        assert max(res.values()) <= 1e-8 * scale
        coeff2, coeff0 = _coeffs_from_A(A, spec.k)
        assert ode_residual(coeff2, coeff0, lam, u, f) <= 1e-10


class TestNoFactorizationPerParameter:
    @pytest.mark.parametrize("lam", [-3.0 + 2.0j, 0.0])
    def test_lambda_frame_skips_make_operator_and_eig(self, monkeypatch, lam):
        spec = ProblemSpec(0.0, np.pi, 1.0, _operators()[1], 3)
        calls = []

        def counting(fn, name):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for mod in (bvp, operators):
            monkeypatch.setattr(mod, "make_operator",
                                counting(operators.make_operator, "make_operator"))
        monkeypatch.setattr(np.linalg, "eig", counting(np.linalg.eig, "eig"))
        frame = _lambda_frame(spec, lam)
        frame.grid_kit(cgl_grid(32, 0.0, np.pi))
        assert frame.modal
        assert calls == []

    @pytest.mark.parametrize("bc", [1, 3])
    def test_batch_skips_make_operator_and_eig(self, monkeypatch, rng, bc):
        spec = ProblemSpec(0.0, np.pi, 1.0, _operators()[1], bc)
        calls = []

        def counting(fn, name):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for mod in (bvp, operators):
            monkeypatch.setattr(mod, "make_operator",
                                counting(operators.make_operator, "make_operator"))
        monkeypatch.setattr(np.linalg, "eig", counting(np.linalg.eig, "eig"))
        lams = [-3.0 + 2.0j, 0.0, -40.0 + 7.0j, -1.0 - 5.0j, -300.0]
        frame = _lambda_frames(spec, lams)
        grid = cgl_grid(32, 0.0, np.pi)
        frame.grid_kit(grid)
        data = GridFunction(grid, np.concatenate(
            [smooth_field(rng, grid, spec.A.dim).values for _ in lams]))
        u = _SOLVERS[bc](frame, data)
        assert frame.modal and u.values.shape == (len(lams) * spec.A.dim, grid.n)
        assert calls == []
