"""Modal (eigenbasis) frames against dense frames, and the dense fallback."""

import numpy as np
import pytest

from conftest import smooth_field
from quartic import operators
from quartic.bvp import (
    _SOLVERS,
    ProblemSpec,
    _cut_shifts,
    _lambda_frames,
    assemble_frame,
    boundary_residuals,
    resolvent_matrix,
)
from quartic.errors import FrameSingular
from quartic.grids import GridFunction, cgl_grid
from quartic.operators import make_operator
from quartic.oracle import _coeffs_from_A, collocation_solve, ode_residual


def _random_sectorial(rng, n):
    """Random diagonalizable matrix with spectrum in the open right half-plane."""
    lam = rng.uniform(0.5, 6.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    V = rng.normal(size=(n, n)) + 0.1j * rng.normal(size=(n, n))
    V += 3 * np.eye(n)
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _nonnormal(rng, n, cond=30.0):
    """Spectrum -1, -4, ... in a basis with singular values 1..cond."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    V = q1 @ np.diag(np.logspace(0, np.log10(cond), n)) @ q2
    return make_operator(V @ np.diag(-np.arange(1, n + 1, dtype=float) ** 2) @ np.linalg.inv(V))


def _operators():
    # -A sectorial in the paper's sense: the random spectrum in the left half-plane
    ops = [make_operator(-_random_sectorial(np.random.default_rng(seed), n))
           for seed, n in ((1, 3), (2, 6))]
    ops.append(_nonnormal(np.random.default_rng(3), 5))
    return ops


def _relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _factor_frame(A, shifts, blocks, require_uv=False, c=np.pi):
    """assemble_frame on (0, c) for the factors A + p, A + q and b of the
    shifts (p, q, b): as A's blocks in its block basis (``block_form``: 1 x 1
    blocks of A's eigenvalues for a trusted eigenbasis), or as one block in
    the identity basis, the matrices A + p I, A + q I and b I."""
    p, q, b = shifts
    if blocks:
        T, V, Vinv, kappa = A.block_form
        eye = np.eye(T.shape[-1])
        return assemble_frame(T + p * eye, T + q * eye, 0.0 * T + b * eye, c, require_uv,
                              basis=(V, Vinv, kappa))
    eye = np.eye(A.dim)
    return assemble_frame((A.matrix + p * eye)[None], (A.matrix + q * eye)[None],
                          (b * eye)[None], c, require_uv, basis=(eye, eye, 1.0))


class TestModalMatchesDense:
    @pytest.mark.parametrize("A", _operators(), ids=["sectorial3", "sectorial6", "cond30"])
    @pytest.mark.parametrize("k,lam", [(0.0, -2.5 + 4j), (1.0, -7.0), (0.5, 3.0 + 2j)])
    def test_families_and_resolvent_matrix(self, rng, A, k, lam):
        assert A.diagonalizable
        modal, dense = (_factor_frame(A, _cut_shifts(k, lam), m) for m in (True, False))
        assert modal.block == 1 and dense.block > 1
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
        modal = _lambda_frames(spec, 0.0)
        dense = _factor_frame(A, (-1.5, 0.0, -1.5), blocks=False)
        assert modal.block == 1
        grid = cgl_grid(48, 0.0, np.pi)
        f = smooth_field(rng, grid, A.dim)
        assert _relative_gap(_SOLVERS[1](modal, f).values,
                             _SOLVERS[1](dense, f).values) <= 1e-12

    def test_dense_views_of_members(self):
        A = _operators()[0]
        modal, dense = (_factor_frame(A, _cut_shifts(0.0, -4.0 + 1j), m) for m in (True, False))
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
                shifts = _cut_shifts(0.0, lam0 + offset * direction)
                verdict = []
                for modal in (True, False):
                    try:
                        _factor_frame(A, shifts, modal, require_uv=True)
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
            frame = _lambda_frames(spec, lam)
            assert frame.block > 1
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
        frame = _lambda_frames(spec, lam)
        assert (frame.block == 1) == (name == "nonnormal3")
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


JORDAN = [[-2.0, 1.0], [0.0, -2.0]]


class TestDenseMembersClosedForm:
    """Dense members on the Jordan block J = [[a, 1], [0, a]], a = -2, against
    f(J) = [[f(a), f'(a)], [0, f(a)]] with f and f' written out per member.
    Measured <= 5.7e-17 relative (e_cm); the bound is 1e-15."""

    @pytest.mark.parametrize("lam", [-3.0, -1.0 + 2.0j, -40.0 + 7.0j])
    @pytest.mark.parametrize("bc", [1, 3])
    def test_members_match_jordan_calculus(self, bc, lam):
        a, c = -2.0, np.pi
        frame = _lambda_frames(ProblemSpec(0.0, c, 0.0, make_operator(JORDAN), bc), lam)
        assert frame.block > 1
        p, q, _ = _cut_shifts(0.0, lam)
        refs = {}
        for x_name, e_name, inv_name, shift in (("m", "e_cm", "z", p), ("l", "e_cl", "w", q)):
            # X = -sqrt(-(a + shift)), X' = 1 / (2 sqrt(-(a + shift)))
            root = np.sqrt(-(a + shift))
            x, dx = -root, 1.0 / (2.0 * root)
            e, e2 = np.exp(c * x), np.exp(2 * c * x)
            refs[x_name] = (x, dx)
            refs[e_name] = (e, c * dx * e)                                 # e^{cX}
            refs[inv_name] = (1 / (1 - e2), 2 * c * dx * e2 / (1 - e2) ** 2)  # (I - e^{2cX})^{-1}
        for name, (f, fp) in refs.items():
            ref = np.array([[f, fp], [0.0, f]])
            assert _relative_gap(getattr(frame, name), ref) <= 1e-15, name


@pytest.fixture
def count_factorizations(monkeypatch):
    """count_factorizations() returns a list that records, from then on, the
    name of every make_operator and np.linalg.eig call."""
    def start():
        calls = []

        def counting(fn, name):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(operators, "make_operator",
                            counting(operators.make_operator, "make_operator"))
        monkeypatch.setattr(np.linalg, "eig", counting(np.linalg.eig, "eig"))
        return calls
    return start


class TestNoFactorizationPerParameter:
    @pytest.mark.parametrize("lam", [-3.0 + 2.0j, 0.0])
    def test_lambda_frame_skips_make_operator_and_eig(self, count_factorizations, lam):
        spec = ProblemSpec(0.0, np.pi, 1.0, _operators()[1], 3)
        calls = count_factorizations()
        frame = _lambda_frames(spec, lam)
        frame.grid_kit(cgl_grid(32, 0.0, np.pi))
        assert frame.block == 1
        assert calls == []

    @pytest.mark.parametrize("bc", [1, 3])
    def test_batch_skips_make_operator_and_eig(self, count_factorizations, rng, bc):
        spec = ProblemSpec(0.0, np.pi, 1.0, _operators()[1], bc)
        calls = count_factorizations()
        lams = [-3.0 + 2.0j, 0.0, -40.0 + 7.0j, -1.0 - 5.0j, -300.0]
        frame = _lambda_frames(spec, lams)
        grid = cgl_grid(32, 0.0, np.pi)
        frame.grid_kit(grid)
        data = GridFunction(grid, np.concatenate(
            [smooth_field(rng, grid, spec.A.dim).values for _ in lams]))
        u = _SOLVERS[bc](frame, data)
        assert frame.block == 1 and u.values.shape == (len(lams) * spec.A.dim, grid.n)
        assert calls == []

    @pytest.mark.parametrize("bc", [1, 3])
    def test_dense_frame_skips_make_operator_and_eig(self, count_factorizations, bc):
        # the dense calculus works on plain matrices: Schur forms and
        # eigenvalues only, where handles once cost 23 of each per frame
        spec = ProblemSpec(0.0, np.pi, 0.0, make_operator(JORDAN), bc)
        calls = count_factorizations()
        frame = _lambda_frames(spec, -3.0 + 2.0j)
        frame.grid_kit(cgl_grid(32, 0.0, np.pi))
        assert frame.block > 1
        assert calls == []
