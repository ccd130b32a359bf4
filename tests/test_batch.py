"""Batched (parameter, mode) frames against per-parameter frames."""

import numpy as np
import pytest

from conftest import smooth_field
from quartic import evolution
from quartic.bvp import (
    _SOLVERS,
    ProblemSpec,
    _cut_shifts,
    _lambda_frames,
)
from quartic.errors import (
    ContourTooClose,
    FrameSingular,
    NotInResolventSet,
    SingularOrIllConditioned,
    SpectrumOnCut,
)
from quartic.evolution import ContourParams, default_contour
from quartic.grids import GridFunction, cgl_grid
from quartic.kernels import phi_stack
from quartic.operators import dirichlet_laplacian_modes, make_operator, sqrt_symbols
from test_grids_kernels import _ill_conditioned
from test_modal import _factor_frame, _nonnormal

REFUSALS = (FrameSingular, SingularOrIllConditioned, SpectrumOnCut)
BATCH = 16  # batch size of the agreement tests: K = 33 crosses two boundaries


def _operator(name):
    if name == "laplacian3":
        return dirichlet_laplacian_modes(3)
    if name == "cond30":
        return _nonnormal(np.random.default_rng(3), 5)
    if name == "illcond":  # eig_cond 4.4e6: one Schur block
        return _ill_conditioned(1e7)
    return make_operator([[-2.0, 1.0], [0.0, -2.0]])  # Jordan block: one Schur block


def _per_parameter_frame(spec, lam):
    """The frame of one parameter from its own factor blocks."""
    return _factor_frame(spec.A, _cut_shifts(spec.k, lam), True,
                         spec.bc_family in (3, 4), spec.c)


def _relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _contour_nodes(params, n_points, t):
    """Nodes and weights of the n-node trapezoid rule for the single time t
    on params' hyperbola, at mu = 0.4 n / t."""
    th = np.linspace(-params.half_width, params.half_width, n_points)
    return params.at(0.4 * n_points / t, th, th[1] - th[0])


def _single_time_sum(spec, payload, columns, n_points):
    """sum_k w_k R(lam_k) payload(lam_k) over the n-node rule of the
    payload's time (``_contour_nodes``), through ``_node_sums``; payload
    holds weight vectors over the data columns."""
    lam, wgt = _contour_nodes(default_contour(spec), n_points, payload.t)
    weights = (payload.transform(lam) * wgt[:, None])[None]
    return evolution._node_sums(spec, payload.grid, lam, weights, columns)[0]


class TestBatchMatchesPerParameter:
    @pytest.mark.parametrize("name", ["laplacian3", "cond30", "jordan", "illcond"])
    @pytest.mark.parametrize("K", [1, 5, 33])
    @pytest.mark.parametrize("bc", [1, 2, 3, 4, 5])
    def test_solves_agree(self, rng, name, K, bc):
        A = _operator(name)
        n = A.dim
        spec = ProblemSpec(0.0, np.pi, 0.5, A, bc)
        grid = cgl_grid(48, 0.0, np.pi)
        # contour-like parameters: |lam| spans more than an order of magnitude
        lams = -_contour_nodes(ContourParams(vertex=spec.k ** 2 / 4, beta=0.8),
                               max(K, 2), 0.05)[0][:K]
        fields = [smooth_field(rng, grid, n).values for _ in range(K)]
        phis = [[rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4)]
                for _ in range(K)]
        for start in range(0, K, BATCH):
            sl = slice(start, start + BATCH)
            frame = _lambda_frames(spec, lams[sl])
            size = len(lams[sl])
            assert frame.n == size * n and frame.block == (1 if A.diagonalizable else n)
            data = GridFunction(grid, np.concatenate(fields[sl]))
            phi = [np.concatenate([p[j] for p in phis[sl]]) for j in range(4)]
            got = _SOLVERS[bc](frame, data, phi).values.reshape(size, n, grid.n)
            for i, lam in enumerate(lams[sl]):
                ref = _SOLVERS[bc](_per_parameter_frame(spec, lam),
                                   GridFunction(grid, fields[start + i]),
                                   phis[start + i]).values
                assert _relative_gap(got[i], ref) <= 1e-13, (start + i, lam)

    def test_single_parameter_is_a_batch_of_one(self):
        A = _operator("cond30")
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 3)
        frame = _lambda_frames(spec, -3.0 + 2.0j)
        assert frame.lam == -3.0 + 2.0j and frame.n == A.dim
        assert np.allclose(frame.p, _per_parameter_frame(spec, -3.0 + 2.0j).p,
                           rtol=0, atol=1e-13)

    def test_batch_has_no_dense_views(self):
        spec = ProblemSpec(0.0, np.pi, 0.0, _operator("laplacian3"), 1)
        frame = _lambda_frames(spec, [-1.0 + 1j, -2.0 + 1j])
        assert not hasattr(frame, "p")


class TestBatchRefusals:
    """A batch refuses exactly when one of its parameters would, and names
    the first refused parameter in node order."""

    # the interval operator V = I - T+ of the eigenvalue -e^{0.5i} is singular
    # at LAM0; frames of this A, and of the Jordan block of that eigenvalue,
    # refuse in a ball around it (radius about 1e-11 here, see test_modal)
    LAM0 = 7.850976322480937 + 2.0141221937826654j
    # frames of the eig_cond 4.4e6 A of TestDenseRouteConvolution refuse
    # wherever I - e^{2cM} is too ill conditioned; LAM_EDGE is inside that
    # region, 3e-4 from its edge (its real spectrum puts every singular U or
    # V on the branch cut)
    LAM_EDGE = 2.214862912631973 + 1.1962842718420068j

    @staticmethod
    def _operator(name="rotated"):
        th = 0.5
        a = -np.exp(1j * th)
        if name == "jordan":
            return make_operator([[a, 1.0], [0.0, a]])
        if name == "illcond":
            return _ill_conditioned(1e7)
        V = np.array([[1.0, 0.9], [0.2, 1.0]])
        return make_operator(V @ np.diag([a, -np.exp(-1j * th)]) @ np.linalg.inv(V))

    def _parameters(self, order, center):
        radii = [0.0] + list(np.geomspace(1e-14, 1e-2, 13))
        lams = np.array([center + r * np.exp(1j * th)
                         for th in (0.3, 1.5, -2.0) for r in radii])
        if order == "inward":
            return lams[::-1]
        if order == "mixed":
            return lams[np.random.default_rng(7).permutation(len(lams))]
        return lams

    @pytest.mark.parametrize("bc", [3, 4])
    @pytest.mark.parametrize("order", ["outward", "inward", "mixed"])
    def test_refusals_match(self, bc, order):
        self._check_refusals(self._operator(), bc, order, self.LAM0)

    @pytest.mark.parametrize("bc", [3, 4])
    @pytest.mark.parametrize("order", ["outward", "inward", "mixed"])
    @pytest.mark.parametrize("name", ["jordan", "illcond"])
    def test_one_block_refusals_match(self, name, bc, order):
        A = self._operator(name)
        assert not A.diagonalizable
        self._check_refusals(A, bc, order, self.LAM0 if name == "jordan" else self.LAM_EDGE)

    def _check_refusals(self, A, bc, order, center):
        spec = ProblemSpec(0.0, np.pi, 0.0, A, bc)
        lams = self._parameters(order, center)
        refused = []
        for lam in lams:
            try:
                _per_parameter_frame(spec, lam)
                refused.append(False)
            except REFUSALS:
                refused.append(True)
        assert any(refused) and not all(refused)
        straddled = 0
        for start in range(0, len(lams), 7):
            sub, sub_refused = lams[start:start + 7], refused[start:start + 7]
            if not any(sub_refused):
                assert _lambda_frames(spec, sub).n == A.dim * len(sub)
                continue
            straddled += not all(sub_refused)
            first = sub[sub_refused.index(True)]
            with pytest.raises(NotInResolventSet) as batch:
                _lambda_frames(spec, sub)
            with pytest.raises(NotInResolventSet) as single:
                _lambda_frames(spec, first)
            assert batch.value.lam == first
            assert str(batch.value) == str(single.value)
            assert f"lambda={first}" in str(batch.value)
            assert isinstance(batch.value.__cause__, REFUSALS)
        assert straddled >= 1

    def test_no_refusal_on_another_parameter_scale(self):
        # joint norms would weigh the first node's |B^{-1}| ~ 5e4 against the
        # second node's |P| ~ 1e10, past CONDITION_CAP; each node alone passes
        spec = ProblemSpec(0.0, np.pi, 0.0, _operator("laplacian3"), 1)
        lams = [1e-10j, 1e20j]
        for lam in lams:
            _lambda_frames(spec, lam)
        assert _lambda_frames(spec, lams).n == 6


def test_cut_check_per_row():
    # 1e-8 is clear of the cut on its own row's scale, not on the next row's
    rows = np.array([[1e-8 + 0j, 4.0], [1e12, 2.0]])
    assert np.allclose(sqrt_symbols(rows) ** 2, rows, rtol=1e-15, atol=0)
    with pytest.raises(SpectrumOnCut):
        sqrt_symbols(np.array([[-1e-3 + 0j, 4.0], [1e12, 2.0]]))


def _node_data(grid, v0, t, lam, steps):
    """Per-node transform of v0 and piecewise-linear forcing: the node loop
    the batched payload replaces, one phi_stack call per node and step."""
    field = np.exp(t * lam) * v0
    for t0, t1, f0, f1 in steps:
        dtj = t1 - t0
        ph = phi_stack(np.array([dtj * lam]), 2)
        field = field + dtj * np.exp((t - t1) * lam) * (
            f0 * (ph[1][0] - ph[2][0]) + f1 * ph[2][0])
    if steps:
        t0, t1, f0, f1 = steps[-1]
        field = field + f1 / lam + (f1 - f0) / (t1 - t0) / (lam * lam)
    return GridFunction(grid, field)


class TestContourSumBatches:
    @pytest.mark.parametrize("name", ["laplacian3", "cond30", "jordan"])
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    def test_matches_per_node_loop(self, rng, name, forced):
        A = _operator(name)
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(64, 0.0, np.pi)
        v0 = smooth_field(rng, grid, A.dim).values
        t = 0.125
        steps, f_samples = [], []
        if forced:
            ts = np.linspace(0.0, 0.2, 5)
            f_samples = [smooth_field(rng, grid, A.dim).values for _ in ts]
            # two whole forcing steps, then the step (0.1, 0.15) cut at t
            frac = (t - ts[2]) / (ts[3] - ts[2])
            f_mid = f_samples[2] * (1 - frac) + f_samples[3] * frac
            steps = [(ts[j], ts[j + 1], f_samples[j], f_samples[j + 1]) for j in range(2)]
            steps.append((ts[2], t, f_samples[2], f_mid))
        columns, sel = evolution._distinct_columns([v0] + f_samples)
        payload = (evolution._forced_payload(grid, sel[0], sel[1:], ts, t) if forced
                   else evolution._Payload(grid, sel[0], t))
        # every A's pass has a batch boundary inside
        assert evolution.CONTOUR_BATCH_ELEMENTS // (A.dim * (grid.n - 1)) < 32
        got = _single_time_sum(spec, payload, columns, 32)
        lam, wgt = _contour_nodes(default_contour(spec), 32, t)
        ref = sum(w * _SOLVERS[1](_per_parameter_frame(spec, -lam_i),
                                  _node_data(grid, v0, t, lam_i, steps)).values
                  for lam_i, w in zip(lam, wgt))
        assert got.shape == (A.dim, grid.n)
        assert _relative_gap(got, ref) <= 1e-13

    def test_batches_bounded_by_budget(self, monkeypatch, rng):
        A = _operator("laplacian3")
        spec = ProblemSpec(0.0, np.pi, 0.0, A, 1)
        grid = cgl_grid(64, 0.0, np.pi)
        sizes = []

        def recording(spec_, lams):
            sizes.append(len(lams))
            return _lambda_frames(spec_, lams)

        monkeypatch.setattr(evolution, "_lambda_frames", recording)
        columns = smooth_field(rng, grid, 3).values[None]
        _single_time_sum(spec, evolution._Payload(grid, np.ones(1), 0.1), columns, 64)
        budget = evolution.CONTOUR_BATCH_ELEMENTS // (A.dim * (grid.n - 1))
        assert sum(sizes) == 64
        assert 1 < max(sizes) <= budget

    def test_refused_node_named(self, rng):
        # nodes 11 and 13 sit on the refused parameter LAM0 of
        # TestBatchRefusals (contour nodes are solved at -lam); node 11 is
        # the first refused one in node order and inside the first batch
        spec = ProblemSpec(0.0, np.pi, 0.0, TestBatchRefusals._operator(), 3)
        grid = cgl_grid(48, 0.0, np.pi)
        lam = -(20.0 + 5.0j * np.arange(1, 25))
        lam[11] = lam[13] = -TestBatchRefusals.LAM0
        columns = smooth_field(rng, grid, 2).values[None]
        assert evolution.CONTOUR_BATCH_ELEMENTS // (2 * (grid.n - 1)) > 13
        with pytest.raises(ContourTooClose) as exc:
            evolution._node_sums(spec, grid, lam, np.full((1, 24, 1), 0.1 + 0j), columns)
        assert str(exc.value).startswith(f"contour node {lam[11]}: ")
        assert isinstance(exc.value.__cause__, NotInResolventSet)
