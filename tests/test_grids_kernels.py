import numpy as np
import pytest
from scipy.integrate import quad

from quartic.grids import (
    GridFunction,
    _clenshaw_curtis_weights,
    cgl_grid,
    chebyshev_gauss_nodes,
    fornberg_weights,
    stencil_bands,
    uniform_grid,
)
from quartic.kernels import (
    Propagator,
    _phi_blocks,
    _scan,
    convolve_nodes,
    hermite_step_coefficients,
    phi_stack,
    scan_factors,
)
from quartic.operators import make_operator
from references import chi_stack, stencil_derivative_matrix


class TestGrids:
    @pytest.mark.parametrize("n", [8, 33, 64])
    def test_weights_sum_to_length(self, n):
        g = cgl_grid(n, 0.0, np.pi)
        assert g.weights.sum() == pytest.approx(np.pi, rel=1e-13)
        u = uniform_grid(n, -1.0, 2.0)
        assert u.weights.sum() == pytest.approx(3.0, rel=1e-13)

    def test_endpoints(self):
        g = cgl_grid(17, 0.5, 2.5)
        assert g.nodes[0] == pytest.approx(0.5)
        assert g.nodes[-1] == pytest.approx(2.5)
        assert np.all(np.diff(g.nodes) > 0)

    @pytest.mark.parametrize("deg", [0, 3, 10])
    def test_quadrature_exact_on_polynomials(self, deg):
        g = cgl_grid(24, 0.0, 2.0)
        val = np.sum(g.weights * g.nodes**deg)
        assert val == pytest.approx(2.0 ** (deg + 1) / (deg + 1), rel=1e-12)

    def test_gridfunction_norm(self):
        g = cgl_grid(64, 0.0, np.pi)
        f = GridFunction(g, np.sin(g.nodes)[None, :])
        assert f.norm() == pytest.approx(np.sqrt(np.pi / 2), rel=1e-10)

    def test_first_kind_nodes_interior(self):
        x = chebyshev_gauss_nodes(10, 0.0, 1.0)
        assert np.all(x > 0) and np.all(x < 1) and np.all(np.diff(x) > 0)


class TestStencils:
    def test_fornberg_exponential(self):
        x = np.linspace(-0.3, 0.3, 7)
        w = fornberg_weights(0.0, x, 2)
        f = np.exp(x)
        assert w[1] @ f == pytest.approx(1.0, abs=1e-8)
        assert w[2] @ f == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative_matrix_accuracy(self, order):
        g = cgl_grid(80, 0.0, np.pi)
        D = stencil_derivative_matrix(g.nodes, order)
        f = np.sin(2 * g.nodes)
        exact = (2.0**order) * np.sin(2 * g.nodes + order * np.pi / 2)
        assert np.max(np.abs(D @ f - exact)) < 1e-6


def _per_order_matrix(nodes, order):
    """Reference: one Fornberg call per order, scattered into a dense matrix."""
    n = len(nodes)
    width = min(7, n)
    lo = np.clip(np.arange(n) - width // 2, 0, n - width)
    idx = lo[:, None] + np.arange(width)
    D = np.zeros((n, n))
    np.put_along_axis(D, idx, fornberg_weights(nodes, nodes[idx], order)[order], axis=1)
    return D


class TestStencilBands:
    """The cached bands give the per-order dense stencil matrices bit for bit."""

    @pytest.mark.parametrize("make", [cgl_grid, uniform_grid], ids=["cgl", "uniform"])
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 8, 48, 344])
    def test_bands_match_per_order_matrices(self, make, n):
        grid = make(n, 0.0, np.pi)
        idx, weights = grid.stencils
        width = min(7, n)
        assert idx.shape == (n, width) and weights.shape == (n, 2, width)
        assert not idx.flags.writeable and not weights.flags.writeable
        for order in (1, 2):
            ref = _per_order_matrix(grid.nodes, order)
            banded = np.zeros((n, n))
            np.put_along_axis(banded, idx, weights[:, order - 1], axis=1)
            assert np.array_equal(banded, ref)
            assert np.array_equal(stencil_derivative_matrix(grid.nodes, order), ref)
        assert grid.stencils is grid.stencils
        assert all(np.array_equal(a, b) for a, b in zip(stencil_bands(grid.nodes),
                                                         (idx, weights)))

    def test_node_cap_allocates_no_dense_matrix(self):
        import tracemalloc

        from quartic.bvp import _data_derivatives

        n = 4096
        tracemalloc.start()
        try:
            grid = cgl_grid(n, 0.0, np.pi)
            assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
            grid.stencils  # the cached bands are the grid's, not the solve's
            fv = np.sin(grid.nodes)[:, None, None] * np.array([1.0, 2.0j])[:, None]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _data_derivatives(grid, fv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * 8 * n * n


def _clenshaw_curtis_loop(n, a, b):
    """Reference: the weights' cosine sums, one node and one term at a time."""
    if n == 1:
        return np.array([b - a])
    m = n - 1
    c = np.zeros(n)
    for j in range(n):
        s = 1.0
        for k in range(1, m // 2 + 1):
            f = 2.0 if 2 * k < m else 1.0
            s -= f * np.cos(2 * k * np.pi * j / m) / (4 * k * k - 1)
        c[j] = 2.0 * s / m
    c[0] /= 2.0
    c[-1] /= 2.0
    return c[::-1] * (b - a) / 2.0


class TestGridSetup:
    """Array forms of the grid set-up give the loops' numbers bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 48, 344])
    def test_clenshaw_curtis_matches_loop(self, n):
        assert np.array_equal(_clenshaw_curtis_weights(n, -0.5, 2.0),
                              _clenshaw_curtis_loop(n, -0.5, 2.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 48, 344])
    def test_batched_fornberg_matches_rows(self, n):
        nodes = chebyshev_gauss_nodes(n, 0.0, np.pi)
        width = min(7, n)
        lo = np.clip(np.arange(n) - width // 2, 0, n - width)
        idx = lo[:, None] + np.arange(width)
        batched = fornberg_weights(nodes, nodes[idx], 4)
        assert batched.shape == (5, n, width)
        D = {order: stencil_derivative_matrix(nodes, order) for order in (1, 2)}
        for r in range(n):
            row = fornberg_weights(nodes[r], nodes[idx[r]], 4)
            assert np.array_equal(batched[:, r], row)
            for order, Dk in D.items():
                want = np.zeros(n)
                want[idx[r]] = row[order]
                assert np.array_equal(Dk[r], want)


def _quad_complex(fn, lo, hi):
    re = quad(lambda s: fn(s).real, lo, hi, limit=400)[0]
    im = quad(lambda s: fn(s).imag, lo, hi, limit=400)[0]
    return re + 1j * im


class TestStepIntegralFunctions:
    @pytest.mark.parametrize("z", [0.3, 0.599, -0.2 + 0.5j, -4 + 3j, -80.0, -1e-8])
    def test_phi_against_quadrature(self, z):
        from math import factorial

        # phi_k(z) = int_0^1 e^{z(1-s)} s^{k-1}/(k-1)! ds
        got = phi_stack(np.array([z]), 6)[:, 0]
        for k in range(1, 7):
            ref = _quad_complex(
                lambda s, k=k: np.exp(z * (1 - s)) * s ** (k - 1)
                / factorial(k - 1), 0, 1)
            assert abs(got[k] - ref) < 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("inside", [True, False], ids=["series", "recurrence"])
    def test_uniform_stack_matches_mixed(self, inside):
        # a (63, 60) stack wholly inside (outside) the series radius, as a
        # contour pass's kit holds, against the same entries computed in a
        # copy padded with one entry on the other side of the radius
        from quartic import tolerances

        rng = np.random.default_rng(4)
        radius = tolerances.PHI_SERIES_RADIUS
        rho = rng.uniform(0.0, 0.99, (63, 60)) * radius if inside \
            else rng.uniform(1.01, 40.0, (63, 60)) * radius
        z = rho * np.exp(1j * rng.uniform(-np.pi, np.pi, (63, 60)))
        pad = np.append(z.ravel(), 1.5 * radius if inside else 0.5 * radius)
        want = phi_stack(pad, 6)[:, :-1].reshape((7,) + z.shape)
        np.testing.assert_array_equal(phi_stack(z, 6), want)

    @pytest.mark.parametrize("z", [0.4, -0.3 + 0.2j, -5 + 3j, -60.0, 1e-9])
    def test_chi_against_quadrature(self, z):
        got = chi_stack(np.array([z]), 5)[:, 0]
        for m in range(6):
            ref = _quad_complex(lambda s, m=m: np.exp(z * s) * s**m, 0, 1)
            assert abs(got[m] - ref) < 1e-12 * max(1.0, abs(ref))


def _mp_phi(z, k):
    """phi_k(z) = (e^z - sum_{j<k} z^j/j!) / z^k in 80-digit arithmetic (the
    sum cancels about 7k digits at |z| = 1e-7)."""
    import mpmath as mp

    with mp.workdps(80):
        z = mp.mpc(z)
        return complex((mp.exp(z) - sum(z**j / mp.factorial(j) for j in range(k))) / z**k)


def _mp_chi(z, m):
    """chi_m(z) = int_0^1 e^{zs} s^m ds in 40-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(40):
        z = mp.mpc(z)
        return complex(mp.quad(lambda s: mp.exp(z * s) * s**m, [0, 1]))


class TestStepIntegralsAgainstMpmath:
    """phi_0..phi_6 and chi_0..chi_5 on both sides of PHI_SERIES_RADIUS = 2.

    Inside, the 30-term series is accurate to round-off.  Outside, the upward
    recurrences divide by z once per order, so their error grows like
    k! eps / |z|^k, which is 2.5e-15 for phi_6 at |z| = 2 and falls further
    out (but 3e-12 at |z| = 0.61, hence the radius).
    """

    ANGLES = np.linspace(-np.pi, np.pi, 7)

    @pytest.mark.parametrize("radius,bound", [
        (1e-7, 1e-14), (0.3, 1e-14), (0.599, 1e-14), (0.601, 1e-14),
        (0.9, 1e-14), (1.5, 1e-14), (1.99, 1e-14),       # series
        (2.01, 1e-14), (3.0, 1e-14), (10.0, 1e-14),      # recurrence
    ])
    def test_relative_error(self, radius, bound):
        z = radius * np.exp(1j * self.ANGLES)
        phis, chis = phi_stack(z, 6), chi_stack(z, 5)
        for i, zi in enumerate(z):
            for k in range(7):
                ref = _mp_phi(zi, k)
                assert abs(phis[k, i] - ref) <= bound * abs(ref), (zi, k)
            for m in range(6):
                ref = _mp_chi(zi, m)
                assert abs(chis[m, i] - ref) <= bound * abs(ref), (zi, m)

    def test_series_and_recurrence_entries_in_one_array(self):
        # one (2, 4) array whose entries take the series (|z| < 2) or the
        # recurrence, each at the bound of its radius above
        radii = np.array([1e-7, 0.3, 0.599, 0.601, 1.99, 2.01, 3.0, 10.0])
        z = (radii * np.exp(1j * np.linspace(-np.pi, np.pi, 8))).reshape(2, 4)
        phis, chis = phi_stack(z, 6), chi_stack(z, 5)
        for idx, zi in np.ndenumerate(z):
            for k in range(7):
                ref = _mp_phi(zi, k)
                assert abs(phis[(k,) + idx] - ref) <= 1e-14 * abs(ref), (zi, k)
            for m in range(6):
                ref = _mp_chi(zi, m)
                assert abs(chis[(m,) + idx] - ref) <= 1e-14 * abs(ref), (zi, m)


class TestHermiteModel:
    def test_quintic_reproduced_exactly(self):
        nodes = np.array([0.0, 0.4, 1.1, 1.5])
        coeff = np.array([0.3, -1.0, 0.7, 0.2, -0.5, 0.11])

        def p(x, order=0):
            c = np.polynomial.polynomial.polyder(coeff, order) if order else coeff
            return np.polynomial.polynomial.polyval(x, c)

        f = p(nodes)[:, None, None].astype(complex)
        fp = p(nodes, 1)[:, None, None].astype(complex)
        fpp = p(nodes, 2)[:, None, None].astype(complex)
        d = hermite_step_coefficients(nodes, f, fp, fpp)
        for j in range(3):
            h = nodes[j + 1] - nodes[j]
            for sigma in (0.0, 0.25, 0.8, 1.0):
                val = sum(d[j, m, 0, 0] * sigma**m for m in range(6))
                assert val == pytest.approx(p(nodes[j] + sigma * h), abs=1e-12)


def _scans(steps):
    """The scan table of (J, R, b, b) step factors e^{h_j X}."""
    return scan_factors(steps)


def _blocks(x):
    """(..., n) eigenvalue stacks as (..., n, 1, 1) blocks; (..., n, n)
    matrix stacks as one block, (..., 1, n, n)."""
    return x[..., None, None] if x.ndim == 2 else x[:, None]


def _psi_chi(z):
    """psi_m(z) = m! phi_{m+1}(z) = int_0^1 e^{z(1-s)} s^m ds and chi_m(z) =
    int_0^1 e^{zs} s^m ds, m = 0..5, for complex array z: each (6,) + z.shape."""
    from math import factorial

    order = np.array([factorial(m) for m in range(6)]).reshape((6,) + (1,) * z.ndim)
    return order * phi_stack(z, 6)[1:], chi_stack(z, 5)


def _dense_psi_chi(X, hs):
    """psi_m(hX) and chi_m(hX) for a dense X, each (J, 6, n, n): phi_1..phi_6
    from the augmented exponential, chi_m = sum_j (-1)^j C(m, j) j! phi_{j+1}."""
    from math import comb, factorial

    psi, chi = [], []
    for h in hs:
        phis = _phi_blocks(h * X[None], 6)[:, 0]
        psi.append([factorial(m) * phis[m] for m in range(6)])
        chi.append([sum((-1) ** j * comb(m, j) * factorial(j) * phis[j] for j in range(m + 1))
                    for m in range(6)])
    return np.array(psi), np.array(chi)


def _step_contributions(nodes, d, weights):
    """h_j sum_m W_jm d_jm for modal (J, 6, n) or dense (J, 6, n, n) weights."""
    spec = "jmi,jmir->jir" if weights.ndim == 3 else "jmik,jmkr->jir"
    return np.diff(nodes)[:, None, None] * np.einsum(spec, weights, d)


class TestConvolution:
    def _run(self, op, nodes, fn, d1fn, d2fn):
        prop = Propagator(op.matrix[None])
        hs = np.diff(nodes)
        f = np.array([np.atleast_1d(fn(x)) for x in nodes])[:, :, None]
        fp = np.array([np.atleast_1d(d1fn(x)) for x in nodes])[:, :, None]
        fpp = np.array([np.atleast_1d(d2fn(x)) for x in nodes])[:, :, None]
        fwd, bwd = convolve_nodes(prop.step_weights(hs), _scans(prop.exp_stack(hs)),
                                  f, fp, fpp)
        return fwd[:, :, 0], bwd[:, :, 0]

    def test_scalar_sine_closed_form(self):
        # int_0^x e^{-2(x-s)} sin s ds = (2 sin x - cos x + e^{-2x}) / 5
        nodes = cgl_grid(40, 0.0, np.pi).nodes
        op = make_operator([[-2.0]])
        fwd, bwd = self._run(op, nodes, np.sin, np.cos, lambda x: -np.sin(x))
        exact = (2 * np.sin(nodes) - np.cos(nodes) + np.exp(-2 * nodes)) / 5
        assert np.max(np.abs(fwd[:, 0] - exact)) < 1e-10
        # backward: int_x^pi e^{-2(s-x)} sin s ds
        exact_b = np.array([
            _quad_complex(lambda s, x=x: np.exp(-2 * (s - x)) * np.sin(s), x, np.pi)
            for x in nodes
        ])
        assert np.max(np.abs(bwd[:, 0] - exact_b)) < 1e-10

    def test_defective_matrix_van_loan_path(self):
        # Jordan block engages the block-matrix step weights
        import scipy.linalg as sla

        J = make_operator(np.array([[-2.0, 1.0], [0.0, -2.0]]))
        assert not J.diagonalizable
        nodes = np.linspace(0.0, 1.0, 21)
        fn = lambda x: np.array([np.sin(x), np.cos(2 * x)])
        d1 = lambda x: np.array([np.cos(x), -2 * np.sin(2 * x)])
        d2 = lambda x: np.array([-np.sin(x), -4 * np.cos(2 * x)])
        fwd, _ = self._run(J, nodes, fn, d1, d2)
        # oracle: componentwise quadrature with the exact Jordan exponential
        for x in (0.5, 1.0):
            i = int(np.argmin(np.abs(nodes - x)))
            ref = np.array([
                _quad_complex(
                    lambda s, r=r: sla.expm((x - s) * np.asarray(J.matrix))[r] @ fn(s),
                    0, x)
                for r in range(2)
            ])
            assert np.max(np.abs(fwd[i] - ref)) < 1e-8

    def test_stiff_kernel_stable(self):
        # strongly decaying kernel: exact kernel integration keeps accuracy
        nodes = cgl_grid(48, 0.0, np.pi).nodes
        op = make_operator([[-200.0]])
        fwd, _ = self._run(op, nodes, np.sin, np.cos, lambda x: -np.sin(x))
        exact = np.array([
            _quad_complex(lambda s, x=x: np.exp(-200 * (x - s)) * np.sin(s), 0, x)
            for x in nodes
        ])
        assert np.max(np.abs(fwd[:, 0] - exact)) < 1e-9


def _loop_convolution(nodes, d, exp_steps, weights, backward):
    """Plain-loop reference of the convolution recurrence: the step
    contributions c_j = h_j sum_m W_jm d_jm, then I_{j+1} = e_j I_j + c_j
    (forward) or I_j = e_j I_{j+1} + c_j (backward), one step at a time."""
    J = d.shape[0]
    hs = np.diff(nodes)
    out = np.zeros((J + 1,) + d.shape[2:], dtype=complex)
    for j in (range(J - 1, -1, -1) if backward else range(J)):
        e, w = exp_steps[j], weights[j]
        if e.ndim == 1:
            c = hs[j] * np.einsum("mi,mir->ir", w, d[j])
            step = lambda v: e[:, None] * v
        else:
            c = hs[j] * np.einsum("mik,mkr->ir", w, d[j])
            step = lambda v: e @ v
        if backward:
            out[j] = step(out[j + 1]) + c
        else:
            out[j + 1] = step(out[j]) + c
    return out


class TestConvolutionScan:
    """The log-depth scan against the step-by-step reference recurrence, on
    random node data whose step weights psi (forward) and chi (backward) are
    computed here from the eigenvalues."""

    N_DIM = 3

    def _case(self, rng, J, r, modal, stiff=False):
        n = self.N_DIM
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.05, J))])
        hs = np.diff(nodes)
        w = -rng.uniform(0.1, 3.0, n) + 1j * rng.normal(size=n)
        if stiff:
            w[:2] = [-1e5, -2e5 + 3j]  # e^{hX} underflows to 0 in these modes
        z = np.multiply.outer(hs, w)
        psi, chi = (np.moveaxis(a, 0, 1) for a in _psi_chi(z))  # (J, 6, n)
        if modal:
            est = np.exp(z)
            node_weights = Propagator(w[:, None, None]).step_weights(hs)
        else:
            V = np.eye(n) + 0.3 * rng.normal(size=(n, n))
            Vinv = np.linalg.inv(V)
            est = np.einsum("ij,tj,jk->tik", V, np.exp(z), Vinv)
            if not stiff:  # steps that do not commute pin the composition order
                est = est + 0.1 * rng.normal(size=(J, n, n))
            psi, chi = (np.einsum("ij,tmj,jk->tmik", V, a, Vinv) for a in (psi, chi))
            node_weights = Propagator((V @ np.diag(w) @ Vinv)[None]).step_weights(hs)
        data = tuple(rng.normal(size=(J + 1, n, r)) + 1j * rng.normal(size=(J + 1, n, r))
                     for _ in range(3))
        d = hermite_step_coefficients(nodes, *data)
        return nodes, data, d, est, node_weights, (psi, chi)

    @pytest.mark.parametrize("modal", [True, False], ids=["modal", "dense"])
    @pytest.mark.parametrize("J", [1, 2, 3, 5, 128])
    @pytest.mark.parametrize("r", [1, 7])
    def test_matches_loop(self, rng, modal, J, r):
        nodes, data, d, est, node_weights, weights = self._case(rng, J, r, modal)
        got = convolve_nodes(node_weights, _scans(_blocks(est)), *data)
        for g, w, backward in zip(got, weights, (False, True)):
            ref = _loop_convolution(nodes, d, est, w, backward)
            assert g.shape == (J + 1, self.N_DIM, r)
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("modal", [True, False], ids=["modal", "dense"])
    def test_stiff_steps_underflow(self, rng, modal):
        nodes, data, d, est, node_weights, weights = self._case(rng, 40, 2, modal, stiff=True)
        if modal:
            assert np.count_nonzero(est[:, :2] == 0) == 80
        got = convolve_nodes(node_weights, _scans(_blocks(est)), *data)
        for g, w, backward in zip(got, weights, (False, True)):
            ref = _loop_convolution(nodes, d, est, w, backward)
            assert np.all(np.isfinite(g))
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_inputs_not_modified(self, rng):
        for modal in (True, False):
            _, data, _, est, node_weights, _ = self._case(rng, 9, 2, modal)
            scans = _scans(_blocks(est))
            inputs = (*data, est, node_weights) + tuple(
                e for scan in scans for e in (scan if isinstance(scan, tuple) else (scan,)))
            copies = [a.copy() for a in inputs]
            convolve_nodes(node_weights, scans, *data)
            for a, b in zip(inputs, copies):
                assert np.array_equal(a, b)


class TestNodeWeights:
    """Step contributions from the node weights against h_j sum_m W_jm d_jm,
    with d from hermite_step_coefficients and W = psi (forward) or chi
    (backward, the reflected weights).  Zero step factors make the
    convolutions return the contributions themselves."""

    N = 17  # uniform steps of h = 1/16

    def _case(self, rng, z, dense):
        nodes = np.linspace(0.0, 1.0, self.N)
        hs = np.diff(nodes)
        w = z / hs[0]
        n, J = len(w), len(hs)
        psi, chi = (np.moveaxis(a, 0, 1) for a in _psi_chi(np.multiply.outer(hs, w)))
        if dense:
            V = np.eye(n) + 0.2 * rng.normal(size=(n, n))
            Vinv = np.linalg.inv(V)
            psi, chi = (np.einsum("ij,tmj,jk->tmik", V, a, Vinv) for a in (psi, chi))
            prop = Propagator((V @ np.diag(w) @ Vinv)[None])
            zero_steps = np.zeros((J, 1, n, n))
        else:
            prop = Propagator(w[:, None, None])
            zero_steps = np.zeros((J, n, 1, 1))
        data = tuple(rng.normal(size=(self.N, n, 3)) + 1j * rng.normal(size=(self.N, n, 3))
                     for _ in range(3))
        fwd, bwd = convolve_nodes(prop.step_weights(hs), _scans(zero_steps), *data)
        d = hermite_step_coefficients(nodes, *data)
        return ((fwd[1:], _step_contributions(nodes, d, psi)),
                (bwd[:-1], _step_contributions(nodes, d, chi)))

    @staticmethod
    def _left_half_plane(*radii):
        return np.array(radii) * np.exp(1j * np.linspace(0.5 * np.pi, 1.5 * np.pi, len(radii)))

    # z = h w per mode: inside PHI_SERIES_RADIUS = 2 (series), outside it
    # (recurrence), close on both sides, and stiff modes with Re z <= -1e5
    CASES = {
        "series": _left_half_plane(1e-6, 0.3, 1.0, 1.99),
        "recurrence": _left_half_plane(2.01, 5.0, 40.0, 300.0),
        "straddle": _left_half_plane(1.9, 1.99, 2.01, 2.2),
        "stiff": np.array([-1e5, -2e5 + 3e4j, -1e6 + 5.0j]),
    }

    @pytest.mark.parametrize("dense", [False, True], ids=["modal", "dense"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_forward_and_reflected_backward(self, rng, case, dense):
        for got, ref in self._case(rng, self.CASES[case], dense):
            # a modal mode against its own scale: stiff modes are 1/|z| smaller
            scale = np.max(np.abs(ref), axis=None if dense else (0, 2), keepdims=True)
            assert np.max(np.abs(got - ref) / scale) <= 1e-13


def _kit_arrays(kit):
    """Every array a grid kit holds, in a fixed order."""
    out = []
    for stacks in (kit["m"], kit["l"]):
        for key in sorted(stacks):
            items = stacks[key] if isinstance(stacks[key], tuple) else (stacks[key],)
            for item in items:
                out += list(item) if isinstance(item, tuple) else [item]
    return out


class TestKitReuse:
    """A grid kit is only read by solves: a second solve on the same kit
    repeats the first bit for bit, and no kit array changes."""

    @pytest.mark.parametrize("bc", [1, 3])
    @pytest.mark.parametrize("A", [np.diag([-1.0, -4.0, -9.0]), [[-2.0, 1.0], [0.0, -2.0]]],
                             ids=["modal", "dense"])
    def test_second_solve_identical(self, rng, A, bc):
        from quartic.bvp import _SOLVERS, ProblemSpec, _lambda_frames

        A = make_operator(A)
        frame = _lambda_frames(ProblemSpec(0.0, np.pi, 0.0, A, bc), -1.0 + 2.0j)
        assert (frame.block == 1) == A.diagonalizable
        grid = cgl_grid(40, 0.0, np.pi)
        kit = frame.grid_kit(grid)
        before = [a.copy() for a in _kit_arrays(kit)]
        shape = (A.dim, grid.n)
        f = GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        phi = [rng.normal(size=A.dim) + 1j * rng.normal(size=A.dim) for _ in range(4)]
        first = _SOLVERS[bc](frame, f, phi).values
        second = _SOLVERS[bc](frame, f, phi).values
        assert frame.grid_kit(grid) is kit
        assert np.array_equal(first, second)
        after = _kit_arrays(kit)
        assert len(after) == len(before)
        for a, b in zip(after, before):
            assert np.array_equal(a, b)
        if frame.block == 1:  # the cached compositions cannot be written in place
            factors = (kit["m"]["scans"], kit["l"]["scans"])
            assert all(e.size for e in factors) and not any(e.flags.writeable for e in factors)


def _sequential_scan(steps, c, backward):
    """y_j = e_j y_{j-1} + c_j (y_{-1} = 0), or backward y_j = e_j y_{j+1} +
    c_j (y_J = 0), one step at a time, for (J, R, b, b) steps and (J, R, b, r)
    contributions."""
    y = np.zeros_like(c)
    for j in (range(len(c) - 1, -1, -1) if backward else range(len(c))):
        k = j + 1 if backward else j - 1
        y[j] = c[j] + (steps[j] @ y[k] if 0 <= k < len(c) else 0)
    return y


class TestScanTable:
    """One ``scan_factors`` table serves the prefix and the suffix scan."""

    R, r = 3, 2

    def _steps(self, rng, J, b):
        z = -rng.uniform(0.0, 2.0, (J, self.R, b, b)) + 1j * rng.normal(size=(J, self.R, b, b))
        if b == 1:
            return np.exp(z)  # Re <= 0: exact step exponentials of a stable X
        return np.exp(z) / (2 * b)  # norm < 1: the recurrence stays bounded

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("J", [1, 2, 3, 5, 63, 64])
    def test_matches_sequential_recurrence(self, rng, J, b):
        steps = self._steps(rng, J, b)
        table = scan_factors(steps)
        c = rng.normal(size=(J, self.R, b, self.r)) + 1j * rng.normal(size=(J, self.R, b, self.r))
        for backward in (False, True):
            want = _sequential_scan(steps, c, backward)
            got = c.copy() if b > 1 else c[:, :, 0].copy()
            _scan(table, got, backward=backward)
            got = got.reshape(want.shape)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("J", [1, 2, 3, 5, 63, 64])
    def test_table_layout(self, rng, J):
        # row k composes the 2^k steps that start at each step; zeros where
        # fewer steps are left
        steps = self._steps(rng, J, 1)
        table = scan_factors(steps)
        L = int(np.ceil(np.log2(J)))
        assert table.shape == (L, J, self.R, 1, 1) and not table.flags.writeable
        for k in range(L):
            w = 2 ** k
            for i in range(J):
                want = np.prod(steps[i:i + w], axis=0) if i + w <= J else 0.0
                np.testing.assert_allclose(table[k, i], want, rtol=1e-14, atol=0)
        dense = self._steps(rng, J, 2)
        got = scan_factors(dense)
        assert np.array_equal(got, dense) and not got.flags.writeable
        assert dense.flags.writeable  # the caller's steps keep their flags


class TestKitLayout:
    """Every grid-kit entry is one read-only array with trailing (R, b, b),
    on a frame and on its parameter and adjoint views."""

    @pytest.mark.parametrize("A", [np.diag([-1.0, -4.0, -9.0]), [[-2.0, 1.0], [0.0, -2.0]]],
                             ids=["modal", "dense"])
    def test_entries_are_read_only_block_stacks(self, A):
        from quartic.bvp import ProblemSpec, _lambda_frames

        A = make_operator(A)
        b = 1 if A.diagonalizable else A.dim
        grid = cgl_grid(24, 0.0, np.pi)
        batch = _lambda_frames(ProblemSpec(0.0, np.pi, 0.0, A, 1), [-1.0 + 2.0j, -3.0 - 1.0j])
        batch.grid_kit(grid)
        for frame, R in ((batch, 2 * A.dim // b), (batch.parameter(1), A.dim // b),
                         (batch.adjoint(), 2 * A.dim // b)):
            kit = frame.grid_kit(grid)
            assert frame._grid_cache[grid.nodes.tobytes()] is kit
            for gen in "ml":
                assert set(kit[gen]) == {"exa", "ebx", "weights", "scans"}
                for x in kit[gen].values():
                    assert isinstance(x, np.ndarray) and not x.flags.writeable
                    assert x.shape[-3:] == (R, b, b)

    def test_contour_pass_kit_size(self):
        # a contour pass under BATCH_ENTRIES: 21 laplacian:3 nodes on N = 64
        from quartic.bvp import ProblemSpec, _batch_size, _lambda_frames
        from quartic.operators import dirichlet_laplacian_modes

        spec = ProblemSpec(0.0, np.pi, 0.0, dirichlet_laplacian_modes(3), 1)
        assert _batch_size(spec, 64) == 21
        kit = _lambda_frames(spec, -1.0 + 1j * np.arange(1, 22)).grid_kit(cgl_grid(64, 0.0, np.pi))
        assert sum(x.nbytes for gen in "ml" for x in kit[gen].values()) <= 1.8e6


class TestDataDerivatives:
    """The real-view BLAS stencil products against the per-order einsum."""

    @pytest.mark.parametrize("shape", [(12, 1), (4, 48)])
    def test_matches_einsum(self, rng, shape):
        from quartic.bvp import _data_derivatives

        grid = cgl_grid(129, 0.0, np.pi)
        fv = rng.normal(size=(129,) + shape) + 1j * rng.normal(size=(129,) + shape)
        # a non-contiguous view of the same data takes the same path
        wide = np.zeros((129, shape[0], 2 * shape[1]), dtype=complex)
        wide[:, :, ::2] = fv
        for data in (fv, wide[:, :, ::2], np.asfortranarray(fv)):
            got = _data_derivatives(grid, data)
            for k, g in zip((1, 2), got):
                ref = np.einsum("ab,bnr->anr", stencil_derivative_matrix(grid.nodes, k), fv)
                assert g.shape == fv.shape
                assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))


def _ill_conditioned_basis(cond):
    """Real 4 x 4 basis with singular values geomspace(1, cond)."""
    rng = np.random.default_rng(0)
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q1 @ np.diag(np.geomspace(1.0, cond, 4)) @ q2


def _ill_conditioned(cond):
    """Spectrum -1, -4, -9, -16 in ``_ill_conditioned_basis(cond)``."""
    V = _ill_conditioned_basis(cond)
    return make_operator(V @ np.diag([-1.0, -4.0, -9.0, -16.0]) @ np.linalg.inv(V))


class TestBandedDataDerivatives:
    def test_sweep_power_shape_matches_dense_product(self, rng):
        from quartic.bvp import _data_derivatives

        grid = cgl_grid(344, 0.0, np.pi)
        fv = rng.normal(size=(344, 6, 1)) + 1j * rng.normal(size=(344, 6, 1))
        for k, got in zip((1, 2), _data_derivatives(grid, fv)):
            ref = np.einsum("ab,bnr->anr", stencil_derivative_matrix(grid.nodes, k), fv)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestDenseRouteConvolution:
    """Both convolutions on the dense route, against direct sums of exact
    offsets.  A has distinct eigenvalues but an eigenbasis too ill conditioned
    for the modal route (eig_cond above EIG_COND_CAP), so every step factor is
    a highly non-normal (n, n) matrix."""

    # the sequential recurrence measured <= 3.8e-6 (eig_cond 4.4e6) and
    # <= 1.1e-5 (eig_cond 9.8e6) here; composing the steps explicitly gave
    # 0.14-0.52 and 6-26
    @pytest.mark.parametrize("cond,eig_cond", [(1e7, 4e6), (2.2e7, 1e7)])
    def test_matches_direct_offset_sums(self, cond, eig_cond):
        from quartic.bvp import ProblemSpec, _data_derivatives, _lambda_frames

        A = _ill_conditioned(cond)
        assert not A.diagonalizable
        assert 0.5 * eig_cond <= A.eig_cond <= 2 * eig_cond
        frame = _lambda_frames(ProblemSpec(0.0, np.pi, 0.0, A, 1), -1.0 + 2.0j)
        grid = cgl_grid(64, 0.0, np.pi)
        x, hs = grid.nodes, np.diff(grid.nodes)
        fv = np.stack([np.sin((m + 1) * x) + 1j * np.cos(m * x) for m in range(4)],
                      axis=1)[:, :, None]
        derivs = _data_derivatives(grid, fv)
        d = hermite_step_coefficients(x, fv, *derivs)
        J = len(hs)
        for prop in (frame.prop_m, frame.prop_l):
            assert prop.blocks.shape == (1, 4, 4)
            est = prop.exp_stack(hs)
            psi, chi = _dense_psi_chi(prop.blocks[0], hs)
            c_fwd = hs[:, None, None] * np.einsum("jmik,jmkr->jir", psi, d)
            c_bwd = hs[:, None, None] * np.einsum("jmik,jmkr->jir", chi, d)
            ref_fwd = np.zeros((J + 1, 4, 1), dtype=complex)
            ref_bwd = np.zeros((J + 1, 4, 1), dtype=complex)
            for i in range(J + 1):
                # I_i = sum_{j < i} e^{(x_i - x_{j+1}) X} c_j and
                # sum_{j >= i} e^{(x_j - x_i) X} c_j, each offset exponentiated once
                if i > 0:
                    E = prop.exp_stack(x[i] - x[1:i + 1])[:, 0]
                    ref_fwd[i] = np.einsum("jab,jbr->ar", E, c_fwd[:i])
                if i < J:
                    E = prop.exp_stack(x[i:J] - x[i])[:, 0]
                    ref_bwd[i] = np.einsum("jab,jbr->ar", E, c_bwd[i:])
            got_fwd, got_bwd = convolve_nodes(prop.step_weights(hs), _scans(est), fv, *derivs)
            for got, ref in ((got_fwd, ref_fwd), (got_bwd, ref_bwd)):
                assert np.max(np.abs(got - ref)) <= 1e-4 * np.max(np.abs(ref))
