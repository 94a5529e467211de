import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import hermscale as hs
from hermscale import basis as basis_module
from hermscale import galerkin, quadrature
from hermscale.basis import ScaledBasis, SpectralCoeffs, _hermite_rows, _series
from hermscale.quadrature import compute_grid

from conftest import oracle_hermite_rows


def eigen_grid(n):
    """Nodes from the eigenvalues of the Jacobi matrix, polished by one Newton
    step on h_{n+1} and made symmetric, with the weights
    1 / sum_{m<=n} h_m(x)**2 there: an independent construction."""
    if n == 0:
        nodes = np.array([0.0])
    else:
        nodes = eigh_tridiagonal(np.zeros(n + 1), np.sqrt(np.arange(1, n + 1) / 2.0),
                                 eigvals_only=True)
        h_n, h_np1 = deque(_hermite_rows(nodes, n + 1), maxlen=2)
        nodes = nodes - h_np1 / (math.sqrt(2.0 * (n + 1)) * h_n - nodes * h_np1)
        nodes = 0.5 * (nodes - nodes[::-1])
        if n % 2 == 0:
            nodes[n // 2] = 0.0
    weights = 1.0 / sum(h * h for h in _hermite_rows(nodes, n))
    return nodes, 0.5 * (weights + weights[::-1])


class TestGridConstruction:
    def test_single_node(self):
        g = compute_grid(0)
        assert g.nodes[0] == 0.0
        assert g.weights[0] == pytest.approx(np.sqrt(np.pi), rel=1e-14)

    def test_two_nodes_closed_form(self):
        # Roots of the degree-2 polynomial part 4x^2 - 2; weights from the
        # seed values at 1/sqrt(2).
        g = compute_grid(1)
        assert g.nodes == pytest.approx([-2 ** -0.5, 2 ** -0.5], rel=1e-14)
        w_expect = np.sqrt(np.pi) * np.exp(0.5) / 2.0
        assert g.weights == pytest.approx([w_expect, w_expect], rel=1e-13)

    @pytest.mark.parametrize("n", [4, 8, 63, 256])
    def test_node_envelope_band(self, n):
        g = compute_grid(n)
        edge = np.sqrt(2.0 * n)
        assert edge - 3.0 < g.nodes.max() < edge + 1.0

    @pytest.mark.parametrize("n", [5, 16, 101])
    def test_symmetry_and_ordering(self, n):
        g = compute_grid(n)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.abs(g.nodes + g.nodes[::-1]).max() < 1e-13
        assert np.all(g.weights > 0)
        assert np.abs(g.weights - g.weights[::-1]).max() == 0.0

    @pytest.mark.parametrize("n", [8, 64, 256, 1000])
    def test_discrete_orthonormality(self, n):
        g = compute_grid(n)
        v = hs.eval_hermite_functions(g.nodes, g.n_max)
        gram = (v * g.weights) @ v.T
        assert np.abs(gram - np.eye(n + 1)).max() < 1e-11

    def test_quadrature_exactness_beyond_n(self):
        # Exact for products h_a*h_b with a+b <= 2N+1: a or b may exceed N.
        n = 6
        g = compute_grid(n)
        v = hs.eval_hermite_functions(g.nodes, 2 * n + 1)
        for a, b in [(5, 8), (2, 11), (0, 13), (6, 7)]:
            s = np.sum(g.weights * v[a] * v[b])
            assert s == pytest.approx(1.0 if a == b else 0.0, abs=2e-12)

    @pytest.mark.parametrize("n", [3, 10, 33])
    def test_node_interlacing(self, n):
        a = compute_grid(n).nodes
        b = compute_grid(n + 1).nodes
        # b has one more node; each a-node sits strictly between b-neighbours
        for j in range(n + 1):
            assert b[j] < a[j] < b[j + 1]

    @pytest.mark.parametrize("ns", [range(0, 301), [1000, 4096, 10000]])
    def test_matches_eigenvalue_construction(self, ns):
        worst_w = {}
        for n in ns:
            g = compute_grid(n)
            nodes, weights = eigen_grid(n)
            assert np.all(np.abs(g.nodes - nodes) <= 1e-14 * np.maximum(1.0, np.abs(nodes))), n
            worst_w[n] = np.max(np.abs(g.weights - weights) / weights)
        # Up to 2.6e-12 of roundoff from the recurrence sits in both weight
        # sets at N = 10000 (40-digit check at six nodes), and it differs
        # wherever a node differs in its last bit.
        assert all(w <= (2e-12 if n > 4096 else 1e-12) for n, w in worst_w.items()), worst_w

    @pytest.mark.parametrize("n", [1, 2, 41, 42, 1000, 4096])
    def test_bitwise_equal_to_oracle_recurrence(self, n, monkeypatch):
        # Newton on the oracle's rows gives the expected nodes; the weights
        # are summed here from the oracle's rows at the non-negative nodes.
        grid = compute_grid(n)
        monkeypatch.setattr(quadrature, "_hermite_rows", oracle_hermite_rows)
        assert grid.nodes.tobytes() == compute_grid(n).nodes.tobytes()
        x = grid.nodes[(n + 1) // 2:]
        inv_weight = np.zeros_like(x)
        for h in oracle_hermite_rows(x, n):
            inv_weight += h * h
        lower = slice(None, 0 if n % 2 == 0 else None, -1)
        weights = 1.0 / np.r_[inv_weight[lower], inv_weight]
        assert grid.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("n", [64, 1000])
    def test_at_most_three_passes(self, n, monkeypatch):
        calls = []

        def counting(x, n_max):
            calls.append(n_max)
            return _hermite_rows(x, n_max)

        monkeypatch.setattr(quadrature, "_hermite_rows", counting)
        compute_grid(n)
        assert 1 <= len(calls) <= 3

    def test_guard_limit(self):
        with pytest.raises(ValueError):
            compute_grid(10_001)
        with pytest.raises(ValueError):
            compute_grid(-1)


@pytest.fixture(scope="module")
def limit_grid():
    return quadrature._grid(quadrature.N_MAX_GRID)


class TestTransforms:
    def test_analysis_picks_out_basis_element(self):
        grid = compute_grid(8)
        basis = ScaledBasis(8, 2.0)
        values = hs.eval_scaled_basis(basis, grid.nodes / 2.0)[3]
        c = hs.analysis(values, 2.0)
        expect = np.zeros(9)
        expect[3] = 1.0
        assert np.abs(c.values - expect).max() < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        c = SpectralCoeffs(ScaledBasis(64, 0.7), rng.standard_normal(65))
        values = hs.synthesis(c)
        back = hs.analysis(values, 0.7)
        assert np.abs(back.values - c.values).max() < 1e-11

    @pytest.mark.parametrize("n, beta, dtype", [(0, 1.0, float), (7, 0.3, float),
                                                (64, 2.0, complex), (500, 1.0, float)])
    def test_stacked_columns_match_single_analysis(self, n, beta, dtype):
        # Both are sums of the same terms w_j v_j h_n(x_j), in two orders.
        # Each differs from the exact sum by at most (N+1) eps sum_j |terms|,
        # and Cauchy-Schwarz with sum_j w_j h_n(x_j)**2 = 1 bounds that sum
        # by the weighted sample norm ||sqrt(w) v||.
        grid = compute_grid(n)
        rng = np.random.default_rng(n)
        v = rng.standard_normal((n + 1, 2)).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal((n + 1, 2))
        stacked = quadrature._transform(grid, v, beta)
        assert stacked.shape == (n + 1, 2)
        for k in range(2):
            single = hs.analysis(v[:, k], beta).values
            norm = math.sqrt(np.sum(grid.weights * np.abs(v[:, k]) ** 2) / beta)
            bound = 2 * (n + 1) * np.finfo(float).eps * norm
            assert np.abs(stacked[:, k] - single).max() <= bound

    @settings(max_examples=40)
    @given(st.integers(0, 600), st.floats(-3.0, 3.0), st.booleans(),
           st.sampled_from([(), (1,), (2,)]), st.integers(0, 2 ** 32 - 1))
    @example(0, 0.0, False, (), 1)
    @example(1, -3.0, True, (2,), 2)
    @example(14, 3.0, False, (1,), 3)
    @example(15, 1.0, True, (), 4)
    @example(16, -1.0, False, (2,), 5)
    @example(31, 0.5, True, (1,), 6)
    @example(32, -0.5, False, (2,), 7)
    def test_folded_transform_matches_full_row_stream(self, n, log_beta, is_complex,
                                                      columns, seed):
        # The oracle streams the rows over all N+1 nodes and dots each with
        # the weighted samples.  Both sides are sums of the terms
        # w_j v_j h_n(x_j) / sqrt(beta); the fold adds the pair at +-x_j first,
        # then sums (N+2)//2 products.  Each differs from the exact sum by at
        # most (N+1) eps sum_j |terms|, and Cauchy-Schwarz with
        # sum_j w_j h_n(x_j)**2 = 1 bounds that sum by ||sqrt(w) v|| / sqrt(beta),
        # so the two differ by at most twice that, per column.
        grid, beta = quadrature._grid(n), 10.0 ** log_beta
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n + 1,) + columns)
        if is_complex:
            v = v + 1j * rng.standard_normal(v.shape)
        w = grid.weights.reshape((-1,) + (1,) * len(columns))
        oracle = np.array([row @ (w * v) for row in _hermite_rows(grid.nodes, n)])
        oracle /= np.sqrt(beta)
        folded = quadrature._transform(grid, v, beta)
        assert folded.shape == v.shape and folded.dtype == oracle.dtype
        norm = np.sqrt(np.sum(w * np.abs(v) ** 2, axis=0) / beta)
        assert np.all(np.abs(folded - oracle) <= 2 * (n + 1) * np.finfo(float).eps * norm)

    @pytest.mark.parametrize("n", [0, 1, 64, 1000])
    def test_transforms_stream_the_nonnegative_nodes(self, n, monkeypatch):
        # analysis and synthesis each draw one row stream, over the
        # (N+2)//2 nodes x_j >= 0; -x_j is served by parity.
        grid = quadrature._grid(n)
        streams = []

        def counting(x, n_max):
            streams.append((x.size, n_max))
            return _hermite_rows(x, n_max)

        monkeypatch.setattr(quadrature, "_hermite_rows", counting)
        monkeypatch.setattr(basis_module, "_hermite_rows", counting)
        c = hs.analysis(np.cos(grid.nodes), 1.0)
        assert streams == [((n + 2) // 2, n)]
        streams.clear()
        hs.synthesis(c)
        assert streams == [((n + 2) // 2, n)]

    @settings(max_examples=40)
    @given(st.integers(0, 600), st.floats(-3.0, 3.0), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @example(0, 0.0, False, 1)
    @example(1, 1.0, True, 2)
    @example(600, -3.0, False, 3)
    def test_synthesis_equals_full_series_bitwise(self, n, log_beta, is_complex, seed):
        # h_n(-x) = (-1)**n h_n(x) holds bit for bit in the recurrence, so
        # even -+ odd at x_j >= 0 is the series summed at -+x_j.
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n + 1)
        if is_complex:
            values = values + 1j * rng.standard_normal(n + 1)
        c = SpectralCoeffs(ScaledBasis(n, 10.0 ** log_beta), values)
        full = np.sqrt(c.basis.beta) * _series(values, quadrature._grid(n).nodes).sum(0)
        assert hs.synthesis(c).tobytes() == full.tobytes()

    def test_synthesis_zero(self):
        c = SpectralCoeffs(ScaledBasis(5, 1.0), np.zeros(6))
        assert np.abs(hs.synthesis(c)).max() == 0.0

    def test_synthesis_ground_mode(self):
        grid = compute_grid(1)
        c = SpectralCoeffs(ScaledBasis(1, 1.0), np.array([1.0, 0.0]))
        vals = hs.synthesis(c)
        h0 = hs.eval_hermite_functions(grid.nodes, 0)[0]
        assert vals == pytest.approx(h0, rel=1e-14)

    def test_interpolation_reproduces_samples(self):
        grid = compute_grid(32)
        u = hs.algebraic(1.0)
        beta = 1.3
        samples = u.eval_u(grid.nodes / beta)
        c = hs.analysis(samples, beta)
        again = hs.synthesis(c)
        assert np.abs(again - samples).max() < 1e-11 * np.abs(samples).max()

    def test_interpolant_converges_to_projection_coefficients(self):
        # Interpolation and projection agree in the limit; coefficient 0 of
        # the modulated Gaussian already matches to 1e-8 at N=40.
        u = hs.gaussian(1.0, 0.0)
        c = hs.interpolate(u, ScaledBasis(40, 1.0))
        closed = hs.gaussian_coefficients(1.0, 0.0, 40)
        assert abs(c.values[0] - closed[0]) < 1e-8

    def test_transform_matrices_inverse_pair(self):
        n = 512
        grid = compute_grid(n)
        v = hs.eval_hermite_functions(grid.nodes, grid.n_max)
        product = (v * grid.weights) @ v.T
        assert np.abs(product - np.eye(n + 1)).max() < 1e-11

    def test_transforms_stream_at_grid_limit(self, limit_grid):
        # The Vandermonde matrix at this size would take 800 MB.
        grid = limit_grid
        values = np.cos(grid.nodes)
        tracemalloc.start()
        try:
            c = hs.analysis(values, 0.5)
            back = hs.synthesis(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert np.abs(back - values).max() < 1e-13 * math.sqrt(grid.size)

    def test_row_pass_memory_linear(self, limit_grid):
        # 10,001 nodes, 67% of them with an underflowing seed, and 10,001
        # rows.  Live at once: x, three rotating rows, two emitted rows,
        # scale and exponent (M doubles each), the step and the two
        # coefficient arrays (N each), one temporary of the rescale test:
        # 12 x 80 kB = 0.96 MB.  The basis matrix would take 800 MB.
        tracemalloc.start()
        try:
            for _ in _hermite_rows(limit_grid.nodes, limit_grid.n_max):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @settings(max_examples=40)
    @given(st.integers(0, 600), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
    @example(0, 0.0, 1)
    @example(600, -3.0, 2)
    @example(600, 3.0, 3)
    def test_round_trip_at_nodes(self, n, log_beta, seed):
        values = np.random.default_rng(seed).standard_normal(n + 1)
        back = hs.synthesis(hs.analysis(values, 10.0 ** log_beta))
        assert np.abs(back - values).max() <= 1e-13 * math.sqrt(n + 1) * np.abs(values).max()

    def test_size_mismatch_rejected(self):
        # The samples fix the grid: one axis of 1 .. N_MAX_GRID + 1 values.
        for values in (np.zeros((5, 1)), np.zeros(0), np.zeros(quadrature.N_MAX_GRID + 2)):
            with pytest.raises(ValueError):
                hs.analysis(values, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 64),
           st.sampled_from(["algebraic(1)", "algebraic(2.5)", "plain_gaussian(0.7)",
                            "gaussian(0,0)", "gaussian_power(1)", "gaussian_power(3)"]),
           st.floats(-2.0, 2.0))
    def test_memoised_grid_matches_a_fresh_one(self, n, ident, log_beta):
        # Each operation on the shared grid gives the bits of the same
        # sums run on a grid built afresh for its N.
        u, beta = hs.catalog_entry(ident), 10.0 ** log_beta
        grid, basis = compute_grid(n), ScaledBasis(n, beta)
        problem = galerkin.manufactured_problem(u, 1.0)

        def oracle(f):
            return quadrature._transform(grid, f(grid.nodes / beta), beta)

        a = oracle(u.eval_u)
        assert hs.interpolate(u, basis).values.tobytes() == a.tobytes()
        assert hs.analysis(u.eval_u(grid.nodes / beta), beta).values.tobytes() \
            == a.tobytes()
        c = hs.solve(problem, basis)
        assert c.values.tobytes() == \
            galerkin._solve(problem, basis, oracle(problem.rhs.eval_u)).values.tobytes()
        assert hs.discrete_solution_error(c, u) == float(np.linalg.norm(a - c.values))
        assert hs.synthesis(c).tobytes() == \
            (np.sqrt(beta) * _series(c.values, grid.nodes).sum(axis=0)).tobytes()

