import numpy as np
import pytest

import hermscale as hs
from hermscale.basis import ScaledBasis, SpectralCoeffs
from hermscale.quadrature import compute_grid, hermite_vandermonde


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
        v = hermite_vandermonde(g)
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

    def test_guard_limit(self):
        with pytest.raises(ValueError):
            compute_grid(10_001)
        with pytest.raises(ValueError):
            compute_grid(-1)


class TestTransforms:
    def test_analysis_picks_out_basis_element(self):
        grid = compute_grid(8)
        basis = ScaledBasis(8, 2.0)
        values = hs.eval_scaled_basis(basis, grid.scaled_nodes(2.0))[3]
        c = hs.analysis(grid, values, 2.0)
        expect = np.zeros(9)
        expect[3] = 1.0
        assert np.abs(c.values - expect).max() < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        grid = compute_grid(64)
        c = SpectralCoeffs(ScaledBasis(64, 0.7), rng.standard_normal(65))
        values = hs.synthesis(grid, c)
        back = hs.analysis(grid, values, 0.7)
        assert np.abs(back.values - c.values).max() < 1e-11

    def test_synthesis_zero(self):
        grid = compute_grid(5)
        c = SpectralCoeffs(ScaledBasis(5, 1.0), np.zeros(6))
        assert np.abs(hs.synthesis(grid, c)).max() == 0.0

    def test_synthesis_ground_mode(self):
        grid = compute_grid(1)
        c = SpectralCoeffs(ScaledBasis(1, 1.0), np.array([1.0, 0.0]))
        vals = hs.synthesis(grid, c)
        h0 = hs.eval_hermite_functions(grid.nodes, 0)[0]
        assert vals == pytest.approx(h0, rel=1e-14)

    def test_interpolation_reproduces_samples(self):
        grid = compute_grid(32)
        u = hs.algebraic(1.0)
        beta = 1.3
        samples = u.eval_u(grid.scaled_nodes(beta))
        c = hs.analysis(grid, samples, beta)
        again = hs.synthesis(grid, c)
        assert np.abs(again - samples).max() < 1e-11 * np.abs(samples).max()

    def test_interpolant_converges_to_projection_coefficients(self):
        # Interpolation and projection agree in the limit; coefficient 0 of
        # the modulated Gaussian already matches to 1e-8 at N=40.
        grid = compute_grid(40)
        u = hs.gaussian(1.0, 0.0)
        c = hs.interpolate(u, ScaledBasis(40, 1.0), grid)
        closed = hs.gaussian_coefficients(hs.GaussianParams(1.0, 0.0), 40)
        assert abs(c.values[0] - closed[0]) < 1e-8

    def test_transform_matrices_inverse_pair(self):
        n = 512
        grid = compute_grid(n)
        v = hermite_vandermonde(grid)
        product = (v * grid.weights) @ v.T
        assert np.abs(product - np.eye(n + 1)).max() < 1e-11

    def test_size_mismatch_rejected(self):
        grid = compute_grid(4)
        with pytest.raises(ValueError):
            hs.analysis(grid, np.zeros(4), 1.0)
        with pytest.raises(ValueError):
            hs.synthesis(grid, SpectralCoeffs(ScaledBasis(5, 1.0), np.zeros(6)))
