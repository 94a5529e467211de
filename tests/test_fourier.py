import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hermscale as hs
from hermscale.fourier import catalog_entry


def algebraic_frequency_tail_by_quad(h, kc):
    """||F[u] 1_{|k|>kc}|| for u = (1+x**2)**(-h) from scipy's kv and quad.

    Pieces graded by decades from kc (or 0) up to 1 and unit pieces up to
    kc + 60, each integrated to 1e-13 relative: an independent code path.
    """
    nu = h - 0.5
    scale = 2.0 ** (1.0 - h) / math.gamma(h)
    at_zero = math.gamma(nu) / (math.sqrt(2.0) * math.gamma(h))

    def f2(k):
        return at_zero ** 2 if k == 0.0 else (scale * k ** nu * scipy.special.kv(nu, k)) ** 2

    edges = sorted({kc} | {10.0 ** -j for j in range(17) if 10.0 ** -j > kc}
                   | {kc + j for j in range(1, 61)})
    total = sum(quad(f2, a, b, epsabs=0.0, epsrel=1e-13, limit=200, full_output=1)[0]
                for a, b in zip(edges, edges[1:]))
    return math.sqrt(2.0 * total)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) * exp(-x)
        for x in (0.3, 1.0, 4.0, 20.0):
            expect = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert hs.bessel_k(0.5, x) == pytest.approx(expect, rel=1e-11)

    def test_value_at_one(self):
        assert hs.bessel_k(0.5, 1.0) == pytest.approx(0.461068504, rel=1e-8)

    def test_large_argument_asymptotics(self):
        # K_1(x) ~ sqrt(pi/2) e^-x / sqrt(x) (1 + O(1/x))
        val = hs.bessel_k(1.0, 20.0) * math.exp(20.0) * math.sqrt(20.0)
        assert val == pytest.approx(math.sqrt(math.pi / 2.0), rel=0.05)

    def test_monotone_decrease(self):
        assert hs.bessel_k(1.0, 2.0) > hs.bessel_k(1.0, 3.0)

    def test_against_scipy(self):
        for nu in (0.0, 0.5, 1.0, 2.5, 10.0):
            for x in (1e-3, 0.1, 1.0, 10.0, 50.0):
                ref = scipy.special.kv(nu, x)
                assert hs.bessel_k(nu, x) == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hs.bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            hs.bessel_k(-1.0, 1.0)

    def test_non_finite_rejected(self):
        for nu, x in ((1.0, math.nan), (1.0, math.inf), (math.nan, 1.0),
                      (math.inf, 1.0), (1.0, np.array([1.0, math.nan]))):
            with pytest.raises(ValueError):
                hs.bessel_k(nu, x)

    def test_extreme_arguments(self):
        # K_1(x) ~ 1/x as x -> 0; K_2.5(1e-300) ~ 1e750 overflows.
        assert hs.bessel_k(1.0, 1e-300) == pytest.approx(1e300, rel=1e-12)
        assert hs.bessel_k(2.5, 1e-300) == math.inf
        # Subnormal x, where kv itself gives up: K_0(x) = -log(x/2) - gamma + O(x^2).
        x = 5e-324
        expect = float(mpmath.besselk(0, mpmath.mpf(x)))
        assert hs.bessel_k(0.0, x) == pytest.approx(expect, rel=1e-13)
        # Large orders: the terms are scaled by the integrand's peak.
        for nu, x in ((1500.0, 800.0), (2000.0, 1000.0)):
            expect = float(mpmath.besselk(nu, x))
            assert hs.bessel_k(nu, x) == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert hs.bessel_k(800.0, 1.0) == math.inf

    def test_array_shape_and_scalar_type(self):
        x = np.array([[0.1, 1.0, 10.0], [1e-8, 200.0, 650.0]])
        got = hs.bessel_k(1.5, x)
        assert got.shape == x.shape
        assert np.allclose(got, scipy.special.kv(1.5, x), rtol=1e-12, atol=0.0)
        assert type(hs.bessel_k(1.5, 2.0)) is float
        assert hs.bessel_k(1.5, np.array([])).shape == (0,)

    @given(st.floats(0.0, 12.0), st.floats(-300.0, math.log10(700.0)))
    def test_matches_kv(self, nu, log10_x):
        x = 10.0 ** log10_x
        ref = float(scipy.special.kv(nu, x))
        got = hs.bessel_k(nu, x)
        if math.isinf(ref):
            # kv returns inf somewhat below the largest double.
            assert got > 1e300
        elif ref >= np.finfo(float).tiny:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_blocked_memory(self):
        # Unblocked, the 20,000 x 400-odd trapezoid grid would be ~67 MB.
        x = np.geomspace(1e-6, 700.0, 20_000)
        tracemalloc.start()
        try:
            hs.bessel_k(1.0, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestAlgebraicTransform:
    def test_h1_reduces_to_exponential(self):
        expect = math.sqrt(math.pi / 2.0) * math.exp(-2.0)
        assert hs.algebraic_transform(1.0, 2.0) == pytest.approx(expect, rel=1e-10)

    def test_even_in_k(self):
        assert hs.algebraic_transform(1.7, 2.3) == \
            pytest.approx(hs.algebraic_transform(1.7, -2.3), rel=1e-14)

    def test_matches_numerical_transform(self):
        u = lambda x: (1.0 + x * x) ** -2.0
        assert abs(hs.algebraic_transform(2.0, 1.0)
                   - hs.numerical_fourier(u, 1.0, 1e-10)) < 1e-7

    def test_zero_frequency_limit(self):
        # Direct-integral limit equals Gamma(h-1/2)/(sqrt(2)*Gamma(h)).
        for h in (0.8, 1.0, 2.5):
            expect = math.gamma(h - 0.5) / (math.sqrt(2.0) * math.gamma(h))
            assert hs.algebraic_transform(h, 0.0) == pytest.approx(expect, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hs.algebraic_transform(0.5, 1.0)

    def test_array_matches_scalar_calls(self):
        for h in (0.55, 1.5, 3.7):
            k = np.array([[-2.0, 0.0, 1e-12], [0.3, 7.0, 60.0]])
            got = hs.algebraic_transform(h, k)
            assert got.shape == k.shape
            for idx in np.ndindex(k.shape):
                one = hs.algebraic_transform(h, k[idx])
                assert type(one) is float
                assert got[idx] == pytest.approx(one, rel=1e-14, abs=0.0)
            assert np.array_equal(hs.algebraic(h).eval_Fu(k), got)

    def test_tiny_frequency_uses_limit(self):
        # k**(h-1/2) underflows and K_{h-1/2}(k) overflows here; the value is
        # the k = 0 limit to rounding.
        h = 3.7
        expect = math.gamma(h - 0.5) / (math.sqrt(2.0) * math.gamma(h))
        assert hs.algebraic_transform(h, 1e-200) == pytest.approx(expect, rel=1e-15)


class TestNumericalFourier:
    def test_gaussian_at_zero(self):
        u = lambda x: np.exp(-np.asarray(x) ** 2 / 2.0)
        assert hs.numerical_fourier(u, 0.0, 1e-11) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_at_one(self):
        u = lambda x: np.exp(-np.asarray(x) ** 2 / 2.0)
        assert hs.numerical_fourier(u, 1.0, 1e-11) == \
            pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_lorentzian_closed_form(self):
        u = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
        expect = math.sqrt(math.pi / 2.0) * math.exp(-3.0)
        assert hs.numerical_fourier(u, 3.0, 1e-11) == pytest.approx(expect, abs=1e-10)

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            hs.numerical_fourier(lambda x: np.exp(-x * x), 1.0, 1e-13)


class TestTailNorm:
    def test_lorentzian_closed_form(self):
        # 2*int_M (1+x^2)^-2 = pi/2 - arctan(M) - M/(1+M^2)
        for m in (0.0, 1.0, 2.5):
            expect = math.sqrt(math.pi / 2.0 - math.atan(m) - m / (1.0 + m * m))
            f = lambda x: 1.0 / (1.0 + x * x)
            assert hs.tail_norm(f, m, 1e-10) == pytest.approx(expect, abs=1e-10)
        assert hs.tail_norm(lambda x: 1.0 / (1.0 + x * x), 1.0, 1e-10) == \
            pytest.approx(0.535, abs=1e-3)

    def test_zero_cutoff_returns_norm(self):
        f = lambda x: math.exp(-x * x / 2.0)
        assert hs.tail_norm(f, 0.0, 1e-10) == pytest.approx(np.pi ** 0.25, abs=1e-9)

    def test_exponential_frequency_tail(self):
        f = lambda k: math.sqrt(math.pi / 2.0) * math.exp(-abs(k))
        expect = math.sqrt(math.pi / 2.0) * math.exp(-2.0)
        assert hs.tail_norm(f, 2.0, 1e-10) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(0.16964, abs=5e-5)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            hs.tail_norm(lambda x: x, -1.0, 1e-10)
        with pytest.raises(ValueError):
            hs.tail_norm(lambda x: x, math.nan, 1e-10)


class TestAlgebraicTails:
    @pytest.mark.parametrize("h", [0.55, 0.75, 1.5, 2.0, 2.5, 3.0, 3.7])
    def test_frequency_tail_against_kv_quadrature(self, h):
        u = hs.algebraic(h)
        for kc in (0.0, 1e-6, 0.05, 0.5, 1.0, 5.0, 22.0, 30.0, 60.0, 200.0):
            expect = algebraic_frequency_tail_by_quad(h, kc)
            assert u.frequency_tail(kc) == pytest.approx(expect, rel=1e-12, abs=0.0), kc

    @pytest.mark.parametrize("h", [1.0, 1.5, 1.7, 2.0])
    def test_bad_cutoff_rejected(self, h):
        u = hs.algebraic(h)
        for tail in (u.spatial_tail, u.frequency_tail):
            for cutoff in (-1.0, -1e-300, math.nan, math.inf):
                with pytest.raises(ValueError):
                    tail(cutoff)


class TestCatalog:
    def test_parseval_anchor(self, small_catalog):
        for u in small_catalog:
            assert abs(u.spatial_tail(0.0) - u.l2_norm) < 1e-8, u.id
            assert abs(u.frequency_tail(0.0) - u.l2_norm) < 1e-8, u.id

    def test_tails_decrease_to_zero(self, small_catalog):
        for u in small_catalog:
            cuts = [0.0, 1.0, 2.0, 4.0, 8.0]
            sp = [u.spatial_tail(c) for c in cuts]
            fr = [u.frequency_tail(c) for c in cuts]
            assert all(a >= b - 1e-12 for a, b in zip(sp, sp[1:])), u.id
            assert all(a >= b - 1e-12 for a, b in zip(fr, fr[1:])), u.id
            assert u.spatial_tail(40.0) < 1e-2 * u.l2_norm, u.id

    def test_oracle_consistency_real_entries(self, small_catalog):
        for u in small_catalog:
            if u.complex_valued:
                continue
            for k in (0.5, 1.0, 2.0, 5.0):
                direct = hs.numerical_fourier(u.eval_u, k, 1e-9)
                assert abs(float(u.eval_Fu(k)) - direct) < 1e-6, (u.id, k)

    def test_modulated_gaussian_transform_oracle(self):
        # F[g](xi) = exp(i(k-xi)s) exp(-(xi-k)^2/2); check against the
        # shifted cosine/sine quadrature of the defining integral.
        u = hs.gaussian(1.5, 0.7)
        for xi in (0.0, 1.0, 2.5):
            w = 1.5 - xi
            env = lambda y: np.exp(-np.asarray(y) ** 2 / 2.0)
            cos_part = hs.numerical_fourier(env, w, 1e-11)  # even integrand
            expect = np.exp(1j * w * 0.7) * cos_part
            assert abs(complex(u.eval_Fu(xi)) - expect) < 1e-9

    def test_spatial_decay_metadata(self):
        # u ~ x^(-2h) gives a tail norm ~ M^(-(2h - 1/2)); over M in [3, 6]
        # the finite-M curvature shifts the fitted slope by a few percent.
        for h in (1.0, 2.0, 3.0):
            u = hs.algebraic(h)
            ms = np.linspace(3.0, 6.0, 7)
            slope = np.polyfit(np.log(ms),
                               np.log([u.spatial_tail(m) for m in ms]), 1)[0]
            assert slope == pytest.approx(-(2.0 * h - 0.5), rel=0.1)
            assert u.decay_meta.spatial_kind == "algebraic"
            assert u.decay_meta.spatial_rate == h

    def test_gaussian_tail_superlinear_drop(self):
        u = hs.plain_gaussian(1.0)
        ms = np.array([3.0, 4.0, 5.0, 6.0])
        logs = np.log([u.spatial_tail(m) for m in ms])
        drops = -np.diff(logs)
        assert np.all(np.diff(drops) > 0)  # accelerating decay

    def test_gaussian_power_frequency_decay_exponent(self):
        # For n=2 the transform decays like exp(-c*K^(4/3)); its oscillation
        # puts steps into the tail norm below K ~ 4, so the fit runs over
        # K in [2, 16], where the 4/3-exponent model is both linear and
        # distinguishable from a plain exponential and a Gaussian model.
        u = hs.gaussian_power(2)
        ks = np.linspace(2.0, 16.0, 15)
        y = np.log([u.frequency_tail(k) for k in ks])

        def r2_for(p):
            x = ks ** p
            slope, intercept = np.polyfit(x, y, 1)
            resid = y - (slope * x + intercept)
            return 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)

        assert r2_for(4.0 / 3.0) > 0.99
        assert r2_for(4.0 / 3.0) > r2_for(2.0)
        assert u.decay_meta.frequency_rate == pytest.approx(4.0 / 3.0)

    def test_derivative_entries(self):
        u = hs.plain_gaussian(1.0)
        du = u.derivative()
        # closed-form tails against the generic adaptive oracle
        for m in (0.0, 1.0, 2.5):
            assert du.spatial_tail(m) == \
                pytest.approx(hs.tail_norm(u.eval_du, m, 1e-10), abs=1e-8)
        # Parseval for the derivative: ||u'|| = ||k F[u]||
        assert abs(du.spatial_tail(0.0) - du.frequency_tail(0.0)) < 1e-8
        with pytest.raises(ValueError):
            hs.gaussian(1.0, 0.0).derivative()

    def test_complex_entry_values(self):
        g = hs.gaussian(2.0, 1.0)
        x = np.array([0.3])
        expect = np.exp(-0.5 * (0.3 - 1.0) ** 2 + 2.0j * 0.3)
        assert abs(g.eval_u(x)[0] - expect) < 1e-15
        assert g.l2_norm == pytest.approx(np.pi ** 0.25, rel=1e-14)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            hs.algebraic(0.5)
        with pytest.raises(ValueError):
            hs.plain_gaussian(0.0)
        with pytest.raises(ValueError):
            hs.gaussian_power(0)

    def test_algebraic_domain(self):
        # Above h = 30 the transform's K factor overflows near k = 0, so the
        # frequency tail would be inf (h ~ 30.6) or NaN (h = 40).
        hs.algebraic(30.0)
        for h in (30.5, 31.0, 40.0, 86.0, 1e300, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                hs.algebraic(h)
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError):
                hs.plain_gaussian(sigma)

    @settings(max_examples=25)
    @given(st.floats(0.55, 30.0))
    def test_algebraic_plancherel(self, h):
        # ||F[u]|| = ||u||: both tails at cutoff 0 and the closed-form norm.
        u = hs.algebraic(h)
        norm = u.l2_norm
        assert u.frequency_tail(0.0) == pytest.approx(norm, rel=1e-13, abs=0)
        assert u.spatial_tail(0.0) == pytest.approx(norm, rel=1e-13, abs=0)

    def test_catalog_entry_parser(self):
        assert catalog_entry("algebraic(1.5)").id == "algebraic(1.5)"
        assert catalog_entry("gaussian(1, 0)").id == "gaussian(1,0)"
        assert catalog_entry(" plain_gaussian(2) ").id == "plain_gaussian(2)"
        assert catalog_entry("gaussian_power(4)").id == "gaussian_power(4)"
        assert catalog_entry("gaussian_power(4.0)").id == "gaussian_power(4)"
        for bad in ("nope(1)", "algebraic", "algebraic()", "gaussian(1,2,3)",
                    "algebraic(inf)", "algebraic(nan)", "algebraic(1e400)",
                    "algebraic(1e300)", "plain_gaussian(inf)", "gaussian(1,inf)",
                    "gaussian_power(2.5)", "algebraic(x)"):
            with pytest.raises(ValueError):
                catalog_entry(bad)

    def test_gaussian_power_one_matches_quadrature(self):
        u = hs.gaussian_power(1)
        ref = quad(lambda x: math.exp(-2.0 * x * x), 0.0, np.inf)[0]
        assert u.l2_norm == pytest.approx(math.sqrt(2.0 * ref), rel=1e-12)
