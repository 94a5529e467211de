import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hermscale as hs
from hermscale import ScaledBasis, cli, fourier
from hermscale.fourier import catalog_entry

from conftest import numerical_fourier

# Every catalog family over the parameters its constructor accepts (sigma
# over six decades; |k|, |s| to 30, where the mass still sits near the grid).
CATALOG_ENTRIES = st.one_of(
    st.builds(hs.plain_gaussian, st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
    st.builds(hs.gaussian, st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
    st.builds(hs.algebraic, st.floats(0.5, 30.0, exclude_min=True)),
    st.builds(hs.gaussian_power, st.integers(1, 18)))


def derivative_chain(u):
    """u followed by every derivative entry it has: u, u', u'', ..."""
    chain = [u]
    while chain[-1].derivative_factory is not None:
        chain.append(chain[-1].derivative())
    return chain


def algebraic_frequency_tail_by_quad(h, kc):
    """||F[u] 1_{|k|>kc}|| for u = (1+x**2)**(-h) from scipy's kve and quad.

    Pieces graded by decades from kc (or 0) up to 1 and unit pieces up to
    kc + 60, each integrated to 1e-13 relative: an independent code path.
    The integrand is e**kc * F[u], from kve = e**k * kv, and the result is
    scaled back by e**-kc, so squares far into the tail stay normal.
    """
    nu = h - 0.5
    scale = 2.0 ** (1.0 - h) / math.gamma(h)
    at_zero = math.gamma(nu) / (math.sqrt(2.0) * math.gamma(h))

    def f2(k):
        if k == 0.0:
            return at_zero ** 2
        return (scale * k ** nu * scipy.special.kve(nu, k) * math.exp(kc - k)) ** 2

    edges = sorted({kc} | {10.0 ** -j for j in range(17) if 10.0 ** -j > kc}
                   | {kc + j for j in range(1, 61)})
    total = sum(quad(f2, a, b, epsabs=0.0, epsrel=1e-13, limit=200, full_output=1)[0]
                for a, b in zip(edges, edges[1:]))
    return math.sqrt(2.0 * total) * math.exp(-kc)


def algebraic_frequency_tail_by_window(h, kc):
    """||F[u] 1_{|k|>kc}|| for u = (1+x**2)**(-h), summed over a window of
    its own for each cutoff: 16-point Gauss-Legendre on the panels between kc,
    the points 4**-j > kc and kc + 1, ..., kc + 25 + 2h (the sum each call
    made before panels were memoised)."""
    grade = 0.25 ** np.arange(20.0, -1.0, -1.0)
    edges = np.unique(np.r_[kc, grade[grade > kc], kc + np.arange(1, 26 + 2 * h)])
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    k = edges[:-1, None] + half * (1.0 + nodes)
    return math.sqrt(2.0 * np.sum(half * weights * fourier.algebraic_transform(h, k) ** 2))


def gaussian_power_transform_by_series(n, k):
    """F[exp(-x**(2n))](k) from its power series

        sqrt(2/pi) * sum_m (-1)**m * k**(2m) / (2m)! * Gamma((2m+1)/(2n)) / (2n),

    summed in 100-digit mpmath arithmetic (at k = 44 the terms reach 1e32
    before they cancel), so at least 30 digits survive.
    """
    with mpmath.workdps(100):
        k = mpmath.mpf(k)
        total, m = mpmath.mpf(0), 0
        while True:
            term = ((-1) ** m * k ** (2 * m) / mpmath.factorial(2 * m)
                    * mpmath.gamma(mpmath.mpf(2 * m + 1) / (2 * n)) / (2 * n))
            total += term
            if m > 10 and abs(term) < mpmath.mpf(10) ** -40:
                return float(mpmath.sqrt(2 / mpmath.pi) * total)
            m += 1


def gaussian_power_frequency_tail_direct(n, kc, k_end):
    """||F[u] 1_{|k|>kc}|| for u = exp(-x**(2n)), F[u] cut off at k_end.

    32-point Gauss-Legendre on quarter-unit k panels, each F[u](k) a direct
    cosine quadrature (32-point Gauss-Legendre on 32 panels of the support of
    u): no use of the catalog entry's own samples.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    x_edges = np.linspace(0.0, 737.0 ** (1.0 / (2 * n)), 33)
    half_x = 0.5 * np.diff(x_edges)[:, None]
    x = (x_edges[:-1, None] + half_x * (1.0 + nodes)).ravel()
    wu = (half_x * weights).ravel() * np.exp(-x ** (2 * n))
    edges = np.r_[kc, np.arange(math.floor(4 * kc) + 1, 4 * k_end + 1) / 4.0]
    half = 0.5 * np.diff(edges)[:, None]
    k = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    fu = np.concatenate([np.cos(np.outer(k[i:i + 2048], x)) @ wu
                         for i in range(0, k.size, 2048)])
    fu = math.sqrt(2.0 / math.pi) * fu.reshape(half.size, 32)
    return math.sqrt(2.0 * np.sum(half * weights * fu * fu))


def gaussian_power_sample_end(u):
    """k_max of gaussian_power(n >= 2): F[u] is sampled on the unit panels
    below it, a multiple of 8, and is 0 beyond it."""
    return 8 * next(j for j in range(1, 100) if u.eval_Fu(8.0 * j + 0.5) == 0.0)


def gaussian_power_frequency_tail_per_call(u, kc):
    """||F[u] 1_{|k|>kc}|| for u = gaussian_power(n >= 2), summed afresh on
    each call: 16-point Gauss-Legendre on [kc, floor(kc) + 1] and every unit
    panel up to k_max (the sum each call made before tail panels were
    memoised)."""
    edges = np.r_[kc, np.arange(math.floor(kc) + 1, gaussian_power_sample_end(u) + 1)]
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    k = edges[:-1, None] + half * (1.0 + nodes)
    return math.sqrt(2.0 * np.sum(half * weights * u.eval_Fu(k) ** 2))


def assert_zero_tail_without_blocks(u):
    """The frequency tail of u is 0 at cutoffs where F[u] has vanished, and
    no panel block is built for them."""
    before = fourier._tail_panels.cache_info()
    for kc in (2000.0, 1e6, 2.0 ** 53 + 2.0, 1e300):
        assert u.frequency_tail(kc) == 0.0, kc
    after = fourier._tail_panels.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) * exp(-x)
        for x in (0.3, 1.0, 4.0, 20.0):
            expect = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert fourier.bessel_k(0.5, x) == pytest.approx(expect, rel=1e-11)

    def test_value_at_one(self):
        assert fourier.bessel_k(0.5, 1.0) == pytest.approx(0.461068504, rel=1e-8)

    def test_large_argument_asymptotics(self):
        # K_1(x) ~ sqrt(pi/2) e^-x / sqrt(x) (1 + O(1/x))
        val = fourier.bessel_k(1.0, 20.0) * math.exp(20.0) * math.sqrt(20.0)
        assert val == pytest.approx(math.sqrt(math.pi / 2.0), rel=0.05)

    def test_monotone_decrease(self):
        assert fourier.bessel_k(1.0, 2.0) > fourier.bessel_k(1.0, 3.0)

    def test_against_scipy(self):
        for nu in (0.0, 0.5, 1.0, 2.5, 10.0):
            for x in (1e-3, 0.1, 1.0, 10.0, 50.0):
                ref = scipy.special.kv(nu, x)
                assert fourier.bessel_k(nu, x) == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fourier.bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            fourier.bessel_k(-1.0, 1.0)

    def test_non_finite_rejected(self):
        for nu, x in ((1.0, math.nan), (1.0, math.inf), (math.nan, 1.0),
                      (math.inf, 1.0), (1.0, np.array([1.0, math.nan]))):
            with pytest.raises(ValueError):
                fourier.bessel_k(nu, x)

    def test_extreme_arguments(self):
        # K_1(x) ~ 1/x as x -> 0; K_2.5(1e-300) ~ 1e750 overflows.
        assert fourier.bessel_k(1.0, 1e-300) == pytest.approx(1e300, rel=1e-12)
        assert fourier.bessel_k(2.5, 1e-300) == math.inf
        # Subnormal x, where kv itself gives up: K_0(x) = -log(x/2) - gamma + O(x^2).
        x = 5e-324
        expect = float(mpmath.besselk(0, mpmath.mpf(x)))
        assert fourier.bessel_k(0.0, x) == pytest.approx(expect, rel=1e-13)
        # Large orders: the terms are scaled by the integrand's peak.
        for nu, x in ((1500.0, 800.0), (2000.0, 1000.0)):
            expect = float(mpmath.besselk(nu, x))
            assert fourier.bessel_k(nu, x) == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert fourier.bessel_k(800.0, 1.0) == math.inf

    def test_array_shape_and_scalar_type(self):
        x = np.array([[0.1, 1.0, 10.0], [1e-8, 200.0, 650.0]])
        got = fourier.bessel_k(1.5, x)
        assert got.shape == x.shape
        assert np.allclose(got, scipy.special.kv(1.5, x), rtol=1e-12, atol=0.0)
        assert type(fourier.bessel_k(1.5, 2.0)) is float
        assert fourier.bessel_k(1.5, np.array([])).shape == (0,)

    @given(st.floats(0.0, 12.0), st.floats(-300.0, math.log10(700.0)))
    @example(nu=2.2250738585e-313, log10_x=-1.0)
    def test_matches_kv(self, nu, log10_x):
        x = 10.0 ** log10_x
        # kv is inf at subnormal orders; K_nu is even and analytic in nu, so
        # below nu = 1e-300 it equals K_0 to double precision.
        ref = float(scipy.special.kv(nu if nu >= 1e-300 else 0.0, x))
        got = fourier.bessel_k(nu, x)
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
            fourier.bessel_k(1.0, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestAlgebraicTransform:
    def test_h1_reduces_to_exponential(self):
        expect = math.sqrt(math.pi / 2.0) * math.exp(-2.0)
        assert fourier.algebraic_transform(1.0, 2.0) == pytest.approx(expect, rel=1e-10)

    def test_even_in_k(self):
        assert fourier.algebraic_transform(1.7, 2.3) == \
            pytest.approx(fourier.algebraic_transform(1.7, -2.3), rel=1e-14)

    def test_matches_numerical_transform(self):
        u = lambda x: (1.0 + x * x) ** -2.0
        assert abs(fourier.algebraic_transform(2.0, 1.0)
                   - numerical_fourier(u, 1.0, 1e-10)) < 1e-7

    def test_zero_frequency_limit(self):
        # Direct-integral limit equals Gamma(h-1/2)/(sqrt(2)*Gamma(h)).
        for h in (0.8, 1.0, 2.5):
            expect = math.gamma(h - 0.5) / (math.sqrt(2.0) * math.gamma(h))
            assert fourier.algebraic_transform(h, 0.0) == pytest.approx(expect, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fourier.algebraic_transform(0.5, 1.0)

    def test_array_matches_scalar_calls(self):
        for h in (0.55, 1.5, 3.7):
            k = np.array([[-2.0, 0.0, 1e-12], [0.3, 7.0, 60.0]])
            got = fourier.algebraic_transform(h, k)
            assert got.shape == k.shape
            for idx in np.ndindex(k.shape):
                one = fourier.algebraic_transform(h, k[idx])
                assert type(one) is float
                assert got[idx] == pytest.approx(one, rel=1e-14, abs=0.0)
            assert np.array_equal(hs.algebraic(h).eval_Fu(k), got)

    def test_tiny_frequency_uses_limit(self):
        # k**(h-1/2) underflows and K_{h-1/2}(k) overflows here; the value is
        # the k = 0 limit to rounding.
        h = 3.7
        expect = math.gamma(h - 0.5) / (math.sqrt(2.0) * math.gamma(h))
        assert fourier.algebraic_transform(h, 1e-200) == pytest.approx(expect, rel=1e-15)


class TestNumericalFourier:
    def test_gaussian_at_zero(self):
        u = lambda x: np.exp(-np.asarray(x) ** 2 / 2.0)
        assert numerical_fourier(u, 0.0, 1e-11) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_at_one(self):
        u = lambda x: np.exp(-np.asarray(x) ** 2 / 2.0)
        assert numerical_fourier(u, 1.0, 1e-11) == \
            pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_lorentzian_closed_form(self):
        u = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
        expect = math.sqrt(math.pi / 2.0) * math.exp(-3.0)
        assert numerical_fourier(u, 3.0, 1e-11) == pytest.approx(expect, abs=1e-10)

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            numerical_fourier(lambda x: np.exp(-x * x), 1.0, 1e-13)


class TestTailNorm:
    def test_lorentzian_closed_form(self):
        # 2*int_M (1+x^2)^-2 = pi/2 - arctan(M) - M/(1+M^2)
        for m in (0.0, 1.0, 2.5):
            expect = math.sqrt(math.pi / 2.0 - math.atan(m) - m / (1.0 + m * m))
            f = lambda x: 1.0 / (1.0 + x * x)
            assert hs.tail_norm(f, m) == pytest.approx(expect, abs=1e-10)
        assert hs.tail_norm(lambda x: 1.0 / (1.0 + x * x), 1.0) == \
            pytest.approx(0.535, abs=1e-3)

    def test_zero_cutoff_returns_norm(self):
        f = lambda x: np.exp(-x * x / 2.0)
        assert hs.tail_norm(f, 0.0) == pytest.approx(np.pi ** 0.25, abs=1e-9)

    def test_exponential_frequency_tail(self):
        f = lambda k: math.sqrt(math.pi / 2.0) * np.exp(-abs(k))
        expect = math.sqrt(math.pi / 2.0) * math.exp(-2.0)
        assert hs.tail_norm(f, 2.0) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(0.16964, abs=5e-5)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            hs.tail_norm(lambda x: x, -1.0)
        with pytest.raises(ValueError):
            hs.tail_norm(lambda x: x, math.nan)

    def test_complex_integrand_uses_modulus(self):
        # |u|**2, not Re(u**2): the modulated Gaussian's tail is its erfc form.
        u = hs.gaussian(1.0, 0.0)
        for c in (0.0, 0.5, 2.0, 5.0):
            assert hs.tail_norm(u.eval_u, c) == \
                pytest.approx(u.spatial_tail(c), rel=1e-12, abs=0.0)

    def test_tiny_tail_keeps_its_digits(self):
        # 40-digit mpmath quadrature of 2 * int_2^inf exp(-2 x**8) dx, square root.
        assert hs.gaussian_power(4).spatial_tail(2.0) == \
            pytest.approx(2.0658205318422145e-113, rel=1e-10, abs=0.0)

    def test_underflowing_square_keeps_tail(self):
        # 2 * int_c^inf (1+x**2)**-2 dx = (2/3) c**-3 (1 + O(c**-2)); the
        # integrand's square underflows from c ~ 1e77 on.
        u = hs.algebraic(1.0)
        for c in (1e20, 1e100, 1.1e102):
            assert u.spatial_tail(c) == \
                pytest.approx(math.sqrt(2.0 / 3.0) * c ** -1.5, rel=1e-12, abs=0.0)

    def test_array_frequency_integrand(self, monkeypatch):
        # One array call per batch of abscissae, not one Bessel-K call each.
        du = hs.algebraic(1.5).derivative()
        calls = []
        real = fourier.bessel_k
        monkeypatch.setattr(fourier, "bessel_k",
                            lambda nu, x: calls.append(1) or real(nu, x))
        du.frequency_tail(1.0)
        assert 1 <= len(calls) <= 3


class TestAlgebraicTails:
    @pytest.mark.parametrize("h", [0.55, 0.75, 1.5, 2.0, 2.5, 3.0, 3.7])
    def test_frequency_tail_against_kv_quadrature(self, h):
        u = hs.algebraic(h)
        for kc in (0.0, 1e-6, 0.05, 0.5, 1.0, 5.0, 22.0, 30.0, 60.0, 200.0, 300.0, 350.0):
            expect = algebraic_frequency_tail_by_quad(h, kc)
            assert u.frequency_tail(kc) == pytest.approx(expect, rel=1e-12, abs=0.0), kc

    @pytest.mark.parametrize("h", [0.55, 2.0, 3.7, 12.0])
    def test_frequency_tail_beyond_subnormal_squares(self, h):
        # Unscaled, F**2 of algebraic(2) is subnormal from kc ~ 366 on: the
        # tail loses its digits there and is 0 from kc ~ 380.  Scaled by a
        # fixed 2**450 instead of each panel's own power of two, it loses
        # them from kc ~ 680 and is 0 from kc ~ 700, where F is still normal.
        u = hs.algebraic(h)
        for kc in (366.0, 370.0, 380.0, 420.0, 600.0, 680.0, 700.0):
            expect = algebraic_frequency_tail_by_quad(h, kc)
            assert u.frequency_tail(kc) == pytest.approx(expect, rel=1e-12, abs=0.0), kc

    @pytest.mark.parametrize("h", [0.55, 2.0, 30.0])
    def test_vanished_transform_gives_zero_and_builds_nothing(self, h):
        assert_zero_tail_without_blocks(hs.algebraic(h))

    @settings(max_examples=100)
    @given(st.floats(0.5, 30.0, exclude_min=True), st.floats(0.0, 350.0))
    @example(h=2.0, kc=0.0)
    @example(h=0.5000001, kc=0.25)
    @example(h=30.0, kc=350.0)
    def test_memoised_panels_match_per_call_window(self, h, kc):
        expect = algebraic_frequency_tail_by_window(h, kc)
        assert hs.algebraic(h).frequency_tail(kc) == pytest.approx(expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("h", [0.75, 2.5, 17.0])
    def test_value_independent_of_call_history(self, h):
        u = hs.algebraic(h)
        cutoffs = (0.0, 3e-9, 0.3, 1.0, 12.5, 13.0, 40.7, 199.9, 351.0)
        for kc in cutoffs:
            fourier._tail_panels.cache_clear()
            first = u.frequency_tail(kc)
            fourier._tail_panels.cache_clear()
            for other in reversed(cutoffs):
                if other != kc:
                    u.frequency_tail(other)
            assert u.frequency_tail(kc) == first, kc

    def test_one_head_panel_of_bessel_work_per_call(self, monkeypatch):
        sizes = []
        real = fourier.bessel_k
        monkeypatch.setattr(fourier, "bessel_k",
                            lambda nu, x: sizes.append(np.size(x)) or real(nu, x))
        fourier._tail_panels.cache_clear()
        u = hs.algebraic(2.5)
        catalog_entry("algebraic(3.5)")
        assert sizes == [] and fourier._tail_panels.cache_info().currsize == 0
        cutoffs = (0.0, 0.3, 5.0, 12.9, 40.0, 41.0)
        for kc in cutoffs:  # builds the blocks these cutoffs need
            u.frequency_tail(kc)
        assert sum(sizes) > 16 * len(cutoffs)
        for kc in cutoffs:
            del sizes[:]
            u.frequency_tail(kc)
            assert len(sizes) == 1 and sizes[0] <= 16, (kc, sizes)

    def test_panel_memo_is_bounded(self):
        cap = fourier._tail_panels.cache_info().maxsize
        fourier._tail_panels.cache_clear()
        for j in range(cap // 4 + 2):  # four blocks each, from kc = 0 to 86
            hs.algebraic(30.0 - 0.01 * j).frequency_tail(0.0)
        info = fourier._tail_panels.cache_info()
        assert info.misses > cap and 0 < info.currsize <= cap

    @pytest.mark.parametrize("h", [1.0, 1.5, 1.7, 2.0])
    def test_bad_cutoff_rejected(self, h):
        u = hs.algebraic(h)
        for tail in (u.spatial_tail, u.frequency_tail):
            for cutoff in (-1.0, -1e-300, math.nan, math.inf):
                with pytest.raises(ValueError):
                    tail(cutoff)


class TestGaussianPowerTransform:
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_transform_against_series(self, n):
        u = hs.gaussian_power(n)
        ks = np.array([0.0, 0.37, 3.3, 11.5, 27.25, 44.0])
        expect = [gaussian_power_transform_by_series(n, k) for k in ks]
        assert np.abs(u.eval_Fu(ks) - expect).max() <= 1e-14
        assert np.abs(u.eval_Fu(-ks) - expect).max() <= 1e-14

    @pytest.mark.parametrize("k_top", [10.0, 600.0])
    def test_cos_samples_against_closed_form(self, k_top):
        # F[exp(-x**2)](k) = exp(-k**2/4)/sqrt(2); its mass past x = 7 is
        # exp(-49).  The panels follow the batch's largest k: 4 of them for
        # the batch up to 10, 107 for the one up to 600.
        ks = np.linspace(0.0, k_top, 121)
        got = fourier._cos_samples(lambda x: np.exp(-x * x), 7.0, ks)
        assert np.abs(got - np.exp(-ks * ks / 4.0) / math.sqrt(2.0)).max() <= 1e-14

    def test_frequency_tail_at_zero_is_norm(self):
        for n in range(1, 17):
            u = hs.gaussian_power(n)
            assert u.frequency_tail(0.0) == pytest.approx(u.l2_norm, rel=1e-13, abs=0.0), n

    def test_cache_is_bounded(self):
        cap = hs.gaussian_power.cache_info().maxsize
        for n in range(1, cap + 4):
            hs.gaussian_power(n)
        assert 0 < hs.gaussian_power.cache_info().currsize <= cap
        assert hs.gaussian_power(3) is hs.gaussian_power(3)

    def test_frequency_tail_against_direct_quadrature(self):
        # The fig2 cutoffs sqrt(N) * N**(3/8) / (2*sqrt(2)) at N = 128, 192, 256.
        u = hs.gaussian_power(4)
        for kc in (24.68, 35.18, 45.25):
            expect = gaussian_power_frequency_tail_direct(4, kc, 130.0)
            assert u.frequency_tail(kc) == pytest.approx(expect, rel=1e-8, abs=0.0), kc

    @settings(max_examples=60)
    @given(st.sampled_from([2, 3, 4, 7, 16, 18]), st.floats(0.0, 1.0))
    @example(n=2, t=0.0)
    @example(n=18, t=1.0)
    def test_memoised_panels_match_per_call_sum(self, n, t):
        u = hs.gaussian_power(n)
        kc = t * (gaussian_power_sample_end(u) + 2.0)
        expect = gaussian_power_frequency_tail_per_call(u, kc)
        assert u.frequency_tail(kc) == pytest.approx(expect, rel=1e-14, abs=0.0), kc

    def test_one_head_panel_of_transform_work_per_call(self, monkeypatch):
        u = hs.gaussian_power(4)
        cutoffs = (0.0, 3e-9, 0.3, 5.0, 24.68, 45.25, 100.0)
        for kc in cutoffs:  # builds the blocks these cutoffs need
            u.frequency_tail(kc)
        sizes = []
        real = fourier._panel_integrals
        monkeypatch.setattr(fourier, "_panel_integrals", lambda f, edges: real(
            lambda k: sizes.append(np.size(k)) or f(k), edges))
        for kc in cutoffs:
            del sizes[:]
            u.frequency_tail(kc)
            assert sizes == [16], (kc, sizes)

    @pytest.mark.parametrize("n", [2, 18])
    def test_vanished_transform_gives_zero_and_builds_nothing(self, n):
        assert_zero_tail_without_blocks(hs.gaussian_power(n))

    def test_unresolved_transform_rejected(self, capsys):
        # From n = 19 on |F[u]| is still >= 1e-14 at k = 608, where the
        # sampling stops, so the frequency tails would be wrong.
        for n in (19, 40, 10 ** 6):
            with pytest.raises(ValueError, match=rf"gaussian_power\({n}\)"):
                hs.gaussian_power(n)
        assert cli.main(["sweep", "--function", "gaussian_power(40)", "--n", "8,16",
                         "--schedule", "constant(1)"]) == 3
        assert "gaussian_power(40)" in capsys.readouterr().err

    def test_frequency_tail_beyond_samples(self):
        u = hs.gaussian_power(2)
        assert u.frequency_tail(1e6) == 0.0
        for cutoff in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                u.frequency_tail(cutoff)


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
            if np.iscomplexobj(u.eval_u(np.zeros(1))):
                continue
            for k in (0.5, 1.0, 2.0, 5.0):
                direct = numerical_fourier(u.eval_u, k, 1e-9)
                assert abs(float(u.eval_Fu(k)) - direct) < 1e-6, (u.id, k)

    def test_modulated_gaussian_transform_oracle(self):
        # F[g](xi) = exp(i(k-xi)s) exp(-(xi-k)^2/2); check against the
        # shifted cosine/sine quadrature of the defining integral.
        u = hs.gaussian(1.5, 0.7)
        for xi in (0.0, 1.0, 2.5):
            w = 1.5 - xi
            env = lambda y: np.exp(-np.asarray(y) ** 2 / 2.0)
            cos_part = numerical_fourier(env, w, 1e-11)  # even integrand
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

    def test_derivative_entries(self):
        u = hs.plain_gaussian(1.0)
        du = u.derivative()
        # closed-form tails against the generic adaptive oracle
        for m in (0.0, 1.0, 2.5):
            assert du.spatial_tail(m) == \
                pytest.approx(hs.tail_norm(du.eval_u, m), abs=1e-8)
        # Parseval for the derivative: ||u'|| = ||k F[u]||
        assert abs(du.spatial_tail(0.0) - du.frequency_tail(0.0)) < 1e-8
        with pytest.raises(ValueError):
            hs.gaussian(1.0, 0.0).derivative().derivative()

    @pytest.mark.parametrize("ident, x_end", [("algebraic(1.5)", math.inf),
                                              ("plain_gaussian(1.3)", 40.0),
                                              ("gaussian_power(3)", 4.0)])
    def test_derivative_transforms_carry_their_phase(self, ident, x_end):
        # u is even, so F[u'](k) = -i sqrt(2/pi) int_0^inf u'(x) sin(kx) dx
        # (u' is 0 to rounding beyond x_end), and F[u''] = -k**2 F[u].
        u = catalog_entry(ident)
        du = u.derivative()
        for k in (0.5, 1.0, 2.5, 6.0, 11.0):
            sine = quad(lambda x: float(du.eval_u(x)), 0.0, x_end, weight="sin", wvar=k,
                        epsabs=1e-13, limit=200)[0]
            assert abs(complex(du.eval_Fu(k)) + 1j * math.sqrt(2.0 / math.pi) * sine) < 3e-11, k
            assert complex(du.derivative().eval_Fu(k)) == \
                pytest.approx(-k * k * float(u.eval_Fu(k)), rel=1e-15, abs=0.0), k

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
        st.floats(0.5, 2.0).map(lambda sigma: (hs.plain_gaussian(sigma), 0.5 / (sigma * sigma),
                                               0.0, 0.0)),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
            lambda ks: (hs.gaussian(*ks), 0.5) + ks),
        st.just((hs.gaussian_power(1), 1.0, 0.0, 0.0))),
        st.floats(0.5, 2.0), st.integers(0, 64))
    def test_gaussian_width_is_coefficient_width(self, entry, beta, n_max):
        # exp(-m(x-s)**2 + ikx) in ScaledBasis(N, beta) has the coefficients
        # gaussian_coefficients(k/beta, beta*s, N, m/beta**2) / sqrt(beta).
        u, m, freq, shift = entry
        got = hs.project(u, ScaledBasis(n_max, beta)).values
        expect = hs.gaussian_coefficients(freq / beta, beta * shift, n_max,
                                          m / (beta * beta)) / math.sqrt(beta)
        assert np.abs(got - expect).max() <= 1e-12, u.id

    # (id, m, k) of exp(-m(x-s)**2 + ikx); the gaussian(k,s) cases keep
    # their (k, s) test ids.
    @pytest.mark.parametrize("ident, m, freq", [
        pytest.param("gaussian(0,0)", 0.5, 0.0, id="0.0-0.0"),
        pytest.param("gaussian(1.5,0.7)", 0.5, 1.5, id="1.5-0.7"),
        pytest.param("gaussian(-3,2)", 0.5, -3.0, id="-3.0-2.0"),
        pytest.param("gaussian(0,20)", 0.5, 0.0, id="0.0-20.0"),
        pytest.param("plain_gaussian(0.3)", 0.5 / 0.09, 0.0, id="plain_gaussian(0.3)"),
        pytest.param("plain_gaussian(2.5)", 0.5 / 6.25, 0.0, id="plain_gaussian(2.5)"),
        pytest.param("gaussian_power(1)", 1.0, 0.0, id="gaussian_power(1)"),
    ])
    def test_gaussian_derivative_tails(self, ident, m, freq):
        # Closed forms of u and u' against quadrature of |f|**2 on each side
        # of the cutoff.  Where the true square is not a normal double the
        # closed form reads 0.0 or a value no larger than the true tail.
        u = catalog_entry(ident)
        du = u.derivative()
        a = 2.0 * m  # ||u'||**2 = sqrt(pi/a) (a/2 + k**2)
        assert du.l2_norm == pytest.approx(
            math.sqrt(math.sqrt(math.pi / a) * (0.5 * a + freq * freq)), rel=1e-14)
        for e in (u, du):
            for c in (0.0, 1.0, 2.5, 8.0, 16.1):
                for tail, f in ((e.spatial_tail, e.eval_u), (e.frequency_tail, e.eval_Fu)):
                    sq = lambda x: abs(complex(f(x))) ** 2
                    expect = math.sqrt(
                        quad(sq, c, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                        + quad(sq, -math.inf, -c, epsabs=0.0, epsrel=1e-13, limit=400)[0])
                    if expect ** 2 >= sys.float_info.min:
                        assert tail(c) == pytest.approx(expect, rel=1e-10), (e.id, c, tail)
                    else:
                        assert 0.0 <= tail(c) <= expect * (1.0 + 1e-10), (e.id, c, tail)

    @settings(max_examples=40)
    @given(CATALOG_ENTRIES, st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6))
    def test_tails_monotone_for_every_entry(self, u, cutoffs):
        # For u and each derivative entry: both tails at cutoff 0 are the norm,
        # and neither grows with the cutoff beyond 1e-10 relative, the error
        # allowance of two tail_norm results (each to 1e-11 on the squared
        # integral).  Every tail returns a number, also where the integrand
        # is subnormal at the cutoff.
        cuts = [0.0] + sorted(cutoffs)
        for e in derivative_chain(u):
            assert e.spatial_tail(0.0) == pytest.approx(e.l2_norm, rel=1e-8), e.id
            assert e.frequency_tail(0.0) == pytest.approx(e.l2_norm, rel=1e-8), e.id
            for tail in (e.spatial_tail, e.frequency_tail):
                values = [tail(c) for c in cuts]
                assert all(b <= a * (1.0 + 1e-10) for a, b in zip(values, values[1:])), \
                    (e.id, cuts, values)

    @pytest.mark.parametrize("entry, level, side, cutoffs", [
        ("gaussian_power(1)", 1, "spatial", (27.0,)),
        ("gaussian_power(1)", 1, "frequency", (53.75, 54.0, 54.25)),
        ("gaussian_power(1)", 2, "spatial", (27.0,)),
        ("gaussian_power(1)", 2, "frequency", (53.75, 54.0, 54.25)),
        ("gaussian_power(3)", 0, "spatial", (3.0,)),
        ("gaussian_power(3)", 1, "spatial", (3.0,)),
        ("gaussian_power(3)", 2, "spatial", (3.0,)),
        ("plain_gaussian(0.3)", 2, "spatial", (11.5,)),
        ("plain_gaussian(1)", 2, "spatial", (38.0, 38.25)),
        ("plain_gaussian(1)", 2, "frequency", (38.0, 38.25)),
    ])
    def test_subnormal_tails_return_numbers(self, entry, level, side, cutoffs):
        # Tails whose integrand is subnormal at the cutoff (true values
        # 1e-319 .. 1e-311): it carries fewer bits than tail_norm's relative
        # tolerance asks for, so only the absolute floor lets them converge.
        e = catalog_entry(entry)
        for _ in range(level):
            e = e.derivative()
        tail = getattr(e, side + "_tail")
        for c in cutoffs:
            value = tail(c)
            assert 0.0 <= value < 1e-300, (e.id, side, c, value)
            assert value <= tail(c - 0.25), (e.id, side, c)

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

    def test_gaussian_power_index_type(self):
        # A bool is not an index: True must not build gaussian_power(1).
        for bad in (True, np.True_, False, 2.0):
            with pytest.raises(ValueError):
                hs.gaussian_power(bad)
        two = hs.gaussian_power(np.int64(2))
        assert two.id == hs.gaussian_power(2).id
        x = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(two.eval_u(x), np.exp(-x ** 4))
        assert catalog_entry("gaussian_power(1)").id == hs.gaussian_power(1).id

    def test_algebraic_domain(self):
        # Above h = 30 the transform's K factor overflows near k = 0, so the
        # frequency tail would be inf (h ~ 30.6) or NaN (h = 40).
        hs.algebraic(30.0)
        for h in (30.5, 31.0, 40.0, 86.0, 1e300, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                hs.algebraic(h)
        # The weight sigma**-4 of the u' tails would overflow or underflow.
        for sigma in (math.inf, math.nan, 1e-200, 1e-75, 1e75, 1e200):
            with pytest.raises(ValueError):
                hs.plain_gaussian(sigma)

    @settings(max_examples=60)
    @given(st.floats(0.5, 30.0, exclude_min=True), st.floats(0.0, 1e4))
    def test_algebraic_spatial_tail_matches_betainc(self, h, c):
        # int_c^inf (1+x**2)**(-2h) dx = B(2h-1/2, 1/2) I_{1/(1+c**2)}(2h-1/2, 1/2) / 2;
        # below c = 1 through I_x(a, b) = 1 - I_{1-x}(b, a), where 1 - x is exact.
        a = 2.0 * h - 0.5
        q = 1.0 + c * c
        ratio = (scipy.special.betainc(a, 0.5, 1.0 / q) if c >= 1.0
                 else scipy.special.betaincc(0.5, a, c * c / q))
        half_sq = 0.5 * scipy.special.beta(a, 0.5) * ratio
        assume(half_sq > 1e-150)
        assert hs.algebraic(h).spatial_tail(c) == \
            pytest.approx(math.sqrt(2.0 * half_sq), rel=1e-12, abs=0.0)

    @settings(max_examples=40)
    @given(st.integers(1, 18), st.floats(0.5, 30.0, exclude_min=True),
           st.floats(1e-3, 1e3), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
           st.lists(st.floats(-1e308, 1e308), max_size=16))
    def test_evaluators_finite(self, n, h, sigma, freq, shift, xs):
        # Exact zeros where a value underflows, never inf * 0 or an overflow,
        # for each of the four catalog families, at every finite x.
        x = np.r_[xs, 0.0, 1.0, 90.0, 1.9e6, 2.9e10, -1e12, 1e12, 1e150, 1e155,
                  -1e200, 1e308, -1e308, np.finfo(float).max]
        for u in (hs.gaussian_power(n), hs.algebraic(h), hs.plain_gaussian(sigma),
                  hs.gaussian(freq, shift)):
            for ev in [u.eval_Fu] + [e.eval_u for e in derivative_chain(u)]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert np.all(np.isfinite(ev(x))), (u.id, ev)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fu = u.eval_Fu(np.r_[x, math.nan, 1e300, -1e300])
            assert np.all(np.isfinite(fu[:-3])) and np.isnan(fu[-3]), u.id
            assert fu[-2] == 0.0 and fu[-1] == 0.0, u.id

    def test_gaussian_rejects_non_finite_parameters(self):
        for freq, shift in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                hs.gaussian(freq, shift)

    def test_gaussian_parameter_bound(self):
        # Past |freq| or |shift| = 2**500 a phase can overflow inside the
        # clamp window: gaussian(1e300, 0) gave NaN for u and u' at x = 1e9,
        # where both are 0, and an inf u' norm.
        above = math.nextafter(2.0 ** 500, math.inf)
        for freq, shift in ((1e300, 0.0), (0.0, -1e300), (above, 0.0), (0.0, -above)):
            with pytest.raises(ValueError, match=r"\|freq\|, \|shift\| <= 2\*\*500"):
                hs.gaussian(freq, shift)
        assert cli.main(["transition", "--function", "gaussian", "--h", "1e300"]) == 3

    @settings(max_examples=60)
    @given(st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(0.0, 500.0)),
           st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(0.0, 500.0)),
           st.lists(st.floats(-1e308, 1e308), max_size=8))
    @example((1.0, 500.0), (-1.0, 500.0), [1e9])
    @example((-1.0, 500.0), (1.0, 500.0), [1e308, -np.finfo(float).max])
    def test_gaussian_large_freq_and_shift(self, freq, shift, xs):
        # Up to |freq|, |shift| = 2**500, u, u' and F[u] are finite at every
        # finite x without a warning, and bitwise the unclamped formulas
        # wherever those are finite inside the window |x - s| < 2**500 (0
        # beyond it).
        k, s = (sign * 2.0 ** e for sign, e in (freq, shift))
        x = np.r_[xs, s - 1.5, s, s + 0.5, s + 1e3, 0.0, 1e9, -1e9, 1e308, -1e308]
        xi = np.r_[xs, k - 1.5, k, k + 0.5, k + 50.0, 0.0, 1e9, 1e308, -1e308]
        u = hs.gaussian(k, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [u.eval_u(x), u.derivative().eval_u(x), u.eval_Fu(xi)]
        with np.errstate(all="ignore"):
            g = np.exp(-0.5 * (x - s) ** 2 + 1j * k * x) if k else np.exp(-0.5 * (x - s) ** 2)
            d = np.clip(xi - k, -40.0, 40.0)
            e = -d * d / 2.0
            want = [g, (-(x - s) + 1j * k) * g if k else -(x - s) * g,
                    1.0 * (np.exp(e - 1j * d * s) if s else np.exp(e))]  # scale 1/sqrt(a) = 1
            inside = [np.abs(x - s) < 2.0 ** 500] * 2 + [np.ones(xi.shape, bool)]
        for v, w, window in zip(got, want, inside):
            assert np.all(np.isfinite(v)) and v.dtype == w.dtype, u.id
            same = window & np.isfinite(w)
            assert v[same].tobytes() == w[same].tobytes(), u.id
            assert np.all(v[~window] == 0.0), u.id

    @pytest.mark.parametrize("h", [0.55, 1.0, 1.5, 30.0])
    def test_algebraic_far_field_matches_mpmath(self, h):
        # Beyond |x| = 1e150 u, u' and u'' are within a few ulp of the exact
        # values at the double h, and 0 only where those underflow.
        xs = [math.nextafter(1e150, math.inf), 2.5e150, 1e155, 3e180, 1e200, 1e250,
              1e300, 1e308, np.finfo(float).max]
        x = np.array(xs + [-v for v in xs])
        hm = mpmath.mpf(h)
        exact = [lambda q, t: q ** -hm,
                 lambda q, t: -2 * hm * t * q ** (-hm - 1),
                 lambda q, t: (4 * hm * (hm + 1) * t * t - 2 * hm * q) * q ** (-hm - 2)]
        for entry, f in zip(derivative_chain(hs.algebraic(h)), exact):
            got = entry.eval_u(x)
            for xi, g in zip(x, got):
                with mpmath.workdps(60):
                    t = mpmath.mpf(float(xi))
                    want = float(f(1 + t * t, t))
                if want == 0.0:
                    assert g == 0.0, (entry.id, xi)
                else:
                    assert abs(g - want) <= 4 * np.spacing(abs(want)), (entry.id, xi)

    def test_high_power_entries_usable(self):
        # Both sample eval_du / eval_d2u where x**(2n-1) alone would overflow.
        assert math.isfinite(hs.gaussian_power(18).derivative().l2_norm)
        config = cli.SweepConfig(function="gaussian_power(18)", n_values=(64,),
                                 schedule="constant(0.1)", measure="l2_discrete")
        (record,) = cli.run_sweep(config)
        assert not record.flag and math.isfinite(record.error)

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
