import cmath
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

import hermscale as hs
from hermscale import basis as basis_module
from hermscale import galerkin
from hermscale.basis import (BETA_MAX, BETA_MIN, N_MAX_LIMIT, ScaledBasis,
                             SpectralCoeffs, _hermite_rows, _series)
from hermscale.operators import support_radius

from conftest import gram_matrix_by_quadrature, numerical_fourier, oracle_hermite_rows

PI_M4 = np.pi ** -0.25
_SPLIT_FLOOR = basis_module._SPLIT_MIN_POINTS


class TestHermiteFunctions:
    def test_seed_values_at_zero(self):
        vals = hs.eval_hermite_functions(0.0, 1)
        assert vals[0] == pytest.approx(PI_M4, abs=1e-15)
        assert vals[1] == 0.0

    def test_equal_entries_at_inv_sqrt2(self):
        # sqrt(2)*x = 1 there, so the two seeds coincide.
        x = 1.0 / np.sqrt(2.0)
        vals = hs.eval_hermite_functions(x, 1)
        expected = PI_M4 * np.exp(-0.25)
        assert vals[0] == pytest.approx(expected, rel=1e-14)
        assert vals[1] == pytest.approx(expected, rel=1e-14)

    def test_orthonormality_by_quadrature(self):
        g = gram_matrix_by_quadrature(ScaledBasis(20, 1.0), 21)
        assert np.abs(g - np.eye(21)).max() < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 2.0, 7.0])
    def test_scaled_orthonormality(self, beta):
        g = gram_matrix_by_quadrature(ScaledBasis(10, beta), 11, tol=1e-13)
        assert np.abs(g - np.eye(11)).max() < 1e-10

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 7.0])
    def test_gram_identity_n30(self, beta):
        # Full N=30 Gram through the vectorized integrator: one adaptive
        # pass per row against the whole family.
        from hermscale._integrate import adaptive_quad
        basis = ScaledBasis(30, beta)
        cut = (np.sqrt(61.0) + 16.0) / beta
        dev = 0.0
        for m in range(31):
            def row(x):
                phi = hs.eval_scaled_basis(basis, x)
                return phi * phi[m]
            vals = adaptive_quad(row, np.linspace(-cut, cut, 65), abs_tol=1e-12,
                                 rel_tol=0.0)
            expect = np.zeros(31)
            expect[m] = 1.0
            dev = max(dev, np.abs(vals - expect).max())
        assert dev < 1e-10

    def test_cramers_bound_high_order(self):
        x = np.linspace(-35.0, 35.0, 401)
        vals = hs.eval_hermite_functions(x, 2000)
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() <= 1.0 + 1e-12

    def test_large_argument_rescaled_path(self):
        # Seed underflows at x=60 (~e^-1800) but h_n near its turning point
        # must still come out finite and non-trivial.
        vals = hs.eval_hermite_functions(np.array([60.0]), 1900)
        assert np.all(np.isfinite(vals))
        assert np.abs(vals[:200]).max() == 0.0           # true values < 1e-320
        assert np.abs(vals[1850:]).max() > 1e-8          # oscillatory region

    def test_huge_arguments_quiet(self):
        # The seed's binary exponent would overflow int64 from |x| ~ 4e9 on,
        # x*x from 1e154 on and x*sqrt(2) near the largest double; those
        # columns are exact zeros.
        huge = [4e9, 1e10, 1e154, 1e200, 1e300, -1.7e308]
        x = np.array([0.3, *huge[:3], -5.0, *huge[3:], 38.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = hs.eval_hermite_functions(x, 40)
        assert np.array_equal(vals[:, [1, 2, 3, 5, 6, 7]], np.zeros((41, 6)))
        for j in (0, 4, 8):
            assert np.array_equal(vals[:, j], hs.eval_hermite_functions(x[j], 40))

    @given(near=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4),
           far=st.lists(st.floats(40.0, 70.0), min_size=1, max_size=3),
           n_max=st.integers(0, 1200))
    def test_columns_independent_of_batch(self, near, far, n_max):
        # Points whose seed underflows (|x| > 40) share a batch with
        # ordinary ones; no column may depend on its neighbours.
        x = np.array(near + [-f for f in far] + far)
        batch = hs.eval_hermite_functions(x, n_max)
        for j, xj in enumerate(x):
            single = hs.eval_hermite_functions(xj, n_max)
            assert np.array_equal(batch[:, j], single)

    def test_against_high_precision_recurrence(self):
        # Independent 60-digit recurrence.  Near a zero of h_n no double
        # recurrence is accurate relative to |h_n| itself, so the error is
        # measured against the pair norm sqrt(h_{n-1}**2 + h_n**2), the
        # local size of the recurrence's solution, which never vanishes.
        xs = [0.3, 5.0, 20.0, 36.0, 38.7, 60.0]
        n_max = 1900
        got = hs.eval_hermite_functions(np.array(xs), n_max)
        with mpmath.workdps(60):
            for j, x in enumerate(xs):
                t = mpmath.mpf(x)
                prev = mpmath.mpf(0)
                cur = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-t * t / 2)
                for n in range(n_max + 1):
                    if abs(cur) > mpmath.mpf("1e-290"):
                        pair = mpmath.sqrt(prev * prev + cur * cur)
                        assert abs(got[n, j] - cur) <= 1e-12 * pair, (x, n)
                    prev, cur = cur, (t * mpmath.sqrt(mpmath.mpf(2) / (n + 1)) * cur
                                      - mpmath.sqrt(mpmath.mpf(n) / (n + 1)) * prev)

    def test_vector_shape(self):
        x = np.linspace(-2, 2, 7).reshape(7)
        assert hs.eval_hermite_functions(x, 5).shape == (6, 7)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hs.eval_hermite_functions(np.nan, 3)
        with pytest.raises(ValueError):
            hs.eval_hermite_functions(0.0, -1)
        with pytest.raises(ValueError):
            hs.eval_hermite_functions(0.0, 100_001)


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# Point classes of the recurrence: true-value seeds, seeds that underflow
# (|x| > ~37.6), the range up to the int64 clamp of the seed's exponent
# (~2.5e9), the limit of the fixed 8-row rescale test (~3.7e19) and the clip.
KERNEL_POINTS = st.one_of(
    st.floats(-30.0, 30.0),
    signed(st.floats(37.0, 60.0)),
    signed(st.floats(60.0, 4e9)),
    st.sampled_from([3.7e19, -3.7e19, 1e150, -1e150]))


class TestRowKernel:
    @settings(max_examples=60)
    @given(x=st.lists(KERNEL_POINTS, max_size=12), n_max=st.integers(0, 2000))
    @example(x=[], n_max=0)
    @example(x=[], n_max=5)
    @example(x=[0.5, -41.0], n_max=0)
    @example(x=[0.5, -41.0], n_max=1)
    @example(x=[-1e150, 3.7e19, 2.5e9, -57.3, 38.0, 12.0, 0.0], n_max=2000)
    @example(x=[1e150, -3.7e19], n_max=40)  # every seed exactly 0
    def test_rows_bitwise_equal_to_oracle(self, x, n_max):
        x = np.array(x, dtype=float)
        got = [row.copy() for row in _hermite_rows(x, n_max)]
        expected = list(oracle_hermite_rows(x, n_max))
        assert len(got) == len(expected) == n_max + 1
        for n, (row, want) in enumerate(zip(got, expected)):
            assert row.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("x", [np.linspace(-30.0, 30.0, 61),
                                   np.r_[np.linspace(-30.0, 30.0, 11), 40.0, -57.3, 1e150]])
    def test_row_valid_until_two_more_drawn(self, x):
        # Row n is held while row n+1 is drawn: that must leave it intact.
        n_max = 1500
        rows = _hermite_rows(x, n_max)
        held = next(rows)
        for n, want in enumerate(oracle_hermite_rows(x, n_max - 1)):
            following = next(rows)
            assert held.tobytes() == want.tobytes(), n
            held = following


class TestScaledBasis:
    def test_beta_one_reduces_to_hermite(self):
        basis = ScaledBasis(1, 1.0)
        assert np.allclose(hs.eval_scaled_basis(basis, 0.0),
                           hs.eval_hermite_functions(0.0, 1))

    def test_sqrt_beta_factor_at_origin(self):
        assert hs.eval_scaled_basis(ScaledBasis(0, 4.0), 0.0)[0] == \
            pytest.approx(2.0 * PI_M4, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaledBasis(-1, 1.0)
        with pytest.raises(ValueError):
            ScaledBasis(4, 0.0)
        with pytest.raises(ValueError):
            ScaledBasis(4, np.inf)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bool_is_not_an_index(self, flag):
        # One index guard serves every n_max check; True would otherwise
        # build a basis of size 2.
        for build in (lambda n: ScaledBasis(n, 1.0), hs.compute_grid,
                      lambda n: hs.eval_hermite_functions(0.5, n),
                      lambda n: hs.gaussian_coefficients(1.0, 0.0, n)):
            with pytest.raises(ValueError):
                build(flag)

    def test_index_stored_as_int(self):
        basis = ScaledBasis(np.int64(7), 1.0)
        assert type(basis.n_max) is int and basis == ScaledBasis(7, 1.0)

    def test_beta_range(self):
        # Inside the range beta**2 * N and sqrt(N) / beta stay finite and normal.
        for beta in (BETA_MIN, BETA_MAX):
            diag, offdiag2 = galerkin.assemble(ScaledBasis(N_MAX_LIMIT, beta), 1.0)
            assert np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag2))
            assert abs(offdiag2[0]) >= np.finfo(float).tiny
        for beta in (1e155, 1e-160, 1.0001 * BETA_MAX, 0.9999 * BETA_MIN,
                     -1.0, np.nan):
            with pytest.raises(ValueError):
                ScaledBasis(4, beta)

    @pytest.mark.parametrize("beta", [1e100, 1e50])
    def test_overflowing_scaled_points_give_zeros(self, beta):
        # beta*x overflows at the finite points +-1e300 and +-1e260, and is
        # beta at 1.0; h_n is 0 in double precision at all of them, so both
        # evaluators return exact zeros, without a warning.
        basis = ScaledBasis(4, beta)
        x = np.array([1e300, -1e300, 1e260, -1e260, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = hs.eval_scaled_basis(basis, x)
            summed = hs.synthesize(SpectralCoeffs(basis, np.arange(1.0, 6.0)), x)
        assert np.array_equal(values, np.zeros((5, 5)))
        assert np.array_equal(summed, np.zeros(5))


class TestSynthesize:
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_matches_basis_matrix(self, complex_coeffs):
        rng = np.random.default_rng(12)
        basis = ScaledBasis(400, 0.8)
        c = rng.standard_normal(401)
        if complex_coeffs:
            c = c + 1j * rng.standard_normal(401)
        coeffs = SpectralCoeffs(basis, c)
        # Spans the support window, including points whose seed underflows.
        x = np.linspace(-support_radius(basis), support_radius(basis), 777)
        expected = c @ hs.eval_scaled_basis(basis, x)
        got = hs.synthesize(coeffs, x)
        assert got.dtype == expected.dtype
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(c).sum()

    def test_scalar_point_gives_0d(self):
        coeffs = SpectralCoeffs(ScaledBasis(3, 2.0), np.array([1.0, 0.5, 0, 2]))
        got = hs.synthesize(coeffs, 0.4)
        assert got.shape == ()
        expected = coeffs.values @ hs.eval_scaled_basis(coeffs.basis, 0.4)
        assert abs(got - expected) <= 1e-13 * np.abs(coeffs.values).sum()

    @settings(max_examples=40)
    @given(n_max=st.integers(0, 300), extra=st.integers(0, 600),
           under=st.integers(1, 300), columns=st.sampled_from([None, 2]),
           complex_coeffs=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_split_series_bitwise_equal_to_oracle(self, n_max, extra, under, columns,
                                                  complex_coeffs, seed):
        # A batch above the split floor with both seed classes interleaved:
        # the two gathered passes must give the even- and odd-index sums of
        # one accumulation by parity over the reference rows, bit for bit,
        # for each column.
        rng = np.random.default_rng(seed)
        far = np.r_[rng.uniform(37.7, 60.0, under), rng.uniform(60.0, 4e9, under),
                    [1e150, 3.7e19]] * rng.choice([-1.0, 1.0], 2 * under + 2)
        x = rng.permutation(np.r_[rng.uniform(-37.0, 37.0, _SPLIT_FLOOR + extra), far])
        shape = (n_max + 1,) if columns is None else (n_max + 1, columns)
        c = rng.standard_normal(shape)
        if complex_coeffs:
            c = c + 1j * rng.standard_normal(shape)
        got = _series(c, x)
        for j, col in enumerate([c] if columns is None else c.T):
            want = np.zeros((2, x.size), dtype=col.dtype)
            for n, (cn, row) in enumerate(zip(col, oracle_hermite_rows(x, n_max))):
                want[n % 2] += cn * row
            assert (got if columns is None else got[:, j]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("points, passes", [
        (np.r_[np.linspace(-37.0, 37.0, _SPLIT_FLOOR), 40.0], 2),  # mixed, above
        (np.r_[np.linspace(-37.0, 37.0, _SPLIT_FLOOR - 1), 40.0], 1),  # below
        (np.linspace(-37.0, 37.0, 2 * _SPLIT_FLOOR), 1),  # all normal
    ])
    def test_split_floor(self, points, passes, monkeypatch):
        calls = []

        def counting(x, n_max):
            calls.append(x.size)
            return _hermite_rows(x, n_max)

        monkeypatch.setattr(basis_module, "_hermite_rows", counting)
        _series(np.ones(4), points)
        assert len(calls) == passes and sum(calls) == points.size

    def test_memory_independent_of_truncation(self):
        # The full basis matrix here would be 1025 x 31000 doubles (254 MB).
        n = 1024
        basis = ScaledBasis(n, 30.0 / np.sqrt(n))
        coeffs = SpectralCoeffs(basis, np.random.default_rng(1).standard_normal(n + 1))
        x = np.linspace(-support_radius(basis), support_radius(basis), 31_000)
        tracemalloc.start()
        try:
            hs.synthesize(coeffs, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestDerivativeMatrix:
    def test_n0_column(self):
        d = hs.derivative_matrix(ScaledBasis(0, 1.0))
        assert d.shape == (2, 1)
        assert d[0, 0] == 0.0
        assert d[1, 0] == pytest.approx(-np.sqrt(0.5), rel=1e-15)

    def test_beta_scales_linearly(self):
        d1 = hs.derivative_matrix(ScaledBasis(7, 1.0))
        d2 = hs.derivative_matrix(ScaledBasis(7, 2.0))
        assert np.allclose(d2, 2.0 * d1)

    @settings(max_examples=30)
    @given(st.integers(0, 400), st.floats(-2.0, 2.0), st.integers(0, 2 ** 32 - 1))
    @example(n=16, log10_beta=np.log10(1.3), seed=7)
    def test_against_finite_differences(self, n, log10_beta, seed):
        # Central differences of the synthesized series at points inside the
        # turning points; the step follows the fastest oscillation
        # beta*sqrt(2N+1), so the O(h**2) error stays near 1e-9 relative.
        rng = np.random.default_rng(seed)
        basis = ScaledBasis(n, 10.0 ** log10_beta)
        c = SpectralCoeffs(basis, rng.standard_normal(n + 1))
        dc = hs.differentiate(c)
        omega = basis.beta * np.sqrt(2.0 * n + 1.0)
        x = rng.uniform(-1.0, 1.0, 20) * np.sqrt(2.0 * n + 1.0) / basis.beta
        h = 1e-4 / omega
        fd = (hs.synthesize(c, x + h) - hs.synthesize(c, x - h)) / (2.0 * h)
        exact = hs.synthesize(dc, x)
        assert np.abs(fd - exact).max() / np.abs(exact).max() < 1e-6

    @pytest.mark.parametrize("n", [0, 1, 2, 64, 1000])
    @pytest.mark.parametrize("beta", [1e-3, 1.3, 1e3])
    def test_differentiate_is_matrix_product(self, n, beta):
        rng = np.random.default_rng(n)
        basis = ScaledBasis(n, beta)
        for c in (rng.standard_normal(n + 1),
                  rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)):
            got = hs.differentiate(SpectralCoeffs(basis, c))
            expect = hs.derivative_matrix(basis) @ c
            assert got.basis == ScaledBasis(n + 1, beta)
            assert np.abs(got.values - expect).max() <= 1e-15 * np.abs(expect).max()

    def test_differentiate_memory_linear(self):
        # derivative_matrix(ScaledBasis(4000)) alone is 128 MB.
        basis = ScaledBasis(4000, 1.0)
        c = SpectralCoeffs(basis, np.random.default_rng(3).standard_normal(4001))
        tracemalloc.start()
        try:
            hs.differentiate(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("n", [1, 7, 50, 200])
    def test_singular_value_bound(self, n):
        d = hs.derivative_matrix(ScaledBasis(n, 1.0))
        assert np.linalg.svd(d, compute_uv=False)[0] <= np.sqrt(2.0 * (n + 1))


def closed_form_m_half(freq, shift, n_max):
    """The m = 1/2 closed form c_n = pi**(1/4) exp(-z**2/4 - s**2/2) *
    (i z)**n / sqrt(2**n n!), z = k - i s, one ratio at a time."""
    z = freq - 1j * shift
    c = np.empty(n_max + 1, dtype=complex)
    c[0] = np.pi ** 0.25 * np.exp(-z * z / 4.0 - shift ** 2 / 2.0)
    for n in range(n_max):
        c[n + 1] = c[n] * (1j * z) / np.sqrt(2.0 * (n + 1))
    return c


def true_value_recurrence(freq, shift, n_max, m):
    """The coefficient recurrence run on true values from the seed size
    exp(-(2ms**2 + k**2/a)/(4a)) as a double, and that size."""
    a = m + 0.5
    r = m / a
    c = np.zeros(n_max + 1, dtype=complex)
    size = math.exp(-(2.0 * r * shift * shift + freq * freq / a) / 4.0)
    c[0] = math.pi ** 0.25 / math.sqrt(a) * size * cmath.exp(1j * r * shift * freq)
    p, q = complex(2.0 * r * shift, freq / a), (0.5 - m) / a
    prev = 0.0
    for n in range(n_max):
        prev, c[n + 1] = c[n], (c[n] * p / math.sqrt(2.0 * (n + 1))
                                + q * math.sqrt(n / (n + 1)) * prev)
    return c, size


class TestGaussianCoefficients:
    def test_pure_gaussian_hits_first_mode(self):
        c = hs.gaussian_coefficients(0.0, 0.0, 5)
        assert c[0] == pytest.approx(np.pi ** 0.25, rel=1e-15)
        assert np.abs(c[1:]).max() == 0.0

    def test_matches_recurrence_at_m_half(self):
        # At the matched width the recurrence is the one-term closed form, to
        # 1e-14 relative wherever the coefficient is well above subnormal.
        # Both round the seed's exponent -(k**2 + s**2)/4 to a double, in
        # different steps: where s**2 is inexact they may differ by that
        # rounding too, |exponent| * 2**-51 (3.5e-14 at k = 30, s = 5.9).
        for shift, exact_square in ((0.0, True), (3.0, True), (-8.0, True),
                                    (0.37, False), (-1.3, False), (5.9, False)):
            for freq in (0.0, 1.0, 10.0, -13.0, 17.3, 30.0):
                rounding = 0.0 if exact_square else (freq ** 2 + shift ** 2) / 4.0 * 2.0 ** -51
                tol = 1e-14 + rounding
                c = hs.gaussian_coefficients(freq, shift, 4000)
                closed = closed_form_m_half(freq, shift, 4000)
                normal = np.abs(closed) > 2.0 ** -1000
                assert np.array_equal(normal, np.abs(c) > 2.0 ** -1000)
                rel = np.abs(c[normal] - closed[normal]) / np.abs(closed[normal])
                assert rel.max() < tol, (freq, shift)
                assert np.abs(c[~normal]).max(initial=0.0) < 2.0 ** -990

    def test_norm_parseval(self):
        # ||exp(-m (x-s)**2 + i k x)||**2 = sqrt(pi / (2m)).
        for m in (0.2, 0.5, 1.5, 3.0):
            c = hs.gaussian_coefficients(2.0, 1.0, 400, m)
            total = np.sum(np.abs(c) ** 2)
            assert total == pytest.approx(np.sqrt(np.pi / (2.0 * m)), abs=1e-12), m

    @pytest.mark.parametrize("shift", [0.0, 3.0])
    @pytest.mark.parametrize("freq", [54.0, 60.0, 80.0])
    def test_parseval_past_seed_underflow(self, freq, shift):
        # The seed's size exp(-(k**2 + s**2)/4) is subnormal or zero here; the
        # mass sits near n ~ (k**2 + s**2)/2, well inside N = 4000.
        total = np.sum(np.abs(hs.gaussian_coefficients(freq, shift, 4000)) ** 2)
        assert total == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    @settings(max_examples=100)
    @given(st.floats(-80.0, 80.0), st.floats(-10.0, 10.0))
    def test_parseval_at_matched_width(self, freq, shift):
        # sum |c_n|**2 = ||exp(-(x-s)**2/2 + ikx)||**2 = sqrt(pi) at m = 1/2;
        # the mass sits near n ~ (k**2 + s**2)/2 <= 3250, well inside N = 4000.
        # Allowance: 1.5e-14 for the recurrence and the sum (the largest
        # deviation where k**2 and s**2 are exact, over integer k and s in
        # the box, is 1.47e-14), plus the seed's exponent L = (k**2 + s**2)/4,
        # rounded once: k*k, s*s and their sum each carry 2**-53 relative, so
        # L is off by up to 2L * 2**-53, the seed's factor exp(-L) by as much
        # relative, and sum |c_n|**2, which scales as its square, by L * 2**-51.
        total = np.sum(np.abs(hs.gaussian_coefficients(freq, shift, 4000)) ** 2)
        allowance = 1.5e-14 + (freq ** 2 + shift ** 2) / 4.0 * 2.0 ** -51
        assert abs(total - math.sqrt(math.pi)) <= allowance * math.sqrt(math.pi)

    @given(st.floats(-50.0, 50.0), st.floats(-10.0, 10.0), st.floats(0.0, 4.0),
           st.integers(0, 300))
    def test_normal_seed_runs_on_true_values(self, freq, shift, m, n_max):
        expected, size = true_value_recurrence(freq, shift, n_max, m)
        assume(size >= np.finfo(float).tiny)
        got = hs.gaussian_coefficients(freq, shift, n_max, m)
        assert got.tobytes() == expected.tobytes()

    def test_no_overflow_at_high_order(self):
        for m in (0.0, 0.5, 3.0):
            c = hs.gaussian_coefficients(30.0, 0.0, 4000, m)
            assert np.all(np.isfinite(c.view(float)))
        # Seeds that underflow give exact zeros, not NaN.
        for freq, shift, m in ((1e200, 0.0, 0.5), (1.0, 1e300, 2.0), (1e300, 1e300, 1e300)):
            assert np.abs(hs.gaussian_coefficients(freq, shift, 8, m)).max() == 0.0

    def test_index_limit(self):
        for bad in (N_MAX_LIMIT + 1, -1, 2.0):
            with pytest.raises(ValueError):
                hs.gaussian_coefficients(1.0, 0.0, bad)
        for freq, shift, m in ((np.nan, 0.0, 0.5), (1.0, np.inf, 0.5),
                               (1.0, 0.0, -0.1), (1.0, 0.0, np.inf), (1.0, 0.0, np.nan)):
            with pytest.raises(ValueError):
                hs.gaussian_coefficients(freq, shift, 4, m)


class TestCoefficientRecurrence:
    def test_m_half_k_zero_collapses(self):
        c = hs.gaussian_coefficients(0.0, 0.0, 10, 0.5)
        assert np.abs(c[1:]).max() == 0.0
        # Any other width keeps the even modes of an even function only.
        c = hs.gaussian_coefficients(0.0, 0.0, 10, 1.5)
        assert np.abs(c[1::2]).max() == 0.0 and np.abs(c[::2]).min() > 0.0

    def test_m_zero_gives_plane_wave_coefficients(self):
        # At m = 0 the function is exp(i k x) whatever the shift.
        k = 1.3
        h = hs.eval_hermite_functions(k, 8)
        expected = 1j ** np.arange(9) * np.sqrt(2.0 * np.pi) * h
        for shift in (0.0, 2.0):
            c = hs.gaussian_coefficients(k, shift, 8, 0.0)
            assert np.abs(c - expected).max() < 1e-13

    def test_closed_form_cross_check(self):
        # Shifted Gaussians away from the matched width against adaptive
        # quadrature of u * h_n.
        n_max = 30
        for m, freq, shift in ((0.2, 1.0, 0.7), (1.5, 2.5, -1.2), (3.0, 4.0, 0.4),
                               (0.05, -0.5, 2.0)):
            c = hs.gaussian_coefficients(freq, shift, n_max, m)
            ref, _ = quad_vec(lambda x: np.exp(-m * (x - shift) ** 2 + 1j * freq * x)
                              * hs.eval_hermite_functions(x, n_max),
                              -40.0, 40.0, epsabs=1e-15, epsrel=1e-14, points=[shift])
            assert np.abs(c - ref).max() < 1e-13, (m, freq, shift)

    @pytest.mark.parametrize("m", [0.0, 0.2, 1.5, 3.0])
    def test_unshifted_three_term_recurrence(self, m):
        # At s = 0: c_{n+1} = ik/(2m+1) sqrt(2/(n+1)) c_n
        #                     - (2m-1)/(2m+1) sqrt(n/(n+1)) c_{n-1}.
        k, n = 3.0, np.arange(1, 60)
        c = hs.gaussian_coefficients(k, 0.0, 60, m)
        rhs = (1j * k / (2 * m + 1) * np.sqrt(2.0 / (n + 1)) * c[1:-1]
               - (2 * m - 1) / (2 * m + 1) * np.sqrt(n / (n + 1)) * c[:-2])
        assert np.abs(c[2:] - rhs).max() < 1e-14 * np.abs(c).max()


class TestFourierDuality:
    def test_ground_mode_self_dual(self):
        c = SpectralCoeffs(ScaledBasis(3, 1.0), np.array([1.0, 0, 0, 0]))
        d = hs.fourier_dual_coeffs(c)
        assert d.basis.beta == 1.0
        assert np.abs(d.values - np.array([1, 0, 0, 0])).max() == 0.0

    def test_first_mode_picks_up_minus_i(self):
        c = SpectralCoeffs(ScaledBasis(1, 1.0), np.array([0.0, 1.0]))
        d = hs.fourier_dual_coeffs(c)
        assert d.values[1] == pytest.approx(-1j, abs=0)

    def test_involution_is_parity(self):
        rng = np.random.default_rng(3)
        c = SpectralCoeffs(ScaledBasis(12, 2.5), rng.standard_normal(13))
        dd = hs.fourier_dual_coeffs(hs.fourier_dual_coeffs(c))
        assert dd.basis.beta == pytest.approx(2.5, rel=1e-15)
        parity = (-1.0) ** np.arange(13)
        assert np.abs(dd.values - parity * c.values).max() < 1e-15

    def test_four_applications_identity(self):
        rng = np.random.default_rng(4)
        c = SpectralCoeffs(ScaledBasis(9, 0.7), rng.standard_normal(10))
        out = c
        for _ in range(4):
            out = hs.fourier_dual_coeffs(out)
        assert out.basis.beta == pytest.approx(0.7, rel=1e-15)
        assert np.abs(out.values - c.values).max() < 1e-15

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        c = SpectralCoeffs(ScaledBasis(20, 1.9), rng.standard_normal(21))
        assert hs.fourier_dual_coeffs(c).norm == pytest.approx(c.norm, rel=1e-15)

    def test_against_numerical_transform(self):
        # Expand exp(-x^2/2) in the beta=2 basis, push the coefficients
        # through the duality map, and compare the synthesized transform with
        # a numerical Fourier transform of the synthesized original.
        u = hs.gaussian(0.0, 0.0)
        basis = ScaledBasis(24, 2.0)
        coeffs = hs.project(u, basis, tol=1e-12)
        real_coeffs = SpectralCoeffs(basis, coeffs.values.real)
        dual = hs.fourier_dual_coeffs(real_coeffs)
        dual_real = SpectralCoeffs(dual.basis, dual.values.real)

        def synth_u(x):
            return hs.synthesize(real_coeffs, np.asarray(x, dtype=float))

        for k in (0.0, 1.0, -1.0, 2.0, -2.0):
            direct = numerical_fourier(synth_u, k, tol=1e-11)
            via_duality = float(hs.synthesize(dual_real, np.asarray(k)))
            assert abs(direct - via_duality) < 1e-8


class TestSpectralCoeffs:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            SpectralCoeffs(ScaledBasis(3, 1.0), np.zeros(3))

    def test_finiteness_checked(self):
        with pytest.raises(ValueError):
            SpectralCoeffs(ScaledBasis(1, 1.0), np.array([1.0, np.nan]))
