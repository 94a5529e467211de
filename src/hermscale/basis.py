"""Orthonormal Hermite functions and scaled bases.

The basis elements are the L2-normalized Hermite functions

    h_0(x) = pi**(-1/4) * exp(-x**2/2),
    h_1(x) = sqrt(2) * pi**(-1/4) * x * exp(-x**2/2),
    h_{n+1}(x) = x*sqrt(2/(n+1))*h_n(x) - sqrt(n/(n+1))*h_{n-1}(x),

and their rescalings phi_n(x) = sqrt(beta) * h_n(beta*x), which remain
orthonormal for every beta > 0.  Everything is evaluated through the
function recurrence (never via Hermite polynomials times a Gaussian, which
overflows long before n ~ 300).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

N_MAX_LIMIT = 100_000
# Supported scaling factors: beta**2, N * beta**2 and sqrt(N) / beta stay
# finite and normal for every N up to N_MAX_LIMIT.
BETA_MIN, BETA_MAX = 1e-100, 1e100

_PI_M4 = np.pi ** -0.25
_LN2 = np.log(2.0)
# ln 2 = _LN2_HI + _LN2_LO with 21 trailing zero bits in _LN2_HI, so
# e * _LN2_HI is exact for |e| < 2**21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# Seed-relative values above 2**_RESCALE_BITS (Hermite rows: 2**_ROW_LIMIT_BITS,
# tested every few rows) are divided by 2**_RESCALE_BITS; that is exact.
_RESCALE_BITS, _ROW_LIMIT_BITS = 600, 500
_RESCALE = 2.0 ** _RESCALE_BITS
_UNSCALE = 2.0 ** -_RESCALE_BITS
# Every h_n, n <= N_MAX_LIMIT, underflows to 0 beyond |x| ~ 1e3; clipping x
# to +-_X_CLIP keeps x*x finite.
_X_CLIP = 1e150
# _series splits a batch by seed class from this many normal seeds on.  Best of
# 9 calls, 2-vCPU Xeon, split / one pass: N = 1024, 15,480 points (10,174
# normal), 57-59 / 62-63 ms; N = 512, 7,800 points (6,668 normal), 14-15 / 16-17
# ms, with two columns 25 / 23 ms.
_SPLIT_MIN_POINTS = 4096
# Rows per block of project's integrand (a working set of _BLOCK_ROWS * 15
# values per panel, whatever N) and of _transform's contractions; it groups
# the terms of each coefficient, so changing it changes their last bits.
_BLOCK_ROWS = 16


def _check_index(n_max, limit: int = N_MAX_LIMIT) -> int:
    """n_max as an int, after checking that it is a non-bool integer in [0, limit]."""
    if (not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool)
            or not 0 <= n_max <= limit):
        raise ValueError(f"n_max must be an integer in [0, {limit}], got {n_max}")
    return int(n_max)


@dataclass(frozen=True)
class ScaledBasis:
    """Truncated scaled Hermite basis: elements phi_0 .. phi_{n_max}."""

    n_max: int
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_max", _check_index(self.n_max))
        if not BETA_MIN <= self.beta <= BETA_MAX:
            raise ValueError(f"beta={self.beta} at N={self.n_max} is outside "
                             f"[{BETA_MIN:g}, {BETA_MAX:g}]")

    @property
    def size(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class SpectralCoeffs:
    """Coefficient vector of a function expanded in a ScaledBasis.

    values[n] multiplies phi_n.  Real for the main pipeline; the Fourier
    duality map is the one operation that produces complex entries.
    """

    basis: ScaledBasis
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size != self.basis.size:
            raise ValueError(
                f"coefficient vector must have length {self.basis.size}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("coefficient vector contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        """L2 norm of the represented function (basis is orthonormal)."""
        return float(np.linalg.norm(self.values))


def _points(x, beta: float = 1.0) -> np.ndarray:
    """beta*x at finite points x, clipped to +-_X_CLIP.  A product that
    overflows is clipped too: every h_n is an exact 0 there."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    with np.errstate(over="ignore"):
        return np.clip(beta * x, -_X_CLIP, _X_CLIP)


def _hermite_rows(x: np.ndarray, n_max: int):
    """Yield the rows h_0(x), h_1(x), ..., h_{n_max}(x) for a 1-d array x.

    The one implementation of the recurrence; O(x.size) memory.  Points whose
    Gaussian seed is a normal double run on true values.  The others run on
    v_n = h_n(x) * 2**-e with a per-point exponent e, raised in exact
    power-of-two rescales, and are emitted as (v_n * 2**(e+B)) * 2**-B, which
    is correctly rounded wherever h_n(x) is a normal double.  Every value
    depends on its own point only, not on the rest of the batch.  Rows are
    computed in place on rotating buffers: a yielded row stays valid until two
    more rows are drawn, and must not be written to.
    """
    x = np.clip(x, -_X_CLIP, _X_CLIP)
    cur = _PI_M4 * np.exp(-0.5 * x * x)
    scale = None
    under = cur < np.finfo(float).tiny
    if under.any():
        ls = -0.5 * x[under] ** 2 - 0.25 * np.log(np.pi)
        exponent = np.zeros(x.shape, dtype=np.int64)
        # Clamped to fit int64 (from |x| ~ 4e9 on); 2**-2**62 is 0 anyway.
        exponent[under] = np.maximum(np.floor(ls / _LN2), -2.0 ** 62)
        cur[under] = np.exp(ls - exponent[under] * _LN2)
        # 2**(e+B): exactly 2**B for the true-value points.
        scale = np.ldexp(1.0, exponent + _RESCALE_BITS)
        out = (np.empty_like(x), np.empty_like(x))
        # A row is at most sqrt(2)|x| + 1 times the larger of the two before
        # it: tested every `every` rows, none exceeds 2**(_ROW_LIMIT_BITS + 523).
        # Rows of a point whose seed is exactly 0 stay 0 and do not count.
        growth = math.log2(math.sqrt(2.0) * np.abs(x[cur != 0]).max(initial=1.0) + 1.0)
        every = max(1, min(8, int((1023 - _ROW_LIMIT_BITS) / growth)))

    def emit(n, v):  # into output buffer n % 2, as (v * 2**(e+B)) * 2**-B
        return np.multiply(np.multiply(v, scale, out=out[n % 2]), _UNSCALE, out=out[n % 2])

    steps = np.arange(1.0, n_max + 1.0)
    a, b = np.sqrt(2.0 / steps).tolist(), np.sqrt((steps - 1.0) / steps).tolist()
    prev, new = np.zeros_like(x), np.empty_like(x)
    yield cur if scale is None else emit(0, cur)
    for n in range(n_max):
        if scale is not None and n % every == 0:  # `new` is free scratch here
            big = (np.maximum(np.abs(prev, out=new), np.abs(cur), out=new)
                   > 2.0 ** _ROW_LIMIT_BITS)
            if big.any():
                prev[big] *= _UNSCALE
                cur[big] *= _UNSCALE
                exponent[big] += _RESCALE_BITS
                scale[big] = np.ldexp(1.0, exponent[big] + _RESCALE_BITS)
        # ((x * a_n) * h_n) - (b_n * h_{n-1}), the row before last overwritten.
        np.multiply(x, a[n], out=new)
        new *= cur
        prev *= b[n]
        new -= prev
        prev, cur, new = cur, new, prev
        yield cur if scale is None else emit(n + 1, cur)


def eval_hermite_functions(x, n_max: int) -> np.ndarray:
    """Values h_0(x) .. h_{n_max}(x) by upward recurrence.

    Returns shape (n_max+1,) + shape(x), filled row by row from the one
    streaming recurrence (per-point scaling where the Gaussian seed
    underflows, |x| > ~37.6), so each column equals the evaluation at that
    point alone and stays correct for any n within the guard limit.
    """
    _check_index(n_max)
    x = _points(x)
    xv = np.atleast_1d(x).ravel()
    out = np.empty((n_max + 1, xv.size))
    for n, row in enumerate(_hermite_rows(xv, n_max)):
        out[n] = row
    return out.reshape((n_max + 1,) + x.shape)


def eval_scaled_basis(basis: ScaledBasis, x) -> np.ndarray:
    """Values phi_0(x) .. phi_N(x) with phi_n(x) = sqrt(beta)*h_n(beta*x)."""
    return np.sqrt(basis.beta) * eval_hermite_functions(_points(x, basis.beta), basis.n_max)


def synthesize(coeffs: SpectralCoeffs, x) -> np.ndarray:
    """Evaluate the represented function sum_n c_n phi_n at points x.

    Accumulates over the streamed basis rows, so memory is O(size of x)
    whatever the truncation index; a scalar x gives a 0-d array.
    """
    beta = coeffs.basis.beta
    bx = _points(x, beta)
    return (np.sqrt(beta) * _series(coeffs.values, bx.ravel()).sum(axis=0)).reshape(bx.shape)


def _series(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n c[n] * h_n(x) at a 1-d array x over streamed rows, one sum per
    column of a 2-d c, as its even- and odd-index parts stacked on a new first
    axis: by h_n(-x) = (-1)**n h_n(x), their sum is the series at x and their
    difference the series at -x.  A large batch with normal and underflowing
    seeds runs as two gathered passes, so the normal points skip the rescaled
    arithmetic; each value depends on its own point only, bit for bit."""
    normal = _PI_M4 * np.exp(-0.5 * x * x) >= np.finfo(float).tiny
    acc = np.zeros((2,) + c.shape[1:] + x.shape, dtype=np.result_type(c, float))
    if _SPLIT_MIN_POINTS <= np.count_nonzero(normal) < x.size:
        acc[..., normal] = _series(c, x[normal])
        acc[..., ~normal] = _series(c, x[~normal])
        return acc
    term = np.empty_like(acc[0])
    rows = _hermite_rows(x, len(c) - 1)
    for n, (cn, row) in enumerate(zip(c if c.ndim == 1 else c[:, :, None], rows)):
        acc[n % 2] += np.multiply(cn, row, out=term)
    return acc


def _derivative_band(beta: float, size: int) -> np.ndarray:
    """beta*sqrt((n+1)/2), n < size: both diagonals of derivative_matrix."""
    return beta * np.sqrt(np.arange(1, size + 1) / 2.0)


def derivative_matrix(basis: ScaledBasis) -> np.ndarray:
    """Matrix mapping coefficients in `basis` to coefficients of the derivative.

    phi_n' = beta*(sqrt(n/2)*phi_{n-1} - sqrt((n+1)/2)*phi_{n+1}), so D has
    shape (N+2, N+1) with D[n-1, n] = beta*sqrt(n/2) and
    D[n+1, n] = -beta*sqrt((n+1)/2); the output lives in ScaledBasis(N+1, beta).
    """
    band = _derivative_band(basis.beta, basis.size)
    d = np.zeros((basis.n_max + 2, basis.n_max + 1))
    np.fill_diagonal(d[:, 1:], band[:-1])
    np.fill_diagonal(d[1:], -band)
    return d


def differentiate(coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Coefficients of the derivative, one basis index longer: D @ c from
    the two diagonals of D = derivative_matrix, in O(N) time and memory."""
    basis, c = coeffs.basis, coeffs.values
    band = _derivative_band(basis.beta, c.size)
    out = np.zeros(c.size + 1, dtype=np.result_type(c, float))
    out[:-2] = band[:-1] * c[1:]
    out[1:] -= band * c
    return SpectralCoeffs(ScaledBasis(basis.n_max + 1, basis.beta), out)


def gaussian_coefficients(freq: float, shift: float, n_max: int,
                          m: float = 0.5) -> np.ndarray:
    """Expansion coefficients of exp(-m*(x-s)**2 + i*k*x) in the unscaled
    basis, with k = freq and s = shift.

    With a = m + 1/2 and b = 2*m*s + i*k the generating function is
    sum_n c_n sqrt(2**n sqrt(pi) / n!) t**n
    = sqrt(pi/a) * exp(b**2/(4a) - m*s**2 + p*t + q*t**2), p = b/a and
    q = (1/2 - m)/a, so

        c_{n+1} = p/sqrt(2(n+1)) * c_n + q*sqrt(n/(n+1)) * c_{n-1},  c_{-1} = 0,
        c_0 = pi**(1/4) * a**(-1/2) * exp(-(2*m*s**2 + k**2)/(4a) + i*m*s*k/a).

    The seed's exponent has a real part <= 0, so it cannot overflow, and
    |c_{n+2} / c_n| tends to |q| = |2m-1|/(2m+1): 0 at the matched width
    m = 1/2, where each coefficient is a multiple of the one before.

    Where the seed's size underflows (from |k| ~ 53 at m = 1/2) the
    recurrence carries a binary exponent apart from the mantissa, as
    _hermite_rows does, and emits ldexp(mantissa, e): a coefficient is zero
    only where it is below the subnormal range.
    """
    _check_index(n_max)
    k, s, m = float(freq), float(shift), float(m)
    if not (math.isfinite(k) and math.isfinite(s)):
        raise ValueError(f"freq and shift must be finite, got {freq}, {shift}")
    if not (math.isfinite(m) and m >= 0):
        raise ValueError(f"m must be finite and >= 0, got {m}")
    a = m + 0.5
    r = m / a  # in [0, 1): no product below overflows once the seed is nonzero
    c = np.zeros(n_max + 1, dtype=complex)
    p, q = complex(2.0 * r * s, k / a), (0.5 - m) / a
    log_size = -(2.0 * r * s * s + k * k / a) / 4.0
    size, e = math.exp(log_size), 0
    if size < np.finfo(float).tiny:
        # |c_n| < 2 exp(log_size) (1 + |p|/sqrt(2))**n, from |q| <= 1 and
        # pi**(1/4)/sqrt(a) < 2: below 2**-1076 every entry is zero (NaN
        # means log_size = -inf).  Past this check no rescaled step overflows.
        if not (log_size + n_max * math.log1p(abs(p) / math.sqrt(2.0))
                >= -1076 * _LN2):
            return c
        # Both steps of the reduction by e * ln 2 are exact.
        e = math.floor(log_size / _LN2)
        size = math.exp((log_size - e * _LN2_HI) - e * _LN2_LO)
    c[0] = cur = np.complex128(math.pi ** 0.25 / math.sqrt(a) * size
                               * cmath.exp(1j * r * s * k))
    exponents = np.full(n_max + 1, e)
    prev = 0.0
    for n in range(n_max):
        prev, cur = cur, (cur * p / math.sqrt(2.0 * (n + 1))
                          + q * math.sqrt(n / (n + 1)) * prev)
        if abs(cur) > _RESCALE:
            prev, cur, e = prev * _UNSCALE, cur * _UNSCALE, e + _RESCALE_BITS
            exponents[n + 1:] = e
        c[n + 1] = cur
    c.real, c.imag = np.ldexp(c.real, exponents), np.ldexp(c.imag, exponents)
    return c


def fourier_dual_coeffs(coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Coefficients of the Fourier transform of the represented function.

    F[phi_n^beta] = (-i)**n * phi_n^(1/beta), so the transform of
    sum c_n phi_n^beta is sum ((-i)**n c_n) phi_n^(1/beta): multiply entry n
    by (-i)**n and relabel the basis scale.  Preserves the coefficient
    2-norm; applying it twice is the parity map c_n -> (-1)**n c_n.
    """
    n = coeffs.basis.n_max
    phases = np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(n + 1) % 4]
    return SpectralCoeffs(ScaledBasis(n, 1.0 / coeffs.basis.beta),
                          np.asarray(coeffs.values, dtype=complex) * phases)
