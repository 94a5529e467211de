"""Test-function catalog with analytic Fourier transforms and tail norms.

All transforms use the unitary convention

    F[u](k) = (2*pi)**(-1/2) * integral u(x) * exp(-i*k*x) dx,

under which ||F[u]|| = ||u|| and the Gaussian exp(-x**2/2) is self-dual.
Each catalog entry bundles the function, its transform, evaluators for the
two tail norms

    spatial_tail(M)   = || u * 1_{|x|>M} ||,
    frequency_tail(K) = || F[u] * 1_{|k|>K} ||,

its L2 norm, and decay metadata.  Entries are immutable; anything memoized
(the e^{-x^{2n}} transform spline) is precomputed at construction, so
concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly

from ._integrate import gauss_legendre_cos_samples
from .errors import AccuracyError

_SQRT_PI = math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


# ---------------------------------------------------------------------------
# oracles


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x) for nu >= 0, x > 0.

    Trapezoid rule, exponentially convergent on the even analytic integrand of
    K_nu(x) = e^-x int_0^inf e^(-x(cosh t - 1)) cosh(nu t) dt: step 0.25 / (1 +
    x**2 + nu**2)**(1/4), stopped where x(cosh t - 1) - nu t reaches 750.  Terms
    are scaled by the integrand's peak, so overflow gives inf.  Within 8e-14
    relative of scipy.special.kv for nu <= 12, 1e-300 <= x <= 700.  Array x
    runs in blocks of 2**18 grid values; a scalar x returns a float.
    """
    flat = np.asarray(x, dtype=float).ravel()
    if not (math.isfinite(nu) and nu >= 0 and np.all(np.isfinite(flat) & (flat > 0))):
        raise ValueError(f"bessel_k requires finite nu >= 0 and x > 0, got nu={nu}")
    root_x = np.sqrt(flat)
    t_end = np.zeros_like(flat)
    for _ in range(3):  # fixed point of x*(cosh t - 1) = 750 + nu*t
        t_end = 2.0 * np.arcsinh(np.sqrt(0.5 * (750.0 + nu * t_end)) / root_x)
    step = 0.25 / np.sqrt(np.sqrt(1.0 + flat * flat + nu * nu))
    count = np.ceil(t_end / step).astype(int) + 1
    r = np.hypot(nu, flat)  # nu*t - x*(cosh t - 1) peaks at t = arcsinh(nu/x)
    top = nu * (np.log(nu + r) - np.log(flat)) - nu * nu / (r + flat)
    rows = max(1, (1 << 18) // count.max(initial=1))
    out = np.empty_like(flat)
    for i in (slice(lo, lo + rows) for lo in range(0, flat.size, rows)):
        t = np.minimum(step[i, None] * np.arange(count[i].max()), t_end[i, None])
        drop = 2.0 * np.square(root_x[i, None] * np.sinh(0.5 * t)) + top[i, None]
        t *= nu
        s = np.exp(t - drop).sum(axis=1) + np.exp(-t - drop).sum(axis=1) - np.exp(-top[i])
        with np.errstate(over="ignore"):
            half = np.exp(0.5 * (top[i] - flat[i]))
            out[i] = 0.5 * step[i] * s * half * half
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def algebraic_transform(h: float, k):
    """Fourier transform of (1+x**2)**(-h) at frequency k (h > 1/2).

    2**(1-h) * |k|**(h-1/2) * K_{h-1/2}(|k|) / Gamma(h); where |k|**min(2h-1, 2)
    < 1e-18 its k -> 0 limit Gamma(h-1/2) / (sqrt(2) * Gamma(h)) agrees with it
    to rounding and is used instead.  Array k; a scalar k returns a float.
    """
    if h <= 0.5:
        raise ValueError(f"algebraic_transform requires h > 1/2, got {h}")
    nu = h - 0.5
    k = np.abs(np.asarray(k, dtype=float))
    out = np.full(k.shape, math.gamma(nu) / (math.sqrt(2.0) * math.gamma(h)))
    far = ~(k <= math.exp(-20.7 / min(nu, 1.0)))  # NaN goes on to bessel_k
    out[far] = 2.0 ** (1.0 - h) * k[far] ** nu * bessel_k(nu, k[far]) / math.gamma(h)
    return float(out) if out.ndim == 0 else out


def numerical_fourier(u: Callable, k: float, tol: float = 1e-10) -> float:
    """Cosine-part Fourier transform of u at frequency k, to absolute tol.

    Evaluates (2*pi)**(-1/2) * integral u_e(x) * exp(-i*k*x) dx where u_e is
    the even symmetrization of u; for even u this is the full transform.
    Backed by QUADPACK's Fourier-integral routine (oscillation-aware panels
    plus tail extrapolation).
    """
    if tol < 1e-12:
        raise ValueError(f"tol must be >= 1e-12, got {tol}")

    def g(x):
        return 0.5 * (u(x) + u(-x))

    scale = math.sqrt(2.0 / math.pi)
    eps = tol / (2.0 * scale)
    if k == 0.0:
        out = quad(g, 0.0, np.inf, epsabs=eps, epsrel=1e-13,
                   limit=400, full_output=1)
    else:
        out = quad(g, 0.0, np.inf, weight="cos", wvar=abs(k),
                   epsabs=eps, limlst=120, limit=200, full_output=1)
    val, err = out[0], out[1]
    if err > max(2.0 * eps, 1e-13 + 1e-11 * abs(val)):
        raise AccuracyError(f"numerical Fourier transform at k={k} did not "
                            f"reach tol={tol}", achieved=scale * err,
                            value=scale * val)
    return scale * val


def _cutoff(c: float) -> float:
    """c itself, after checking that it is a finite tail cutoff >= 0."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"cutoff must be finite and >= 0, got {c}")
    return c


def tail_norm(f: Callable, cutoff: float, tol: float = 1e-10) -> float:
    """(2 * integral_cutoff^inf f(x)**2 dx)**(1/2) for even-|f| functions."""
    val, err = quad(lambda x: f(x) ** 2, _cutoff(cutoff), np.inf,
                    epsabs=0.25 * tol * tol, epsrel=1e-11, limit=400, full_output=1)[:2]
    if err > 0.25 * tol * tol + 1e-10 * abs(val):
        raise AccuracyError(f"tail integral from cutoff={cutoff} did not "
                            f"converge", achieved=err, value=val)
    return math.sqrt(max(2.0 * val, 0.0))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class DecayMeta:
    """Qualitative decay of u and F[u]: 'exponential' carries the exponent
    power a of exp(-c|x|**a), 'algebraic' the order h of (1+x**2)**(-h)."""

    spatial_kind: str
    spatial_rate: float
    frequency_kind: str
    frequency_rate: float


@dataclass(frozen=True)
class TestFunction:
    """A function u with its transform, tail-norm evaluators and metadata.

    eval_Fu of derivative entries is the real representative k**m * F[u](k)
    whose magnitude equals |F[d^m u]|; tail norms only ever use magnitudes.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    id: str
    eval_u: Callable
    eval_Fu: Callable
    spatial_tail: Callable[[float], float]
    frequency_tail: Callable[[float], float]
    l2_norm: float
    decay_meta: DecayMeta
    eval_du: Optional[Callable] = None
    eval_d2u: Optional[Callable] = None
    complex_valued: bool = False
    derivative_factory: Optional[Callable] = None

    def derivative(self) -> "TestFunction":
        """Catalog entry for du/dx (closed-form evaluator, oracle tails)."""
        if self.derivative_factory is None:
            raise ValueError(f"{self.id}: no derivative entry available")
        return self.derivative_factory()

    def __repr__(self):
        return f"TestFunction({self.id})"


def _gaussian_moment_tail(a: float, m: float) -> float:
    """integral_m^inf x**2 * exp(-a*x**2) dx."""
    return (m * math.exp(-a * m * m) / (2.0 * a)
            + _SQRT_PI * math.erfc(math.sqrt(a) * m) / (4.0 * a ** 1.5))


def _derived_entry(parent: TestFunction, eval_v, eval_dv=None,
                   spatial_tail=None, frequency_tail=None,
                   meta: DecayMeta = None) -> TestFunction:
    """Derivative entry with oracle-backed tails where no closed form exists.

    F[v] = i*k*F[u], so the frequency tail integrates (k * parent.Fu(k))**2.
    """
    if spatial_tail is None:
        spatial_tail = lambda m: tail_norm(eval_v, m, 1e-9)
    fu = lambda k: k * parent.eval_Fu(k)
    if frequency_tail is None:
        frequency_tail = lambda kc: tail_norm(fu, kc, 1e-9)

    def chain():
        return _derived_entry(entry, eval_dv)

    entry = TestFunction(
        id=f"d/dx[{parent.id}]",
        eval_u=eval_v,
        eval_Fu=fu,
        spatial_tail=spatial_tail,
        frequency_tail=frequency_tail,
        l2_norm=spatial_tail(0.0),
        decay_meta=meta or parent.decay_meta,
        eval_du=eval_dv,
        derivative_factory=chain if eval_dv is not None else None,
    )
    return entry


def plain_gaussian(sigma: float = 1.0) -> TestFunction:
    """u(x) = exp(-x**2 / (2*sigma**2));  F[u](k) = sigma*exp(-sigma**2*k**2/2)."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    s2 = sigma * sigma

    def u(x):
        return np.exp(-np.asarray(x) ** 2 / (2.0 * s2))

    def fu(k):
        return sigma * np.exp(-s2 * np.asarray(k) ** 2 / 2.0)

    def du(x):
        x = np.asarray(x)
        return -x / s2 * np.exp(-x * x / (2.0 * s2))

    def d2u(x):
        x = np.asarray(x)
        return (x * x / s2 - 1.0) / s2 * np.exp(-x * x / (2.0 * s2))

    spatial = lambda m: math.sqrt(sigma * _SQRT_PI * math.erfc(m / sigma))
    frequency = lambda k: math.sqrt(sigma * _SQRT_PI * math.erfc(sigma * k))

    def deriv():
        # ||u'||-type tails from the Gaussian-moment antiderivative.
        dsp = lambda m: math.sqrt(2.0 / s2 ** 2 * _gaussian_moment_tail(1.0 / s2, m))
        dfr = lambda k: math.sqrt(2.0 * s2 * _gaussian_moment_tail(s2, k))
        return _derived_entry(entry, du, eval_dv=d2u,
                              spatial_tail=dsp, frequency_tail=dfr)

    entry = TestFunction(
        id=f"plain_gaussian({sigma:g})",
        eval_u=u, eval_Fu=fu,
        spatial_tail=spatial, frequency_tail=frequency,
        l2_norm=math.sqrt(sigma * _SQRT_PI),
        decay_meta=DecayMeta("exponential", 2.0, "exponential", 2.0),
        eval_du=du, eval_d2u=d2u,
        derivative_factory=deriv,
    )
    return entry


def gaussian(freq: float, shift: float = 0.0) -> TestFunction:
    """Modulated shifted Gaussian g(x) = exp(-(x-shift)**2/2 + i*freq*x).

    Complex-valued; both tails are erfc closed forms of |g| and |F[g]|
    (each side of the cutoff integrated separately since the mass centers
    sit at `shift` and `freq`).
    """
    if not (np.isfinite(freq) and np.isfinite(shift)):
        raise ValueError("freq and shift must be finite")

    def g(x):
        x = np.asarray(x)
        return np.exp(-0.5 * (x - shift) ** 2 + 1j * freq * x)

    def fg(xi):
        xi = np.asarray(xi)
        return np.exp(1j * (freq - xi) * shift - 0.5 * (xi - freq) ** 2)

    def dg(x):
        x = np.asarray(x)
        return (-(x - shift) + 1j * freq) * g(x)

    def two_sided(c, center):
        return math.sqrt(0.5 * _SQRT_PI * (math.erfc(c - center)
                                           + math.erfc(c + center)))

    return TestFunction(
        id=f"gaussian({freq:g},{shift:g})",
        eval_u=g, eval_Fu=fg,
        spatial_tail=lambda m: two_sided(m, shift),
        frequency_tail=lambda k: two_sided(k, freq),
        l2_norm=math.pi ** 0.25,
        decay_meta=DecayMeta("exponential", 2.0, "exponential", 2.0),
        eval_du=dg,
        complex_valued=True,
    )


def _inverse_quadratic_tail(m: float, cutoff: float) -> float:
    """integral_cutoff^inf (1+x**2)**(-m) dx.

    Integer m at moderate cutoff: integration-by-parts reduction down to
    arctan.  Large cutoff (where the reduction cancels catastrophically):
    the substitution x -> 1/x gives the rapidly converging series
    sum_j (-1)**j C(m+j-1, j) * u**(2m-1+2j) / (2m-1+2j),  u = 1/cutoff.
    """
    if cutoff > 3.0:
        u = 1.0 / cutoff
        u2 = u * u
        coeff = 1.0
        power = u ** (2.0 * m - 1.0)
        total = 0.0
        for j in range(60):
            term = coeff * power / (2.0 * m - 1.0 + 2.0 * j)
            total += term
            if abs(term) < 1e-17 * abs(total):
                break
            coeff *= -(m + j) / (j + 1.0)
            power *= u2
        return total
    m_int = int(round(m))
    j = math.pi / 2.0 - math.atan(cutoff)
    for mm in range(2, m_int + 1):
        j = ((2 * mm - 3) * j
             - cutoff * (1.0 + cutoff * cutoff) ** (1 - mm)) / (2 * mm - 2)
    return j


def algebraic(h: float) -> TestFunction:
    """u(x) = (1+x**2)**(-h), 1/2 < h <= 30: algebraic spatial decay,
    exponential (rate-1) frequency decay via the Bessel-K transform (whose
    factor K_(h-1/2)(k) overflows near k = 0 above h = 30)."""
    if not (math.isfinite(h) and 0.5 < h <= 30.0):
        raise ValueError(f"algebraic requires 1/2 < h <= 30, got {h}")

    def u(x):
        return (1.0 + np.asarray(x) ** 2) ** (-h)

    def du(x):
        x = np.asarray(x)
        return -2.0 * h * x * (1.0 + x * x) ** (-h - 1.0)

    def d2u(x):
        x = np.asarray(x)
        q = 1.0 + x * x
        return (4.0 * h * (h + 1.0) * x * x - 2.0 * h * q) * q ** (-h - 2.0)

    two_h = 2.0 * h
    if abs(two_h - round(two_h)) < 1e-12 and 2 <= round(two_h) <= 6:
        m = int(round(two_h))
        spatial = lambda c: math.sqrt(2.0 * _inverse_quadratic_tail(m, _cutoff(c)))
    else:
        spatial = lambda c: tail_norm(u, c, 1e-10)

    if h == 1.0:
        frequency = lambda k: _SQRT_HALF_PI * math.exp(-_cutoff(k))
    else:
        def frequency(kc):
            # Gauss-Legendre panels: unit ones to kc + 25 + 2h, below 1 graded toward 0.
            grade = 0.25 ** np.arange(20.0, -1.0, -1.0)
            edges = np.unique(np.r_[_cutoff(kc), grade[grade > kc], kc + np.arange(1, 26 + 2 * h)])
            nodes, weights = np.polynomial.legendre.leggauss(16)
            half = 0.5 * np.diff(edges)[:, None]
            k = edges[:-1, None] + half * (1.0 + nodes)
            return math.sqrt(2.0 * np.sum(half * weights * algebraic_transform(h, k) ** 2))

    def deriv():
        return _derived_entry(
            entry, du, eval_dv=d2u,
            meta=DecayMeta("algebraic", h + 0.5, "exponential", 1.0))

    entry = TestFunction(
        id=f"algebraic({h:g})",
        eval_u=u, eval_Fu=partial(algebraic_transform, h),
        spatial_tail=spatial, frequency_tail=frequency,
        l2_norm=math.sqrt(_SQRT_PI * math.gamma(two_h - 0.5) / math.gamma(two_h)),
        decay_meta=DecayMeta("algebraic", h, "exponential", 1.0),
        eval_du=du, eval_d2u=d2u,
        derivative_factory=deriv,
    )
    return entry


def _square_ppoly(sp: CubicSpline) -> PPoly:
    c = sp.c
    cc = np.zeros((7, c.shape[1]))
    for i in range(4):
        for j in range(4):
            cc[i + j] += c[i] * c[j]
    return PPoly(cc, sp.x)


@lru_cache(maxsize=None)
def gaussian_power(n: int) -> TestFunction:
    """u(x) = exp(-x**(2n)), n a positive integer.

    For n = 1 everything is in closed form.  For n >= 2 no closed-form
    transform exists; F[u] is sampled once on a dense frequency grid (stopped
    where the oscillation envelope drops below 1e-15) and carried as a cubic
    spline, whose exact square/antiderivative supplies the frequency tail.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"gaussian_power requires a positive integer, got {n}")
    n = int(n)
    two_n = 2 * n
    freq_rate = two_n / (two_n - 1.0)

    def u(x):
        return np.exp(-np.asarray(x, dtype=float) ** two_n)

    def du(x):
        x = np.asarray(x, dtype=float)
        return -two_n * x ** (two_n - 1) * np.exp(-(x ** two_n))

    def d2u(x):
        x = np.asarray(x, dtype=float)
        return ((two_n * x ** (two_n - 1)) ** 2
                - two_n * (two_n - 1) * x ** (two_n - 2)) * np.exp(-(x ** two_n))

    if n == 1:
        sig = math.sqrt(0.5)  # exp(-x**2) = exp(-x**2/(2*sig**2))
        fu = lambda k: sig * np.exp(-np.asarray(k) ** 2 / 4.0)
        spatial = lambda m: math.sqrt(sig * _SQRT_PI * math.erfc(m / sig))
        frequency = lambda k: math.sqrt(sig * _SQRT_PI * math.erfc(sig * k))
        l2 = math.sqrt(sig * _SQRT_PI)
    else:
        # u < 1e-320 beyond this point; everything happens inside [0, x_hi].
        x_hi = 737.0 ** (1.0 / two_n)
        dk = 0.02
        block = 400
        k_grid = [np.array([0.0])]
        f_grid = [np.array([2.0 * quad(u, 0.0, x_hi, epsabs=1e-15)[0]
                            / math.sqrt(2.0 * math.pi)])]
        k_lo = 0.0
        while True:
            ks = k_lo + dk * np.arange(1, block + 1)
            fs = gauss_legendre_cos_samples(u, x_hi, ks)
            k_grid.append(ks)
            f_grid.append(fs)
            k_lo = ks[-1]
            # 1e-14 sits just above the quadrature noise floor.
            if np.max(np.abs(fs)) < 1e-14 or k_lo > 600.0:
                break
        k_s = np.concatenate(k_grid)
        f_s = np.concatenate(f_grid)
        spline = CubicSpline(k_s, f_s)
        k_max = k_s[-1]
        sq_anti = _square_ppoly(spline).antiderivative()
        sq_total = float(sq_anti(k_max) - sq_anti(0.0))

        def fu(k):
            k = np.abs(np.asarray(k, dtype=float))
            return np.where(k <= k_max, spline(np.minimum(k, k_max)), 0.0)

        def frequency(kc):
            if kc >= k_max:
                return 0.0
            return math.sqrt(max(2.0 * float(sq_anti(k_max) - sq_anti(kc)), 0.0))

        def spatial(m):
            if m >= x_hi:
                return 0.0
            val, _ = quad(lambda x: math.exp(-2.0 * x ** two_n), m, x_hi,
                          epsabs=1e-16, epsrel=1e-12, limit=200)
            return math.sqrt(max(2.0 * val, 0.0))

        l2 = math.sqrt(2.0 * quad(lambda x: math.exp(-2.0 * x ** two_n),
                                  0.0, x_hi, epsabs=1e-16, epsrel=1e-13)[0])

    def deriv():
        return _derived_entry(
            entry, du, eval_dv=d2u,
            meta=DecayMeta("exponential", float(two_n), "exponential", freq_rate))

    entry = TestFunction(
        id=f"gaussian_power({n})",
        eval_u=u, eval_Fu=fu,
        spatial_tail=spatial, frequency_tail=frequency,
        l2_norm=l2,
        decay_meta=DecayMeta("exponential", float(two_n), "exponential", freq_rate),
        eval_du=du, eval_d2u=d2u,
        derivative_factory=deriv,
    )
    return entry


_CONSTRUCTORS = {
    "plain_gaussian": (plain_gaussian, 1),
    "gaussian": (gaussian, 2),
    "algebraic": (algebraic, 1),
    "gaussian_power": (gaussian_power, 1),
}


def _parse_call(text: str, what: str) -> tuple:
    """Split 'name(a, b, ...)' into the stripped name and a tuple of finite
    float arguments (empty ones skipped); ValueError on anything else."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"malformed {what} {text!r}; expected name(args)")
    name, args_text = text[:-1].split("(", 1)
    args = tuple(float(a) for a in args_text.split(",") if a.strip())
    if not all(math.isfinite(a) for a in args):
        raise ValueError(f"arguments of {what} {text!r} must be finite numbers")
    return name.strip(), args


def catalog_entry(text: str) -> TestFunction:
    """Build a catalog entry from an id string like 'algebraic(1.5)' or
    'gaussian(1,0)'."""
    name, args = _parse_call(text, "catalog id")
    if name not in _CONSTRUCTORS:
        raise ValueError(f"unknown catalog id {name!r}; known: "
                         f"{sorted(_CONSTRUCTORS)}")
    ctor, max_args = _CONSTRUCTORS[name]
    if not 1 <= len(args) <= max_args:
        raise ValueError(f"{name} takes 1..{max_args} parameters, got {len(args)}")
    if name == "gaussian_power" and args[0].is_integer():
        args = (int(args[0]),)  # a non-integer goes on to be rejected there
    return ctor(*args)
