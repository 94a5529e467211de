"""Test-function catalog with analytic Fourier transforms and tail norms.

All transforms use the unitary convention

    F[u](k) = (2*pi)**(-1/2) * integral u(x) * exp(-i*k*x) dx,

under which ||F[u]|| = ||u|| and the Gaussian exp(-x**2/2) is self-dual.
Each catalog entry bundles the function, its transform, evaluators for the
two tail norms

    spatial_tail(M)   = || u * 1_{|x|>M} ||,
    frequency_tail(K) = || F[u] * 1_{|k|>K} ||,

and its L2 norm.  Entries are immutable.  The e^{-x^{2n}}
transform samples are taken at construction.  Where F[u] has no closed-form
tail (algebraic(h != 1), e^{-x^{2n}} for n >= 2), one rule serves: fixed
panels, each integral scaled by its own power of two, memoised lazily per
transform and block of panels in one bounded module-level cache.  Concurrent
reads are safe: the worst race builds one block twice, with identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from ._integrate import adaptive_quad

_SQRT_PI = math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_GL16 = np.polynomial.legendre.leggauss(16)
_GL64 = np.polynomial.legendre.leggauss(64)


# ---------------------------------------------------------------------------
# oracles


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x) for nu >= 0, x > 0.

    Trapezoid rule, exponentially convergent on the even analytic integrand of
    K_nu(x) = e^-x int_0^inf e^(-x(cosh t - 1)) cosh(nu t) dt: step 0.25 / (1 +
    x**2 + nu**2)**(1/4), stopped where x(cosh t - 1) - nu t reaches 750.  Terms
    are scaled by the integrand's peak, so overflow gives inf.  Within 8e-14
    relative of scipy.special.kv for nu <= 12, 1e-300 <= x <= 700.  Array x
    runs in blocks of at most 2**13 grid values, so each temporary stays below
    malloc's 128 KB mmap threshold instead of being mapped and faulted in
    afresh on every call; a scalar x returns a float.
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
    rows = max(1, (1 << 13) // count.max(initial=1))
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
    to rounding and is used instead, and where it underflows it is 0.  NaN
    gives NaN.  Array k; a scalar k returns a float.
    """
    if h <= 0.5:
        raise ValueError(f"algebraic_transform requires h > 1/2, got {h}")
    nu = h - 0.5
    k = np.abs(np.asarray(k, dtype=float))
    near = k <= math.exp(-20.7 / min(nu, 1.0))
    # Where nu*ln(k) - k < -800 the value underflows for every h <= 30: exact
    # zero there, not an overflowing k**nu times a zero K.
    gone = k > 800.0 + nu * np.log(np.maximum(k, 1.0))
    out = np.where(near, math.gamma(nu) / (math.sqrt(2.0) * math.gamma(h)),
                   np.where(gone, 0.0, np.nan))
    far = ~(near | gone | np.isnan(k))
    out[far] = 2.0 ** (1.0 - h) * k[far] ** nu * bessel_k(nu, k[far]) / math.gamma(h)
    return float(out) if out.ndim == 0 else out


def _cutoff(c: float) -> float:
    """c itself, after checking that it is a finite tail cutoff >= 0."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"cutoff must be finite and >= 0, got {c}")
    return c


def tail_norm(f: Callable, cutoff: float) -> float:
    """(2 * integral_cutoff^inf |f(x)|**2 dx)**(1/2) for even-|f| functions f
    that take arrays.

    Adaptive Gauss-Kronrod in t on [0, 1) with x = c + (1+c)*((1-t)**-2 - 1),
    which turns (1+x**2)**(-2h) decay into a mild power of 1 - t; relative
    tolerance 1e-11, AccuracyError when that is not reached.  f is scaled by a
    power of two near max |f| at x = c, ..., c + 3(1+c) and the result scaled
    back: exact, and a tail whose square underflows is kept.
    """
    c = _cutoff(cutoff)
    peak = float(np.max(np.abs(f(c + (1.0 + c) * np.arange(4.0)))))
    e = math.frexp(peak)[1] if 0.0 < peak < math.inf else 0
    s = math.ldexp(1.0, e)

    def mapped(t):
        r = 1.0 / (1.0 - t)
        v = np.asarray(f(c + (1.0 + c) * (r * r - 1.0)))
        # Parts scaled apart: complex v / s takes 1 / s, inf for a subnormal s.
        parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
        return sum(np.ldexp(p, -e) ** 2 for p in parts) * (2.0 * (1.0 + c) * r ** 3)

    # Where f is subnormal it is off by up to 2**-1075, which puts up to
    # 2(1+c) r**3 2**-1074 / s on the integrand (|f/s| <= 1): below that
    # floor, taken at r**3 = 16, the Kronrod estimate measures roundoff.
    floor = max(1e-300, 32.0 * (1.0 + c) * 2.0 ** -1074 / s)
    return s * math.sqrt(2.0 * adaptive_quad(mapped, np.linspace(0.0, 1.0, 17), abs_tol=floor,
                                             rel_tol=1e-11, label=f"tail from cutoff={cutoff}")[0])


# Fixed panel edges of a sampled frequency tail: 4**-20, ..., 1/4, 1 graded
# toward 0, then 2, 3, ...; panel i runs from edge i to edge i + 1.
_GRADE = np.ldexp(1.0, np.arange(-40, 1, 2))


def _panel_integrals(f: Callable, edges) -> np.ndarray:
    """For each panel between sorted edges, of a real f that takes arrays:
    row 0 the 16-node Gauss-Legendre integral of (f / 2**e)**2, row 1 e, the
    binary exponent of the panel's peak |f| (-1100 where f is 0).  The scale
    is exact, as in tail_norm, and no square of a normal f underflows."""
    nodes, weights = _GL16
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    v = f(edges[:-1, None] + half * (1.0 + nodes))
    peak = np.abs(v).max(axis=1, keepdims=True)
    e = np.where(peak > 0.0, np.frexp(peak)[1], -1100)
    return np.array([(half * weights * np.ldexp(v, -e) ** 2).sum(axis=1), e[:, 0]])


# A block is 32 panels (about 0.6 KB, and its key keeps its transform alive:
# up to 160 KB of gaussian_power(n) samples); 15 blocks hold every cutoff to
# 350 of one algebraic(h).
@lru_cache(maxsize=128)
def _tail_panels(f: Callable, block: int) -> np.ndarray:
    """Panels 32*block .. 32*block + 31 of f's tail (read-only)."""
    i = np.arange(32 * block, 32 * block + 33)
    out = _panel_integrals(f, np.where(i < 21, _GRADE[np.minimum(i, 20)], i - 19.0))
    out.flags.writeable = False
    return out


def _sampled_tail(f: Callable, kc: float, top: float) -> float:
    """|| f * 1_{|k|>kc} || for an even, real f that takes arrays and is
    negligible beyond top: a head panel from kc to the next fixed edge, then
    the panels memoised per f up to the first edge at or above top, summed
    relative to the largest panel scale.  f is 0 across a head only past
    its support, where the tail is 0."""
    kc = _cutoff(kc)
    first = math.floor(kc) + 20 if kc >= 1.0 else int(np.searchsorted(_GRADE, kc, "right"))
    head = _panel_integrals(f, np.array([kc, first - 19.0 if first > 20 else _GRADE[first]]))
    if head[0, 0] == 0.0:
        return 0.0
    last = math.ceil(top) + 19
    v, e = np.concatenate([head] + [_tail_panels(f, b)[:, max(first - 32 * b, 0):last - 32 * b]
                                    for b in range(first // 32, (last - 1) // 32 + 1)], axis=1)
    big = int(e.max())
    return math.ldexp(math.sqrt(2.0 * math.fsum(np.ldexp(v, 2 * (e - big).astype(int)))), big)


def _cos_samples(u, x_hi, k_values):
    """Cosine-transform samples (2/sqrt(2*pi)) * int_0^{x_hi} u(x) cos(k x) dx.

    Composite 64-point Gauss-Legendre panels sized so the fastest requested
    oscillation gets 10 abscissae per period, and at least 128 in all; one
    weight/value vector is shared across all k.  Accuracy is roundoff-limited
    (~1e-14 * scale).
    """
    k = np.asarray(k_values, dtype=float)
    k_top = float(np.max(np.abs(k))) if k.size else 0.0
    need = int(10 * k_top * x_hi / (2.0 * np.pi)) + 128
    panels = -(-need // 64)
    edges = np.linspace(0.0, x_hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * _GL64[0][None, :]).ravel()
    w = (half[:, None] * _GL64[1][None, :]).ravel() * np.asarray(u(x), dtype=float)
    return np.sqrt(2.0 / np.pi) * (np.cos(np.outer(k, x)) @ w)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True, kw_only=True)
class TestFunction:
    """A function u with its transform, tail-norm evaluators and L2 norm.

    A tail not given is tail_norm of eval_u or eval_Fu, and an l2_norm not
    given is spatial_tail(0).  derivative() is the one way to u' and u'':
    each is a catalog entry of its own, whose eval_Fu is F[d^m u](k) =
    (i*k)**m * F[u](k).
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    id: str
    eval_u: Callable
    eval_Fu: Callable
    spatial_tail: Optional[Callable[[float], float]] = None
    frequency_tail: Optional[Callable[[float], float]] = None
    l2_norm: Optional[float] = None
    derivative_factory: Optional[Callable] = None

    def __post_init__(self):
        if self.spatial_tail is None:
            object.__setattr__(self, "spatial_tail", partial(tail_norm, self.eval_u))
        if self.frequency_tail is None:
            object.__setattr__(self, "frequency_tail", partial(tail_norm, self.eval_Fu))
        if self.l2_norm is None:
            object.__setattr__(self, "l2_norm", self.spatial_tail(0.0))

    def derivative(self) -> "TestFunction":
        """Catalog entry for du/dx (closed-form evaluator, oracle tails)."""
        if self.derivative_factory is None:
            raise ValueError(f"{self.id}: no derivative entry available")
        return self.derivative_factory()

    def __repr__(self):
        return f"TestFunction({self.id})"


def _two_sided(c: float, center: float, a: float,
               w2: float = 0.0, w1: float = 0.0, w0: float = 1.0) -> float:
    """sqrt of the integral over |t| > c of (w2*y**2 + 2*w1*y + w0) *
    exp(-a*y**2), y = t - center: the moments over y >= c - center and,
    mirrored, y >= c + center in closed form.  0.0 once the square underflows."""
    r, total = math.sqrt(a), 0.0
    for sign, low in ((1.0, _cutoff(c) - center), (-1.0, c + center)):
        e = math.exp(-a * low * low)
        m0 = _SQRT_PI * math.erfc(r * low) / (2.0 * r)
        total += w2 * (low * e + m0) / (2.0 * a) + sign * w1 * e / a + w0 * m0
    return math.sqrt(total)


def _derived_entry(parent: TestFunction, eval_v, eval_dv=None,
                   spatial_tail=None, frequency_tail=None) -> TestFunction:
    """Derivative entry, F[v] = i*k*F[u], with oracle tails where none given."""
    entry = TestFunction(
        id=f"d/dx[{parent.id}]",
        eval_u=eval_v,
        eval_Fu=lambda k: 1j * k * parent.eval_Fu(k),
        spatial_tail=spatial_tail,
        frequency_tail=frequency_tail,
        derivative_factory=None if eval_dv is None else lambda: _derived_entry(entry, eval_dv),
    )
    return entry


def _clamped(near: Callable, edge: float, far: Optional[Callable] = None,
             center: float = 0.0) -> Callable:
    """x -> near(x) where |x - center| < edge (and where x is NaN), else far(x),
    or 0 where far is None.  Each sees only its own points, so neither
    overflows on the points it cannot serve."""
    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.abs(x - center) >= edge
        if not out.any():
            return near(x)
        v = near(np.where(out, center, x))
        return np.where(out, 0.0 if far is None else far(np.where(out, x, center + edge)), v)
    return f


def _gaussian(ident: str, m: float, freq: float = 0.0, shift: float = 0.0) -> TestFunction:
    """g(x) = exp(-m*(x-s)**2 + i*k*x), k = freq and s = shift, the function
    basis.gaussian_coefficients(k, s, n, m) expands;
    F[g](xi) = exp(-d**2/(4m) - i*d*s) / sqrt(2m), d = xi - k.

    g is real where k = 0, F[g] where s = 0.  |g|**2 and |F[g]|**2 peak at s
    and k, so the tails of u and u', spatial and frequency, are _two_sided
    closed forms.  u'' has an entry only where k = s = 0, with tail_norm
    tails, which need an even |f|.  From |x - s| = 2**500 / max(a, 1) on, where
    g is 0 and a*(x - s) or (a*x)**2 would overflow, the evaluators return 0
    (u' the signed zero of -a*(x - s)*0).
    """
    a, k, s = 2.0 * m, freq, shift
    # |F[g]| is 0 from |d| = 39 sqrt(a) on; the clamp keeps d**2 finite.
    cap, scale = 40.0 * math.sqrt(a), math.sqrt(1.0 / a)
    clamp = partial(_clamped, edge=2.0 ** 500 / max(a, 1.0), center=s)

    def g(x):
        return np.exp(-m * (x - s) ** 2 + 1j * k * x) if k else np.exp(-m * (x - s) ** 2)

    def fg(xi):
        d = np.clip(np.asarray(xi) - k, -cap, cap)
        e = -d * d / (2.0 * a)
        return scale * (np.exp(e - 1j * d * s) if s else np.exp(e))

    def dg(x):
        return (-a * (x - s) + 1j * k) * g(x) if k else -a * (x - s) * g(x)

    def d2g(x):
        ax = a * x
        return (ax * ax - a) * g(x)

    def deriv():
        # |g'|**2 = (a**2 y**2 + k**2) exp(-a y**2), y = x - s, and
        # |xi F[g]|**2 = (d + k)**2 exp(-d**2/a) / a.
        return _derived_entry(
            entry, clamp(dg, far=lambda x: np.copysign(0.0, s - x)),
            eval_dv=clamp(d2g) if k == s == 0.0 else None,
            spatial_tail=lambda c: _two_sided(c, s, a, w2=a * a, w0=k * k),
            frequency_tail=lambda c: _two_sided(c, k, 1.0 / a, 1.0 / a, k / a, k * k / a))

    entry = TestFunction(
        id=ident, eval_u=clamp(g), eval_Fu=fg,
        spatial_tail=lambda c: _two_sided(c, s, a),
        frequency_tail=lambda c: _two_sided(c, k, 1.0 / a, w0=1.0 / a),
        l2_norm=(math.pi / a) ** 0.25,
        derivative_factory=deriv,
    )
    return entry


def plain_gaussian(sigma: float = 1.0) -> TestFunction:
    """u(x) = exp(-x**2 / (2*sigma**2));  F[u](k) = sigma*exp(-sigma**2*k**2/2),
    1e-75 < sigma < 1e75, where the weight sigma**-4 of the u' tails is a normal double."""
    if not 1e-75 < sigma < 1e75:  # NaN too
        raise ValueError(f"plain_gaussian requires 1e-75 < sigma < 1e75, got {sigma}")
    return _gaussian(f"plain_gaussian({sigma:g})", 0.5 / (sigma * sigma))


def gaussian(freq: float, shift: float = 0.0) -> TestFunction:
    """Modulated shifted Gaussian g(x) = exp(-(x-shift)**2/2 + i*freq*x), with
    u' and closed-form two-sided tails (u'' only at freq = shift = 0); complex
    unless freq = 0.  |freq|, |shift| <= 2**500, the clamp edge: within it
    the phases freq*x and (xi - freq)*shift stay below 2**1001."""
    if not (abs(freq) <= 2.0 ** 500 and abs(shift) <= 2.0 ** 500):  # NaN too
        raise ValueError(f"gaussian requires |freq|, |shift| <= 2**500, got {freq}, {shift}")
    return _gaussian(f"gaussian({freq:g},{shift:g})", 0.5, float(freq), float(shift))


# An entry is small; the cache keeps its transform, the tail memo's key.
@lru_cache(maxsize=64)
def algebraic(h: float) -> TestFunction:
    """u(x) = (1+x**2)**(-h), 1/2 < h <= 30: algebraic spatial decay,
    exponential (rate-1) frequency decay via the Bessel-K transform (whose
    factor K_(h-1/2)(k) overflows near k = 0 above h = 30)."""
    if not (math.isfinite(h) and 0.5 < h <= 30.0):
        raise ValueError(f"algebraic requires 1/2 < h <= 30, got {h}")

    # Beyond |x| = 1e150, 1 + x**2 is x**2 to within 1e-300 (and x**2
    # overflows from 2**512): u, u' and u'' are their leading powers of |x|.
    far = math.nextafter(1e150, math.inf)
    u = _clamped(lambda x: (1.0 + x ** 2) ** (-h), far,
                 lambda x: np.abs(x) ** (-2.0 * h))
    du = _clamped(lambda x: -2.0 * h * x * (1.0 + x * x) ** (-h - 1.0), far,
                  lambda x: -2.0 * h * np.abs(x) ** (-2.0 * h) / x)
    d2u = _clamped(lambda x: ((4.0 * h * (h + 1.0) * x * x - 2.0 * h * (1.0 + x * x))
                              * (1.0 + x * x) ** (-h - 2.0)), far,
                   lambda x: 2.0 * h * (2.0 * h + 1.0) * np.abs(x) ** (-2.0 * h) / x / x)
    fu = partial(algebraic_transform, h)
    if h == 1.0:
        frequency = lambda k: _SQRT_HALF_PI * math.exp(-_cutoff(k))
    else:
        frequency = lambda kc: _sampled_tail(fu, kc, kc + 25.0 + 2.0 * h)

    entry = TestFunction(
        id=f"algebraic({h:g})",
        eval_u=u, eval_Fu=fu, frequency_tail=frequency,
        l2_norm=math.sqrt(_SQRT_PI * math.gamma(2.0 * h - 0.5) / math.gamma(2.0 * h)),
        derivative_factory=lambda: _derived_entry(entry, du, eval_dv=d2u),
    )
    return entry


# An entry keeps up to 160 KB of transform samples; a sweep uses one or two.
@lru_cache(maxsize=8)
def gaussian_power(n: int) -> TestFunction:
    """u(x) = exp(-x**(2n)), n a positive integer up to 18.

    n = 1 is _gaussian with m = 1, in closed form.  For n >= 2 no
    closed-form transform exists; F[u] is sampled once at the 16
    Gauss-Legendre nodes of each unit panel up to k_max (0 beyond) and read
    back by barycentric interpolation, whose square the fixed tail panels
    integrate exactly; the spatial tail and the norm come from tail_norm.
    From n = 19 on |F[u]| is still above 1e-14 where the sampling stops
    (k = 608), and the constructor raises ValueError.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"gaussian_power requires a positive integer, got {n}")
    if n == 1:
        return _gaussian("gaussian_power(1)", 1.0)
    n = int(n)
    two_n = 2 * n

    # u < 1e-320 beyond x_hi: the evaluators return exact zeros there, where
    # x**(2n) and the derivative factors would overflow.
    x_hi = 737.0 ** (1.0 / two_n)

    u = _clamped(lambda x: np.exp(-x ** two_n), x_hi)
    du = _clamped(lambda x: -two_n * x ** (two_n - 1) * np.exp(-x ** two_n), x_hi)
    d2u = _clamped(lambda x: ((two_n * x ** (two_n - 1)) ** 2
                              - two_n * (two_n - 1) * x ** (two_n - 2)) * np.exp(-x ** two_n),
                   x_hi)

    nodes, weights = _GL16
    lam = (-1.0) ** np.arange(16) * np.sqrt((1.0 - nodes ** 2) * weights)
    k_nodes, f_nodes = [], []
    # 1e-14 sits just above the quadrature noise floor.
    while not k_nodes or np.max(np.abs(f_nodes[-1])) >= 1e-14:
        if 8 * len(k_nodes) > 600:
            raise ValueError(f"gaussian_power({n}): |F[u]| is still >= 1e-14 at "
                             f"k = {8 * len(k_nodes)}, where its sampling stops; n <= 18")
        ks = 8 * len(k_nodes) + np.arange(8.0)[:, None] + 0.5 * (1.0 + nodes)
        k_nodes.append(ks)
        f_nodes.append(_cos_samples(u, x_hi, ks.ravel()).reshape(ks.shape))
    k_nodes, f_nodes = np.concatenate(k_nodes), np.concatenate(f_nodes)
    k_max = len(k_nodes)

    def fu(k):
        k = np.abs(np.asarray(k, dtype=float))
        kk = np.minimum(k, k_max)
        j = np.searchsorted(np.arange(1.0, k_max), kk, side="right")  # NaN: last panel
        d = kk[..., None] - k_nodes[j]
        with np.errstate(divide="ignore"):
            q = lam / d
        q = np.where((d == 0.0).any(axis=-1, keepdims=True), d == 0.0, q)
        return np.where(k > k_max, 0.0, (q * f_nodes[j]).sum(axis=-1) / q.sum(axis=-1))

    entry = TestFunction(
        id=f"gaussian_power({n})", eval_u=u, eval_Fu=fu,
        frequency_tail=lambda kc: _sampled_tail(fu, kc, k_max),
        derivative_factory=lambda: _derived_entry(entry, du, eval_dv=d2u),
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
