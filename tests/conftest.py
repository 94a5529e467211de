"""Shared oracles for the test suite.

The quadrature helpers here deliberately avoid the package's own adaptive
integrator: the Gram oracle is a fixed composite Gauss-Legendre rule and the
Fourier oracle goes through scipy.integrate.quad, so inner products asserted
in tests are measured by machinery the library does not use for them.
"""

import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

import hermscale as hs
from hermscale import cli
from hermscale.errors import AccuracyError, BracketError, DegenerateBalanceError

# Fixed example sequence: the property tests draw the same inputs every run.
settings.register_profile("hermscale", derandomize=True, deadline=None)
settings.load_profile("hermscale")


def hermite_value(n, x):
    """Single Hermite-function value via the package evaluator."""
    return float(hs.eval_hermite_functions(np.asarray(float(x)), n)[n])


def gram_matrix_by_quadrature(basis, size, tol=1e-12):
    """Gram matrix of the first `size` scaled basis elements by fixed
    composite 32-point Gauss-Legendre quadrature on [-cut, cut].

    Every entry comes from one product of the sampled basis with itself; the
    rule on 128 uniform panels must agree with the rule on 64 to within tol.
    """
    cut = (np.sqrt(2.0 * basis.n_max + 1.0) + 20.0) / basis.beta
    prefix = hs.ScaledBasis(size - 1, basis.beta)
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def gram(panels):
        half = cut / panels
        left = np.linspace(-cut, cut, panels + 1)[:-1, None]
        x = (left + half * (1.0 + nodes)).ravel()
        phi = hs.eval_scaled_basis(prefix, x)
        return (phi * np.tile(half * weights, panels)) @ phi.T

    coarse, g = gram(64), gram(128)
    assert np.abs(g - coarse).max() <= tol, "Gram oracle did not converge"
    return g


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


@pytest.fixture(scope="session")
def small_catalog():
    """Catalog slice used by lattice-style checks (kept session-scoped: the
    gaussian_power entries precompute their transform samples)."""
    return [
        hs.plain_gaussian(1.0),
        hs.plain_gaussian(2.0),
        hs.gaussian(1.0, 0.0),
        hs.gaussian(2.0, 1.0),
        hs.algebraic(1.0),
        hs.algebraic(2.0),
        hs.algebraic(3.0),
        hs.gaussian_power(2),
        hs.gaussian_power(4),
    ]


_ORACLE_PI_M4 = np.pi ** -0.25
_ORACLE_LN2 = np.log(2.0)
_ORACLE_RESCALE_BITS = 600
_ORACLE_RESCALE = 2.0 ** _ORACLE_RESCALE_BITS
_ORACLE_UNSCALE = 2.0 ** -_ORACLE_RESCALE_BITS


def oracle_hermite_rows(x, n_max):
    """The Hermite-function row recurrence as it stood before it ran in
    place: a fresh array per row, a rescale test on every row at 2**600.
    Kept as the bitwise reference for basis._hermite_rows."""
    x = np.clip(x, -1e150, 1e150)
    cur = _ORACLE_PI_M4 * np.exp(-0.5 * x * x)
    scale = None
    under = cur < np.finfo(float).tiny
    if under.any():
        ls = -0.5 * x[under] ** 2 - 0.25 * np.log(np.pi)
        exponent = np.zeros(x.shape, dtype=np.int64)
        exponent[under] = np.maximum(np.floor(ls / _ORACLE_LN2), -2.0 ** 62)
        cur[under] = np.exp(ls - exponent[under] * _ORACLE_LN2)
        scale = np.ldexp(1.0, exponent + _ORACLE_RESCALE_BITS)

    def emit(v):
        return v if scale is None else v * scale * _ORACLE_UNSCALE

    prev = np.zeros_like(x)
    yield emit(cur)
    for n in range(n_max):
        prev, cur = cur, (x * math.sqrt(2.0 / (n + 1)) * cur
                          - math.sqrt(n / (n + 1)) * prev)
        if scale is not None:
            big = np.abs(cur) > _ORACLE_RESCALE
            if big.any():
                prev[big] *= _ORACLE_UNSCALE
                cur[big] *= _ORACLE_UNSCALE
                exponent[big] += _ORACLE_RESCALE_BITS
                scale[big] = np.ldexp(1.0, exponent[big] + _ORACLE_RESCALE_BITS)
        yield emit(cur)


# The three bisection loops as they stood before they shared
# operators._bisect, verbatim but for the module constants written out: the
# bitwise reference for balance_scaling, transition_point and
# detect_slope_change.


def oracle_balance_scaling(u, n_max, bracket):
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")

    def log_diff(beta):
        tails = hs.error_breakdown(u, hs.ScaledBasis(n_max, beta))
        e_s, e_f = tails.spatial, tails.frequency
        if e_s == 0.0 and e_f == 0.0:
            return 0.0
        if e_s == 0.0:
            return -math.inf
        if e_f == 0.0:
            return math.inf
        return math.log(e_s) - math.log(e_f)

    g_lo, g_hi = log_diff(lo), log_diff(hi)
    if abs(g_lo) < 1e-6:
        return lo
    if abs(g_hi) < 1e-6:
        return hi
    if not (g_lo < 0.0 < g_hi):
        raise BracketError(
            f"{u.id}: spatial/frequency log-difference does not change sign "
            f"on beta bracket [{lo:g}, {hi:g}]", f_lo=g_lo, f_hi=g_hi)
    g_mid = math.inf
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        g_mid = log_diff(mid)
        if abs(g_mid) < 1e-6:
            return mid
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise AccuracyError(
        f"{u.id}: balance bisection saturated near beta={0.5 * (lo + hi):g} "
        f"without reaching |log-difference| < {1e-6:g} (tail underflow "
        f"or discontinuity)", achieved=abs(g_mid) if math.isfinite(g_mid) else None)


def oracle_transition_point(u, bracket):
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 <= lo < hi:
        raise ValueError(f"bracket must satisfy 0 <= lo < hi, got {bracket}")

    def f(c):
        return u.spatial_tail(c) - u.frequency_tail(c)

    f_lo, f_hi = f(lo), f(hi)
    if max(abs(f_lo), abs(f(0.5 * (lo + hi))), abs(f_hi)) < 1e-12:
        raise DegenerateBalanceError(
            f"{u.id}: tail difference vanishes across [{lo:g}, {hi:g}]; "
            "every cutoff balances (self-dual input)")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(f"{u.id}: tail difference does not change sign on "
                           f"[{lo:g}, {hi:g}]", f_lo=f_lo, f_hi=f_hi)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_detect_slope_change(records):
    ns, log_e = cli._usable(records, 0.0, 8)

    best = None
    for i in range(3, len(ns) - 3):
        s1, c1 = cli._least_squares_fit(np.sqrt(ns[:i + 1]), log_e[:i + 1])[:2]
        s2, c2 = cli._least_squares_fit(np.log(ns[i:]), log_e[i:])[:2]
        res1 = log_e[:i + 1] - (s1 * np.sqrt(ns[:i + 1]) + c1)
        res2 = log_e[i:] - (s2 * np.log(ns[i:]) + c2)
        ssr = float(res1 @ res1 + res2 @ res2)
        if best is None or ssr < best[0]:
            best = (ssr, i, s1, c1, s2, c2)
    _, i, s1, c1, s2, c2 = best

    def gap(n):
        return (s1 * math.sqrt(n) + c1) - (s2 * math.log(n) + c2)

    lo, hi = ns[0], ns[-1]
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo * g_hi < 0:
        while hi - lo > 1e-3 * lo:
            mid = 0.5 * (lo + hi)
            if gap(mid) * g_lo > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    return math.sqrt(ns[i] * ns[i + 1])  # fits never cross: report the split
