"""Scaled projection/interpolation operators and the error indicator.

The indicator splits the best-approximation error of a truncated scaled
Hermite expansion (truncation index N, scale beta) into

    spatial   = || u * 1_{|x| > sqrt(N)/(2*sqrt(2)*beta)} ||,
    frequency = || F[u] * 1_{|k| > sqrt(N)*beta/(2*sqrt(2))} ||,
    hermite   = ||u|| * exp(-N/16),

whose sum bounds the projection error up to a fixed constant.  Balancing
the first two components in beta is the optimal-scaling rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._integrate import adaptive_quad
from .basis import _BLOCK_ROWS, ScaledBasis, SpectralCoeffs, _hermite_rows, _points, _series
from .errors import AccuracyError, BracketError, DegenerateBalanceError
from .fourier import TestFunction
from .quadrature import _grid, analysis

# Cutoff constants of the indicator and the rate of its residual term.
SPATIAL_CUTOFF_FACTOR = 1.0 / (2.0 * math.sqrt(2.0))
FREQUENCY_CUTOFF_FACTOR = 1.0 / (2.0 * math.sqrt(2.0))
HERMITE_DECAY_RATE = 1.0 / 16.0

_SUPPORT_PAD = 12.0  # unscaled units past phi_N's turning point: envelope < ~1e-30
_RESIDUAL_REL_TOL = 1e-9  # of residual_l2's squared-residual integral
_BALANCE_LOG_TOL = 1e-6  # balance_scaling's |log(spatial) - log(frequency)| stop
_ROOT_WIDTH = 1e-3  # transition_point's final bracket width


@dataclass(frozen=True)
class ErrorBreakdown:
    """The three indicator components and their sum."""

    spatial: float
    frequency: float
    hermite: float

    def __post_init__(self):
        for name in ("spatial", "frequency", "hermite"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} component must be finite and >= 0, got {v}")

    @property
    def total(self) -> float:
        return self.spatial + self.frequency + self.hermite


def support_radius(basis: ScaledBasis) -> float:
    """Half-width beyond which every basis element is numerically negligible:
    the turning point sqrt(2N+1)/beta of phi_N plus _SUPPORT_PAD/beta."""
    return (math.sqrt(2.0 * basis.n_max + 1.0) + _SUPPORT_PAD) / basis.beta


def _panel_edges(basis: ScaledBasis, phase: float) -> np.ndarray:
    """Initial panel edges on [0, support_radius(basis)], each spanning an
    equal share of the integral of phi_N's local wavenumber k in t = beta*x,
    max(16, ceil(total / phase)) of them, so that each spans about `phase`
    radians of phi_N.  Inside the turning point T = sqrt(2N+1),
    k = sqrt(T**2 - t**2).  Near T, phi_N ~ Ai(a * (t - T)) varies on the
    Airy length 1/a, a = (2T)**(1/3), however small k gets: k falls to a one
    Airy length inside T and stays a from there to the window's end."""
    T = math.sqrt(2.0 * basis.n_max + 1.0)
    # k <= T for N >= 1: 8 steps a panel of the phase bound T * (T + pad).
    steps = 8 * max(16, math.ceil(T * (T + _SUPPORT_PAD) / phase))
    t = np.linspace(0.0, T + _SUPPORT_PAD, steps + 1)
    k = np.sqrt(np.maximum(T * T - t * t, (2.0 * T) ** (2.0 / 3.0)))
    k_sum = np.r_[0.0, np.cumsum(k[1:] + k[:-1])] * (0.5 * t[1])  # trapezoid rule
    count = max(16, math.ceil(k_sum[-1] / phase))
    return np.interp(np.linspace(0.0, k_sum[-1], count + 1), k_sum, t) / basis.beta


def project(u: TestFunction, basis: ScaledBasis, tol: float = 1e-11) -> SpectralCoeffs:
    """L2-orthogonal projection coefficients (u, phi_n), n <= N.

    All N+1 coefficients are integrated in one adaptive pass over the window
    where the basis lives (outside it the integrand is below the tolerance
    budget regardless of u), each to absolute accuracy tol.  By parity,
    phi_n(-x) = (-1)**n phi_n(x), the window folds onto x >= 0, where row n is
    phi_n(x) * (u(x) + (-1)**n u(-x)) for any u; the integrand writes these
    rows into one reused block of _BLOCK_ROWS rows, so the basis matrix is
    never built.
    """
    if not 1e-12 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 1e-12, got {tol}")
    root_beta = math.sqrt(basis.beta)

    def f(x):
        ux, u_x = u.eval_u(x), u.eval_u(-x)
        sums = (ux + u_x, ux - u_x)  # row n takes sums[n % 2]
        block = np.empty((_BLOCK_ROWS, x.size), dtype=np.result_type(ux, float))
        rows = _hermite_rows(basis.beta * x, basis.n_max)
        for start in range(0, basis.size, _BLOCK_ROWS):
            part = block[:basis.size - start]
            for n, (out, row) in enumerate(zip(part, rows), start):
                np.multiply(np.multiply(row, root_beta, out=out), sums[n % 2], out=out)
            yield part

    # 12 radians of phi_N a panel: K31 accepts each in its first round at
    # the fullline workload's points, N = 64 .. 1024.
    vals = adaptive_quad(f, _panel_edges(basis, 12.0), abs_tol=tol, rel_tol=0.0, max_panels=20000,
                         label=f"projection coefficient (N={basis.n_max}, beta={basis.beta:g})")
    return SpectralCoeffs(basis, vals)


def interpolate(u: TestFunction, basis: ScaledBasis) -> SpectralCoeffs:
    """Interpolant coefficients from samples at the scaled nodes x_j/beta of
    the grid of size basis.size."""
    return analysis(u.eval_u(_grid(basis.n_max).nodes / basis.beta), basis.beta)


def residual_l2(u: TestFunction, coeffs: SpectralCoeffs) -> float:
    """|| u - (function represented by coeffs) || in L2.

    Adaptive quadrature of the squared pointwise residual over the basis
    support window, folded onto its half x >= 0 (see _residuals), plus u's
    own tail mass beyond it (where the synthesized part is negligible).
    """
    return float(_residuals([u], [coeffs])[0])


def _residuals(us, coeffs) -> np.ndarray:
    """residual_l2 of each pair (us[j], coeffs[j]), all at one beta, as a
    (d,) array: one adaptive pass over the largest basis's window and one row
    recurrence, integrating the (d, m) block of squared residuals with each
    component to its own tolerance.  The adaptive refinement serves all d
    components, so with d > 1 the last bits may differ from separate
    residual_l2 calls.  The window is folded onto x >= 0: the integrand is
    r(x)**2 + r(-x)**2, with u_N(+-x) = S_even(x) +- S_odd(x) by parity."""
    basis = max((cf.basis for cf in coeffs), key=lambda b: b.n_max)
    x_max = support_radius(basis)
    # sqrt(beta) goes into c, once: rounding there is a smooth change of u_N,
    # not noise at each point for the error estimate to count near the floor.
    c = np.sqrt(basis.beta) * np.stack(
        [np.pad(cf.values, (0, basis.size - cf.basis.size)) for cf in coeffs], axis=-1)

    def f(x):
        even, odd = _series(c, _points(x, basis.beta))
        exact = np.array([[u.eval_u(side) for u in us] for side in (x, -x)])
        r = exact - np.stack([even + odd, even - odd])
        return (r * r.conjugate()).real.sum(axis=0)

    # Below the cancellation floor of u(x) - u_N(x) the integrand is pure
    # roundoff noise; refining past that scale cannot converge.  Folded or
    # not, the integral is over the whole line, so the floor spans 2 * x_max.
    norms = np.array([np.linalg.norm(cf.values) for cf in coeffs])
    noise = 2e-14 * np.maximum(1.0, norms)
    floor = noise * noise * 2.0 * x_max
    # r**2 oscillates twice as fast as phi_N: 9 radians of phi_N a panel
    # against project's 12.
    core = adaptive_quad(f, _panel_edges(basis, 9.0), abs_tol=np.maximum(1e-30, floor),
                         rel_tol=_RESIDUAL_REL_TOL, max_panels=20000, label="squared residual")
    tails = np.array([u.spatial_tail(x_max) for u in us])
    return np.sqrt(np.maximum(core, 0.0) + tails * tails)


def projection_error(u: TestFunction, basis: ScaledBasis) -> float:
    """Measured best-approximation error ||u - proj_N^beta u||.

    Checked against Parseval's sqrt(||u||**2 - ||c||**2) wherever that is
    above 1e-4 * ||u||, so that its cancellation stays harmless: an
    AccuracyError when the two differ by more than 1e-6 relative.
    """
    coeffs = project(u, basis)
    error = residual_l2(u, coeffs)
    parseval = math.sqrt(max(u.l2_norm ** 2 - coeffs.norm ** 2, 0.0))
    if parseval > 1e-4 * u.l2_norm and abs(error - parseval) > 1e-6 * parseval:
        raise AccuracyError(
            f"{u.id}: projection error {error:.6e} at N={basis.n_max}, "
            f"beta={basis.beta:g} disagrees with Parseval's {parseval:.6e}",
            achieved=abs(error - parseval))
    return error


def error_breakdown(u: TestFunction, basis: ScaledBasis) -> ErrorBreakdown:
    """Indicator components of u for the given (N, beta)."""
    root_n = math.sqrt(basis.n_max)
    return ErrorBreakdown(
        spatial=u.spatial_tail(SPATIAL_CUTOFF_FACTOR * root_n / basis.beta),
        frequency=u.frequency_tail(FREQUENCY_CUTOFF_FACTOR * root_n * basis.beta),
        hermite=u.l2_norm * math.exp(-HERMITE_DECAY_RATE * basis.n_max),
    )


def indicator_sum(u: TestFunction, basis: ScaledBasis, level: int = 0) -> float:
    """Derivative-level indicator, with u' = u.derivative() and
    u'' = u'.derivative().

    level 0: E(u); level 1: E(u') + beta*sqrt(N)*E(u);
    level 2: E(u'') + beta*E(u') + beta**2*N*E(u); coefficients exactly as
    in the derivative-error bounds (the level-2 middle factor is beta, not
    beta*sqrt(N)).  ValueError when u lacks a derivative entry the level needs.
    """
    if level not in (0, 1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {level}")
    beta, n = basis.beta, basis.n_max
    e_u = error_breakdown(u, basis).total
    if level == 0:
        return e_u
    du = u.derivative()
    e_du = error_breakdown(du, basis).total
    if level == 1:
        return e_du + beta * math.sqrt(n) * e_u
    e_d2u = error_breakdown(du.derivative(), basis).total
    return e_d2u + beta * e_du + beta * beta * n * e_u


def _bisect(f, lo, hi, width, what):
    """Bisection for a sign change of f on [lo, hi]: (root, last f value).

    An end where f is exactly 0 is the root; BracketError, carrying both end
    values, when the ends have the same sign.  The bracket is halved until
    hi - lo <= width(lo, hi) and its midpoint returned; a midpoint where f
    is exactly 0 is returned at once.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo, f_lo
    if f_hi == 0.0:
        return hi, f_hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(f"{what} does not change sign on [{lo:g}, {hi:g}]",
                           f_lo=f_lo, f_hi=f_hi)
    f_mid = f_hi
    while hi - lo > width(lo, hi):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, f_mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), f_mid


def balance_scaling(u: TestFunction, n_max: int, bracket) -> float:
    """Scale beta* equalizing the spatial and frequency indicator components.

    Bisection on log(spatial) - log(frequency) from error_breakdown(u,
    ScaledBasis(n_max, beta)), which is monotone increasing in beta (the
    spatial cutoff shrinks, the frequency cutoff grows); n_max and the
    bracket edges get ScaledBasis's domain checks.  When one tail underflows
    to zero the bisection clamps toward the bracket edge and reports
    saturation instead of inventing a root.  A probed beta where both tails
    underflow to zero raises AccuracyError: there the log-difference is
    undefined, and any beta returned would depend on the bracket, not on u.
    For the same reason N = 0 raises DegenerateBalanceError: both cutoffs
    are 0 for every beta, so the log-difference vanishes identically.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
    if ScaledBasis(n_max, lo).n_max == 0:
        raise DegenerateBalanceError(f"{u.id}: at N=0 both tail cutoffs are 0, "
                                     "so the tails balance at every beta")

    def log_diff(beta):  # 0 once balanced to _BALANCE_LOG_TOL
        tails = error_breakdown(u, ScaledBasis(n_max, beta))
        e_s, e_f = tails.spatial, tails.frequency
        if e_s == 0.0 == e_f:
            raise AccuracyError(f"{u.id}: spatial and frequency tails both "
                                f"underflow to 0 at N={n_max}, beta={beta:g}")
        if e_s == 0.0 or e_f == 0.0:
            return math.copysign(math.inf, e_s - e_f)
        g = math.log(e_s) - math.log(e_f)
        return 0.0 if abs(g) < _BALANCE_LOG_TOL else g

    beta, g = _bisect(log_diff, lo, hi, lambda lo, hi: 1e-13 * max(1.0, hi),
                      f"{u.id}: spatial/frequency log-difference over beta")
    if g == 0.0:
        return beta
    raise AccuracyError(
        f"{u.id}: balance bisection saturated near beta={beta:g} "
        f"without reaching |log-difference| < {_BALANCE_LOG_TOL:g} (tail underflow "
        f"or discontinuity)", achieved=abs(g) if math.isfinite(g) else None)


def transition_point(u: TestFunction, bracket) -> float:
    """Collocation half-width c = sqrt(2N) at which the raw spatial and
    frequency tails over [-c, c] balance.

    Returns the root of c -> spatial_tail(c) - frequency_tail(c) by
    bisection to a bracket of width _ROOT_WIDTH; the corresponding truncation index is c**2/2.  Self-dual
    inputs make the difference vanish identically and are rejected as
    degenerate.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 <= lo < hi:
        raise ValueError(f"bracket must satisfy 0 <= lo < hi, got {bracket}")

    @cache  # the bisection re-evaluates the three probes below
    def f(c):
        return u.spatial_tail(c) - u.frequency_tail(c)

    if max(abs(f(lo)), abs(f(0.5 * (lo + hi))), abs(f(hi))) < 1e-12:
        raise DegenerateBalanceError(
            f"{u.id}: tail difference vanishes across [{lo:g}, {hi:g}]; "
            "every cutoff balances (self-dual input)")
    return _bisect(f, lo, hi, lambda lo, hi: _ROOT_WIDTH, f"{u.id}: tail difference")[0]
