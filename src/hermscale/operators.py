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

import numpy as np

from ._integrate import adaptive_quad
from .basis import ScaledBasis, SpectralCoeffs, eval_scaled_basis, synthesize
from .errors import AccuracyError, BracketError, DegenerateBalanceError
from .fourier import TestFunction
from .quadrature import CollocationGrid, analysis

# Cutoff constants of the indicator and the rate of its residual term.
SPATIAL_CUTOFF_FACTOR = 1.0 / (2.0 * math.sqrt(2.0))
FREQUENCY_CUTOFF_FACTOR = 1.0 / (2.0 * math.sqrt(2.0))
HERMITE_DECAY_RATE = 1.0 / 16.0


@dataclass(frozen=True)
class ErrorBreakdown:
    """The three indicator components and their sum."""

    spatial: float
    frequency: float
    hermite: float
    total: float = None

    def __post_init__(self):
        for name in ("spatial", "frequency", "hermite"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} component must be finite and >= 0, got {v}")
        object.__setattr__(self, "total",
                           self.spatial + self.frequency + self.hermite)


def support_radius(basis: ScaledBasis, pad: float = 12.0) -> float:
    """Half-width beyond which every basis element is numerically negligible.

    The turning point of phi_N sits at sqrt(2N+1)/beta; `pad` extra units in
    the unscaled variable push the envelope below ~1e-30.
    """
    return (math.sqrt(2.0 * basis.n_max + 1.0) + pad) / basis.beta


def project(u: TestFunction, basis: ScaledBasis, tol: float = 1e-11) -> SpectralCoeffs:
    """L2-orthogonal projection coefficients (u, phi_n), n <= N.

    All N+1 coefficients are integrated in one adaptive pass over the window
    where the basis lives (outside it the integrand is below the tolerance
    budget regardless of u), each to absolute accuracy tol.
    """
    if tol < 1e-12:
        raise ValueError(f"tol must be >= 1e-12, got {tol}")
    x_max = support_radius(basis)
    size = basis.size

    if u.complex_valued:
        def f(x):
            phi = eval_scaled_basis(basis, x)
            uv = u.eval_u(x)
            return np.concatenate([phi * uv.real, phi * uv.imag], axis=0).T
    else:
        def f(x):
            return (eval_scaled_basis(basis, x) * u.eval_u(x)).T

    try:
        vals = adaptive_quad(f, -x_max, x_max, abs_tol=tol, rel_tol=0.0,
                             initial=max(32, basis.n_max + 16),
                             max_panels=40000, label="projection coefficient")
    except AccuracyError as exc:
        raise AccuracyError(
            f"projection onto basis (N={basis.n_max}, beta={basis.beta:g}) "
            f"did not converge: {exc}", achieved=exc.achieved) from exc
    if u.complex_valued:
        vals = vals[:size] + 1j * vals[size:]
    return SpectralCoeffs(basis, vals)


def interpolate(u: TestFunction, basis: ScaledBasis,
                grid: CollocationGrid) -> SpectralCoeffs:
    """Interpolant coefficients from samples at the scaled nodes x_j/beta."""
    if grid.n_max != basis.n_max:
        raise ValueError(f"grid size {grid.size} does not match basis size "
                         f"{basis.size}")
    values = u.eval_u(grid.scaled_nodes(basis.beta))
    return analysis(grid, values, basis.beta)


def residual_l2(eval_u, spatial_tail, coeffs: SpectralCoeffs,
                rel_tol: float = 1e-9) -> float:
    """|| u - (function represented by coeffs) || in L2.

    Adaptive quadrature of the squared pointwise residual over the basis
    support window, plus u's own tail mass beyond it (where the synthesized
    part is negligible).
    """
    x_max = support_radius(coeffs.basis)

    def f(x):
        r = eval_u(x) - synthesize(coeffs, x)
        return (r * r.conjugate()).real

    # Below the cancellation floor of u(x) - u_N(x) the integrand is pure
    # roundoff noise; refining past that scale cannot converge.
    noise = 2e-14 * max(1.0, float(np.linalg.norm(coeffs.values)))
    floor = noise * noise * 2.0 * x_max
    core = adaptive_quad(f, -x_max, x_max, abs_tol=max(1e-30, floor),
                         rel_tol=rel_tol,
                         initial=max(32, 2 * coeffs.basis.n_max + 16),
                         max_panels=40000, label="squared residual")
    tail = spatial_tail(x_max)
    return math.sqrt(max(core, 0.0) + tail * tail)


def projection_error(u: TestFunction, basis: ScaledBasis,
                     tol: float = 1e-11) -> float:
    """Measured best-approximation error ||u - proj_N^beta u||."""
    coeffs = project(u, basis, tol=tol)
    return residual_l2(u.eval_u, u.spatial_tail, coeffs)


def interpolation_error(u: TestFunction, basis: ScaledBasis,
                        grid: CollocationGrid) -> float:
    """Measured interpolation error ||u - interp_N^beta u||."""
    coeffs = interpolate(u, basis, grid)
    return residual_l2(u.eval_u, u.spatial_tail, coeffs)


def error_breakdown(u: TestFunction, basis: ScaledBasis) -> ErrorBreakdown:
    """Indicator components of u for the given (N, beta)."""
    root_n = math.sqrt(basis.n_max)
    return ErrorBreakdown(
        spatial=u.spatial_tail(SPATIAL_CUTOFF_FACTOR * root_n / basis.beta),
        frequency=u.frequency_tail(FREQUENCY_CUTOFF_FACTOR * root_n * basis.beta),
        hermite=u.l2_norm * math.exp(-HERMITE_DECAY_RATE * basis.n_max),
    )


def indicator_sum(u: TestFunction, derivatives, basis: ScaledBasis,
                  level: int = 0) -> float:
    """Derivative-level indicator.

    level 0: E(u); level 1: E(u') + beta*sqrt(N)*E(u);
    level 2: E(u'') + beta*E(u') + beta**2*N*E(u); coefficients exactly as
    in the derivative-error bounds (the level-2 middle factor is beta, not
    beta*sqrt(N)).
    """
    if level not in (0, 1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {level}")
    derivatives = list(derivatives or [])
    if len(derivatives) < level:
        raise ValueError(f"level {level} needs {level} derivative entries, "
                         f"got {len(derivatives)}")
    beta, n = basis.beta, basis.n_max
    e_u = error_breakdown(u, basis).total
    if level == 0:
        return e_u
    e_du = error_breakdown(derivatives[0], basis).total
    if level == 1:
        return e_du + beta * math.sqrt(n) * e_u
    e_d2u = error_breakdown(derivatives[1], basis).total
    return e_d2u + beta * e_du + beta * beta * n * e_u


def balance_scaling(u: TestFunction, n_max: int, bracket,
                    log_tol: float = 1e-6) -> float:
    """Scale beta* equalizing the spatial and frequency indicator components.

    Bisection on log(spatial) - log(frequency), which is monotone increasing
    in beta (the spatial cutoff shrinks, the frequency cutoff grows).  When
    one tail underflows to zero the bisection clamps toward the bracket edge
    and reports saturation instead of inventing a root.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
    root_n = math.sqrt(n_max)

    def log_diff(beta):
        e_s = u.spatial_tail(SPATIAL_CUTOFF_FACTOR * root_n / beta)
        e_f = u.frequency_tail(FREQUENCY_CUTOFF_FACTOR * root_n * beta)
        if e_s == 0.0 and e_f == 0.0:
            return 0.0
        if e_s == 0.0:
            return -math.inf
        if e_f == 0.0:
            return math.inf
        return math.log(e_s) - math.log(e_f)

    g_lo, g_hi = log_diff(lo), log_diff(hi)
    if abs(g_lo) < log_tol:
        return lo
    if abs(g_hi) < log_tol:
        return hi
    if not (g_lo < 0.0 < g_hi):
        raise BracketError(
            f"{u.id}: spatial/frequency log-difference does not change sign "
            f"on beta bracket [{lo:g}, {hi:g}]", f_lo=g_lo, f_hi=g_hi)
    g_mid = math.inf
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        g_mid = log_diff(mid)
        if abs(g_mid) < log_tol:
            return mid
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise AccuracyError(
        f"{u.id}: balance bisection saturated near beta={0.5 * (lo + hi):g} "
        f"without reaching |log-difference| < {log_tol:g} (tail underflow "
        f"or discontinuity)", achieved=abs(g_mid) if math.isfinite(g_mid) else None)


def transition_point(u: TestFunction, bracket, width_tol: float = 1e-3) -> float:
    """Collocation half-width c = sqrt(2N) at which the raw spatial and
    frequency tails over [-c, c] balance.

    Returns the root of c -> spatial_tail(c) - frequency_tail(c) by
    bisection; the corresponding truncation index is c**2/2.  Self-dual
    inputs make the difference vanish identically and are rejected as
    degenerate.
    """
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
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
