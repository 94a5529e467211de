"""Scaled Hermite-Galerkin discretization of -u'' + gamma*u = f on the line.

In the orthonormal scaled basis the stiffness-plus-mass matrix is
pentadiagonal with couplings only at |m - n| in {0, 2}:

    A[n, n]   = beta**2 * (2n+1)/2 + gamma,
    A[n, n+2] = -beta**2 * sqrt((n+1)(n+2))/2,

so the system splits into independent even- and odd-index tridiagonal SPD
blocks, each solved by an LDL^T (Thomas) sweep.  The right-hand side is the
coefficient vector of the interpolant of f (interpolation, then an identity
mass matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ScaledBasis, SpectralCoeffs, differentiate
from .fourier import TestFunction
from .operators import _residuals, interpolate
from .quadrature import _grid, _transform


@dataclass(frozen=True)
class ModelProblem:
    """-u'' + gamma*u = f with u -> 0 at infinity; gamma > 0 for coercivity."""

    gamma: float
    rhs: TestFunction

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def assemble(basis: ScaledBasis, gamma: float) -> tuple:
    """Closed-form entries of (phi_m', phi_n') + gamma*(phi_m, phi_n): the
    diagonal and the |m-n| = 2 couplings, as (diag, offdiag2)."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = np.arange(basis.n_max + 1)
    b2 = basis.beta ** 2
    diag = b2 * (2 * n + 1) / 2.0 + gamma
    m = n[:-2]
    offdiag2 = -b2 * np.sqrt((m + 1.0) * (m + 2.0)) / 2.0
    return diag, offdiag2


def _solve_tridiagonal_spd(diag, off, rhs):
    """LDL^T solve of the SPD tridiagonal system with diagonal `diag` and
    sub/super-diagonal `off`: l_i = off[i-1] / d[i-1], d_i = diag[i] - l_i*off[i-1],
    then forward, diagonal and backward substitution."""
    d, e, z = diag.tolist(), off.tolist(), rhs.tolist() + [0.0]
    ell = [0.0] * (len(d) + 1)
    for i in range(1, len(d)):
        ell[i] = e[i - 1] / d[i - 1]
        d[i] -= ell[i] * e[i - 1]
        z[i] -= ell[i] * z[i - 1]
    for i in reversed(range(len(d))):
        z[i] = z[i] / d[i] - ell[i + 1] * z[i + 1]
    return np.array(z[:-1], dtype=rhs.dtype)


def solve(problem: ModelProblem, basis: ScaledBasis) -> SpectralCoeffs:
    """Galerkin solution coefficients for the given basis; the right-hand
    side is interpolated on the grid of size basis.size."""
    return _solve(problem, basis, interpolate(problem.rhs, basis).values)


def _solve(problem: ModelProblem, basis: ScaledBasis, b: np.ndarray) -> SpectralCoeffs:
    """Even and odd Thomas sweeps for the right-hand side b, residual-checked."""
    diag, offdiag2 = assemble(basis, problem.gamma)
    c = np.empty_like(b)
    for start in (0, 1):
        sl = slice(start, None, 2)
        c[sl] = _solve_tridiagonal_spd(diag[sl], offdiag2[sl], b[sl])

    ac = diag * c
    ac[:-2] += offdiag2 * c[2:]
    ac[2:] += offdiag2 * c[:-2]
    residual = np.max(np.abs(ac - b))
    scale = np.max(np.abs(b))
    if scale > 0 and residual > 1e-10 * scale:
        raise RuntimeError(f"tridiagonal solve residual {residual:.3e} exceeds "
                           f"1e-10 * ||b||_inf = {1e-10 * scale:.3e}")
    return SpectralCoeffs(basis, c)


def manufactured_problem(exact: TestFunction, gamma: float = 1.0) -> ModelProblem:
    """Model problem whose exact solution is the given catalog entry.

    The right-hand side gamma*u - u'' is wrapped as a catalog entry of its
    own: u'' is exact.derivative().derivative(), F[f] = (gamma + k**2)*F[u]
    in closed form, tails by adaptive quadrature.
    """
    d2u = exact.derivative().derivative().eval_u

    def f_eval(x):
        return gamma * exact.eval_u(x) - d2u(x)

    def f_transform(k):
        return (gamma + np.asarray(k) ** 2) * exact.eval_Fu(k)

    rhs = TestFunction(
        id=f"rhs[{exact.id},gamma={gamma:g}]",
        eval_u=f_eval,
        eval_Fu=f_transform,
    )
    return ModelProblem(gamma=gamma, rhs=rhs)


def discrete_solution_error(coeffs: SpectralCoeffs, exact: TestFunction) -> float:
    """Collocation-grid L2 error: Hermite-Gauss quadrature of the squared
    pointwise error at the scaled nodes, which discrete orthonormality makes
    ||a - c|| with a the interpolant coefficients of exact.

    Blind to mass outside the collocation interval, which is precisely why
    the reference convergence tables are stated in this norm; the
    full-line norm is solution_error.
    """
    return float(np.linalg.norm(interpolate(exact, coeffs.basis).values - coeffs.values))


def _discrete_point(problem, exact, basis):
    """solve and discrete_solution_error from one two-column row stream."""
    grid = _grid(basis.n_max)
    x = grid.nodes / basis.beta
    samples = np.stack([problem.rhs.eval_u(x), exact.eval_u(x)], 1)
    b, a = _transform(grid, samples, basis.beta).T
    coeffs = _solve(problem, basis, b)
    return coeffs, float(np.linalg.norm(a - coeffs.values))


def solution_error(coeffs: SpectralCoeffs, exact: TestFunction) -> dict:
    """L2 and H1 distance between the exact solution and the coefficients.

    The H1 part measures the discrete derivative (the coefficient derivative
    map) against the entry exact.derivative().  Both residuals come from one
    adaptive pass over the derivative basis's window, so "l2" may differ in
    its last bits from residual_l2(exact, coeffs).  Like residual_l2, the
    pass is folded onto x >= 0 by parity, h_n(-x) = (-1)**n h_n(x).
    """
    l2, dl2 = _residuals([exact, exact.derivative()],
                         [coeffs, differentiate(coeffs)]).tolist()
    return {"l2": l2, "h1": math.sqrt(l2 * l2 + dl2 * dl2)}
