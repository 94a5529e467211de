"""Scaled Hermite-Galerkin discretization of -u'' + gamma*u = f on the line.

In the orthonormal scaled basis the stiffness-plus-mass matrix is
pentadiagonal with couplings only at |m - n| in {0, 2}:

    A[n, n]   = beta**2 * (2n+1)/2 + gamma,
    A[n, n+2] = -beta**2 * sqrt((n+1)(n+2))/2,

so the system splits into independent even- and odd-index tridiagonal SPD
blocks solved by banded Cholesky.  The right-hand side is the coefficient
vector of the interpolant of f (interpolation, then an identity mass
matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .basis import ScaledBasis, SpectralCoeffs, differentiate
from .fourier import TestFunction, tail_norm
from .operators import interpolate, residual_l2
from .quadrature import CollocationGrid, synthesis


@dataclass(frozen=True)
class ModelProblem:
    """-u'' + gamma*u = f with u -> 0 at infinity; gamma > 0 for coercivity."""

    gamma: float
    rhs: TestFunction
    exact: Optional[TestFunction] = None

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class GalerkinSystem:
    """Diagonal and |m-n|=2 couplings of the assembled operator."""

    basis: ScaledBasis
    diag: np.ndarray
    offdiag2: np.ndarray


def assemble(basis: ScaledBasis, gamma: float) -> GalerkinSystem:
    """Closed-form entries of (phi_m', phi_n') + gamma*(phi_m, phi_n)."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = np.arange(basis.n_max + 1)
    b2 = basis.beta ** 2
    diag = b2 * (2 * n + 1) / 2.0 + gamma
    m = n[:-2] if basis.n_max >= 2 else np.empty(0, dtype=int)
    offdiag2 = -b2 * np.sqrt((m + 1.0) * (m + 2.0)) / 2.0
    return GalerkinSystem(basis, diag, offdiag2)


def _solve_tridiagonal_spd(diag, off, rhs):
    """Banded Cholesky solve of the SPD tridiagonal system."""
    if diag.size == 0:
        return rhs.copy()
    if diag.size == 1:  # scipy's banded path rejects the degenerate case
        return rhs / diag
    ab = np.zeros((2, diag.size))
    ab[0, 1:] = off
    ab[1] = diag
    return solveh_banded(ab, rhs)


def _apply(system: GalerkinSystem, c):
    out = system.diag * c
    if system.offdiag2.size:
        out[:-2] += system.offdiag2 * c[2:]
        out[2:] += system.offdiag2 * c[:-2]
    return out


def solve(problem: ModelProblem, basis: ScaledBasis,
          grid: CollocationGrid) -> SpectralCoeffs:
    """Galerkin solution coefficients for the given basis and grid."""
    b = interpolate(problem.rhs, basis, grid).values
    system = assemble(basis, problem.gamma)

    c = np.empty_like(b)
    try:
        for start in (0, 1):
            sl = slice(start, None, 2)
            c[sl] = _solve_tridiagonal_spd(system.diag[sl],
                                           system.offdiag2[sl][:], b[sl])
    except LinAlgError as exc:  # pragma: no cover - impossible for gamma > 0
        raise RuntimeError(
            f"Cholesky failed for gamma={problem.gamma}, N={basis.n_max}, "
            f"beta={basis.beta}: this indicates a bug, the operator is SPD"
        ) from exc

    residual = np.max(np.abs(_apply(system, c) - b))
    scale = np.max(np.abs(b))
    if scale > 0 and residual > 1e-10 * scale:
        raise RuntimeError(f"banded solve residual {residual:.3e} exceeds "
                           f"1e-10 * ||b||_inf = {1e-10 * scale:.3e}")
    return SpectralCoeffs(basis, c)


def manufactured_problem(exact: TestFunction, gamma: float = 1.0) -> ModelProblem:
    """Model problem whose exact solution is the given catalog entry.

    The right-hand side gamma*u - u'' is wrapped as a catalog entry of its
    own: F[f] = (gamma + k**2)*F[u] in closed form, tails by adaptive
    quadrature.
    """
    if exact.eval_d2u is None:
        raise ValueError(f"{exact.id}: second derivative required to "
                         "manufacture a right-hand side")

    def f_eval(x):
        return gamma * exact.eval_u(x) - exact.eval_d2u(x)

    def f_transform(k):
        return (gamma + np.asarray(k) ** 2) * exact.eval_Fu(k)

    def f_frequency_tail(kc):
        return tail_norm(f_transform, kc, 1e-9)

    rhs = TestFunction(
        id=f"rhs[{exact.id},gamma={gamma:g}]",
        eval_u=f_eval,
        eval_Fu=f_transform,
        spatial_tail=lambda m: tail_norm(f_eval, m, 1e-9),
        frequency_tail=f_frequency_tail,
        l2_norm=tail_norm(f_eval, 0.0, 1e-9),
        decay_meta=exact.decay_meta,
    )
    return ModelProblem(gamma=gamma, rhs=rhs, exact=exact)


def discrete_solution_error(coeffs: SpectralCoeffs, exact: TestFunction,
                            grid: CollocationGrid) -> float:
    """Collocation-grid L2 error: Hermite-Gauss quadrature of the squared
    pointwise error at the scaled nodes.

    Blind to mass outside the collocation interval, which is precisely why
    the reference convergence tables are stated in this norm; the
    full-line norm is solution_error.
    """
    beta = coeffs.basis.beta
    diff = exact.eval_u(grid.scaled_nodes(beta)) - synthesis(grid, coeffs)
    sq = (diff * diff.conjugate()).real
    return math.sqrt(float(np.sum(grid.weights * sq)) / beta)


def solution_error(coeffs: SpectralCoeffs, exact: TestFunction,
                   include_h1: bool = True, rel_tol: float = 1e-9) -> dict:
    """L2 (and H1) distance between the exact solution and the coefficients.

    The H1 part synthesizes the discrete derivative through the coefficient
    derivative map and needs the exact derivative evaluator.
    """
    l2 = residual_l2(exact.eval_u, exact.spatial_tail, coeffs, rel_tol=rel_tol)
    out = {"l2": l2, "h1": None}
    if not include_h1:
        return out
    if exact.eval_du is None:
        raise ValueError(f"{exact.id}: derivative evaluator required for the "
                         "H1 error")
    dcoeffs = differentiate(coeffs)
    if exact.derivative_factory is not None:
        d_tail = exact.derivative().spatial_tail
    else:
        d_tail = lambda m: tail_norm(exact.eval_du, m, 1e-9)
    dl2 = residual_l2(exact.eval_du, d_tail, dcoeffs, rel_tol=rel_tol)
    out["h1"] = math.sqrt(l2 * l2 + dl2 * dl2)
    return out
