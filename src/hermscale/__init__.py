"""Scaled Hermite-function approximation on the real line.

Basis evaluation and Gaussian expansion coefficients, collocation grids and
discrete transforms, a test-function catalog with analytic Fourier
transforms, the spatial/frequency/residual error indicator with its
scaling-factor balancer, a Galerkin solver for -u'' + gamma*u = f, and an
experiment harness (`hermscale` on the command line).
"""

from .basis import (ScaledBasis, SpectralCoeffs, derivative_matrix,
                    differentiate, eval_hermite_functions, eval_scaled_basis,
                    fourier_dual_coeffs, gaussian_coefficients, synthesize)
from .errors import (AccuracyError, BracketError, DegenerateBalanceError,
                     HermscaleError)
from .fourier import (TestFunction, algebraic, catalog_entry, gaussian,
                      gaussian_power, plain_gaussian, tail_norm)
from .galerkin import (ModelProblem, discrete_solution_error,
                       manufactured_problem, solution_error, solve)
from .operators import (ErrorBreakdown, balance_scaling, error_breakdown,
                        indicator_sum, interpolate, project, projection_error,
                        residual_l2, transition_point)
from .quadrature import CollocationGrid, analysis, compute_grid, synthesis

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BracketError", "CollocationGrid",
    "DegenerateBalanceError", "ErrorBreakdown", "HermscaleError",
    "ModelProblem", "ScaledBasis", "SpectralCoeffs", "TestFunction",
    "algebraic", "analysis", "balance_scaling", "catalog_entry",
    "compute_grid", "derivative_matrix", "differentiate",
    "discrete_solution_error", "error_breakdown", "eval_hermite_functions",
    "eval_scaled_basis", "fourier_dual_coeffs", "gaussian",
    "gaussian_coefficients", "gaussian_power", "indicator_sum",
    "interpolate", "manufactured_problem", "plain_gaussian", "project",
    "projection_error", "residual_l2", "solution_error", "solve",
    "synthesis", "synthesize", "tail_norm", "transition_point",
]
