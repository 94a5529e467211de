"""Scaled Hermite-function approximation on the real line.

Basis evaluation and Gaussian expansion coefficients, collocation grids and
discrete transforms, a test-function catalog with analytic Fourier
transforms, the spatial/frequency/residual error indicator with its
scaling-factor balancer, a Galerkin solver for -u'' + gamma*u = f, and an
experiment harness (`hermscale` on the command line).
"""

from .basis import (GaussianParams, ScaledBasis, SpectralCoeffs,
                    derivative_matrix, differentiate, eval_hermite_functions,
                    eval_scaled_basis, fourier_dual_coeffs,
                    gaussian_coefficients, gaussian_coefficients_recurrence,
                    synthesize)
from .errors import (AccuracyError, BracketError, DegenerateBalanceError,
                     HermscaleError)
from .fourier import (DecayMeta, TestFunction, algebraic, algebraic_transform,
                      bessel_k, catalog_entry, gaussian, gaussian_power,
                      plain_gaussian, tail_norm)
from .galerkin import (GalerkinSystem, ModelProblem, assemble,
                       discrete_solution_error, manufactured_problem,
                       solution_error, solve)
from .operators import (ErrorBreakdown, balance_scaling, error_breakdown,
                        indicator_sum, interpolate, interpolation_error,
                        project, projection_error, transition_point)
from .quadrature import CollocationGrid, analysis, compute_grid, synthesis

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BracketError", "CollocationGrid", "DecayMeta",
    "DegenerateBalanceError", "ErrorBreakdown", "GalerkinSystem",
    "GaussianParams", "HermscaleError", "ModelProblem", "ScaledBasis",
    "SpectralCoeffs", "TestFunction", "algebraic", "algebraic_transform",
    "analysis", "assemble", "balance_scaling", "bessel_k", "catalog_entry",
    "compute_grid", "derivative_matrix", "differentiate",
    "discrete_solution_error", "error_breakdown",
    "eval_hermite_functions", "eval_scaled_basis", "fourier_dual_coeffs",
    "gaussian", "gaussian_coefficients", "gaussian_coefficients_recurrence",
    "gaussian_power", "indicator_sum", "interpolate", "interpolation_error",
    "manufactured_problem", "plain_gaussian", "project",
    "projection_error", "solution_error", "solve", "synthesis", "synthesize",
    "tail_norm", "transition_point",
]
