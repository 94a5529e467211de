"""The package's public surface: what `import hermscale` offers a user."""

import types

import hermscale as hs

PUBLIC = [
    "AccuracyError", "BracketError", "CollocationGrid", "DecayMeta",
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


def test_all_is_the_audited_list():
    assert len(PUBLIC) == 39
    assert sorted(hs.__all__) == sorted(PUBLIC)
    assert len(set(hs.__all__)) == len(hs.__all__)


def test_namespace_binds_no_other_public_name():
    # Submodules stay reachable as attributes; every other public name is listed.
    extra = [name for name, obj in vars(hs).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)
             and name not in hs.__all__]
    assert extra == []


def test_every_public_name_is_documented():
    for name in hs.__all__:
        doc = getattr(hs, name).__doc__
        # A dataclass without a docstring gets its signature as __doc__.
        assert doc and doc.strip() and not doc.startswith(f"{name}("), name
