"""The package's public surface: what `import hermscale` offers a user."""

import dataclasses
import importlib
import inspect
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


MODULES = ("_integrate", "basis", "cli", "errors", "fourier", "galerkin",
           "operators", "quadrature")


def settable_values(module):
    """Every parameter of every public function and public method (self and
    cls not counted), plus every field of every public dataclass, defined in
    the module.  Public: the name has no leading underscore.  A decorated
    function (an lru_cache, say) counts as the function it wraps."""
    count = 0
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(inspect.unwrap(obj)):
            count += len(inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                count += len(dataclasses.fields(obj))
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # static/classmethod
                if not attr.startswith("_") and inspect.isfunction(member):
                    count += len([p for p in inspect.signature(member).parameters
                                  if p not in ("self", "cls")])
    return count


def test_settable_value_count():
    # Each settable value doubles what tests and benchmarks may have to
    # cover: a change that adds one must update this pin, on purpose.  The
    # pin is per module, so a removal in one cannot hide an addition in another.
    counts = {m: settable_values(importlib.import_module(f"hermscale.{m}"))
              for m in MODULES}
    assert counts == {"_integrate": 11, "basis": 17, "cli": 36, "errors": 0,
                      "fourier": 22, "galerkin": 13, "operators": 23,
                      "quadrature": 8}
    assert sum(counts.values()) == 130
