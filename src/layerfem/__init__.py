"""Galerkin FEM on Duran-Shishkin meshes for 1-D singularly perturbed
convection-diffusion problems with variable small diffusion."""

__version__ = "0.1.0"

from .analysis import (ErrorReport, convergence_study, energy_norm,
                       error_report, interpolate, interpolation_study)
from .calculus import (CumulativeIntegral, QuadratureRule, gauss_legendre,
                       integrate, invert_monotone, layer_integral)
from .fem import (FemSolution, TridiagonalSystem, assemble, bilinear_form,
                  galerkin_solve, solve_tridiagonal)
from .mesh import LayerMesh, build_mesh, compute_tau_star, predict_cardinality
from .problem import (BoundCheckReport, CoefficientSet, ScalarFunction,
                      Scenario, builtin_scenarios, get_scenario,
                      manufactured_rhs, validate_coefficients)
from .verify import (check_barrier_operator, check_bound_uniformity,
                     check_integral_lemma, check_integral_lemma_random,
                     check_solution_bounds, reference_solution)

# the public names, without the submodules that importing them binds here
__all__ = [
    "ErrorReport", "convergence_study", "energy_norm",
    "error_report", "interpolate", "interpolation_study",
    "CumulativeIntegral", "QuadratureRule", "gauss_legendre", "integrate",
    "invert_monotone", "layer_integral",
    "FemSolution", "TridiagonalSystem", "assemble", "bilinear_form",
    "galerkin_solve", "solve_tridiagonal",
    "LayerMesh", "build_mesh", "compute_tau_star", "predict_cardinality",
    "CoefficientSet", "ScalarFunction", "Scenario", "builtin_scenarios",
    "get_scenario", "manufactured_rhs", "validate_coefficients",
    "BoundCheckReport", "check_barrier_operator", "check_bound_uniformity",
    "check_integral_lemma", "check_integral_lemma_random",
    "check_solution_bounds", "reference_solution",
]
