"""fdsl4: eigenpairs of fourth-order Sturm-Liouville problems with polynomial
coefficients, by an exponentially convergent functional-discrete correction
series evaluated in arbitrary precision."""

from .convergence import ConvergenceReport, convergence_report, error_bounds
from .corrections import CorrectionTerm, FDSolution, assemble, base_pair, eval_solution, eval_term
from .numerics import PrecisionContext, const_pi, elem, stability_probe
from .problem import Polynomial, ProblemSpec, StepBudget, load_problem, omega, parse_problem
from .spectral import MomentTable, lambda_correction, moments, solve
from .verify import (FixtureSet, GalerkinOracle, QuadratureRule, compare_to_fixture,
                     galerkin_nearest_eigenvalue, load_fixtures, matching_digits,
                     residual_norm, residual_sweep)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport", "CorrectionTerm", "FDSolution", "FixtureSet",
    "GalerkinOracle", "MomentTable", "Polynomial",
    "PrecisionContext", "ProblemSpec", "QuadratureRule", "StepBudget",
    "assemble", "base_pair", "compare_to_fixture", "const_pi",
    "convergence_report", "elem", "error_bounds", "eval_solution",
    "eval_term", "galerkin_nearest_eigenvalue", "lambda_correction",
    "load_fixtures", "load_problem", "matching_digits", "moments",
    "omega", "parse_problem",
    "residual_norm", "residual_sweep", "solve", "stability_probe",
]
