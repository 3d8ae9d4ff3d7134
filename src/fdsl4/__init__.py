"""fdsl4: eigenpairs of fourth-order Sturm-Liouville problems with polynomial
coefficients, by an exponentially convergent functional-discrete correction
series evaluated in arbitrary precision."""

from .convergence import ConvergenceReport, convergence_report
from .corrections import CorrectionTerm, FDSolution, assemble, base_pair, eval_solution
from .numerics import PrecisionContext, matching_digits
from .problem import ProblemSpec, load_problem, omega, parse_problem
from .spectral import MomentTable, lambda_correction, moments, solve
from .verify import FixtureSet, galerkin_nearest_eigenvalue, load_fixtures, residual_sweep

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport", "CorrectionTerm", "FDSolution", "FixtureSet",
    "MomentTable", "PrecisionContext", "ProblemSpec", "assemble",
    "base_pair", "convergence_report", "eval_solution",
    "galerkin_nearest_eigenvalue", "lambda_correction",
    "load_fixtures", "load_problem", "matching_digits", "moments",
    "omega", "parse_problem", "residual_sweep", "solve",
]
