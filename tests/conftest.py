"""Shared fixtures: contexts, benchmark problems, cached solves.

The two benchmark problems used throughout:

  benchmark1: X = 5, q0 = 0.0001 x^4 - 0.02, q1 = -0.04 x, q2 = -0.02 x^2
  benchmark2: X = 1, q0 = x,      q1 = q2 = 0

Solves at full 300-digit precision are cached per session because the
acceptance suite and several module tests share them.
"""

import random

import pytest
from mpmath import mpf

from fdsl4 import PrecisionContext, ProblemSpec, residual_sweep, solve
from fdsl4.corrections import _eval_terms, basis_values, series_dot
from fdsl4.rhs import add_base_term, build_rhs

B2_INDICES = (1, 2, 3, 4, 5, 10, 20, 50)


def step_rhs(spec, sol, j, ctx):
    """Right-hand side F + lambda^(j+1) u^(0) that step j+1 of sol inverted."""
    lambdas = (sol.lambda0,) + sol.lambda_corrections
    rhs = build_rhs(spec, sol.n, sol.terms[:j + 1], lambdas[:j + 1], ctx)
    return add_base_term(rhs, lambdas[j + 1], sol.terms[0], ctx)


def eval_series(arrays, n, X, x, ctx):
    """Value at x of a (sin, cos, sinh, cosh) coefficient series such as F."""
    with ctx.workprec():
        x = mpf(x)
        top = max(len(arr) for arr in arrays) - 1
        return series_dot(arrays, basis_values(n, X, x, top, ctx))


def eval_term(term, n, X, x, deriv=0, *, ctx):
    """Value at x of the deriv-th derivative of one term in the basis of n and
    X, as eval_solution."""
    return _eval_terms((term,), n, X, x, deriv, ctx)


@pytest.fixture(scope="session")
def ctx300():
    return PrecisionContext(digits=300)


@pytest.fixture(scope="session")
def ctx120():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="session")
def ctx50():
    return PrecisionContext(digits=50)


@pytest.fixture(scope="session")
def benchmark1(ctx300):
    return ProblemSpec.make(5, ["-0.02", 0, 0, 0, "0.0001"], [0, "-0.04"],
                            [0, 0, "-0.02"], ctx300)


@pytest.fixture(scope="session")
def benchmark2(ctx300):
    return ProblemSpec.make(1, [0, 1], [0], [0], ctx300)


@pytest.fixture(scope="session")
def b2_solutions_m10(benchmark2, ctx300):
    return {n: solve(benchmark2, n, 10, ctx300) for n in B2_INDICES}


@pytest.fixture(scope="session")
def b2_residuals(benchmark2, ctx300, b2_solutions_m10):
    return {n: residual_sweep(b2_solutions_m10[n], benchmark2, ctx300)
            for n in B2_INDICES}


@pytest.fixture(scope="session")
def b1_solutions_m20(benchmark1, ctx300):
    return {n: solve(benchmark1, n, 20, ctx300) for n in range(1, 9)}


def make_random_problems(count, ctx, seed=20260811):
    """Deterministic battery of small random polynomial problems."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        X = rng.choice(["0.5", "1", "1.5", "2", "2.5", "3"])

        def coeffs():
            deg = rng.randint(1, 4)
            return [f"{rng.uniform(-0.5, 0.5):.6f}" for _ in range(deg + 1)]

        specs.append(ProblemSpec.make(X, coeffs(), coeffs(), coeffs(), ctx))
    return specs


@pytest.fixture(scope="session")
def random_problems(ctx300):
    return make_random_problems(20, ctx300)
