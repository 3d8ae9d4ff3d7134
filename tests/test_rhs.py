"""Grouped right-hand-side coefficients: hand values, reconstruction, solvability."""

import random

import pytest
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, ProblemSpec, base_pair, eval_term,
                   lambda_correction, moments, solve)
from fdsl4.problem import poly_eval
from fdsl4.rhs import MissingHistoryError, add_base_term, build_rhs, eval_rhs

from .conftest import step_rhs

CTX = PrecisionContext(digits=120)


def _step0(spec, n):
    """F of step 1 without lambda^(1) u^(0), lambda^(1), the base term and the table."""
    term0, lam0 = base_pair(spec, n, CTX)
    table = moments(n, spec.X, spec.budget.M(3) + spec.budget.r + 1, CTX)
    rhs = build_rhs(spec, n, 0, [term0], [lam0], CTX)
    return rhs, lambda_correction(rhs, table, CTX), term0, table


def test_x_potential_first_step_arrays():
    # q0 = x on [0,1]: F + lambda^(1) u0 = (1/2 - x) * sqrt(2) sin(n pi x), every n
    spec = ProblemSpec.make(1, [0, 1], [0], [0], CTX)
    for n in (1, 4):
        rhs, lam1, term0, _ = _step0(spec, n)
        assert rhs.f_sin[0] == 0
        rhs = add_base_term(rhs, lam1, term0, CTX)
        with CTX.workprec():
            s2 = mp.sqrt(2)
            tol = mpf(10) ** -110
            assert len(rhs.f_sin) == 2 and len(rhs.f_cos) == 2
            assert abs(rhs.f_sin[0] - s2 / 2) < tol
            assert abs(rhs.f_sin[1] + s2) < tol
            assert rhs.f_cos == (mpf(0), mpf(0))
            assert rhs.f_cosh == () and rhs.f_sinh == ()


def test_zero_potentials_zero_rhs():
    spec = ProblemSpec.make(2, [0, 0], [0, 0], [0, 0], CTX)
    rhs, lam1, term0, _ = _step0(spec, 1)
    with CTX.workprec():
        assert abs(lam1) < mpf(10) ** -115
    rhs = add_base_term(rhs, lam1, term0, CTX)
    with CTX.workprec():
        assert all(abs(v) < mpf(10) ** -110 for v in rhs.f_cos + rhs.f_sin)


def test_missing_history_raises():
    # step 2 needs the step-1 term; a missing lambda^(j+1) is valid input
    spec = ProblemSpec.make(1, [0, 1], [0], [0], CTX)
    term0, lam0 = base_pair(spec, 1, CTX)
    with pytest.raises(MissingHistoryError):
        build_rhs(spec, 1, 1, [term0], [lam0, mpf(1) / 2], CTX)
    with pytest.raises(MissingHistoryError):
        build_rhs(spec, 1, 0, [term0], [], CTX)


def _pointwise_rhs(spec, j, terms, lambdas, x):
    """F + lambda^(j+1) u^(0) evaluated directly from its definition."""
    with CTX.workprec():
        x = mpf(x)
        total = mpf(0)
        for p in range(j + 1):
            total += lambdas[j + 1 - p] * eval_term(terms[p], x, ctx=CTX)
        term = terms[j]
        total -= poly_eval(spec.q2, x) * eval_term(term, x, 2, ctx=CTX)
        total -= poly_eval(spec.q1, x) * eval_term(term, x, 1, ctx=CTX)
        total -= poly_eval(spec.q0, x) * eval_term(term, x, 0, ctx=CTX)
        return total


def test_benchmark1_pointwise_reconstruction(benchmark1):
    # grouped arrays must reproduce the defining combination of derivatives
    spec = benchmark1
    rhs, lam1, term0, _ = _step0(spec, 1)
    rhs = add_base_term(rhs, lam1, term0, CTX)
    rng = random.Random(3)
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 20)
        for _ in range(50):
            x = spec.X * mpf(rng.random())
            direct = _pointwise_rhs(spec, 0, [term0], [None, lam1], x)
            grouped = eval_rhs(rhs, spec, x, CTX)
            assert abs(direct - grouped) < tol


def test_pointwise_reconstruction_deep_steps(benchmark1):
    # steps 1 and 2 exercise the hyperbolic families and the eigenvalue sums
    spec = benchmark1
    n, m = 2, 3
    sol = solve(spec, n, m, CTX)
    lambdas = (sol.lambda0,) + sol.lambda_corrections
    rng = random.Random(5)
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 20)
        for j in (1, 2):
            rhs = step_rhs(spec, sol, j, CTX)
            for _ in range(25):
                x = spec.X * mpf(rng.random())
                direct = _pointwise_rhs(spec, j, sol.terms, lambdas, x)
                grouped = eval_rhs(rhs, spec, x, CTX)
                assert abs(direct - grouped) < tol


def test_solvability_inner_product(benchmark1):
    # with the eigenvalue correction inserted, F is orthogonal to the base
    # eigenfunction; the moment-table product is exact up to rounding
    spec = benchmark1
    n, m = 3, 3
    sol = solve(spec, n, m, CTX)
    table = moments(n, spec.X, spec.budget.M(m) + spec.budget.r + 1, CTX)
    lambdas = (sol.lambda0,) + sol.lambda_corrections
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 20)
        for j in range(m):
            rhs = build_rhs(spec, n, j, sol.terms, lambdas, CTX)
            assert lambda_correction(rhs, table, CTX) == sol.lambda_corrections[j]
            full = step_rhs(spec, sol, j, CTX)
            assert abs(lambda_correction(full, table, CTX)) < tol


def test_solvability_by_quadrature(benchmark1):
    # the projection through the independent quadrature path: <F, u0> equals
    # -lambda^(1). Composite Gauss-Legendre gains ~12 digits per panel
    # doubling, so 128 panels are enough for 1e-100 at 120-digit work
    from fdsl4 import QuadratureRule
    spec = benchmark1
    rhs, lam1, base, _ = _step0(spec, 3)
    rule = QuadratureRule.build(spec.X, 128, 20, CTX)
    ip = rule.integrate(
        lambda x: eval_rhs(rhs, spec, x, CTX) * eval_term(base, x, ctx=CTX), CTX)
    with CTX.workprec():
        assert abs(ip + lam1) < mpf(10) ** -100
