"""Grouped right-hand-side coefficients: hand values, reconstruction, solvability,
and the dot products against the sequential multiply-add oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from fdsl4 import (CorrectionTerm, PrecisionContext, ProblemSpec, base_pair,
                   lambda_correction, moments, solve)
from fdsl4.rhs import add_base_term, build_rhs

from .conftest import eval_series, eval_term, step_rhs
from .oracles import sequential_rhs

CTX = PrecisionContext(digits=120)


def _step0(spec, n):
    """F of step 1 without lambda^(1) u^(0), lambda^(1), the base term and the table."""
    term0, lam0 = base_pair(spec, n, CTX)
    table = moments(n, spec.X, spec.M(1), CTX)
    rhs = build_rhs(spec, n, [term0], [lam0], CTX)
    return rhs, lambda_correction(rhs, table, CTX), term0, table


def test_x_potential_first_step_arrays():
    # q0 = x on [0,1]: F + lambda^(1) u0 = (1/2 - x) * sqrt(2) sin(n pi x), every n
    spec = ProblemSpec.make(1, [0, 1], [0], [0], CTX)
    for n in (1, 4):
        rhs, lam1, term0, _ = _step0(spec, n)
        assert rhs[0][0] == 0
        f_sin, f_cos, f_sinh, f_cosh = add_base_term(rhs, lam1, term0, CTX)
        with CTX.workprec():
            s2 = mp.sqrt(2)
            tol = mpf(10) ** -110
            assert len(f_sin) == 2 and len(f_cos) == 2
            assert abs(f_sin[0] - s2 / 2) < tol
            assert abs(f_sin[1] + s2) < tol
            assert f_cos == (mpf(0), mpf(0))
            assert f_cosh == () and f_sinh == ()


def test_zero_potentials_zero_rhs():
    spec = ProblemSpec.make(2, [0, 0], [0, 0], [0, 0], CTX)
    rhs, lam1, term0, _ = _step0(spec, 1)
    with CTX.workprec():
        assert abs(lam1) < mpf(10) ** -115
    rhs = add_base_term(rhs, lam1, term0, CTX)
    with CTX.workprec():
        assert all(abs(v) < mpf(10) ** -110 for arr in rhs for v in arr)


def test_missing_history_raises():
    # step 2 reads lambda^(1); a history of two terms and one eigenvalue lacks it
    spec = ProblemSpec.make(1, [0, 1], [0], [0], CTX)
    sol = solve(spec, 1, 1, CTX)
    with pytest.raises(IndexError):
        build_rhs(spec, 1, sol.terms, [sol.lambda0], CTX)


def _pointwise_rhs(spec, n, j, terms, lambdas, x):
    """F + lambda^(j+1) u^(0) evaluated directly from its definition."""
    with CTX.workprec():
        x = mpf(x)
        total = mpf(0)
        for p in range(j + 1):
            total += lambdas[j + 1 - p] * eval_term(terms[p], n, spec.X, x, ctx=CTX)
        term = terms[j]
        total -= mp.polyval(spec.q2[::-1], x) * eval_term(term, n, spec.X, x, 2, ctx=CTX)
        total -= mp.polyval(spec.q1[::-1], x) * eval_term(term, n, spec.X, x, 1, ctx=CTX)
        total -= mp.polyval(spec.q0[::-1], x) * eval_term(term, n, spec.X, x, 0, ctx=CTX)
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
            direct = _pointwise_rhs(spec, 1, 0, [term0], [None, lam1], x)
            grouped = eval_series(rhs, 1, spec.X, x, CTX)
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
                direct = _pointwise_rhs(spec, n, j, sol.terms, lambdas, x)
                grouped = eval_series(rhs, n, spec.X, x, CTX)
                assert abs(direct - grouped) < tol


def test_solvability_inner_product(benchmark1):
    # with the eigenvalue correction inserted, F is orthogonal to the base
    # eigenfunction; the moment-table product is exact up to rounding
    spec = benchmark1
    n, m = 3, 3
    sol = solve(spec, n, m, CTX)
    table = moments(n, spec.X, spec.M(m), CTX)
    lambdas = (sol.lambda0,) + sol.lambda_corrections
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 20)
        for j in range(m):
            rhs = build_rhs(spec, n, sol.terms[:j + 1], lambdas[:j + 1], CTX)
            assert lambda_correction(rhs, table, CTX) == sol.lambda_corrections[j]
            full = step_rhs(spec, sol, j, CTX)
            assert abs(lambda_correction(full, table, CTX)) < tol


def test_solvability_by_quadrature(benchmark1):
    # the projection through the independent quadrature path: <F, u0> equals
    # -lambda^(1). Composite Gauss-Legendre gains ~12 digits per panel
    # doubling, so 128 panels are enough for 1e-100 at 120-digit work
    from fdsl4.verify import QuadratureRule
    spec = benchmark1
    rhs, lam1, base, _ = _step0(spec, 3)
    rule = QuadratureRule.build(spec.X, 128, 20, CTX)
    ip = rule.integrate(
        lambda x: eval_series(rhs, 3, spec.X, x, CTX) * eval_term(base, 3, spec.X, x, ctx=CTX),
        CTX)
    with CTX.workprec():
        assert abs(ip + lam1) < mpf(10) ** -100


FAMILIES = ("f_sin", "f_cos", "f_sinh", "f_cosh")  # the order of build_rhs's arrays


def _assert_matches_sequential(spec, n, j, terms, lambdas, ctx):
    """Every F coefficient equals the sequential sum within 10^-(digits-10)
    of the sum of the absolute values of its summands."""
    got = build_rhs(spec, n, terms[:j + 1], lambdas[:j + 1], ctx)
    want = sequential_rhs(spec, n, j, terms, lambdas, ctx)
    size = sequential_rhs(spec, n, j, terms, lambdas, ctx, absolute=True)
    with ctx.workprec():
        tol = mpf(10) ** -(ctx.digits - 10)
        assert len(got) == len(want) == len(size) == len(FAMILIES)
        for family, g, w, s in zip(FAMILIES, got, want, size):
            assert len(g) == len(w) == len(s), family
            for k, (gk, wk, sk) in enumerate(zip(g, w, s)):
                assert abs(gk - wk) <= tol * sk, f"{family}[{k}] at step {j + 1}"


def test_dot_products_match_sequential_benchmark1(benchmark1, b1_solutions_m20, ctx300):
    for n in (1, 8):
        sol = b1_solutions_m20[n]
        lambdas = (sol.lambda0,) + sol.lambda_corrections
        for j in range(20):
            _assert_matches_sequential(benchmark1, n, j, sol.terms, lambdas, ctx300)


def _random_entries(rng, size):
    # a grid value times a random power of ten, so that summands cancel
    return tuple(mpf(rng.randint(-10 ** 6, 10 ** 6)) / 10 ** 6 * mpf(10) ** rng.randint(-30, 30)
                 for _ in range(size))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["0.5", "1", "2", "5"]),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=4),
       st.randoms(use_true_random=False))
def test_dot_products_match_sequential_random(X, n, j, rng):
    # random potentials of degree 0..3 (zero coefficients skipped) and a
    # random history: terms 1..j with budget-sized arrays, random eigenvalues
    with CTX.workprec():
        q0, q1, q2 = ([_random_entries(rng, 1)[0] if rng.random() < 0.8 else 0
                       for _ in range(rng.randint(1, 4))] for _ in range(3))
    spec = ProblemSpec.make(X, q0, q1, q2, CTX)
    term0, lam0 = base_pair(spec, n, CTX)
    terms = [term0]
    with CTX.workprec():
        for s in range(1, j + 1):
            a, b = (_random_entries(rng, spec.M(s) + 1) for _ in range(2))
            c, d = (_random_entries(rng, spec.M(s - 1) + 1) for _ in range(2))
            terms.append(CorrectionTerm(a, b, c, d))
        lambdas = (lam0,) + _random_entries(rng, j)
    _assert_matches_sequential(spec, n, j, terms, lambdas, CTX)
