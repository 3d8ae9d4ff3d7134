"""Coefficient recursion: printed step-1 values, product-form oracle, closure."""

import random

import pytest
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, ProblemSpec, base_pair, eval_term,
                   lambda_correction, moments, solve)
from fdsl4.recursion import HYP, TRIG, family_budget, run_recurrence
from fdsl4.rhs import RhsCoefficients, add_base_term, build_rhs, eval_rhs

from .conftest import step_rhs
from .oracles import power_matching_mismatch, product_expansion_pair

CTX = PrecisionContext(digits=120)
TOL = None  # bound set per test at working precision


@pytest.fixture(scope="module")
def x_potential():
    return ProblemSpec.make(1, [0, 1], [0], [0], CTX)


def _first_step_rhs(spec, n):
    term0, lam0 = base_pair(spec, n, CTX)
    table = moments(n, spec.X, spec.budget.M(3) + spec.budget.r + 1, CTX)
    rhs = build_rhs(spec, n, 0, [term0], [lam0], CTX)
    return add_base_term(rhs, lambda_correction(rhs, table, CTX), term0, CTX), table


def test_x_potential_top_coeffs(x_potential):
    # printed first-step values: the trig budget is 2, so the walk's rows
    # give powers 2 and 1 (power 0 is the closure's)
    n = 3
    rhs, _ = _first_step_rhs(x_potential, n)
    top = run_recurrence(x_potential, TRIG, rhs, n, 0, CTX)
    assert sorted(top) == [1, 2]
    with CTX.workprec():
        pn = mp.pi * n
        s2 = mp.sqrt(2)
        tol = mpf(10) ** -110
        a2, b2 = top[2]
        assert abs(b2 + s2 / (8 * pn ** 3)) < tol
        assert abs(a2) < tol
        a1, b1 = top[1]
        assert abs(b1 - s2 / (8 * pn ** 3)) < tol
        assert abs(a1 - 3 * s2 / (8 * pn ** 4)) < tol


def test_zero_rhs_gives_zero_rows(x_potential):
    zero = RhsCoefficients(n=1, j=0, f_cos=(mpf(0),) * 2, f_sin=(mpf(0),) * 2,
                           f_cosh=(), f_sinh=())
    top = run_recurrence(x_potential, TRIG, zero, 1, 0, CTX)
    assert all(v == 0 for pair in top.values() for v in pair)


def test_hyp_family_skipped_at_step_one(x_potential):
    rhs, _ = _first_step_rhs(x_potential, 1)
    assert run_recurrence(x_potential, HYP, rhs, 1, 0, CTX) == {}


def test_benchmark1_step1_full_arrays(benchmark1):
    # budget 5: the highest-power rows give powers 5, 4, 3, the walk 2 and 1
    n = 1
    rhs, table = _first_step_rhs(benchmark1, n)
    coeffs = run_recurrence(benchmark1, TRIG, rhs, n, 0, CTX)
    with CTX.workprec():
        pn = mp.pi * n
        s10 = mp.sqrt(mpf(10))
        tol = mpf(10) ** -105
        expected = {
            5: (mpf(0), -s10 / (8000 * pn ** 3)),
            4: (3 * s10 / (640 * pn ** 4), mpf(0)),
            3: (mpf(0), s10 / (8 * pn) * (-mpf(1) / 75 + 5 / (8 * pn ** 4))),
            2: (s10 / (16 * pn ** 2) * (mpf(1) / 5 - 75 / (8 * pn ** 4)), mpf(0)),
            1: (mpf(0), s10 / (8 * pn) * (mpf(1) / 3 + 5 / (8 * pn ** 2) - 25 / (8 * pn ** 4))),
        }
        for idx, (ea, eb) in expected.items():
            ga, gb = coeffs[idx]
            assert abs(ga - ea) < tol, f"power {idx} sin-coefficient"
            assert abs(gb - eb) < tol, f"power {idx} cos-coefficient"


def test_benchmark1_step1_closure(benchmark1):
    sol = solve(benchmark1, 1, 1, CTX)
    term = sol.terms[1]
    with CTX.workprec():
        pn = mp.pi
        s10 = mp.sqrt(mpf(10))
        tol = mpf(10) ** -105
        assert abs(term.c[0] + 125 * s10 * mp.cos(pn) / (16 * pn ** 5 * mp.sinh(pn))) < tol
        assert abs(term.a[0] - 5 * s10 / (128 * pn ** 2)
                   * (-mpf(8) / 3 - 7 / pn ** 2 + 125 / pn ** 4 - 525 / pn ** 6)) < tol
        assert abs(term.b[0]) < tol and abs(term.d[0]) < tol


def test_x_potential_step1_closure(x_potential):
    for n in (1, 2, 5):
        sol = solve(x_potential, n, 1, CTX)
        term = sol.terms[1]
        with CTX.workprec():
            pn = mp.pi * n
            s2 = mp.sqrt(2)
            tol = mpf(10) ** -108
            assert abs(term.b[0] - s2 / (4 * pn ** 5)) < tol
            assert abs(term.d[0] + s2 / (4 * pn ** 5)) < tol
            assert abs(term.c[0] + s2 * (mp.cos(pn) - mp.cosh(pn))
                       / (4 * pn ** 5 * mp.sinh(pn))) < tol
            assert abs(term.a[0] + 3 * s2 / (16 * pn ** 4)) < tol


def test_closure_zero_arrays(x_potential):
    from fdsl4.recursion import closure_index0
    table = moments(1, x_potential.X, 8, CTX)
    with CTX.workprec():
        zero = {i: (mpf(0), mpf(0)) for i in range(3)}
        vals = closure_index0(x_potential, 1, 0, zero, {}, table, CTX)
        assert all(v == 0 for v in vals)


def test_iteration_matches_product_expansion(benchmark1):
    # the literal product-sum expansion must agree with the forward walk
    n, m = 2, 3
    sol = solve(benchmark1, n, m, CTX)
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 10)
        for j in (0, 1):
            rhs = step_rhs(benchmark1, sol, j, CTX)
            for family in (TRIG, HYP):
                M = family_budget(benchmark1, family, j)
                walked = run_recurrence(benchmark1, family, rhs, n, j, CTX)
                for p in range(min(M - 3, 5)):
                    want = walked[M - p - 3]
                    got = product_expansion_pair(benchmark1, family, rhs, n, j,
                                                 p, walked, CTX)
                    scale = max(mpf(1), abs(want[0]), abs(want[1]))
                    assert abs(got[0] - want[0]) < tol * scale
                    assert abs(got[1] - want[1]) < tol * scale


def test_power_matching_relations(benchmark1):
    # collected coefficient arrays satisfy the scalar power-matching identities
    n, m = 1, 4
    sol = solve(benchmark1, n, m, CTX)
    with CTX.workprec():
        for j in range(m):
            rhs = step_rhs(benchmark1, sol, j, CTX)
            mismatch = power_matching_mismatch(benchmark1, sol.terms[j + 1], rhs, CTX)
            assert mismatch < mpf(10) ** -(CTX.digits - 20)


def test_ode_step_residual_pointwise(benchmark1):
    # each term solves u'''' - lambda0 u = F at interior points
    n, m = 1, 3
    sol = solve(benchmark1, n, m, CTX)
    rng = random.Random(11)
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 25)
        for j in range(m):
            rhs = step_rhs(benchmark1, sol, j, CTX)
            term = sol.terms[j + 1]
            for _ in range(100):
                x = benchmark1.X * mpf(rng.random())
                lhs = eval_term(term, x, 4, ctx=CTX) - sol.lambda0 * eval_term(term, x, ctx=CTX)
                assert abs(lhs - eval_rhs(rhs, benchmark1, x, CTX)) < tol
