"""Moment tables, eigenvalue corrections, and the orchestrated solve."""

import pytest
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, ProblemSpec, QuadratureRule, base_pair,
                   lambda_correction, moments, solve)
from fdsl4.rhs import build_rhs

from .oracles import x_potential_second_correction

CTX = PrecisionContext(digits=120)


@pytest.fixture(scope="module")
def x_potential():
    return ProblemSpec.make(1, [0, 1], [0], [0], CTX)


def test_moment_alpha0_beta0():
    for n in (1, 2, 7):
        for X in ("1", "2.5"):
            table = moments(n, CTX.mpf(X), 0, CTX)
            with CTX.workprec():
                assert abs(table.alpha[0] - mpf(X) / 2) < mpf(10) ** -110
                assert table.beta[0] == 0


def test_moments_match_quadrature():
    # independent check of all four closed forms by composite quadrature
    for n, X in ((2, "1"), (3, "2.5")):
        X = CTX.mpf(X)
        table = moments(n, X, 6, CTX)
        rule = QuadratureRule.build(X, 96, 20, CTX)
        with CTX.workprec():
            w = mp.pi * n / X
            for t in (0, 1, 2, 3, 6):
                qa = rule.integrate(lambda x: x ** t * mp.sin(w * x) ** 2, CTX)
                qb = rule.integrate(lambda x: x ** t * mp.sin(w * x) * mp.cos(w * x), CTX)
                qe = rule.integrate(lambda x: x ** t * mp.sin(w * x) * mp.cosh(w * x), CTX)
                qm = rule.integrate(lambda x: x ** t * mp.sin(w * x) * mp.sinh(w * x), CTX)
                scale = max(mpf(1), abs(qe), abs(qm))
                assert abs(table.alpha[t] - qa) < mpf(10) ** -40
                assert abs(table.beta[t] - qb) < mpf(10) ** -40
                assert abs(table.eta[t] - qe) < mpf(10) ** -40 * scale
                assert abs(table.mu[t] - qm) < mpf(10) ** -40 * scale


def test_first_correction_x_potential(x_potential):
    # exactly 1/2 for every index
    for n in (1, 2, 9):
        term0, lam0 = base_pair(x_potential, n, CTX)
        table = moments(n, x_potential.X, 4, CTX)
        rhs = build_rhs(x_potential, n, 0, [term0], [lam0], CTX)
        lam1 = lambda_correction(rhs, table, CTX)
        with CTX.workprec():
            assert abs(lam1 - mpf(1) / 2) < mpf(10) ** -(CTX.digits - 10)


def test_first_correction_benchmark1(benchmark1):
    term0, lam0 = base_pair(benchmark1, 1, CTX)
    table = moments(1, benchmark1.X, 8, CTX)
    lam1 = lambda_correction(build_rhs(benchmark1, 1, 0, [term0], [lam0], CTX),
                             table, CTX)
    with CTX.workprec():
        pn = mp.pi
        closed = pn ** 2 / 150 + mpf(1) / 400 - 1 / (16 * pn ** 2) + 3 / (32 * pn ** 4)
        assert abs(lam1 - closed) < mpf(10) ** -(CTX.digits - 10)


def test_second_correction_closed_form(x_potential):
    for n in (1, 4):
        sol = solve(x_potential, n, 2, CTX)
        with CTX.workprec():
            want = x_potential_second_correction(n, CTX)
            assert abs(sol.lambda_corrections[1] - want) < mpf(10) ** -(CTX.digits - 20)


def test_second_correction_decays(x_potential):
    with CTX.workprec():
        values = [abs(x_potential_second_correction(n, CTX)) for n in range(2, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_benchmark1_second_correction_closed_form(benchmark1):
    # closed form involving coth; exercises the hyperbolic-family rows deep
    # enough that a sign slip in their third term would show immediately
    for n in (1, 3):
        sol = solve(benchmark1, n, 2, CTX)
        with CTX.workprec():
            pn = mp.pi * n
            closed = (-mpf(1) / 360 + 1 / (224 * pn ** 2) - 173 / (384 * pn ** 4)
                      + 9075 / (3584 * pn ** 6) - 625 * mp.coth(pn) / (64 * pn ** 7)
                      + 28775 / (512 * pn ** 8) - 556875 / (2048 * pn ** 10)
                      + 804375 / (2048 * pn ** 12))
            assert abs(sol.lambda_corrections[1] - closed) < mpf(10) ** -(CTX.digits - 20)


def test_odd_corrections_vanish_x_potential(x_potential):
    # reflection parity zeroes every odd correction past the first
    for n in (1, 2, 5):
        sol = solve(x_potential, n, 6, CTX)
        with CTX.workprec():
            tol = mpf(10) ** -(CTX.digits - 30)
            assert abs(sol.lambda_corrections[2]) < tol   # third correction
            assert abs(sol.lambda_corrections[4]) < tol   # fifth correction


def test_solve_rank0(x_potential):
    sol = solve(x_potential, 4, 0, CTX)
    assert sol.m == 0
    assert sol.lambda_approx == sol.lambda0
    assert len(sol.terms) == 1


def test_solve_validates_arguments(x_potential):
    with pytest.raises(ValueError):
        solve(x_potential, 0, 3, CTX)
    with pytest.raises(ValueError):
        solve(x_potential, 1, -1, CTX)


def test_solve_zero_potentials():
    spec = ProblemSpec.make(2, [0, 0], [0, 0], [0, 0], CTX)
    sol = solve(spec, 2, 5, CTX)
    with CTX.workprec():
        lam0 = (2 * mp.pi) ** 4 / 16
        assert abs(sol.lambda_approx - lam0) < mpf(10) ** -(CTX.digits - 10)
        assert all(abs(v) < mpf(10) ** -(CTX.digits - 10)
                   for v in sol.lambda_corrections)


def test_rank10_table_values(x_potential):
    # 50-digit reference eigenvalues at rank 10 (300-digit production run)
    refs = {
        1: "97.909068819798261176982167541814171360744557739731",
        2: "1559.0454727668153673091467219850174149875744757492",
        50: "608806819.46251523277907137706314034909324527027422",
    }
    for n, ref in refs.items():
        sol = solve(x_potential, n, 10, CTX)
        with CTX.workprec():
            rel = abs(sol.lambda_approx - mpf(ref)) / mpf(ref)
            assert rel < mpf(10) ** -49


def test_correction_magnitudes_decay_geometrically(x_potential):
    # after the first few steps the nonzero corrections shrink fast
    sol = solve(x_potential, 2, 8, CTX)
    with CTX.workprec():
        even = [abs(sol.lambda_corrections[k]) for k in (1, 3, 5, 7)]
        ratios = [b / a for a, b in zip(even, even[1:])]
        assert all(r < mpf("0.01") for r in ratios)
