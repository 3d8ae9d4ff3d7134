"""Coefficient recursion: printed step-1 values, product-form oracle, closure,
and the step on arbitrary right-hand sides."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from fdsl4 import (CorrectionTerm, PrecisionContext, ProblemSpec, base_pair,
                   lambda_correction, moments, solve)
from fdsl4.recursion import closure_index0, solve_step
from fdsl4.rhs import add_base_term, build_rhs

from .conftest import eval_series, eval_term, step_rhs
from .oracles import (horner_series, power_matching_mismatch, product_expansion_pair, raw_bits,
                      solve_step_fdot, term_pairs)

CTX = PrecisionContext(digits=120)
TOL = None  # bound set per test at working precision


@pytest.fixture(scope="module")
def x_potential():
    return ProblemSpec.make(1, [0, 1], [0], [0], CTX)


def _first_step_rhs(spec, n):
    term0, lam0 = base_pair(spec, n, CTX)
    table = moments(n, spec.X, spec.M(1), CTX)
    rhs = build_rhs(spec, n, [term0], [lam0], CTX)
    return add_base_term(rhs, lambda_correction(rhs, table, CTX), term0, CTX), table


def test_x_potential_top_coeffs(x_potential):
    # printed first-step values: the trig budget is 2, so the walk's rows
    # give powers 2 and 1 (power 0 is the closure's)
    n = 3
    rhs, table = _first_step_rhs(x_potential, n)
    arrays = solve_step(n, rhs, table, CTX)
    assert raw_bits(arrays) == raw_bits(solve_step_fdot(n, rhs, table, CTX))
    a, b, _, _ = arrays
    assert len(a) == len(b) == 3
    with CTX.workprec():
        pn = mp.pi * n
        s2 = mp.sqrt(2)
        tol = mpf(10) ** -110
        assert abs(b[2] + s2 / (8 * pn ** 3)) < tol
        assert abs(a[2]) < tol
        assert abs(b[1] - s2 / (8 * pn ** 3)) < tol
        assert abs(a[1] - 3 * s2 / (8 * pn ** 4)) < tol


def test_zero_rhs_gives_zero_rows(x_potential):
    zero = ((mpf(0),) * 2, (mpf(0),) * 2, (), ())
    table = moments(1, x_potential.X, x_potential.M(1), CTX)
    arrays = solve_step(1, zero, table, CTX)
    assert all(v == 0 for arr in arrays for v in arr[1:])


def test_hyp_family_skipped_at_step_one(x_potential):
    rhs, table = _first_step_rhs(x_potential, 1)
    _, _, c, d = solve_step(1, rhs, table, CTX)
    assert len(c) == len(d) == 1  # power 0 only, from the closure


def test_benchmark1_step1_full_arrays(benchmark1):
    # budget 5: the highest-power rows give powers 5, 4, 3, the walk 2 and 1
    n = 1
    rhs, table = _first_step_rhs(benchmark1, n)
    arrays = solve_step(n, rhs, table, CTX)
    assert raw_bits(arrays) == raw_bits(solve_step_fdot(n, rhs, table, CTX))
    a, b, _, _ = arrays
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
            ga, gb = a[idx], b[idx]
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
    table = moments(1, x_potential.X, 8, CTX)
    with CTX.workprec():
        trig, hyp = [mpf(0)] * 3, [mpf(0)]
        vals = closure_index0(1, trig, trig, hyp, hyp, table, CTX)
        assert all(v == 0 for v in vals)


def test_closure_rejects_short_table(benchmark1):
    # the closure of step 2 reads the table up to power M(2): a table one
    # power short must raise rather than drop the top summands
    sol = solve(benchmark1, 1, 2, CTX)
    term = sol.terms[2]
    arrays = (term.a, term.b, term.c, term.d)
    top = len(term.a) - 1
    assert top == benchmark1.M(2) and len(term.c) > 1
    closure_index0(1, *arrays, moments(1, benchmark1.X, top, CTX), CTX)
    with pytest.raises(IndexError):
        closure_index0(1, *arrays, moments(1, benchmark1.X, top - 1, CTX), CTX)


def test_closure_u_at_X_skips_sin_family(benchmark1):
    # sin(pi n) = 0, so c0 from u(X) = 0 must not move when the sin
    # coefficients above power 1 do; pairing them with the rounded sin column
    # at X would (at benchmark 1 n=1 m=20 it made lambda 5x worse)
    term = solve(benchmark1, 1, 2, CTX).terms[2]
    table = moments(1, benchmark1.X, len(term.a) - 1, CTX)
    with CTX.workprec():
        moved = term.a[:2] + tuple(v + 10 ** 40 for v in term.a[2:])
    c0 = closure_index0(1, term.a, term.b, term.c, term.d, table, CTX)[2]
    assert closure_index0(1, moved, term.b, term.c, term.d, table, CTX)[2] == c0


def test_hyperbolic_rows_keep_relative_accuracy():
    # f_sinh 300 orders above f_sinh[1] and f_cosh = 0: the c and d rows
    # give c[1] = -r11 d[2] = -3 d[2] / w to rounding, although |c[1]| is
    # 1e-309 of |d[0]|
    spec = ProblemSpec.make("0.5", [0, 1], [0], [0], CTX)
    n, j = 1, 1
    table = moments(n, spec.X, spec.M(j + 1), CTX)
    with CTX.workprec():
        trig = (mpf(0),) * spec.M(j + 1)
        rhs = (trig, trig, (mpf(1), mpf("2.2e-309")), (mpf(0),) * 2)
    _, _, c, d = solve_step(n, rhs, table, CTX)
    with CTX.workprec():
        w = mp.pi * n / spec.X
        assert d[2] != 0
        assert abs(c[1] + 3 * d[2] / w) <= mpf(10) ** -(CTX.digits - 10) * abs(c[1])


def test_iteration_matches_product_expansion(benchmark1):
    # the literal product-sum expansion of the paper's 2x2 form must agree
    # with the scalar walks
    n, m = 2, 3
    sol = solve(benchmark1, n, m, CTX)
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 10)
        for j in (0, 1):
            rhs = step_rhs(benchmark1, sol, j, CTX)
            for family in ("trig", "hyp"):
                walked = term_pairs(sol.terms[j + 1], family)
                M = len(walked) - 1
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
            mismatch = power_matching_mismatch(benchmark1, n, sol.terms[j + 1], rhs, CTX)
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
                lhs = (eval_term(term, n, benchmark1.X, x, 4, ctx=CTX)
                       - sol.lambda0 * eval_term(term, n, benchmark1.X, x, ctx=CTX))
                assert abs(lhs - eval_series(rhs, n, benchmark1.X, x, CTX)) < tol


def _size_derivative(arrays, w):
    """The derivative map with every summand counted positive."""
    def step(arr, partner):
        return tuple((arr[p + 1] * (p + 1) if p + 1 < len(arr) else 0) + w * partner[p]
                     for p in range(len(arr)))
    a, b, c, d = arrays
    return step(a, b), step(b, a), step(c, d), step(d, c)


def _boundary_defects(term, n, X, ctx):
    """|u(x)|, |u''(x)| at x = 0, X, each over the sum of |summands| in it."""
    with ctx.workprec():
        w = mp.pi * n / X
        defects = []
        for x in (mpf(0), X):
            basis = tuple(abs(f(w * x)) for f in (mp.sin, mp.cos, mp.sinh, mp.cosh))
            sizes = tuple(tuple(abs(v) for v in arr) for arr in (term.a, term.b, term.c, term.d))
            for order in (0, 2):
                if order:
                    sizes = _size_derivative(_size_derivative(sizes, w), w)
                value = abs(eval_term(term, n, X, x, order, ctx=ctx))
                defects.append(value / horner_series(sizes, x, basis) if value else value)
        return defects


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["0.5", "1", "2", "5"]),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=4),
       st.randoms(use_true_random=False))
def test_step_solves_arbitrary_rhs(X, n, r, j, rng):
    # independent random f_sinh and f_cosh drive the c and d rows apart,
    # which F from solve never does.  Entries lie on a 1e-6 grid in
    # [-1, 1]: adding lambda u0 may cancel f_sin[0] almost entirely, and u''(X)
    # then carries that rounding, relative to the entries before the cancellation.
    # The walk gives the bits of the mpf-object fdot walk.
    spec = ProblemSpec.make(X, [0] * r + [1], [0], [0], CTX)
    M1, M0 = spec.M(j + 1), spec.M(j)
    table = moments(n, spec.X, M1, CTX)
    term0, _ = base_pair(spec, n, CTX)
    with CTX.workprec():
        f_cos, f_sin, f_cosh, f_sinh = (
            tuple(mpf(rng.randint(-10 ** 6, 10 ** 6)) / 10 ** 6 for _ in range(size))
            for size in (M1, M1, M0, M0))
    rhs = (f_sin, f_cos, f_sinh, f_cosh)
    rhs = add_base_term(rhs, lambda_correction(rhs, table, CTX), term0, CTX)
    a, b, c, d = solve_step(n, rhs, table, CTX)
    assert raw_bits((a, b, c, d)) == raw_bits(solve_step_fdot(n, rhs, table, CTX))
    term = CorrectionTerm(a, b, c, d)
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 30)
        assert power_matching_mismatch(spec, n, term, rhs, CTX, relative=True) < tol
        assert all(defect < tol for defect in _boundary_defects(term, n, spec.X, CTX))
        products = [m[t] * v for m, arr in ((table.alpha, a), (table.beta, b),
                                            (table.mu, c), (table.eta, d))
                    for t, v in enumerate(arr)]
        assert abs(mp.fsum(products)) <= tol * mp.fsum(abs(v) for v in products)
