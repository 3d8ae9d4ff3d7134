"""Moment tables, eigenvalue corrections, and the orchestrated solve."""

from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, ProblemSpec, base_pair, lambda_correction,
                   matching_digits, moments, solve, spectral, verify)
from fdsl4.corrections import basis_values
from fdsl4.rhs import build_rhs
from fdsl4.verify import QuadratureRule

from .conftest import eval_series
from .oracles import closed_form_moments, x_potential_second_correction

CTX = PrecisionContext(digits=120)
COLUMNS = ("alpha", "beta", "eta", "mu")


def _column_gap(table, reference, ctx):
    """Max over the four columns of |difference| / largest |reference entry|.

    An all-zero reference column (beta at T = 0) counts absolute differences.
    """
    with ctx.workprec():
        worst = mpf(0)
        for col in COLUMNS:
            got, want = getattr(table, col), getattr(reference, col)
            assert len(got) == len(want)
            scale = max(abs(v) for v in want) or mpf(1)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)) / scale)
        return worst


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
    # independent check of all four moment kinds by composite quadrature
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


@pytest.mark.parametrize("n", [1, 50])
def test_square_moments_match_quadrature(n):
    # the residual's moment columns over [0, 1]: K_t at 2 pi n i, (+-1 + i) pi n
    # and +-2 pi n from the exponential-moment recurrence, against quadrature,
    # each within 1e-60 of its size bound max(1, e^(Re Z)) / (t+1)
    T = 6
    with CTX.workprec():
        columns = verify._square_moments(n, T)
        rule = QuadratureRule.build(1, 4 * n + 8, 20, CTX)
        th = [mp.pi * n * s for s in rule.nodes]
        cos, sin = zip(*(mp.cos_sin(v) for v in th))
        up, down = [mp.exp(v) for v in th], [mp.exp(-v) for v in th]
        integrands = {
            "one": [mpf(1)] * len(th), "cos2": [c * c - s * s for c, s in zip(cos, sin)],
            "sin2": [2 * s * c for c, s in zip(cos, sin)],
            "cos_up": list(map(mul, cos, up)), "sin_up": list(map(mul, sin, up)),
            "cos_down": list(map(mul, cos, down)), "sin_down": list(map(mul, sin, down)),
            "up2": [e * e for e in up], "down2": [e * e for e in down],
        }
        assert set(columns) == set(integrands)
        for name, f in integrands.items():
            values, size = columns[name]
            assert len(values) == T + 1
            for t, v in enumerate(values):
                want = mp.fdot(rule.weights, [s ** t * fs for s, fs in zip(rule.nodes, f)])
                bound = mpf(size) / (t + 1)
                assert abs(v) <= bound
                assert abs(v - want) <= mpf(10) ** -60 * bound, (name, t)


def test_moments_match_closed_form_oracle():
    # every T <= 12: at n=1 on both sides of t = |Z|, at n=3 and 50 below it
    ctx = PrecisionContext(digits=300)
    for n in (1, 3, 50):
        for X in ("0.5", "1", "5"):
            for T in range(13):
                gap = _column_gap(moments(n, X, T, ctx),
                                  closed_form_moments(n, ctx.mpf(X), T, ctx), ctx)
                with ctx.workprec():
                    assert gap < mpf(10) ** -290, (n, X, T, gap)


def _table_columns(n, T, ctx):
    table = moments(n, 5, T, ctx)
    return [getattr(table, col) for col in COLUMNS]


def _square_columns(n, T, ctx):
    with ctx.workprec():
        return [values for values, _ in verify._square_moments(n, T).values()]


@pytest.mark.parametrize("kind, n, T",
                         [("table", n, T) for n in (1, 2, 8, 50) for T in (42, 305)]
                         + [("square", 1, 410), ("square", 8, 100)])
def test_moments_stable_at_high_power(kind, n, T):
    # far above t = |Z| each forward step scales the rounding by t/|Z|, which
    # the kernel's extra bits must absorb; at n=1, T=305 the closed form is
    # wrong in every digit (error about 6e+122)
    columns = _table_columns if kind == "table" else _square_columns
    lo, hi = PrecisionContext(digits=300), PrecisionContext(digits=450)
    digits = min(matching_digits(x, y, hi)
                 for a, b in zip(columns(n, T, lo), columns(n, T, hi))
                 for x, y in zip(a, b, strict=True))
    assert digits >= 295


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=120))
def test_moments_precision_independent(n, half_x, T):
    lo, hi = PrecisionContext(digits=120), PrecisionContext(digits=160)
    X = hi.mpf(half_x) / 2
    gap = _column_gap(moments(n, X, T, lo), moments(n, X, T, hi), hi)
    with hi.workprec():
        assert gap < mpf(10) ** -110


@pytest.mark.parametrize("n, X, T", [(1, "5", 20), (2, "1", 8), (7, "0.5", 0), (50, "2.5", 12)])
def test_moments_carry_point_columns_at_X(n, X, T):
    # the closure pairs each correction with these columns for u(X) = 0:
    # basis_values at x = X, whose cos column is (-1)^n X^t exactly
    table = moments(n, X, T, CTX)
    with CTX.workprec():
        X = mpf(X)
        assert table.at_X == basis_values(n, X, X, T, CTX)
        powers = [mpf(1)]
        for _ in range(T):
            powers.append(powers[-1] * X)
        assert table.at_X[1] == tuple((-1) ** n * xp for xp in powers)


def test_moments_validate_arguments():
    with pytest.raises(ValueError):
        moments(0, 1, 3, CTX)
    with pytest.raises(ValueError):
        moments(1, 1, -1, CTX)
    for X in (0, -1, "inf"):
        with pytest.raises(ValueError, match="positive and finite"):
            moments(1, X, 3, CTX)


def test_first_correction_x_potential(x_potential):
    # exactly 1/2 for every index
    for n in (1, 2, 9):
        term0, lam0 = base_pair(x_potential, n, CTX)
        table = moments(n, x_potential.X, 4, CTX)
        rhs = build_rhs(x_potential, n, [term0], [lam0], CTX)
        lam1 = lambda_correction(rhs, table, CTX)
        with CTX.workprec():
            assert abs(lam1 - mpf(1) / 2) < mpf(10) ** -(CTX.digits - 10)


def test_first_correction_benchmark1(benchmark1):
    term0, lam0 = base_pair(benchmark1, 1, CTX)
    table = moments(1, benchmark1.X, 8, CTX)
    lam1 = lambda_correction(build_rhs(benchmark1, 1, [term0], [lam0], CTX),
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


def test_solve_sizes_table_to_top_power(benchmark1, x_potential, monkeypatch):
    # the last step's closure reads power M(m) and nothing reads above it:
    # the table is built at T = M(m), and one power fewer does not suffice
    seen, short = [], [0]

    def recording(n, X, T, ctx):
        seen.append(T)
        return moments(n, X, T - short[0], ctx)

    monkeypatch.setattr(spectral, "moments", recording)
    for spec, m in ((benchmark1, 3), (x_potential, 5)):
        seen.clear()
        solve(spec, 1, m, CTX)
        assert seen == [spec.M(m)]
    short[0] = 1
    with pytest.raises(IndexError):
        solve(benchmark1, 1, 3, CTX)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.sampled_from(["0.5", "1", "2", "5"]),
       st.integers(min_value=0, max_value=5),
       st.randoms(use_true_random=False))
def test_project_is_integral_against_sin(n, X, T, rng):
    # each family must meet its own moment column: a random series with all
    # four families nonzero, projected through the table and integrated by
    # quadrature; lambda_correction is -sqrt(2/X) times the same projection
    table = moments(n, X, T, CTX)
    with CTX.workprec():
        X = mpf(X)
        hyp = rng.randint(1, T + 1)  # sinh and cosh share a length, as in a correction
        sizes = (T + 1, T + 1, hyp, hyp)
        arrays = tuple(tuple(rng.choice((-1, 1)) * mpf(rng.randint(1, 10 ** 6)) / 10 ** 6
                             for _ in range(size)) for size in sizes)
        w = mp.pi * n / X
        rule = QuadratureRule.build(X, 4 * n + 8, 20, CTX)
        want = rule.integrate(lambda x: eval_series(arrays, n, X, x, CTX) * mp.sin(w * x), CTX)
        scale = X * mp.cosh(mp.pi * n) * sum(abs(v) * X ** t for arr in arrays
                                              for t, v in enumerate(arr))
        assert abs(table.project(arrays) - want) < mpf(10) ** -60 * scale
        assert lambda_correction(arrays, table, CTX) == -mp.sqrt(2 / X) * table.project(arrays)


def test_lambda_correction_rejects_short_table(benchmark1):
    # F of step 2 reaches power M(2) - 1: a table that stops one power short
    # must raise rather than drop the top summands
    sol = solve(benchmark1, 1, 1, CTX)
    lambdas = (sol.lambda0,) + sol.lambda_corrections
    rhs = build_rhs(benchmark1, 1, sol.terms, lambdas, CTX)
    top = len(rhs[0]) - 1
    assert top == benchmark1.M(2) - 1
    lambda_correction(rhs, moments(1, benchmark1.X, top, CTX), CTX)
    with pytest.raises(IndexError):
        lambda_correction(rhs, moments(1, benchmark1.X, top - 1, CTX), CTX)


def test_300_digits_match_600_digit_run(b1_solutions_m20, b2_solutions_m10):
    # rounding of the whole solve at 300 digits, against a 600-digit replay
    ctx600 = PrecisionContext(digits=600)
    cases = ((ProblemSpec.make(5, ["-0.02", 0, 0, 0, "0.0001"], [0, "-0.04"],
                               [0, 0, "-0.02"], ctx600), b1_solutions_m20[1], "1e-254"),
             (ProblemSpec.make(1, [0, 1], [0], [0], ctx600), b2_solutions_m10[50], "1e-265"))
    for spec, sol, bound in cases:
        ref = solve(spec, sol.n, sol.m, ctx600).lambda_approx
        with ctx600.workprec():
            assert abs(sol.lambda_approx - ref) / ref < mpf(bound), (sol.n, sol.m)


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
