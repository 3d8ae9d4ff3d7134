"""Quadrature, residual norms, fixtures, and the sine-Galerkin oracle."""

import logging
import random

import pytest
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, ProblemSpec, QuadratureRule, galerkin_nearest_eigenvalue,
                   load_fixtures, residual_norm, residual_sweep, solve, verify)
from fdsl4.corrections import _derivative_arrays, basis_values
from fdsl4.numerics import matching_digits
from fdsl4.verify import (_doubled, _fixed, _lu_factor, _lu_solve, build_galerkin,
                          default_panels)

from .oracles import fdot_nearest_eigenvalue, pointwise_residual_integrals

CTX = PrecisionContext(digits=120)
CTX50 = PrecisionContext(digits=50)


@pytest.fixture(scope="module")
def x_potential():
    return ProblemSpec.make(1, [0, 1], [0], [0], CTX)


def test_rule_exact_for_polynomials():
    # 20-node panels integrate degree-39 panel polynomials exactly
    rule = QuadratureRule.build(2, 3, 20, CTX)
    with CTX.workprec():
        got = rule.integrate(lambda x: x ** 39, CTX)
        want = mpf(2) ** 40 / 40
        assert abs(got - want) < abs(want) * mpf(10) ** -110


def test_rule_weights_sum_to_length():
    rule = QuadratureRule.build("2.5", 4, 12, CTX)
    with CTX.workprec():
        assert abs(sum(rule.weights) - mpf("2.5")) < mpf(10) ** -110


def _rule_integral(f, X, nodes_per_panel):
    """The doubling loop's argument: panels -> [integral of f over [0, X]]."""
    return lambda p: [QuadratureRule.build(X, p, nodes_per_panel, CTX).integrate(f, CTX)]


def test_adaptive_integration_flags_convergence():
    with CTX.workprec():
        (val,), ok = _doubled(_rule_integral(lambda x: mp.sin(3 * x), 2, 20),
                              8, CTX, "test")
        assert ok
        want = (1 - mp.cos(6)) / 3
        assert abs(val - want) < mpf(10) ** -60


def test_adaptive_integration_warns_when_unsettled(caplog):
    with caplog.at_level(logging.WARNING, logger="fdsl4.verify"):
        _, ok = _doubled(_rule_integral(lambda x: mp.sin(200 * x), 2, 4),
                         1, CTX, "test")
    assert not ok
    assert "did not settle" in caplog.text


def test_residual_zero_potentials():
    spec = ProblemSpec.make(1, [0, 0], [0, 0], [0, 0], CTX)
    for m in (0, 3):
        sol = solve(spec, 2, m, CTX)
        delta = residual_norm(sol, spec, CTX)
        with CTX.workprec():
            assert delta < mpf(10) ** -(CTX.digits - 20)


def test_residual_x_potential_reference_values(x_potential):
    # 2-significant-figure reference residuals from a 300-digit run
    sol = solve(x_potential, 1, 10, CTX)
    delta = residual_norm(sol, x_potential, CTX)
    with CTX.workprec():
        ref = mpf("2.8e-39")
        assert ref / 2 < delta < ref * 2
    sol = solve(x_potential, 5, 3, CTX)
    delta = residual_norm(sol, x_potential, CTX)
    with CTX.workprec():
        ref = mpf("1.9e-17")
        assert ref / 2 < delta < ref * 2


def test_residual_sweep_is_consistent(x_potential):
    sol = solve(x_potential, 2, 4, CTX)
    sweep = residual_sweep(sol, x_potential, CTX)
    assert len(sweep) == 5
    with CTX.workprec():
        assert all(a > b for a, b in zip(sweep, sweep[1:]))
        one = residual_norm(sol, x_potential, CTX)
        assert abs(one - sweep[4]) <= abs(one) * mpf(10) ** -20


def _sized_specs(ctx):
    return {
        "benchmark2": ProblemSpec.make(1, [0, 1], [0], [0], ctx),
        "benchmark1": ProblemSpec.make(5, ["-0.02", 0, 0, 0, "0.0001"], [0, "-0.04"],
                                       [0, 0, "-0.02"], ctx),
        "degree4": ProblemSpec.make("0.5", ["0.31", "-0.22", "0.4", "-0.17", "0.45"],
                                    ["-0.12", "0.27", "-0.38", "0.09", "-0.3"],
                                    ["0.25", "-0.41", "0.16", "0.33", "-0.07"], ctx),
    }


@pytest.fixture(scope="module")
def sized_specs():
    return _sized_specs(CTX)


def test_residual_sweep_caches_one_tuple_per_term(sized_specs):
    # a term's derivative orders 0..4 share one cache entry, so a sweep over
    # ranks 0..m at one precision adds exactly m + 1 entries, one per term
    spec, m = sized_specs["benchmark1"], 6
    sol = solve(spec, 1, m, CTX)
    _derivative_arrays.cache_clear()
    residual_sweep(sol, spec, CTX)
    info = _derivative_arrays.cache_info()
    assert (info.currsize, info.misses) == (m + 1, m + 1)


def test_default_panels_follow_the_phase():
    # pi n / 8 panels: at most 16 rad of the 2 pi n turn of phi^2 per panel
    assert [default_panels(n) for n in (1, 5, 6, 8, 50)] == [2, 2, 3, 4, 20]


@pytest.mark.parametrize("name, n, m", [("benchmark2", 1, 4), ("benchmark2", 50, 4),
                                        ("benchmark1", 1, 6), ("benchmark1", 8, 6),
                                        ("degree4", 50, 3)])
def test_sized_rule_settles_on_first_doubling(sized_specs, name, n, m,
                                              monkeypatch, caplog):
    spec = sized_specs[name]
    sol = solve(spec, n, m, CTX)
    integrals = verify._residual_integrals
    passes = []

    def counted(sol, spec, panels, ctx):
        passes.append(panels)
        return integrals(sol, spec, panels, ctx)

    monkeypatch.setattr(verify, "_residual_integrals", counted)
    with caplog.at_level(logging.WARNING, logger="fdsl4.verify"):
        sweep = residual_sweep(sol, spec, CTX)
    panels = default_panels(n)
    assert passes == [panels, 2 * panels]
    assert not caplog.records
    finer = integrals(sol, verify._residual_series(sol, spec, CTX), 4 * panels, CTX)
    with CTX.workprec():
        for delta, square in zip(sweep, finer):
            want = mp.sqrt(abs(square))
            assert abs(delta - want) <= want * mpf("1e-15")


@pytest.mark.parametrize("name, n, m", [("benchmark2", 1, 10), ("benchmark2", 50, 4),
                                        ("benchmark1", 8, 6), ("degree4", 50, 3)])
def test_residual_sweep_matches_pointwise_integrand(name, n, m, ctx300):
    # one residual series per rank, paired once per node with rotated
    # columns, against the term-by-term integrand at the returned panel count
    spec = _sized_specs(ctx300)[name]
    sol = solve(spec, n, m, ctx300)
    sweep = residual_sweep(sol, spec, ctx300)
    squares = pointwise_residual_integrals(sol, spec, 2 * default_panels(n), ctx300)
    with ctx300.workprec():
        for delta, square in zip(sweep, squares, strict=True):
            want = mp.sqrt(abs(square))
            assert abs(delta - want) <= want * mpf("1e-160")


@pytest.mark.parametrize("n, X, panels", [(1, "1", 2), (1, "5", 20), (50, "1", 2),
                                          (50, "1", 20), (50, "0.5", 20)])
def test_rotated_node_columns_match_basis_values(n, X, panels):
    # per-panel rotations give every node's columns to a few ulps of
    # max(1, cosh wx) x^p, the size of the largest transcendental there,
    # times 1 + wx: both paths round the argument wx, by different routes
    top = 6
    rule = QuadratureRule.build(X, panels, 20, CTX)
    with CTX.workprec():
        X = mpf(X)
        w = mp.pi * n / X
        got = list(verify._node_columns(n, X, rule, top))
        assert len(got) == len(rule.nodes)
        for x, columns in zip(rule.nodes, got):
            want = basis_values(n, X, x, top, CTX)
            scale = mpf(2) ** (8 - mp.prec) * (1 + w * x) * max(1, mp.cosh(w * x))
            for col, ref in zip(columns, want, strict=True):
                for p, (v, r) in enumerate(zip(col, ref, strict=True)):
                    assert abs(v - r) <= scale * x ** p


def test_fixture_tables_complete():
    fx = load_fixtures()
    assert set(fx.b1_exact) == set(range(1, 9))
    assert set(fx.b2_rank10) == {1, 2, 3, 4, 5, 10, 20, 50}
    assert len(fx.b1_fd_error) == 24
    assert len(fx.b2_residual) == 80
    assert fx.b1_exact[3].startswith("13.21535154")


def test_matching_digits():
    assert matching_digits("1.234567", "1.234567", CTX50) == 50
    assert matching_digits("1.2345678", "1.2345699", CTX50) in (5, 6)
    assert matching_digits("2.0", "1.0", CTX50) == 0


def test_galerkin_diagonal_for_zero_potentials():
    spec = ProblemSpec.make(2, [0, 0], [0, 0], [0, 0], CTX50)
    rows = build_galerkin(spec, 12, CTX50)
    with CTX50.workprec():
        for i in range(12):
            for j in range(12):
                if i == j:
                    want = ((i + 1) * mp.pi / 2) ** 4
                    assert abs(rows[i][j] - want) < mpf(10) ** -40
                else:
                    assert abs(rows[i][j]) < mpf(10) ** -40


def test_galerkin_zero_potentials_inverse_iteration():
    spec = ProblemSpec.make(1, [0, 0], [0, 0], [0, 0], CTX50)
    with CTX50.workprec():
        shift = 16 * mp.pi ** 4 * mpf("1.001")
        ritz = galerkin_nearest_eigenvalue(spec, shift, 30, CTX50)
        # squared Rayleigh stopping tolerance: effectively exact agreement
        assert abs(ritz - 16 * mp.pi ** 4) < abs(ritz) * mpf(10) ** -18


def test_galerkin_x_potential_agreement(x_potential):
    sol = solve(x_potential, 1, 10, CTX)
    with CTX.workprec():
        lam = sol.lambda_approx
    ritz = galerkin_nearest_eigenvalue(x_potential, lam, 80, CTX50)
    with CTX50.workprec():
        assert abs(ritz - lam) < abs(lam) * mpf(10) ** -8


def test_galerkin_benchmark1_against_exact(benchmark1, ctx120):
    fx = load_fixtures()
    ritz = galerkin_nearest_eigenvalue(benchmark1, fx.b1_exact[3], 80, CTX50)
    assert matching_digits(ritz, fx.b1_exact[3], CTX50) >= 8


def test_galerkin_doubling_stability(x_potential):
    sol = solve(x_potential, 2, 8, CTX)
    with CTX.workprec():
        lam = sol.lambda_approx
    r1 = galerkin_nearest_eigenvalue(x_potential, lam, 60, CTX50)
    r2 = galerkin_nearest_eigenvalue(x_potential, lam, 120, CTX50)
    with CTX50.workprec():
        assert abs(r1 - r2) < abs(r2) * mpf(10) ** -8


def test_galerkin_unsettled_iteration_reports_residual(x_potential, monkeypatch):
    # one iteration never settles; the residual is the one the mpf loop gave
    monkeypatch.setattr(verify, "MAX_INVERSE_ITERATIONS", 1)
    with pytest.raises(verify.OracleConvergenceError,
                       match="after 1 iterations; last Rayleigh residual 9.1139"):
        galerkin_nearest_eigenvalue(x_potential, 100, 20, CTX50)


def _fixed_system(n=30, seed=7):
    """Entries on a 1e-6 grid in [-1, 1]; A[0][0] is the smallest entry of its column."""
    rng = random.Random(seed)
    with CTX50.workprec():
        rows = [[mpf(rng.randint(-10 ** 6, 10 ** 6)) / 10 ** 6 for _ in range(n)]
                for _ in range(n)]
        rows[0][0] = mpf("1e-3")
        b = [mpf(rng.randint(-10 ** 6, 10 ** 6)) / 10 ** 6 for _ in range(n)]
    return rows, b


def _unpacked(lu, e, bits):
    """The packed integer factors as mpf: L (unit lower, 2^-bits) and U (2^e)."""
    n = len(lu)
    L = [[mp.ldexp(lu[i][k], -bits) if k < i else mpf(k == i) for k in range(n)]
         for i in range(n)]
    U = [[mp.ldexp(lu[k][j], e) if j >= k else mpf(0) for j in range(n)] for k in range(n)]
    return L, U


def test_lu_factor_and_solve_direct():
    rows, b = _fixed_system()
    n = len(rows)
    lu, piv, e, bits = _lu_factor(rows, CTX50)
    assert piv[0] != 0  # the first column needs a row swap
    assert sorted(piv) == list(range(n))
    with CTX50.workprec():
        L, U = _unpacked(lu, e, bits)
        tol = mpf(10) ** -(CTX50.digits - 5)
        for i in range(n):
            for j in range(n):
                products = [L[i][k] * U[k][j] for k in range(min(i, j) + 1)]
                assert abs(rows[piv[i]][j] - sum(products)) <= tol * sum(map(abs, products))
        # b enters with bits fraction bits; x comes back scaled by 2^(e + 2 bits)
        x = [mp.ldexp(v, -(e + 2 * bits))
             for v in _lu_solve(lu, piv, [_fixed(v, -bits) for v in b], bits)]
        size = max(sum(abs(a * v) for a, v in zip(row, x)) for row in rows)
        assert max(abs(mp.fdot(row, x) - bi) for row, bi in zip(rows, b)) <= tol * size


def test_lu_factor_exact_zero_pivot_raises():
    # after the swap, 2 - (1/2) 4 is exactly zero
    with pytest.raises(ZeroDivisionError):
        _lu_factor([[mpf(1), mpf(2)], [mpf(2), mpf(4)]], CTX50)


@pytest.mark.parametrize("power", [400, -400])
def test_lu_factor_scales_with_the_matrix(power):
    # the scale follows the largest entry: 2^power A has the same integer
    # factors and pivots, at 2^power times the scale of U
    rows, _ = _fixed_system()
    lu, piv, e, bits = _lu_factor(rows, CTX50)
    with CTX50.workprec():
        scaled = [[mp.ldexp(v, power) for v in row] for row in rows]
    assert _lu_factor(scaled, CTX50) == (lu, piv, e + power, bits)


@pytest.mark.parametrize("name", ["benchmark1", "benchmark2"])
def test_integer_lu_matches_fdot_reference(name, request):
    # the Ritz value near lambda_2 from the integer factors and from the
    # mpf Crout LU with one fdot per entry agree to 45 of 50 digits
    spec = request.getfixturevalue(name)
    fx = load_fixtures()
    shift = fx.b1_exact[2] if name == "benchmark1" else fx.b2_rank10[2]
    rows = build_galerkin(spec, 30, CTX50)
    ritz = galerkin_nearest_eigenvalue(spec, shift, 30, CTX50)
    ref = fdot_nearest_eigenvalue(rows, shift, CTX50)
    assert matching_digits(ritz, ref, CTX50) >= 45


@pytest.mark.parametrize("name", ["benchmark1", "benchmark2"])
def test_oracle_matches_dense_eigensolver(name, request):
    # mp.eig (Hessenberg QR) shares no code with either LU.  The stopping
    # rule (successive Ritz values within 1e-12) leaves a shift 7 digits off
    # with about 29 digits, so the fixture shift is refined once by the oracle.
    spec = request.getfixturevalue(name)
    fx = load_fixtures()
    shift = fx.b1_exact[2] if name == "benchmark1" else fx.b2_rank10[2]
    shift = galerkin_nearest_eigenvalue(spec, shift, 12, CTX50)
    ritz = galerkin_nearest_eigenvalue(spec, shift, 12, CTX50)
    with CTX50.workprec():
        eigs = mp.eig(mp.matrix(build_galerkin(spec, 12, CTX50)), left=False, right=False)
        nearest = min(eigs, key=lambda z: abs(z - shift))
        assert abs(mp.im(nearest)) <= abs(nearest) * mpf(10) ** -45
    assert matching_digits(ritz, mp.re(nearest), CTX50) >= 45
