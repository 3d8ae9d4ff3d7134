"""Quadrature, residual norms, fixtures, and the sine-Galerkin oracle."""

import logging
import math
import random

import pytest
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, ProblemSpec, galerkin_nearest_eigenvalue,
                   load_fixtures, residual_sweep, solve, verify)
from fdsl4.corrections import _derivative_arrays
from fdsl4.numerics import matching_digits
from fdsl4.verify import QuadratureRule, _fixed, _lu_factor, _lu_solve, build_galerkin

from .oracles import (fdot_nearest_eigenvalue, pointwise_residual_integrals,
                      quadrature_sine_cosine_integrals)

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


def _square_of(R, n, X, ctx):
    """_residual_square of one series R at ctx, moments sized to R."""
    with ctx.workprec():
        X = mpf(X)
        with mp.workprec(mp.prec + verify.GUARD_BITS):
            moments = verify._square_moments(n, 2 * max(map(len, R)) - 2)
        return verify._residual_square(R, X, n, moments, verify.GUARD_BITS)


def test_adaptive_integration_flags_convergence():
    # a series with all four families, shaped like a residual (sin and cos
    # of one length, sinh and cosh of another): the exact square integral
    # flags that it certifies its digits, and matches quadrature of the
    # pointwise square
    n, X = 3, "2"
    with CTX.workprec():
        R = tuple(tuple(mpf(v) for v in f) for f in
                  (["0.5", "-1.25", "0.75"], ["1", "0.3", 0], ["0.2", "-0.1"], ["-0.4", "0.6"]))
        value, digits = _square_of(R, n, X, CTX)
        assert digits >= verify.CERTIFIED_DIGITS
        w = mp.pi * n / mpf(X)

        def phi(x):
            sin_wx, cos_wx = mp.sin(w * x), mp.cos(w * x)
            sinh_wx, cosh_wx = mp.sinh(w * x), mp.cosh(w * x)
            return sum(mp.polyval(f[::-1], x) * v for f, v in
                       zip(R, (sin_wx, cos_wx, sinh_wx, cosh_wx)))

        # 64 twenty-node panels are good to about 1e-92 here, 16 only to 1e-68
        want = QuadratureRule.build(X, 64, 20, CTX).integrate(lambda x: phi(x) ** 2, CTX)
        assert abs(value - want) < abs(want) * mpf(10) ** -85


def test_adaptive_integration_warns_when_unsettled(sized_specs, monkeypatch, caplog):
    # a rank still short of CERTIFIED_DIGITS after its retry is logged, once
    # per rank, and its value is still returned
    spec, m = sized_specs["benchmark2"], 3
    sol = solve(spec, 2, m, CTX)
    want = residual_sweep(sol, spec, CTX)
    square = verify._residual_square
    guards = []

    def short(R, X, n, moments, guard):
        value, digits = square(R, X, n, moments, guard)
        guards.append(guard)
        return value, min(digits, verify.CERTIFIED_DIGITS - 1)

    monkeypatch.setattr(verify, "_residual_square", short)
    with caplog.at_level(logging.WARNING, logger="fdsl4.verify"):
        got = residual_sweep(sol, spec, CTX)
    assert len(guards) == 2 * (m + 1)
    assert guards[::2] == [verify.GUARD_BITS] * (m + 1)
    assert all(g > verify.GUARD_BITS for g in guards[1::2])
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == m + 1
    assert all("certifies only" in text for text in warnings)
    with CTX.workprec():
        for delta, ref in zip(got, want, strict=True):
            assert abs(delta - ref) <= ref * mpf(10) ** -(CTX.digits - 15)


def test_residual_zero_potentials():
    spec = ProblemSpec.make(1, [0, 0], [0, 0], [0, 0], CTX)
    for m in (0, 3):
        sol = solve(spec, 2, m, CTX)
        delta = residual_sweep(sol, spec, CTX)[m]
        with CTX.workprec():
            assert delta < mpf(10) ** -(CTX.digits - 20)


def test_residual_x_potential_reference_values(x_potential):
    # 2-significant-figure reference residuals from a 300-digit run
    sol = solve(x_potential, 1, 10, CTX)
    delta = residual_sweep(sol, x_potential, CTX)[10]
    with CTX.workprec():
        ref = mpf("2.8e-39")
        assert ref / 2 < delta < ref * 2
    sol = solve(x_potential, 5, 3, CTX)
    delta = residual_sweep(sol, x_potential, CTX)[3]
    with CTX.workprec():
        ref = mpf("1.9e-17")
        assert ref / 2 < delta < ref * 2


def test_residual_sweep_is_consistent(x_potential):
    sol = solve(x_potential, 2, 4, CTX)
    sweep = residual_sweep(sol, x_potential, CTX)
    assert len(sweep) == 5
    with CTX.workprec():
        assert all(a > b for a, b in zip(sweep, sweep[1:]))
        # rank 2 does not depend on the later terms
        one = residual_sweep(solve(x_potential, 2, 2, CTX), x_potential, CTX)[-1]
        assert abs(one - sweep[2]) <= abs(one) * mpf(10) ** -20


def test_residual_sweep_rejects_a_foreign_spec(benchmark1, benchmark2):
    # a benchmark-2 solution (X = 1) swept with benchmark 1's spec (X = 5)
    # would give the residual of the wrong operator on the wrong interval
    sol = solve(benchmark2, 1, 2, CTX)
    with pytest.raises(ValueError, match="X = 5"):
        residual_sweep(sol, benchmark1, CTX)
    # the same interval parsed at another precision is the same interval
    sol = solve(ProblemSpec.make("0.3", [0, 1], [0], [0], PrecisionContext(300)), 1, 2, CTX)
    assert len(residual_sweep(sol, ProblemSpec.make("0.3", [0, 1], [0], [0], CTX), CTX)) == 3


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


@pytest.mark.parametrize("name, n, m", [("benchmark2", 1, 4), ("benchmark2", 50, 4),
                                        ("benchmark1", 1, 6), ("benchmark1", 8, 6),
                                        ("degree4", 50, 3)])
def test_sized_rule_settles_on_first_doubling(sized_specs, name, n, m,
                                              monkeypatch, caplog):
    # the exact integral certifies every rank on its first pass, at the
    # default guard: no rank is redone and nothing is logged; the deltas
    # agree with the term-by-term integrand on 4 max(2, ceil(pi n / 8)) panels
    spec = sized_specs[name]
    sol = solve(spec, n, m, CTX)
    square = verify._residual_square
    passes = []

    def counted(R, X, n, moments, guard):
        value, digits = square(R, X, n, moments, guard)
        passes.append((guard, digits))
        return value, digits

    monkeypatch.setattr(verify, "_residual_square", counted)
    with caplog.at_level(logging.WARNING, logger="fdsl4.verify"):
        sweep = residual_sweep(sol, spec, CTX)
    assert [guard for guard, _ in passes] == [verify.GUARD_BITS] * (m + 1)
    assert min(digits for _, digits in passes) >= verify.CERTIFIED_DIGITS
    assert not caplog.records
    panels = 4 * max(2, math.ceil(math.pi * n / 8))
    finer = pointwise_residual_integrals(sol, spec, panels, CTX)
    with CTX.workprec():
        for delta, integral in zip(sweep, finer, strict=True):
            want = mp.sqrt(abs(integral))
            assert abs(delta - want) <= want * mpf("1e-15")


@pytest.mark.parametrize("name, n, m", [("benchmark2", 1, 10), ("benchmark2", 50, 4),
                                        ("benchmark1", 8, 6), ("degree4", 50, 3)])
def test_residual_sweep_matches_pointwise_integrand(name, n, m, ctx300):
    # the exact integrals against the term-by-term integrand on 8 max(2,
    # ceil(pi n / 8)) twenty-node panels, to within that rule's own error:
    # the squared residual turns through 2 pi n, at most 2 rad per panel
    spec = _sized_specs(ctx300)[name]
    sol = solve(spec, n, m, ctx300)
    sweep = residual_sweep(sol, spec, ctx300)
    panels = 8 * max(2, math.ceil(math.pi * n / 8))
    squares = pointwise_residual_integrals(sol, spec, panels, ctx300)
    with ctx300.workprec():
        for delta, square in zip(sweep, squares, strict=True):
            want = mp.sqrt(abs(square))
            assert abs(delta - want) <= want * mpf("1e-50")


@pytest.mark.parametrize("n, m", [(1, 10), (50, 4)])
def test_residual_sweep_agrees_with_a_wider_guard(n, m, ctx300, monkeypatch):
    # 1,000 more guard bits move no delta by more than 10^-(digits - 15)
    spec = _sized_specs(ctx300)["benchmark2"]
    sol = solve(spec, n, m, ctx300)
    sweep = residual_sweep(sol, spec, ctx300)
    monkeypatch.setattr(verify, "GUARD_BITS", verify.GUARD_BITS + 1000)
    wide = residual_sweep(sol, spec, ctx300)
    with ctx300.workprec():
        for delta, ref in zip(sweep, wide, strict=True):
            assert abs(delta - ref) <= ref * mpf(10) ** -(ctx300.digits - 15)


def test_residual_retry_recovers_cancelled_ranks(monkeypatch, caplog):
    # at 60 digits the squares of benchmark 1's deep ranks cancel by more than
    # 30 digits; each such rank is redone once, with a wider guard, and then
    # agrees with a 1,000-bit wider evaluation to the 30 certified digits
    ctx = PrecisionContext(digits=60)
    spec = _sized_specs(ctx)["benchmark1"]
    sol = solve(spec, 1, 20, ctx)
    passes = []
    square = verify._residual_square

    def counted(R, X, n, moments, guard):
        value, digits = square(R, X, n, moments, guard)
        passes.append((guard, digits))
        return value, digits

    monkeypatch.setattr(verify, "_residual_square", counted)
    with caplog.at_level(logging.WARNING, logger="fdsl4.verify"):
        sweep = residual_sweep(sol, spec, ctx)
    assert not caplog.records
    short = [digits for guard, digits in passes
             if guard == verify.GUARD_BITS and digits < verify.CERTIFIED_DIGITS]
    retries = [digits for guard, digits in passes if guard > verify.GUARD_BITS]
    assert short and len(retries) == len(short) == len(passes) - len(sweep)
    assert min(retries) >= verify.CERTIFIED_DIGITS
    monkeypatch.setattr(verify, "_residual_square", square)
    monkeypatch.setattr(verify, "GUARD_BITS", verify.GUARD_BITS + 1000)
    wide = residual_sweep(sol, spec, ctx)
    assert min(matching_digits(d, w, ctx) for d, w in zip(sweep, wide)) >= 30


@pytest.mark.xfail(strict=True, reason="the residual bound covers the integral of the "
                   "series as rounded, not the rounding that formed the series (ROADMAP item 7)")
def test_residual_certificate_covers_its_series(caplog):
    # a 60-digit benchmark 1 (1, 20) solution, swept at 60 digits and again
    # with its series formed at 300: every rank either agrees to the
    # certified digits or is logged as short of them
    ctx, wide_ctx = PrecisionContext(digits=60), PrecisionContext(digits=300)
    spec = _sized_specs(ctx)["benchmark1"]
    sol = solve(spec, 1, 20, ctx)
    with caplog.at_level(logging.WARNING, logger="fdsl4.verify"):
        sweep = residual_sweep(sol, spec, ctx)
    logged = {record.args[2] for record in caplog.records}
    wide = residual_sweep(sol, _sized_specs(wide_ctx)["benchmark1"], wide_ctx)
    assert [k for k, (d, w) in enumerate(zip(sweep, wide)) if k not in logged
            and matching_digits(d, w, ctx) < verify.CERTIFIED_DIGITS] == []


def test_fixture_tables_complete():
    fx = load_fixtures()
    assert set(fx.b1_exact) == set(range(1, 9))
    assert set(fx.b2_rank10) == {1, 2, 3, 4, 5, 10, 20, 50}
    assert len(fx.b1_fd_error) == 24
    assert len(fx.b2_residual) == 80
    assert fx.b1_exact[3].startswith("13.21535154")


def test_fixture_line_outside_a_section_raises(tmp_path, monkeypatch):
    # a data line before any section header, and one under an unknown header
    data = tmp_path / "data" / "reference_values.txt"
    data.parent.mkdir()
    monkeypatch.setattr(verify.resources, "files", lambda _: tmp_path)
    load_fixtures.cache_clear()
    try:
        for text in ("1 2.5\n", "[benchmark1.exact]\n1 2.5\n[other]\n3 4.5\n"):
            data.write_text(text)
            with pytest.raises(ValueError, match="outside a known section"):
                load_fixtures()
    finally:
        monkeypatch.undo()
        load_fixtures.cache_clear()
    assert load_fixtures().b1_exact[3].startswith("13.21535154")


def test_matching_digits():
    assert matching_digits("1.234567", "1.234567", CTX50) == 50
    assert matching_digits("1.2345678", "1.2345699", CTX50) in (5, 6)
    assert matching_digits("2.0", "1.0", CTX50) == 0
    # agreement to 55 digits certifies no more than the 50 the context carries
    assert matching_digits("1." + "0" * 54 + "1", "1", CTX50) == 50


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


def test_galerkin_entries_match_quadrature(benchmark1):
    # benchmark 1 has q1 != 0, so both signs of the sin_|p-q| integral enter:
    # every entry against quadrature of its defining integrand
    N = 8
    rows = build_galerkin(benchmark1, N, CTX50)
    rule = QuadratureRule.build(benchmark1.X, 16, 20, CTX50)
    with CTX50.workprec():
        X = benchmark1.X
        for p in range(1, N + 1):
            wp = p * mp.pi / X
            for q in range(1, N + 1):
                wq = q * mp.pi / X

                def integrand(x):
                    q0, q1, q2 = (mp.polyval(c[::-1], x) for c in
                                  (benchmark1.q0, benchmark1.q1, benchmark1.q2))
                    return 2 / X * ((q0 - wp ** 2 * q2) * mp.sin(wp * x)
                                    + wp * q1 * mp.cos(wp * x)) * mp.sin(wq * x)

                want = rule.integrate(integrand, CTX50) + (wp ** 4 if p == q else 0)
                assert abs(rows[p - 1][q - 1] - want) <= mpf(10) ** -40 * max(1, abs(want))


def test_sine_cosine_integrals_match_quadrature():
    # the kernel-built columns at both ends of the N = 200 range, k = 0 (closed
    # form), 1, 2, 2N - 1 and 2N, against 400 twenty-node panels (about 1e-55)
    N, X, freqs = 200, 5, (0, 1, 2, 399, 400)
    I_s, I_c = verify._sine_cosine_integrals(X, 4, 2 * N, CTX50)
    want = quadrature_sine_cosine_integrals(X, 4, freqs, 400, CTX50)
    with CTX50.workprec():
        for (l, k), (s, c) in want.items():
            tol = mpf(X) ** (l + 1) * mpf(10) ** -50
            assert abs(I_s[l][k] - s) <= tol and abs(I_c[l][k] - c) <= tol, (l, k)


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


def test_galerkin_refuses_a_non_finite_shift(x_potential, monkeypatch):
    # an inf or nan shift used to fail inside _fixed, after the matrix was built
    monkeypatch.setattr(verify, "build_galerkin", None)
    for shift in (mp.inf, mp.nan, "-inf"):
        with pytest.raises(ValueError, match="shift must be finite"):
            galerkin_nearest_eigenvalue(x_potential, shift, 20, CTX50)


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


def test_lu_factor_exact_zero_pivot_is_one_unit():
    # after the swap, 2 - (1/2) 4 is exactly zero: U's last pivot becomes one
    # unit of the scale, and the solve points along the null direction (2, -1)
    lu, piv, e, bits = _lu_factor([[mpf(1), mpf(2)], [mpf(2), mpf(4)]], CTX50)
    assert piv == [1, 0] and lu[1][1] == 1
    x = _lu_solve(lu, piv, [1 << bits, 0], bits)
    assert x[1] != 0 and x[0] == -2 * x[1]


def test_oracle_factors_a_shift_on_an_eigenvalue_once(monkeypatch):
    # zero potentials give a diagonal matrix; a shift equal to a diagonal entry
    # makes an exactly zero pivot, and one factorization returns that entry
    ctx = PrecisionContext(digits=60)
    spec = ProblemSpec.make(1, [0, 0], [0, 0], [0, 0], ctx)
    calls = []
    monkeypatch.setattr(verify, "_lu_factor",
                        lambda *args: calls.append(1) or _lu_factor(*args))
    for n in (1, 2, 7):
        shift = build_galerkin(spec, 24, ctx)[n - 1][n - 1]
        calls.clear()
        ritz = galerkin_nearest_eigenvalue(spec, shift, 24, ctx)
        assert len(calls) == 1
        assert matching_digits(ritz, shift, ctx) == 60


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
    # mp.eig (Hessenberg QR) shares no code with either LU; the fixture
    # shift is 7 digits from benchmark 1's matrix eigenvalue at N=12
    spec = request.getfixturevalue(name)
    fx = load_fixtures()
    shift = CTX50.mpf(fx.b1_exact[2] if name == "benchmark1" else fx.b2_rank10[2])
    ritz = galerkin_nearest_eigenvalue(spec, shift, 12, CTX50)
    with CTX50.workprec():
        eigs = mp.eig(mp.matrix(build_galerkin(spec, 12, CTX50)), left=False, right=False)
        nearest = min(eigs, key=lambda z: abs(z - shift))
        assert abs(mp.im(nearest)) <= abs(nearest) * mpf(10) ** -45
    assert matching_digits(ritz, mp.re(nearest), CTX50) >= 45
