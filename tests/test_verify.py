"""Quadrature, residual norms, fixtures, and the sine-Galerkin oracle."""

import logging

import pytest
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, ProblemSpec, QuadratureRule,
                   compare_to_fixture, galerkin_nearest_eigenvalue,
                   load_fixtures, residual_norm, residual_sweep, solve, verify)
from fdsl4.verify import (build_galerkin, default_panels, integrate_adaptive,
                          matching_digits)

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


def test_adaptive_integration_flags_convergence():
    with CTX.workprec():
        val, ok = integrate_adaptive(lambda x: mp.sin(3 * x), 2, 8, CTX)
        assert ok
        want = (1 - mp.cos(6)) / 3
        assert abs(val - want) < mpf(10) ** -60


def test_adaptive_integration_warns_when_unsettled(caplog):
    with caplog.at_level(logging.WARNING, logger="fdsl4.verify"):
        _, ok = integrate_adaptive(lambda x: mp.sin(200 * x), 2, 1, CTX,
                                   nodes_per_panel=4)
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


@pytest.fixture(scope="module")
def sized_specs(x_potential):
    return {
        "benchmark2": x_potential,
        "benchmark1": ProblemSpec.make(5, ["-0.02", 0, 0, 0, "0.0001"], [0, "-0.04"],
                                       [0, 0, "-0.02"], CTX),
        "degree4": ProblemSpec.make("0.5", ["0.31", "-0.22", "0.4", "-0.17", "0.45"],
                                    ["-0.12", "0.27", "-0.38", "0.09", "-0.3"],
                                    ["0.25", "-0.41", "0.16", "0.33", "-0.07"], CTX),
    }


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
    finer = integrals(sol, spec, 4 * panels, CTX)
    with CTX.workprec():
        for delta, square in zip(sweep, finer):
            want = mp.sqrt(abs(square))
            assert abs(delta - want) <= want * mpf("1e-15")


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


def test_compare_to_fixture_rank10(x_potential):
    fx = load_fixtures()
    sol = solve(x_potential, 1, 10, CTX)
    report = compare_to_fixture(sol, fx, CTX)
    assert report["rank10_digits"] >= 45


def test_compare_to_fixture_error_ratio(benchmark1, ctx120):
    fx = load_fixtures()
    sol = solve(benchmark1, 1, 10, ctx120)
    report = compare_to_fixture(sol, fx, ctx120)
    with ctx120.workprec():
        assert mpf("0.5") < report["error_ratio"] < 2


def test_galerkin_diagonal_for_zero_potentials():
    spec = ProblemSpec.make(2, [0, 0], [0, 0], [0, 0], CTX50)
    oracle = build_galerkin(spec, 12, CTX50)
    with CTX50.workprec():
        for i in range(12):
            for j in range(12):
                if i == j:
                    want = ((i + 1) * mp.pi / 2) ** 4
                    assert abs(oracle.matrix[i][j] - want) < mpf(10) ** -40
                else:
                    assert abs(oracle.matrix[i][j]) < mpf(10) ** -40


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
