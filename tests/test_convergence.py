"""Contraction constant, majorant sequence, a-priori error bounds."""

import pytest
from mpmath import mpf

from fdsl4 import PrecisionContext, ProblemSpec, convergence_report, problem

from .oracles import majorant

CTX = PrecisionContext(digits=60)


def test_benchmark1_threshold(benchmark1):
    # sufficient condition holds from index 3 on; frozen r_3 from direct
    # evaluation of the contraction-constant formula
    r3 = 4 * convergence_report(benchmark1, 3, CTX).M_n
    with CTX.workprec():
        assert abs(r3 - mpf("0.84734012")) < mpf("1e-6")
        assert r3 < 1
    r2 = 4 * convergence_report(benchmark1, 2, CTX).M_n
    assert r2 > 1
    for n in range(3, 30):
        assert 4 * convergence_report(benchmark1, n, CTX).M_n < 1


def test_benchmark2_threshold(benchmark2):
    # holds exactly from index 2 on
    assert 4 * convergence_report(benchmark2, 1, CTX).M_n > 1
    for n in range(2, 30):
        assert 4 * convergence_report(benchmark2, n, CTX).M_n < 1


def test_omega_computed_once_per_spec(monkeypatch):
    # omega is cached per (spec, ctx): a second report on the same problem
    # finds no critical points again
    calls = []
    roots = problem._critical_points
    monkeypatch.setattr(problem, "_critical_points", lambda p: calls.append(p) or roots(p))
    problem.omega.cache_clear()
    spec = ProblemSpec.make(2, ["0.3", "-0.2", "0.5", "0.1"], [0, "0.04"], [0, "-0.01"], CTX)
    first = convergence_report(spec, 3, CTX)
    assert calls
    seen = len(calls)
    again = convergence_report(spec, 4, CTX)
    assert len(calls) == seen
    assert again.omega == first.omega


def test_zero_omega_zero_constant():
    spec = ProblemSpec.make(3, [0, 0], [0, 0], [0, 0], CTX)
    assert convergence_report(spec, 5, CTX).M_n == 0


def test_report_fields(benchmark1):
    report = convergence_report(benchmark1, 3, CTX)
    assert report.converges
    with CTX.workprec():
        assert report.r_n == 4 * report.M_n
        assert abs(report.omega - mpf("0.2")) < mpf("1e-12")


def test_majorant_values():
    assert majorant(0) == 1
    assert majorant(1) == 2
    seq = [1] + [majorant(j) for j in range(6)]
    assert seq == [1, 1, 2, 5, 14, 42, 132]


def test_majorant_convolution_identity():
    # the sequence solves the convolution recurrence exactly
    seq = [1] + [majorant(j) for j in range(31)]
    for j in range(31):
        assert seq[j + 1] == sum(seq[j - s] * seq[s] for s in range(j + 1))


def test_majorant_rejects_negative():
    with pytest.raises(ValueError):
        majorant(-1)


def test_error_bounds_monotone(benchmark1):
    report = convergence_report(benchmark1, 4, CTX)
    with CTX.workprec():
        prev = None
        for m in range(1, 25):
            lb, ub = report.lambda_bound(m), report.u_bound(m)
            assert lb > 0 and ub > 0
            if prev is not None:
                assert lb < prev[0] and ub < prev[1]
            prev = (lb, ub)


def test_error_bounds_shrink_with_ratio(benchmark1):
    # bounds vanish as the ratio goes to zero (far tail of the index range)
    with CTX.workprec():
        small = convergence_report(benchmark1, 200, CTX)
        lb, ub = small.lambda_bound(10), small.u_bound(10)
        assert lb < mpf("1e-20") and ub < mpf("1e-25")


def test_bounds_not_applicable(benchmark1, benchmark2):
    for report, m in ((convergence_report(benchmark1, 1, CTX), 10),
                      (convergence_report(benchmark2, 1, CTX), 10),
                      # degenerate denominator at rank 0
                      (convergence_report(benchmark1, 3, CTX), 0)):
        assert report.lambda_bound(m) is None and report.u_bound(m) is None


def test_lambda_bound_dominates_observed_benchmark1(benchmark1, ctx120):
    # observed rank-m eigenvalue movement is far below the certificate
    from fdsl4 import solve
    report = convergence_report(benchmark1, 3, CTX)
    sol = solve(benchmark1, 3, 12, ctx120)
    with ctx120.workprec():
        tail = abs(sol.lambda_corrections[-1])
        bound = report.lambda_bound(11)
        assert tail < bound


def test_correction_envelope_dominates(benchmark1, benchmark2, ctx120):
    # each eigenvalue correction sits below the majorant-chain envelope.
    # For benchmark 1 the diagnostic constant omits the plain second-potential
    # sup norm, which the envelope needs; evaluate with it restored.
    import dataclasses

    from fdsl4 import solve
    from fdsl4.problem import sup_norm

    from .oracles import correction_envelope

    for spec, n, patch in ((benchmark2, 2, False), (benchmark2, 5, False),
                           (benchmark1, 3, True), (benchmark1, 8, True)):
        report = convergence_report(spec, n, CTX)
        assert report.converges
        if patch:
            with CTX.workprec():
                om = max(report.omega, sup_norm(spec.q2, spec.X, CTX))
                scale = om / report.omega
                report = dataclasses.replace(report, omega=om,
                                             M_n=report.M_n * scale,
                                             r_n=report.r_n * scale)
        sol = solve(spec, n, 8, ctx120)
        with ctx120.workprec():
            for j, lam in enumerate(sol.lambda_corrections):
                assert abs(lam) <= correction_envelope(report, j)
