"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Everything runs at the production precision of 300 digits;
the session-scoped fixtures in conftest.py cache the expensive solves and
residual sweeps.
"""

import random

from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, assemble, eval_term,
                   galerkin_nearest_eigenvalue, load_fixtures, moments,
                   residual_sweep, solve)
from fdsl4.convergence import constant_Mn, convergence_report, majorant
from fdsl4.recursion import HYP, TRIG, family_budget, run_recurrence, top_initial_coeffs
from fdsl4.rhs import eval_rhs
from fdsl4.spectral import lambda_correction

from .conftest import B2_INDICES, step_rhs
from .oracles import (least_squares_slope, product_expansion_pair,
                      x_potential_second_correction)

ORACLE_CTX = PrecisionContext(digits=50)


def _report(number, title, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number} ({title}): {detail}")
    assert passed, f"criterion {number}: {detail}"


# -- criterion 1: benchmark-2 rank-10 eigenvalues to >= 45 digits --------------

def test_criterion_1_rank10_eigenvalues(b2_solutions_m10, ctx300):
    fx = load_fixtures()
    worst = None
    with ctx300.workprec():
        for n in B2_INDICES:
            sol = b2_solutions_m10[n]
            rel = abs(sol.lambda_approx - mpf(fx.b2_rank10[n])) / sol.lambda_approx
            digits = int(mp.floor(-mp.log10(rel))) if rel > 0 else ctx300.digits
            if worst is None or digits < worst[1]:
                worst = (n, digits)
    _report(1, "rank-10 eigenvalues", worst[1] >= 45,
            f"minimum digit agreement {worst[1]} at n={worst[0]} (need >= 45)")


# -- criterion 2: residual tables within a factor of two ----------------------

def test_criterion_2_residual_tables(b2_residuals, ctx300):
    fx = load_fixtures()
    worst = (None, 1.0)
    monotone_in_n = True
    with ctx300.workprec():
        for (n, m), printed in fx.b2_residual.items():
            got = b2_residuals[n][m]
            ratio = got / mpf(printed)
            off = max(ratio, 1 / ratio)
            if off > worst[1]:
                worst = ((n, m), off)
        # row-wise: residuals shrink as the index grows at fixed rank
        for m in range(1, 11):
            row = [b2_residuals[n][m] for n in B2_INDICES]
            if not all(a > b for a, b in zip(row, row[1:])):
                monotone_in_n = False
    _report(2, "residual norms", worst[1] < 2 and monotone_in_n,
            f"worst factor {float(worst[1]):.3f} at (n, m)={worst[0]} (need < 2); "
            f"monotone across indices: {monotone_in_n}")


# -- criterion 3: benchmark-1 absolute errors within a factor of two ----------

def test_criterion_3_benchmark1_errors(benchmark1, b1_solutions_m20, ctx300):
    fx = load_fixtures()
    worst = (None, 1.0)
    with ctx300.workprec():
        for n in range(1, 9):
            full = b1_solutions_m20[n]
            lam_values = (full.lambda0,) + full.lambda_corrections
            exact = mpf(fx.b1_exact[n])
            for m in (10, 15, 20):
                sol = assemble(full.terms, lam_values, m, ctx300)
                err = abs(exact - sol.lambda_approx)
                ratio = err / mpf(fx.b1_fd_error[(n, m)])
                off = max(ratio, 1 / ratio)
                if off > worst[1]:
                    worst = ((n, m), off)
    _report(3, "benchmark-1 error table", worst[1] < 2,
            f"worst factor {float(worst[1]):.3f} at (n, m)={worst[0]} (need < 2)")


# -- criterion 4: closed-form spot checks --------------------------------------

def test_criterion_4_closed_forms(benchmark1, benchmark2, b1_solutions_m20,
                                  ctx300):
    failures = []
    with ctx300.workprec():
        rel_tol = mpf(10) ** -250
        abs_tol = mpf(10) ** -270

        # first corrections, both benchmarks, n = 1..8
        for n in range(1, 9):
            pn = mp.pi * n
            closed = pn ** 2 / 150 + mpf(1) / 400 - 1 / (16 * pn ** 2) \
                + 3 / (32 * pn ** 4)
            got = b1_solutions_m20[n].lambda_corrections[0]
            if abs(got - closed) > abs(closed) * rel_tol:
                failures.append(f"benchmark1 first correction n={n}")
            sol2 = solve(benchmark2, n, 3, ctx300)
            if abs(sol2.lambda_corrections[0] - mpf(1) / 2) > rel_tol / 2:
                failures.append(f"benchmark2 first correction n={n}")
            if n <= 5:
                want = x_potential_second_correction(n, ctx300)
                if abs(sol2.lambda_corrections[1] - want) > abs(want) * rel_tol:
                    failures.append(f"benchmark2 second correction n={n}")
                if abs(sol2.lambda_corrections[2]) > abs_tol:
                    failures.append(f"benchmark2 third correction n={n} nonzero")

        # step-1 coefficient lists, benchmark 2
        for n in (1, 2, 3):
            term = solve(benchmark2, n, 1, ctx300).terms[1]
            pn = mp.pi * n
            s2 = mp.sqrt(2)
            want = {
                ("b", 0): s2 / (4 * pn ** 5),
                ("b", 1): s2 / (8 * pn ** 3),
                ("b", 2): -s2 / (8 * pn ** 3),
                ("a", 0): -3 * s2 / (16 * pn ** 4),
                ("a", 1): 3 * s2 / (8 * pn ** 4),
                ("a", 2): mpf(0),
                ("d", 0): -s2 / (4 * pn ** 5),
                ("c", 0): -s2 * (mp.cos(pn) - mp.cosh(pn)) / (4 * pn ** 5 * mp.sinh(pn)),
            }
            for (name, idx), w in want.items():
                got = getattr(term, name)[idx]
                tol = abs_tol if w == 0 else abs(w) * rel_tol
                if abs(got - w) > tol:
                    failures.append(f"benchmark2 step-1 {name}[{idx}] n={n}")

        # step-1 coefficient lists, benchmark 1
        for n in (1, 2):
            term = b1_solutions_m20[n].terms[1]
            pn = mp.pi * n
            s10 = mp.sqrt(mpf(10))
            want = {
                ("b", 5): -s10 / (8000 * pn ** 3),
                ("a", 4): 3 * s10 / (640 * pn ** 4),
                ("b", 3): s10 / (8 * pn) * (-mpf(1) / 75 + 5 / (8 * pn ** 4)),
                ("a", 5): mpf(0), ("b", 4): mpf(0), ("a", 3): mpf(0),
                ("a", 2): s10 / (16 * pn ** 2) * (mpf(1) / 5 - 75 / (8 * pn ** 4)),
                ("b", 1): s10 / (8 * pn) * (mpf(1) / 3 + 5 / (8 * pn ** 2)
                                            - 25 / (8 * pn ** 4)),
                ("b", 2): mpf(0), ("a", 1): mpf(0),
                ("c", 0): -125 * s10 * mp.cos(pn) / (16 * pn ** 5 * mp.sinh(pn)),
                ("a", 0): 5 * s10 / (128 * pn ** 2) * (-mpf(8) / 3 - 7 / pn ** 2
                                                       + 125 / pn ** 4 - 525 / pn ** 6),
                ("b", 0): mpf(0), ("d", 0): mpf(0),
            }
            for (name, idx), w in want.items():
                got = getattr(term, name)[idx]
                tol = abs_tol if w == 0 else abs(w) * rel_tol
                if abs(got - w) > tol:
                    failures.append(f"benchmark1 step-1 {name}[{idx}] n={n}")

    _report(4, "closed-form spot checks", not failures,
            "all first/second/third corrections and step-1 coefficient lists "
            "match" if not failures else f"mismatches: {failures[:4]}")


# -- criterion 5: property suite ------------------------------------------------

def _property_defects(spec, n, m, ctx):
    """Max defect of each structural property for one solve."""
    sol = solve(spec, n, m, ctx)
    table = moments(n, spec.X, spec.budget.M(m) + spec.budget.r + 1, ctx)
    rng = random.Random(1000 * n + m)
    with ctx.workprec():
        bc = mpf(0)
        ortho = mpf(0)
        solv = mpf(0)
        ode = mpf(0)
        for j, term in enumerate(sol.terms[1:], start=1):
            for x in (mpf(0), spec.X):
                bc = max(bc, abs(eval_term(term, x, 0, ctx=ctx)),
                         abs(eval_term(term, x, 2, ctx=ctx)))
            ip = mpf(0)
            for t, (at, bt) in enumerate(zip(term.a, term.b)):
                ip += table.alpha[t] * at + table.beta[t] * bt
            for t, (ct, dt) in enumerate(zip(term.c, term.d)):
                ip += table.mu[t] * ct + table.eta[t] * dt
            ortho = max(ortho, abs(mp.sqrt(2 / spec.X) * ip))
        for j in range(m):
            step = step_rhs(spec, sol, j, ctx)
            solv = max(solv, abs(lambda_correction(step, table, ctx)))
            term = sol.terms[j + 1]
            for _ in range(100):
                x = spec.X * mpf(rng.random())
                lhs = eval_term(term, x, 4, ctx=ctx) \
                    - sol.lambda0 * eval_term(term, x, ctx=ctx)
                ode = max(ode, abs(lhs - eval_rhs(step, spec, x, ctx)))
        return {"boundary": bc, "orthogonality": ortho,
                "solvability": solv, "ode_residual": ode}


def _recurrence_vs_product(spec, n, ctx):
    """Max mismatch between the forward walk and the product expansion."""
    sol = solve(spec, n, 2, ctx)
    with ctx.workprec():
        worst = mpf(0)
        for j in (0, 1):
            step = step_rhs(spec, sol, j, ctx)
            for family in (TRIG, HYP):
                top = top_initial_coeffs(spec, family, step, n, j, ctx)
                if top is None:
                    continue
                M = family_budget(spec, family, j)
                walked = run_recurrence(spec, family, step, n, j, top, ctx)
                for p in range(min(M - 3, 5)):
                    want = walked[M - p - 3]
                    got = product_expansion_pair(spec, family, step, n, j, p, top, ctx)
                    scale = max(mpf(1), abs(want[0]), abs(want[1]))
                    worst = max(worst, abs(got[0] - want[0]) / scale,
                                abs(got[1] - want[1]) / scale)
        return worst


def _moments_vs_quadrature(n, X, ctx, t_values=(0, 1, 2, 3, 5, 8, 12)):
    """Max |closed form - quadrature| over the four kinds, scaled."""
    from fdsl4.verify import QuadratureRule
    table = moments(n, X, max(t_values), ctx)
    rule = QuadratureRule.build(X, 96, 20, ctx)
    with ctx.workprec():
        w = mp.pi * n / X
        sums = {t: [mpf(0)] * 4 for t in t_values}
        for x, wt in zip(rule.nodes, rule.weights):
            s, c = mp.sin(w * x), mp.cos(w * x)
            sh, ch = mp.sinh(w * x), mp.cosh(w * x)
            kinds = (s * s, s * c, s * ch, s * sh)
            for t in t_values:
                xp = x ** t
                acc = sums[t]
                for i, k in enumerate(kinds):
                    acc[i] += wt * xp * k
        worst = mpf(0)
        for t in t_values:
            closed = (table.alpha[t], table.beta[t], table.eta[t], table.mu[t])
            for i in range(4):
                scale = max(mpf(1), abs(closed[i]))
                worst = max(worst, abs(closed[i] - sums[t][i]) / scale)
        return worst


def test_criterion_5_property_suite(benchmark1, benchmark2, random_problems,
                                    ctx300):
    with ctx300.workprec():
        tol = mpf(10) ** -(ctx300.digits - 25)
        worst = {"boundary": mpf(0), "orthogonality": mpf(0),
                 "solvability": mpf(0), "ode_residual": mpf(0)}
        cases = [(benchmark1, 1, 3), (benchmark1, 3, 3),
                 (benchmark2, 1, 4), (benchmark2, 4, 4)]
        cases += [(spec, 1 + i % 4, 3) for i, spec in enumerate(random_problems)]
        for spec, n, m in cases:
            defects = _property_defects(spec, n, m, ctx300)
            for key, val in defects.items():
                worst[key] = max(worst[key], val)
        prod_gap = max(_recurrence_vs_product(benchmark1, 2, ctx300),
                       _recurrence_vs_product(benchmark2, 1, ctx300),
                       max(_recurrence_vs_product(spec, 1, ctx300)
                           for spec in random_problems[:3]))
        quad_gap = mpf(0)
        for n in (1, 3, 5):
            quad_gap = max(quad_gap,
                           _moments_vs_quadrature(n, benchmark2.X, ctx300),
                           _moments_vs_quadrature(n, benchmark1.X, ctx300))
        ok = (all(v < tol for v in worst.values())
              and prod_gap < mpf(10) ** -(ctx300.digits - 25)
              and quad_gap < mpf(10) ** -40)
        detail = (f"max defects: boundary {mp.nstr(worst['boundary'], 3)}, "
                  f"orthogonality {mp.nstr(worst['orthogonality'], 3)}, "
                  f"solvability {mp.nstr(worst['solvability'], 3)}, "
                  f"ode {mp.nstr(worst['ode_residual'], 3)} (tol {mp.nstr(tol, 2)}); "
                  f"recurrence-vs-product {mp.nstr(prod_gap, 3)}; "
                  f"moments-vs-quadrature {mp.nstr(quad_gap, 3)} (tol 1e-40)")
    _report(5, "property suite", ok, detail)


# -- criterion 6: convergence diagnostics ---------------------------------------

def test_criterion_6_diagnostics(benchmark1, benchmark2, b1_solutions_m20,
                                 ctx300):
    fx = load_fixtures()
    problems = []
    with ctx300.workprec():
        # exact thresholds of the sufficient condition
        for n in (1, 2):
            if not 4 * constant_Mn(benchmark1, n, ctx300) >= 1:
                problems.append(f"benchmark1 r_{n} unexpectedly < 1")
        for n in range(3, 51):
            if not 4 * constant_Mn(benchmark1, n, ctx300) < 1:
                problems.append(f"benchmark1 r_{n} >= 1")
        if not 4 * constant_Mn(benchmark2, 1, ctx300) >= 1:
            problems.append("benchmark2 r_1 unexpectedly < 1")
        for n in range(2, 51):
            if not 4 * constant_Mn(benchmark2, n, ctx300) < 1:
                problems.append(f"benchmark2 r_{n} >= 1")

        # eigenvalue bounds dominate the observed errors (benchmark 1, exact
        # eigenvalues known)
        for n in range(3, 9):
            report = convergence_report(benchmark1, n, ctx300)
            full = b1_solutions_m20[n]
            lam_values = (full.lambda0,) + full.lambda_corrections
            exact = mpf(fx.b1_exact[n])
            for m in (10, 15, 20):
                sol = assemble(full.terms, lam_values, m, ctx300)
                if not abs(exact - sol.lambda_approx) <= report.lambda_bound(m):
                    problems.append(f"benchmark1 bound violated n={n} m={m}")

        # benchmark 2: compare against a deeper solve as the reference
        for n in (2, 3, 4, 5):
            report = convergence_report(benchmark2, n, ctx300)
            deep = solve(benchmark2, n, 14, ctx300)
            lam_values = (deep.lambda0,) + deep.lambda_corrections
            for m in (5, 8, 10):
                sol = assemble(deep.terms, lam_values, m, ctx300)
                observed = abs(deep.lambda_approx - sol.lambda_approx)
                if not observed <= report.lambda_bound(m):
                    problems.append(f"benchmark2 bound violated n={n} m={m}")
            # eigenfunction bound against the tail of the correction series
            rule_norm = _tail_norm(deep, 10, ctx300)
            if not rule_norm <= report.u_bound(10):
                problems.append(f"benchmark2 eigenfunction bound violated n={n}")

        # majorant identity, exact integers
        seq = [1] + [majorant(j) for j in range(31)]
        for j in range(31):
            if seq[j + 1] != sum(seq[j - s] * seq[s] for s in range(j + 1)):
                problems.append(f"majorant identity fails at {j}")

    _report(6, "convergence diagnostics", not problems,
            "thresholds exact, bounds dominate, majorant identity exact"
            if not problems else f"{problems[:4]}")


def _tail_norm(deep, m, ctx):
    """L2 norm of the corrections beyond rank m (quadrature, coarse)."""
    from fdsl4.verify import QuadratureRule
    with ctx.workprec():
        rule = QuadratureRule.build(deep.X, max(16, 2 * deep.n), 20, ctx)
        acc = mpf(0)
        for x, w in zip(rule.nodes, rule.weights):
            tail = mpf(0)
            for term in deep.terms[m + 1:]:
                tail += eval_term(term, x, ctx=ctx)
            acc += w * tail * tail
        return mp.sqrt(acc)


# -- criterion 7: oracle agreement ----------------------------------------------

def test_criterion_7_oracle_agreement(benchmark1, benchmark2, b2_solutions_m10,
                                      ctx300):
    fx = load_fixtures()
    worst = None
    with ctx300.workprec():
        for n in (1, 2, 3, 4, 5):
            lam = b2_solutions_m10[n].lambda_approx
            ritz = galerkin_nearest_eigenvalue(benchmark2, lam, 200, ORACLE_CTX)
            rel = abs(ritz - lam) / lam
            digits = int(mp.floor(-mp.log10(rel))) if rel > 0 else ORACLE_CTX.digits
            if worst is None or digits < worst[1]:
                worst = (("benchmark2", n), digits)
        for n in range(1, 9):
            exact = mpf(fx.b1_exact[n])
            ritz = galerkin_nearest_eigenvalue(benchmark1, exact, 200, ORACLE_CTX)
            rel = abs(ritz - exact) / exact
            digits = int(mp.floor(-mp.log10(rel))) if rel > 0 else ORACLE_CTX.digits
            if worst is None or digits < worst[1]:
                worst = (("benchmark1", n), digits)
    _report(7, "sine-Galerkin oracle", worst[1] >= 8,
            f"minimum agreement {worst[1]} digits at {worst[0]} (need >= 8)")


# -- criterion 8: exponential-rate check -----------------------------------------

def test_criterion_8_exponential_rates(benchmark1, b1_solutions_m20,
                                       b2_residuals, ctx300):
    problems = []
    slopes2 = {}
    with ctx300.workprec():
        for n in B2_INDICES:
            xs = list(range(1, 11))
            ys = [mp.log(b2_residuals[n][m]) for m in xs]
            slope = least_squares_slope([mpf(x) for x in xs], ys)
            slopes2[n] = slope
            if not slope < 0:
                problems.append(f"benchmark2 slope n={n} not negative")
        if not slopes2[50] < slopes2[1]:
            problems.append("benchmark2 slope at n=50 not steeper than n=1")

        slopes1 = {}
        for n in (1, 8):
            full = b1_solutions_m20[n]
            lam_values = (full.lambda0,) + full.lambda_corrections
            sol10 = assemble(full.terms, lam_values, 10, ctx300)
            deltas = residual_sweep(sol10, benchmark1, ctx300)
            xs = list(range(1, 11))
            ys = [mp.log(deltas[m]) for m in xs]
            slopes1[n] = least_squares_slope([mpf(x) for x in xs], ys)
            if not slopes1[n] < 0:
                problems.append(f"benchmark1 slope n={n} not negative")
        if not slopes1[8] < slopes1[1]:
            problems.append("benchmark1 slope at n=8 not steeper than n=1")

    detail = (f"benchmark2 slopes n=1: {mp.nstr(slopes2[1], 4)}, "
              f"n=50: {mp.nstr(slopes2[50], 4)}; "
              f"benchmark1 slopes n=1: {mp.nstr(slopes1[1], 4)}, "
              f"n=8: {mp.nstr(slopes1[8], 4)}")
    _report(8, "exponential rate", not problems,
            detail if not problems else f"{problems}; {detail}")
