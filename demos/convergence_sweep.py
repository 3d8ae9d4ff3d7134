"""Exponential convergence, measured and certified.

Two views of the same phenomenon for the q0 = x benchmark:

* the L2 residual norm delta_n(m) of the rank-m approximation, the exact
  integral of the operator applied to the approximation by algebra, falls
  geometrically in m -- and faster for larger eigenvalue indices;

* the a-priori diagnostics: the contraction ratio r_n of the correction
  series shrinks like 1/n, so the sufficient convergence condition holds for
  every index here except n = 1 (where the method still converges, as the
  residuals show -- the certificate is simply not applicable).

Run time: under a second (0.4 s on one core of a 2-core x86-64 VM).
"""

from mpmath import mp

from fdsl4 import (PrecisionContext, convergence_report, load_problem,
                   residual_sweep, solve)

ctx = PrecisionContext(digits=140)
spec = load_problem("problems/benchmark2.cfg", ctx)

indices = (1, 2, 5, 10)
sweeps = {}
for n in indices:
    sol = solve(spec, n, 8, ctx)
    sweeps[n] = residual_sweep(sol, spec, ctx)

header = "  m " + "".join(f"{'delta_' + str(n):>12}" for n in indices)
print(header)
for m in range(1, 9):
    row = f"{m:>3} "
    for n in indices:
        row += f"{mp.nstr(sweeps[n][m], 2):>12}"
    print(row)

print()
print("diagnostics (r_n < 1 certifies exponential convergence):")
for n in indices:
    report = convergence_report(spec, n, ctx)
    verdict = "condition met" if report.converges else "condition not met"
    bound = report.lambda_bound(8)
    tail = f", rank-8 eigenvalue error bound {mp.nstr(bound, 2)}" if bound else ""
    print(f"  n={n}: r_n = {mp.nstr(report.r_n, 5)} ({verdict}{tail})")
