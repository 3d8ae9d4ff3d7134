"""Cross-validation against an unrelated discretization.

The correction series and the sine-basis Galerkin matrix share the problem
data and one moment kernel (the integrals of x^t e^(z x)), nothing else: one
builds exact coefficient recurrences, the other a dense operator matrix whose
nearest eigenvalue to a shift is dug out by LU-based inverse iteration.  Agreement of many digits is therefore strong evidence
that both are solving the right problem.

Run time: about 4 seconds on one core (one LU factorization per index).
"""

from mpmath import mp

from fdsl4 import (PrecisionContext, galerkin_nearest_eigenvalue,
                   load_problem, matching_digits, solve)

ctx = PrecisionContext(digits=120)
oracle_ctx = PrecisionContext(digits=50)
spec = load_problem("problems/benchmark2.cfg", ctx)

N = 160
print(f"sine-Galerkin oracle, basis size {N}:")
print(f"{'n':>3} {'correction series':>30} {'inverse iteration':>30} {'digits':>7}")
for n in (1, 2, 3, 4, 5):
    sol = solve(spec, n, 10, ctx)
    with ctx.workprec():
        lam = sol.lambda_approx
    ritz = galerkin_nearest_eigenvalue(spec, lam, N, oracle_ctx)
    agree = matching_digits(lam, ritz, oracle_ctx)
    print(f"{n:>3} {mp.nstr(lam, 20):>30} {mp.nstr(ritz, 20):>30} {agree:>7}")

print()
print("the agreement is limited by the Galerkin discretization, not by the")
print("correction series; doubling the basis size pushes it further.")
