"""Moment integrals, eigenvalue corrections, and the full solve loop.

The closure and the eigenvalue corrections need the integrals over [0, X] of
x^t against sin^2(w x), sin(w x) cos(w x), sin(w x) cosh(w x) and
sin(w x) sinh(w x) with w = pi n / X.  All four have closed forms built from
factorials, powers of 2 pi n (or sqrt(2) pi n) and exact quarter/eighth-period
trigonometric values, so a :class:`MomentTable` is filled once per (n, rank)
and shared read-only by every step.

One step of the method is the three-part FD step: apply the potential part
of the operator to the newest correction in the mixed basis
(:func:`fdsl4.rhs.build_rhs`), project the result onto the base
eigenfunction to get the next eigenvalue correction
(:func:`lambda_correction`), and invert u'''' - lambda0 u with 2x2
recurrences (:func:`fdsl4.recursion.solve_step`).
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from . import recursion
from .corrections import CorrectionTerm, FDSolution, assemble, base_pair
from .numerics import PrecisionContext
from .problem import ProblemSpec
from .rhs import RhsCoefficients, add_base_term, build_rhs


@dataclass(frozen=True)
class MomentTable:
    """Cached integrals, indexed by the power t = 0..T."""

    n: int
    X: mpf
    alpha: tuple  # integral of x^t sin^2(w x)
    beta: tuple   # integral of x^t sin(w x) cos(w x)
    eta: tuple    # integral of x^t sin(w x) cosh(w x)
    mu: tuple     # integral of x^t sin(w x) sinh(w x)


# exact values of sin(pi k/2), cos(pi k/2) and sin/cos(pi (k+1)/4) by residue
_SIN_HALF = (0, 1, 0, -1)
_COS_HALF = (1, 0, -1, 0)


def moments(n: int, X, T: int, ctx: PrecisionContext) -> MomentTable:
    """Fill the moment table for powers 0..T."""
    if n < 1:
        raise ValueError("eigenpair index must be >= 1")
    with ctx.workprec():
        X = mpf(X)
        pn = mp.pi * n
        two_pn = 2 * pn
        s2pn = mp.sqrt(2) * pn
        cos_pn = mpf(-1) ** n
        ch, sh = mp.cosh(pn), mp.sinh(pn)
        half = mp.sqrt(2) / 2
        cos_q = (half, 0, -half, -1, -half, 0, half, 1)   # cos(pi (k+1)/4)
        sin_q = (half, 1, half, 0, -half, -1, -half, 0)   # sin(pi (k+1)/4)

        fact = [mpf(1)]
        for t in range(1, T + 2):
            fact.append(fact[-1] * t)

        alpha, beta, eta, mu = [], [], [], []
        for t in range(T + 1):
            Xp = X ** (t + 1)
            ft = fact[t]
            a = Xp / (2 * (t + 1))
            b = mpf(0)
            for k in range(t):
                c = ft * Xp / (fact[t - k] * two_pn ** (k + 1))
                a -= c * _SIN_HALF[k % 4] / 2
                b -= c * _COS_HALF[k % 4] / 2
            alpha.append(a)
            beta.append(b)

            lead = Xp * ft / s2pn ** (t + 1)
            e = lead * _COS_HALF[t % 4] * cos_q[t % 8]
            u = -lead * _SIN_HALF[t % 4] * sin_q[t % 8]
            for k in range(t + 1):
                pref = ft * Xp * cos_pn / (fact[t - k] * s2pn ** (k + 1))
                pc = cos_q[k % 8] * _COS_HALF[k % 4]
                ps = sin_q[k % 8] * _SIN_HALF[k % 4]
                e -= pref * (pc * ch - ps * sh)
                u += pref * (ps * ch - pc * sh)
            eta.append(e)
            mu.append(u)
        return MomentTable(n=n, X=X, alpha=tuple(alpha), beta=tuple(beta),
                           eta=tuple(eta), mu=tuple(mu))


def lambda_correction(rhs: RhsCoefficients, table: MomentTable,
                      ctx: PrecisionContext) -> mpf:
    """Eigenvalue correction lambda^(j+1) from F of :func:`build_rhs`.

    Solvability of the step problem asks F + lambda^(j+1) u^(0) to be
    orthogonal to the normalized u^(0), so lambda^(j+1) = -<F, u^(0)>: the
    moment table turns that inner product into one sum per basis family.
    """
    with ctx.workprec():
        ip = mpf(0)
        for f, moment in ((rhs.f_sin, table.alpha), (rhs.f_cos, table.beta),
                          (rhs.f_sinh, table.mu), (rhs.f_cosh, table.eta)):
            for t, v in enumerate(f):
                ip += v * moment[t]
        return -mp.sqrt(2 / table.X) * ip


def solve(spec: ProblemSpec, n: int, m: int, ctx: PrecisionContext) -> FDSolution:
    """Rank-m approximation to eigenpair n.

    Stages per step j = 0..m-1: right-hand side F, eigenvalue correction as
    its projection, downward recurrence from zero pairs above the top,
    power-0 closure, term assembly.  Steps are inherently sequential;
    different n are independent.
    """
    if n < 1:
        raise ValueError("eigenpair index must be >= 1")
    if m < 0:
        raise ValueError("rank must be >= 0")
    term0, lam0 = base_pair(spec, n, ctx)
    terms, lambdas = [term0], [lam0]
    table = moments(n, spec.X, spec.budget.M(m) + spec.budget.r + 1, ctx)
    for j in range(m):
        step_rhs = build_rhs(spec, n, j, terms, lambdas, ctx)
        lambdas.append(lambda_correction(step_rhs, table, ctx))
        step_rhs = add_base_term(step_rhs, lambdas[-1], term0, ctx)
        a, b, c, d = recursion.solve_step(spec, n, j, step_rhs, table, ctx)
        terms.append(CorrectionTerm(j=j + 1, n=n, X=spec.X, a=a, b=b, c=c, d=d))
    return assemble(terms, lambdas, m, ctx)
