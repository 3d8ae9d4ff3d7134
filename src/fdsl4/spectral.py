"""Moment integrals, eigenvalue corrections, and the full solve loop.

The closure and the eigenvalue corrections need the integrals over [0, X] of
x^t against sin^2(w x), sin(w x) cos(w x), sin(w x) cosh(w x) and
sin(w x) sinh(w x) with w = pi n / X: real or imaginary parts of the
exponential moments J_t(z) = int x^t e^(z x) dx, z in {2iw, (1+i)w, (-1+i)w}.
Integration by parts links J_t to J_(t-1); run forward with enough extra
bits to absorb its growth above t = |z X|, it fills a :class:`MomentTable`
in O(T) operations that stay accurate as T grows, once per (n, rank),
shared by every step.
The table also carries the point columns at X, which the closure's u(X) = 0
condition pairs with each new correction.

One step of the method is the three-part FD step: apply the potential part
of the operator to the newest correction in the mixed basis
(:func:`fdsl4.rhs.build_rhs`), project the result onto the base
eigenfunction to get the next eigenvalue correction
(:func:`lambda_correction`), and invert u'''' - lambda0 u with one scalar
recurrence per exponent (:func:`fdsl4.recursion.solve_step`).  F is the
same (sin, cos, sinh, cosh) array tuple as a correction.  Each coefficient
these stages compute is one exactly rounded dot product (``mp.fdot``); the
projection that the eigenvalue correction and the closure share is
:meth:`MomentTable.project`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from . import recursion
from .corrections import (CorrectionTerm, FDSolution, assemble, base_pair, basis_values,
                          series_dot)
from .numerics import PrecisionContext, check_index, check_interval
from .problem import ProblemSpec
from .rhs import add_base_term, build_rhs


@dataclass(frozen=True)
class MomentTable:
    """Cached integrals, indexed by the power t = 0..T."""

    X: mpf
    alpha: tuple  # integral of x^t sin^2(w x)
    beta: tuple   # integral of x^t sin(w x) cos(w x)
    eta: tuple    # integral of x^t sin(w x) cosh(w x)
    mu: tuple     # integral of x^t sin(w x) sinh(w x)
    at_X: tuple   # point columns X^t (sin, cos, sinh, cosh)(pi n), basis_values at X

    def project(self, arrays) -> mpf:
        """Integral of the (sin, cos, sinh, cosh) series ``arrays`` times sin(w x).

        One :func:`~fdsl4.corrections.series_dot` at the caller's precision;
        a table shorter than an array raises ``IndexError``.
        """
        return series_dot(arrays, (self.alpha, self.beta, self.mu, self.eta))


def _exp_moments(re: int, im: int, n: int, T: int) -> list:
    """K_t = integral over [0, 1] of s^t e^(Z s) ds for t = 0..T, Z = (re + i im) pi n.

    One forward recurrence K_t = (E - t K_(t-1)) / Z from K_0 = (E - 1) / Z,
    E = e^Z = e^(re pi n) (-1)^(im n) for integer im.  A step above
    t = |Z| multiplies earlier roundings by t / |Z|, so up to T they grow by
    at most T! / (turn! |Z|^(T - turn)), turn = min(T, floor(|Z|)).  Z, E and
    the recurrence run with log2 of that plus 20 bits beyond the caller's
    precision (E enters every K_t, which cancels against it), and each K_t
    is rounded back to the caller's precision.
    """
    size = math.pi * n * math.hypot(re, im)
    turn = min(T, int(size))
    growth = math.lgamma(T + 1) - math.lgamma(turn + 1) - (T - turn) * math.log(size)
    with mp.workprec(mp.prec + 20 + math.ceil(growth / math.log(2))):
        pn = mp.pi * n
        inv_z = 1 / (pn * (re + 1j * im) if im else pn * re)
        E = mp.exp(re * pn) * (-1) ** (im * n)
        K = [(E - 1) * inv_z]
        for t in range(1, T + 1):
            K.append((E - t * K[-1]) * inv_z)
    return [+k for k in K]


def moments(n: int, X, T: int, ctx: PrecisionContext) -> MomentTable:
    """Moment table for powers 0..T from K_t at Z = z X (J_t = X^(t+1) K_t),
    with the point columns at X that the closure's u(X) = 0 condition pairs."""
    n = check_index(n, 1, "eigenpair index must be >= 1")
    T = check_index(T, 0, "highest power T must be >= 0")
    with ctx.workprec():
        X = check_interval(mpf(X))
        trig, grow, decay = (_exp_moments(re, im, n, T) for re, im in ((0, 2), (1, 1), (-1, 1)))
        alpha, beta, eta, mu = [], [], [], []
        for t in range(T + 1):
            half = X ** (t + 1) / 2
            alpha.append(half * (mpf(1) / (t + 1) - trig[t].real))
            beta.append(half * trig[t].imag)
            eta.append(half * (grow[t].imag + decay[t].imag))
            mu.append(half * (grow[t].imag - decay[t].imag))
        return MomentTable(X=X, alpha=tuple(alpha), beta=tuple(beta),
                           eta=tuple(eta), mu=tuple(mu), at_X=basis_values(n, X, X, T, ctx))


def lambda_correction(rhs: tuple, table: MomentTable, ctx: PrecisionContext) -> mpf:
    """Eigenvalue correction lambda^(j+1) from F of :func:`build_rhs`.

    Solvability of the step problem asks F + lambda^(j+1) u^(0) to be
    orthogonal to the normalized u^(0), so lambda^(j+1) = -<F, u^(0)>, the
    moment-table projection of F times -sqrt(2/X).  A table shorter than F
    raises ``IndexError``.
    """
    with ctx.workprec():
        return -mp.sqrt(2 / table.X) * table.project(rhs)


def solve(spec: ProblemSpec, n: int, m: int, ctx: PrecisionContext) -> FDSolution:
    """Rank-m approximation to eigenpair n.

    Per step j = 0..m-1: F from the history of steps 0..j, the eigenvalue
    correction as its projection, and the recurrences and power-0 closure,
    sized by F and reading X from the moment table; the rank is the
    history's length.  Steps are sequential; different n are independent.
    """
    n = check_index(n, 1, "eigenpair index must be >= 1")
    m = check_index(m, 0, "rank must be >= 0")
    term0, lam0 = base_pair(spec, n, ctx)
    terms, lambdas = [term0], [lam0]
    # the highest power any step reads is M(m), in the last step's closure
    table = moments(n, spec.X, spec.M(m), ctx)
    for _ in range(m):
        step_rhs = build_rhs(spec, n, terms, lambdas, ctx)
        lambdas.append(lambda_correction(step_rhs, table, ctx))
        step_rhs = add_base_term(step_rhs, lambdas[-1], term0, ctx)
        terms.append(CorrectionTerm(*recursion.solve_step(n, step_rhs, table, ctx)))
    return assemble(n, spec.X, terms, lambdas, ctx)
