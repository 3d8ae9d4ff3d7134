"""Eigenfunction corrections in the mixed trigonometric/hyperbolic basis.

Every correction u_n^(j) produced by the method lives in the span of

    x^p sin(w x),  x^p cos(w x),  x^p sinh(w x),  x^p cosh(w x),   w = pi*n/X,

with the polynomial degree growing by r+1 per step: the trig part of step j
carries powers 0..M(j) and the hyperbolic part powers 0..M(j-1), where
M(j) = j*(r+1).  A :class:`CorrectionTerm` stores the four coefficient arrays
(a multiplies sin, b cos, c sinh, d cosh).

Differentiation maps this family to itself by an exact coefficient
transformation, so derivatives up to the fourth order (needed for residual
norms) never touch finite differences.  The base eigenpair of the hinged
problem with zero potentials is sqrt(2/X) sin(n pi x / X) with eigenvalue
(n pi / X)^4; it seeds the recursion as step 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .numerics import GUARD_DIGITS, PrecisionContext
from .problem import ProblemSpec


@dataclass(frozen=True)
class CorrectionTerm:
    """One correction u_n^(j): coefficient arrays over the mixed basis."""

    j: int
    n: int
    X: mpf
    a: tuple  # multiplies x^p sin(w x)
    b: tuple  # multiplies x^p cos(w x)
    c: tuple  # multiplies x^p sinh(w x)
    d: tuple  # multiplies x^p cosh(w x)


def base_pair(spec: ProblemSpec, n: int, ctx: PrecisionContext):
    """Base eigenpair (step-0 term, eigenvalue) for index n >= 1."""
    if n < 1:
        raise ValueError(f"eigenpair index must be >= 1, got {n}")
    with ctx.workprec():
        amp = mp.sqrt(2 / spec.X)
        lam0 = (n * mp.pi) ** 4 / spec.X ** 4
        term = CorrectionTerm(j=0, n=n, X=spec.X,
                              a=(amp,), b=(mpf(0),), c=(), d=())
        return term, lam0


def _differentiate(arrays, w):
    """Coefficient arrays of the first derivative, computed exactly.

    One differentiation sends (a, b, c, d) to
        a'[p] = (p+1) a[p+1] - w b[p],     b'[p] = (p+1) b[p+1] + w a[p],
        c'[p] = (p+1) c[p+1] + w d[p],     d'[p] = (p+1) d[p+1] + w c[p],
    keeping the array lengths fixed.  Runs at the caller's precision.
    """
    a, b, c, d = arrays
    la, lc = len(a), len(c)
    return (
        tuple((a[p + 1] * (p + 1) if p + 1 < la else mpf(0)) - w * b[p] for p in range(la)),
        tuple((b[p + 1] * (p + 1) if p + 1 < la else mpf(0)) + w * a[p] for p in range(la)),
        tuple((c[p + 1] * (p + 1) if p + 1 < lc else mpf(0)) + w * d[p] for p in range(lc)),
        tuple((d[p + 1] * (p + 1) if p + 1 < lc else mpf(0)) + w * c[p] for p in range(lc)),
    )


@lru_cache(maxsize=4096)
def _derivative_arrays(term: CorrectionTerm, order: int, dps: int):
    """Coefficient arrays of the order-th derivative at dps digits."""
    with mp.workdps(dps):
        w = mp.pi * term.n / term.X
        arrays = (term.a, term.b, term.c, term.d)
        for _ in range(order):
            arrays = _differentiate(arrays, w)
        return arrays


def _eval_arrays(arrays, x, basis) -> mpf:
    """Horner evaluation of the four coefficient polynomials against a basis.

    ``basis`` is the tuple (sin wx, cos wx, sinh wx, cosh wx) precomputed at x
    so quadrature loops can share transcendental evaluations across terms.
    """
    a, b, c, d = arrays
    sx, cx, shx, chx = basis
    trig = mpf(0)
    for p in range(len(a) - 1, -1, -1):
        trig = trig * x + (a[p] * sx + b[p] * cx)
    hyp = mpf(0)
    for p in range(len(c) - 1, -1, -1):
        hyp = hyp * x + (c[p] * shx + d[p] * chx)
    return trig + hyp


def basis_values(n: int, X, x, ctx: PrecisionContext):
    """(sin, cos, sinh, cosh) of (pi n / X) x at working precision."""
    with ctx.workprec():
        wx = mp.pi * n / X * x
        return mp.sin(wx), mp.cos(wx), mp.sinh(wx), mp.cosh(wx)


def eval_term(term: CorrectionTerm, x, deriv: int = 0, *,
              ctx: PrecisionContext, basis=None) -> mpf:
    """Value of d^deriv/dx^deriv of the term at x in [0, X], deriv <= 4."""
    if not 0 <= deriv <= 4:
        raise ValueError("derivative order must be in 0..4")
    with ctx.workprec():
        x = mpf(x)
        if x < 0 or x > term.X:
            raise ValueError(f"x={x} outside [0, {term.X}]")
        arrays = _derivative_arrays(term, deriv, mp.dps) if deriv else \
            (term.a, term.b, term.c, term.d)
        if basis is None:
            basis = basis_values(term.n, term.X, x, ctx)
        return _eval_arrays(arrays, x, basis)


@dataclass(frozen=True)
class FDSolution:
    """Rank-m approximation to one eigenpair: partial sums of the corrections."""

    n: int
    m: int
    X: mpf
    lambda0: mpf
    lambda_corrections: tuple  # lambda^(1) .. lambda^(m)
    terms: tuple               # CorrectionTerm for steps 0 .. m
    lambda_approx: mpf


def assemble(terms, lambda_values, m: int, ctx: PrecisionContext) -> FDSolution:
    """Truncate a correction history at rank m and form the eigenvalue sum.

    ``lambda_values`` lists the base eigenvalue first, then the corrections.
    """
    terms = tuple(terms)
    lambda_values = tuple(lambda_values)
    if len(terms) < m + 1 or len(lambda_values) < m + 1:
        raise ValueError(f"need {m + 1} terms and eigenvalue entries for rank {m}")
    with ctx.workprec():
        lam = mpf(0)
        for v in lambda_values[:m + 1]:
            lam += v
        return FDSolution(n=terms[0].n, m=m, X=terms[0].X,
                          lambda0=lambda_values[0],
                          lambda_corrections=lambda_values[1:m + 1],
                          terms=terms[:m + 1],
                          lambda_approx=lam)


def eval_solution(sol: FDSolution, x, deriv: int = 0, *,
                  ctx: PrecisionContext, basis=None) -> mpf:
    """Value of the rank-m eigenfunction approximation (or a derivative)."""
    with ctx.workprec():
        if basis is None:
            basis = basis_values(sol.n, sol.X, ctx.mpf(x), ctx)
        total = mpf(0)
        for term in sol.terms:
            total += eval_term(term, x, deriv, ctx=ctx, basis=basis)
        return total


# --- serialization -----------------------------------------------------------
#
# Decimal-string payload: every real is written with enough digits to
# round-trip the underlying binary value at the context precision.

def real_to_str(v, ctx: PrecisionContext) -> str:
    # guard + 5 digits so the working-precision binary value round-trips
    with ctx.workprec():
        return mp.nstr(mpf(v), ctx.digits + GUARD_DIGITS + 5, strip_zeros=True)


def _term_payload(term: CorrectionTerm, ctx: PrecisionContext) -> dict:
    return {
        "j": term.j,
        "a": [real_to_str(v, ctx) for v in term.a],
        "b": [real_to_str(v, ctx) for v in term.b],
        "c": [real_to_str(v, ctx) for v in term.c],
        "d": [real_to_str(v, ctx) for v in term.d],
    }


def solution_to_payload(sol: FDSolution, ctx: PrecisionContext) -> dict:
    """JSON-ready dict with all reals as decimal strings."""
    return {
        "format": "fdsl4-solution",
        "digits": ctx.digits,
        "n": sol.n,
        "m": sol.m,
        "X": real_to_str(sol.X, ctx),
        "lambda0": real_to_str(sol.lambda0, ctx),
        "lambda_corrections": [real_to_str(v, ctx) for v in sol.lambda_corrections],
        "lambda_approx": real_to_str(sol.lambda_approx, ctx),
        "terms": [_term_payload(t, ctx) for t in sol.terms],
    }


def solution_from_payload(payload: dict) -> FDSolution:
    ctx = PrecisionContext(digits=payload["digits"])
    with ctx.workprec():
        X = mpf(payload["X"])
        n = payload["n"]
        terms = tuple(
            CorrectionTerm(j=tp["j"], n=n, X=X,
                           a=tuple(mpf(s) for s in tp["a"]),
                           b=tuple(mpf(s) for s in tp["b"]),
                           c=tuple(mpf(s) for s in tp["c"]),
                           d=tuple(mpf(s) for s in tp["d"]))
            for tp in payload["terms"]
        )
        return FDSolution(
            n=n, m=payload["m"], X=X,
            lambda0=mpf(payload["lambda0"]),
            lambda_corrections=tuple(mpf(s) for s in payload["lambda_corrections"]),
            terms=terms,
            lambda_approx=mpf(payload["lambda_approx"]),
        )


def dump_solution(sol: FDSolution, path, ctx: PrecisionContext) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_payload(sol, ctx), fh, indent=1)


def load_solution(path) -> FDSolution:
    with open(path, "r", encoding="utf-8") as fh:
        return solution_from_payload(json.load(fh))
