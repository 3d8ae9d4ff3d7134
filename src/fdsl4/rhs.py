"""Right-hand side of the step problem, grouped by basis function.

Step j+1 of the method solves  u'''' - lambda0 u = F + lambda^(j+1) u^(0)  where

    F = sum_{s=1..j} lambda^(j+1-s) u^(s)  -  q2 u^(j)'' - q1 u^(j)' - q0 u^(j).

Every term lives in the mixed basis, so F is four dense coefficient families

    F = sum_t x^t (f_cos[t] cos + f_sin[t] sin)    t = 0 .. M(j+1)-1
      + sum_t x^t (f_cosh[t] cosh + f_sinh[t] sinh)  t = 0 .. M(j)-1

(arguments pi n x / X throughout).  :func:`build_rhs` forms them in three
parts: the exact derivative map gives the arrays of u^(j)' and u^(j)''; a
polynomial convolution applies q0, q1 and q2; the eigenvalue sum adds the
earlier corrections.  The newest correction lambda^(j+1) is not known yet: it
is minus the projection of F onto the base eigenfunction (solvability), and
since u^(0) is a multiple of sin it enters through f_sin[0] alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from mpmath import mp, mpf

from .corrections import CorrectionTerm, _differentiate, _eval_arrays, basis_values
from .numerics import PrecisionContext
from .problem import ProblemSpec


class MissingHistoryError(RuntimeError):
    """Raised when rhs assembly lacks the required earlier steps."""


@dataclass(frozen=True)
class RhsCoefficients:
    """Coefficient arrays of F for step j+1 (j is the source step index)."""

    n: int
    j: int
    f_cos: tuple   # 0 .. M(j+1)-1
    f_sin: tuple
    f_cosh: tuple  # 0 .. M(j)-1
    f_sinh: tuple


def build_rhs(spec: ProblemSpec, n: int, j: int, terms, lambdas,
              ctx: PrecisionContext) -> RhsCoefficients:
    """Coefficient arrays of F for step j+1, without the lambda^(j+1) u^(0) summand.

    ``terms`` must hold the corrections for steps 0..j and ``lambdas`` the
    eigenvalue values for steps 0..j (base first); later entries are ignored.
    """
    if len(terms) < j + 1 or len(lambdas) < j + 1:
        raise MissingHistoryError(
            f"step {j + 1} needs terms and eigenvalue entries 0..{j}; "
            f"have {len(terms)} terms, {len(lambdas)} eigenvalues")
    M1, M0 = spec.budget.M(j + 1), spec.budget.M(j)
    with ctx.workprec():
        w = mp.pi * n / spec.X
        u = terms[j]
        u0 = (u.a, u.b, u.c, u.d)
        u1 = _differentiate(u0, w)
        u2 = _differentiate(u1, w)
        # ordered like the term arrays: sin, cos, sinh, cosh
        f = ([mpf(0)] * M1, [mpf(0)] * M1, [mpf(0)] * M0, [mpf(0)] * M0)

        # -q0*u - q1*u' - q2*u'': power t of q times power p of the arrays
        for q, arrays in ((spec.q0, u0), (spec.q1, u1), (spec.q2, u2)):
            for t, qt in enumerate(q.coeffs):
                if not qt:
                    continue
                for out, arr in zip(f, arrays):
                    for p, v in enumerate(arr):
                        out[p + t] -= qt * v

        for s in range(1, j + 1):
            lam = lambdas[j + 1 - s]
            term = terms[s]
            for out, arr in zip(f, (term.a, term.b, term.c, term.d)):
                for p, v in enumerate(arr):
                    out[p] += lam * v

        f_sin, f_cos, f_sinh, f_cosh = (tuple(arr) for arr in f)
        return RhsCoefficients(n=n, j=j, f_cos=f_cos, f_sin=f_sin,
                               f_cosh=f_cosh, f_sinh=f_sinh)


def add_base_term(rhs: RhsCoefficients, lam, base: CorrectionTerm,
                  ctx: PrecisionContext) -> RhsCoefficients:
    """F + lam * u^(0): the right-hand side that the step problem inverts."""
    with ctx.workprec():
        return replace(rhs, f_sin=(rhs.f_sin[0] + lam * base.a[0],) + rhs.f_sin[1:])


def eval_rhs(rhs: RhsCoefficients, spec: ProblemSpec, x, ctx: PrecisionContext,
             basis=None) -> mpf:
    """Pointwise value of F reconstructed from the coefficient arrays."""
    with ctx.workprec():
        x = mpf(x)
        if basis is None:
            basis = basis_values(rhs.n, spec.X, x, ctx)
        return _eval_arrays((rhs.f_sin, rhs.f_cos, rhs.f_sinh, rhs.f_cosh), x, basis)
