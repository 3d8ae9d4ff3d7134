"""Right-hand side of the step problem, grouped by basis function.

Step j+1 of the method solves  u'''' - lambda0 u = F + lambda^(j+1) u^(0)  where

    F = sum_{s=1..j} lambda^(j+1-s) u^(s)  -  q2 u^(j)'' - q1 u^(j)' - q0 u^(j).

Every term lives in the mixed basis, so F is a series of the same kind as
u^(j): the four coefficient arrays (f_sin, f_cos, f_sinh, f_cosh), in the
order of the term arrays (a, b, c, d), of

    F = sum_t x^t (f_sin[t] sin + f_cos[t] cos)      t = 0 .. M(j+1)-1
      + sum_t x^t (f_sinh[t] sinh + f_cosh[t] cosh)  t = 0 .. M(j)-1

(arguments pi n x / X throughout).  :func:`build_rhs` forms them in two
parts: the exact derivative map gives the arrays of u^(j)' and u^(j)''; then
each coefficient, the polynomial convolution with q0, q1 and q2 plus the
eigenvalue sum over the earlier corrections, is one exactly rounded dot
product (``mp.fdot``).  The newest correction lambda^(j+1) is not known yet: it
is minus the projection of F onto the base eigenfunction
(:meth:`fdsl4.spectral.MomentTable.project`), and since u^(0) is a multiple
of sin it enters through f_sin[0] alone.
"""

from __future__ import annotations

from mpmath import mp

from .corrections import CorrectionTerm, _differentiate, combine_series
from .numerics import PrecisionContext
from .problem import ProblemSpec


def build_rhs(spec: ProblemSpec, n: int, terms, lambdas, ctx: PrecisionContext) -> tuple:
    """Arrays (f_sin, f_cos, f_sinh, f_cosh) of F for step j+1, without the
    lambda^(j+1) u^(0) summand.

    ``terms`` and ``lambdas`` are the history of steps 0..j (base first), as
    ``solve`` grows it, so j is ``len(terms) - 1``.  The step reads u^(1..j)
    and lambda^(1..j); a ``lambdas`` without one of them raises IndexError.
    """
    j = len(terms) - 1
    M1, M0 = spec.M(j + 1), spec.M(j)
    with ctx.workprec():
        w = mp.pi * n / spec.X
        u0 = terms[j]
        u1 = _differentiate(u0, w)
        u2 = _differentiate(u1, w)
        # each F[k] is one dot product of the pairs in its row: -q_t against
        # u, u', u'' at power k - t, and lambda^(j+1-s) against u^(s) at k
        summands = [(-qt, t, arrays)
                    for q, arrays in ((spec.q0, u0), (spec.q1, u1), (spec.q2, u2))
                    for t, qt in enumerate(q) if qt]
        summands += [(lambdas[j + 1 - s], 0, terms[s]) for s in range(1, j + 1)]
        return combine_series((M1, M1, M0, M0), summands)


def add_base_term(rhs: tuple, lam, base: CorrectionTerm, ctx: PrecisionContext) -> tuple:
    """F + lam * u^(0): the right-hand side that the step problem inverts."""
    f_sin, f_cos, f_sinh, f_cosh = rhs
    with ctx.workprec():
        return (f_sin[0] + lam * base.a[0],) + f_sin[1:], f_cos, f_sinh, f_cosh
