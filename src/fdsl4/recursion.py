"""Coefficient recursion for one correction step.

Matching powers of x on both sides of  u'''' - lambda0 u = F  couples each
coefficient pair of the mixed basis to the three pairs above it.  Writing
Z(p) for the (sin, cos) pair at power index M - p (or the (sinh, cosh) pair
with M the hyperbolic budget), the coupling is a third-order linear vector
recurrence

    Z(p+3) = D11(p) Z(p+2) + D12(p) Z(p+1) + D13(p) Z(p) + F(p+3)

with 2x2 matrix weights built from falling products of the power indices and
powers of X/(pi n).  The pairs above power M are zero, so one walk seeded with
three zero pairs starts at p = -3, where its first rows are the highest-power
equations, and runs down to power 1.  Power 0 spans the kernel of
u'''' - lambda0 u; it is closed from the boundary conditions plus
orthogonality against the base eigenfunction.

Families are labelled "trig" (sin/cos pairs, budget M(j+1)) and "hyp"
(sinh/cosh pairs, budget M(j)); pairs are ordered (a, b) resp. (c, d).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from mpmath import mp, mpf

from .numerics import PrecisionContext
from .problem import ProblemSpec
from .rhs import RhsCoefficients

if TYPE_CHECKING:  # avoid an import cycle with the orchestration module
    from .spectral import MomentTable

TRIG = "trig"
HYP = "hyp"


def family_budget(spec: ProblemSpec, family: str, j: int) -> int:
    """Top power index M of the family's arrays at step j+1."""
    if family == TRIG:
        return spec.budget.M(j + 1)
    if family == HYP:
        return spec.budget.M(j)
    raise ValueError(f"unknown family {family!r}")


def _family_rhs(rhs: RhsCoefficients, family: str):
    """(first, second) driving arrays: (f_sin, f_cos) or (f_sinh, f_cosh)."""
    if family == TRIG:
        return rhs.f_sin, rhs.f_cos
    return rhs.f_sinh, rhs.f_cosh


def _get(arr, i):
    return arr[i] if 0 <= i < len(arr) else mpf(0)


def transfer_matrices(spec: ProblemSpec, family: str, n: int, j: int, p: int,
                      ctx: PrecisionContext):
    """The three 2x2 weights D11, D12, D13 at recurrence position p."""
    M = family_budget(spec, family, j)
    with ctx.workprec():
        iw = spec.X / (mp.pi * n)
        g1, g2, g3 = mpf(M - p), mpf(M - p - 1), mpf(M - p - 2)
        r11 = 3 * iw / 2 * g3
        r12 = iw ** 2 * g2 * g3
        r13 = iw ** 3 / 4 * g1 * g2 * g3
        if family == TRIG:
            d11 = ((mpf(0), -r11), (r11, mpf(0)))
            d12 = ((r12, mpf(0)), (mpf(0), r12))
            d13 = ((mpf(0), r13), (-r13, mpf(0)))
        else:
            d11 = ((mpf(0), -r11), (-r11, mpf(0)))
            d12 = ((-r12, mpf(0)), (mpf(0), -r12))
            d13 = ((mpf(0), -r13), (-r13, mpf(0)))
        return d11, d12, d13


def driving_vector(spec: ProblemSpec, family: str, rhs: RhsCoefficients,
                   n: int, j: int, p: int, ctx: PrecisionContext):
    """Inhomogeneous 2-vector F(p+3) of the recurrence."""
    M = family_budget(spec, family, j)
    f1, f2 = _family_rhs(rhs, family)
    with ctx.workprec():
        iw = spec.X / (mp.pi * n)
        scale = iw ** 3 / (4 * (M - p - 3))
        if family == TRIG:
            return (-scale * _get(f2, M - p - 4), scale * _get(f1, M - p - 4))
        return (scale * _get(f2, M - p - 4), scale * _get(f1, M - p - 4))


def _matvec(mat, vec):
    return (mat[0][0] * vec[0] + mat[0][1] * vec[1],
            mat[1][0] * vec[0] + mat[1][1] * vec[1])


def run_recurrence(spec: ProblemSpec, family: str, rhs: RhsCoefficients,
                   n: int, j: int, ctx: PrecisionContext) -> dict:
    """Walk the recurrence from zero pairs above power M down to power 1.

    Returns {power index: (first, second)} for M .. 1, empty when M < 1.
    The rows p = -3, -2, -1 are the three highest-power equations.
    """
    M = family_budget(spec, family, j)
    with ctx.workprec():
        coeffs = dict.fromkeys((M + 1, M + 2, M + 3), (mpf(0), mpf(0)))
        for p in range(-3, M - 3):
            d11, d12, d13 = transfer_matrices(spec, family, n, j, p, ctx)
            fvec = driving_vector(spec, family, rhs, n, j, p, ctx)
            v1 = _matvec(d11, coeffs[M - p - 2])
            v2 = _matvec(d12, coeffs[M - p - 1])
            v3 = _matvec(d13, coeffs[M - p])
            coeffs[M - p - 3] = (v1[0] + v2[0] + v3[0] + fvec[0],
                                 v1[1] + v2[1] + v3[1] + fvec[1])
    return {t: coeffs[t] for t in range(M, 0, -1)}


def closure_index0(spec: ProblemSpec, n: int, j: int, trig_coeffs: dict,
                   hyp_coeffs: dict, moments: "MomentTable",
                   ctx: PrecisionContext):
    """Power-0 coefficients from the boundary conditions and orthogonality.

    The hinged conditions at 0 give the cos/cosh pair directly; the
    condition at X fixes the sinh coefficient through the closed boundary
    sums; orthogonality against the base eigenfunction then pins the sin
    coefficient via the cached moment integrals.
    """
    M1 = spec.budget.M(j + 1)
    M0 = spec.budget.M(j)
    with ctx.workprec():
        iw = spec.X / (mp.pi * n)
        zero = (mpf(0), mpf(0))
        a1 = trig_coeffs[1][0]
        b2 = trig_coeffs[2][1]
        c1 = hyp_coeffs.get(1, zero)[0]
        d2 = hyp_coeffs.get(2, zero)[1]
        b0 = iw * (a1 + c1 + iw * (b2 + d2))
        d0 = -b0

        X = spec.X
        cos_pn = mpf(-1) ** n
        sinh_pn = mp.sinh(mp.pi * n)
        cosh_pn = mp.cosh(mp.pi * n)
        b_sum = b0
        for t in range(1, M1 + 1):
            b_sum += X ** t * trig_coeffs[t][1]
        d_sum = d0
        c_tail = mpf(0)
        for t in range(1, M0 + 1):
            d_sum += X ** t * hyp_coeffs[t][1]
            c_tail += X ** t * hyp_coeffs[t][0]
        c0 = -(b_sum * cos_pn + d_sum * cosh_pn) / sinh_pn - c_tail

        ortho = mpf(0)
        for t in range(1, M1 + 1):
            at, bt = trig_coeffs[t]
            ortho += moments.beta[t] * bt + moments.alpha[t] * at
        ortho += moments.eta[0] * d0 + moments.mu[0] * c0
        for t in range(1, M0 + 1):
            ct, dt = hyp_coeffs[t]
            ortho += moments.eta[t] * dt + moments.mu[t] * ct
        a0 = -2 / X * ortho
        return a0, b0, c0, d0


def solve_step(spec: ProblemSpec, n: int, j: int, rhs: RhsCoefficients,
               moments: "MomentTable", ctx: PrecisionContext):
    """All four coefficient arrays of the step-(j+1) correction.

    One walk per family, seeded with zero pairs above its top power, gives
    powers M .. 1 and the closure gives power 0.  Returns (a, b, c, d) as
    tuples with trig length M(j+1)+1 and hyperbolic length M(j)+1.
    """
    trig = run_recurrence(spec, TRIG, rhs, n, j, ctx)
    hyp = run_recurrence(spec, HYP, rhs, n, j, ctx)
    a0, b0, c0, d0 = closure_index0(spec, n, j, trig, hyp, moments, ctx)
    a, b = zip((a0, b0), *(trig[t] for t in range(1, len(trig) + 1)))
    c, d = zip((c0, d0), *(hyp[t] for t in range(1, len(hyp) + 1)))
    return a, b, c, d
