"""Coefficient recursion for one correction step.

Matching powers of x on both sides of  u'''' - lambda0 u = F  couples each
coefficient of the mixed basis to the three above it.  In exponent form the
couplings are scalar: with w = pi n / X and iw = 1/w, the coefficient Z(t) of
x^t e^(zeta w x) obeys

    Z(t) = zeta r11 Z(t+1) - zeta^2 r12 Z(t+2) + zeta^3 r13 Z(t+3) + s F(t-1)

    r11 = 3 iw (t+1) / 2,   r12 = iw^2 (t+2)(t+1),
    r13 = iw^3 (t+3)(t+2)(t+1) / 4,   s = iw^3 / (4 t).

Three walks cover the basis:

    zeta = i    Z = a + i b      F = -f_cos + i f_sin      (budget M(j+1))
    zeta = -1   Z = c + d        F = f_cosh + f_sinh       (budget M(j))
    zeta = +1   Z = c - d        F = f_cosh - f_sinh       (budget M(j))

so a = Re Z, b = Im Z, c = (sigma + delta)/2 and d = (sigma - delta)/2 with
sigma, delta the c + d and c - d walks.  The coefficients above the budget M
are zero, so each walk starts from three zeros and runs down to power 1.
Power 0 spans the kernel of u'''' - lambda0 u; it is closed from the boundary
conditions plus orthogonality against the base eigenfunction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from mpmath import mp, mpc, mpf

from .numerics import PrecisionContext
from .problem import ProblemSpec
from .rhs import RhsCoefficients

if TYPE_CHECKING:  # avoid an import cycle with the orchestration module
    from .spectral import MomentTable


def _walk(zeta, f, M: int, iw) -> list:
    """[0, Z(1), .., Z(M)] of the scalar recurrence driven by f = F(0..M-1).

    Power 0 is left zero for the closure.  Runs at the caller's precision.
    """
    zeta = mp.mpmathify(zeta)
    c1 = zeta * (3 * iw / 2)
    c2 = -zeta ** 2 * iw ** 2
    iw3_4 = iw ** 3 / 4
    c3 = zeta ** 3 * iw3_4
    Z = [mpf(0)] * (M + 4)
    for t in range(M, 0, -1):
        Z[t] = (c1 * (t + 1) * Z[t + 1] + c2 * (t + 2) * (t + 1) * Z[t + 2]
                + c3 * (t + 3) * (t + 2) * (t + 1) * Z[t + 3]
                + iw3_4 / t * f[t - 1])
    return Z[:M + 1]


def closure_index0(spec: ProblemSpec, n: int, a, b, c, d,
                   moments: "MomentTable", ctx: PrecisionContext):
    """Power-0 coefficients from the boundary conditions and orthogonality.

    ``a`` .. ``d`` are the walked arrays indexed by power; their entry 0 is
    not read.  The hinged conditions at 0 give the cos/cosh pair directly;
    the condition at X fixes the sinh coefficient through the closed
    boundary sums; orthogonality against the base eigenfunction then pins
    the sin coefficient via the cached moment integrals.
    """
    M1, M0 = len(a) - 1, len(c) - 1
    with ctx.workprec():
        iw = spec.X / (mp.pi * n)
        c1 = c[1] if M0 >= 1 else mpf(0)
        d2 = d[2] if M0 >= 2 else mpf(0)
        b0 = iw * (a[1] + c1 + iw * (b[2] + d2))
        d0 = -b0

        X = spec.X
        cos_pn = mpf(-1) ** n
        sinh_pn = mp.sinh(mp.pi * n)
        cosh_pn = mp.cosh(mp.pi * n)
        b_sum = b0
        for t in range(1, M1 + 1):
            b_sum += X ** t * b[t]
        d_sum = d0
        c_tail = mpf(0)
        for t in range(1, M0 + 1):
            d_sum += X ** t * d[t]
            c_tail += X ** t * c[t]
        c0 = -(b_sum * cos_pn + d_sum * cosh_pn) / sinh_pn - c_tail

        ortho = mpf(0)
        for t in range(1, M1 + 1):
            ortho += moments.beta[t] * b[t] + moments.alpha[t] * a[t]
        ortho += moments.eta[0] * d0 + moments.mu[0] * c0
        for t in range(1, M0 + 1):
            ortho += moments.eta[t] * d[t] + moments.mu[t] * c[t]
        a0 = -2 / X * ortho
        return a0, b0, c0, d0


def solve_step(spec: ProblemSpec, n: int, j: int, rhs: RhsCoefficients,
               moments: "MomentTable", ctx: PrecisionContext):
    """All four coefficient arrays of the step-(j+1) correction.

    Three scalar walks, seeded with zeros above their top power, give
    powers M .. 1 and the closure gives power 0.  Returns (a, b, c, d) as
    tuples with trig length M(j+1)+1 and hyperbolic length M(j)+1.
    """
    M1, M0 = spec.budget.M(j + 1), spec.budget.M(j)
    with ctx.workprec():
        iw = spec.X / (mp.pi * n)
        trig = _walk(1j, [mpc(-fc, fs) for fc, fs in zip(rhs.f_cos, rhs.f_sin)],
                     M1, iw)
        sigma = _walk(-1, [ch + sh for ch, sh in zip(rhs.f_cosh, rhs.f_sinh)],
                      M0, iw)
        delta = _walk(1, [ch - sh for ch, sh in zip(rhs.f_cosh, rhs.f_sinh)],
                      M0, iw)
        a = [z.real for z in trig]
        b = [z.imag for z in trig]
        c = [(s + t) / 2 for s, t in zip(sigma, delta)]
        d = [(s - t) / 2 for s, t in zip(sigma, delta)]
    a[0], b[0], c[0], d[0] = closure_index0(spec, n, a, b, c, d, moments, ctx)
    return tuple(a), tuple(b), tuple(c), tuple(d)
