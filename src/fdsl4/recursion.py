"""Coefficient recursion for one correction step.

Matching powers of x on both sides of  u'''' - lambda0 u = F  couples each
coefficient of the mixed basis to the three above it.  In exponent form the
couplings are scalar: with w = pi n / X and iw = 1/w, the coefficient Z(t) of
x^t e^(zeta w x) obeys

    Z(t) = zeta r11 Z(t+1) - zeta^2 r12 Z(t+2) + zeta^3 r13 Z(t+3) + s F(t-1)

    r11 = 3 iw (t+1) / 2,   r12 = iw^2 (t+2)(t+1),
    r13 = iw^3 (t+3)(t+2)(t+1) / 4,   s = iw^3 / (4 t).

With F = (f_sin, f_cos, f_sinh, f_cosh) from :func:`fdsl4.rhs.build_rhs`,
zeta = i on Z = a + i b, F = -f_cos + i f_sin gives the a and b rows as its
real and imaginary parts; zeta = -1 on c + d and zeta = +1 on c - d, driven
by f_cosh + f_sinh and f_cosh - f_sinh, add and subtract to the c and d rows:

    a(t) = -r11 b(t+1) + r12 a(t+2) + r13 b(t+3) - s f_cos(t-1)
    b(t) =  r11 a(t+1) + r12 b(t+2) - r13 a(t+3) + s f_sin(t-1)
    c(t) = -r11 d(t+1) - r12 c(t+2) - r13 d(t+3) + s f_cosh(t-1)
    d(t) = -r11 c(t+1) - r12 d(t+2) - r13 c(t+3) + s f_sinh(t-1)

Each row is one exactly rounded dot product of four pairs of raw values
(the kernel :func:`fdsl4.numerics._dot`).  Its factors depend only on n, X,
t and the precision, so the moment table holds them, built once per solve
(``MomentTable.factors``).  The coefficients above the budgets, M(j+1)
for a, b and M(j) for c, d, are zero, so one downward loop starts from
three zero rows and runs to power 1.
Power 0 spans the kernel of u'''' - lambda0 u; it is closed from the boundary
conditions (u(X) pairs with the moment table's point columns at X) plus
orthogonality against the base eigenfunction, the projection that also gives
lambda^(j+1) (:meth:`fdsl4.spectral.MomentTable.project`).
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import fzero

from .corrections import series_dot
from .numerics import PrecisionContext, _dot


def closure_index0(n: int, a, b, c, d, moments, ctx: PrecisionContext):
    """Power-0 coefficients from the boundary conditions and orthogonality.

    ``a`` .. ``d`` are the walked arrays indexed by power, entry 0 unread; X
    is the moment table's.  The hinged conditions at 0 give the cos/cosh pair
    directly.  u(X) = 0 is one :func:`~fdsl4.corrections.series_dot` of the
    cos, sinh and cosh families against the table's point columns at X, taken
    with c0 = 0 and solved for the sinh coefficient c0.  Orthogonality against
    the base eigenfunction, the moment-table projection, then pins a0.
    """
    with ctx.workprec():
        iw = moments.X / (mp.pi * n)
        c1 = c[1] if len(c) > 1 else mpf(0)
        d2 = d[2] if len(d) > 2 else mpf(0)
        b0 = iw * (a[1] + c1 + iw * (b[2] + d2))
        d0 = -b0
        u = [(mpf(0), *a[1:]), (b0, *b[1:]), (mpf(0), *c[1:]), (d0, *d[1:])]
        # sin(pi n) = 0: the rounded sin column at X would only add noise
        c0 = -series_dot(((), *u[1:]), moments.at_X) / moments.at_X[2][0]
        u[2] = (c0, *c[1:])
        # a0 is the unknown that alpha[0] multiplies, and beta[0] = 0
        a0 = -moments.project(u) / moments.alpha[0]
        return a0, b0, c0, d0


def solve_step(n: int, rhs: tuple, moments, ctx: PrecisionContext):
    """Arrays (a, b, c, d) of the correction that inverts F = ``rhs``.

    The budgets are F's lengths, M1 = len(f_sin) and M0 = len(f_sinh); X and
    the row factors are the moment table's.  One downward loop from zero rows
    above M1 gives powers M1 .. 1, the closure power 0; a, b get length M1+1,
    c, d M0+1.  The walk carries raw values (``v._mpf_``), made mpf before
    the closure.
    """
    M1, M0 = len(rhs[0]), len(rhs[2])
    with ctx.workprec():
        f_sin, f_cos, f_sinh, f_cosh = ([v._mpf_ for v in f] for f in rhs)
        a, b = [fzero] * (M1 + 4), [fzero] * (M1 + 4)
        c, d = [fzero] * (M0 + 4), [fzero] * (M0 + 4)
        for t in range(M1, 0, -1):
            r11, r12, r13, s, n11, n12, n13, ns = moments.factors[t - 1]
            a[t] = _dot(((n11, b[t + 1]), (r12, a[t + 2]), (r13, b[t + 3]), (ns, f_cos[t - 1])))._mpf_
            b[t] = _dot(((r11, a[t + 1]), (r12, b[t + 2]), (n13, a[t + 3]), (s, f_sin[t - 1])))._mpf_
            if t <= M0:
                c[t] = _dot(((n11, d[t + 1]), (n12, c[t + 2]), (n13, d[t + 3]),
                             (s, f_cosh[t - 1])))._mpf_
                d[t] = _dot(((n11, c[t + 1]), (n12, d[t + 2]), (n13, c[t + 3]),
                             (s, f_sinh[t - 1])))._mpf_
        a, b, c, d = ([mp.make_mpf(v) for v in arr[:top + 1]]
                      for arr, top in ((a, M1), (b, M1), (c, M0), (d, M0)))
    a[0], b[0], c[0], d[0] = closure_index0(n, a, b, c, d, moments, ctx)
    return tuple(a), tuple(b), tuple(c), tuple(d)
