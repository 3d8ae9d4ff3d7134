"""Independent oracles used by the tests.

These deliberately avoid the production code paths they check: the literal
multi-index product expansion of the coefficient recurrence in the paper's
2x2 matrix form instead of the scalar walks, the scalar power-matching
relations instead of the walks, a closed-form eigenvalue correction instead
of the moment-table projection, the closed-form moment sums instead of the
exponential-moment recurrences, sequential multiply-adds instead of one dot
product per right-hand-side coefficient, Horner loops instead of one dot
product per point value, the Catalan majorants and the majorant-chain
envelope of the eigenvalue corrections, an mpf Crout LU with one ``fdot`` per
entry instead of the Galerkin oracle's scaled integers, a residual integrand
evaluated term by term at each node of a Gauss-Legendre rule instead of the
exact integral of one residual series per rank, and Gauss-Legendre sums of
x^l sin and x^l cos instead of the Galerkin integrals from the moment kernel.
"""

import itertools
from math import comb

from mpmath import mp, mpf

from fdsl4.corrections import (_derivative_arrays, _differentiate, basis_values, lambda_partials,
                               series_dot)
from fdsl4.spectral import MomentTable
from fdsl4.verify import QuadratureRule

NODES_PER_PANEL = 20


def horner_series(arrays, x, basis):
    """Horner evaluation of the four coefficient polynomials against a basis.

    ``basis`` is the tuple (sin wx, cos wx, sinh wx, cosh wx) at x.  This is
    the loop form that :func:`fdsl4.corrections.series_dot` replaced for
    point values: one rounded multiply-add per power and family.
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


def sequential_rhs(spec, n, j, terms, lambdas, ctx, absolute=False):
    """F of :func:`fdsl4.rhs.build_rhs` by one rounded multiply-add per summand.

    With ``absolute`` every summand enters by its absolute value, giving the
    size of the sum behind each coefficient.
    """
    M1, M0 = spec.M(j + 1), spec.M(j)
    size = abs if absolute else (lambda v: v)
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
            for t, qt in enumerate(q):
                if not qt:
                    continue
                for out, arr in zip(f, arrays):
                    for p, v in enumerate(arr):
                        out[p + t] += size(-qt * v)

        for s in range(1, j + 1):
            lam = lambdas[j + 1 - s]
            term = terms[s]
            for out, arr in zip(f, (term.a, term.b, term.c, term.d)):
                for p, v in enumerate(arr):
                    out[p] += size(lam * v)

        return tuple(tuple(arr) for arr in f)


# --- the paper's (2x1)-vector / (2x2)-matrix form of the step recurrence ----
#
# Families are "trig" (sin/cos pairs (a, b), budget M(j+1)) and "hyp"
# (sinh/cosh pairs (c, d), budget M(j)); position p couples the pair at power
# M-p-3 to the three pairs above it.

_IDENT = ((mpf(1), mpf(0)), (mpf(0), mpf(1)))
_ZERO = ((mpf(0), mpf(0)), (mpf(0), mpf(0)))


def _family_budget(spec, family, j):
    return spec.M(j + 1) if family == "trig" else spec.M(j)


def _at(arr, i):
    return arr[i] if 0 <= i < len(arr) else mpf(0)


def _transfer_matrices(spec, family, n, j, p, ctx):
    """The three 2x2 weights D11, D12, D13 at recurrence position p."""
    M = _family_budget(spec, family, j)
    with ctx.workprec():
        iw = spec.X / (mp.pi * n)
        g1, g2, g3 = mpf(M - p), mpf(M - p - 1), mpf(M - p - 2)
        r11 = 3 * iw / 2 * g3
        r12 = iw ** 2 * g2 * g3
        r13 = iw ** 3 / 4 * g1 * g2 * g3
        if family == "trig":
            d11 = ((mpf(0), -r11), (r11, mpf(0)))
            d12 = ((r12, mpf(0)), (mpf(0), r12))
            d13 = ((mpf(0), r13), (-r13, mpf(0)))
        else:
            d11 = ((mpf(0), -r11), (-r11, mpf(0)))
            d12 = ((-r12, mpf(0)), (mpf(0), -r12))
            d13 = ((mpf(0), -r13), (-r13, mpf(0)))
        return d11, d12, d13


def _driving_vector(spec, family, rhs, n, j, p, ctx):
    """Inhomogeneous 2-vector F(p+3) of the recurrence."""
    M = _family_budget(spec, family, j)
    f1, f2 = rhs[:2] if family == "trig" else rhs[2:]
    with ctx.workprec():
        iw = spec.X / (mp.pi * n)
        scale = iw ** 3 / (4 * (M - p - 3))
        if family == "trig":
            return (-scale * _at(f2, M - p - 4), scale * _at(f1, M - p - 4))
        return (scale * _at(f2, M - p - 4), scale * _at(f1, M - p - 4))


def _block(spec, family, n, j, p, l_out, l_in, ctx):
    """Entry D_{l_out, l_in}(p) of the companion block matrix."""
    if l_out == 1:
        return _transfer_matrices(spec, family, n, j, p, ctx)[l_in - 1]
    if (l_out, l_in) in ((2, 1), (3, 2)):
        return _IDENT
    return _ZERO


def _matvec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def term_pairs(term, family):
    """{power: pair} of a correction's (a, b) or (c, d) arrays."""
    first, second = (term.a, term.b) if family == "trig" else (term.c, term.d)
    return dict(enumerate(zip(first, second)))


def product_expansion_pair(spec, family, rhs, n, j, p, walked, ctx):
    """Pair at power index M-p-3 by the explicit product-sum expansion.

    The seeds are the pairs at powers M, M-1, M-2 of ``walked``, a
    {power: pair} dict (see :func:`term_pairs`).  Enumerate every path of
    block-matrix indices: the homogeneous part sums chains of length p+1
    applied to one of the three seed pairs, the inhomogeneous part sums
    shorter chains applied to the driving vectors.  Exponential in p;
    intended for small p only.
    """
    M = _family_budget(spec, family, j)
    with ctx.workprec():
        total = (mpf(0), mpf(0))
        # chains against the seed pairs; l_{p+1} = 1 fixed
        for ls in itertools.product((1, 2, 3), repeat=p + 1):  # l_0 .. l_p
            seed = walked[M - (3 - ls[0])]
            vec = seed
            dead = False
            chain = ls + (1,)
            for s in range(p + 1):
                mat = _block(spec, family, n, j, s, chain[s + 1], chain[s], ctx)
                if mat is _ZERO:
                    dead = True
                    break
                vec = _matvec(mat, vec)
            if not dead:
                total = (total[0] + vec[0], total[1] + vec[1])
        # chains against the driving vectors
        for s_len in range(1, p + 1):
            fvec = _driving_vector(spec, family, rhs, n, j, p - s_len, ctx)
            for mid in itertools.product((1, 2, 3), repeat=max(0, s_len - 1)):
                chain = (1,) + mid + (1,)  # l_0 = l_s = 1
                vec = fvec
                dead = False
                for k in range(1, s_len + 1):
                    mat = _block(spec, family, n, j, p - s_len + k,
                                 chain[k], chain[k - 1], ctx)
                    if mat is _ZERO:
                        dead = True
                        break
                    vec = _matvec(mat, vec)
                if not dead:
                    total = (total[0] + vec[0], total[1] + vec[1])
        last = _driving_vector(spec, family, rhs, n, j, p, ctx)
        return (total[0] + last[0], total[1] + last[1])


# Power-matching equations: (array P, partner Q, index of the rhs array in
# (f_sin, f_cos, f_sinh, f_cosh), signs of the 4w, 6w^2 and 4w^3 summands);
# equation t reads P and Q at powers t+1 .. t+4.
_EQUATIONS = (("b", "a", 1, (1, -1, -1)), ("a", "b", 0, (-1, -1, 1)),
              ("d", "c", 3, (1, 1, 1)), ("c", "d", 2, (1, 1, 1)))


def _power_row(P, Q, t, w, signs):
    s1, s2, s3 = signs
    return ((((t + 4) * P[t + 4] + s1 * 4 * w * Q[t + 3]) * (t + 3)
             + s2 * 6 * w ** 2 * P[t + 2]) * (t + 2)
            + s3 * 4 * w ** 3 * Q[t + 1]) * (t + 1)


def power_matching_mismatch(spec, n, term, rhs, ctx, relative=False):
    """Max |lhs - rhs| of the scalar power-matching relations for a term of
    eigenpair index n.

    Substituting the term into u'''' - lambda0 u and collecting x^t against
    each basis function must reproduce the rhs coefficient arrays for every
    equation t = 0 .. (budget - 1), the top three included, with the
    coefficients above the budget read as zero.  Checks all four families.
    With ``relative`` each equation's gap is divided by the sum of the
    absolute values of its summands.
    """
    with ctx.workprec():
        w = mp.pi * n / spec.X
        worst = mpf(0)
        for p_name, q_name, f_index, signs in _EQUATIONS:
            P, Q = (getattr(term, k) + (mpf(0),) * 4 for k in (p_name, q_name))
            sizes = [abs(v) for v in P], [abs(v) for v in Q]
            f = rhs[f_index]
            for t in range(max(len(P) - 5, len(f))):
                gap = abs(_power_row(P, Q, t, w, signs) - _at(f, t))
                if relative and gap:
                    gap /= _power_row(*sizes, t, w, (1, 1, 1)) + abs(_at(f, t))
                worst = max(worst, gap)
        return worst


def least_squares_slope(xs, ys):
    """Slope of the ordinary least-squares line through (xs, ys)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def x_potential_second_correction(n, ctx):
    """Closed-form second eigenvalue correction for q0 = x on [0, 1].

    For that problem the correction series is known in closed form through
    the second step:

        1/(32 (n pi)^4) - 5/(32 (n pi)^6)
        + (cos(pi n) - cosh(pi n)) / (2 (n pi)^7 sinh(pi n)).

    Used as an independent cross-check of the recursion machinery.
    """
    with ctx.workprec():
        pn = mp.pi * n
        return (1 / (32 * pn ** 4) - 5 / (32 * pn ** 6)
                + (mp.cos(pn) - mp.cosh(pn)) / (2 * pn ** 7 * mp.sinh(pn)))


def majorant(j: int) -> int:
    """Exact integer majorant value for step j+1: (2j+2)!/((j+1)!(j+2)!).

    These are the Catalan numbers; they solve the convolution recurrence
    satisfied by the normalized correction norms.
    """
    if j < 0:
        raise ValueError("step index must be >= 0")
    return comb(2 * j + 2, j + 1) // (j + 2)


def correction_envelope(report, j):
    """Bound on |lambda^(j+1)| from the majorant chain (double factorials)."""
    with report.ctx.workprec():
        w = mp.pi * report.n / report.X
        front = report.omega * mp.sqrt(2 / report.X) * (w ** 2 + w + 1)
        # 2 (2j-1)!! / (2j+2)!! via exact integers
        num = 1
        for k in range(2 * j - 1, 0, -2):
            num *= k
        den = 1
        for k in range(2 * j + 2, 0, -2):
            den *= k
        return front * report.r_n ** j * 2 * mpf(num) / mpf(den)


# exact values of sin(pi k/2), cos(pi k/2) by residue
_SIN_HALF = (0, 1, 0, -1)
_COS_HALF = (1, 0, -1, 0)


def closed_form_moments(n, X, T, ctx):
    """Moment table for powers 0..T by the finite closed-form sums.

    Repeated integration by parts writes each moment as a sum over k <= t of
    t!/(t-k)! X^(t+1) / (2 pi n)^(k+1) (or (sqrt(2) pi n)^(k+1)) against exact
    quarter/eighth-period trigonometric values.  The terms alternate and grow
    with t, so this loses digits as T grows (at 300 digits: about 1e-207 at
    n=1, X=5, T=105); use it as an oracle for small T only.  The point
    columns at X are taken from ``basis_values``, not checked here.
    """
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
        return MomentTable(X=X, alpha=tuple(alpha), beta=tuple(beta),
                           eta=tuple(eta), mu=tuple(mu), at_X=basis_values(n, X, X, T, ctx))


# --- the Galerkin oracle's dense algebra in mpf, one fdot per entry ----------

def fdot_lu_factor(rows, ctx):
    """Left-looking (Crout) LU with partial pivoting on mpf entries.

    The form :func:`fdsl4.verify._lu_factor` replaced: each L or U entry is
    one exactly rounded dot product that includes the matrix entry it
    corrects, and each L entry is then divided by the pivot.  Returns the
    packed factors (L unit lower) and the row order.
    """
    n = len(rows)
    lu = [list(r) for r in rows]
    piv = list(range(n))
    # neg_u[j] = [1, -U[0][j], ..., -U[k-1][j]], paired with [A[i][j], L[i][0], ...]
    neg_u = [[1] for _ in range(n)]
    with ctx.workprec():
        for k in range(n):
            for i in range(k, n):
                row = lu[i]
                row[k] = mp.fdot([row[k]] + row[:k], neg_u[k])
            pivot = max(range(k, n), key=lambda i: abs(lu[i][k]))
            if lu[pivot][k] == 0:
                raise ZeroDivisionError("singular matrix")
            if pivot != k:
                lu[k], lu[pivot] = lu[pivot], lu[k]
                piv[k], piv[pivot] = piv[pivot], piv[k]
            u_kk = lu[k][k]
            for i in range(k + 1, n):
                lu[i][k] /= u_kk
            row_k, l_k = lu[k], lu[k][:k]
            for j in range(k + 1, n):
                row_k[j] = mp.fdot([row_k[j]] + l_k, neg_u[j])
                neg_u[j].append(-row_k[j])
    return lu, piv


def fdot_lu_solve(lu, piv, b, ctx):
    """Solve A x = b from :func:`fdot_lu_factor`'s factors; each row one fdot."""
    n = len(lu)
    with ctx.workprec():
        y, neg = [], [1]
        for i in range(n):
            y.append(mp.fdot([b[piv[i]]] + lu[i][:i], neg))
            neg.append(-y[i])
        x, neg = [None] * n, [1]   # neg = [1, -x[n-1], ..., -x[i+1]]
        for i in range(n - 1, -1, -1):
            row = lu[i]
            x[i] = mp.fdot([y[i]] + row[:i:-1], neg) / row[i]
            neg.append(-x[i])
        return x


def fdot_nearest_eigenvalue(rows, shift, ctx, max_iter=60):
    """Shifted inverse iteration on mpf rows through :func:`fdot_lu_factor`.

    The loop of :func:`fdsl4.verify.galerkin_nearest_eigenvalue` (same start
    vector, normalization and stopping rule) with every sum an ``fdot``.
    """
    with ctx.workprec():
        shift = mpf(shift)
        shifted = [[v - shift if i == j else v for j, v in enumerate(row)]
                   for i, row in enumerate(rows)]
        lu, piv = fdot_lu_factor(shifted, ctx)
        v = [mpf(1)] * len(rows)
        ritz_prev, reltol = None, ctx.eps
        for _ in range(max_iter):
            y = fdot_lu_solve(lu, piv, v, ctx)
            norm = max(abs(c) for c in y)
            v = [c / norm for c in y]
            av = [mp.fdot(row, v) for row in rows]
            ritz = mp.fdot(av, v) / mp.fdot(v, v)
            if ritz_prev is not None and abs(ritz - ritz_prev) <= reltol * abs(ritz):
                return ritz
            ritz_prev = ritz
        raise RuntimeError("reference inverse iteration did not settle")


def quadrature_sine_cosine_integrals(X, max_power, freqs, panels, ctx):
    """{(l, k): (int x^l sin(k pi x/X), int x^l cos(k pi x/X))} over [0, X]
    for l = 0..max_power and k in ``freqs``, from a composite Gauss-Legendre
    rule of ``panels`` NODES_PER_PANEL-node panels with sin and cos taken at
    each node."""
    with ctx.workprec():
        X = mpf(X)
        rule = QuadratureRule.build(X, panels, NODES_PER_PANEL, ctx)
        weighted = [[w * x ** l for x, w in zip(rule.nodes, rule.weights)]
                    for l in range(max_power + 1)]
        out = {}
        for k in freqs:
            cos, sin = zip(*(mp.cos_sin(k * mp.pi * x / X) for x in rule.nodes))
            for l, wl in enumerate(weighted):
                out[l, k] = (mp.fdot(wl, sin), mp.fdot(wl, cos))
        return out


def pointwise_residual_integrals(sol, spec, panels, ctx):
    """Integral of the squared residual for every rank 0..m, node by node.

    A composite Gauss-Legendre rule of ``panels`` NODES_PER_PANEL-node panels,
    which :func:`fdsl4.verify.residual_sweep` replaced by exact moments.  At
    each node every term and derivative order is paired with the columns
    of ``basis_values``, q0, q1 and q2 are evaluated there, and the rank-k
    residual is the running sum of (u'''' + q2 u'' + q1 u' + q0 u) minus the
    rank-k eigenvalue times the running sum of u.  Each node's weighted
    square is added with one rounding.
    """
    with ctx.workprec():
        rule = QuadratureRule.build(sol.X, panels, NODES_PER_PANEL, ctx)
        lam = lambda_partials((sol.lambda0,) + sol.lambda_corrections, ctx)
        arrays = [_derivative_arrays(t, sol.n, sol.X, mp.dps) for t in sol.terms]
        top = max(len(t.a) for t in sol.terms) - 1
        acc = [mpf(0)] * (sol.m + 1)
        for x, w in zip(rule.nodes, rule.weights):
            columns = basis_values(sol.n, sol.X, x, top, ctx)
            q0x, q1x, q2x = (mp.polyval(q[::-1], x) for q in (spec.q0, spec.q1, spec.q2))
            op_sum = val_sum = mpf(0)
            for k, u in enumerate(arrays):
                u0 = series_dot(u[0], columns)
                op_sum += (series_dot(u[4], columns) + q0x * u0
                           + q2x * series_dot(u[2], columns) + q1x * series_dot(u[1], columns))
                val_sum += u0
                phi = op_sum - lam[k] * val_sum
                acc[k] += w * phi * phi
        return acc
