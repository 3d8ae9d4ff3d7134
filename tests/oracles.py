"""Independent oracles used by the tests.

These deliberately avoid the production code paths they check: naive
summation instead of Horner, the literal multi-index product expansion of the
coefficient recurrence instead of the forward iteration, and the scalar
power-matching relations instead of the vectorized walk, a closed-form
eigenvalue correction instead of the moment-table projection, the
closed-form moment sums instead of the exponential-moment recurrences, and
the majorant-chain envelope of the eigenvalue corrections.
"""

import itertools

from mpmath import mp, mpf

from fdsl4.recursion import driving_vector, family_budget, transfer_matrices
from fdsl4.spectral import MomentTable

_IDENT = ((mpf(1), mpf(0)), (mpf(0), mpf(1)))
_ZERO = ((mpf(0), mpf(0)), (mpf(0), mpf(0)))


def naive_poly_eval(coeffs, x):
    """Term-by-term power sum, no Horner."""
    return sum(c * x ** k for k, c in enumerate(coeffs))


def _block(spec, family, n, j, p, l_out, l_in, ctx):
    """Entry D_{l_out, l_in}(p) of the companion block matrix."""
    if l_out == 1:
        return transfer_matrices(spec, family, n, j, p, ctx)[l_in - 1]
    if (l_out, l_in) in ((2, 1), (3, 2)):
        return _IDENT
    return _ZERO


def _matvec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def product_expansion_pair(spec, family, rhs, n, j, p, walked, ctx):
    """Pair at power index M-p-3 by the explicit product-sum expansion.

    The seeds are the pairs at powers M, M-1, M-2 of ``walked``, the dict
    that ``run_recurrence`` returns.  Enumerate every path of block-matrix
    indices: the homogeneous part sums chains of length p+1 applied to one of
    the three seed pairs, the inhomogeneous part sums shorter chains applied
    to the driving vectors.  Exponential in p; intended for small p only.
    """
    M = family_budget(spec, family, j)
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
            fvec = driving_vector(spec, family, rhs, n, j, p - s_len, ctx)
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
        last = driving_vector(spec, family, rhs, n, j, p, ctx)
        return (total[0] + last[0], total[1] + last[1])


def _at(arr, i):
    return arr[i] if i < len(arr) else mpf(0)


def power_matching_mismatch(spec, term, rhs, ctx):
    """Max |lhs - rhs| of the scalar power-matching relations for a term.

    Substituting the term into u'''' - lambda0 u and collecting x^t against
    each basis function must reproduce the rhs coefficient arrays for every
    equation t = 0 .. (budget - 1), the top three included, with the
    coefficients above the budget read as zero.  Checks all four families.
    """
    n, X = term.n, term.X
    with ctx.workprec():
        w = mp.pi * n / X
        worst = mpf(0)
        a, b, c, d = (arr + (mpf(0),) * 4 for arr in (term.a, term.b, term.c, term.d))
        for t in range(max(len(term.a) - 1, len(rhs.f_cos), len(rhs.f_sin))):
            lhs_cos = ((((t + 4) * b[t + 4] + 4 * w * a[t + 3]) * (t + 3)
                        - 6 * w ** 2 * b[t + 2]) * (t + 2)
                       - 4 * w ** 3 * a[t + 1]) * (t + 1)
            lhs_sin = ((((t + 4) * a[t + 4] - 4 * w * b[t + 3]) * (t + 3)
                        - 6 * w ** 2 * a[t + 2]) * (t + 2)
                       + 4 * w ** 3 * b[t + 1]) * (t + 1)
            worst = max(worst, abs(lhs_cos - _at(rhs.f_cos, t)),
                        abs(lhs_sin - _at(rhs.f_sin, t)))
        for t in range(max(len(term.c) - 1, len(rhs.f_cosh), len(rhs.f_sinh))):
            lhs_cosh = ((((t + 4) * d[t + 4] + 4 * w * c[t + 3]) * (t + 3)
                         + 6 * w ** 2 * d[t + 2]) * (t + 2)
                        + 4 * w ** 3 * c[t + 1]) * (t + 1)
            lhs_sinh = ((((t + 4) * c[t + 4] + 4 * w * d[t + 3]) * (t + 3)
                         + 6 * w ** 2 * c[t + 2]) * (t + 2)
                        + 4 * w ** 3 * d[t + 1]) * (t + 1)
            worst = max(worst, abs(lhs_cosh - _at(rhs.f_cosh, t)),
                        abs(lhs_sinh - _at(rhs.f_sinh, t)))
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


def correction_envelope(report, j):
    """Bound on |lambda^(j+1)| from the majorant chain (double factorials)."""
    ctx = report._ctx()
    with ctx.workprec():
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
    n=1, X=5, T=105); use it as an oracle for small T only.
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
        return MomentTable(n=n, X=X, alpha=tuple(alpha), beta=tuple(beta),
                           eta=tuple(eta), mu=tuple(mu))
