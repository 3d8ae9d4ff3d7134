"""Independent oracles used by the tests.

These deliberately avoid the production code paths they check: naive
summation instead of Horner, the literal multi-index product expansion of the
coefficient recurrence instead of the forward iteration, and the scalar
power-matching relations instead of the vectorized walk, and a closed-form
eigenvalue correction instead of the moment-table projection.
"""

import itertools

from mpmath import mp, mpf

from fdsl4.recursion import driving_vector, family_budget, transfer_matrices

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


def product_expansion_pair(spec, family, rhs, n, j, p, top3, ctx):
    """Pair at power index M-p-3 by the explicit product-sum expansion.

    Enumerate every path of block-matrix indices: the homogeneous part sums
    chains of length p+1 applied to one of the three seed pairs, the
    inhomogeneous part sums shorter chains applied to the driving vectors.
    Exponential in p; intended for small p only.
    """
    M = family_budget(spec, family, j)
    with ctx.workprec():
        total = (mpf(0), mpf(0))
        # chains against the seed pairs; l_{p+1} = 1 fixed
        for ls in itertools.product((1, 2, 3), repeat=p + 1):  # l_0 .. l_p
            seed = top3[M - (3 - ls[0])]
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


def power_matching_mismatch(spec, term, rhs, ctx):
    """Max |lhs - rhs| of the scalar power-matching relations for a term.

    Substituting the term into u'''' - lambda0 u and collecting x^t against
    each basis function must reproduce the rhs coefficient arrays for
    t = 0 .. (budget - 4).  Checks all four families.
    """
    n, X = term.n, term.X
    with ctx.workprec():
        w = mp.pi * n / X
        worst = mpf(0)
        a, b, c, d = term.a, term.b, term.c, term.d
        M1 = len(a) - 1
        for t in range(M1 - 3):
            lhs_cos = ((((t + 4) * b[t + 4] + 4 * w * a[t + 3]) * (t + 3)
                        - 6 * w ** 2 * b[t + 2]) * (t + 2)
                       - 4 * w ** 3 * a[t + 1]) * (t + 1)
            lhs_sin = ((((t + 4) * a[t + 4] - 4 * w * b[t + 3]) * (t + 3)
                        - 6 * w ** 2 * a[t + 2]) * (t + 2)
                       + 4 * w ** 3 * b[t + 1]) * (t + 1)
            worst = max(worst, abs(lhs_cos - rhs.f_cos[t]),
                        abs(lhs_sin - rhs.f_sin[t]))
        M0 = len(c) - 1
        for t in range(M0 - 3):
            lhs_cosh = ((((t + 4) * d[t + 4] + 4 * w * c[t + 3]) * (t + 3)
                         + 6 * w ** 2 * d[t + 2]) * (t + 2)
                        + 4 * w ** 3 * c[t + 1]) * (t + 1)
            lhs_sinh = ((((t + 4) * c[t + 4] + 4 * w * d[t + 3]) * (t + 3)
                         + 6 * w ** 2 * c[t + 2]) * (t + 2)
                        + 4 * w ** 3 * d[t + 1]) * (t + 1)
            worst = max(worst, abs(lhs_cosh - rhs.f_cosh[t]),
                        abs(lhs_sinh - rhs.f_sinh[t]))
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
