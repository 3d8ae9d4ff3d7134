"""Independent verification: residual norms, fixtures, sine-Galerkin oracle.

Nothing here reuses the recursion that produced a solution.  Three separate
instruments:

* an L2 residual norm delta_n(m) = || u'''' + q2 u'' + q1 u' + (q0-lam) u ||
  -- a computable certificate that the assembled approximation nearly
  solves the differential equation.  The residual of each rank is itself a
  series in the mixed basis, formed by applying the operator to the terms'
  coefficients by algebra (:func:`_residual_series`), and its square is
  integrated exactly: a finite sum of x^t e^(z x) over five exponents z,
  whose moments come from the same kernel as the solve's moment table
  (:func:`fdsl4.spectral._exp_moments`, which forms z and e^z from the
  two integers naming z).  A running error bound certifies at least
  CERTIFIED_DIGITS digits of each integral, and the tests check the
  integrals against composite Gauss-Legendre quadrature
  (:class:`QuadratureRule`, nodes from ``mp.gauss_quadrature``);

* reference values for the two benchmark problems (exact eigenvalues of the
  first benchmark from its Kummer-function characteristic equation, rank-10
  eigenvalues and residual tables for both), shipped as decimal strings;

* a sine-basis Galerkin discretization of the operator whose nearest
  eigenvalue to a shift is found by LU-based inverse iteration.  The matrix
  entries reduce to integrals of x^l sin/cos products from the moment kernel
  the solve and the residual share.  No code is shared with the correction
  recursion (right-hand side, recurrences, closure), and the eigenvalue
  comes from another method.

Every float sum of products (a residual coefficient or integral, a Galerkin
entry, a quadrature sum) is one exactly rounded dot product, the kernel
:func:`fdsl4.numerics._dot`.  Exact sums of products run on Python integers
scaled to a binary exponent set by the largest entry, with mp.prec +
GUARD_BITS bits below it: the residual's polynomial products, each family
at its own exponent, and the oracle's dense algebra, where the shifted
matrix shares one.  Each L or U entry of the left-looking LU and each row
of the triangular solves is an exact integer dot product rounded once, an
exactly zero pivot is one unit of the scale, and the Rayleigh quotient
comes from the solve's own sums, exact up to the division.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import zip_longest
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_neg, mpf_shift, round_nearest, to_int

from .corrections import FDSolution, _derivative_arrays, combine_series, lambda_partials
from .numerics import PrecisionContext, _dot, check_index, matching_digits
from .problem import ProblemSpec
from .spectral import _exp_moments

log = logging.getLogger(__name__)

CERTIFIED_DIGITS = 30   # significant digits each residual integral must certify
GUARD_BITS = 64         # bits kept below the largest entry beyond mp.prec


class OracleConvergenceError(RuntimeError):
    """Inverse iteration failed to settle; carries the last residual."""


# --- composite Gauss-Legendre ------------------------------------------------

@lru_cache(maxsize=64)
def _gauss_legendre_base(k: int, dps: int):
    """Nodes and weights on [-1, 1] at dps digits (Golub-Welsch, in mpmath)."""
    with mp.workdps(dps):
        nodes, weights = mp.gauss_quadrature(k, "legendre")
        return tuple(nodes), tuple(weights)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule over [0, X], exact for panel-wise
    polynomials of degree 2*nodes_per_panel - 1."""

    nodes: tuple
    weights: tuple

    @classmethod
    def build(cls, X, panels: int, nodes_per_panel: int,
              ctx: PrecisionContext) -> "QuadratureRule":
        with ctx.workprec():
            X = mpf(X)
            base_x, base_w = _gauss_legendre_base(nodes_per_panel, mp.dps)
            h = X / panels
            nodes, weights = [], []
            for p in range(panels):
                mid = (p + mpf(1) / 2) * h
                for t, w in zip(base_x, base_w):
                    nodes.append(mid + h / 2 * t)
                    weights.append(w * h / 2)
            return cls(nodes=tuple(nodes), weights=tuple(weights))

    def integrate(self, f, ctx: PrecisionContext) -> mpf:
        with ctx.workprec():
            return _dot((w._mpf_, f(x)._mpf_) for w, x in zip(self.weights, self.nodes))


# --- residual norms -----------------------------------------------------------

def _fixed(value, e: int) -> int:
    """The integer nearest value / 2^e (exact shift, one rounding)."""
    return to_int(mpf_shift(value._mpf_, -e), round_nearest)


def _residual_series(sol: FDSolution, spec: ProblemSpec, ctx: PrecisionContext) -> list:
    """Arrays (sin, cos, sinh, cosh) of the rank-k residual phi_k, k = 0..m.

    With L u = u'''' + q2 u'' + q1 u' + q0 u and lam_k the rank-k eigenvalue,
    phi_k = sum over s <= k of (L - lam_k) u^(s) is a series of the same kind
    as a term, r powers longer in each part.  It is formed once, by algebra:

        R_k = R_(k-1) + (L - lam_k) u^(k) - lambda^(k) S_(k-1),
        S_k = S_(k-1) + u^(k),

    each coefficient one exactly rounded dot product, so the running sums
    are carried on coefficients rather than on point values.  A term's
    derivative orders come from its cached tuple, one lookup per term.
    """
    with ctx.workprec():
        r, one = spec.r, mpf(1)
        lam = lambda_partials((sol.lambda0,) + sol.lambda_corrections, ctx)
        R = S = ((), (), (), ())
        series = []
        for k, term in enumerate(sol.terms):
            u = _derivative_arrays(term, sol.n, sol.X, mp.dps)
            summands = [(one, 0, R), (one, 0, u[4]), (-lam[k], 0, u[0])]
            summands += [(qt, t, u[order])
                         for q, order in ((spec.q2, 2), (spec.q1, 1), (spec.q0, 0))
                         for t, qt in enumerate(q) if qt]
            if k:
                summands.append((-sol.lambda_corrections[k - 1], 0, S))
            la, lc = len(term.a), len(term.c)
            R = combine_series((la + r, la + r, lc + r, lc + r), summands)
            S = combine_series((la, la, lc, lc), ((one, 0, S), (one, 0, u[0])))
            series.append(R)
        return series


# Every product of two families of a residual, (a, b, G, H) = (0, 1, 2, 3),
# with the moment columns it pairs with, each as (power of two, sign, name):
#   phi^2 = (a^2 + b^2)/2 + (b^2 - a^2)/2 cos 2th + ab sin 2th
#           + 2 (aG sin th + bG cos th) e^th + 2 (aH sin th + bH cos th) e^-th
#           + G^2 e^2th + 2 GH + H^2 e^-2th,     th = pi n s.
_PRODUCTS = (
    (0, 0, ((-1, 1, "one"), (-1, -1, "cos2"))),
    (1, 1, ((-1, 1, "one"), (-1, 1, "cos2"))),
    (0, 1, ((0, 1, "sin2"),)),
    (0, 2, ((1, 1, "sin_up"),)),
    (1, 2, ((1, 1, "cos_up"),)),
    (0, 3, ((1, 1, "sin_down"),)),
    (1, 3, ((1, 1, "cos_down"),)),
    (2, 2, ((0, 1, "up2"),)),
    (2, 3, ((1, 1, "one"),)),
    (3, 3, ((0, 1, "down2"),)),
)


def _square_moments(n: int, T: int) -> dict:
    """Name -> (column, size) for t = 0..T: the integrals over [0, 1] of s^t
    times each function of _PRODUCTS, 1/(t+1) or a real or imaginary part of
    K_t(Z) at Z = 2 pi n i, (+-1 + i) pi n or +-2 pi n from the solve's
    moment kernel :func:`~fdsl4.spectral._exp_moments`, named by the
    exponents of Z.  No entry exceeds size / (t+1), size = max(1, e^(Re Z)).
    Runs at the caller's precision.
    """
    trig, grow, decay, up2, down2 = (_exp_moments(re, im, n, T) for re, im in
                                     ((0, 2), (1, 1), (-1, 1), (2, 0), (-2, 0)))
    e_pn = mp.exp(mp.pi * n)
    return {
        "one": ([mpf(1) / (t + 1) for t in range(T + 1)], 1),
        "cos2": ([K.real for K in trig], 1), "sin2": ([K.imag for K in trig], 1),
        "cos_up": ([K.real for K in grow], e_pn), "sin_up": ([K.imag for K in grow], e_pn),
        "cos_down": ([K.real for K in decay], 1), "sin_down": ([K.imag for K in decay], 1),
        "up2": (up2, e_pn ** 2), "down2": (down2, 1),
    }


def _unit_integers(family, X) -> tuple:
    """(integers, e): the coefficients times X^p, p = 0, 1, ..., as integers
    times 2^e, e set by the largest so that it keeps mp.prec bits; the
    products with X^p are rounded at the caller's precision."""
    scaled, xp = [], mpf(1)
    for v in family:
        scaled.append(v * xp)
        xp *= X
    top = max((mp.mag(v) for v in scaled if v), default=None)
    if top is None:
        return [0] * len(family), 0
    e = top - mp.prec
    return [_fixed(v, e) for v in scaled], e


def _convolve(f: list, g: list) -> list:
    """Coefficients of the product of two integer polynomials, exactly;
    a square (f is g) sums the symmetric half once."""
    lf, lg, gr = len(f), len(g), g[::-1]
    out = []
    for t in range(lf + lg - 1):
        lo = max(0, t - lg + 1)
        if f is g:
            mid = (t + 1) // 2
            c = 2 * sum(map(mul, f[lo:mid], gr[lg - 1 - t + lo:lg - 1 - t + mid]))
            out.append(c + f[t // 2] ** 2 if t % 2 == 0 else c)
        else:
            hi = min(t, lf - 1) + 1
            out.append(sum(map(mul, f[lo:hi], gr[lg - 1 - t + lo:lg - 1 - t + hi])))
    return out


def _residual_square(R, X, n: int, moments: dict, guard: int):
    """(integral of phi^2 over [0, X], significant digits it certifies) for
    one residual series R = (a, b, c, d), rounded at bits = mp.prec + guard.

    In s = x / X the coefficient of x^p takes a factor X^p, and with
    theta = pi n s, phi = Re[(b - i a) e^(i theta)] + G e^theta + H e^-theta,
    G = (d + c)/2 and H = (d - c)/2 formed exactly.  Each family becomes
    integers at its own binary exponent, ``bits`` bits below its largest
    coefficient; the products of _PRODUCTS are exact convolutions, and the
    integral is X times one ``_dot`` of their coefficients with ``moments``
    (from :func:`_square_moments` at ``bits``).  The digits come from a
    running error bound (Higham, Accuracy and Stability, 3.3) on the sum of
    absolute values: moments within 4 (2 len(a) + 8 n + 16) units of their
    last place of their size, coefficients within (length + 1) 2^e of their
    scaled value, the terms below 2^(-2 bits) of the running sum that
    ``_dot``'s exact summation drops, and the two roundings.
    """
    a, b, c, d = R
    with mp.workprec(mp.prec + guard):
        bits = mp.prec
        G = [mp.ldexp(mp.fadd(dv, cv, exact=True), -1) for cv, dv in zip(c, d)]
        H = [mp.ldexp(mp.fsub(dv, cv, exact=True), -1) for cv, dv in zip(c, d)]
        families = [_unit_integers(f, X) for f in (a, b, G, H)]
        terms, absum, conversion = [], mpf(0), mpf(0)
        for i, j, columns in _PRODUCTS:
            (f, ef), (g, eg) = families[i], families[j]
            if not (any(f) and any(g)):   # exactly zero; its e bounds nothing
                continue
            C = _convolve(f, g)
            top = max(v.bit_length() for v in C)
            spread = math.fsum(2.0 ** (v.bit_length() - top) / (t + 1)
                               for t, v in enumerate(C) if v)
            # each coefficient of C is within min(len) (m_f d_g + d_f m_g + d_f d_g)
            # of its exact value, m the largest coefficient and d its conversion error
            slack = min(len(f), len(g)) * ((len(f) + len(g) + 2 << bits)
                                           + (len(f) + 1) * (len(g) + 1))
            for shift, sign, name in columns:
                values, size = moments[name]
                k = ef + eg + shift
                terms += zip(map(from_int, C if sign > 0 else [-v for v in C]),
                             [mpf_shift(v._mpf_, k) for v in values[:len(C)]])
                absum += size * mp.ldexp(spread, top + k)
                conversion += size * mp.ldexp(mpf(slack) * (1 + math.log(len(C))), k)
        total = _dot(terms) * X
        err = X * (absum * (mp.ldexp(4 * (2 * len(a) + 8 * n + 16), -bits)
                            + mp.ldexp(len(terms), -2 * bits))
                   + conversion) + mp.ldexp(abs(total), 1 - bits)
        if not err:
            return total, math.inf
        return total, max(0.0, float(mp.log10(abs(total) / err))) if total else 0.0


def residual_sweep(sol: FDSolution, spec: ProblemSpec, ctx: PrecisionContext):
    """delta_n(k) for every rank k = 0..m: the square root of the exact
    integral of phi_k^2 over [0, X], moment columns taken once per sweep.

    A rank certified to fewer than CERTIFIED_DIGITS digits is redone once
    with the guard raised by the shortfall plus 64 bits, and logged if still
    short.  The products are exact and every other error scales with
    2^-guard, so one retry is enough.  A pass certifying under one digit
    bounds nothing: its retry allows for the cancellation of all its bits
    again, which covers the square of a series that cancels to its last place.

    The operator is the spec's: with the solution's X but other potentials
    the sweep measures how far the solution is from solving that operator
    (benchmark 2's solution against zero potentials: about 0.53 from rank 1).
    Only a spec whose X is not the solution's at ctx's precision raises
    ValueError, because the terms' basis sin(pi n x / X), ... depends on X.
    """
    if matching_digits(spec.X, sol.X, ctx) < ctx.digits:
        raise ValueError(f"spec is for X = {mp.nstr(spec.X, 15)}, the solution "
                         f"for X = {mp.nstr(sol.X, 15)}")
    series = _residual_series(sol, spec, ctx)
    with ctx.workprec():
        prec = mp.prec
        with mp.workprec(prec + GUARD_BITS):
            moments = _square_moments(sol.n, 2 * len(series[-1][0]) - 2)
        deltas = []
        for k, R in enumerate(series):
            square, digits = _residual_square(R, sol.X, sol.n, moments, GUARD_BITS)
            if digits < CERTIFIED_DIGITS:
                lost = digits if digits >= 1 else -(prec + GUARD_BITS) / math.log2(10)
                guard = GUARD_BITS + 64 + math.ceil((CERTIFIED_DIGITS - lost) * math.log2(10))
                with mp.workprec(prec + guard):
                    retry = _square_moments(sol.n, 2 * len(R[0]) - 2)
                square, digits = _residual_square(R, sol.X, sol.n, retry, guard)
                if digits < CERTIFIED_DIGITS:
                    log.warning("residual integral (n=%d, m=%d, rank %d) certifies "
                                "only %.1f digits", sol.n, sol.m, k, digits)
            deltas.append(mp.sqrt(abs(square)))
        return deltas


# --- reference fixtures --------------------------------------------------------

@dataclass(frozen=True)
class FixtureSet:
    """Benchmark reference data, kept as the printed decimal strings."""

    b1_exact: dict          # n -> eigenvalue (50 digits)
    b1_fd_error: dict       # (n, m) -> |lambda_n - rank-m eigenvalue| (2 s.f.)
    b2_rank10: dict         # n -> rank-10 eigenvalue (50 digits)
    b2_residual: dict       # (n, m) -> residual norm (2 s.f.)


@lru_cache(maxsize=1)
def load_fixtures() -> FixtureSet:
    text = resources.files("fdsl4").joinpath("data/reference_values.txt").read_text()
    tables = {name: {} for name in ("benchmark1.exact", "benchmark1.fd_error",
                                    "benchmark2.rank10", "benchmark2.residual")}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            continue
        if section not in tables:
            raise ValueError(f"unexpected data line outside a known section: {raw!r}")
        *key, value = line.split()
        key = tuple(map(int, key))
        tables[section][key[0] if len(key) == 1 else key] = value
    return FixtureSet(*tables.values())


# --- sine-Galerkin oracle -------------------------------------------------------

MAX_INVERSE_ITERATIONS = 60


def _sine_cosine_integrals(X, max_power: int, max_freq: int, ctx: PrecisionContext):
    """I_s[l][k] = int x^l sin(k pi x/X), I_c[l][k] = int x^l cos(k pi x/X) over
    [0, X]: I_c + i I_s = X^(l+1) K_l(i k pi) from the solve's moment kernel
    :func:`~fdsl4.spectral._exp_moments`, and X^(l+1) / (l+1) at k = 0, where
    the kernel would divide by Z = 0."""
    with ctx.workprec():
        X = mpf(X)
        powers = [X ** (l + 1) for l in range(max_power + 1)]
        columns = [_exp_moments(0, 1, k, max_power) for k in range(1, max_freq + 1)]
        I_s = [[mpf(0)] + [xp * K[l].imag for K in columns] for l, xp in enumerate(powers)]
        I_c = [[xp / (l + 1)] + [xp * K[l].real for K in columns]
               for l, xp in enumerate(powers)]
        return I_s, I_c


def build_galerkin(spec: ProblemSpec, N: int, ctx: PrecisionContext) -> tuple:
    """Rows of the N x N operator matrix in the orthonormal sine basis
    sqrt(2/X) sin(w_p x), w_p = p pi / X, p = 1..N.

    Entry (p, q) is delta_pq w_p^4 plus (2/X) times the sum over powers l of
    (q0_l - w_p^2 q2_l) int x^l sin_p sin_q + w_p q1_l int x^l cos_p sin_q:
    one exactly rounded dot product of the weights and their negatives with
    the integrals of x^l cos and x^l sin at |p - q| and p + q.
    """
    with ctx.workprec():
        X = spec.X
        I_s, I_c = ([[v._mpf_ for v in row] for row in table]
                    for table in _sine_cosine_integrals(X, spec.r, 2 * N, ctx))
        rows = []
        for p in range(1, N + 1):
            wp = p * mp.pi / X
            # weights of 2 int x^l sin_p sin_q and 2 int x^l cos_p sin_q, 2/X folded
            # in, with their negatives and the integrals they pair with, as raw values
            w_ss = [(c0 - wp ** 2 * c2) / X for c0, c2 in
                    zip_longest(spec.q0, spec.q2, fillvalue=0)]
            w_cs = [c1 * wp / X for c1 in spec.q1]
            ss = [(w._mpf_, mpf_neg(w._mpf_), I_c[l]) for l, w in enumerate(w_ss) if w]
            cs = [(w._mpf_, mpf_neg(w._mpf_), I_s[l]) for l, w in enumerate(w_cs) if w]
            row = []
            for q in range(1, N + 1):
                # 2 sin_p sin_q = cos_(p-q) - cos_(p+q), 2 cos_p sin_q = sin_(p+q) -+ sin_|p-q|
                d, s = abs(p - q), p + q
                pairs = [pair for w, nw, I in ss for pair in ((w, I[d]), (nw, I[s]))]
                pairs += [pair for w, nw, I in cs
                          for pair in ((w, I[s]), (nw if p >= q else w, I[d]))]
                entry = _dot(pairs)
                row.append(entry + wp ** 4 if p == q else entry)
            rows.append(tuple(row))
        return tuple(rows)


def _lu_factor(rows, ctx: PrecisionContext):
    """Left-looking (Crout) LU with partial pivoting, P A = L U, on scaled integers.

    The matrix is converted once to integers times 2^e, with e set by its
    largest entry so that entry keeps mp.prec + GUARD_BITS bits; U shares
    that scale, and the unit lower L, whose entries are at most 1, carries
    ``bits`` = mp.prec + GUARD_BITS fraction bits.  Step k forms column k of
    L and then row k of U from the finished rows and columns.  Each entry is
    the matrix entry it corrects minus one exact integer dot product shifted
    down by ``bits``, so it is rounded once; an L entry is then one floor
    division by the pivot, and an exactly zero pivot is one unit 2^e, as in
    EISPACK's INVIT (Wilkinson & Reinsch, Handbook II, 1971).  Returns the
    packed integer factors, the row order, e and bits.
    """
    with ctx.workprec():
        bits = mp.prec + GUARD_BITS
        e = max((mp.mag(v) for row in rows for v in row if v), default=0) - bits
        lu = [[_fixed(v, e) for v in row] for row in rows]
    n = len(lu)
    piv = list(range(n))
    u_cols = [[] for _ in range(n)]   # u_cols[j] = [U[0][j], ..., U[k-1][j]]
    for k in range(n):
        for i in range(k, n):
            row = lu[i]
            row[k] -= sum(map(mul, row[:k], u_cols[k])) >> bits
        pivot = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if pivot != k:
            lu[k], lu[pivot] = lu[pivot], lu[k]
            piv[k], piv[pivot] = piv[pivot], piv[k]
        u_kk = lu[k][k] = lu[k][k] or 1
        for i in range(k + 1, n):
            lu[i][k] = (lu[i][k] << bits) // u_kk
        row_k, l_k = lu[k], lu[k][:k]
        for j in range(k + 1, n):
            row_k[j] -= sum(map(mul, l_k, u_cols[j])) >> bits
            u_cols[j].append(row_k[j])
    return lu, piv, e, bits


def _lu_solve(lu, piv, b, bits: int) -> list:
    """Solve A x = b from :func:`_lu_factor`'s integer factors.

    ``b`` is given as integers b * 2^bits.  Returns x * 2^(e + 2 bits) as
    integers: the back substitution lifts y by 2^bits first, so the largest
    entry of x keeps about ``bits`` bits however small x is.  Each row is one
    exact integer dot product and one rounding.
    """
    n = len(lu)
    y = []
    for i in range(n):
        y.append(b[piv[i]] - (sum(map(mul, lu[i][:i], y)) >> bits))
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = lu[i]
        x[i] = ((y[i] << bits) - sum(map(mul, row[i + 1:], x[i + 1:]))) // row[i]
    return x


def galerkin_nearest_eigenvalue(spec: ProblemSpec, shift, N: int,
                                ctx: PrecisionContext) -> mpf:
    """Eigenvalue of the sine-Galerkin matrix nearest the shift.

    Shifted inverse iteration: one LU factorization of (A - shift I), a
    shift on an eigenvalue included (:func:`_lu_factor`'s unit pivot), then
    repeated solves; the Rayleigh quotient of the iterate is returned once
    two in a row agree to ctx.eps relative, and OracleConvergenceError is
    raised if it does not settle.  The iterate v is kept as integers
    v * 2^bits with max |v| = 1.  The solve (A - shift I) y = v gives the
    quotient without another product with A: R(y) = shift + y.v / y.y,
    exact integer sums with one rounding at the division and one at the shift.
    """
    N = check_index(N, 1, "need N >= 1")
    shift = ctx.mpf(shift)
    if not mp.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    rows = build_galerkin(spec, N, ctx)
    with ctx.workprec():
        lu, piv, e, bits = _lu_factor([[v - shift if i == j else v for j, v in enumerate(row)]
                                       for i, row in enumerate(rows)], ctx)
        y = [1] * N
        ritz_prev, reltol = None, ctx.eps
        for _ in range(MAX_INVERSE_ITERATIONS):
            top = max(map(abs, y))
            v = [(c << bits) // top for c in y]
            y = _lu_solve(lu, piv, v, bits)   # y * 2^(e + 2 bits)
            yy = sum(map(mul, y, y))
            ritz = shift + mp.ldexp(mp.fdiv(sum(map(mul, y, v)), yy), e + bits)
            if ritz_prev is not None and abs(ritz - ritz_prev) <= reltol * abs(ritz):
                return ritz
            ritz_prev = ritz
        # A y - R y = v - (R - shift) y, both sides times 2^(e + 2 bits)
        res = [(mp.ldexp(p, e + bits) - (ritz - shift) * c)._mpf_ for p, c in zip(v, y)]
        raise OracleConvergenceError(
            f"inverse iteration did not settle after {MAX_INVERSE_ITERATIONS} iterations; "
            f"last Rayleigh residual {mp.nstr(mp.sqrt(_dot((r, r) for r in res) / yy), 5)}")
