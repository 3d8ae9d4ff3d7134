"""Independent verification: residual norms, fixtures, sine-Galerkin oracle.

Nothing here reuses the recursion that produced a solution.  Three separate
instruments:

* an L2 residual norm delta_n(m) = || u'''' + q2 u'' + q1 u' + (q0-lam) u ||
  computed by composite Gauss-Legendre quadrature with a panel-doubling
  convergence check -- a computable certificate that the assembled
  approximation nearly solves the differential equation.  The panel count
  follows the phase of the integrand, not its polynomial degree: the squared
  residual turns through 2*pi*n over [0, X] (its hyperbolic part grows by the
  same exponent), and splitting [0, X] into more panels never lowers a
  polynomial's degree (see :func:`default_panels`);

* reference values for the two benchmark problems (exact eigenvalues of the
  first benchmark from its Kummer-function characteristic equation, rank-10
  eigenvalues and residual tables for both), shipped as decimal strings;

* a sine-basis Galerkin discretization of the operator whose nearest
  eigenvalue to a shift is found by LU-based inverse iteration.  The matrix
  entries reduce to closed-form integrals of x^l sin/cos products, so the
  oracle shares no code path with the correction recursion.

The residual of each rank is itself a series in the mixed basis, so its
coefficients are formed once per sweep by algebra on the terms' cached
derivative orders (:func:`_residual_series`).  At each node the point
columns are built once, their sin, cos, sinh and cosh from per-panel
rotations of values shared by every panel, and each rank's series is paired
with them once through :func:`~fdsl4.corrections.series_dot`.  The sums are
the solver's own primitive, one exactly rounded dot product (``mp.fdot``)
each: a residual coefficient, a point value, a quadrature sum and a Galerkin
entry.  The Gauss-Legendre nodes come from
``mp.gauss_quadrature``.  The oracle's dense algebra runs on Python integers:
the shifted matrix is converted once to integers sharing one binary
exponent, set by its largest entry with mp.prec + 64 bits below it.  Each L
or U entry of the left-looking LU and each row of the triangular solves is
an exact integer dot product rounded once, and the Rayleigh sums are exact,
with one rounding at the division.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain, zip_longest
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import mpf_shift, round_nearest, to_int

from .corrections import (FDSolution, _derivative_arrays, _power_columns, combine_series,
                          lambda_partials, series_dot)
from .numerics import PrecisionContext
from .problem import ProblemSpec

log = logging.getLogger(__name__)

NODES_PER_PANEL = 20
DOUBLING_RELTOL = "1e-10"
MAX_DOUBLINGS = 3


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

    panels: int
    nodes_per_panel: int
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
            return cls(panels=panels, nodes_per_panel=nodes_per_panel,
                       nodes=tuple(nodes), weights=tuple(weights))

    def integrate(self, f, ctx: PrecisionContext) -> mpf:
        with ctx.workprec():
            return mp.fdot(self.weights, map(f, self.nodes))


def _doubled(integrals, panels: int, ctx: PrecisionContext, what: str):
    """(values, converged) for a list of integrals, doubling P -> 2P panels
    until every value agrees with the previous pass to DOUBLING_RELTOL.

    ``integrals(panels)`` returns the list at one panel count.  After
    MAX_DOUBLINGS unsettled doublings a warning names ``what`` and the finest
    values are kept.
    """
    with ctx.workprec():
        reltol = mpf(DOUBLING_RELTOL)
        prev = integrals(panels)
        for _ in range(MAX_DOUBLINGS):
            panels *= 2
            cur = integrals(panels)
            if all(max(abs(c), abs(p)) == 0 or abs(c - p) <= reltol * max(abs(c), abs(p))
                   for c, p in zip(cur, prev)):
                return cur, True
            prev = cur
        log.warning("%s quadrature did not settle after %d doublings",
                    what, MAX_DOUBLINGS)
        return cur, False


# --- residual norms -----------------------------------------------------------

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
        r = spec.r
        lam = lambda_partials((sol.lambda0,) + sol.lambda_corrections, ctx)
        R = S = ((), (), (), ())
        series = []
        for k, term in enumerate(sol.terms):
            u = _derivative_arrays(term, mp.dps)
            summands = [(1, 0, R), (1, 0, u[4]), (-lam[k], 0, u[0])]
            summands += [(qt, t, u[order])
                         for q, order in ((spec.q2, 2), (spec.q1, 1), (spec.q0, 0))
                         for t, qt in enumerate(q) if qt]
            if k:
                summands.append((-sol.lambda_corrections[k - 1], 0, S))
            la, lc = len(term.a), len(term.c)
            R = combine_series((la + r, la + r, lc + r, lc + r), summands)
            S = combine_series((la, la, lc, lc), ((1, 0, S), (1, 0, u[0])))
            series.append(R)
        return series


def _node_columns(n: int, X, rule: QuadratureRule, top: int):
    """Point columns x^p (sin, cos, sinh, cosh)(w x), p = 0..top, at each node
    of the rule in order, with the transcendentals from per-panel rotations.

    Every panel has the same Gauss offsets theta_i = w (h/2) t_i from its
    midpoint, so their cos_sin and e^(+-theta_i) are taken once per pass, and
    cos_sin(w mid) and e^(+-w mid) once per panel.  At a node, sin and cos
    follow from the addition formulas, E = e^(wx) is one product, and
    sinh = (E - 1/E)/2, cosh = (E + 1/E)/2.  Runs at the caller's precision.
    """
    w = mp.pi * n / X
    h = X / rule.panels
    offsets = []
    for t in _gauss_legendre_base(rule.nodes_per_panel, mp.dps)[0]:
        theta = w * (h / 2 * t)
        offsets.append(mp.cos_sin(theta) + (mp.exp(theta), mp.exp(-theta)))
    nodes = iter(rule.nodes)
    for p in range(rule.panels):
        wm = w * ((p + mpf(1) / 2) * h)
        cm, sm = mp.cos_sin(wm)
        em, em_inv = mp.exp(wm), mp.exp(-wm)
        for ct, st, et, et_inv in offsets:
            E, E_inv = em * et, em_inv * et_inv
            yield _power_columns(next(nodes), top,
                                 (sm * ct + cm * st, cm * ct - sm * st,
                                  (E - E_inv) / 2, (E + E_inv) / 2))


def _residual_integrals(sol: FDSolution, series, panels: int, ctx: PrecisionContext):
    """Integral of the squared residual for every rank 0..m at one panel count.

    ``series`` holds the residual arrays of :func:`_residual_series`.  Each
    node's columns are built once and paired once with each rank's series,
    and each rank's quadrature sum is one dot product of the weights with
    the squared values.
    """
    with ctx.workprec():
        rule = QuadratureRule.build(sol.X, panels, NODES_PER_PANEL, ctx)
        top = len(series[-1][0]) - 1
        values = [[series_dot(R, columns) for R in series]
                  for columns in _node_columns(sol.n, sol.X, rule, top)]
        return [mp.fdot(rule.weights, [v * v for v in rank]) for rank in zip(*values)]


def default_panels(n: int) -> int:
    """Starting panel count P = max(2, ceil(pi n / 8)) of the residual rule.

    Every term is a polynomial times sin, cos, sinh or cosh of pi n x / X, so
    the squared residual turns through 2 pi n over [0, X] whatever X is.  P
    panels keep that turn to at most 16 rad per 20-node panel, and to at most
    8 rad in the doubled pass whose values are returned.  The polynomial
    degree 2 (M(m) + r) does not enter: splitting [0, X] does not lower a
    degree, so sizing by it only multiplies nodes.  The P -> 2P doubling check
    remains the gate for any integrand this count does not resolve.
    """
    return max(2, math.ceil(math.pi * n / 8))


def residual_sweep(sol: FDSolution, spec: ProblemSpec, ctx: PrecisionContext):
    """delta_n(k) for every rank k = 0..m, sharing one quadrature pass.

    Runs the panel-doubling convergence check on the squared norms; a rank
    that fails to settle is logged and the finer value kept.
    """
    series = _residual_series(sol, spec, ctx)
    squares, _ = _doubled(lambda p: _residual_integrals(sol, series, p, ctx),
                          default_panels(sol.n), ctx,
                          f"residual (n={sol.n}, m={sol.m})")
    with ctx.workprec():
        return [mp.sqrt(abs(v)) for v in squares]


def residual_norm(sol: FDSolution, spec: ProblemSpec, ctx: PrecisionContext) -> mpf:
    """L2 norm of the operator applied to the rank-m approximation."""
    return residual_sweep(sol, spec, ctx)[sol.m]


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
    section = None
    b1_exact, b1_err, b2_lam, b2_res = {}, {}, {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            continue
        parts = line.split()
        if section == "benchmark1.exact":
            b1_exact[int(parts[0])] = parts[1]
        elif section == "benchmark1.fd_error":
            b1_err[(int(parts[0]), int(parts[1]))] = parts[2]
        elif section == "benchmark2.rank10":
            b2_lam[int(parts[0])] = parts[1]
        elif section == "benchmark2.residual":
            b2_res[(int(parts[0]), int(parts[1]))] = parts[2]
        else:
            raise ValueError(f"unexpected data line outside a known section: {raw!r}")
    return FixtureSet(b1_exact=b1_exact, b1_fd_error=b1_err,
                      b2_rank10=b2_lam, b2_residual=b2_res)


# --- sine-Galerkin oracle -------------------------------------------------------

MAX_INVERSE_ITERATIONS = 60
GUARD_BITS = 64   # bits kept below the largest entry beyond mp.prec


def _sine_cosine_integrals(X, max_power: int, max_freq: int, ctx: PrecisionContext):
    """I_s[l][k] = int x^l sin(k pi x/X), I_c[l][k] = int x^l cos(k pi x/X)."""
    with ctx.workprec():
        X = mpf(X)
        I_s = [[mpf(0)] * (max_freq + 1) for _ in range(max_power + 1)]
        I_c = [[mpf(0)] * (max_freq + 1) for _ in range(max_power + 1)]
        for l in range(max_power + 1):
            I_c[l][0] = X ** (l + 1) / (l + 1)
        for k in range(1, max_freq + 1):
            nu = k * mp.pi / X
            cos_k = mpf(-1) ** k
            for l in range(max_power + 1):
                if l == 0:
                    I_s[0][k] = (1 - cos_k) / nu
                    I_c[0][k] = mpf(0)
                else:
                    I_s[l][k] = -X ** l * cos_k / nu + l / nu * I_c[l - 1][k]
                    I_c[l][k] = -(l / nu) * I_s[l - 1][k]
        return I_s, I_c


def build_galerkin(spec: ProblemSpec, N: int, ctx: PrecisionContext) -> tuple:
    """Rows of the N x N operator matrix in the orthonormal sine basis
    sqrt(2/X) sin(w_p x), w_p = p pi / X, p = 1..N.

    Entry (p, q) is delta_pq w_p^4 plus (2/X) times the sum over powers l of
    (q0_l - w_p^2 q2_l) int x^l sin_p sin_q + w_p q1_l int x^l cos_p sin_q:
    one exactly rounded dot product over the potential coefficients, with
    the product integrals in closed form.
    """
    with ctx.workprec():
        X = spec.X
        I_s, I_c = _sine_cosine_integrals(X, spec.r, 2 * N, ctx)
        rows = []
        for p in range(1, N + 1):
            wp = p * mp.pi / X
            # weights of 2 int x^l sin_p sin_q and 2 int x^l cos_p sin_q, 2/X folded in
            w_ss = [(c0 - wp ** 2 * c2) / X for c0, c2 in
                    zip_longest(spec.q0, spec.q2, fillvalue=0)]
            w_cs = [c1 * wp / X for c1 in spec.q1]
            row = []
            for q in range(1, N + 1):
                d, sign = abs(p - q), (1 if p >= q else -1)
                entry = mp.fdot(chain(
                    ((w, I_c[l][d] - I_c[l][p + q]) for l, w in enumerate(w_ss) if w),
                    ((w, I_s[l][p + q] - sign * I_s[l][d]) for l, w in enumerate(w_cs) if w)))
                row.append(entry + wp ** 4 if p == q else entry)
            rows.append(tuple(row))
        return tuple(rows)


def _fixed(value, e: int) -> int:
    """The integer nearest value / 2^e (exact shift, one rounding)."""
    return to_int(mpf_shift(value._mpf_, -e), round_nearest)


def _lu_factor(rows, ctx: PrecisionContext):
    """Left-looking (Crout) LU with partial pivoting, P A = L U, on scaled integers.

    The matrix is converted once to integers times 2^e, with e set by its
    largest entry so that entry keeps mp.prec + GUARD_BITS bits; U shares
    that scale, and the unit lower L, whose entries are at most 1, carries
    ``bits`` = mp.prec + GUARD_BITS fraction bits.  Step k forms column k of
    L and then row k of U from the finished rows and columns.  Each entry is
    the matrix entry it corrects minus one exact integer dot product shifted
    down by ``bits``, so it is rounded once; an L entry is then one floor
    division by the pivot.  Returns the packed integer factors, the row
    order, e and bits.
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
        if lu[pivot][k] == 0:
            raise ZeroDivisionError("singular shifted matrix; perturb the shift")
        if pivot != k:
            lu[k], lu[pivot] = lu[pivot], lu[k]
            piv[k], piv[pivot] = piv[pivot], piv[k]
        u_kk = lu[k][k]
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

    Shifted inverse iteration: one LU factorization of (A - shift I), then
    repeated solves; the Rayleigh quotient of the iterate is returned once it
    settles to ~1e-12 relative.  Raises OracleConvergenceError otherwise.
    The iterate v is kept as integers v * 2^bits with max |v| = 1, and the
    unshifted rows at the factors' scale 2^e, so the Rayleigh sums are exact
    and the quotient is rounded once.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    rows = build_galerkin(spec, N, ctx)
    with ctx.workprec():
        shift = mpf(shift)
        for _ in range(3):
            shifted = [[v - shift if i == j else v for j, v in enumerate(row)]
                       for i, row in enumerate(rows)]
            try:
                lu, piv, e, bits = _lu_factor(shifted, ctx)
                break
            except ZeroDivisionError:
                # shift sits exactly on an oracle eigenvalue; nudge it
                shift *= 1 + mpf(10) ** (-ctx.digits // 2)
        else:
            raise OracleConvergenceError(
                "shifted matrix stayed singular after perturbing the shift")
        a = [[_fixed(v, e) for v in row] for row in rows]
        v = [1 << bits] * N
        ritz_prev = None
        reltol = mpf(10) ** (-min(12, ctx.digits // 2))
        for _ in range(MAX_INVERSE_ITERATIONS):
            y = _lu_solve(lu, piv, v, bits)
            norm = max(map(abs, y))
            v = [(c << bits) // norm for c in y]
            av = [sum(map(mul, row, v)) for row in a]
            vv = sum(map(mul, v, v))
            ritz = mp.ldexp(mp.fdiv(sum(map(mul, av, v)), vv), e)
            if ritz_prev is not None and abs(ritz - ritz_prev) <= reltol * abs(ritz):
                return ritz
            ritz_prev = ritz
        res = [mp.ldexp(p, e - bits) - ritz * mp.ldexp(c, -bits) for p, c in zip(av, v)]
        raise OracleConvergenceError(
            f"inverse iteration did not settle after {MAX_INVERSE_ITERATIONS} iterations; "
            f"last Rayleigh residual "
            f"{mp.nstr(mp.sqrt(mp.fdot(res, res) / mp.ldexp(vv, -2 * bits)), 5)}")
