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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from mpmath import mp, mpf

from .corrections import FDSolution, _derivative_arrays, _eval_arrays, basis_values
from .numerics import PrecisionContext
from .problem import ProblemSpec, poly_eval

log = logging.getLogger(__name__)

NODES_PER_PANEL = 20
DOUBLING_RELTOL = "1e-10"
MAX_DOUBLINGS = 3


class OracleConvergenceError(RuntimeError):
    """Inverse iteration failed to settle; carries the last residual."""


# --- composite Gauss-Legendre ------------------------------------------------

def _legendre_and_prime(k: int, x):
    p0, p1 = mpf(1), x
    for i in range(2, k + 1):
        p0, p1 = p1, ((2 * i - 1) * x * p1 - (i - 1) * p0) / i
    dp = k * (x * p1 - p0) / (x * x - 1)
    return p1, dp


@lru_cache(maxsize=64)
def _gauss_legendre_base(k: int, dps: int):
    """Nodes and weights on [-1, 1], Newton-polished at dps digits."""
    with mp.workdps(dps):
        nodes, weights = [], []
        tol = mpf(10) ** (5 - dps)
        for i in range(1, k + 1):
            x = mp.cos(mp.pi * (i - mpf(1) / 4) / (k + mpf(1) / 2))
            for _ in range(100):
                p, dp = _legendre_and_prime(k, x)
                dx = p / dp
                x -= dx
                if abs(dx) < tol:
                    break
            p, dp = _legendre_and_prime(k, x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
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
            acc = mpf(0)
            for x, w in zip(self.nodes, self.weights):
                acc += w * f(x)
            return acc


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


def integrate_adaptive(f, X, panels: int, ctx: PrecisionContext,
                       nodes_per_panel: int = NODES_PER_PANEL):
    """(integral, converged): doubles panels until two runs agree to 1e-10."""
    values, converged = _doubled(
        lambda p: [QuadratureRule.build(X, p, nodes_per_panel, ctx).integrate(f, ctx)],
        panels, ctx, "adaptive")
    return values[0], converged


# --- residual norms -----------------------------------------------------------

def _lambda_partials(sol: FDSolution, ctx: PrecisionContext):
    """Rank-k eigenvalues lambda0 + lambda^(1) + ... + lambda^(k), k = 0..m."""
    with ctx.workprec():
        parts = [sol.lambda0]
        for v in sol.lambda_corrections:
            parts.append(parts[-1] + v)
        return parts


def _term_arrays(sol: FDSolution, spec: ProblemSpec, ctx: PrecisionContext):
    """Coefficient arrays (u, u'''', u'', u') of every term, for one pass.

    Looked up once per quadrature pass rather than once per node.  The u''
    and u' entries are None where q2 or q1 vanishes identically.
    """
    has_q1 = any(c != 0 for c in spec.q1.coeffs)
    has_q2 = any(c != 0 for c in spec.q2.coeffs)
    with ctx.workprec():
        return [((t.a, t.b, t.c, t.d),
                 _derivative_arrays(t, 4, mp.dps),
                 _derivative_arrays(t, 2, mp.dps) if has_q2 else None,
                 _derivative_arrays(t, 1, mp.dps) if has_q1 else None)
                for t in sol.terms]


def _phi_pieces(sol: FDSolution, spec: ProblemSpec, arrays, x, ctx: PrecisionContext):
    """Per-step values (operator part, plain value) at one point.

    ``arrays`` comes from :func:`_term_arrays`.  The residual of the rank-m
    truncation is sum of the first column up to m minus the rank-m eigenvalue
    times the sum of the second column.
    """
    with ctx.workprec():
        basis = basis_values(sol.n, sol.X, x, ctx)
        q0x = poly_eval(spec.q0, x)
        q1x = poly_eval(spec.q1, x)
        q2x = poly_eval(spec.q2, x)
        ops, vals = [], []
        for u0_arr, u4_arr, u2_arr, u1_arr in arrays:
            u0 = _eval_arrays(u0_arr, x, basis)
            op = _eval_arrays(u4_arr, x, basis) + q0x * u0
            if u2_arr is not None:
                op += q2x * _eval_arrays(u2_arr, x, basis)
            if u1_arr is not None:
                op += q1x * _eval_arrays(u1_arr, x, basis)
            ops.append(op)
            vals.append(u0)
        return ops, vals


def _residual_integrals(sol: FDSolution, spec: ProblemSpec, panels: int,
                        ctx: PrecisionContext):
    """Integral of the squared residual for every rank 0..m at one panel count."""
    with ctx.workprec():
        rule = QuadratureRule.build(sol.X, panels, NODES_PER_PANEL, ctx)
        lam = _lambda_partials(sol, ctx)
        arrays = _term_arrays(sol, spec, ctx)
        acc = [mpf(0)] * (sol.m + 1)
        for x, w in zip(rule.nodes, rule.weights):
            ops, vals = _phi_pieces(sol, spec, arrays, x, ctx)
            op_sum = mpf(0)
            val_sum = mpf(0)
            for k in range(sol.m + 1):
                op_sum += ops[k]
                val_sum += vals[k]
                phi = op_sum - lam[k] * val_sum
                acc[k] += w * phi * phi
        return acc


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
    squares, _ = _doubled(lambda p: _residual_integrals(sol, spec, p, ctx),
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


def matching_digits(value, reference: str, ctx: PrecisionContext) -> int:
    """Leading significant digits on which value agrees with the reference."""
    with ctx.workprec():
        v = mpf(value)
        ref = mpf(reference)
        if v == ref:
            return ctx.digits
        if ref == 0:
            return 0
        rel = abs(v - ref) / abs(ref)
        if rel == 0:
            return ctx.digits
        return max(0, int(mp.floor(-mp.log10(rel))))


def compare_to_fixture(sol: FDSolution, fixtures: FixtureSet,
                       ctx: PrecisionContext) -> dict:
    """Digit agreement and error ratios against whichever fixtures apply."""
    report: dict = {"n": sol.n, "m": sol.m}
    with ctx.workprec():
        if sol.X == 1 and sol.m == 10 and sol.n in fixtures.b2_rank10:
            report["rank10_digits"] = matching_digits(
                sol.lambda_approx, fixtures.b2_rank10[sol.n], ctx)
        if sol.X == 5 and sol.n in fixtures.b1_exact:
            exact = mpf(fixtures.b1_exact[sol.n])
            err = abs(exact - sol.lambda_approx)
            report["abs_error"] = err
            key = (sol.n, sol.m)
            if key in fixtures.b1_fd_error:
                printed = mpf(fixtures.b1_fd_error[key])
                report["printed_error"] = printed
                report["error_ratio"] = err / printed if printed else mp.inf
    return report


# --- sine-Galerkin oracle -------------------------------------------------------

@dataclass(frozen=True)
class GalerkinOracle:
    """Operator matrix in the orthonormal sine basis sqrt(2/X) sin(p pi x/X)."""

    N: int
    X: mpf
    matrix: tuple  # rows of mpf


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


def build_galerkin(spec: ProblemSpec, N: int, ctx: PrecisionContext) -> GalerkinOracle:
    """Assemble the N x N operator matrix with closed-form entries."""
    r = spec.budget.r
    with ctx.workprec():
        X = spec.X
        I_s, I_c = _sine_cosine_integrals(X, r, 2 * N, ctx)

        def sin_sin(l, p, q):  # int x^l sin_p sin_q
            return (I_c[l][abs(p - q)] - I_c[l][p + q]) / 2

        def cos_sin(l, p, q):  # int x^l cos_p sin_q
            d = p - q
            tail = I_s[l][d] if d >= 0 else -I_s[l][-d]
            return (I_s[l][p + q] - tail) / 2

        rows = []
        for p in range(1, N + 1):
            wp = p * mp.pi / X
            row = []
            for q in range(1, N + 1):
                entry = mpf(0)
                for l, c in enumerate(spec.q0.coeffs):
                    if c:
                        entry += c * sin_sin(l, p, q)
                for l, c in enumerate(spec.q2.coeffs):
                    if c:
                        entry -= c * wp ** 2 * sin_sin(l, p, q)
                for l, c in enumerate(spec.q1.coeffs):
                    if c:
                        entry += c * wp * cos_sin(l, p, q)
                entry *= 2 / X
                if p == q:
                    entry += wp ** 4
                row.append(entry)
            rows.append(tuple(row))
        return GalerkinOracle(N=N, X=X, matrix=tuple(rows))


def _lu_factor(rows, ctx: PrecisionContext):
    """In-place Doolittle LU with partial pivoting on a list of lists."""
    n = len(rows)
    lu = [list(r) for r in rows]
    piv = list(range(n))
    with ctx.workprec():
        for k in range(n):
            pivot = max(range(k, n), key=lambda i: abs(lu[i][k]))
            if lu[pivot][k] == 0:
                raise ZeroDivisionError("singular shifted matrix; perturb the shift")
            if pivot != k:
                lu[k], lu[pivot] = lu[pivot], lu[k]
                piv[k], piv[pivot] = piv[pivot], piv[k]
            inv = 1 / lu[k][k]
            for i in range(k + 1, n):
                f = lu[i][k] * inv
                lu[i][k] = f
                if f:
                    row_i, row_k = lu[i], lu[k]
                    for jj in range(k + 1, n):
                        row_i[jj] -= f * row_k[jj]
    return lu, piv


def _lu_solve(lu, piv, b, ctx: PrecisionContext):
    n = len(lu)
    with ctx.workprec():
        y = [b[piv[i]] for i in range(n)]
        for i in range(n):
            row = lu[i]
            s = y[i]
            for jj in range(i):
                s -= row[jj] * y[jj]
            y[i] = s
        for i in range(n - 1, -1, -1):
            row = lu[i]
            s = y[i]
            for jj in range(i + 1, n):
                s -= row[jj] * y[jj]
            y[i] = s / row[i]
        return y


def _matvec(rows, v, ctx: PrecisionContext):
    with ctx.workprec():
        return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def galerkin_nearest_eigenvalue(spec: ProblemSpec, shift, N: int,
                                ctx: PrecisionContext, max_iter: int = 60) -> mpf:
    """Eigenvalue of the sine-Galerkin matrix nearest the shift.

    Shifted inverse iteration: one LU factorization of (A - shift I), then
    repeated solves; the Rayleigh quotient of the iterate is returned once it
    settles to ~1e-12 relative.  Raises OracleConvergenceError otherwise.
    """
    if N < 1 or max_iter < 2:
        raise ValueError("need N >= 1 and max_iter >= 2")
    oracle = build_galerkin(spec, N, ctx)
    with ctx.workprec():
        shift = mpf(shift)
        lu = piv = None
        for attempt in range(3):
            shifted = [tuple(oracle.matrix[i][j] - (shift if i == j else 0)
                             for j in range(N)) for i in range(N)]
            try:
                lu, piv = _lu_factor(shifted, ctx)
                break
            except ZeroDivisionError:
                # shift sits exactly on an oracle eigenvalue; nudge it
                shift *= 1 + mpf(10) ** (-ctx.digits // 2)
        else:
            raise OracleConvergenceError(
                "shifted matrix stayed singular after perturbing the shift")
        v = [mpf(1)] * N
        ritz_prev = None
        reltol = mpf(10) ** (-min(12, ctx.digits // 2))
        for _ in range(max_iter):
            y = _lu_solve(lu, piv, v, ctx)
            norm = max(abs(c) for c in y)
            v = [c / norm for c in y]
            av = _matvec(oracle.matrix, v, ctx)
            vv = sum(c * c for c in v)
            ritz = sum(a * c for a, c in zip(av, v)) / vv
            if ritz_prev is not None and abs(ritz - ritz_prev) <= reltol * abs(ritz):
                return ritz
            ritz_prev = ritz
        res = mp.sqrt(sum((a - ritz * c) ** 2 for a, c in zip(av, v)) / vv)
        raise OracleConvergenceError(
            f"inverse iteration did not settle after {max_iter} iterations; "
            f"last Rayleigh residual {mp.nstr(res, 5)}")
