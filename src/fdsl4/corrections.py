"""Eigenfunction corrections in the mixed trigonometric/hyperbolic basis.

Every correction u_n^(j) produced by the method lives in the span of

    x^p sin(w x),  x^p cos(w x),  x^p sinh(w x),  x^p cosh(w x),   w = pi*n/X,

with the polynomial degree growing by r+1 per step: the trig part of step j
carries powers 0..M(j) and the hyperbolic part powers 0..M(j-1), where
M(j) = j*(r+1).  A :class:`CorrectionTerm` is the tuple of its four
coefficient arrays (a multiplies sin, b cos, c sinh, d cosh); a and b share a
length, c and d share one that is at most it.  A term's derivatives, a
right-hand side F and a residual are the same (sin, cos, sinh, cosh) tuple,
and n and X, which fix w for all of them, belong to the :class:`FDSolution`.

Differentiation maps this family to itself by an exact coefficient
transformation, so derivatives up to the fourth order (needed for residual
norms) never touch finite differences; a term's orders 0..4 are cached as
one tuple.  Every linear functional of a series (a moment projection, a
point value) is one exactly rounded dot product of its four arrays with the
functional's four columns, :func:`series_dot`, and every polynomial
combination of series (a right-hand side, a residual) is one such dot
product per coefficient, :func:`combine_series`, both one call of the
kernel :func:`fdsl4.numerics._dot`.

The base eigenpair of the hinged problem with zero potentials is
sqrt(2/X) sin(n pi x / X) with eigenvalue (n pi / X)^4; it seeds the
recursion as step 0.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_mul_int, mpf_sub, round_nearest

from .numerics import GUARD_DIGITS, PrecisionContext, _dot, check_index, check_interval
from .problem import ProblemSpec


class CorrectionTerm(namedtuple("CorrectionTerm", "a b c d")):
    """One correction u_n^(j): the tuple of its (sin, cos, sinh, cosh) arrays."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        la, lc = len(a), len(c)
        if not (la == len(b) >= 1 and lc == len(d) and lc <= la):
            raise ValueError(
                f"term arrays need len(a) == len(b) >= 1, len(c) == len(d) <= len(a); "
                f"got {la}, {len(b)}, {lc}, {len(d)}")
        return super().__new__(cls, a, b, c, d)

    @classmethod
    def _make(cls, iterable):
        """A term through ``__new__`` and its check; ``_replace`` builds through this."""
        return cls(*iterable)


def base_pair(spec: ProblemSpec, n: int, ctx: PrecisionContext):
    """Base eigenpair (step-0 term, eigenvalue) for index n >= 1."""
    n = check_index(n, 1, "eigenpair index must be >= 1")
    with ctx.workprec():
        amp = mp.sqrt(2 / spec.X)
        lam0 = (n * mp.pi) ** 4 / spec.X ** 4
        return CorrectionTerm((amp,), (mpf(0),), (), ()), lam0


def _differentiate(arrays, w, top: int) -> tuple:
    """Coefficient arrays of the derivatives of orders 0..top; entry 0 is ``arrays``.

    One differentiation sends (a, b, c, d) to
        a'[p] = (p+1) a[p+1] - w b[p],     b'[p] = (p+1) b[p+1] + w a[p],
        c'[p] = (p+1) c[p+1] + w d[p],     d'[p] = (p+1) d[p+1] + w c[p],
    keeping the array lengths fixed.  Three roundings per entry, at the
    caller's precision: (p+1) a[p+1], w b[p] and their sum; an entry whose
    two inputs are exactly zero is an exact zero, without them.  The walk
    runs on raw values (``v._mpf_``): each entry is read and made an mpf once.
    """
    prec, rnd, make, w = mp.prec, round_nearest, mp.make_mpf, w._mpf_

    def family(arr, partner, add):
        return [fzero if v == u == fzero else
                add(mpf_mul_int(v, p, prec, rnd), mpf_mul(w, u, prec, rnd), prec, rnd)
                for p, (v, u) in enumerate(zip(arr[1:] + [fzero], partner), 1)]

    raw, orders = [[v._mpf_ for v in arr] for arr in arrays], [arrays]
    for _ in range(top):
        a, b, c, d = raw
        raw = [family(a, b, mpf_sub), family(b, a, mpf_add),
               family(c, d, mpf_add), family(d, c, mpf_add)]
        orders.append(tuple(tuple(map(make, arr)) for arr in raw))
    return tuple(orders)


# Measured re-readers: one solution's point values (m + 1 terms) and the
# benchmark's repeated certify passes, whose equal terms share entries; a
# sweep never re-reads one.  128 entries of about 0.2 MiB (rank 20) bound memory.
@lru_cache(maxsize=128)
def _derivative_arrays(term: CorrectionTerm, n: int, X, dps: int):
    """Coefficient arrays of the term and of its derivatives of orders 1..4,
    indexed by order, at dps digits, in the basis of n and X."""
    with mp.workdps(dps):
        return _differentiate(term, mp.pi * n / X, 4)


def series_dot(arrays, columns) -> mpf:
    """Pair a (sin, cos, sinh, cosh) series with the four columns of a linear
    functional: the sum over families and powers p of arrays[f][p] * columns[f][p].

    One exactly rounded dot product at the caller's precision; every entry
    is an mpf.  The columns are indexed explicitly, so a column shorter than
    its array raises ``IndexError``.
    """
    return _dot((v._mpf_, column[p]._mpf_) for arr, column in zip(arrays, columns)
                for p, v in enumerate(arr))


def combine_series(sizes, summands) -> tuple:
    """Arrays of the sum of coeff * x^shift * series over ``summands``.

    ``summands`` holds (coeff, shift, arrays) triples of mpf, the arrays ordered
    (sin, cos, sinh, cosh) like a term's; ``sizes`` gives the four result
    lengths.  Each coefficient is one exactly rounded dot product of the
    pairs that land on it, taken in summand order, at the caller's precision;
    pairs with an exactly zero entry add nothing to it and are left out.
    """
    rows = tuple([[] for _ in range(size)] for size in sizes)
    for coeff, shift, arrays in summands:
        coeff = coeff._mpf_
        for family, arr in zip(rows, arrays):
            for p, v in enumerate(arr):
                if v._mpf_ != fzero:
                    family[p + shift].append((coeff, v._mpf_))
    return tuple(tuple(map(_dot, family)) for family in rows)


def basis_values(n: int, X, x, top: int, ctx: PrecisionContext):
    """Point-evaluation columns x^p (sin, cos, sinh, cosh)(w x), p = 0..top.

    :func:`series_dot` of a series with these columns is its value at x.
    Built once per point, they serve every term and derivative order.
    """
    with ctx.workprec():
        wx = mp.pi * n / X * x
        cos_wx, sin_wx = mp.cos_sin(wx)
        sinh_wx, cosh_wx = mp.sinh(wx), mp.cosh(wx)
        powers = [mpf(1)]
        for _ in range(top):
            powers.append(powers[-1] * x)
        return tuple(tuple(v * xp for xp in powers)
                     for v in (sin_wx, cos_wx, sinh_wx, cosh_wx))


def _eval_terms(terms, n: int, X, x, deriv: int, ctx: PrecisionContext) -> mpf:
    """Sum at x of the deriv-th derivatives of terms in the basis of n and X."""
    if check_index(deriv, 0, "derivative order must be in 0..4") > 4:
        raise ValueError(f"derivative order must be in 0..4, got {deriv}")
    with ctx.workprec():
        x = mpf(x)
        if not 0 <= x <= X:
            raise ValueError(f"x={x} outside [0, {X}]")
        columns = basis_values(n, X, x, max(len(t.a) for t in terms) - 1, ctx)
        return mp.fsum(series_dot(_derivative_arrays(t, n, X, mp.dps)[deriv], columns)
                       for t in terms)


@dataclass(frozen=True)
class FDSolution:
    """Rank-m approximation to one eigenpair; its n and X fix every term's basis."""

    n: int
    m: int
    X: mpf
    lambda0: mpf
    lambda_corrections: tuple  # lambda^(1) .. lambda^(m)
    terms: tuple               # CorrectionTerm for steps 0 .. m
    lambda_approx: mpf


def assemble(n: int, X, terms, lambda_values, ctx: PrecisionContext) -> FDSolution:
    """The solution of a correction history in the basis of n and X, and its
    eigenvalue sum.

    ``terms`` holds steps 0..m and ``lambda_values`` the base eigenvalue
    then lambda^(1..m), so the rank m is ``len(terms) - 1``.
    """
    n = check_index(n, 1, "eigenpair index must be >= 1")
    X = check_interval(X)
    terms, lambda_values = tuple(terms), tuple(lambda_values)
    if not terms or len(terms) != len(lambda_values):
        raise ValueError(f"need as many terms as eigenvalue entries, at least one; "
                         f"got {len(terms)} and {len(lambda_values)}")
    return FDSolution(n=n, m=len(terms) - 1, X=X,
                      lambda0=lambda_values[0],
                      lambda_corrections=lambda_values[1:],
                      terms=terms,
                      lambda_approx=lambda_partials(lambda_values, ctx)[-1])


def lambda_partials(lambda_values, ctx: PrecisionContext) -> list:
    """Rank-k eigenvalues lambda0 + ... + lambda^(k) from [lambda0, lambda^(1), ...]."""
    with ctx.workprec():
        return list(accumulate(lambda_values))


def eval_solution(sol: FDSolution, x, deriv: int = 0, *, ctx: PrecisionContext) -> mpf:
    """Value of the rank-m eigenfunction approximation (or a derivative)."""
    return _eval_terms(sol.terms, sol.n, sol.X, x, deriv, ctx)


# --- serialization -----------------------------------------------------------
#
# Decimal-string payload: every real is written with enough digits to
# round-trip the underlying binary value at the context precision.

def real_to_str(v, ctx: PrecisionContext) -> str:
    # guard + 5 digits so the working-precision binary value round-trips
    with ctx.workprec():
        return mp.nstr(mpf(v), ctx.digits + GUARD_DIGITS + 5, strip_zeros=True)


def _term_payload(term: CorrectionTerm, ctx: PrecisionContext) -> dict:
    return {f: [real_to_str(v, ctx) for v in arr] for f, arr in term._asdict().items()}


def solution_to_payload(sol: FDSolution, ctx: PrecisionContext) -> dict:
    """JSON-ready dict with all reals as decimal strings."""
    return {
        "format": "fdsl4-solution",
        "digits": ctx.digits,
        "n": sol.n,
        "m": sol.m,
        "X": real_to_str(sol.X, ctx),
        "lambda0": real_to_str(sol.lambda0, ctx),
        "lambda_corrections": [real_to_str(v, ctx) for v in sol.lambda_corrections],
        "lambda_approx": real_to_str(sol.lambda_approx, ctx),
        "terms": [_term_payload(t, ctx) for t in sol.terms],
    }


def _fields(obj, kinds: dict, what: str) -> None:
    """ValueError unless ``obj`` is a dict holding each field of ``kinds`` as a
    value of that JSON kind (a bool is no number); the message names the
    first field missing or of another kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not a {type(obj).__name__}")
    for name, kind in kinds.items():
        if name not in obj:
            raise ValueError(f"{what} has no field {name}")
        v, types = obj[name], {"number": (int, float), "string": str}.get(kind, list)
        if (isinstance(v, bool) or not isinstance(v, types)
                or kind == "list of strings" and not all(isinstance(s, str) for s in v)):
            raise ValueError(f"{what} field {name} must be a JSON {kind}, got {v!r:.40}")


def solution_from_payload(payload: dict) -> FDSolution:
    """The solution a payload records, through :func:`assemble`, which forms
    the eigenvalue sum again.  Refused: anything but an object with every
    field, each of its JSON kind (a solve of several indices writes a list
    of them), n, m or X out of range, term or correction counts other than
    the rank, and a lambda_approx other than that sum.  A term's "j",
    written by older versions, is not read."""
    _fields(payload, dict(format="string", digits="number", n="number", m="number", X="string",
                          lambda0="string", lambda_corrections="list of strings",
                          lambda_approx="string", terms="list"), "a solution payload")
    if payload["format"] != "fdsl4-solution":
        raise ValueError(f"not an fdsl4-solution payload: format {payload['format']!r}")
    m = check_index(payload["m"], 0, "rank must be >= 0")
    ranks = (len(payload["terms"]) - 1, len(payload["lambda_corrections"]))
    if ranks != (m, m):
        raise ValueError(f"rank {m} payload holds {ranks[0] + 1} terms and {ranks[1]} corrections")
    for j, tp in enumerate(payload["terms"]):
        _fields(tp, dict.fromkeys("abcd", "list of strings"), f"payload term {j}")
    ctx = PrecisionContext(digits=payload["digits"])
    with ctx.workprec():
        terms = [CorrectionTerm(*(tuple(map(mpf, tp[f])) for f in "abcd"))
                 for tp in payload["terms"]]
        lambdas = [mpf(s) for s in [payload["lambda0"], *payload["lambda_corrections"]]]
        sol = assemble(payload["n"], mpf(payload["X"]), terms, lambdas, ctx)
        if mpf(payload["lambda_approx"]) != sol.lambda_approx:
            raise ValueError(f"payload lambda_approx {payload['lambda_approx']} is not its sum")
    return sol
