"""Problem definition: interval, polynomial potentials and derived constants.

The eigenproblem solved by this package is

    u''''(x) + q2(x) u''(x) + q1(x) u'(x) + (q0(x) - lambda) u(x) = 0

on (0, X) with hinged boundary conditions u = u'' = 0 at both ends, where
q0, q1, q2 are real polynomials of degree at least one (constants are stored
zero-padded to degree one so the step-size bookkeeping r = max degree stays
uniform).

A problem can be built in code or parsed from a small key-value config file::

    # benchmark problem
    X  = 5
    q0 = [-0.02, 0, 0, 0, 0.0001]   # coefficients, lowest degree first
    q1 = [0, -0.04]
    q2 = [0, 0, -0.02]

Each key appears exactly once.  Coefficient entries are decimal strings
parsed at the full precision of the supplied context, so a config
round-trips bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .numerics import PrecisionContext


class ProblemFormatError(ValueError):
    """Malformed problem config; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


@dataclass(frozen=True)
class Polynomial:
    """Dense real polynomial; coeffs[k] multiplies x**k.

    Trailing zeros are allowed and meaningful: the stored length fixes the
    tracked degree, which feeds the step-size bookkeeping.
    """

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(mp.isfinite(c) for c in self.coeffs):
            raise ValueError("polynomial coefficients must be finite")

    @classmethod
    def from_values(cls, values: Sequence, ctx: PrecisionContext) -> "Polynomial":
        with ctx.workprec():
            return cls(tuple(mpf(v) for v in values))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_eval(p: Polynomial, x) -> mpf:
    """Horner evaluation at the current working precision."""
    acc = mpf(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(p: Polynomial, order: int = 1) -> Polynomial:
    """Exact derivative of order 1 or 2 (coefficient shift and scale)."""
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    coeffs = p.coeffs
    for _ in range(order):
        coeffs = tuple(coeffs[k] * k for k in range(1, len(coeffs))) or (mpf(0),)
    return Polynomial(coeffs)


def _poly_sub_scaled(p: Polynomial, q: Polynomial, scale) -> Polynomial:
    """scale*p - q, padded to the longer length."""
    n = max(len(p.coeffs), len(q.coeffs))
    out = []
    for k in range(n):
        a = p.coeffs[k] if k < len(p.coeffs) else mpf(0)
        b = q.coeffs[k] if k < len(q.coeffs) else mpf(0)
        out.append(scale * a - b)
    return Polynomial(tuple(out))


def _poly_divmod(a: list, b: list):
    """Quotient and remainder of exact polynomials (lowest degree first, b's
    leading coefficient nonzero); the remainder has no trailing zeros."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        c = q[shift] = a[shift + len(b) - 1] / b[-1]
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
    a = a[:len(b) - 1]
    while a and not a[-1]:
        a.pop()
    return q, a


def _critical_points(p: Polynomial) -> list:
    """The distinct roots of p', each once, from ``mp.polyroots``.

    p' is formed exactly (the coefficients are binary fractions), and its
    square-free part p' / gcd(p', p'') by Euclid over the rationals, so a
    repeated root cannot stall the Durand-Kerner iteration.  Complex roots
    are returned too.
    """
    d = [k * Fraction(*to_rational(mpf(c)._mpf_)) for k, c in enumerate(p.coeffs)][1:]
    while d and not d[-1]:
        d.pop()
    if len(d) < 2:
        return []
    g, r = d, [k * c for k, c in enumerate(d)][1:]
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    squarefree = _poly_divmod(d, g)[0]
    # A cluster of roots 2^-k across, such as the split triple root of a
    # decimal (x - 0.3)^4, needs about k extra bits and steps to settle.
    return mp.polyroots([mp.fdiv(c.numerator, c.denominator) for c in reversed(squarefree)],
                        maxsteps=mp.prec, extraprec=mp.prec)


def sup_norm(p: Polynomial, X, ctx: PrecisionContext) -> mpf:
    """max of |p| over [0, X], to working precision.

    |p| is evaluated at 0, at X and at the real part of every critical point
    (root of p') whose real part lies in [0, X].  Taking the real part of
    every root, not only of those with a zero imaginary part, keeps a real
    root whose imaginary part came out as rounding noise; the extra points
    lie in [0, X], so they cannot raise the maximum.
    """
    with ctx.workprec():
        X = mpf(X)
        if X <= 0:
            raise ValueError("interval length must be positive")
        points = [mpf(0), X] + [x for x in map(mp.re, _critical_points(p)) if 0 <= x <= X]
        return max(abs(poly_eval(p, x)) for x in points)


@dataclass(frozen=True)
class StepBudget:
    """Sizes of the coefficient arrays: step j contributes M(j) = j*(r+1) powers."""

    r: int

    def M(self, j: int) -> int:
        return j * (self.r + 1)


@dataclass(frozen=True)
class ProblemSpec:
    """Interval length X and the three polynomial potentials."""

    X: mpf
    q0: Polynomial
    q1: Polynomial
    q2: Polynomial

    def __post_init__(self):
        if not 0 < self.X < mp.inf:
            raise ValueError("interval length X must be positive and finite")
        for name in ("q0", "q1", "q2"):
            if getattr(self, name).degree < 1:
                raise ValueError(f"{name} must be stored with degree >= 1 "
                                 "(pad constants with an explicit zero)")

    @classmethod
    def make(cls, X, q0: Sequence, q1: Sequence, q2: Sequence,
             ctx: PrecisionContext) -> "ProblemSpec":
        """Build a spec from raw coefficient lists, zero-padding to degree 1."""
        def poly(values):
            vals = list(values) if len(values) else [0]
            while len(vals) < 2:
                vals.append(0)
            return Polynomial.from_values(vals, ctx)

        return cls(X=ctx.mpf(X), q0=poly(q0), q1=poly(q1), q2=poly(q2))

    @property
    def budget(self) -> StepBudget:
        return StepBudget(r=max(self.q0.degree, self.q1.degree, self.q2.degree))


@lru_cache(maxsize=128)
def omega(spec: ProblemSpec, ctx: PrecisionContext) -> mpf:
    """Potential-size constant feeding the convergence diagnostics.

    omega = max( sup|2*q2' - q1| , sup|q2'' - q1' + q0| ) over [0, X].
    With zero potentials this is zero, and it vanishes exactly when every
    correction past the base eigenpair vanishes.  Cached per (spec, ctx),
    both frozen: the critical points of a clustered potential can take
    ``mp.polyroots`` most of a second.
    """
    with ctx.workprec():
        d1 = _poly_sub_scaled(poly_derivative(spec.q2, 1), spec.q1, mpf(2))
        q2pp = poly_derivative(spec.q2, 2)
        q1p = poly_derivative(spec.q1, 1)
        d2 = _poly_sub_scaled(q2pp, _poly_sub_scaled(q1p, spec.q0, mpf(1)), mpf(1))
        return max(sup_norm(d1, spec.X, ctx), sup_norm(d2, spec.X, ctx))


def _finite(text: str, what: str, lineno: int, ctx: PrecisionContext) -> mpf:
    """A finite number parsed at full precision, else a ProblemFormatError."""
    try:
        value = ctx.mpf(text)
    except ValueError:
        value = mp.nan
    if not mp.isfinite(value):
        raise ProblemFormatError(f"bad number {text!r} for {what}; "
                                 "expected a finite decimal", lineno)
    return value


def parse_problem(text: str, ctx: PrecisionContext) -> ProblemSpec:
    """Parse the key-value config format documented in the module docstring.

    Every error is a ProblemFormatError; a repeated key names the line of
    the repeat, and one that ProblemSpec raises (a non-positive X) names the
    X line.
    """
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFormatError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        name = "X" if key == "x" else key
        if name in fields:
            raise ProblemFormatError(f"repeated key {name!r}", lineno)
        if name == "X":
            fields["X"] = _finite(value, "X", lineno, ctx)
            x_line = lineno
        elif key in ("q0", "q1", "q2"):
            if not (value.startswith("[") and value.endswith("]")):
                raise ProblemFormatError(f"{key} must be a [..] coefficient list", lineno)
            body = value[1:-1].strip()
            items = [s.strip() for s in body.split(",")] if body else []
            fields[key] = [_finite(s, f"a {key} coefficient", lineno, ctx) for s in items]
        else:
            raise ProblemFormatError(f"unknown key {key!r}", lineno)
    for required in ("X", "q0", "q1", "q2"):
        if required not in fields:
            raise ProblemFormatError(f"missing key {required!r}")
    try:
        return ProblemSpec.make(fields["X"], fields["q0"], fields["q1"], fields["q2"], ctx)
    except ValueError as exc:
        raise ProblemFormatError(str(exc), x_line) from None


def load_problem(path, ctx: PrecisionContext) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), ctx)
