"""Problem definition: interval, polynomial potentials and derived constants.

The eigenproblem solved by this package is

    u''''(x) + q2(x) u''(x) + q1(x) u'(x) + (q0(x) - lambda) u(x) = 0

on (0, X) with hinged boundary conditions u = u'' = 0 at both ends, where
q0, q1, q2 are real polynomials, each stored as a tuple of at least two mpf
coefficients, lowest degree first (constants are zero-padded to degree one).
The stored length fixes the tracked degree, trailing zeros included: the
largest, r, sets the M(j) = j (r + 1) powers that step j contributes.

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
from itertools import zip_longest
from typing import Sequence

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .numerics import PrecisionContext, check_interval


class ProblemFormatError(ValueError):
    """Malformed problem config; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


def _rational(c) -> Fraction:
    """c exactly, at any working precision: a binary mpf is a ratio of integers."""
    return Fraction(*to_rational(c._mpf_)) if isinstance(c, mpf) else Fraction(c)


def _derivative(p: list) -> list:
    """Coefficients of p', exact for exact coefficients."""
    return [k * c for k, c in enumerate(p)][1:]


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


def _critical_points(p: list) -> list:
    """The distinct roots of p', each once, from ``mp.polyroots``.

    p holds exact rationals, so p' and its square-free part p' / gcd(p', p'')
    (Euclid over the rationals) are exact, and a repeated root cannot stall
    the Durand-Kerner iteration.  Complex roots are returned too.
    """
    d = _derivative(p)
    while d and not d[-1]:
        d.pop()
    if len(d) < 2:
        return []
    g, r = d, _derivative(d)
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    squarefree = _poly_divmod(d, g)[0]
    # A cluster of roots 2^-k across, such as the split triple root of a
    # decimal (x - 0.3)^4, needs about k extra bits and steps to settle.
    return mp.polyroots([mp.fdiv(c.numerator, c.denominator) for c in reversed(squarefree)],
                        maxsteps=mp.prec, extraprec=mp.prec)


def sup_norm(p: Sequence, X, ctx: PrecisionContext) -> mpf:
    """max of |p| over [0, X], to working precision; p's coefficients are
    mpf values or exact rationals, lowest degree first.

    |p| is evaluated at 0, at X and at the real part of every critical point
    (root of p') whose real part lies in [0, X].  Taking the real part of
    every root, not only of those with a zero imaginary part, keeps a real
    root whose imaginary part came out as rounding noise; the extra points
    lie in [0, X], so they cannot raise the maximum.
    """
    with ctx.workprec():
        X = mpf(X)
        p = [_rational(c) for c in p]
        values = [mp.fdiv(c.numerator, c.denominator) for c in p]
        points = [mpf(0), X] + [x for x in map(mp.re, _critical_points(p)) if 0 <= x <= X]
        return max(abs(mp.polyval(values[::-1], x)) for x in points)


@dataclass(frozen=True)
class ProblemSpec:
    """Interval length X and the three potentials as tuples of mpf
    coefficients, lowest degree first, each of length at least two; any
    other sequence is stored as a tuple."""

    X: mpf
    q0: tuple
    q1: tuple
    q2: tuple

    def __post_init__(self):
        check_interval(self.X)
        for name in ("q0", "q1", "q2"):
            q = tuple(getattr(self, name))
            object.__setattr__(self, name, q)   # a list would not hash for omega's cache
            if not all(mp.isfinite(c) for c in q):
                raise ValueError(f"{name} coefficients must be finite")
            if len(q) < 2:
                raise ValueError(f"{name} must be stored with degree >= 1 "
                                 "(pad constants with an explicit zero)")

    @classmethod
    def make(cls, X, q0: Sequence, q1: Sequence, q2: Sequence,
             ctx: PrecisionContext) -> "ProblemSpec":
        """Build a spec from raw coefficient lists, zero-padding to degree 1."""
        def coeffs(values):
            with ctx.workprec():
                return tuple(mpf(v) for v in values) + (mpf(0),) * (2 - len(values))

        return cls(X=ctx.mpf(X), q0=coeffs(q0), q1=coeffs(q1), q2=coeffs(q2))

    @property
    def r(self) -> int:
        """The largest stored degree; trailing zeros count."""
        return max(len(self.q0), len(self.q1), len(self.q2)) - 1

    def M(self, j: int) -> int:
        """Powers that step j contributes to the coefficient arrays."""
        return j * (self.r + 1)


@lru_cache(maxsize=128)
def omega(spec: ProblemSpec, ctx: PrecisionContext) -> mpf:
    """Potential-size constant feeding the convergence diagnostics.

    omega = max( sup|2*q2' - q1| , sup|q2'' - q1' + q0| ) over [0, X], with
    both polynomials formed exactly from the binary coefficients.  With zero
    potentials this is zero, and it vanishes exactly when every correction
    past the base eigenpair vanishes.  Cached per (spec, ctx), both frozen:
    the critical points of a clustered potential can take ``mp.polyroots``
    most of a second.
    """
    q0, q1, q2 = ([_rational(c) for c in q] for q in (spec.q0, spec.q1, spec.q2))
    d1 = [2 * a - b for a, b in zip_longest(_derivative(q2), q1, fillvalue=0)]
    d2 = [a - b + c for a, b, c in
          zip_longest(_derivative(_derivative(q2)), _derivative(q1), q0, fillvalue=0)]
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
