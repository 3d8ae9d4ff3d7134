"""Arbitrary-precision arithmetic context shared by every other module.

All real numbers in this library are mpmath ``mpf`` values produced under an
explicit :class:`PrecisionContext`.  A context fixes the decimal working
precision of a run (default 300 digits).  Operations that do real work accept
a context and evaluate inside ``ctx.workprec()``, which sets the global mpmath
precision (plus a small guard) and restores it on exit.

Because results are big floats rather than exact expressions, printed digits
are certified by replay: ``fdsl4 solve --certify`` solves again at half the
precision and counts, with :func:`matching_digits`, the leading digits on
which the two runs agree.

Every exactly rounded sum of products in the library is one call of the
kernel :func:`_dot` on pairs of raw mpmath values (``v._mpf_``): exact
products, summed exactly and rounded once, to nearest, at ``mp.prec``.
These are ``mp.fdot``'s bits for mpf pairs, from ``mpf_sum``'s integer steps
with each product formed inside the sum, and no per-pair dispatch.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from mpmath import mp, mpf, workdps
from mpmath.libmp import bitcount, from_man_exp, mpf_mul, mpf_sum, round_nearest

# Extra decimal digits carried internally so that results are good to the
# context's nominal precision after accumulated rounding.
GUARD_DIGITS = 10


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal working precision for one run.  Immutable and shareable."""

    digits: int = 300

    def __post_init__(self) -> None:
        check_index(self.digits, 30, "working precision must be at least 30 digits")

    def workprec(self):
        """Context manager setting mpmath precision to digits + guard."""
        return workdps(self.digits + GUARD_DIGITS)

    def mpf(self, value) -> mpf:
        """Parse a number (preferably a decimal string) at full precision."""
        with self.workprec():
            return mpf(value)

    @property
    def eps(self) -> mpf:
        """10**(-digits), the nominal resolution of this context."""
        with self.workprec():
            return mpf(10) ** (-self.digits)


def check_index(value, low: int, message: str) -> int:
    """``value`` as an int: TypeError unless it is an integer
    (``operator.index``), ValueError(message) if it is below ``low``."""
    index = operator.index(value)
    if index < low:
        raise ValueError(f"{message}, got {index}")
    return index


def check_interval(X):
    """``X`` itself, or ValueError unless 0 < X < inf (nan is refused)."""
    if not 0 < X < mp.inf:
        raise ValueError("interval length X must be positive and finite")
    return X


def _dot(pairs) -> mpf:
    """The exact-sum kernel: sum of x * y over raw-value pairs, rounded once.

    The bits of ``mpf_sum`` over the exact products ``mpf_mul(x, y)``: its
    integer steps replayed in pair order, each product formed in the loop; its
    rule dropping a term 2 mp.prec bits below the sum, or the sum below it,
    reads exact product bit counts.  An inf or nan entry falls back to it.
    """
    prec, man, exp, pairs = mp.prec, 0, 0, list(pairs)
    for (xsign, xman, xexp, xbc), (ysign, yman, yexp, ybc) in pairs:
        pman, pexp = xman * yman, xexp + yexp
        if not pman:
            if xexp and not xman or yexp and not yman:
                return mp.make_mpf(mpf_sum([mpf_mul(x, y) for x, y in pairs], prec, round_nearest))
            continue
        delta, term, bc = pexp - exp, -pman if xsign ^ ysign else pman, xbc + ybc - 1
        if delta >= 0 and (delta <= 2 * prec or man and delta - bitcount(abs(man)) <= 2 * prec):
            man += term << delta
        elif delta < 0 and (delta >= -2 * prec or -delta - bc - (pman >> bc) <= 2 * prec):
            man, exp = (man << -delta) + term, pexp
        elif delta >= 0 or not man:
            man, exp = term, pexp
    return mp.make_mpf(from_man_exp(man, exp, prec, round_nearest))


def matching_digits(value, reference, ctx: PrecisionContext) -> int:
    """Leading significant digits on which value agrees with the reference,
    at most ctx.digits: no comparison certifies more than the context carries."""
    with ctx.workprec():
        v = mpf(value)
        ref = mpf(reference)
        if v == ref:
            return ctx.digits
        if ref == 0:
            return 0
        return min(ctx.digits, max(0, int(mp.floor(-mp.log10(abs(v - ref) / abs(ref))))))
