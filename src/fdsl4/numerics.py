"""Arbitrary-precision arithmetic context shared by every other module.

All real numbers in this library are mpmath ``mpf`` values produced under an
explicit :class:`PrecisionContext`.  A context fixes the decimal working
precision of a run (default 300 digits).  Operations that do real work accept
a context and evaluate inside ``ctx.workprec()``, which sets the global mpmath
precision (plus a small guard) and restores it on exit.

Because results are big floats rather than exact expressions, printed digits
are certified by :func:`stability_probe`: replay the same computation at two
precisions and count the leading digits on which the runs agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from mpmath import mp, mpf, workdps

# Extra decimal digits carried internally so that results are good to the
# context's nominal precision after accumulated rounding.
GUARD_DIGITS = 10


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal working precision for one run.  Immutable and shareable."""

    digits: int = 300

    def __post_init__(self) -> None:
        if self.digits < 30:
            raise ValueError(f"working precision must be at least 30 digits, got {self.digits}")

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


def matching_digits(value, reference, ctx: PrecisionContext) -> int:
    """Leading significant digits on which value agrees with the reference."""
    with ctx.workprec():
        v = mpf(value)
        ref = mpf(reference)
        if v == ref:
            return ctx.digits
        if ref == 0:
            return 0
        return max(0, int(mp.floor(-mp.log10(abs(v - ref) / abs(ref)))))


def stability_probe(computation: Callable[[PrecisionContext], mpf],
                    ctx_hi: PrecisionContext,
                    ctx_lo: PrecisionContext) -> int:
    """Number of leading significant digits on which two replays agree.

    ``computation`` must be a deterministic function of its context.  The
    returned count is clamped to ctx_lo.digits: a replay can never certify
    more digits than the lower precision carried.  Zero means the runs
    disagree in the leading digit (or one run collapsed to zero).
    """
    if ctx_hi.digits <= ctx_lo.digits:
        raise ValueError("ctx_hi must carry more digits than ctx_lo")
    hi = computation(ctx_hi)
    lo = computation(ctx_lo)
    return min(matching_digits(lo, hi, ctx_hi), ctx_lo.digits)
