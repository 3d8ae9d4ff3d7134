"""A-priori convergence diagnostics for the correction series.

The correction norms obey a convolution-type majorant recurrence whose
solution is the Catalan sequence, so the series converges once the
contraction constant M_n satisfies r_n = 4 M_n < 1.  The constant scales the
potential-size number omega by interval and index factors; it shrinks like
1/n, which is why high eigenpairs converge fastest.  The sufficient condition
is rough: benchmark runs converge well below the certified threshold, so a
failed check is reported as "condition not met", never as divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .numerics import PrecisionContext, check_index
from .problem import ProblemSpec, omega


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostics for one eigenpair index."""

    n: int
    X: mpf
    omega: mpf
    M_n: mpf
    r_n: mpf
    converges: bool  # sufficient condition r_n < 1
    ctx: PrecisionContext

    def lambda_bound(self, m: int):
        """A-priori bound on |lambda_n - rank-m eigenvalue|, or None.

        None when the sufficient condition fails or m < 1 (the bound's
        denominator degenerates at m = 0).
        """
        if check_index(m, 0, "rank must be >= 0") < 1 or not self.converges:
            return None
        with self.ctx.workprec():
            w = mp.pi * self.n / self.X
            front = self.omega * mp.sqrt(2 / self.X) * (w ** 2 + w + 1)
            return front * self.r_n ** m / ((1 - self.r_n) * (m + 1) * mp.sqrt(mp.pi * m))

    def u_bound(self, m: int):
        """A-priori bound on the L2 eigenfunction error, or None."""
        if check_index(m, 0, "rank must be >= 0") < 1 or not self.converges:
            return None
        with self.ctx.workprec():
            return self.r_n ** (m + 1) / ((m + 2) * mp.sqrt(mp.pi * (m + 1)))


def convergence_report(spec: ProblemSpec, n: int, ctx: PrecisionContext) -> ConvergenceReport:
    """Diagnostics for eigenpair index n, with the contraction constant

        M_n = (X^2/pi^2) * omega/(2n^2-2n+1) * [n + X/pi + X^2/(n pi^2)] * max(1, 2/X).
    """
    n = check_index(n, 1, "eigenpair index must be >= 1")
    with ctx.workprec():
        X = spec.X
        om = omega(spec, ctx)
        bracket = n + X / mp.pi + X ** 2 / (n * mp.pi ** 2)
        Mn = (X ** 2 / mp.pi ** 2) * om / (2 * n * n - 2 * n + 1) * bracket \
            * max(mpf(1), 2 / X)
        rn = 4 * Mn
        return ConvergenceReport(n=n, X=spec.X, omega=om, M_n=Mn, r_n=rn,
                                 converges=bool(rn < 1), ctx=ctx)
