"""Workloads of the fdsl4 benchmark: seeded inputs, timed ops and their gates.

An op is one eigenpair request, made through the public API of ``fdsl4`` only.
Every call goes through a module attribute (``fdsl4.solve``, not a name bound
at import), so that the tracer in ``stagetrace.py`` sees it once it has rebound
that attribute.

Each op has a correctness gate, run outside the timed region. A gate returns
``(ok, digits)``: whether the result passed, and the leading digits on which
it agrees with its reference.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import fdsl4
from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

NAMES = ("deep-rank", "many-small", "certify")


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload. ``FULL`` is the benchmark; ``TINY`` the self-test."""

    digits: int = 300
    deep_n: tuple = tuple(range(1, 9))
    deep_m: int = 20
    many_count: int = 128
    many_m: tuple = tuple(range(2, 9))
    many_n: tuple = tuple(range(1, 51))
    certify_sweeps: tuple = ((1, 10), (50, 4))   # (n, m) of solve + residual_sweep
    certify_oracle: tuple = (1, 10)              # (n, m) of solve + oracle
    oracle_N: int = 200
    oracle_digits: int = 50


FULL = Scale()
TINY = Scale(digits=40, deep_n=(1, 2), deep_m=2, many_count=6, many_m=(1, 2),
             many_n=(1, 2, 3), certify_sweeps=((1, 2), (3, 2)),
             certify_oracle=(1, 2), oracle_N=12, oracle_digits=30)

DEEP_ROUNDS = 2            # solves of each deep-rank index per pass

# Gate thresholds fixed by the acceptance criteria of the package.
FIXTURE_FACTOR = 2         # residuals and benchmark-1 errors within x2 of print
RANK10_MIN_DIGITS = 45     # benchmark-2 rank-10 eigenvalues
ORACLE_MIN_DIGITS = 8      # Galerkin oracle against the FD eigenvalue


@dataclass(frozen=True)
class Op:
    """One eigenpair request: ``run`` is timed, ``gate`` checks its result.

    ``key`` is the (spec, n, m) of the op's solve, replayed to check that a
    traced run returns bit-identical eigenvalues.
    """

    label: str
    run: Callable[[], Any]
    gate: Callable[[Any], tuple]
    key: tuple


@dataclass
class Workload:
    name: str
    seed: int
    ctx: Any
    inputs: list            # plain-data description of the generated inputs
    ops: list = field(default_factory=list)

    @property
    def checksum(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def agreement_digits(value, reference, ctx) -> int:
    """Leading significant digits on which value agrees with reference."""
    with ctx.workprec():
        value, reference = mpf(value), mpf(reference)
        if value == reference:
            return ctx.digits
        rel = abs(value - reference) / abs(reference)
        return max(0, min(ctx.digits, int(mp.floor(-mp.log10(rel)))))


def _within_factor(got, printed) -> bool:
    ratio = got / mpf(printed)
    return 1 / FIXTURE_FACTOR <= ratio <= FIXTURE_FACTOR


# --- deep-rank ----------------------------------------------------------------

def _deep_rank(seed: int, scale: Scale, ctx) -> Workload:
    # The problem is fixed; the seed only fixes the order of the indices.
    # Each index is solved twice, so a pass has enough ops for a steady p90.
    spec = fdsl4.load_problem(PROBLEMS / "benchmark1.cfg", ctx)
    fx = fdsl4.load_fixtures()
    order = list(scale.deep_n) * DEEP_ROUNDS
    random.Random(seed).shuffle(order)
    m = scale.deep_m
    wl = Workload("deep-rank", seed, ctx,
                  inputs=[["benchmark1.cfg", n, m] for n in order])

    def gate(n, sol):
        with ctx.workprec():
            exact = mpf(fx.b1_exact[n])
            err = abs(sol.lambda_approx - exact)
            if (n, m) in fx.b1_fd_error:
                ok = _within_factor(err, fx.b1_fd_error[(n, m)])
            else:  # no printed error at this rank: the series must still help
                ok = err < abs(sol.lambda0 - exact)
        return ok, agreement_digits(sol.lambda_approx, exact, ctx)

    for n in order:
        wl.ops.append(Op(f"solve n={n} m={m}",
                         run=lambda n=n: fdsl4.solve(spec, n, m, ctx),
                         gate=lambda sol, n=n: gate(n, sol),
                         key=(spec, n, m)))
    return wl


# --- many-small -----------------------------------------------------------------

X_CHOICES = ("0.5", "1", "1.5", "2", "2.5", "3")
DEGREES = (1, 2, 3, 4)


def _balanced(values, count: int, rng: random.Random) -> list:
    """``count`` draws, in random order, with a share of each value fixed
    whatever the seed: every value the same number of times, plus one more
    for a spread-out subset of them when ``count`` is not a multiple."""
    values = list(values)
    whole, extra = divmod(count, len(values))
    draws = values * whole + [values[i * len(values) // extra] for i in range(extra)]
    rng.shuffle(draws)
    return draws


def random_problems(seed: int, scale: Scale) -> list:
    """The many-small inputs: [X, q0, q1, q2, n, m] with decimal strings.

    Same recipe as ``tests/conftest.make_random_problems`` -- X from
    {0.5, ..., 3}, each potential of degree 1-4 with coefficients uniform in
    [-0.5, 0.5] to six decimals -- plus an index n and a rank m. The discrete
    factors are drawn stratified: every X, degree triple, n and m appears an
    equal share of times, and every rank an equal share of times within each
    maximum degree, which with m sets the size of a solve. The seed shuffles
    how the factors pair up and draws the coefficients. That keeps the work in
    a list, and so the run-to-run spread, steady from seed to seed.
    """
    rng = random.Random(seed)
    count = scale.many_count
    triples = _balanced([(a, b, c) for a in DEGREES for b in DEGREES for c in DEGREES],
                        count, rng)
    ms = [0] * count
    for r in DEGREES:
        rows = [i for i, t in enumerate(triples) if max(t) == r]
        for i, m in zip(rows, _balanced(scale.many_m, len(rows), rng)):
            ms[i] = m
    xs = _balanced(X_CHOICES, count, rng)
    ns = _balanced(scale.many_n, count, rng)

    def coeffs(deg):
        return [f"{rng.uniform(-0.5, 0.5):.6f}" for _ in range(deg + 1)]

    return [[X, coeffs(d0), coeffs(d1), coeffs(d2), n, m]
            for X, (d0, d1, d2), n, m in zip(xs, triples, ns, ms)]


def hinge_values(sol, x, ctx) -> tuple:
    """(u(x), u''(x) / w^2) of a solution, w = pi n / X.

    Evaluated here from the coefficient arrays by the product rule, so the
    gate shares no code with the library's own evaluation or derivatives.
    """
    with ctx.workprec():
        x = mpf(x)
        w = mp.pi * sol.n / sol.X
        s, c, sh, ch = mp.sin(w * x), mp.cos(w * x), mp.sinh(w * x), mp.cosh(w * x)
        u = u2 = mpf(0)
        for term in sol.terms:
            hyp = list(zip(term.c, term.d))
            for p in range(len(term.a)):
                ap, bp = term.a[p], term.b[p]
                cp, dp = hyp[p] if p < len(hyp) else (0, 0)
                g = ap * s + bp * c + cp * sh + dp * ch
                g1 = w * (ap * c - bp * s + cp * ch + dp * sh)
                g2 = w * w * (-ap * s - bp * c + cp * sh + dp * ch)
                u += x ** p * g
                u2 += x ** p * g2
                if p >= 1:
                    u2 += 2 * p * x ** (p - 1) * g1
                if p >= 2:
                    u2 += p * (p - 1) * x ** (p - 2) * g
        return u, u2 / (w * w)


def _many_small(seed: int, scale: Scale, ctx) -> Workload:
    inputs = random_problems(seed, scale)
    wl = Workload("many-small", seed, ctx, inputs=inputs)
    # u and u'' vanish at both ends for every rank: the hinged conditions.
    tol = ctx.mpf(10) ** (-(2 * ctx.digits) // 3)

    def gate(sol):
        with ctx.workprec():
            if not mp.isfinite(sol.lambda_approx):
                return False, 0
            worst = max(abs(v) for x in (0, sol.X) for v in hinge_values(sol, x, ctx))
            if worst == 0:
                return True, ctx.digits
            return worst <= tol, min(ctx.digits, int(mp.floor(-mp.log10(worst))))

    for i, (X, q0, q1, q2, n, m) in enumerate(inputs):
        spec = fdsl4.ProblemSpec.make(X, q0, q1, q2, ctx)
        wl.ops.append(Op(f"problem {i} n={n} m={m}",
                         run=lambda spec=spec, n=n, m=m: fdsl4.solve(spec, n, m, ctx),
                         gate=gate, key=(spec, n, m)))
    return wl


# --- certify ----------------------------------------------------------------------

@dataclass(frozen=True)
class Certified:
    """What a certify op returns: the solution and the certificate it ran."""

    sol: Any
    residuals: Any = None
    report: Any = None
    oracle: Any = None

    @property
    def lambda_approx(self):
        return self.sol.lambda_approx


def _certify(seed: int, scale: Scale, ctx) -> Workload:
    # The problem and the three ops are fixed; the seed is recorded only.
    spec = fdsl4.load_problem(PROBLEMS / "benchmark2.cfg", ctx)
    fx = fdsl4.load_fixtures()
    octx = fdsl4.PrecisionContext(digits=scale.oracle_digits)
    on, om = scale.certify_oracle
    wl = Workload("certify", seed, ctx,
                  inputs=[["benchmark2.cfg", "sweep", n, m] for n, m in scale.certify_sweeps]
                  + [["benchmark2.cfg", "oracle", on, om, scale.oracle_N, scale.oracle_digits]])

    def sweep(n, m):
        sol = fdsl4.solve(spec, n, m, ctx)
        return Certified(sol, residuals=fdsl4.residual_sweep(sol, spec, ctx),
                         report=fdsl4.convergence_report(spec, n, ctx))

    def sweep_gate(n, m, res):
        sol, rep = res.sol, res.report
        with ctx.workprec():
            ok = all(_within_factor(res.residuals[k], printed)
                     for (fn, k), printed in fx.b2_residual.items()
                     if fn == n and k <= m)
            ref = fx.b2_rank10.get(n)
            digits = agreement_digits(sol.lambda_approx, ref, ctx) if ref else None
            if m == 10 and ref:
                ok = ok and digits >= RANK10_MIN_DIGITS
            # The a-priori bound, where it applies, must cover the distance
            # to the rank-10 value, which is far closer to the true one.
            ok = ok and rep.n == n and rep.r_n > 0
            bound = rep.lambda_bound(m)
            if bound is not None and ref and m < 10:
                ok = ok and abs(sol.lambda_approx - mpf(ref)) <= bound
        return ok, digits

    def oracle(n, m):
        sol = fdsl4.solve(spec, n, m, ctx)
        ritz = fdsl4.galerkin_nearest_eigenvalue(spec, sol.lambda_approx,
                                                 scale.oracle_N, octx)
        return Certified(sol, oracle=ritz)

    def oracle_gate(res):
        digits = agreement_digits(res.oracle, res.sol.lambda_approx, octx)
        return digits >= ORACLE_MIN_DIGITS, digits

    for n, m in scale.certify_sweeps:
        wl.ops.append(Op(f"solve+residual_sweep n={n} m={m}",
                         run=lambda n=n, m=m: sweep(n, m),
                         gate=lambda res, n=n, m=m: sweep_gate(n, m, res),
                         key=(spec, n, m)))
    wl.ops.append(Op(f"solve+oracle n={on} m={om} N={scale.oracle_N}",
                     run=lambda: oracle(on, om), gate=oracle_gate,
                     key=(spec, on, om)))
    return wl


_SETUPS = {"deep-rank": _deep_rank, "many-small": _many_small, "certify": _certify}


def load(name: str, seed: int, scale: Scale = FULL) -> Workload:
    """Set up a workload: context, problems and ops. This is what ``setup_s``
    times, after a cold interpreter start and ``import fdsl4``."""
    if name not in _SETUPS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    ctx = fdsl4.PrecisionContext(digits=scale.digits)
    return _SETUPS[name](seed, scale, ctx)
