"""Record the solver's numbers on 31 fixed cases, or compare two records.

The cases: benchmark 1 with n = 1..8 at rank 20, benchmark 2 with
n in {1, 2, 50} at rank 10, and the 20 seeded random problems of
``tests/conftest.make_random_problems`` with n = 1 at rank 4, all at 300
digits.  For each case the record holds the rank-m eigenvalue, every
correction lambda^(j), a sha256 of each term's four coefficient arrays,
omega, and u at x = X/7, 3X/7 and 6X/7 (``eval_solution``), which says how
far term arrays that differ move the eigenfunction.  It also holds the
residual sweeps of benchmark 2 at (n, m) = (1, 10) and (50, 4), and of
benchmark 1 at (1, 10) and (8, 6), whose q1 and q2 are nonzero, and the
sine-Galerkin oracle's eigenvalue with the rank-m eigenvalue as its shift:
benchmark 2 with n in {1, 2} at rank 10 and benchmark 1 with n = 1 at rank
20, with N = 200 at 50 digits, as in the benchmark's certify op and the
oracle acceptance criterion, and zero potentials (``problems/zero.cfg``)
with n in {1, 2} at rank 2, N = 24 and 60 digits for the solve and the
oracle, where the shift lies exactly on a diagonal entry of the matrix.
Every real is written exactly, as ``mantissa*2^exponent``.

The library and the random problems come from the checkout that holds this
script, so a record of another revision is made by running a copy of the
script inside that revision's checkout::

    python tools/compare_cases.py --out new.json
    python tools/compare_cases.py --out new.json --against old.json

With ``--against`` it prints, per quantity, how many entries are
bit-identical and the worst relative difference.  A correction lambda^(j)
can be exactly 0 on one side and a rounding-level value on the other, so
its differences are divided by the case's |lambda| instead of by their own
size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import fdsl4  # noqa: E402
from mpmath import mp  # noqa: E402
from tests.conftest import make_random_problems  # noqa: E402

DIGITS = 300
SWEEPS = (("b2", 1, 10), ("b2", 50, 4), ("b1", 1, 10), ("b1", 8, 6))
# (problem, n, m, N, digits of the solve, digits of the oracle)
ORACLES = (("b2", 1, 10, 200, DIGITS, 50), ("b2", 2, 10, 200, DIGITS, 50),
           ("b1", 1, 20, 200, DIGITS, 50), ("zero", 1, 2, 24, 60, 60),
           ("zero", 2, 2, 24, 60, 60))


def exact(value) -> str:
    man, exp = value.man_exp
    return f"{man}*2^{exp}"


def digest(term) -> str:
    h = hashlib.sha256()
    for arr in (term.a, term.b, term.c, term.d):
        h.update((",".join(exact(v) for v in arr) + ";").encode())
    return h.hexdigest()


def cases(ctx):
    """(name, spec, n, m) for every case, in a fixed order, and the two
    benchmark specs and the zero potentials by name."""
    b1 = fdsl4.load_problem(ROOT / "problems" / "benchmark1.cfg", ctx)
    b2 = fdsl4.load_problem(ROOT / "problems" / "benchmark2.cfg", ctx)
    zero = fdsl4.load_problem(ROOT / "problems" / "zero.cfg", ctx)
    out = [(f"b1 n={n} m=20", b1, n, 20) for n in range(1, 9)]
    out += [(f"b2 n={n} m=10", b2, n, 10) for n in (1, 2, 50)]
    out += [(f"random {i} n=1 m=4", spec, 1, 4)
            for i, spec in enumerate(make_random_problems(20, ctx))]
    return out, {"b1": b1, "b2": b2, "zero": zero}


def record(ctx) -> dict:
    rows, specs = cases(ctx)
    result = {"cases": {}, "sweeps": {}, "oracle": {}}
    for name, spec, n, m in rows:
        sol = fdsl4.solve(spec, n, m, ctx)
        with ctx.workprec():
            points = [spec.X * k / 7 for k in (1, 3, 6)]
        result["cases"][name] = {
            "lambda": exact(sol.lambda_approx),
            "lambda_j": [exact(v) for v in sol.lambda_corrections],
            "terms": [digest(t) for t in sol.terms],
            "omega": exact(fdsl4.omega(spec, ctx)),
            "u_values": [exact(fdsl4.eval_solution(sol, x, ctx=ctx)) for x in points],
        }
        print(name, file=sys.stderr)
    for name, n, m in SWEEPS:
        spec = specs[name]
        sol = fdsl4.solve(spec, n, m, ctx)
        result["sweeps"][f"{name} n={n} m={m}"] = [
            exact(v) for v in fdsl4.residual_sweep(sol, spec, ctx)]
        print(f"sweep {name} n={n} m={m}", file=sys.stderr)
    for name, n, m, N, digits, oracle_digits in ORACLES:
        spec = specs[name]
        sol = fdsl4.solve(spec, n, m, fdsl4.PrecisionContext(digits=digits))
        ritz = fdsl4.galerkin_nearest_eigenvalue(spec, sol.lambda_approx, N,
                                                 fdsl4.PrecisionContext(digits=oracle_digits))
        result["oracle"][f"{name} n={n} m={m} N={N}"] = exact(ritz)
        print(f"oracle {name} n={n} m={m} N={N}", file=sys.stderr)
    return result


def value(text: str) -> Fraction:
    man, exp = text.split("*2^")
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def rel_diff(a: str, b: str, scale: str | None) -> Fraction:
    """|a - b| over |scale|, or over the larger of |a| and |b| without one."""
    x, y = value(a), value(b)
    if x == y:
        return Fraction(0)
    return abs(x - y) / (abs(value(scale)) if scale else max(abs(x), abs(y)))


def pairs(new: dict, old: dict):
    """(quantity, new entry, old entry, scale) over both records, in case
    order; the scale is the case's lambda for lambda_j, else None."""
    for name, case in new["cases"].items():
        ref = old["cases"][name]
        yield "lambda", case["lambda"], ref["lambda"], None
        yield "omega", case["omega"], ref["omega"], None
        for quantity in ("lambda_j", "terms", "u_values"):
            if len(case[quantity]) != len(ref[quantity]):
                raise ValueError(f"{name}: {quantity} lengths differ")
            scale = case["lambda"] if quantity == "lambda_j" else None
            for a, b in zip(case[quantity], ref[quantity]):
                yield quantity, a, b, scale
    for name, sweep in new["sweeps"].items():
        for a, b in zip(sweep, old["sweeps"][name], strict=True):
            yield "residuals", a, b, None
    for name, ritz in new["oracle"].items():
        yield "oracle", ritz, old["oracle"][name], None


def compare(new: dict, old: dict) -> None:
    stats = {}
    for quantity, a, b, scale in pairs(new, old):
        same, total, worst = stats.get(quantity, (0, 0, Fraction(0)))
        diff = Fraction(0) if quantity == "terms" else rel_diff(a, b, scale)
        stats[quantity] = (same + (a == b), total + 1, max(worst, diff))
    for quantity, (same, total, worst) in stats.items():
        label = "difference / |lambda|" if quantity == "lambda_j" else "relative difference"
        print(f"{quantity:10} {same:5}/{total:<5} bit-identical, "
              f"worst {label} {mp.nstr(mp.fdiv(worst.numerator, worst.denominator), 3)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    parser.add_argument("--against", help="JSON record of another revision to compare with")
    args = parser.parse_args(argv)
    result = record(fdsl4.PrecisionContext(digits=DIGITS))
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    if args.against:
        compare(result, json.loads(Path(args.against).read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
