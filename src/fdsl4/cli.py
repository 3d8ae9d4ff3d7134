"""Command-line front end.

Subcommands:

  solve   eigenvalue approximations for a list of indices at one rank,
          with optional JSON export of the full solutions
  sweep   CSV of (rank, eigenvalue, residual norm, a-priori bound) rows
  check   convergence diagnostics: omega, M_n, r_n, verdict, bounds
  oracle  digit-agreement table of the method against the sine-Galerkin
          inverse-iteration cross-check

All subcommands read the same problem config (see ``fdsl4.problem``).
Diagnostics go to stderr; exit status is 0 on success, 2 on config/usage
errors, 1 on computation failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from mpmath import mp

from .convergence import convergence_report
from .corrections import solution_to_payload
from .numerics import PrecisionContext, stability_probe
from .problem import ProblemFormatError, load_problem
from .spectral import solve
from .verify import (OracleConvergenceError, _lambda_partials,
                     galerkin_nearest_eigenvalue, matching_digits, residual_sweep)

DEFAULT_PRINT_DIGITS = 50


def _fmt(value, digits: int) -> str:
    return mp.nstr(value, digits, strip_zeros=False)


def _parse_n_list(text: str):
    try:
        values = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("indices must be integers >= 1")
    return values


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, help="problem config file")
    p.add_argument("--n", type=_parse_n_list, default=[1],
                   help="comma-separated eigenpair indices (default 1)")
    p.add_argument("--digits", type=int, default=300,
                   help="working precision in decimal digits (default 300)")
    p.add_argument("--print-digits", type=int, default=DEFAULT_PRINT_DIGITS,
                   help="digits shown in output (default 50)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsl4",
        description="Eigenpairs of u'''' + q2 u'' + q1 u' + (q0 - lambda) u = 0 "
                    "with hinged ends, by exponentially convergent corrections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute rank-m eigenvalue approximations")
    _add_common(p)
    p.add_argument("--m", type=int, default=10, help="rank (default 10)")
    p.add_argument("--json", help="write solutions to this JSON file")
    p.add_argument("--certify", action="store_true",
                   help="replay at half precision and report certified digits")

    p = sub.add_parser("sweep", help="rank sweep as CSV")
    _add_common(p)
    p.add_argument("--m-max", type=int, default=10, help="largest rank (default 10)")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("check", help="convergence diagnostics")
    _add_common(p)
    p.add_argument("--m", type=int, default=10,
                   help="rank for the error bounds (default 10)")

    p = sub.add_parser("oracle", help="cross-check against sine-Galerkin")
    _add_common(p)
    p.add_argument("--m", type=int, default=10, help="rank (default 10)")
    p.add_argument("--basis-size", type=int, default=200,
                   help="Galerkin basis size N (default 200)")
    p.add_argument("--oracle-digits", type=int, default=50,
                   help="working precision of the oracle (default 50)")
    return parser


def cmd_solve(args, spec, ctx) -> int:
    solutions = []
    for n in args.n:
        sol = solve(spec, n, args.m, ctx)
        solutions.append(sol)
        note = ""
        with ctx.workprec():
            if args.m >= 1 and all(abs(v) <= sol.lambda0 * ctx.eps
                                   for v in sol.lambda_corrections):
                note = "   # all corrections vanish; base eigenvalue is exact"
        if args.certify:
            if ctx.digits < 40:
                note += "   # certification needs --digits >= 40"
            else:
                half = PrecisionContext(digits=max(30, ctx.digits // 2))
                agreed = stability_probe(
                    lambda c, n=n: solve(spec, n, args.m, c).lambda_approx, ctx, half)
                note += f"   # certified digits: {agreed}"
        print(f"n={n} m={args.m} lambda={_fmt(sol.lambda_approx, args.print_digits)}{note}")
    if args.json:
        payload = [solution_to_payload(s, ctx) for s in solutions]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload if len(payload) > 1 else payload[0], fh, indent=1)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_sweep(args, spec, ctx) -> int:
    if args.m_max < 1:
        print("error: --m-max must be >= 1", file=sys.stderr)
        return 2
    rows = []
    for n in args.n:
        sol = solve(spec, n, args.m_max, ctx)
        deltas = residual_sweep(sol, spec, ctx)
        report = convergence_report(spec, n, ctx)
        lambdas = _lambda_partials(sol, ctx)
        for m in range(args.m_max + 1):
            bound = report.lambda_bound(m)
            rows.append([
                n, m,
                _fmt(lambdas[m], args.print_digits),
                _fmt(deltas[m], 10),
                _fmt(bound, 10) if bound is not None else "n/a",
            ])
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["n", "m", "lambda_approx", "residual_norm", "lambda_bound"])
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
            print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_check(args, spec, ctx) -> int:
    for n in args.n:
        report = convergence_report(spec, n, ctx)
        print(f"n={n}")
        print(f"  omega = {_fmt(report.omega, 15)}")
        print(f"  M_n   = {_fmt(report.M_n, 15)}")
        print(f"  r_n   = {_fmt(report.r_n, 15)}")
        if report.converges:
            print("  sufficient condition met (r_n < 1): "
                  "series converges exponentially")
            bounds = (report.lambda_bound(args.m), report.u_bound(args.m))
            if bounds[0] is not None:
                print(f"  rank-{args.m} eigenvalue error bound    <= {_fmt(bounds[0], 10)}")
                print(f"  rank-{args.m} eigenfunction error bound <= {_fmt(bounds[1], 10)}")
        else:
            print("  sufficient condition not met (r_n >= 1); "
                  "the method may still converge, but no a-priori bound applies")
    return 0


def cmd_oracle(args, spec, ctx) -> int:
    oracle_ctx = PrecisionContext(digits=max(30, args.oracle_digits))
    status = 0
    print(f"{'n':>4} {'fd_lambda':>{args.print_digits + 8}} {'oracle':>24} {'digits':>7}")
    for n in args.n:
        sol = solve(spec, n, args.m, ctx)
        try:
            ritz = galerkin_nearest_eigenvalue(spec, sol.lambda_approx,
                                               args.basis_size, oracle_ctx)
        except OracleConvergenceError as exc:
            print(f"{n:>4} {_fmt(sol.lambda_approx, args.print_digits):>{args.print_digits + 8}} "
                  f"{'(no convergence)':>24} {'-':>7}")
            print(f"oracle failed for n={n}: {exc}", file=sys.stderr)
            status = 1
            continue
        agree = matching_digits(sol.lambda_approx, mp.nstr(ritz, 30), oracle_ctx)
        print(f"{n:>4} {_fmt(sol.lambda_approx, args.print_digits):>{args.print_digits + 8}} "
              f"{_fmt(ritz, 15):>24} {agree:>7}")
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = PrecisionContext(digits=args.digits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = load_problem(args.problem, ctx)
    except ProblemFormatError as exc:
        print(f"error: {args.problem}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {"solve": cmd_solve, "sweep": cmd_sweep,
               "check": cmd_check, "oracle": cmd_oracle}[args.command]
    try:
        return handler(args, spec, ctx)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
