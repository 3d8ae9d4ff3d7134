"""Record the benchmark of this checkout, alone or in pairs with another revision.

Runs ``bench/run.py`` as it stands in each checkout, for every workload of
``BENCHMARK.json``: ``--runs`` untraced runs of ``--seconds`` op time each,
then one traced pass at ``--seconds 0.001`` (fixed work: the pass loop stops
after its first whole pass)::

    python tools/bench_record.py --out BENCH.json
    python tools/bench_record.py --out BENCH.json --against HEAD~1 --runs 10

``--against REV`` extracts that revision with ``git archive`` into a
temporary directory and alternates the two sides run by run, which side goes
first changing each time; both sides of a pair use the same seed.  The
record holds, per side and workload, every end-to-end metric's values in
run order with their median, range and interquartile range, the ops
attempted per run, and the per-layer metrics of the traced pass; with two
sides, per workload and metric, how many pairs the change won (ties count
for neither); and the commits, whether ``src/`` or ``bench/`` had
uncommitted edits, the Python and mpmath versions and mpmath's backend.
The exit status is 1 if the record lacks an end-to-end metric of
``BENCHMARK.json`` on some workload, or a run or a traced pass was not
correct.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
TRACE_SECONDS = 0.001


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The JSON object on the last line of one ``bench/run.py`` run."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(int(trace))],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr[-4000:])
        done.check_returncode()
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    """Median, [min, max] and interquartile range of one metric's runs."""
    # one run has no spread: its quartiles are its value
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3
    return {"median": statistics.median(values), "range": [min(values), max(values)],
            "iqr": q3 - q1, "values": values}


def side_record(runs: list, traced: dict, seeds: list) -> dict:
    """One side's record of one workload from its untraced runs and traced pass."""
    units = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
    return {
        "seeds": seeds,
        "attempted": [r["attempted"] for r in runs],
        "correct": [r["correct"] for r in runs],
        "metrics": {name: {"unit": unit, **summary([r["metrics"][name]["value"] for r in runs])}
                    for name, unit in units.items()},
        "traced": {"seconds": TRACE_SECONDS, "correct": traced["correct"],
                   "attempted": traced["attempted"], "layers": traced["metrics"]},
    }


def pairs_won(change: dict, parent: dict, better: str) -> dict:
    """Pairs in which the change's value beats the parent's, ties counting
    for neither, and the change of the median relative to the parent's."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for c, p in zip(change["values"], parent["values"]))
    base = parent["median"]
    return {"won": won, "of": len(change["values"]),
            "median_change": (change["median"] - base) / base if base else None}


def missing(record: dict, benchmark: dict) -> list:
    """(side, workload, metric) of every end-to-end metric the record lacks."""
    return [(side, w["name"], m["name"])
            for side, workloads in record["sides"].items()
            for w in benchmark["workloads"] for m in benchmark["end_to_end"]
            if m["name"] not in workloads.get(w["name"], {}).get("metrics", {})]


def record(checkouts: dict, benchmark: dict, runs: int, seconds: float, seed: int) -> dict:
    """Per side and workload, the record of ``runs`` untraced runs, alternating
    which side goes first, and of one traced pass."""
    names, sides = [w["name"] for w in benchmark["workloads"]], list(checkouts)
    seeds = [seed + i for i in range(runs)]
    results = {side: {name: [] for name in names} for side in sides}
    for i, run_seed in enumerate(seeds):
        for name in names:
            for side in sides[i % 2:] + sides[:i % 2]:
                print(f"run {i + 1}/{runs} {name} {side}", file=sys.stderr, flush=True)
                results[side][name].append(
                    bench_run(checkouts[side], name, run_seed, seconds, False))
    return {side: {name: side_record(results[side][name],
                                     bench_run(checkouts[side], name, seed, TRACE_SECONDS, True),
                                     seeds)
                   for name in names}
            for side in sides}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    parser.add_argument("--against", metavar="REV", help="git revision to pair each run with")
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per side and workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="op time of an untraced run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commits = {"change": git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory() as parent_dir:
        checkouts = {"change": ROOT}
        if args.against:
            commits["parent"] = git("rev-parse", args.against)
            archive = subprocess.run(["git", "archive", commits["parent"]], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(parent_dir, filter="data")
            checkouts["parent"] = Path(parent_dir)
        sides = record(checkouts, benchmark, args.runs, args.seconds, args.seed)
    result = {
        "commits": commits,
        # uncommitted edits to what the change side's runs build from
        "change_code_dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "runs": args.runs,
        "seconds": args.seconds,
        "sides": sides,
    }
    gaps = missing(result, benchmark)
    if args.against and not gaps:
        result["pairs"] = {
            w["name"]: {m["name"]: pairs_won(sides["change"][w["name"]]["metrics"][m["name"]],
                                             sides["parent"][w["name"]]["metrics"][m["name"]],
                                             m["better"])
                        for m in benchmark["end_to_end"]}
            for w in benchmark["workloads"]}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for side, workload, metric in gaps:
        print(f"no record: {side} {workload} {metric}", file=sys.stderr)
    wrong = [(side, name) for side, workloads in sides.items() for name, w in workloads.items()
             if not (all(w["correct"]) and w["traced"]["correct"])]
    for side, workload in wrong:
        print(f"not correct: {side} {workload}", file=sys.stderr)
    return 1 if gaps or wrong else 0

if __name__ == "__main__":
    sys.exit(main())
