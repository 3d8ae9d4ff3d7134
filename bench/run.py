"""fdsl4 benchmark: one workload, one process, metrics as JSON on the last line.

    python3 bench/run.py --workload deep-rank --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The closed loop has one caller and runs whole passes over the
workload's ops until ``--seconds`` of op time have passed. Each op's
correctness gate runs outside the timed region. Op times are reported in
units of a reference kernel timed around each op (see ``RefClock``), and
also in seconds on the lines before the JSON.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The traced run writes its spans to
``.bench_build/trace-<workload>-<seed>.json`` and replays every solve it made
untraced, to check that tracing leaves the eigenvalues bit-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build"

SETUP_STARTS = 3      # cold starts timed before the ops and again after them
REF_STEPS = 1600      # Horner steps of the reference kernel, about 10 ms
REF_INTERVAL_S = 0.25  # kernel samples during an op, one per interval

# Started in a fresh interpreter to time set-up: import, context, problems.
SETUP_PROBE = "import sys, workloads; workloads.load(sys.argv[1], int(sys.argv[2]))"


def import_library():
    """Import fdsl4 from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import fdsl4
    if Path(fdsl4.__file__).resolve().parent != SRC / "fdsl4":
        raise ImportError(f"fdsl4 imported from {fdsl4.__file__}, not from {SRC}")
    return fdsl4


def setup_seconds(workload: str, seed: int, warm_up: bool) -> list:
    """Wall times of cold interpreter starts through workload set-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for i in range(SETUP_STARTS + warm_up):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i or not warm_up:  # the first start may compile bytecode
            times.append(time.perf_counter() - start)
    return times


class RefClock:
    """Times a fixed 300-digit mpmath kernel: the unit ``ref`` of op cost.

    The kernel does the kind of work fdsl4 does (multiply-adds of 300-digit
    mpf values in a Python loop) and none of its code. It runs before and
    after every op and, from a timer signal, every ``REF_INTERVAL_S`` during
    one, so op time over kernel time is the op's cost on this machine
    whatever speed the machine runs at. Time spent in the kernel during an
    op is taken out of the op's time.
    """

    def __init__(self):
        with mp.workdps(310):
            self.x = mpf(1) / 3
            self.coeffs = [mpf(1) / (k + 7) for k in range(REF_STEPS)]
        self.samples = []      # kernel seconds
        self.spent = 0.0       # wall seconds spent sampling
        self.busy = False

    def sample(self, *_signal_args) -> None:
        if self.busy:  # a timer tick during a sample is dropped
            return
        self.busy = True
        outer = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection would scan the op's heap, not time the kernel
        try:
            with mp.workdps(310):  # restores the interrupted code's precision
                start = time.perf_counter()
                acc = mpf(0)
                for c in self.coeffs:
                    acc = acc * self.x + c
                self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self.busy = False
        self.spent += time.perf_counter() - outer

    def mark(self) -> tuple:
        """Position before an op: (index of the last sample, time spent)."""
        return len(self.samples) - 1, self.spent

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


class Record:
    """Per-op outcomes of the measured loop."""

    def __init__(self):
        self.times = []        # seconds, one per op attempted
        self.refs = []         # mean reference kernel seconds around each op
        self.ok = []           # gate passed
        self.digits = []       # agreement digits, where the gate gives them
        self.lambdas = []      # (op, eigenvalue or None) for the bit-identity replay

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def attempt(op):
    """(seconds, result or None) of one op; an op that raises has failed."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # counted as a failed op, not fatal to the run
        traceback.print_exc()
        result = None
    return time.perf_counter() - start, result


def check(op, result) -> tuple:
    """(ok, digits) of an op's gate; a gate that raises has failed."""
    if result is None:
        return False, None
    try:
        return op.gate(result)
    except Exception:  # counted as a failed op, not fatal to the run
        traceback.print_exc()
        return False, None


def run_ops(wl, seconds: float, tracer=None, clock=None) -> Record:
    """Whole passes over the ops until ``seconds`` of op time have passed."""
    rec = Record()
    if clock:
        clock.sample()
    while not rec.times or sum(rec.times) < seconds:
        for op in wl.ops:
            if tracer:
                tracer.begin_op(len(rec.times))
            if clock:
                first, spent = clock.mark()
            dt, result = attempt(op)
            if tracer:
                tracer.end_op()
                tracer.enabled = False
            if clock:
                dt -= clock.spent - spent
                clock.sample()
                rec.refs.append(statistics.fmean(clock.samples[first:]))
            ok, digits = check(op, result)
            if tracer:
                tracer.enabled = True
            rec.times.append(dt)
            rec.ok.append(bool(ok))
            if digits is not None:
                rec.digits.append(digits)
            rec.lambdas.append((op, None if result is None else result.lambda_approx))
            print(f"{op.label}: {dt:.4f} s, gate {'passed' if ok else 'FAILED'}, "
                  f"digits {digits}", file=sys.stderr)
    return rec


def end_to_end(name: str, seed: int, seconds: float, workloads, scale) -> tuple:
    starts = setup_seconds(name, seed, warm_up=True)
    wl = workloads.load(name, seed, scale)
    with RefClock() as clock:
        rec = run_ops(wl, seconds, clock=clock)
    starts += setup_seconds(name, seed, warm_up=False)
    ok_ops = len(rec.times) - rec.failed
    costs = [t / r for t, r in zip(rec.times, rec.refs)]
    metrics = {
        "setup_s": (statistics.median(starts), "s"),
        "eigenpairs_per_kref": (1000 * ok_ops / sum(costs), "1/kref"),
        "op_cost.p50": (quantile(costs, 0.5), "ref"),
        "op_cost.p90": (quantile(costs, 0.9), "ref"),
        "ok_frac": (ok_ops / len(rec.times), "frac"),
        "min_digits": (min(rec.digits) if rec.digits else 0, "digits"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    seconds_view = {
        "eigenpairs_per_s": (ok_ops / sum(rec.times), "1/s"),
        "op_s.p50": (quantile(rec.times, 0.5), "s"),
        "op_s.p90": (quantile(rec.times, 0.9), "s"),
        "ref_s.p50": (statistics.median(rec.refs), "s"),
    }
    return wl, rec, metrics, seconds_view


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of all the
    order statistics. Op times cluster by problem size, and a single order
    statistic jumps between clusters from run to run; this estimate does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    with mp.workdps(15):
        cdf = [mp.betainc(a, b, 0, i / n, regularized=True) for i in range(n + 1)]
    return sum(float(cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def traced(name: str, seed: int, seconds: float, workloads, scale, fdsl4) -> tuple:
    import stagetrace
    overhead = stagetrace.span_cost()
    tracer = stagetrace.Tracer()
    tracer.install()
    try:
        wl = workloads.load(name, seed, scale)
        rec = run_ops(wl, seconds, tracer)
    finally:
        tracer.uninstall()
    # Replay each distinct solve untraced: eigenvalues must match bit for bit.
    replayed = {}
    for i, (op, lam) in enumerate(rec.lambdas):
        if lam is None:
            continue
        spec, n, m = op.key
        key = (id(spec), n, m)
        if key not in replayed:
            replayed[key] = fdsl4.solve(spec, n, m, wl.ctx).lambda_approx
        if replayed[key] != lam:
            rec.ok[i] = False
            print(f"traced eigenvalue differs: {op.label}", file=sys.stderr)
    tracer.dump(OUT / f"trace-{name}-{seed}.json")
    return wl, rec, tracer.metrics(sum(rec.times), overhead), {}


def run(name: str, seed: int, seconds: float, trace_on: bool, scale=None) -> dict:
    """Run one workload; return the result object the benchmark prints."""
    fdsl4 = import_library()
    import workloads
    if name not in workloads.NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(workloads.NAMES)}")
    scale = scale or workloads.FULL
    if trace_on:
        wl, rec, metrics, seconds_view = traced(name, seed, seconds, workloads, scale, fdsl4)
    else:
        wl, rec, metrics, seconds_view = end_to_end(name, seed, seconds, workloads, scale)
    print(f"workload {name} seed {seed} inputs sha256 {wl.checksum}")
    print(f"ops {len(rec.times)} failed {rec.failed} "
          f"fail_frac {rec.failed / len(rec.times):.6g} frac")
    for key, (value, unit) in {**metrics, **seconds_view}.items():
        print(f"{key} {value:.6g} {unit}")
    return {
        "correct": rec.failed == 0,
        "attempted": len(rec.times),
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
