"""Precision context, replay certification and index checks."""

import pytest
from mpmath import mp, mpf

from fdsl4 import (PrecisionContext, assemble, base_pair, convergence_report, eval_solution,
                   galerkin_nearest_eigenvalue, matching_digits, moments, solve)
from fdsl4.corrections import solution_from_payload, solution_to_payload


def _replay(computation, ctx_hi, ctx_lo):
    """Digits on which a replay at ctx_lo agrees with the run at ctx_hi,
    compared at ctx_lo, as ``fdsl4 solve --certify`` compares them."""
    return matching_digits(computation(ctx_lo), computation(ctx_hi), ctx_lo)


def test_digits_floor():
    with pytest.raises(ValueError):
        PrecisionContext(digits=20)


def test_probe_identical_computation():
    hi, lo = PrecisionContext(digits=300), PrecisionContext(digits=150)

    def exp1(c):
        with c.workprec():
            return mp.exp(1)

    agreement = _replay(exp1, hi, lo)
    assert agreement >= 140


def test_probe_constant():
    hi, lo = PrecisionContext(digits=300), PrecisionContext(digits=150)
    assert _replay(lambda c: c.mpf(1), hi, lo) == 150


def test_probe_catastrophic_cancellation():
    # (1 + 1e-200) - 1 collapses to zero below 200 digits
    def cancel(c):
        with c.workprec():
            return (mpf(1) + mpf(10) ** -200) - 1

    agreement = _replay(cancel, PrecisionContext(digits=300), PrecisionContext(digits=100))
    assert agreement < 10


def test_double_precision_replay():
    # re-evaluating a chained computation at doubled precision moves the
    # result by less than 10**-(digits-10) relatively
    ctx = PrecisionContext(digits=120)

    def chain(c):
        with c.workprec():
            x = mpf(0)
            for k in range(1, 40):
                x += mp.sin(k) / k
            return x

    v1 = chain(ctx)
    v2 = chain(PrecisionContext(digits=240))
    with PrecisionContext(digits=240).workprec():
        assert abs(v1 - v2) < abs(v2) * mpf(10) ** -(120 - 10)


CTX60 = PrecisionContext(digits=60)
INDEX = "eigenpair index must be >= 1"
RANK = "rank must be >= 0"
# entry: (call with the index v, lowest valid index, message below it)
ENTRIES = {
    "base_pair": (lambda spec, v: base_pair(spec, v, CTX60), 1, INDEX),
    "moments-n": (lambda spec, v: moments(v, spec.X, 4, CTX60), 1, INDEX),
    "moments-T": (lambda spec, v: moments(1, spec.X, v, CTX60), 0, "highest power T must be >= 0"),
    "solve-n": (lambda spec, v: solve(spec, v, 2, CTX60), 1, INDEX),
    "solve-m": (lambda spec, v: solve(spec, 1, v, CTX60), 0, RANK),
    "convergence_report": (lambda spec, v: convergence_report(spec, v, CTX60), 1, INDEX),
    "assemble": (lambda spec, v: assemble(v, spec.X, *_history(spec), CTX60), 1, INDEX),
    "eval_solution": (lambda spec, v: eval_solution(solve(spec, 1, 1, CTX60), "0.5", v, ctx=CTX60),
                      0, "derivative order must be in 0..4"),
    "payload-n": (lambda spec, v: _load_edited(spec, "n", v), 1, INDEX),
    "payload-m": (lambda spec, v: _load_edited(spec, "m", v), 0, RANK),
    "lambda_bound": (lambda spec, v: convergence_report(spec, 3, CTX60).lambda_bound(v), 0, RANK),
    "u_bound": (lambda spec, v: convergence_report(spec, 3, CTX60).u_bound(v), 0, RANK),
    "galerkin_nearest_eigenvalue":
        (lambda spec, v: galerkin_nearest_eigenvalue(spec, 98, v, CTX60), 1, "need N >= 1"),
    "PrecisionContext":
        (lambda spec, v: PrecisionContext(v), 30, "working precision must be at least 30 digits"),
}


def _history(spec):
    """The terms and eigenvalue entries of a rank-1 solve for n = 1."""
    sol = solve(spec, 1, 1, CTX60)
    return sol.terms, (sol.lambda0,) + sol.lambda_corrections


def _load_edited(spec, field, v):
    """Load the payload of a rank-0 solve for n = 1 with ``field`` set to v."""
    payload = solution_to_payload(solve(spec, 1, 0, CTX60), CTX60)
    payload[field] = v
    return solution_from_payload(payload)


@pytest.mark.parametrize("entry", ENTRIES)
def test_entries_take_integer_indices(benchmark2, entry):
    # a float passes a bare bound check: unchecked, solve(benchmark2, 1.5, 2)
    # returns 493.656... and PrecisionContext(30.5) is accepted
    call, low, message = ENTRIES[entry]
    with pytest.raises(TypeError):
        call(benchmark2, low + 0.5)
    with pytest.raises(ValueError, match=message):
        call(benchmark2, low - 1)
    call(benchmark2, low)
