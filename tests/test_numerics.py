"""Precision context, replay certification, the dot kernel and index checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import fzero

from fdsl4 import (PrecisionContext, assemble, base_pair, convergence_report, eval_solution,
                   galerkin_nearest_eigenvalue, matching_digits, moments, solve)
from fdsl4.corrections import solution_from_payload, solution_to_payload
from fdsl4.numerics import _dot


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([53, 333, 1000]), st.data())
def test_dot_kernel_is_fdot_bit_for_bit(prec, data):
    # mpf_sum drops a term or partial sum more than 2*prec bits away, so
    # exponents spread over +-6*prec; mantissas reach 2*prec bits, exact
    # zeros and both signs occur, and leaving the zero pairs out, as
    # combine_series does, keeps the bits of a finite sum too.  A few
    # entries become inf, -inf or nan, some of them against a zero (0 * inf)
    exponent = st.integers(-6 * prec, 6 * prec) | st.integers(-6, 6).map(lambda k: k * prec)
    entry = st.none() | st.tuples(st.integers(-2 ** (2 * prec), 2 ** (2 * prec)), exponent)
    drawn = data.draw(st.lists(st.tuples(entry, entry), min_size=1, max_size=24))
    copies = data.draw(st.lists(st.tuples(st.integers(0, 23), st.integers(0, 24)), max_size=3))
    special = st.sampled_from(["inf", "-inf", "nan"])
    specials = data.draw(st.lists(st.tuples(st.integers(0, 47), special), max_size=2))
    with mp.workprec(prec):
        pairs = [tuple(mp.ldexp(*e) if e else mpf(0) for e in pair) for pair in drawn]
        # a negated copy cancels a product exactly; whether a far smaller
        # term was dropped depends on whether it came before the copy
        for i, k in copies:
            x, y = pairs[i % len(pairs)]
            pairs.insert(k % (len(pairs) + 1), (-x, y))
        flat = [v for pair in pairs for v in pair]
        for i, value in specials:
            flat[i % len(flat)] = mpf(value)
        pairs = list(zip(flat[::2], flat[1::2]))
        raw = [(x._mpf_, y._mpf_) for x, y in pairs]
        want = mp.fdot(pairs)._mpf_
        assert _dot(raw)._mpf_ == want
        assert _dot(pair for pair in raw)._mpf_ == want
        kept = [(x, y) for x, y in pairs if x and y]
        assert _dot([(x._mpf_, y._mpf_) for x, y in kept])._mpf_ == mp.fdot(kept)._mpf_
        if not specials:
            assert mp.fdot(kept)._mpf_ == want


def test_dot_kernel_special_and_vanishing_sums():
    # 0 * inf is nan, inf - inf is nan, and a nan or inf product decides the
    # sum wherever it stands; a sum of vanishing products is exactly fzero
    with mp.workprec(333):
        one, zero, inf, nan = mpf(1), mpf(0), mp.inf, mp.nan
        for pairs in ([(zero, inf)], [(one, inf), (zero, -inf)], [(one, inf), (one, -inf)],
                      [(one, one), (-inf, one), (mpf(3), one)], [(one, nan), (one, inf)],
                      [(mpf(2) ** 4000, one), (one, inf)]):
            assert _dot((x._mpf_, y._mpf_) for x, y in pairs)._mpf_ == mp.fdot(pairs)._mpf_
        assert _dot([])._mpf_ == fzero
        assert _dot(iter([(zero._mpf_, one._mpf_), (one._mpf_, zero._mpf_)]))._mpf_ == fzero
        assert _dot([(zero._mpf_, zero._mpf_)] * 3)._mpf_ == fzero


@pytest.mark.parametrize("tiny_first", [False, True])
@pytest.mark.parametrize("carry", [False, True])
@pytest.mark.parametrize("gap", [-1, 0, 1])
def test_dot_kernel_drops_a_far_term_where_mpf_sum_does(tiny_first, carry, gap):
    # 2**53 + 1 is a tie at 53 bits, which a far smaller positive product
    # breaks upwards unless the sum drops it: mpf_sum drops the product (or
    # the partial sum it forms alone) when it lies more than 2*prec bits
    # plus its exact bit count below, one bit more with a carry
    prec, k = 53, 20
    mant = 2 ** k - 1 if carry else 2 ** (k - 1) + 1
    bits = (mant * mant).bit_length()
    below = 2 * prec + bits + gap - (53 if tiny_first else 0)
    with mp.workprec(prec):
        one = mpf(1)
        tiny = [(mp.ldexp(mant, -(below // 2)), mp.ldexp(mant, -(below - below // 2)))]
        pairs = [(mpf(2) ** 53, one), (one, one)]
        pairs = tiny + pairs if tiny_first else pairs + tiny
        got = _dot([(x._mpf_, y._mpf_) for x, y in pairs])
        assert got._mpf_ == mp.fdot(pairs)._mpf_
        assert got == mpf(2) ** 53 + (0 if gap > 0 else 2)


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
