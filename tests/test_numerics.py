"""Precision context and stability probe."""

import pytest
from mpmath import mp, mpf

from fdsl4 import PrecisionContext, stability_probe


def test_digits_floor():
    with pytest.raises(ValueError):
        PrecisionContext(digits=20)


def test_probe_identical_computation():
    hi, lo = PrecisionContext(digits=300), PrecisionContext(digits=150)

    def exp1(c):
        with c.workprec():
            return mp.exp(1)

    agreement = stability_probe(exp1, hi, lo)
    assert agreement >= 140


def test_probe_constant():
    hi, lo = PrecisionContext(digits=300), PrecisionContext(digits=150)
    assert stability_probe(lambda c: c.mpf(1), hi, lo) == 150


def test_probe_catastrophic_cancellation():
    # (1 + 1e-200) - 1 collapses to zero below 200 digits
    def cancel(c):
        with c.workprec():
            return (mpf(1) + mpf(10) ** -200) - 1

    agreement = stability_probe(cancel, PrecisionContext(digits=300),
                                PrecisionContext(digits=100))
    assert agreement < 10


def test_probe_requires_ordering():
    with pytest.raises(ValueError):
        stability_probe(lambda c: c.mpf(1), PrecisionContext(100), PrecisionContext(100))


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
