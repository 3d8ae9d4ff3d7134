"""Sup norms, size constants, config parsing."""

import random

import pytest
from mpmath import mp, mpf

from fdsl4 import PrecisionContext, ProblemSpec, omega, parse_problem
from fdsl4.problem import ProblemFormatError, sup_norm

CTX = PrecisionContext(digits=60)


def P(*coeffs, ctx=CTX):
    with ctx.workprec():
        return tuple(mpf(c) for c in coeffs)


def test_sup_norm_quadratic_benchmark1(benchmark1):
    # -0.02 x^2 is monotone on [0, 5]; endpoint value 0.5
    v = sup_norm(benchmark1.q2, benchmark1.X, CTX)
    with CTX.workprec():
        assert abs(v - mpf("0.5")) < mpf(10) ** -12


def test_sup_norm_constant():
    v = sup_norm(P("-3.5", 0), 2, CTX)
    with CTX.workprec():
        assert abs(v - mpf("3.5")) < mpf(10) ** -12


def test_sup_norm_parabola_vertex():
    v = sup_norm(P(0, 1, -1), 1, CTX)
    with CTX.workprec():
        assert abs(v - mpf("0.25")) < mpf(10) ** -12


def test_sup_norm_irrational_extremum(ctx300):
    # 3x^4 - 8x^3 - 6x^2 has p' = 12x(x^2 - 2x - 1): on [0, 3] the maximum of
    # |p| is at x = 1 + sqrt 2, where |p| = 23 + 16 sqrt 2 (|p(3)| is 27)
    p = P(0, 0, -6, -8, 3, ctx=ctx300)
    v = sup_norm(p, 3, ctx300)
    with ctx300.workprec():
        assert abs(v - (23 + 16 * mp.sqrt(2))) < mpf(10) ** -250


@pytest.mark.parametrize("case", ["triple root", "roots 2^-900 apart", "decimal (x - 0.3)^4"])
def test_sup_norm_close_critical_points(ctx300, case):
    # mp.polyroots with its defaults does not converge on any of these p':
    # 4 (x - 1)^3; 12 (x - 1)(x - 1 - delta)(x + 2) with delta = 2^-900; and
    # the derivative of (x - 0.3)^4 with decimal coefficients, whose triple
    # root rounding splits by about 1e-105.  Every maximum is at x = X.
    with ctx300.workprec():
        delta = mp.ldexp(1, -900)
        coeffs, X, want = {
            "triple root": ([1, -4, 6, -4, 1], 3, mpf(16)),
            "roots 2^-900 apart": ([0, 24 + 24 * delta, -18 - 6 * delta, -4 * delta, 3], 3,
                                   153 - 90 * delta),
            "decimal (x - 0.3)^4": (["0.0081", "-0.108", "0.54", "-1.2", "1"], 1,
                                    mpf("0.2401")),
        }[case]
        v = sup_norm(P(*coeffs, ctx=ctx300), X, ctx300)
        assert abs(v - want) < mpf(10) ** -290


def test_sup_norm_dominates_samples():
    rng = random.Random(7)
    p = P(*[rng.uniform(-1, 1) for _ in range(5)])
    with CTX.workprec():
        X = mpf("2.5")
        bound = sup_norm(p, X, CTX) * (1 + mpf(10) ** -12)
        for _ in range(1000):
            x = X * mpf(rng.random())
            assert abs(mp.polyval(p[::-1], x)) <= bound


def test_omega_benchmark1(benchmark1):
    # 2 q2' - q1 = -0.04 x peaks at x = 5; q2'' - q1' + q0 = 0.0001 x^4 - 0.02
    # stays below 0.2 in size
    v = omega(benchmark1, CTX)
    with CTX.workprec():
        assert abs(v - mpf("0.2")) < mpf("0.2") * mpf(10) ** -(CTX.digits - 5)


def test_omega_benchmark2(benchmark2):
    v = omega(benchmark2, CTX)
    with CTX.workprec():
        assert abs(v - 1) < mpf(10) ** -(CTX.digits - 5)


def test_omega_zero_potentials():
    spec = ProblemSpec.make(1, [0], [0], [0], CTX)
    assert omega(spec, CTX) == 0


def test_omega_invariant_under_padding():
    a = ProblemSpec.make(2, [1, "0.5"], [0, "0.25"], ["0.125", "-0.5"], CTX)
    b = ProblemSpec.make(2, [1, "0.5", 0, 0], [0, "0.25", 0], ["0.125", "-0.5", 0, 0, 0], CTX)
    with CTX.workprec():
        assert abs(omega(a, CTX) - omega(b, CTX)) < mpf(10) ** -40


def test_step_budget_increment():
    spec = ProblemSpec.make(1, [0, 1, 2], [0], [0, 0, 0, 0, 1], CTX)
    assert spec.r == 4
    assert spec.M(0) == 0
    for j in range(6):
        assert spec.M(j + 1) - spec.M(j) == spec.r + 1


def test_constant_potentials_padded():
    spec = ProblemSpec.make(1, [3], [], [0], CTX)
    assert len(spec.q0) == len(spec.q1) == len(spec.q2) == 2
    assert spec.q0 == (3, 0) and spec.q1 == spec.q2 == (0, 0)
    assert spec.r == 1 and spec.M(3) == 6


CONFIG = """
# benchmark problem
X  = 5
q0 = [-0.02, 0, 0, 0, 0.0001]   # lowest degree first
q1 = [0, -0.04]
q2 = [0, 0, -0.02]
"""


def test_parse_problem_roundtrip():
    spec = parse_problem(CONFIG, CTX)
    assert spec.X == 5
    assert spec.r == 4
    with CTX.workprec():
        assert spec.q0[4] == mpf("0.0001")
        assert spec.q1[1] == mpf("-0.04")


@pytest.mark.parametrize("text,line", [
    ("X = 5\nq0 = [0,1]\nq1 = oops\nq2 = [0,0]", 3),
    ("X = abc\nq0 = [0,1]\nq1 = [0]\nq2 = [0]", 1),
    ("X = 1\nq0 = [0,zz]\nq1 = [0]\nq2 = [0]", 2),
    ("X = 1\nwhat = 3\nq0 = [0,1]\nq1 = [0]\nq2 = [0]", 2),
    ("X = inf\nq0 = [0,1]\nq1 = [0]\nq2 = [0]", 1),
    ("X = nan\nq0 = [0,1]\nq1 = [0]\nq2 = [0]", 1),
    ("q0 = [0,1]\nX = -1\nq1 = [0]\nq2 = [0]", 2),
    ("X = 1\nq0 = [0, inf]\nq1 = [0]\nq2 = [0]", 2),
    ("X = 1\nq0 = [0,1]\nq1 = [0]\nq2 = [-inf, 0]", 4),
    ("X = 5\nq0 = [0,1]\nq1 = [0]\nX = 1\nq2 = [0]", 4),
    ("x = 5\nq0 = [0,1]\nX = 1\nq1 = [0]\nq2 = [0]", 3),
    ("X = 1\nq0 = [0,1]\nq1 = [0]\nq2 = [0]\nq0 = [2]", 5),
])
def test_parse_problem_errors_carry_line(text, line):
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text, CTX)
    assert err.value.line == line


def test_parse_problem_missing_key():
    with pytest.raises(ProblemFormatError):
        parse_problem("X = 1\nq0 = [0,1]\nq1 = [0]", CTX)


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        ProblemSpec.make(0, [0, 1], [0], [0], CTX)
    with pytest.raises(ValueError):
        ProblemSpec.make("inf", [0, 1], [0], [0], CTX)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_make_rejects_non_finite_coefficients(bad):
    for q0, q1, q2 in (([0, bad], [0], [0]), ([0], [bad], [0]), ([0], [0], [0, 0, bad])):
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec.make(1, q0, q1, q2, CTX)
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec(X=mpf(1), q0=P(*q0, 0), q1=P(*q1, 0), q2=P(*q2, 0))


def test_constructor_rejects_short_potentials():
    ok = P(0, 1)
    for short in ((), P(3)):
        for q0, q1, q2 in ((short, ok, ok), (ok, short, ok), (ok, ok, short)):
            with pytest.raises(ValueError, match="pad constants"):
                ProblemSpec(X=mpf(1), q0=q0, q1=q1, q2=q2)


def test_constructor_stores_list_potentials_as_tuples():
    # a list potential used to break omega's cache with "unhashable type: 'list'"
    with CTX.workprec():
        spec = ProblemSpec(X=mpf(1), q0=[mpf(0), mpf(1)], q1=[mpf("0.5"), mpf(0)],
                           q2=[mpf(0), mpf(0), mpf("-0.25")])
    want = ProblemSpec.make(1, [0, 1], ["0.5", 0], [0, 0, "-0.25"], CTX)
    assert spec == want
    assert isinstance(spec.q0, tuple) and isinstance(spec.q2, tuple)
    assert omega(spec, CTX) == omega(want, CTX)
