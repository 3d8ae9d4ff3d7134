"""Base pair, term evaluation with derivatives, assembly, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from fdsl4 import (CorrectionTerm, PrecisionContext, ProblemSpec, assemble, base_pair,
                   eval_solution, moments, solve)
from fdsl4.corrections import (_derivative_arrays, _differentiate, basis_values, series_dot,
                               solution_from_payload, solution_to_payload)
from fdsl4.verify import QuadratureRule

from .conftest import eval_term
from .oracles import differentiate_mpf, horner_series, raw_bits

CTX = PrecisionContext(digits=120)


@pytest.fixture(scope="module")
def x_potential():
    return ProblemSpec.make(1, [0, 1], [0], [0], CTX)


@pytest.fixture(scope="module")
def x_solution(x_potential):
    return solve(x_potential, 1, 6, CTX)


def test_base_eigenvalue_interval5():
    spec = ProblemSpec.make(5, [0, 0], [0], [0], CTX)
    _, lam0 = base_pair(spec, 1, CTX)
    with CTX.workprec():
        assert abs(lam0 - mp.pi ** 4 / 625) < mpf(10) ** -115


def test_base_eigenvalue_n2():
    spec = ProblemSpec.make(1, [0, 0], [0], [0], CTX)
    _, lam0 = base_pair(spec, 2, CTX)
    with CTX.workprec():
        assert abs(lam0 - 16 * mp.pi ** 4) < mpf(10) ** -110


def test_base_normalization():
    spec = ProblemSpec.make(3, [0, 0], [0], [0], CTX)
    term, _ = base_pair(spec, 2, CTX)
    rule = QuadratureRule.build(spec.X, 16, 20, CTX)
    norm = rule.integrate(lambda x: eval_term(term, 2, spec.X, x, ctx=CTX) ** 2, CTX)
    with CTX.workprec():
        assert abs(norm - 1) < mpf(10) ** -100


def test_base_pair_rejects_bad_index():
    spec = ProblemSpec.make(1, [0, 0], [0], [0], CTX)
    with pytest.raises(ValueError):
        base_pair(spec, 0, CTX)


def test_eval_base_midpoint():
    spec = ProblemSpec.make(1, [0, 0], [0], [0], CTX)
    term, _ = base_pair(spec, 1, CTX)
    with CTX.workprec():
        v = eval_term(term, 1, spec.X, mpf(1) / 2, ctx=CTX)
        assert abs(v - mp.sqrt(2)) < mpf(10) ** -115


def test_eval_rejects_outside_interval():
    spec = ProblemSpec.make(1, [0, 0], [0], [0], CTX)
    term, _ = base_pair(spec, 1, CTX)
    for x in (1.5, mp.nan):
        with pytest.raises(ValueError):
            eval_term(term, 1, spec.X, x, ctx=CTX)
    with pytest.raises(ValueError):
        eval_term(term, 1, spec.X, 0.5, 5, ctx=CTX)
    # a float order used to reach the derivative cache and fail there, as
    # "tuple indices must be integers or slices, not float"
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        eval_term(term, 1, spec.X, 0.5, 2.0, ctx=CTX)


def test_fourth_derivative_of_base_is_scaled_base():
    spec = ProblemSpec.make(2, [0, 0], [0], [0], CTX)
    term, lam0 = base_pair(spec, 3, CTX)
    with CTX.workprec():
        for xs in ("0.1", "0.77", "1.9"):
            x = mpf(xs)
            lhs = eval_term(term, 3, spec.X, x, 4, ctx=CTX)
            rhs = lam0 * eval_term(term, 3, spec.X, x, ctx=CTX)
            assert abs(lhs - rhs) < mpf(10) ** -100


def test_boundary_conditions_of_computed_terms(x_solution):
    with CTX.workprec():
        tol = mpf(10) ** -(CTX.digits - 20)
        for term in x_solution.terms[1:]:
            for x in (mpf(0), x_solution.X):
                assert abs(eval_term(term, 1, x_solution.X, x, 0, ctx=CTX)) < tol
                assert abs(eval_term(term, 1, x_solution.X, x, 2, ctx=CTX)) < tol


def test_orthogonality_of_computed_terms(x_potential, x_solution):
    table = moments(1, x_potential.X, x_potential.M(6), CTX)
    base = x_solution.terms[0]
    with CTX.workprec():
        amp = base.a[0]
        tol = mpf(10) ** -(CTX.digits - 20)
        for term in x_solution.terms[1:]:
            # inner product against the base eigenfunction via the moment table
            ip = mpf(0)
            for t, (at, bt) in enumerate(zip(term.a, term.b)):
                ip += table.alpha[t] * at + table.beta[t] * bt
            for t, (ct, dt) in enumerate(zip(term.c, term.d)):
                ip += table.mu[t] * ct + table.eta[t] * dt
            assert abs(amp * ip) < tol


def test_derivative_matches_central_difference(x_solution):
    with CTX.workprec():
        h = mpf(10) ** -10
        for deriv in (1, 2, 3, 4):
            for xs in ("0.31", "0.62"):
                x = mpf(xs)
                term = x_solution.terms[3]
                fd = (eval_term(term, 1, x_solution.X, x + h, deriv - 1, ctx=CTX)
                      - eval_term(term, 1, x_solution.X, x - h, deriv - 1, ctx=CTX)) / (2 * h)
                exact = eval_term(term, 1, x_solution.X, x, deriv, ctx=CTX)
                assert abs(fd - exact) <= abs(exact) * mpf(10) ** -8 + mpf(10) ** -25


def test_reflection_parity_x_potential(x_potential):
    # q0 = x on [0,1]: reflecting x -> 1-x flips the sign of every other
    # correction; which steps flip depends on the parity of n
    for n, sign_even_step, sign_odd_step in ((1, 1, -1), (2, -1, 1)):
        sol = solve(x_potential, n, 5, CTX)
        with CTX.workprec():
            tol = mpf(10) ** -(CTX.digits - 25)
            for j, term in enumerate(sol.terms):
                sign = sign_even_step if j % 2 == 0 else sign_odd_step
                for xs in ("0.13", "0.39", "0.41"):
                    x = mpf(xs)
                    left = eval_term(term, n, sol.X, 1 - x, ctx=CTX)
                    right = sign * eval_term(term, n, sol.X, x, ctx=CTX)
                    assert abs(left - right) < tol


def test_assemble_rank0(x_solution):
    sol0 = assemble(1, x_solution.X, x_solution.terms[:1], (x_solution.lambda0,), CTX)
    assert sol0.m == 0
    assert sol0.lambda_approx == sol0.lambda0
    assert sol0.lambda_corrections == ()


def test_assemble_rank1_is_base_plus_half(x_solution):
    sol1 = assemble(1, x_solution.X, x_solution.terms[:2],
                    (x_solution.lambda0,) + x_solution.lambda_corrections[:1], CTX)
    with CTX.workprec():
        assert abs(sol1.lambda_approx - (mp.pi ** 4 + mpf(1) / 2)) < mpf(10) ** -110


def test_assemble_requires_enough_entries(x_solution):
    with pytest.raises(ValueError):
        assemble(1, x_solution.X, x_solution.terms[:2], (x_solution.lambda0,), CTX)
    lambdas = (x_solution.lambda0,) + x_solution.lambda_corrections
    with pytest.raises(ValueError, match="as many terms as eigenvalue entries"):
        assemble(1, x_solution.X, x_solution.terms, lambdas[:-1], CTX)
    with pytest.raises(ValueError, match="at least one"):
        assemble(1, x_solution.X, (), (), CTX)


def test_eval_solution_sums_terms(x_solution):
    with CTX.workprec():
        x = mpf("0.37")
        total = eval_solution(x_solution, x, ctx=CTX)
        by_hand = sum(eval_term(t, 1, x_solution.X, x, ctx=CTX) for t in x_solution.terms)
        assert abs(total - by_hand) < mpf(10) ** -110


def test_serialization_roundtrip(x_solution):
    payload = solution_to_payload(x_solution, CTX)
    back = solution_from_payload(payload)
    assert back.n == x_solution.n and back.m == x_solution.m
    with CTX.workprec():
        assert back.lambda_approx == x_solution.lambda_approx
        for t1, t2 in zip(back.terms, x_solution.terms):
            assert t1.a == t2.a and t1.b == t2.b
            assert t1.c == t2.c and t1.d == t2.d
    # payload reals are decimal strings
    assert isinstance(payload["lambda_approx"], str)


def _term(a, b, c, d):
    return CorrectionTerm(*(tuple(map(mpf, arr)) for arr in (a, b, c, d)))


def test_term_rejects_mismatched_arrays():
    # a cosh array longer than the sinh array used to lose its extra entries
    with pytest.raises(ValueError, match="len"):
        _term([1, 2], [0, 1], [1], [2, 3])
    for a, b, c, d in (([1, 2], [1], [], []),          # len(b) != len(a)
                       ([], [], [], []),              # no trig power
                       ([1], [1], [1, 2], [1, 2])):   # hyperbolic longer than trig
        with pytest.raises(ValueError):
            _term(a, b, c, d)
    _term([1, 2], [0, 1], [], [])
    _term([1, 2], [0, 1], [3, 4], [5, 6])


def test_make_and_replace_keep_the_length_check():
    # namedtuple builds _make (and _replace, through it) without __new__
    term = _term([1, 2], [0, 1], [3], [4])
    assert CorrectionTerm._make(iter(term)) == term
    assert term._replace(c=(), d=()) == _term([1, 2], [0, 1], [], [])
    with pytest.raises(ValueError, match="len"):
        CorrectionTerm._make(((1,), (), (), ()))
    with pytest.raises(ValueError, match="len"):
        term._replace(b=())


def test_payload_of_several_solutions_rejected(x_solution):
    # `fdsl4 solve --n 1,2 --json F` writes a list, which used to raise AttributeError
    payload = solution_to_payload(x_solution, CTX)
    with pytest.raises(ValueError, match="a solution payload must be a JSON object, not a list"):
        solution_from_payload([payload, payload])


@pytest.mark.parametrize("field", ["format", "digits", "n", "m", "X", "lambda0",
                                   "lambda_corrections", "lambda_approx", "terms"])
def test_payload_without_a_field_rejected(x_solution, field):
    # each missing field used to raise KeyError (or, for "format", name a None format)
    payload = solution_to_payload(x_solution, CTX)
    del payload[field]
    with pytest.raises(ValueError, match=f"a solution payload has no field {field}$"):
        solution_from_payload(payload)


def test_payload_term_without_a_family_rejected(x_solution):
    # a term without "c" used to raise KeyError: 'c'
    payload = solution_to_payload(x_solution, CTX)
    del payload["terms"][2]["c"]
    with pytest.raises(ValueError, match="payload term 2 has no field c$"):
        solution_from_payload(payload)
    payload["terms"][2] = ["1"]
    with pytest.raises(ValueError, match="payload term 2 must be a JSON object, not a list"):
        solution_from_payload(payload)


@pytest.mark.parametrize("field, value, kind", [
    ("format", 1, "string"), ("digits", "40", "number"), ("n", True, "number"),
    ("m", "6", "number"), ("X", None, "string"), ("lambda0", 1.5, "string"),
    ("lambda_corrections", None, "list of strings"),
    ("lambda_corrections", ["0"] * 5 + [None], "list of strings"),
    ("lambda_approx", None, "string"), ("terms", None, "list")])
def test_payload_field_of_another_kind_rejected(x_solution, field, value, kind):
    # each used to raise a bare TypeError, load (n true is 1), or name
    # another fault (a float lambda0 loads, then misses its sum)
    payload = solution_to_payload(x_solution, CTX)
    payload[field] = value
    message = f"^a solution payload field {field} must be a JSON {kind}, got "
    with pytest.raises(ValueError, match=message):
        solution_from_payload(payload)


@pytest.mark.parametrize("family", "abcd")
def test_payload_term_family_of_another_kind_rejected(x_solution, family):
    # a null family, or a null entry in one, used to raise a bare TypeError
    for value in (None, ["1", None]):
        payload = solution_to_payload(x_solution, CTX)
        payload["terms"][2][family] = value
        message = f"^payload term 2 field {family} must be a JSON list of strings, got "
        with pytest.raises(ValueError, match=message):
            solution_from_payload(payload)


def test_payload_with_mismatched_term_rejected(x_solution):
    payload = solution_to_payload(x_solution, CTX)
    payload["terms"][2]["d"].append("1")
    with pytest.raises(ValueError, match="len"):
        solution_from_payload(payload)


def test_payload_short_of_its_rank_rejected(x_solution):
    # rank 6 with 4 terms and 3 corrections used to load as a rank-6 solution
    payload = solution_to_payload(x_solution, CTX)
    payload["terms"] = payload["terms"][:4]
    payload["lambda_corrections"] = payload["lambda_corrections"][:3]
    with pytest.raises(ValueError, match="rank 6 payload holds 4 terms and 3 corrections"):
        solution_from_payload(payload)


def test_payload_longer_than_its_rank_rejected(x_solution):
    # rank 6 with "m" edited to 3 used to load as rank 3, keeping 4 of 7 terms
    payload = solution_to_payload(x_solution, CTX)
    payload["m"] = 3
    with pytest.raises(ValueError, match="rank 3 payload holds 7 terms and 6 corrections"):
        solution_from_payload(payload)
    payload["m"] = 6
    payload["lambda_corrections"].append("0")
    with pytest.raises(ValueError, match="rank 6 payload holds 7 terms and 7 corrections"):
        solution_from_payload(payload)


def test_payload_with_bad_interval_rejected(x_solution):
    # each of these X used to load
    for X in ("0", "-1", "nan", "inf"):
        payload = solution_to_payload(x_solution, CTX)
        payload["X"] = X
        with pytest.raises(ValueError, match="interval length X must be positive and finite"):
            solution_from_payload(payload)


def test_payload_with_wrong_lambda_approx_rejected(x_solution):
    # a recorded lambda_approx of "0" used to load and report the sum instead
    payload = solution_to_payload(x_solution, CTX)
    payload["lambda_approx"] = "0"
    with pytest.raises(ValueError, match="lambda_approx 0 is not its sum"):
        solution_from_payload(payload)


def test_payload_with_term_steps_loads(x_solution):
    # older versions wrote each term's step as "j"; such a payload loads alike
    payload = solution_to_payload(x_solution, CTX)
    assert all("j" not in tp for tp in payload["terms"])
    for j, tp in enumerate(payload["terms"]):
        tp["j"] = j
    assert solution_from_payload(payload) == x_solution


def test_payload_with_other_format_rejected(x_solution):
    payload = solution_to_payload(x_solution, CTX)
    payload["format"] = "something-else"
    with pytest.raises(ValueError, match="something-else"):
        solution_from_payload(payload)


def test_derivative_arrays_are_repeated_differentiation(x_solution, b1_solutions_m20):
    # entry k of the cached tuple is _differentiate applied k times, k = 0..4,
    # with the bits of the mpf-object map, on the first terms of benchmarks 2 and 1
    for sol in (x_solution, b1_solutions_m20[1]):
        for term in sol.terms[:4]:
            with CTX.workprec():
                w = mp.pi * sol.n / sol.X
                orders = _derivative_arrays(term, sol.n, sol.X, mp.dps)
                assert len(orders) == 5
                for k in range(5):
                    arrays = (term.a, term.b, term.c, term.d)
                    for _ in range(k):
                        arrays = _differentiate(arrays, w, 1)[1]
                    assert orders[k] == arrays
                    if k:
                        assert raw_bits(arrays) == raw_bits(differentiate_mpf(orders[k - 1], w))


def test_series_dot_rejects_short_column():
    with CTX.workprec():
        arrays = ((mpf(1), mpf(2)), (mpf(3), mpf(4)), (mpf(5),), (mpf(6),))
        columns = basis_values(1, mpf(1), mpf("0.3"), 1, CTX)
        assert [len(col) for col in columns] == [2, 2, 2, 2]
        series_dot(arrays, columns)
        with pytest.raises(IndexError):
            series_dot(arrays, basis_values(1, mpf(1), mpf("0.3"), 0, CTX))


@pytest.mark.parametrize("n, X, x", [(1, "1", "0.3"), (7, "5", "4.99"), (40, "0.5", "0.123"),
                                     (3, "2", "0"), (13, "1", "1")])
def test_basis_values_trig_columns_exact(n, X, x):
    # the sin and cos columns are mp.sin(wx) x^p and mp.cos(wx) x^p bit for
    # bit, x^p taken as the running product x * x * ... that the columns use
    ctx = PrecisionContext(digits=300)
    with ctx.workprec():
        X, x = mpf(X), mpf(x)
        wx = mp.pi * n / X * x
        powers = [mpf(1)]
        for _ in range(6):
            powers.append(powers[-1] * x)
        sin_col, cos_col = basis_values(n, X, x, 6, ctx)[:2]
        assert sin_col == tuple(mp.sin(wx) * xp for xp in powers)
        assert cos_col == tuple(mp.cos(wx) * xp for xp in powers)


@pytest.mark.parametrize("n, X, x", [(1, "1", "0.3"), (7, "5", "4.99"), (40, "0.5", "0.123"),
                                     (3, "2", "0"), (50, "1", "1")])
def test_basis_values_hyperbolic_columns_exact(n, X, x):
    # one mpf_cosh_sinh call gives mp.sinh(wx) x^p and mp.cosh(wx) x^p bit for bit
    ctx = PrecisionContext(digits=300)
    with ctx.workprec():
        X, x = mpf(X), mpf(x)
        wx = mp.pi * n / X * x
        powers = [mpf(1)]
        for _ in range(6):
            powers.append(powers[-1] * x)
        sinh_col, cosh_col = basis_values(n, X, x, 6, ctx)[2:]
        assert sinh_col == tuple(mp.sinh(wx) * xp for xp in powers)
        assert cosh_col == tuple(mp.cosh(wx) * xp for xp in powers)


def test_equal_terms_share_a_cache_entry(x_solution):
    # equal terms built apart hash equal and hit one derivative-cache entry
    term = x_solution.terms[3]
    with CTX.workprec():
        twin = CorrectionTerm(*(tuple(map(mpf, arr)) for arr in term))
    assert twin == term and twin.a[0] is not term.a[0]
    assert hash(twin) == hash(term)
    _derivative_arrays.cache_clear()
    with CTX.workprec():
        first = _derivative_arrays(term, 1, x_solution.X, mp.dps)
        assert _derivative_arrays(twin, 1, x_solution.X, mp.dps) is first
    info = _derivative_arrays.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["0.5", "1", "2", "5"]),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=4),
       st.randoms(use_true_random=False))
def test_eval_term_matches_horner(X, n, trig_len, hyp_len, deriv, rng):
    # the dot product against point-evaluation columns and the Horner loop
    # agree to rounding, measured against the sum of absolute summands
    hyp_len = min(hyp_len, trig_len)
    with CTX.workprec():
        X = mpf(X)
        arrays = tuple(tuple(rng.choice((-1, 1)) * mpf(rng.randint(1, 10 ** 6)) / 10 ** 6
                             for _ in range(size))
                       for size in (trig_len, trig_len, hyp_len, hyp_len))
        term = CorrectionTerm(*arrays)
        x = X * mpf(rng.randint(0, 10 ** 6)) / 10 ** 6
        w = mp.pi * n / X
        for _ in range(deriv):
            assert raw_bits(_differentiate(arrays, w, 1)[1]) == raw_bits(differentiate_mpf(arrays, w))
            arrays = _differentiate(arrays, w, 1)[1]
        basis = tuple(f(w * x) for f in (mp.sin, mp.cos, mp.sinh, mp.cosh))
        want = horner_series(arrays, x, basis)
        size = horner_series(tuple(tuple(map(abs, arr)) for arr in arrays), x,
                             tuple(map(abs, basis)))
        got = eval_term(term, n, X, x, deriv, ctx=CTX)
        assert abs(got - want) <= mpf(10) ** -(CTX.digits - 10) * size
