import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conethom.scalars import (
    EXPONENT_LIMIT,
    Monomial,
    Scalar,
    VarTable,
    rational_from_str,
    var_table,
)

TABLE = var_table(2, 2)  # x1 x2 y1 y2 t


def x1():
    return Scalar.variable(TABLE, "x1")


def test_additive_cancellation_leaves_s_power():
    a = x1() + Scalar.s_power(TABLE, -1)
    b = -x1()
    assert a + b == Scalar.s_power(TABLE, -1)


def test_monomial_product():
    y1 = Scalar.variable(TABLE, "y1")
    assert y1 * y1 == Scalar.term(TABLE, 1, {"y1": 2})


def test_exact_rational_product():
    half = Scalar.rational(TABLE, Fraction(1, 2))
    two_thirds = Scalar.rational(TABLE, Fraction(2, 3))
    assert half * two_thirds == Scalar.rational(TABLE, Fraction(1, 3))


def test_power_rule():
    sq = Scalar.term(TABLE, 1, {"y1": 2})
    assert sq.partial("y1") == Scalar.term(TABLE, 2, {"y1": 1})


def test_partial_of_independent_variable_is_zero():
    a = Scalar.term(TABLE, 1, {"y2": 1, "s": 1})
    assert a.partial("x1").is_zero


def test_t_partial():
    a = Scalar.term(TABLE, 1, {"t": 1, "x1": 1}) + Scalar.term(TABLE, 1, {"t": 2})
    assert a.partial("t") == x1() + Scalar.term(TABLE, 2, {"t": 1})


def test_partial_rejects_s_and_undeclared():
    with pytest.raises(ValueError):
        x1().partial("s")
    with pytest.raises(ValueError):
        x1().partial("x9")


def test_table_mismatch_rejected():
    other = Scalar.variable(var_table(3, 1), "x1")
    with pytest.raises(ValueError):
        x1() + other
    with pytest.raises(ValueError):
        x1() * other


def test_evaluate_square():
    assert (x1() * x1()).evaluate({"x1": 3.0}, 1.0) == pytest.approx(9.0)


def test_evaluate_s_unit():
    s = Scalar.s_power(TABLE, 1)
    assert s.evaluate({}, math.sqrt(2 * math.pi)) == pytest.approx(2.5066282746310002)


def test_evaluate_zero_scalar():
    assert Scalar.zero(TABLE).evaluate({"x1": 123.0}, 0.5) == 0.0


def test_evaluate_missing_binding():
    with pytest.raises(ValueError):
        x1().evaluate({}, 1.0)


def test_negative_variable_exponent_rejected():
    with pytest.raises(ValueError):
        Scalar(TABLE, {Monomial((-1, 0, 0, 0, 0), 0): Fraction(1)})


def test_rational_codec():
    assert Scalar.rational(TABLE, Fraction(6, -14)).to_obj() == [[{}, "-3/7"]]
    assert rational_from_str("-3/7") == Fraction(-3, 7)
    for bad in ("3", "1/0", "1/-2", "a/b"):
        with pytest.raises(ValueError):
            rational_from_str(bad)


def test_obj_round_trip():
    a = (
        Scalar.term(TABLE, Fraction(3, 4), {"x1": 2, "y2": 1})
        + Scalar.term(TABLE, Fraction(-1, 2), {"s": -3})
        + Scalar.one(TABLE)
    )
    assert Scalar.from_obj(TABLE, a.to_obj()) == a


def test_from_obj_merges_repeats_and_drops_cancellations():
    payload = [
        [{"x1": 1}, "1/2"],
        [{"y1": 2}, "3/1"],
        [{"x1": 1}, "1/3"],
        [{"y1": 2}, "-3/1"],
    ]
    out = Scalar.from_obj(TABLE, payload)
    assert out == Scalar.term(TABLE, Fraction(5, 6), {"x1": 1})
    assert out == sum(
        (Scalar.term(TABLE, rational_from_str(c), m) for m, c in payload), Scalar.zero(TABLE)
    )


# ----------------------------------------------------------------------
# randomized ring laws

_coeffs = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)


@st.composite
def raw_terms(draw, max_terms=4, max_degree=6):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_degree // 2)) for _ in range(TABLE.size)
        )
        s_exp = draw(st.integers(-2, 2))
        terms[Monomial(exps, s_exp)] = draw(_coeffs)
    return terms


def scalars():
    return raw_terms().map(lambda terms: Scalar(TABLE, terms))


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_additive_inverse(a):
    assert (a + (-a)).is_zero


@settings(max_examples=60, deadline=None)
@given(scalars(), st.sampled_from(TABLE.names), st.sampled_from(TABLE.names))
def test_mixed_partials_commute(a, u, v):
    assert a.partial(u).partial(v) == a.partial(v).partial(u)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_evaluate_is_ring_homomorphism(a, b):
    point = {name: 0.5 + 0.25 * i for i, name in enumerate(TABLE.names)}
    s_val = math.sqrt(2 * math.pi)
    lhs = (a * b).evaluate(point, s_val)
    rhs = a.evaluate(point, s_val) * b.evaluate(point, s_val)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    lhs_add = (a + b).evaluate(point, s_val)
    rhs_add = a.evaluate(point, s_val) + b.evaluate(point, s_val)
    assert lhs_add == pytest.approx(rhs_add, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# reference oracle: the plain ring of Fraction coefficients on exponent
# tuples, which the packed integer representation must reproduce exactly


def _ref_add(a, b, sign=1):
    out = dict(a)
    for mono, q in b.items():
        out[mono] = out.get(mono, 0) + sign * q
    return {mono: q for mono, q in out.items() if q}


def _ref_mul(a, b):
    out = {}
    for (e1, s1), p in a.items():
        for (e2, s2), q in b.items():
            mono = (tuple(x + y for x, y in zip(e1, e2)), s1 + s2)
            out[mono] = out.get(mono, 0) + p * q
    return {mono: q for mono, q in out.items() if q}


def _ref_scaled(a, c):
    return {mono: q * c for mono, q in a.items() if q * c}


def _ref_partial(a, name):
    i = TABLE.names.index(name)
    out = {}
    for (e, s), q in a.items():
        if e[i]:
            lower = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[(lower, s)] = q * e[i]
    return out


def _ref_to_obj(a):
    out = []
    for (e, s), q in sorted(a.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1])):
        mono = {TABLE.names[i]: x for i, x in enumerate(e) if x}
        if s:
            mono["s"] = s
        out.append([mono, f"{q.numerator}/{q.denominator}"])
    return out


def _ref_from_obj(obj):
    out = {}
    for mono, text in obj:
        e = tuple(mono.get(name, 0) for name in TABLE.names)
        out = _ref_add(out, {(e, mono.get("s", 0)): Fraction(text)})
    return out


def _canonical(a: Scalar) -> bool:
    return a.den >= 1 and 0 not in a.terms.values() and math.gcd(a.den, *a.terms.values()) == 1


@settings(max_examples=80, deadline=None)
@given(raw_terms(), raw_terms(), _coeffs, st.sampled_from(TABLE.names))
def test_ring_matches_reference_oracle(ta, tb, c, name):
    a, b = Scalar(TABLE, ta), Scalar(TABLE, tb)
    ra = {(mono.exps, mono.s): q for mono, q in ta.items() if q}
    rb = {(mono.exps, mono.s): q for mono, q in tb.items() if q}
    cases = [
        (a, ra),
        (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, rb, -1)),
        (a * b, _ref_mul(ra, rb)),
        (a.scaled(c), _ref_scaled(ra, c)),
        (a.partial(name), _ref_partial(ra, name)),
    ]
    payload = _ref_to_obj(ra) + _ref_to_obj(rb)
    cases.append((Scalar.from_obj(TABLE, payload), _ref_from_obj(payload)))
    for got, expect in cases:
        assert got.to_obj() == _ref_to_obj(expect)
        assert _canonical(got)
    # exact cancellation down to the canonical zero
    for zero in ((a + b) - b - a, (a + b) * (a - b) - (a * a - b * b), a.scaled(c) - a * Scalar.rational(TABLE, c)):
        assert zero.to_obj() == [] and zero == Scalar.zero(TABLE) and zero.den == 1


def test_equal_values_share_one_representation():
    third = Scalar.rational(TABLE, Fraction(1, 3))
    a = third + third + third
    assert a == Scalar.one(TABLE)
    assert a.den == 1 and a.terms == Scalar.one(TABLE).terms


# ----------------------------------------------------------------------
# bounded exponents and exact inputs


@pytest.mark.parametrize(
    "message,build",
    [
        (f"exponent {2**20} of x1", lambda: Scalar.term(TABLE, 1, {"x1": 2**20})),
        (f"exponent {EXPONENT_LIMIT} of y2", lambda: Scalar.term(TABLE, 1, {"y2": EXPONENT_LIMIT})),
        (
            f"exponent {EXPONENT_LIMIT} of t",
            lambda: Scalar(TABLE, {Monomial((0, 0, 0, 0, EXPONENT_LIMIT), 0): Fraction(1)}),
        ),
        (
            f"exponent {EXPONENT_LIMIT} of y1",
            lambda: Scalar.from_obj(TABLE, [[{"y1": EXPONENT_LIMIT, "s": -1}, "1/2"]]),
        ),
        ("exponent 2.5 of x2 is not an integer", lambda: Scalar.from_obj(TABLE, [[{"x2": 2.5}, "1/1"]])),
        ("exponent True of s is not an integer", lambda: Scalar.from_obj(TABLE, [[{"s": True}, "1/1"]])),
    ],
)
def test_exponent_at_the_limit_is_rejected(message, build):
    with pytest.raises(ValueError, match=message):
        build()


def test_largest_exponent_round_trips():
    a = Scalar.term(TABLE, Fraction(-2, 9), {"x1": EXPONENT_LIMIT - 1, "t": EXPONENT_LIMIT - 1, "s": -5})
    assert Scalar.from_obj(TABLE, a.to_obj()) == a
    assert a.to_obj() == [[{"x1": EXPONENT_LIMIT - 1, "t": EXPONENT_LIMIT - 1, "s": -5}, "-2/9"]]


def test_product_overflow_raises_instead_of_wrapping():
    big = Scalar.term(TABLE, 1, {"y1": EXPONENT_LIMIT - 1, "s": -3})
    with pytest.raises(ValueError, match="exponent of y1 overflows"):
        big * Scalar.variable(TABLE, "y1")
    half = Scalar.term(TABLE, 1, {"t": EXPONENT_LIMIT // 2})
    with pytest.raises(ValueError, match="exponent of t overflows"):
        half * half
    fine = big * Scalar.variable(TABLE, "x1")
    assert fine.to_obj() == [[{"x1": 1, "y1": EXPONENT_LIMIT - 1, "s": -3}, "1/1"]]


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Scalar.rational(TABLE, 0.1)
    with pytest.raises(TypeError):
        Scalar.term(TABLE, 0.5, {"x1": 1})
    with pytest.raises(TypeError):
        x1().scaled(0.5)
    with pytest.raises(TypeError):
        x1() * 0.5
    with pytest.raises(TypeError):
        Scalar(TABLE, {Monomial((1, 0, 0, 0, 0), 0): 0.25})
    assert Scalar.rational(TABLE, True) == Scalar.one(TABLE)
