import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conethom.scalars import (
    Monomial,
    Scalar,
    VarTable,
    rational_from_str,
    rational_to_str,
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
    assert rational_to_str(Fraction(-3, 7)) == "-3/7"
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
def scalars(draw, max_terms=4, max_degree=6):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_degree // 2)) for _ in range(TABLE.size)
        )
        s_exp = draw(st.integers(-2, 2))
        terms[Monomial(exps, s_exp)] = draw(_coeffs)
    return Scalar(TABLE, terms)


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
