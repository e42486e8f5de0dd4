import random
from fractions import Fraction

import pytest

from conethom.forms import ChartSpec, Form, merge_sign, tautological_section
from conethom.instances import random_form
from conethom.scalars import EXPONENT_LIMIT, Scalar
from frames import rotate_frame

CHART = ChartSpec(2, 2)
TABLE = CHART.table


def sc(value):
    return Scalar.rational(TABLE, value)


def test_chart_validation():
    with pytest.raises(ValueError):
        ChartSpec(-1, 2)
    with pytest.raises(ValueError):
        ChartSpec(2, 0)
    with pytest.raises(ValueError):
        ChartSpec(60, 3)


def test_one_form_antisymmetry():
    dx1, dx2 = Form.single(CHART, 1, d=("dx1",)), Form.single(CHART, 1, d=("dx2",))
    plus = dx1.wedge(dx2)
    assert plus == Form.single(CHART, 1, d=("dx1", "dx2"))
    assert dx2.wedge(dx1) == -plus
    assert dx1.wedge(dx1).is_zero


def test_fiber_crossing_sign():
    # fiber generator crossing a one-form flips the sign
    e1 = Form.fiber(CHART, 1)
    dx1_e2 = Form.single(CHART, 1, d=("dx1",), e=("e2",))
    assert e1.wedge(dx1_e2) == Form.single(CHART, -1, d=("dx1",), e=("e1", "e2"))


def test_dy_tensor_fiber_product():
    a = Form.single(CHART, 1, d=("dy1",), e=("e1",))
    b = Form.single(CHART, 1, d=("dy2",), e=("e2",))
    expect = Form.single(CHART, -1, d=("dy1", "dy2"), e=("e1", "e2"))
    assert a.wedge(b) == expect
    # and therefore these factors commute with each other
    assert b.wedge(a) == expect


def test_single_folds_permutation_sign():
    assert Form.single(CHART, 1, d=("dx2", "dx1")) == Form.single(CHART, -1, d=("dx1", "dx2"))
    assert Form.single(CHART, 1, e=("e2", "e1")) == Form.single(CHART, -1, e=("e1", "e2"))
    assert Form.single(CHART, 1, d=("dx1", "dx1")).is_zero


def test_wedge_chart_mismatch():
    other = Form.one(ChartSpec(1, 1))
    with pytest.raises(ValueError):
        Form.one(CHART).wedge(other)


def test_exterior_derivative_of_coefficient():
    a = Form.single(CHART, Scalar.variable(TABLE, "x1"), d=("dx2",))
    assert a.d() == Form.single(CHART, 1, d=("dx1", "dx2"))


def test_gaussian_chain_rule():
    chart = ChartSpec(0, 1)
    gauss = Form.one(chart).times_gaussian(1)
    expect = Form.single(chart, -Scalar.variable(chart.table, "y1"), gauss=1, d=("dy1",))
    assert gauss.d() == expect


def test_d_squared_zero_randomized():
    rng = random.Random(7)
    for _ in range(40):
        a = random_form(rng, CHART, terms=3, max_gauss=2)
        assert a.d().d().is_zero


def test_contraction_examples():
    chart = ChartSpec(1, 1)
    t = chart.table
    assert Form.fiber(chart, 1).contract_tautological() == Form.from_scalar(
        chart, Scalar.variable(t, "y1")
    )
    dx1_e1 = Form.single(chart, 1, d=("dx1",), e=("e1",))
    assert dx1_e1.contract_tautological() == Form.single(
        chart, -Scalar.variable(t, "y1"), d=("dx1",)
    )


def test_contraction_is_antiderivation_on_fiber_word():
    word = Form.single(CHART, 1, e=("e1", "e2"))
    y1 = Scalar.variable(TABLE, "y1")
    y2 = Scalar.variable(TABLE, "y2")
    expect = Form.single(CHART, y1, e=("e2",)) + Form.single(CHART, -y2, e=("e1",))
    assert word.contract_tautological() == expect


def test_contraction_nilpotent_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a = random_form(rng, CHART, terms=3, max_gauss=1)
        assert a.contract_tautological().contract_tautological().is_zero


def test_berezin_examples():
    alpha = Form.single(CHART, sc(Fraction(5, 3)), d=("dx1",))
    top = alpha.wedge(Form.single(CHART, 1, e=("e1", "e2")))
    assert top.berezin() == alpha
    assert Form.single(CHART, 1, e=("e1",)).berezin().is_zero
    assert Form.one(CHART).berezin().is_zero


def test_fiber_word_pieces():
    alpha = Form.single(CHART, sc(Fraction(5, 3)), gauss=1, d=("dx1",))
    e1, e2 = CHART.fiber_bit(1), CHART.fiber_bit(2)
    mixed = alpha + alpha.on_fiber_word(e1) + alpha.on_fiber_word(e1 | e2).scale(2)
    assert alpha.on_fiber_word(e1) == alpha.wedge(Form.fiber(CHART, 1))
    assert mixed.fiber_coefficient(e1) == alpha
    assert mixed.fiber_coefficient(e2).is_zero
    assert mixed.fiber_coefficient(e1 | e2) == mixed.berezin() == alpha.scale(2)
    assert mixed.fiber_degree_part(0) == alpha
    assert mixed.fiber_degree_part(1) == alpha.on_fiber_word(e1)
    with pytest.raises(ValueError, match="already carries a fiber word"):
        mixed.on_fiber_word(e2)
    with pytest.raises(ValueError, match="does not fit"):
        alpha.on_fiber_word(1 << CHART.n)


def test_from_obj_merges_repeats_and_drops_cancellations():
    x1 = [[{"x1": 1}, "1/1"]]
    payload = [
        {"gauss": 1, "d": ["dy1"], "e": ["e1"], "coeff": x1},
        {"gauss": 0, "d": ["dx1", "dx2"], "e": [], "coeff": [[{}, "2/3"]]},
        {"gauss": 1, "d": ["dy1"], "e": ["e1"], "coeff": x1},
        {"gauss": 0, "d": ["dx2", "dx1"], "e": [], "coeff": [[{}, "2/3"]]},
    ]
    out = Form.from_obj(CHART, payload)
    expect = Form.single(CHART, Scalar.term(CHART.table, 2, {"x1": 1}), gauss=1, d=("dy1",), e=("e1",))
    assert out == expect
    assert len(out.terms) == 1
    summed = Form.zero(CHART)
    for entry in payload:
        coeff = Scalar.from_obj(CHART.table, entry["coeff"])
        summed = summed + Form.single(CHART, coeff, gauss=entry["gauss"], d=entry["d"], e=entry["e"])
    assert out == summed
    assert Form.from_obj(CHART, out.to_obj()) == out


def test_contract_of_tautological_is_norm():
    v = tautological_section(CHART)
    norm = Scalar.term(TABLE, 1, {"y1": 2}) + Scalar.term(TABLE, 1, {"y2": 2})
    assert v.contract_tautological() == Form.from_scalar(CHART, norm)


# ----------------------------------------------------------------------
# frame rotation

ROT90 = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
ROT345 = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]


def test_rotate_identity():
    rng = random.Random(3)
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(10):
        a = random_form(rng, CHART, terms=3, max_gauss=1)
        assert rotate_frame(a, eye) == a


def test_rotate_quarter_turn_maps_generators():
    e1, e2 = Form.fiber(CHART, 1), Form.fiber(CHART, 2)
    assert rotate_frame(e1, ROT90) == e2
    assert rotate_frame(e2, ROT90) == -e1


def test_berezin_invariant_under_rotations():
    rng = random.Random(5)
    for matrix in (ROT90, ROT345):
        for _ in range(15):
            a = random_form(rng, CHART, terms=4, max_gauss=1)
            assert rotate_frame(a, matrix).berezin() == a.berezin()


# ----------------------------------------------------------------------
# algebra laws on randomized forms


def total_parity(form):
    (term,) = form.terms
    return term.word.bit_count() & 1


def random_pure_term(rng, chart):
    while True:
        f = random_form(rng, chart, terms=1, max_gauss=1)
        if f.terms:
            return f


def test_wedge_associative_randomized():
    rng = random.Random(13)
    for _ in range(60):
        a = random_form(rng, CHART, terms=2, max_gauss=1)
        b = random_form(rng, CHART, terms=2, max_gauss=1)
        c = random_form(rng, CHART, terms=2, max_gauss=1)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_bilinear_randomized():
    rng = random.Random(29)
    for _ in range(30):
        a = random_form(rng, CHART, terms=2, max_gauss=1)
        b = random_form(rng, CHART, terms=2, max_gauss=1)
        c = random_form(rng, CHART, terms=2, max_gauss=1)
        assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


def test_graded_commutativity_on_pure_terms():
    rng = random.Random(17)
    for _ in range(60):
        a = random_pure_term(rng, CHART)
        b = random_pure_term(rng, CHART)
        sign = -1 if total_parity(a) and total_parity(b) else 1
        assert a.wedge(b) == b.wedge(a).scale(sign)


def test_d_is_antiderivation_on_fiber_free_forms():
    rng = random.Random(19)
    for _ in range(40):
        a = random_form(rng, CHART, terms=2, with_fiber=False, max_gauss=1)
        b = random_form(rng, CHART, terms=2, with_fiber=False, max_gauss=1)
        for term in list(a.terms):
            # make a homogeneous in form degree so the parity is well defined
            a_deg = term.word.bit_count()
            break
        else:
            continue
        a_h = Form(CHART, {t: c for t, c in a.terms.items() if t.word.bit_count() == a_deg})
        lhs = a_h.wedge(b).d()
        rhs = a_h.d().wedge(b) + a_h.wedge(b.d()).scale(-1 if a_deg & 1 else 1)
        assert lhs == rhs


def test_merge_sign_is_transposition_parity():
    # e.g. merging {bit2} after {bit0, bit3}: one inversion (bit3 > bit2)
    assert merge_sign(0b1001, 0b0100) == -1
    assert merge_sign(0b0011, 0b1100) == 1
    assert merge_sign(0, 0b111) == 1


def test_wedge_overflow_raises_instead_of_wrapping():
    big = Form.single(CHART, Scalar.term(TABLE, 1, {"x1": EXPONENT_LIMIT - 1}), d=("dx1",))
    x1 = Form.single(CHART, Scalar.variable(TABLE, "x1"), e=("e1",))
    with pytest.raises(ValueError, match="exponent of x1 overflows"):
        big.wedge(x1)


def test_scale_refuses_floats():
    a = Form.single(CHART, Scalar.variable(TABLE, "x1"), d=("dx1",))
    with pytest.raises(TypeError):
        a.scale(0.5)
    with pytest.raises(TypeError):
        Form.zero(CHART).scale(0.0)
    assert a.scale(Fraction(1, 2)).scale(2) == a
