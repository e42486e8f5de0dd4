import random
from fractions import Fraction

import pytest

from conethom.cone import (
    ConePair,
    ConnectionMatrix,
    EndomorphismField,
    cone_covariant,
    cone_d,
)
from conethom.forms import ChartSpec, Form
from conethom.instances import GenConfig, generate, random_form, random_pair
from conethom.scalars import Scalar

CHART = ChartSpec(2, 2)
TABLE = CHART.table


def const_phi(c):
    z = Scalar.zero(TABLE)
    v = Scalar.rational(TABLE, c)
    return EndomorphismField(CHART, [[z, -v], [v, z]])


def simple_eta():
    z = Form.zero(CHART)
    a = Form.single(CHART, Scalar.variable(TABLE, "x1"), d=("dx2",)) + Form.single(
        CHART, Scalar.rational(TABLE, Fraction(1, 3)), d=("dx1",)
    )
    return ConnectionMatrix(CHART, [[z, a], [-a, z]])


def closed_omega():
    return Form.single(CHART, Scalar.rational(TABLE, 2), d=("dx1", "dx2"))


# ----------------------------------------------------------------------
# pair product


def test_pair_unit():
    rng = random.Random(1)
    unit = ConePair.one(CHART)
    for _ in range(10):
        p = random_pair(rng, CHART, max_gauss=1)
        assert unit.wedge(p) == p
        assert p.wedge(unit) == p


def test_second_components_never_multiply():
    one = Form.one(CHART)
    p = ConePair(Form.zero(CHART), one)
    assert p.wedge(p) == ConePair.zero(CHART)


def test_pair_wedge_scalar_into_second_slot():
    chart = ChartSpec(0, 1)
    y1 = Form.from_scalar(chart, Scalar.variable(chart.table, "y1"))
    p = ConePair(y1, Form.zero(chart))
    q = ConePair(Form.zero(chart), Form.one(chart))
    assert p.wedge(q) == ConePair(Form.zero(chart), y1)


def test_pair_wedge_associative_randomized():
    rng = random.Random(2)
    for _ in range(40):
        p = random_pair(rng, CHART, max_gauss=1, terms=2)
        q = random_pair(rng, CHART, max_gauss=1, terms=2)
        r = random_pair(rng, CHART, max_gauss=1, terms=2)
        assert p.wedge(q).wedge(r) == p.wedge(q.wedge(r))


def test_pair_chart_mismatch():
    with pytest.raises(ValueError):
        ConePair(Form.one(CHART), Form.one(ChartSpec(1, 1)))


# ----------------------------------------------------------------------
# cone differential


def test_cone_d_on_unit_second_slot():
    omega = closed_omega()
    p = ConePair(Form.zero(CHART), Form.one(CHART))
    assert cone_d(p, omega) == ConePair(omega, Form.zero(CHART))


def test_cone_d_nilpotent():
    rng = random.Random(3)
    omega = closed_omega()
    for _ in range(25):
        p = random_pair(rng, CHART, max_gauss=1)
        assert cone_d(cone_d(p, omega), omega).is_zero


def test_cone_d_zero_twist_is_componentwise():
    rng = random.Random(4)
    zero = Form.zero(CHART)
    for _ in range(10):
        p = random_pair(rng, CHART, max_gauss=1)
        assert cone_d(p, zero) == ConePair(p.first.d(), -p.second.d())


def test_cone_d_validates_twist():
    bad = Form.single(CHART, Scalar.variable(TABLE, "y1"), d=("dx1", "dx2"))
    p = ConePair.one(CHART)
    with pytest.raises(ValueError):
        cone_d(p, bad)
    not_two_form = Form.single(CHART, 1, d=("dx1",))
    with pytest.raises(ValueError):
        cone_d(p, not_two_form)
    # the bypass computes anyway
    cone_d(p, not_two_form, check=False)


def test_cone_d_rejects_nonclosed_base_two_form():
    chart = ChartSpec(3, 1)
    bad = Form.single(chart, Scalar.variable(chart.table, "x3"), d=("dx1", "dx2"))
    with pytest.raises(ValueError, match="not closed"):
        cone_d(ConePair.one(chart), bad)


# ----------------------------------------------------------------------
# endomorphism derivation


def test_derivation_vanishes_on_fiber_free():
    phi = const_phi(5)
    a = Form.single(CHART, Scalar.variable(TABLE, "x1"), d=("dx1",), gauss=1)
    assert phi.derivation(a).is_zero


def test_derivation_matrix_action_on_generator():
    c = Fraction(3, 7)
    phi = const_phi(c)
    assert phi.derivation(Form.fiber(CHART, 1)) == Form.fiber(CHART, 2).scale(c)


def test_derivation_kills_top_word_for_skew():
    phi = const_phi(2)
    top = Form.single(CHART, 1, e=("e1", "e2"))
    assert phi.derivation(top).is_zero


def test_derivation_leibniz():
    rng = random.Random(5)
    data = generate(GenConfig(m=2, n=3, seed=9))
    chart = data.chart
    for _ in range(25):
        a = random_form(rng, chart, terms=2, max_gauss=1)
        b = random_form(rng, chart, terms=2, max_gauss=1)
        lhs = data.phi.derivation(a.wedge(b))
        rhs = data.phi.derivation(a).wedge(b) + a.wedge(data.phi.derivation(b))
        assert lhs == rhs


def test_endomorphism_validation():
    z = Scalar.zero(TABLE)
    v = Scalar.rational(TABLE, 1)
    with pytest.raises(ValueError, match="not skew"):
        EndomorphismField(CHART, [[z, v], [v, z]])
    with pytest.raises(ValueError, match="fiber variable"):
        y = Scalar.variable(TABLE, "y1")
        EndomorphismField(CHART, [[z, y], [-y, z]])
    # bypass for harness use
    EndomorphismField(CHART, [[z, v], [v, z]], check=False)


OTHER = ChartSpec(3, 2)
ZERO_SCALAR, ZERO_FORM = Scalar.zero(TABLE), Form.zero(CHART)
Y1, S = Scalar.variable(TABLE, "y1"), Scalar.s_power(TABLE, 1)


def skew_pair(entry, zero):
    return [[zero, entry], [-entry, zero]]


# a Scalar entry always lifts to a 0-form, so the degree rule binds only
# the connection
@pytest.mark.parametrize(
    "cls, entries, message",
    [
        pytest.param(EndomorphismField, [[ZERO_SCALAR]], "endomorphism matrix must be 2x2", id="phi-shape"),
        pytest.param(ConnectionMatrix, [[ZERO_FORM]], "connection matrix must be 2x2", id="eta-shape"),
        pytest.param(EndomorphismField, skew_pair(Scalar.one(OTHER.table), ZERO_SCALAR), "foreign", id="phi-table"),
        pytest.param(ConnectionMatrix, skew_pair(Form.single(OTHER, 1, d=("dx1",)), ZERO_FORM), "foreign", id="eta-chart"),
        pytest.param(EndomorphismField, skew_pair(Y1, ZERO_SCALAR), "fiber variable y1", id="phi-fiber"),
        pytest.param(
            ConnectionMatrix, skew_pair(Form.single(CHART, Y1, d=("dx1",)), ZERO_FORM), "fiber variable y1", id="eta-fiber"
        ),
        pytest.param(EndomorphismField, skew_pair(S, ZERO_SCALAR), "unit s", id="phi-s"),
        pytest.param(ConnectionMatrix, skew_pair(Form.single(CHART, S, d=("dx1",)), ZERO_FORM), "unit s", id="eta-s"),
        pytest.param(
            ConnectionMatrix, skew_pair(Form.single(CHART, 1, d=("dx1", "dx2")), ZERO_FORM), "base 1-form", id="eta-degree"
        ),
        pytest.param(
            EndomorphismField, [[ZERO_SCALAR, Scalar.one(TABLE)]] * 2, "endomorphism not skew", id="phi-skew"
        ),
        pytest.param(ConnectionMatrix, [[ZERO_FORM, Form.single(CHART, 1, d=("dx1",))]] * 2, "connection not skew", id="eta-skew"),
    ],
)
def test_matrix_validation_rules(cls, entries, message):
    with pytest.raises(ValueError, match=message):
        cls(CHART, entries)


# ----------------------------------------------------------------------
# covariant derivative


def test_covariant_reduces_to_d_for_zero_connection():
    rng = random.Random(6)
    eta = ConnectionMatrix.zero(CHART)
    for _ in range(10):
        a = random_form(rng, CHART, terms=3, max_gauss=1)
        assert eta.covariant_d(a) == a.d()


def test_covariant_on_frame_generator():
    eta = simple_eta()
    expect = Form.zero(CHART)
    for i in range(2):
        expect = expect + eta.entry(i, 1).wedge(Form.fiber(CHART, i + 1))
    assert eta.covariant_d(Form.fiber(CHART, 2)) == expect


def test_structural_identity():
    eta = simple_eta()
    for j in range(2):
        lhs = eta.covariant_d(eta.covariant_d(Form.fiber(CHART, j + 1)))
        expect = Form.zero(CHART)
        for i in range(2):
            r_ij = eta.entry(i, j).d()
            for k in range(2):
                r_ij = r_ij + eta.entry(i, k).wedge(eta.entry(k, j))
            expect = expect + r_ij.wedge(Form.fiber(CHART, i + 1))
        assert lhs == expect


def test_connection_validation():
    z = Form.zero(CHART)
    a = Form.single(CHART, 1, d=("dx1",))
    with pytest.raises(ValueError, match="not skew"):
        ConnectionMatrix(CHART, [[z, a], [a, z]])
    with pytest.raises(ValueError, match="base 1-form"):
        bad = Form.single(CHART, 1, d=("dy1",))
        ConnectionMatrix(CHART, [[z, bad], [-bad, z]])
    ConnectionMatrix(CHART, [[z, a], [a, z]], check=False)


# ----------------------------------------------------------------------
# cone covariant derivative and berezin commutation


def test_cone_covariant_trivial_data_is_cone_d():
    rng = random.Random(8)
    eta = ConnectionMatrix.zero(CHART)
    phi = EndomorphismField.zero(CHART)
    zero = Form.zero(CHART)
    for _ in range(10):
        p = random_pair(rng, CHART, max_gauss=1)
        assert cone_covariant(eta, phi, zero, p) == ConePair(p.first.d(), -p.second.d())


def test_cone_covariant_on_frame_pairs():
    eta, phi, omega = simple_eta(), const_phi(Fraction(2, 5)), closed_omega()
    e2 = Form.fiber(CHART, 2)
    out = cone_covariant(eta, phi, omega, ConePair(e2, Form.zero(CHART)))
    expect_first = sum(
        (eta.entry(i, 1).wedge(Form.fiber(CHART, i + 1)) for i in range(2)),
        Form.zero(CHART),
    )
    expect_second = sum(
        (Form.fiber(CHART, i + 1).scale(phi.entry(i, 1)) for i in range(2)),
        Form.zero(CHART),
    )
    assert out == ConePair(expect_first, expect_second)

    out2 = cone_covariant(eta, phi, omega, ConePair(Form.zero(CHART), e2))
    assert out2 == ConePair(omega.wedge(e2), -expect_first)


def test_pair_contraction_examples_and_nilpotency():
    chart = ChartSpec(1, 1)
    y1 = Form.from_scalar(chart, Scalar.variable(chart.table, "y1"))
    e1 = Form.fiber(chart, 1)
    p = ConePair(e1, Form.zero(chart))
    assert p.contract_tautological() == ConePair(y1, Form.zero(chart))
    q = ConePair(Form.zero(chart), e1)
    assert q.contract_tautological() == ConePair(Form.zero(chart), -y1)
    rng = random.Random(9)
    for _ in range(20):
        r = random_pair(rng, CHART, max_gauss=1)
        assert r.contract_tautological().contract_tautological().is_zero


def test_pair_berezin_componentwise():
    top = Form.single(CHART, Scalar.variable(TABLE, "x2"), d=("dx1",), e=("e1", "e2"))
    p = ConePair(top, Form.one(CHART))
    out = p.berezin()
    assert out.first == Form.single(CHART, Scalar.variable(TABLE, "x2"), d=("dx1",))
    assert out.second.is_zero


def test_berezin_of_derivation_vanishes_for_skew():
    rng = random.Random(10)
    data = generate(GenConfig(m=2, n=3, seed=21))
    for _ in range(20):
        a = random_form(rng, data.chart, terms=3, max_gauss=1)
        assert data.phi.derivation(a).berezin().is_zero


def test_berezin_commutes_with_cone_structure_base_pairs():
    rng = random.Random(11)
    for seed in (1, 2, 3):
        data = generate(GenConfig(m=2, n=2, seed=seed))
        for _ in range(6):
            p = random_pair(rng, data.chart, base_only=True)
            lhs = cone_d(p.berezin(), data.omega)
            rhs = cone_covariant(data.eta, data.phi, data.omega, p).berezin()
            assert lhs == rhs


def test_berezin_commutes_on_total_space_with_contraction():
    rng = random.Random(12)
    for seed in (4, 5):
        data = generate(GenConfig(m=2, n=3, seed=seed))
        for _ in range(6):
            p = random_pair(rng, data.chart, max_gauss=2)
            lhs = cone_d(p.berezin(), data.omega)
            rhs = (
                cone_covariant(data.eta, data.phi, data.omega, p)
                + p.contract_tautological()
            ).berezin()
            assert lhs == rhs


def test_pair_scale_refuses_floats():
    pair = ConePair(Form.one(CHART), Form.single(CHART, 3, d=("dx1",)))
    with pytest.raises(TypeError):
        pair.scale(0.25)
    assert pair.scale(Fraction(1, 4)).scale(4) == pair
