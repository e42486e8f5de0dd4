"""Pairs as forms a + theta b against the slot rules they replaced.

``tests/slot_rules.py`` keeps the rules that acted on the two slots of a
pair one by one. Each is compared here with the form algebra's own
operation on a + theta b, on random pairs over t-family instances, and
the Thom representative is rebuilt through the slot rules' product.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import slot_rules
from conethom import thom
from conethom.cone import ConePair, cone_covariant, cone_d
from conethom.forms import Form
from conethom.instances import GenConfig, generate, random_pair

FAMILIES = ((2, 3), (3, 4))


def slots(pair):
    return pair.first, pair.second


def family(shape, seed):
    m, n = shape
    return generate(GenConfig(m=m, n=n, seed=seed, t_degree=1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32), st.integers(0, 2**32))
def test_pair_operations_match_the_slot_rules(shape, instance_seed, pair_seed):
    data = family(shape, instance_seed)
    rng = random.Random(pair_seed)
    p = random_pair(rng, data.chart, terms=4, max_gauss=1)
    q = random_pair(rng, data.chart, terms=4, max_gauss=1)
    old_p, old_q = slots(p), slots(q)
    assert slots(p.wedge(q)) == slot_rules.wedge(old_p, old_q)
    assert slots(q.wedge(p)) == slot_rules.wedge(old_q, old_p)
    assert slots(cone_d(p, data.omega)) == slot_rules.cone_d(old_p, data.omega)
    assert slots(cone_covariant(data.eta, data.phi, data.omega, p)) == slot_rules.cone_covariant(
        data.eta, data.phi, data.omega, old_p
    )
    assert slots(p.contract_tautological()) == slot_rules.contract_tautological(old_p)
    assert slots(p.berezin()) == slot_rules.berezin(old_p)


def slot_rule_thom_pair(data):
    """The Thom pair by the exponential series over the slot rules'
    product, normalized like ``thom_form``."""
    chart = data.chart
    a, b = slots(thom.thom_exponent(data))
    neg = (a.fiber_degree_part(0) - a, -b)
    total = power = (Form.one(chart), Form.zero(chart))
    for k in range(1, chart.n + 3):
        power = tuple(part.scale(Fraction(1, k)) for part in slot_rules.wedge(power, neg))
        total = (total[0] + power[0], total[1] + power[1])
    norm = thom.thom_normalization(chart)
    first, second = slot_rules.berezin(total)
    return ConePair(first.times_gaussian(1).scale(norm), second.times_gaussian(1).scale(norm))


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32))
def test_thom_pair_matches_the_slot_rule_series(shape, instance_seed):
    data = family(shape, instance_seed)
    assert thom.thom_form(data).pair == slot_rule_thom_pair(data)


def test_pair_slots_round_trip_and_theta_enters_once():
    data = family((2, 3), 5)
    rng = random.Random(3)
    p = random_pair(rng, data.chart, terms=4, max_gauss=1)
    assert not p.first.is_zero and not p.second.is_zero
    assert ConePair(*slots(p)) == p
    assert p.theta_slots() == slots(p)
    # theta^2 = 0: a slot that already carries theta is refused, not dropped
    with pytest.raises(ValueError, match="may not carry theta"):
        ConePair(p, Form.zero(data.chart))
    with pytest.raises(ValueError, match="already carries theta"):
        ConePair(Form.zero(data.chart), p)
