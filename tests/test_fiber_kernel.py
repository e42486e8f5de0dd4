"""The one fiber-substitution kernel, ``Form.substitute_fiber``, and the
one-word product rule.

The kernel's callers are the tautological contraction and the derivation
of the connection and endomorphism matrices. Each is compared with a
hand-written loop over terms stored as two masks, a one-form word ``o``
and a fiber word ``f``, and ``Form.wedge`` with the two-mask product rule,
which needs a separate crossing sign. The loops are kept here as
references, behind an adapter between ``(g, word)`` and ``(g, o, f)``.
Each sign the callers choose is shown to matter to the check suite.
"""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conethom import thom
from conethom.cone import _SkewMatrix
from conethom.forms import ChartSpec, Form, FormTerm, _collect, merge_sign
from conethom.instances import GenConfig, generate, random_form
from conethom.report import run_suite
from conethom.scalars import Bucket, Scalar, accumulate_product

CHARTS = (ChartSpec(2, 3), ChartSpec(3, 4))


class TwoMaskTerm(NamedTuple):
    gauss: int
    one_forms: int
    fiber_gens: int


def two_masks(form):
    """The terms of a form keyed by (weight, one-form word, fiber word)."""
    first = form.chart.fiber_shift
    mask = form.chart.one_form_mask
    return {TwoMaskTerm(g, w & mask, w >> first): c for (g, w), c in form.terms.items()}


def from_two_masks(chart, terms):
    first = chart.fiber_shift
    return Form._raw(chart, {FormTerm(g, o | f << first): c for (g, o, f), c in terms.items()})


def reference_replace_fiber(chart, form, entries):
    """Matrix derivation loop: e_(v+1) -> sum_l entries[l][v] e_(l+1)."""
    n = chart.n
    acc = {}
    for (g, o, f), coeff in two_masks(form).items():
        rest = f
        while rest:
            v_bit = rest & -rest
            rest ^= v_bit
            v = v_bit.bit_length() - 1
            jm1 = (f & (v_bit - 1)).bit_count()
            f_rest = f ^ v_bit
            for l in range(n):
                l_bit = 1 << l
                if l_bit & f_rest:
                    continue
                c_l = (f_rest & (l_bit - 1)).bit_count()
                sign0 = -1 if (c_l - jm1) & 1 else 1
                new_f = f_rest | l_bit
                for (_, o2, _), c2 in two_masks(entries[l][v]).items():
                    if o2 & o:
                        continue
                    key = TwoMaskTerm(g, o2 | o, new_f)
                    bucket = acc.get(key)
                    if bucket is None:
                        bucket = acc[key] = Bucket()
                    accumulate_product(bucket, coeff, c2, sign0 * merge_sign(o2, o))
    return from_two_masks(chart, _collect(chart.table, acc))


def reference_contract(form):
    """Contraction loop with sum_k y_k e_k, odd past the one-form word."""
    chart = form.chart
    table = chart.table
    y_vars = [Scalar.variable(table, f"y{j}") for j in range(1, chart.n + 1)]
    acc = {}
    for (g, o, f), coeff in two_masks(form).items():
        if not f:
            continue
        base_sign = -1 if o.bit_count() & 1 else 1
        rest = f
        while rest:
            bit = rest & -rest
            rest ^= bit
            sign = base_sign
            if (f & (bit - 1)).bit_count() & 1:
                sign = -sign
            key = TwoMaskTerm(g, o, f ^ bit)
            bucket = acc.get(key)
            if bucket is None:
                bucket = acc[key] = Bucket()
            accumulate_product(bucket, coeff, y_vars[bit.bit_length() - 1], sign)
    return from_two_masks(chart, _collect(table, acc))


def reference_wedge(a, b):
    """Two-mask product rule: the sign merging the one-form words, times
    the sign merging the fiber words, times (-1)^(left fiber degree *
    right form degree) for the right one-form word crossing the left
    fiber word."""
    chart = a.chart
    acc = {}
    for t1, c1 in two_masks(a).items():
        g1, o1, f1 = t1
        f1_odd = f1.bit_count() & 1
        for t2, c2 in two_masks(b).items():
            g2, o2, f2 = t2
            if o1 & o2 or f1 & f2:
                continue
            sign = merge_sign(o1, o2) * merge_sign(f1, f2)
            if f1_odd and o2.bit_count() & 1:
                sign = -sign
            key = TwoMaskTerm(g1 + g2, o1 | o2, f1 | f2)
            bucket = acc.get(key)
            if bucket is None:
                bucket = acc[key] = Bucket()
            accumulate_product(bucket, c1, c2, sign)
    return from_two_masks(chart, _collect(chart.table, acc))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CHARTS), st.integers(0, 2**32), st.integers(0, 2**32))
def test_matrix_derivations_match_the_reference_loop(chart, instance_seed, form_seed):
    data = generate(GenConfig(m=chart.m, n=chart.n, seed=instance_seed, t_degree=1))
    form = random_form(random.Random(form_seed), chart, terms=4, max_gauss=1)
    phi_forms = [[Form.from_scalar(chart, c) for c in row] for row in data.phi.entries]
    assert data.eta.derivation(form) == reference_replace_fiber(chart, form, data.eta.entries)
    assert data.phi.derivation(form) == reference_replace_fiber(chart, form, phi_forms)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CHARTS), st.integers(0, 2**32))
def test_contraction_matches_the_reference_loop(chart, form_seed):
    form = random_form(random.Random(form_seed), chart, terms=4, max_gauss=2)
    assert form.contract_tautological() == reference_contract(form)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHARTS), st.integers(0, 2**32))
def test_wedge_matches_the_two_mask_rule(chart, form_seed):
    rng = random.Random(form_seed)
    a = random_form(rng, chart, terms=4, max_gauss=1)
    b = random_form(rng, chart, terms=4, max_gauss=1)
    assert a.wedge(b) == reference_wedge(a, b)
    assert b.wedge(a) == reference_wedge(b, a)


def test_substitute_fiber_signs_on_single_terms():
    chart = ChartSpec(2, 3)
    e = [Form.fiber(chart, k) for k in (1, 2, 3)]
    dx1 = Form.single(chart, 1, d=("dx1",))
    zero = Form.zero(chart)
    word = Form.single(chart, 1, d=("dx2",), e=("e1", "e2"))
    # e1 -> dx1 e3: e1 passes dx2 to the front; then e3 sorts past dx2 and e2
    images = [dx1.wedge(e[2]), zero, zero]
    assert word.substitute_fiber(images) == Form.single(chart, -1, d=("dx1", "dx2"), e=("e2", "e3"))
    # e2 -> e3: e2 passes dx2 and e1, then e3 passes them back
    images = [zero, e[2], zero]
    assert word.substitute_fiber(images) == Form.single(chart, 1, d=("dx2",), e=("e1", "e3"))
    # e2 -> 1: e2 passes dx2 and e1, and the image is even
    images = [zero, Form.one(chart), zero]
    assert word.substitute_fiber(images) == Form.single(chart, 1, d=("dx2",), e=("e1",))
    # e1 -> 1: e1 passes dx2 only
    images = [Form.one(chart), zero, zero]
    assert word.substitute_fiber(images) == Form.single(chart, -1, d=("dx2",), e=("e2",))
    # Gaussian weights add
    images = [zero, Form.one(chart).times_gaussian(1), zero]
    heavy = word.times_gaussian(2)
    assert heavy.substitute_fiber(images) == Form.single(chart, 1, gauss=3, d=("dx2",), e=("e1",))


def test_substitute_fiber_refuses_bad_images():
    chart = ChartSpec(2, 2)
    word = Form.fiber(chart, 1)
    with pytest.raises(ValueError, match="one image per fiber generator"):
        word.substitute_fiber([Form.one(chart)])
    with pytest.raises(ValueError, match="more than one fiber generator"):
        word.substitute_fiber([Form.single(chart, 1, e=("e1", "e2")), Form.zero(chart)])
    with pytest.raises(ValueError, match="different charts"):
        word.substitute_fiber([Form.one(ChartSpec(1, 2)), Form.zero(ChartSpec(1, 2))])


def one_form_parity(form):
    """(-1)^(form degree) on every term."""
    mask = form.chart.one_form_mask
    return Form(form.chart, {t: -c if (t.word & mask).bit_count() & 1 else c for t, c in form.terms.items()})


# each mutant flips the kernel's sign by the one-form parity of its input:
# the contraction turns even, the matrix derivations odd
_CONTRACT = Form.contract_tautological
_DERIVATION = _SkewMatrix.derivation


def _even_contraction(self):
    return _CONTRACT(one_form_parity(self))


def _odd_derivation(self, form):
    return _DERIVATION(self, one_form_parity(form))


MUTANTS = {
    "even-contraction": (Form, "contract_tautological", _even_contraction),
    "odd-derivation": (_SkewMatrix, "derivation", _odd_derivation),
}

STATIC = GenConfig(m=2, n=3, seed=12)
FAMILY = GenConfig(m=3, n=3, seed=13, t_degree=2)


@pytest.mark.parametrize(
    "mutant, config, failing",
    [
        # the contraction lowers the fiber degree, so it never reaches the
        # Berezin top word, and on a static instance the variation pair is
        # zero: no check of "all" sees its sign there (see below)
        ("even-contraction", STATIC, []),
        ("even-contraction", FAMILY, ["transgression"]),
        ("odd-derivation", STATIC, ["bianchi", "qs-cross", "closed"]),
        ("odd-derivation", FAMILY, ["bianchi", "qs-cross", "closed", "transgression"]),
    ],
)
def test_a_wrong_kernel_sign_fails_named_checks(monkeypatch, mutant, config, failing):
    # fresh instances throughout: derived values are memoized per instance
    assert all(r.passed for r in run_suite("all", generate(config)))
    owner, name, wrong = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, wrong)
    data = generate(config)
    assert [r.check for r in run_suite("all", data) if not r.passed] == failing
    # the exponent identity (covariant derivative + contraction) A = 0,
    # which no check of "all" runs, sees the contraction's sign everywhere
    assert not thom.exponent_contraction_residual(generate(config)).is_zero
