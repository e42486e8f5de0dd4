"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is an exact polynomial identity (residual must be empty), so
there are no numeric tolerances except in the quadrature cross-check of
the Gaussian moment table, which is pinned at 1e-9 relative error.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they appear.
"""

import hashlib
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conethom import thom
from conethom.classical import classical_thom_form
from conethom.cone import (
    ConePair,
    EndomorphismField,
    cone_covariant,
    cone_d,
)
from conethom.forms import ChartSpec, Form
from conethom.instances import (
    GenConfig,
    generate,
    random_form,
    random_pair,
    seed_sequence,
)
from conethom.scalars import Scalar
from conethom.thom import ConnectionData
from frames import rotate_frame

BASE_SEED = 0x5EED_2026


def _report(label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {verdict}{' ' + detail if detail else ''}")
    assert ok, f"{label} failed {detail}"


@lru_cache(maxsize=1)
def grid_instances():
    """50 seeded instances over n in 1..4, m in 0..3, max degree 2; the
    two extra slots land on the largest charts."""
    combos = [(n, m) for n in (4, 3, 2, 1) for m in (3, 2, 1, 0)]
    seeds = seed_sequence(BASE_SEED, 50)
    out = []
    for i, seed in enumerate(seeds):
        n, m = combos[i % len(combos)]
        out.append(generate(GenConfig(m=m, n=n, seed=seed)))
    return tuple(out)


@lru_cache(maxsize=1)
def grid_thom_forms():
    return tuple(thom.thom_form(data) for data in grid_instances())


def test_criterion_01_bianchi_suite():
    started = time.perf_counter()
    bad = [
        i
        for i, data in enumerate(grid_instances())
        if not thom.bianchi_residual(data).is_zero
    ]
    elapsed = time.perf_counter() - started
    _report(
        "criterion-1 bianchi (50 instances)",
        not bad and elapsed < 10.0,
        f"failures={bad} elapsed={elapsed:.2f}s (target < 10 s)",
    )


def test_criterion_02_closedness_suite():
    started = time.perf_counter()
    forms = grid_thom_forms()
    bad = [
        i
        for i, (data, u) in enumerate(zip(grid_instances(), forms))
        if not cone_d(u.pair, data.omega).is_zero
    ]
    elapsed = time.perf_counter() - started
    _report(
        "criterion-2 closedness (50 instances)",
        not bad and elapsed < 60.0,
        f"failures={bad} elapsed={elapsed:.2f}s (target < 60 s)",
    )


def test_criterion_03_fiber_integral_is_unit():
    bad = []
    for i, (data, u) in enumerate(zip(grid_instances(), grid_thom_forms())):
        result = thom.fiber_integral(u.pair)
        if result != ConePair.one(data.chart):
            bad.append(i)
    _report("criterion-3 fiber integral (1,0) with exact s-cancellation", not bad, f"failures={bad}")


def test_criterion_04_berezin_commutation():
    rng = random.Random(BASE_SEED ^ 0x4)
    bad = []
    for i, data in enumerate(grid_instances()):
        for _ in range(3):
            base = random_pair(rng, data.chart, base_only=True)
            lhs = cone_d(base.berezin(), data.omega)
            rhs = cone_covariant(data.eta, data.phi, data.omega, base).berezin()
            if lhs != rhs:
                bad.append((i, "base"))
            total = random_pair(rng, data.chart, max_gauss=2)
            lhs = cone_d(total.berezin(), data.omega)
            rhs = (
                cone_covariant(data.eta, data.phi, data.omega, total)
                + total.contract_tautological()
            ).berezin()
            if lhs != rhs:
                bad.append((i, "total"))
    _report("criterion-4 Berezin commutation (base and total-space pairs)", not bad, f"failures={bad}")


def test_criterion_05_transgression_suite():
    started = time.perf_counter()
    seeds = seed_sequence(BASE_SEED ^ 0x5, 20)
    bad = []
    for i, seed in enumerate(seeds):
        n = 2 if i % 2 == 0 else 3
        t_degree = 1 if i % 4 < 2 else 2
        data = generate(GenConfig(m=2, n=n, seed=seed, t_degree=t_degree))
        if not thom.variation_derivative_residual(data).is_zero:
            bad.append((i, "variation-derivative"))
        if not thom.transgression_residual(data).is_zero:
            bad.append((i, "transgression"))
    elapsed = time.perf_counter() - started
    _report(
        "criterion-5 transgression (20 t-families)",
        not bad and elapsed < 120.0,
        f"failures={bad} elapsed={elapsed:.2f}s (target < 120 s)",
    )


def test_criterion_06_classical_degeneration():
    seeds = seed_sequence(BASE_SEED ^ 0x6, 20)
    bad = []
    for i, seed in enumerate(seeds):
        n = 1 + i % 4
        m = i % 3
        base = generate(GenConfig(m=m, n=n, seed=seed))
        data = ConnectionData(
            base.chart,
            base.eta,
            EndomorphismField.zero(base.chart),
            Form.zero(base.chart),
        )
        u = thom.thom_form(data)
        classical = classical_thom_form(data.eta)
        if not u.pair.second.is_zero:
            bad.append((i, "second"))
        if u.pair.first != classical or set(u.pair.first.terms) != set(classical.terms):
            bad.append((i, "first"))
    _report("criterion-6 classical degeneration (20 instances)", not bad, f"failures={bad}")


def test_criterion_07_structure_cross_oracle():
    bad = [
        i
        for i, data in enumerate(grid_instances())
        if not thom.structure_cross_residual(data).is_zero
    ]
    _report("criterion-7 operational vs matrix structure forms", not bad, f"failures={bad}")


def test_criterion_08_quadrature_oracle():
    chart = ChartSpec(0, 1)
    table = chart.table
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    sqrt2pi = math.sqrt(2.0 * math.pi)
    worst = 0.0
    for k in range(7):
        term = Form.single(chart, Scalar.term(table, 1, {"y1": 2 * k}), gauss=1, d=("dy1",))
        exact = term.fiber_integral()
        ((_, coeff),) = exact.terms.items()
        symbolic = coeff.evaluate({}, sqrt2pi)
        numeric = math.sqrt(2.0) * float(
            np.sum(weights * (math.sqrt(2.0) * nodes) ** (2 * k))
        )
        rel = abs(symbolic - numeric) / abs(numeric)
        worst = max(worst, rel)
    _report(
        "criterion-8 Gaussian moments vs Gauss-Hermite quadrature (k <= 6)",
        worst < 1e-9,
        f"worst relative error {worst:.2e} (tolerance 1e-9)",
    )


# ----------------------------------------------------------------------
# criterion 9: 200 randomized checks per algebra law

_PYTHAGOREAN = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(7, 25), Fraction(24, 25)),
    (Fraction(20, 29), Fraction(21, 29)),
]


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def random_special_orthogonal(rng, n):
    """Exact rational element of SO(n): a product of Givens rotations with
    Pythagorean cosine-sine pairs."""
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c, s = rng.choice(_PYTHAGOREAN)
            if rng.random() < 0.5:
                s = -s
            g = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
            g[i][i] = c
            g[j][j] = c
            g[i][j] = -s
            g[j][i] = s
            out = _matmul(out, g)
    return out


def _law_trials(chart, law, rng):
    if law == "wedge-associativity":
        a = random_form(rng, chart, terms=2, max_gauss=1)
        b = random_form(rng, chart, terms=2, max_gauss=1)
        c = random_form(rng, chart, terms=2, max_gauss=1)
        return a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    if law == "graded-commutativity":
        while True:
            a = random_form(rng, chart, terms=1, max_gauss=1)
            b = random_form(rng, chart, terms=1, max_gauss=1)
            if a.terms and b.terms:
                break
        parity = lambda f: next(iter(f.terms)).word.bit_count() & 1
        sign = -1 if parity(a) and parity(b) else 1
        return a.wedge(b) == b.wedge(a).scale(sign)
    if law == "d-squared":
        a = random_form(rng, chart, terms=3, max_gauss=2)
        return a.d().d().is_zero
    if law == "contraction-nilpotency":
        a = random_form(rng, chart, terms=3, max_gauss=1)
        return a.contract_tautological().contract_tautological().is_zero
    if law == "d-antiderivation":
        degree = rng.randint(0, chart.m + chart.n)
        a = random_form(rng, chart, terms=2, with_fiber=False, max_gauss=1)
        a = Form(
            chart,
            {t: c for t, c in a.terms.items() if t.word.bit_count() == degree},
        )
        b = random_form(rng, chart, terms=2, with_fiber=False, max_gauss=1)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) + a.wedge(b.d()).scale(-1 if degree & 1 else 1)
        return lhs == rhs
    if law == "endomorphism-derivation":
        data = _law_data(chart)
        a = random_form(rng, chart, terms=2, max_gauss=1)
        b = random_form(rng, chart, terms=2, max_gauss=1)
        lhs = data.phi.derivation(a.wedge(b))
        rhs = data.phi.derivation(a).wedge(b) + a.wedge(data.phi.derivation(b))
        return lhs == rhs
    if law == "berezin-frame-invariance":
        a = random_form(rng, chart, terms=3, max_gauss=1)
        rot = random_special_orthogonal(rng, chart.n)
        return rotate_frame(a, rot).berezin() == a.berezin()
    raise AssertionError(law)


@lru_cache(maxsize=None)
def _law_data(chart):
    return generate(GenConfig(m=chart.m, n=chart.n, seed=0xA1))


LAWS = (
    "wedge-associativity",
    "graded-commutativity",
    "d-squared",
    "contraction-nilpotency",
    "d-antiderivation",
    "endomorphism-derivation",
    "berezin-frame-invariance",
)


@pytest.mark.parametrize("law", LAWS)
def test_criterion_09_algebra_laws(law):
    rng = random.Random(BASE_SEED ^ int.from_bytes(hashlib.sha256(law.encode()).digest()[:6], "big"))
    charts = (ChartSpec(2, 2), ChartSpec(1, 3), ChartSpec(3, 2))
    failures = 0
    for trial in range(200):
        chart = charts[trial % len(charts)]
        if not _law_trials(chart, law, rng):
            failures += 1
    _report(f"criterion-9 law {law} (200 trials)", failures == 0, f"failures={failures}")


def test_criterion_10_negative_controls():
    ok = True
    details = []

    data = generate(GenConfig(m=2, n=3, seed=0xBAD))
    rows = [list(r) for r in data.phi.entries]
    rows[0][1] = rows[0][1] + Scalar.one(data.chart.table)
    broken_phi = ConnectionData(
        data.chart,
        data.eta,
        EndomorphismField(data.chart, rows, check=False),
        data.omega,
        check=False,
    )
    residual = thom.bianchi_residual(broken_phi)
    if residual.is_zero:
        ok = False
        details.append("non-skew phi left the Bianchi residual empty")
    else:
        details.append("bianchi residual localized")

    base = generate(GenConfig(m=3, n=2, seed=0xBAD + 1))
    bad_omega = base.omega + Form.single(
        base.chart, Scalar.variable(base.chart.table, "x3"), d=("dx1", "dx2")
    )
    assert not bad_omega.d().is_zero
    broken_omega = ConnectionData(base.chart, base.eta, base.phi, bad_omega, check=False)
    u = thom.thom_form(broken_omega)
    closed_residual = cone_d(u.pair, bad_omega, check=False)
    if closed_residual.is_zero:
        ok = False
        details.append("non-closed twist left the closedness residual empty")
    else:
        details.append("closedness residual localized")

    _report("criterion-10 negative controls", ok, "; ".join(details))
