import random
from fractions import Fraction

import pytest

from conethom.cone import ConePair, ConnectionMatrix, EndomorphismField
from conethom.forms import ChartSpec, Form, double_factorial, tautological_section
from conethom.instances import GenConfig, generate, random_pair
from conethom.report import run_suite
from conethom.scalars import Scalar
from conethom import thom


def point_line_data():
    """m = 0, n = 1: flat frame over a point."""
    chart = ChartSpec(0, 1)
    return thom.ConnectionData(
        chart,
        ConnectionMatrix.zero(chart),
        EndomorphismField.zero(chart),
        Form.zero(chart),
    )


# ----------------------------------------------------------------------
# tautological section


def test_tautological_section_rank_one():
    chart = ChartSpec(0, 1)
    v = tautological_section(chart)
    assert v == Form.single(chart, Scalar.variable(chart.table, "y1"), e=("e1",))


def test_covariant_of_section_flat():
    chart = ChartSpec(1, 2)
    v = tautological_section(chart)
    expect = Form.zero(chart)
    for k in (1, 2):
        expect = expect + Form.single(chart, 1, d=(f"dy{k}",), e=(f"e{k}",))
    assert ConnectionMatrix.zero(chart).covariant_d(v) == expect


# ----------------------------------------------------------------------
# structure forms


def test_structure_forms_flat_untwisted():
    data = generate(GenConfig(m=3, n=3, seed=2))
    flat = thom.ConnectionData(
        data.chart,
        ConnectionMatrix.zero(data.chart),
        EndomorphismField.zero(data.chart),
        Form.zero(data.chart),
    )
    q_form, s_form = thom.structure_forms(flat)
    assert q_form.is_zero and s_form.is_zero


def test_structure_coefficients_match_proof_formulas_rank_two():
    data = generate(GenConfig(m=2, n=2, seed=31))
    chart, eta, phi, omega = data.chart, data.eta, data.phi, data.omega
    q_form, s_form = thom.structure_forms(data)
    word = Form.single(chart, 1, e=("e1", "e2"))
    # curvature entry R[1][0] plus the twisted endomorphism pairing
    r_10 = eta.entry(1, 0).d()
    for k in range(2):
        r_10 = r_10 + eta.entry(1, k).wedge(eta.entry(k, 0))
    assert q_form == (r_10 + omega.scale(phi.entry(1, 0))).wedge(word)
    s_10 = -Form.from_scalar(chart, phi.entry(1, 0)).d()
    for k in range(2):
        s_10 = s_10 + eta.entry(k, 0).scale(phi.entry(1, k))
        s_10 = s_10 - eta.entry(1, k).scale(phi.entry(k, 0))
    assert s_form == s_10.wedge(word)


@pytest.mark.parametrize("seed,m,n", [(1, 2, 2), (2, 3, 3), (3, 2, 4), (4, 0, 3)])
def test_structure_cross_oracle(seed, m, n):
    data = generate(GenConfig(m=m, n=n, seed=seed))
    assert thom.structure_cross_residual(data).is_zero


# ----------------------------------------------------------------------
# Bianchi identity


def test_bianchi_trivial_connection_any_twist():
    data = generate(GenConfig(m=3, n=2, seed=6))
    trivial = thom.ConnectionData(
        data.chart,
        ConnectionMatrix.zero(data.chart),
        EndomorphismField.zero(data.chart),
        data.omega,
    )
    assert thom.bianchi_residual(trivial).is_zero


@pytest.mark.parametrize("seed,m,n", [(7, 2, 2), (8, 3, 3), (9, 2, 4), (10, 3, 4)])
def test_bianchi_randomized(seed, m, n):
    data = generate(GenConfig(m=m, n=n, seed=seed))
    assert thom.bianchi_residual(data).is_zero


def test_bianchi_negative_control_non_skew():
    # a broken diagonal entry at rank 2, and a broken off-diagonal one at
    # rank 3 (at rank 2 an off-diagonal defect never reaches the top word)
    for n, i, j in ((2, 0, 0), (3, 0, 1)):
        data = generate(GenConfig(m=2, n=n, seed=12))
        chart = data.chart
        broken_entries = [list(row) for row in data.phi.entries]
        broken_entries[i][j] = broken_entries[i][j] + Scalar.one(chart.table)
        broken_phi = EndomorphismField(chart, broken_entries, check=False)
        broken = thom.ConnectionData(chart, data.eta, broken_phi, data.omega, check=False)
        assert not thom.bianchi_residual(broken).is_zero


# ----------------------------------------------------------------------
# the exponent pair and its exponential


def test_exponent_rank_one_over_point():
    data = point_line_data()
    chart = data.chart
    half_sq = Scalar.term(chart.table, Fraction(1, 2), {"y1": 2})
    expect = ConePair(
        Form.from_scalar(chart, half_sq) + Form.single(chart, 1, d=("dy1",), e=("e1",)),
        Form.zero(chart),
    )
    assert thom.thom_exponent(data) == expect


def test_exponent_second_slot_is_endomorphism_image():
    data = generate(GenConfig(m=2, n=3, seed=13))
    v = tautological_section(data.chart)
    a = thom.thom_exponent(data)
    _, s_form = thom.structure_forms(data)
    assert a.second == data.phi.derivation(v) - s_form


@pytest.mark.parametrize("seed,m,n", [(14, 2, 2), (15, 3, 3), (16, 1, 4), (17, 0, 2)])
def test_exponent_killed_by_covariant_plus_contraction(seed, m, n):
    data = generate(GenConfig(m=m, n=n, seed=seed))
    assert thom.exponent_contraction_residual(data).is_zero
    for name, residual in thom.mechanism_residuals(data).items():
        assert residual.is_zero, name


def test_gaussian_exponential_rank_one_over_point():
    data = point_line_data()
    chart = data.chart
    out = thom.gaussian_exponential(thom.thom_exponent(data))
    expect = ConePair(
        Form.one(chart).times_gaussian(1)
        + Form.single(chart, -1, gauss=1, d=("dy1",), e=("e1",)),
        Form.zero(chart),
    )
    assert out == expect


def test_gaussian_exponential_series_stops_within_bound():
    for seed, m, n in ((18, 2, 2), (19, 2, 3), (20, 3, 4)):
        data = generate(GenConfig(m=m, n=n, seed=seed))
        stats = {}
        thom.gaussian_exponential(thom.thom_exponent(data), stats=stats)
        assert stats["series_length"] <= data.chart.n + 1


def test_gaussian_exponential_second_slot_zero_when_untwisted():
    data = generate(GenConfig(m=2, n=3, seed=21))
    plain = thom.ConnectionData(
        data.chart,
        data.eta,
        EndomorphismField.zero(data.chart),
        Form.zero(data.chart),
    )
    out = thom.gaussian_exponential(thom.thom_exponent(plain))
    assert out.second.is_zero


def test_gaussian_exponential_rejects_malformed_scalar_part():
    data = point_line_data()
    chart = data.chart
    bad = thom.thom_exponent(data) + ConePair(Form.one(chart), Form.zero(chart))
    with pytest.raises(ValueError, match="scalar part"):
        thom.gaussian_exponential(bad)
    weighted = thom.thom_exponent(data).times_gaussian(1)
    with pytest.raises(ValueError, match="Gaussian weight"):
        thom.gaussian_exponential(weighted)


# ----------------------------------------------------------------------
# the Thom representative


def test_thom_form_rank_one_over_point():
    data = point_line_data()
    chart = data.chart
    u = thom.thom_form(data)
    expect_first = Form.single(
        chart, Scalar.s_power(chart.table, -1), gauss=1, d=("dy1",)
    )
    assert u.pair == ConePair(expect_first, Form.zero(chart))
    assert u.normalization == Scalar.s_power(chart.table, -1).scaled(-1)


@pytest.mark.parametrize("seed,m,n", [(22, 2, 2), (23, 3, 3), (24, 2, 4), (25, 0, 4)])
def test_thom_form_closed_and_normalized(seed, m, n):
    data = generate(GenConfig(m=m, n=n, seed=seed))
    assert thom.closedness_residual(data).is_zero
    assert thom.fiber_integral_residual(data).is_zero


def test_closedness_negative_control_broken_twist():
    data = generate(GenConfig(m=3, n=2, seed=26))
    chart = data.chart
    bad_omega = data.omega + Form.single(
        chart, Scalar.variable(chart.table, "x3"), d=("dx1", "dx2")
    )
    assert not bad_omega.d().is_zero
    broken = thom.ConnectionData(chart, data.eta, data.phi, bad_omega, check=False)
    assert not thom.closedness_residual(broken).is_zero


# ----------------------------------------------------------------------
# fiber integration


def test_fiber_integral_unit_gaussian():
    chart = ChartSpec(0, 1)
    table = chart.table
    g_dy = Form.single(chart, 1, gauss=1, d=("dy1",))
    out = g_dy.fiber_integral()
    assert out == Form.from_scalar(chart, Scalar.s_power(table, 1))


def test_fiber_integral_second_moment():
    chart = ChartSpec(0, 1)
    table = chart.table
    term = Form.single(chart, Scalar.term(table, 1, {"y1": 2}), gauss=1, d=("dy1",))
    assert term.fiber_integral() == Form.from_scalar(chart, Scalar.s_power(table, 1))


def test_fiber_integral_moment_table():
    chart = ChartSpec(0, 1)
    table = chart.table
    for k, expect in ((1, 1), (2, 3), (3, 15), (4, 105), (5, 945), (6, 10395)):
        term = Form.single(chart, Scalar.term(table, 1, {"y1": 2 * k}), gauss=1, d=("dy1",))
        out = term.fiber_integral()
        assert out == Form.from_scalar(chart, Scalar.s_power(table, 1).scaled(expect))
    odd = Form.single(chart, Scalar.term(table, 1, {"y1": 3}), gauss=1, d=("dy1",))
    assert odd.fiber_integral().is_zero


def test_fiber_integral_drops_partial_dy_words():
    chart = ChartSpec(1, 2)
    partial = Form.single(chart, 1, gauss=1, d=("dx1", "dy1"))
    assert partial.fiber_integral().is_zero


def test_fiber_integral_error_cases():
    chart = ChartSpec(0, 1)
    no_weight = Form.single(chart, 1, d=("dy1",))
    with pytest.raises(ValueError, match="divergent"):
        no_weight.fiber_integral()
    heavy = Form.single(chart, 1, gauss=2, d=("dy1",))
    with pytest.raises(ValueError, match="unsupported Gaussian weight"):
        heavy.fiber_integral()
    fiber_left = Form.single(chart, 1, gauss=1, d=("dy1",), e=("e1",))
    with pytest.raises(ValueError, match="fiber generators"):
        fiber_left.fiber_integral()


def test_double_factorial_domain():
    assert double_factorial(-1) == 1
    assert double_factorial(7) == 105
    with pytest.raises(ValueError):
        double_factorial(4)


# ----------------------------------------------------------------------
# transgression machinery


def test_variation_forms_static_family():
    data = generate(GenConfig(m=2, n=3, seed=27))
    y_form, z_form = thom.variation_forms(data)
    assert y_form.is_zero and z_form.is_zero
    assert not data.t_dependent


def test_variation_linear_in_t():
    chart = ChartSpec(1, 2)
    table = chart.table
    z = Form.zero(chart)
    f_dx = Form.single(chart, Scalar.variable(table, "x1"), d=("dx1",))
    entry = f_dx.scale(Scalar.variable(table, "t"))
    eta = ConnectionMatrix(chart, [[z, -entry], [entry, z]])
    data = thom.ConnectionData(chart, eta, EndomorphismField.zero(chart), Form.zero(chart))
    assert data.t_dependent
    y_form, z_form = thom.variation_forms(data)
    assert y_form == f_dx.wedge(Form.single(chart, 1, e=("e1", "e2")))
    assert z_form.is_zero


@pytest.mark.parametrize("seed,n,t_degree", [(20, 2, 1), (21, 3, 2), (22, 2, 2)])
def test_transgression_identities(seed, n, t_degree):
    data = generate(GenConfig(m=2, n=n, seed=seed, t_degree=t_degree))
    assert data.t_dependent
    assert thom.variation_derivative_residual(data).is_zero
    assert thom.exponent_variation_residual(data).is_zero
    assert thom.transgression_residual(data).is_zero


def test_transgression_trivial_for_static_data():
    data = generate(GenConfig(m=2, n=2, seed=31))
    assert thom.transgression_residual(data).is_zero
    assert thom.transgression_primitive(data).is_zero


# ----------------------------------------------------------------------
# derived values are built once per instance


def count_builds(monkeypatch) -> dict:
    calls = {}
    for name in ("structure_forms", "thom_exponent", "gaussian_exponential"):
        original = getattr(thom, name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(thom, name, counted)
    return calls


def test_check_all_builds_each_derived_value_once(monkeypatch):
    calls = count_builds(monkeypatch)
    data = generate(GenConfig(m=2, n=3, seed=21, t_degree=2))
    assert data.t_dependent
    reports = run_suite("all", data)
    assert all(r.passed for r in reports)
    assert calls == {"structure_forms": 1, "thom_exponent": 1, "gaussian_exponential": 1}


def test_static_transgression_primitive_builds_nothing(monkeypatch):
    calls = count_builds(monkeypatch)
    data = generate(GenConfig(m=2, n=3, seed=27))
    assert not data.t_dependent
    assert thom.transgression_primitive(data) == ConePair.zero(data.chart)
    assert set(calls.values()) == {0}


# ----------------------------------------------------------------------
# conjugation by a shear


def test_conjugation_identity_samples():
    data = generate(GenConfig(m=2, n=2, seed=32))
    chart = data.chart
    table = chart.table
    rng = random.Random(0)
    mus = [
        Form.zero(chart),
        Form.single(chart, Scalar.variable(table, "x1"), d=("dx2",)),
        Form.single(chart, Scalar.variable(table, "y1"), d=("dy1",)),
    ]
    for mu in mus:
        for _ in range(4):
            pair = random_pair(rng, chart, max_gauss=1)
            assert thom.conjugation_residual(data, mu, pair).is_zero


def test_twist_rejects_t_dependence():
    chart = ChartSpec(2, 2)
    table = chart.table
    omega_t = Form.single(chart, Scalar.variable(table, "t"), d=("dx1", "dx2"))
    with pytest.raises(ValueError, match="family parameter"):
        thom.ConnectionData(
            chart,
            ConnectionMatrix.zero(chart),
            EndomorphismField.zero(chart),
            omega_t,
        )
