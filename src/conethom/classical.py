"""Classical Gaussian Thom representative, single-form pipeline.

Deliberately independent of the pair machinery: plain form arithmetic
only, with the curvature taken from the matrix identity d(eta) + eta^eta
and the covariant derivative of the tautological section written out in
coordinates. Serves as the degeneration oracle for the pair pipeline when
the twist form and the endomorphism vanish (the Mathai-Quillen
representative of the Euler class for the same connection).
"""

from __future__ import annotations

from fractions import Fraction

from .cone import ConnectionMatrix
from .forms import Form
from .scalars import Scalar


def classical_thom_form(eta: ConnectionMatrix) -> Form:
    chart = eta.chart
    table = chart.table
    n = chart.n

    # sum_k dy_k e_k + sum_{l,k} eta[l][k] y_k e_l, straight from coordinates
    nabla_v = Form.zero(chart)
    for k in range(1, n + 1):
        nabla_v = nabla_v + Form.single(chart, 1, d=(f"dy{k}",), e=(f"e{k}",))
        y_k = Scalar.variable(table, f"y{k}")
        for l in range(1, n + 1):
            entry = eta.entry(l - 1, k - 1)
            if entry.is_zero:
                continue
            nabla_v = nabla_v + entry.scale(y_k).wedge(Form.fiber(chart, l))

    # curvature pairings R[j][i] on the fiber words e_i ^ e_j, i < j
    curvature = Form.zero(chart)
    for i in range(n):
        for j in range(i + 1, n):
            r_ji = eta.entry(j, i).d()
            for k in range(n):
                r_ji = r_ji + eta.entry(j, k).wedge(eta.entry(k, i))
            if r_ji.is_zero:
                continue
            curvature = curvature + r_ji.wedge(Form.single(chart, 1, e=(f"e{i + 1}", f"e{j + 1}")))

    remainder = nabla_v - curvature
    total = Form.one(chart)
    power = Form.one(chart)
    k = 0
    while True:
        k += 1
        power = power.wedge(-remainder).scale(Fraction(1, k))
        if power.is_zero:
            break
        if k > n + 1:
            raise ArithmeticError("classical exponential series failed to stop")
        total = total + power

    sign = -1 if (n * (n + 1) // 2) & 1 else 1
    norm = Scalar.s_power(table, -n).scaled(sign)
    return total.times_gaussian(1).berezin().scale(norm)


def classical_degeneration_residual(data) -> tuple[Form, Form]:
    """Pair-pipeline representative minus the classical one, for instances
    with zero twist and zero endomorphism: (first difference, second
    component, both expected to vanish)."""
    from .thom import thom_form

    if not data.omega.is_zero:
        raise ValueError("classical degeneration needs a zero twist form")
    if not data.phi.is_zero:
        raise ValueError("classical degeneration needs a zero endomorphism")
    u = thom_form(data)
    return u.pair.first - classical_thom_form(data.eta), u.pair.second
