"""Gaussian Thom representative of the twisted two-term complex.

Builds, on one trivialized chart with an oriented orthonormal frame, the
pair-valued Gaussian form whose cone differential vanishes and whose
fiber integral is exactly (1, 0), together with the transgression
primitive for polynomial t-families. Every theorem-level identity is
exposed as a residual function returning the exact difference of the two
sides, so a verification layer can report the first offending term.

Orientation convention, pinned once: the canonical generator order puts
the dx block before the dy block, and fiber integration of the word
(dx part)^(dy1^..^dyn) carries sign +1. This is the unique choice making
the fiber integral of the representative equal (1, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cone import (
    ConePair,
    ConnectionMatrix,
    EndomorphismField,
    cone_covariant,
    cone_d,
    validate_twist_form,
)
from .forms import ChartSpec, Form, FormTerm, tautological_section
from .scalars import Scalar


class ConnectionData:
    """One verification instance: chart, skew connection and endomorphism
    matrices, and a closed base 2-form twist.

    The twist may not depend on t (families move only the connection and
    the endomorphism). ``check=False`` skips the chart and twist checks
    made here; the matrices validate themselves when they are built. It
    exists for negative-control tests, which build deliberately broken
    instances.

    Derived values (structure forms, exponent, Thom form with its series
    stats and, for t-families, the exponential slice the transgression
    primitive reads) are built on first use and memoized on the instance.
    A test that monkeypatches a builder must therefore use a fresh instance.
    """

    __slots__ = ("chart", "eta", "phi", "omega", "t_dependent", "_memo")

    def __init__(
        self,
        chart: ChartSpec,
        eta: ConnectionMatrix,
        phi: EndomorphismField,
        omega: Form,
        *,
        check: bool = True,
    ):
        self.chart = chart
        self.eta = eta
        self.phi = phi
        self.omega = omega
        if check:
            if eta.chart != chart or phi.chart != chart or omega.chart != chart:
                raise ValueError("instance components live on different charts")
            validate_twist_form(omega)
            for coeff in omega.terms.values():
                if coeff.depends_on("t"):
                    raise ValueError("twist form may not depend on the family parameter t")
        self.t_dependent = eta.depends_on("t") or phi.depends_on("t")
        self._memo: dict = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectionData):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.eta.entries == other.eta.entries
            and self.phi.entries == other.phi.entries
            and self.omega == other.omega
        )


def _derived(data: ConnectionData, key: str, build):
    """``build(data)``, built once per instance and kept in its memo."""
    memo = data._memo
    if key not in memo:
        memo[key] = build(data)
    return memo[key]


def curvature_matrix(eta: ConnectionMatrix) -> list[list[Form]]:
    """Entrywise d(eta) + eta ^ eta."""
    n = eta.chart.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = eta.entry(i, j).d()
            for k in range(n):
                acc = acc + eta.entry(i, k).wedge(eta.entry(k, j))
            row.append(acc)
        out.append(row)
    return out


def _on_pair_words(chart: ChartSpec, coeff) -> Form:
    """sum over i < j of coeff(i, j) ^ e_(i+1) ^ e_(j+1).

    Each coefficient is a form without fiber word, so the pair word just
    attaches to its terms: no sign arises, and distinct pairs never share
    a term.
    """
    out = Form.zero(chart)
    for i in range(chart.n):
        for j in range(i + 1, chart.n):
            out = out + coeff(i, j).on_fiber_word(chart.fiber_bit(i + 1) | chart.fiber_bit(j + 1))
    return out


def structure_forms(data: ConnectionData) -> tuple[Form, Form]:
    """Curvature-type and endomorphism-type invariants of an instance.

    Built operationally: the first collects the frame pairings of the
    squared covariant derivative plus the twist wedged with the
    endomorphism image, the second the pairings of the commutator of the
    endomorphism with the covariant derivative, each antisymmetrized into
    degree-2 fiber words.
    """
    chart = data.chart
    eta, phi = data.eta, data.phi
    q_rows, s_rows = [], []
    for i in range(chart.n):
        e_i = Form.fiber(chart, i + 1)
        nabla_e = eta.covariant_d(e_i)
        phi_e = phi.derivation(e_i)
        q_rows.append(eta.covariant_d(nabla_e) + data.omega.wedge(phi_e))
        s_rows.append(phi.derivation(nabla_e) - eta.covariant_d(phi_e))
    return (
        _on_pair_words(chart, lambda i, j: q_rows[i].fiber_coefficient(chart.fiber_bit(j + 1))),
        _on_pair_words(chart, lambda i, j: s_rows[i].fiber_coefficient(chart.fiber_bit(j + 1))),
    )


def structure_forms_from_matrices(data: ConnectionData) -> tuple[Form, Form]:
    """Independent route to the structure forms through the matrix
    identities: curvature entries from d(eta) + eta^eta, and the explicit
    commutator expansion for the endomorphism part."""
    chart = data.chart
    eta, phi = data.eta, data.phi
    R = curvature_matrix(eta)

    def s_coeff(i: int, j: int) -> Form:
        sc = Form.zero(chart) - Form.from_scalar(chart, phi.entry(j, i)).d()
        for k in range(chart.n):
            sc = sc + eta.entry(k, i).scale(phi.entry(j, k))
            sc = sc - eta.entry(j, k).scale(phi.entry(k, i))
        return sc

    return (
        _on_pair_words(chart, lambda i, j: R[j][i] + data.omega.scale(phi.entry(j, i))),
        _on_pair_words(chart, s_coeff),
    )


def _half_norm(chart: ChartSpec) -> Scalar:
    """Half the squared fiber norm, the scalar part of the exponent."""
    table = chart.table
    half_norm = Scalar.zero(table)
    for k in range(1, chart.n + 1):
        half_norm = half_norm + Scalar.term(table, Fraction(1, 2), {f"y{k}": 2})
    return half_norm


def thom_exponent(data: ConnectionData) -> ConePair:
    """The pair whose Gaussian exponential yields the Thom representative:
    (half the squared fiber norm, 0) + covariant derivative of the
    tautological pair - the structure forms."""
    chart = data.chart
    v = tautological_section(chart)
    q_form, s_form = _derived(data, "structure", structure_forms)
    first = Form.from_scalar(chart, _half_norm(chart)) + data.eta.covariant_d(v) - q_form
    second = data.phi.derivation(v) - s_form
    return ConePair(first, second)


def gaussian_exponential(exponent: ConePair, *, stats: dict | None = None) -> ConePair:
    """exp(-exponent) with the quadratic scalar part folded into the
    Gaussian weight.

    The scalar part must be exactly half the squared fiber norm; the
    remainder raises the fiber degree in every term, so its wedge powers
    vanish in finitely many steps. The series is iterated until the power
    is exactly zero, and the fiber-degree bound (rank + 1) is asserted.
    """
    chart = exponent.chart
    if any(g for g, _ in exponent.terms):
        raise ValueError("malformed exponent: terms may not carry Gaussian weight")
    scalar_part = exponent.terms.get(FormTerm(0, 0), Scalar.zero(chart.table))
    if scalar_part != _half_norm(chart):
        raise ValueError("malformed exponent: scalar part is not half the squared fiber norm")
    remainder = exponent - ConePair.from_scalar(chart, scalar_part)
    if any(not term.word & chart.fiber_mask for term in remainder.terms):
        raise ValueError("malformed exponent: remainder must raise the fiber degree")
    neg = -remainder
    total = ConePair.one(chart)
    power = ConePair.one(chart)
    k = 0
    max_terms = 0
    while True:
        k += 1
        power = power.wedge(neg).scale(Fraction(1, k))
        max_terms = max(max_terms, len(power.terms))
        if power.is_zero:
            break
        if k > chart.n + 1:
            raise ArithmeticError("exponential series failed to stop within the fiber-degree bound")
        total = total + power
    if stats is not None:
        stats["max_intermediate_terms"] = max(stats.get("max_intermediate_terms", 0), max_terms)
        stats["series_length"] = k
    return total.times_gaussian(1)


@dataclass(frozen=True)
class ThomForm:
    """Normalized Berezin integral of the Gaussian exponential.

    The first component is homogeneous of degree rank, the second of
    degree rank - 1, with no fiber word: every term of a + theta b has
    degree rank. Every term carries Gaussian weight exactly 1.
    """

    pair: ConePair
    normalization: Scalar

    def __post_init__(self):
        n = self.pair.chart.n
        for term in self.pair.terms:
            if term.gauss != 1:
                raise ValueError("Thom representative term without unit Gaussian weight")
            if term.word.bit_count() != n:
                raise ValueError("Thom representative has a term of unexpected degree")


def thom_normalization(chart: ChartSpec) -> Scalar:
    """(-1)^(n(n+1)/2) s^(-n), with s the sqrt(2*pi) unit."""
    n = chart.n
    sign = -1 if (n * (n + 1) // 2) & 1 else 1
    return Scalar.s_power(chart.table, -n).scaled(sign)


def _build_thom(data: ConnectionData) -> tuple[ThomForm, dict, ConePair | None]:
    """The Thom representative, the stats of its exponential series and,
    for t-families, the fiber-degree n - 2 slice of the exponential: the
    only part the transgression primitive's Berezin integral can reach."""
    stats: dict = {}
    expo = gaussian_exponential(_derived(data, "exponent", thom_exponent), stats=stats)
    norm = thom_normalization(data.chart)
    u = ThomForm(pair=expo.berezin().scale(norm), normalization=norm)
    if not data.t_dependent:
        return u, stats, None
    return u, stats, expo.fiber_degree_part(data.chart.n - 2)


def thom_form(data: ConnectionData) -> ThomForm:
    """The Thom representative of an instance, memoized on it."""
    return _derived(data, "thom", _build_thom)[0]


def series_stats(data: ConnectionData) -> dict:
    """Size counters of the exponential series behind ``thom_form``."""
    return dict(_derived(data, "thom", _build_thom)[1])


def fiber_integral(pair: ConePair) -> ConePair:
    """(integral of a, integral of b) for a + theta b: theta sorts below
    the dy block, so the form's own fiber integral goes slot by slot."""
    return pair.fiber_integral()


def variation_forms(data: ConnectionData) -> tuple[Form, Form]:
    """Antisymmetrized t-derivatives of the connection and endomorphism
    matrices, as degree-2 fiber words."""
    chart = data.chart
    return (
        _on_pair_words(chart, lambda i, j: data.eta.entry(j, i).t_derivative()),
        _on_pair_words(chart, lambda i, j: Form.from_scalar(chart, data.phi.entry(j, i).partial("t"))),
    )


def transgression_primitive(data: ConnectionData) -> ConePair:
    """The pair whose cone differential equals the t-derivative of the
    Thom representative; zero for a static instance, whose variation pair
    vanishes."""
    if not data.t_dependent:
        return ConePair.zero(data.chart)
    y_form, z_form = variation_forms(data)
    u, _, expo_slice = _derived(data, "thom", _build_thom)
    return ConePair(y_form, z_form).wedge(expo_slice).berezin().scale(u.normalization)


# ----------------------------------------------------------------------
# identity residuals: each returns the exact difference of the two sides
# of one asserted identity, so zero means the identity holds on the
# instance. Validation is skipped inside so deliberately broken instances
# produce residuals instead of exceptions.


def bianchi_residual(data: ConnectionData) -> ConePair:
    """Covariant derivative of the structure-form pair."""
    q_form, s_form = _derived(data, "structure", structure_forms)
    return cone_covariant(data.eta, data.phi, data.omega, ConePair(q_form, s_form))


def structure_cross_residual(data: ConnectionData) -> ConePair:
    """Operational structure forms minus the matrix-formula route."""
    q_op, s_op = _derived(data, "structure", structure_forms)
    q_mx, s_mx = structure_forms_from_matrices(data)
    return ConePair(q_op - q_mx, s_op - s_mx)


def closedness_residual(data: ConnectionData) -> ConePair:
    """Cone differential of the Thom representative."""
    u = thom_form(data)
    return cone_d(u.pair, data.omega, check=False)


def fiber_integral_residual(data: ConnectionData) -> ConePair:
    """Fiber integral of the Thom representative minus (1, 0)."""
    u = thom_form(data)
    return fiber_integral(u.pair) - ConePair.one(data.chart)


def exponent_contraction_residual(data: ConnectionData) -> ConePair:
    """(covariant derivative + contraction) of the exponent pair."""
    a = _derived(data, "exponent", thom_exponent)
    return (
        cone_covariant(data.eta, data.phi, data.omega, a)
        + a.contract_tautological()
    )


def mechanism_residuals(data: ConnectionData) -> dict[str, Form]:
    """The three pointwise identities behind the vanishing of
    (covariant derivative + contraction) on the exponent."""
    chart = data.chart
    v = tautological_section(chart)
    q_form, s_form = _derived(data, "structure", structure_forms)
    phi_v = data.phi.derivation(v)
    nabla_v = data.eta.covariant_d(v)
    curv_v = data.eta.covariant_d(nabla_v) + data.omega.wedge(phi_v)
    comm_v = data.phi.derivation(nabla_v) - data.eta.covariant_d(phi_v)
    return {
        "skew-pairing": phi_v.contract_tautological(),
        "curvature-contraction": q_form.contract_tautological() - curv_v,
        "commutator-contraction": -s_form.contract_tautological() - comm_v,
    }


def variation_derivative_residual(data: ConnectionData) -> ConePair:
    """Covariant derivative of the variation pair minus the t-derivative
    of the structure-form pair."""
    y_form, z_form = variation_forms(data)
    q_form, s_form = _derived(data, "structure", structure_forms)
    lhs = cone_covariant(data.eta, data.phi, data.omega, ConePair(y_form, z_form))
    return lhs - ConePair(q_form, s_form).t_derivative()


def exponent_variation_residual(data: ConnectionData) -> ConePair:
    """t-derivative of the exponent plus (covariant derivative +
    contraction) of the variation pair."""
    a = _derived(data, "exponent", thom_exponent)
    y_form, z_form = variation_forms(data)
    yz = ConePair(y_form, z_form)
    return a.t_derivative() + (
        cone_covariant(data.eta, data.phi, data.omega, yz)
        + yz.contract_tautological()
    )


def transgression_residual(data: ConnectionData) -> ConePair:
    """t-derivative of the Thom representative minus the cone differential
    of the transgression primitive, as polynomials in t."""
    u = thom_form(data)
    primitive = transgression_primitive(data)
    return u.pair.t_derivative() - cone_d(primitive, data.omega, check=False)


def conjugation_residual(data: ConnectionData, mu: Form, pair: ConePair) -> ConePair:
    """Twisting by an exact perturbation commutes with the shear map
    (a, b) -> (a + mu^b, b): residual of the conjugation identity for a
    1-form mu on the total space."""
    sheared = pair + mu.wedge(pair.second)
    lhs = cone_d(sheared, data.omega, check=False)
    shifted_twist = data.omega + mu.d()
    inner = cone_d(pair, shifted_twist, check=False)
    return lhs - (inner + mu.wedge(inner.second))
