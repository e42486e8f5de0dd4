"""Mapping cone pairs over the form algebra.

A ConePair (a, b) models an element of the two-term complex
Omega^i + Omega^(i-1). It is the form a + theta b, with theta the odd
generator of :mod:`conethom.forms` (theta^2 = 0, d(theta) = omega), so the
form algebra's own rules give the pair product, the contraction, the
Berezin integral and the fiber integral with the mapping cone's signs:
second components never multiply each other, and the contraction and
the exterior derivative negate the second slot. Only the twist is the
cone's own: the cone differential adds omega ^ b for d(theta) b, and the
cone covariant derivative adds theta ^ phi(a) too. The grading
bookkeeping is per term, so no degree field is stored and components may
be inhomogeneous.

The connection and the endomorphism are skew matrices that act on fiber
words through ``Form.substitute_fiber``, the kernel the tautological
contraction uses too.
"""

from __future__ import annotations

from typing import Sequence

from .forms import THETA, ChartSpec, Form
from .scalars import Scalar


class ConePair(Form):
    """The form first + theta ^ second; immutable by convention. Every
    operation is the form algebra's; its results, and sums with a pair on
    the left, are pairs again."""

    __slots__ = ()

    def __init__(self, first: Form, second: Form):
        if first.chart != second.chart:
            raise ValueError("pair components live on different charts")
        if any(t.word & THETA for t in first.terms):
            raise ValueError("pair components may not carry theta")
        self.chart = first.chart
        self.terms = {**first.terms, **second.times_theta().terms}

    @property
    def first(self) -> Form:
        return self.theta_slots()[0]

    @property
    def second(self) -> Form:
        return self.theta_slots()[1]

    def to_obj(self) -> dict:
        first, second = self.theta_slots()
        return {"first": first.to_obj(), "second": second.to_obj()}

    def wedge(self, other: Form) -> "ConePair":
        """Pair product: the graded product of a + theta b and c + theta e,
        (ac, bc + (-1)^|a| ae) since theta^2 = 0."""
        return Form.wedge(self, other)


def validate_twist_form(omega: Form) -> None:
    """The twist must be a closed base 2-form."""
    if not omega.is_base_form(degree=2):
        raise ValueError("twist form must be a base 2-form (dx only, no weight, no fiber word)")
    residual = omega.d()
    if not residual.is_zero:
        term, coeff = residual.sorted_terms()[0]
        names = "^".join(omega.chart.names(term.word))
        raise ValueError(f"twist form is not closed: d has nonzero term ({coeff}) {names}")


def cone_d(pair: ConePair, omega: Form, *, check: bool = True) -> ConePair:
    """Differential of the twisted two-term complex: (da + omega^b, -db),
    the exterior derivative of a + theta b with d(theta) = omega.

    ``check=False`` skips the twist-form validation; that path exists for
    the negative-control harness and for conjugation identities where the
    twist is a general closed 2-form on the total space.
    """
    if check:
        validate_twist_form(omega)
    return pair.d() + omega.wedge(pair.second)


class _SkewMatrix:
    """Exactly skew n x n matrix acting on the fiber frame as a derivation
    of the fiber word; the rules the connection and the endomorphism share.

    entries[i][j] belongs to e_i in the image of e_j (0-based). Each entry,
    taken as a form, is a base form of the subclass's degree: dx generators
    only, no weight, no fiber word, coefficients free of the fiber
    variables and of the unit s. These rules and skewness are validated at
    construction (``check=False`` is a deliberate bypass for
    negative-control tests).
    """

    __slots__ = ("chart", "entries", "_images")
    _kind: str
    _degree: int

    def __init__(self, chart: ChartSpec, entries: Sequence[Sequence], *, check: bool = True):
        self.chart = chart
        self.entries = tuple(tuple(row) for row in entries)
        forms = self._lift(chart, self.entries)
        if check:
            self._validate(forms)
        # the image of e_(v+1): sum over l of entries[l][v] e_(l+1)
        self._images = tuple(
            sum((forms[l][v].on_fiber_word(chart.fiber_bit(l + 1)) for l in range(chart.n)), Form.zero(chart))
            for v in range(chart.n)
        )

    def _validate(self, forms: tuple) -> None:
        chart, n = self.chart, self.chart.n
        table = chart.table
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"{self._kind} matrix must be {n}x{n}")
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if (getattr(entry, "chart", chart), getattr(entry, "table", table)) != (chart, table):
                    raise ValueError(f"entry [{i}][{j}] lives on a foreign chart or variable table")
                form = forms[i][j]
                coeffs = form.terms.values()
                if not form.is_base_form(degree=self._degree):
                    fiber = [f"y{k}" for k in range(1, n + 1) if any(c.depends_on(f"y{k}") for c in coeffs)]
                    if fiber:
                        raise ValueError(f"entry [{i}][{j}] depends on fiber variable {fiber[0]}")
                    raise ValueError(f"entry [{i}][{j}] is not a base {self._degree}-form")
                if any(c.depends_on("s") for c in coeffs):
                    raise ValueError(f"entry [{i}][{j}] carries the unit s")
        for i in range(n):
            for j in range(i, n):
                if not (self.entries[i][j] + self.entries[j][i]).is_zero:
                    raise ValueError(
                        f"{self._kind} not skew: entries [{i}][{j}] and [{j}][{i}] do not cancel"
                    )

    @classmethod
    def zero(cls, chart: ChartSpec):
        n = chart.n
        return cls(chart, [[cls._zero_entry(chart)] * n for _ in range(n)])

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    @property
    def is_zero(self) -> bool:
        return all(image.is_zero for image in self._images)

    def depends_on(self, name: str) -> bool:
        return any(c.depends_on(name) for image in self._images for c in image.terms.values())

    def derivation(self, form: Form) -> Form:
        """Extend the matrix action as a derivation of the algebra: each
        fiber generator is replaced by its matrix image. Odd for the
        connection, whose images carry a 1-form, and even for the
        endomorphism. Vanishes on fiber-degree-0 terms."""
        return form.substitute_fiber(self._images)


class EndomorphismField(_SkewMatrix):
    """Skew matrix of base functions (Scalar entries, which may depend on
    t); its derivation is the endomorphism's action on fiber words."""

    __slots__ = ()
    _kind, _degree = "endomorphism", 0

    @staticmethod
    def _zero_entry(chart: ChartSpec) -> Scalar:
        return Scalar.zero(chart.table)

    @staticmethod
    def _lift(chart: ChartSpec, entries: tuple) -> tuple:
        return tuple(tuple(Form.from_scalar(chart, e) for e in row) for row in entries)


class ConnectionMatrix(_SkewMatrix):
    """Skew matrix of base 1-forms describing a metric connection: entry
    [i][j] pairs e_i with the derivative of e_j."""

    __slots__ = ()
    _kind, _degree = "connection", 1
    _zero_entry = staticmethod(Form.zero)

    @staticmethod
    def _lift(chart: ChartSpec, entries: tuple) -> tuple:
        return entries

    def covariant_d(self, form: Form) -> Form:
        """Covariant derivative on exterior-bundle valued forms: the
        exterior derivative plus the odd derivation sending e_j to
        sum_i eta[i][j] e_i. On products it satisfies the graded Leibniz
        rule, and it reduces to the plain exterior derivative on
        fiber-degree-0 forms.
        """
        return form.d() + self.derivation(form)


def cone_covariant(
    eta: ConnectionMatrix,
    phi: EndomorphismField,
    omega: Form,
    pair: ConePair,
) -> ConePair:
    """Covariant derivative of the twisted two-term complex:
    (covariant d of a + omega ^ b, derivation of a - covariant d of b),
    the covariant derivative of a + theta b with d(theta) = omega, plus
    theta ^ phi(a). The twist is not validated here: the residuals run it
    on deliberately broken instances too."""
    a, b = pair.theta_slots()
    return eta.covariant_d(pair) + omega.wedge(b) + phi.derivation(a).times_theta()
