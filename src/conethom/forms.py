"""Differential forms on the total space of a trivialized metric bundle.

A form is a sparse sum of terms

    c * exp(-g*|y|^2/2) * (generator word)

with c an exact polynomial Scalar, g a nonnegative integer weight and the
word an ordered subset of the odd generators: the mapping cone's theta,
dx1..dxm, dy1..dyn of the one-forms and e1..en of the lifted orthonormal
frame, all in one graded-commutative algebra. A word is stored as one bit
mask in the canonical order theta < dx1 < .. < dxm < dy1 < .. < dyn < e1 <
.. < en, lowest bit first. Every permutation sign in the algebra is the
parity of sorting a concatenation of words into that order
(:func:`merge_sign`), so there is a single source of truth for signs; the
crossing of a fiber word by a one-form needs no rule of its own.

Theta (bit 0, :data:`THETA`) is the odd generator, theta^2 = 0, that makes
the form a + theta b the mapping cone pair (a, b). This module treats it
as a constant; its differential d(theta) = omega depends on the twist and
is added by the cone module. Sitting below every other generator, theta
stays put when a one-form enters a word or a fiber generator leaves it,
and the sorting signs of those operators are the pair's signs unaided.

The Gaussian weight is an integer per term rather than a coefficient
factor because exp is not polynomial; products add weights and the
exterior derivative applies the chain rule to them.

Only this module builds raw term maps, signs and accumulation buckets;
other modules use Form methods. Operators acting on the fiber word one
generator at a time (the tautological contraction, the connection and
endomorphism derivations) share :meth:`Form.substitute_fiber`.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .scalars import (
    DIGIT_LIMIT,
    Bucket,
    Scalar,
    VarTable,
    accumulate_moments,
    accumulate_product,
    accumulate_terms,
    exact_int,
    exact_rational,
    var_table,
)


def merge_sign(left: int, right: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending words."""
    inv = 0
    rest = right
    while rest:
        low = rest & -rest
        inv += (left & ~(low | (low - 1))).bit_count()
        rest ^= low
    return -1 if inv & 1 else 1


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


# the word bit of the mapping cone's odd generator theta
THETA = 1

# generator names as the instance schema spells them: ASCII digits only,
# at most DIGIT_LIMIT of them
_ONE_FORM_NAME = re.compile(rf"(dx|dy)([0-9]{{1,{DIGIT_LIMIT}}})")
_FIBER_NAME = re.compile(rf"e([0-9]{{1,{DIGIT_LIMIT}}})")


@lru_cache(maxsize=None)
def _generator_names(m: int, n: int) -> tuple[str, ...]:
    return tuple(
        ["theta"]
        + [f"dx{i}" for i in range(1, m + 1)]
        + [f"dy{j}" for j in range(1, n + 1)]
        + [f"e{k}" for k in range(1, n + 1)]
    )


@dataclass(frozen=True)
class ChartSpec:
    """Dimensions of one trivialized chart: base R^m, fiber R^n.

    Bit p of a generator word is the p-th generator of
    theta, dx1..dxm, dy1..dyn, e1..en.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("base dimension must be nonnegative")
        if self.n < 1:
            raise ValueError("bundle rank must be at least 1")
        if self.m + self.n > 62:
            raise ValueError("m + n exceeds the 62-generator bit-set bound")

    @property
    def table(self) -> VarTable:
        return var_table(self.m, self.n)

    @property
    def one_form_count(self) -> int:
        """The number of one-form generators."""
        return self.m + self.n

    @property
    def fiber_shift(self) -> int:
        """The bit of e1."""
        return self.m + self.n + 1

    @property
    def one_form_mask(self) -> int:
        return ((1 << (self.m + self.n)) - 1) << 1

    @property
    def dy_mask(self) -> int:
        return ((1 << self.n) - 1) << (self.m + 1)

    @property
    def fiber_mask(self) -> int:
        return ((1 << self.n) - 1) << self.fiber_shift

    def dx_bit(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"dx{i} is not a generator of this chart")
        return 1 << i

    def dy_bit(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ValueError(f"dy{j} is not a generator of this chart")
        return 1 << (self.m + j)

    def fiber_bit(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"e{k} is not a fiber generator of this chart")
        return 1 << (self.m + self.n + k)

    def one_form_bit(self, name: str) -> int:
        match = _ONE_FORM_NAME.fullmatch(name)
        if match is None:
            raise ValueError(
                f"unknown one-form generator {reprlib.repr(name)}: dx or dy, then 1 to {DIGIT_LIMIT} digits"
            )
        kind, index = match.groups()
        return self.dx_bit(int(index)) if kind == "dx" else self.dy_bit(int(index))

    def fiber_gen_bit(self, name: str) -> int:
        match = _FIBER_NAME.fullmatch(name)
        if match is None:
            raise ValueError(f"unknown fiber generator {reprlib.repr(name)}: e, then 1 to {DIGIT_LIMIT} digits")
        return self.fiber_bit(int(match[1]))

    def names(self, word: int) -> list[str]:
        """The generators of a word, in canonical order."""
        names = _generator_names(self.m, self.n)
        return [names[pos] for pos in range(word.bit_length()) if word >> pos & 1]


class FormTerm(NamedTuple):
    """Structural slot of one term: Gaussian weight and generator word."""

    gauss: int
    word: int


def _collect(table: VarTable, acc: dict[FormTerm, Bucket]) -> dict[FormTerm, Scalar]:
    out = {}
    for key, bucket in acc.items():
        coeff = bucket.scalar(table)
        if coeff.terms:
            out[key] = coeff
    return out


_TERM_FIELDS = {"gauss", "d", "e", "coeff"}


class Form:
    """Sparse bundle-valued form; immutable by convention.

    May be inhomogeneous in degree. Equality is structural: same chart and
    identical term maps.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: ChartSpec, terms: Mapping[FormTerm, Scalar] | None = None):
        self.chart = chart
        clean: dict[FormTerm, Scalar] = {}
        if terms:
            table = chart.table
            limit = THETA | chart.one_form_mask | chart.fiber_mask
            for term, coeff in terms.items():
                if term.gauss < 0:
                    raise ValueError("Gaussian weight must be nonnegative")
                if term.word & ~limit:
                    raise ValueError(f"term {term} does not fit chart {chart}")
                if coeff.table != table:
                    raise ValueError("coefficient table does not match the chart")
                if coeff.terms:
                    clean[term] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, chart: ChartSpec, terms: dict[FormTerm, Scalar]) -> "Form":
        out = object.__new__(cls)
        out.chart = chart
        out.terms = terms
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, chart: ChartSpec) -> "Form":
        return cls._raw(chart, {})

    @classmethod
    def from_scalar(cls, chart: ChartSpec, coeff: Scalar) -> "Form":
        if not coeff.terms:
            return cls.zero(chart)
        return cls._raw(chart, {FormTerm(0, 0): coeff})

    @classmethod
    def one(cls, chart: ChartSpec) -> "Form":
        return cls.from_scalar(chart, Scalar.one(chart.table))

    @classmethod
    def single(
        cls,
        chart: ChartSpec,
        coeff,
        *,
        gauss: int = 0,
        d: Sequence[str] = (),
        e: Sequence[str] = (),
    ) -> "Form":
        """One term from one-form names ``d`` followed by fiber names ``e``,
        each in any order; the sign of sorting the word into canonical
        order is folded into the coefficient."""
        if not isinstance(coeff, Scalar):
            coeff = Scalar.rational(chart.table, coeff)
        sign = 1
        word = 0
        for bit in [chart.one_form_bit(name) for name in d] + [chart.fiber_gen_bit(name) for name in e]:
            if word & bit:
                return cls.zero(chart)
            sign *= merge_sign(word, bit)
            word |= bit
        return cls(chart, {FormTerm(gauss, word): coeff.scaled(sign)})

    @classmethod
    def fiber(cls, chart: ChartSpec, k: int) -> "Form":
        return cls._raw(chart, {FormTerm(0, chart.fiber_bit(k)): Scalar.one(chart.table)})

    # ------------------------------------------------------------------
    # linear structure

    def _check_chart(self, other: "Form") -> None:
        if self.chart != other.chart:
            raise ValueError("forms live on different charts")

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_chart(other)
        res = dict(self.terms)
        for term, c in other.terms.items():
            cur = res.get(term)
            if cur is None:
                res[term] = c
            else:
                tot = cur + c
                if tot.terms:
                    res[term] = tot
                else:
                    del res[term]
        return self._raw(self.chart, res)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Form":
        return self._raw(self.chart, {t: -c for t, c in self.terms.items()})

    def scale(self, value) -> "Form":
        """Multiply every coefficient by a Scalar (or rational constant)."""
        if isinstance(value, Scalar):
            res = {}
            for term, c in self.terms.items():
                prod = c * value
                if prod.terms:
                    res[term] = prod
            return self._raw(self.chart, res)
        q = exact_rational(value)
        if not q:
            return self.zero(self.chart)
        return self._raw(self.chart, {t: c.scaled(q) for t, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    # ------------------------------------------------------------------
    # graded multiplication

    def wedge(self, other: "Form") -> "Form":
        """Graded product: per pair of terms, the sign of sorting the
        concatenated words. Gaussian weights add; a shared generator kills
        the product."""
        self._check_chart(other)
        acc: dict[FormTerm, Bucket] = {}
        for (g1, w1), c1 in self.terms.items():
            for (g2, w2), c2 in other.terms.items():
                if w1 & w2:
                    continue
                key = FormTerm(g1 + g2, w1 | w2)
                bucket = acc.get(key)
                if bucket is None:
                    bucket = acc[key] = Bucket()
                accumulate_product(bucket, c1, c2, merge_sign(w1, w2))
        return self._raw(self.chart, _collect(self.chart.table, acc))

    # ------------------------------------------------------------------
    # differential operators

    def d(self) -> "Form":
        """Exterior derivative.

        Differentiates the coefficient in every chart variable and applies
        the chain rule to the Gaussian weight; the new one-form enters at
        the front of the word, signed by its sorted position. Fiber
        generators sort above every one-form, so they never move; theta
        sorts below, so a + theta b goes to da - theta db.
        """
        chart = self.chart
        table = chart.table
        nvars = chart.one_form_count
        y_vars = [Scalar.variable(table, f"y{j}") for j in range(1, chart.n + 1)]
        acc: dict[FormTerm, Bucket] = {}
        for (g, w), coeff in self.terms.items():
            for idx in range(nvars):
                bit = 2 << idx
                if w & bit:
                    continue
                total = coeff.partial(table.names[idx])
                if g and idx >= chart.m:
                    total = total - (coeff * y_vars[idx - chart.m]).scaled(g)
                if not total.terms:
                    continue
                sign = -1 if (w & (bit - 1)).bit_count() & 1 else 1
                key = FormTerm(g, w | bit)
                bucket = acc.get(key)
                if bucket is None:
                    bucket = acc[key] = Bucket()
                accumulate_terms(bucket, total, sign)
        return self._raw(chart, _collect(table, acc))

    def substitute_fiber(self, images: Sequence["Form"]) -> "Form":
        """Replace each fiber generator e_(v+1) of each term by the form
        images[v], summed over the word's generators: move e_(v+1) to the
        front of the word (the sign counts the generators below it), then
        multiply the rest by the image from the left.

        This is the derivation of the algebra sending e_(v+1) to images[v],
        odd for images of even parity (the contraction's y_k, the
        connection's dx e) and even for odd ones (the endomorphism's e).
        Image terms carry at most one fiber generator; only the images of
        generators that occur in the form are read. Gaussian weights add.
        """
        chart = self.chart
        if len(images) != chart.n:
            raise ValueError(f"need one image per fiber generator, {chart.n} in all")
        first, fiber_mask = chart.fiber_shift, chart.fiber_mask
        used = 0
        for term in self.terms:
            used |= term.word
        parts = []
        for v, image in enumerate(images):
            self._check_chart(image)
            part = []
            if used >> (first + v) & 1:
                for (g2, w2), c2 in image.terms.items():
                    f2 = w2 >> first
                    if f2 & (f2 - 1):
                        raise ValueError("a fiber image term carries more than one fiber generator")
                    part.append((g2, w2, c2))
            parts.append(part)
        acc: dict[FormTerm, Bucket] = {}
        for (g, w), coeff in self.terms.items():
            for bit in _bits(w & fiber_mask):
                rest = w ^ bit
                front = -1 if (w & (bit - 1)).bit_count() & 1 else 1
                for g2, w2, c2 in parts[bit.bit_length() - 1 - first]:
                    if w2 & rest:
                        continue
                    key = FormTerm(g + g2, w2 | rest)
                    bucket = acc.get(key)
                    if bucket is None:
                        bucket = acc[key] = Bucket()
                    accumulate_product(bucket, coeff, c2, front * merge_sign(w2, rest))
        return self._raw(chart, _collect(chart.table, acc))

    def contract_tautological(self) -> "Form":
        """Interior product with the position section sum_k y_k e_k: each
        fiber generator e_k is replaced by the even y_k, so the contraction
        is odd and anticommutes past the one-form word and theta."""
        return self.substitute_fiber(_position_images(self.chart))

    def fiber_coefficient(self, word: int) -> "Form":
        """Coefficient of the fiber word ``word`` (a bit mask of fiber
        generators): the terms carrying exactly that word, with the word
        stripped."""
        mask = self.chart.fiber_mask
        return self._raw(self.chart, {FormTerm(g, w ^ word): c for (g, w), c in self.terms.items() if w & mask == word})

    def berezin(self) -> "Form":
        """Coefficient of the full fiber word e1^..^en; all other terms die."""
        return self.fiber_coefficient(self.chart.fiber_mask)

    def fiber_degree_part(self, degree: int) -> "Form":
        """The terms whose fiber word has ``degree`` generators."""
        mask = self.chart.fiber_mask
        return self._raw(self.chart, {t: c for t, c in self.terms.items() if (t.word & mask).bit_count() == degree})

    def on_fiber_word(self, word: int) -> "Form":
        """This fiber-free form with the fiber word ``word`` (a bit mask)
        appended to every term; no sign arises."""
        chart = self.chart
        mask = chart.fiber_mask
        if word & ~mask:
            raise ValueError(f"fiber word {word:#b} does not fit chart {chart}")
        terms = {}
        for (g, w), coeff in self.terms.items():
            if w & mask:
                raise ValueError("form already carries a fiber word")
            terms[FormTerm(g, w | word)] = coeff
        return self._raw(chart, terms)

    def fiber_integral(self) -> "Form":
        """Push a total-space form down the fiber.

        Only terms carrying every dy generator survive; the canonical storage
        order already places theta and the dx block before the dy block, so
        the reordering sign is +1. Each fiber variable then integrates against the
        unit-variance Gaussian: y^(2k) contributes (2k-1)!! s and odd powers
        vanish, with one factor of s per fiber direction.
        """
        chart = self.chart
        dy_mask = chart.dy_mask
        fiber_vars = [f"y{j}" for j in range(1, chart.n + 1)]
        buckets: dict[FormTerm, Bucket] = {}
        for (g, w), coeff in self.terms.items():
            if w & dy_mask != dy_mask:
                continue
            if w & chart.fiber_mask:
                raise ValueError("cannot integrate a term still carrying fiber generators")
            if g == 0:
                raise ValueError("divergent fiber integral: full dy word with no Gaussian weight")
            if g != 1:
                raise ValueError(f"unsupported Gaussian weight {g}: the moment table is fixed at weight 1")
            key = FormTerm(0, w ^ dy_mask)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = Bucket()
            accumulate_moments(bucket, coeff, fiber_vars, _gaussian_moment, chart.n)
        return self._raw(chart, _collect(chart.table, buckets))

    def t_derivative(self) -> "Form":
        """Formal derivative in the family parameter t, coefficientwise."""
        res = {}
        for term, coeff in self.terms.items():
            dc = coeff.partial("t")
            if dc.terms:
                res[term] = dc
        return self._raw(self.chart, res)

    def times_gaussian(self, power: int = 1) -> "Form":
        """Multiply by exp(-power*|y|^2/2), shifting every term's weight."""
        res = {}
        for (g, w), coeff in self.terms.items():
            if g + power < 0:
                raise ValueError("Gaussian weight must stay nonnegative")
            res[FormTerm(g + power, w)] = coeff
        return self._raw(self.chart, res)

    def times_theta(self) -> "Form":
        """theta ^ self for a theta-free form: theta enters at the front of
        every word, so no sign arises."""
        if any(t.word & THETA for t in self.terms):
            raise ValueError("form already carries theta")
        return self._raw(self.chart, {FormTerm(g, w | THETA): c for (g, w), c in self.terms.items()})

    def theta_slots(self) -> tuple["Form", "Form"]:
        """(a, b) with self = a + theta ^ b, both theta-free Forms."""
        slots: tuple[dict, dict] = ({}, {})
        for (g, w), c in self.terms.items():
            slots[w & THETA][FormTerm(g, w & ~THETA)] = c
        return Form._raw(self.chart, slots[0]), Form._raw(self.chart, slots[1])

    # ------------------------------------------------------------------
    # inspection

    def is_base_form(self, degree: int) -> bool:
        """No Gaussian weight, a word of ``degree`` dx generators and no
        theta, and coefficients free of fiber variables."""
        chart = self.chart
        for (g, w), coeff in self.terms.items():
            if g or w & THETA or w >> (chart.m + 1) or w.bit_count() != degree:
                return False
            if any(coeff.depends_on(f"y{j}") for j in range(1, chart.n + 1)):
                return False
        return True

    def sorted_terms(self) -> list[tuple[FormTerm, Scalar]]:
        """Terms by theta, form degree, one-form word, fiber degree, fiber
        word and weight."""
        first = self.chart.fiber_shift
        one_mask = self.chart.one_form_mask

        def key(item):
            (g, w), _ = item
            one, fiber = w & one_mask, w >> first
            return (w & THETA, one.bit_count(), one, fiber.bit_count(), fiber, g)

        return sorted(self.terms.items(), key=key)

    def to_obj(self) -> list:
        chart = self.chart
        one_mask = chart.one_form_mask
        return [
            {
                "gauss": g,
                "d": chart.names(w & one_mask),
                "e": chart.names(w & ~one_mask),
                "coeff": coeff.to_obj(),
            }
            for (g, w), coeff in self.sorted_terms()
        ]

    @classmethod
    def from_obj(cls, chart: ChartSpec, obj) -> "Form":
        if not isinstance(obj, list):
            raise ValueError("form payload must be a list of term objects")
        acc: dict[FormTerm, Bucket] = {}
        for entry in obj:
            if not (isinstance(entry, dict) and entry.keys() == _TERM_FIELDS):
                raise ValueError(f"bad form term {entry!r}: need exactly the fields coeff, d, e, gauss")
            d, e = entry["d"], entry["e"]
            if not (isinstance(d, list) and isinstance(e, list) and all(isinstance(x, str) for x in d + e)):
                raise ValueError(f"bad form term {entry!r}: d and e must be lists of generator names")
            coeff = Scalar.from_obj(chart.table, entry["coeff"])
            gauss = exact_int(entry["gauss"], f"Gaussian weight {entry['gauss']!r}")
            single = cls.single(chart, coeff, gauss=gauss, d=d, e=e)
            for term, c in single.terms.items():
                accumulate_terms(acc.setdefault(term, Bucket()), c, 1)
        return cls._raw(chart, _collect(chart.table, acc))


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1."""
    if k < -1 or not k & 1:
        raise ValueError("double factorial is used for odd arguments only")
    return prod(range(k, 0, -2))


def _gaussian_moment(e: int) -> int:
    """Integral of y^e against the unit-variance Gaussian, in units of s."""
    return 0 if e & 1 else double_factorial(e - 1)


@lru_cache(maxsize=None)
def _position_images(chart: ChartSpec) -> tuple[Form, ...]:
    """The contraction's images y_k of the fiber generators e_k."""
    table = chart.table
    return tuple(Form.from_scalar(chart, Scalar.variable(table, f"y{k}")) for k in range(1, chart.n + 1))


def tautological_section(chart: ChartSpec) -> Form:
    """The position section of the lifted bundle: sum_k y_k e_k."""
    table = chart.table
    terms = {FormTerm(0, chart.fiber_bit(k)): Scalar.variable(table, f"y{k}") for k in range(1, chart.n + 1)}
    return Form._raw(chart, terms)
