"""Differential forms on the total space of a trivialized metric bundle.

A form is a sparse sum of terms

    c * exp(-g*|y|^2/2) * (one-form word) tensor (fiber word)

with c an exact polynomial Scalar, g a nonnegative integer weight, the
one-form word an ordered subset of {dx1..dxm, dy1..dyn} and the fiber word
an ordered subset of the lifted orthonormal frame {e1..en}. Generator
subsets are stored as bit masks in the canonical order
dx1 < .. < dxm < dy1 < .. < dyn and e1 < .. < en; every permutation sign in
the algebra is derived by counting transpositions against that order, so
there is a single source of truth for signs.

The Gaussian weight is an integer per term rather than a coefficient
factor because exp is not polynomial; products add weights and the
exterior derivative applies the chain rule to them.

Only this module builds raw term maps, signs and accumulation buckets;
other modules use Form methods. Operators acting on the fiber word one
generator at a time (the tautological contraction, the connection and
endomorphism derivations) share :meth:`Form.substitute_fiber`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .scalars import (
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


@dataclass(frozen=True)
class ChartSpec:
    """Dimensions of one trivialized chart: base R^m, fiber R^n."""

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
        return self.m + self.n

    @property
    def dy_mask(self) -> int:
        return ((1 << self.n) - 1) << self.m

    @property
    def fiber_full(self) -> int:
        return (1 << self.n) - 1

    def dx_bit(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"dx{i} is not a generator of this chart")
        return 1 << (i - 1)

    def dy_bit(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ValueError(f"dy{j} is not a generator of this chart")
        return 1 << (self.m + j - 1)

    def fiber_bit(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"e{k} is not a fiber generator of this chart")
        return 1 << (k - 1)

    def one_form_bit(self, name: str) -> int:
        if name.startswith("dx"):
            return self.dx_bit(int(name[2:]))
        if name.startswith("dy"):
            return self.dy_bit(int(name[2:]))
        raise ValueError(f"unknown one-form generator {name!r}")

    def fiber_gen_bit(self, name: str) -> int:
        if name.startswith("e"):
            return self.fiber_bit(int(name[1:]))
        raise ValueError(f"unknown fiber generator {name!r}")

    def one_form_names(self, mask: int) -> list[str]:
        out = []
        for pos in range(self.m + self.n):
            if mask & (1 << pos):
                out.append(f"dx{pos + 1}" if pos < self.m else f"dy{pos - self.m + 1}")
        return out

    def fiber_names(self, mask: int) -> list[str]:
        return [f"e{pos + 1}" for pos in range(self.n) if mask & (1 << pos)]


class FormTerm(NamedTuple):
    """Structural slot of one term: Gaussian weight and generator words."""

    gauss: int
    one_forms: int
    fiber_gens: int


def term_sort_key(term: FormTerm):
    return (
        term.one_forms.bit_count(),
        term.one_forms,
        term.fiber_gens.bit_count(),
        term.fiber_gens,
        term.gauss,
    )


def _collect(table: VarTable, acc: dict[FormTerm, Bucket]) -> dict[FormTerm, Scalar]:
    out = {}
    for key, bucket in acc.items():
        coeff = bucket.scalar(table)
        if coeff.terms:
            out[key] = coeff
    return out


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
            one_limit = (1 << chart.one_form_count) - 1
            fiber_limit = chart.fiber_full
            for term, coeff in terms.items():
                if term.gauss < 0:
                    raise ValueError("Gaussian weight must be nonnegative")
                if term.one_forms & ~one_limit or term.fiber_gens & ~fiber_limit:
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
        return cls._raw(chart, {FormTerm(0, 0, 0): coeff})

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
        """One term from generator names, in any order; the sign of sorting
        the given words into canonical order is folded into the coefficient."""
        if not isinstance(coeff, Scalar):
            coeff = Scalar.rational(chart.table, coeff)
        sign = 1
        one_mask = 0
        for name in d:
            bit = chart.one_form_bit(name)
            if one_mask & bit:
                return cls.zero(chart)
            sign *= merge_sign(one_mask, bit)
            one_mask |= bit
        fiber_mask = 0
        for name in e:
            bit = chart.fiber_gen_bit(name)
            if fiber_mask & bit:
                return cls.zero(chart)
            sign *= merge_sign(fiber_mask, bit)
            fiber_mask |= bit
        return cls(chart, {FormTerm(gauss, one_mask, fiber_mask): coeff.scaled(sign)})

    @classmethod
    def dx(cls, chart: ChartSpec, i: int) -> "Form":
        return cls._raw(chart, {FormTerm(0, chart.dx_bit(i), 0): Scalar.one(chart.table)})

    @classmethod
    def fiber(cls, chart: ChartSpec, k: int) -> "Form":
        return cls._raw(chart, {FormTerm(0, 0, chart.fiber_bit(k)): Scalar.one(chart.table)})

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
        return Form._raw(self.chart, res)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form._raw(self.chart, {t: -c for t, c in self.terms.items()})

    def scale(self, value) -> "Form":
        """Multiply every coefficient by a Scalar (or rational constant)."""
        if isinstance(value, Scalar):
            res = {}
            for term, c in self.terms.items():
                prod = c * value
                if prod.terms:
                    res[term] = prod
            return Form._raw(self.chart, res)
        q = exact_rational(value)
        if not q:
            return Form.zero(self.chart)
        return Form._raw(self.chart, {t: c.scaled(q) for t, c in self.terms.items()})

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
        """Graded product.

        Per-term sign: permutation sign merging the one-form words, times
        the sign merging the fiber words, times (-1)^(left fiber degree *
        right form degree) for the right one-form word crossing the left
        fiber word. Gaussian weights add; overlapping generators kill the
        product.
        """
        self._check_chart(other)
        acc: dict[FormTerm, Bucket] = {}
        for t1, c1 in self.terms.items():
            g1, o1, f1 = t1
            f1_odd = f1.bit_count() & 1
            for t2, c2 in other.terms.items():
                g2, o2, f2 = t2
                if o1 & o2 or f1 & f2:
                    continue
                sign = merge_sign(o1, o2) * merge_sign(f1, f2)
                if f1_odd and o2.bit_count() & 1:
                    sign = -sign
                key = FormTerm(g1 + g2, o1 | o2, f1 | f2)
                bucket = acc.get(key)
                if bucket is None:
                    bucket = acc[key] = Bucket()
                accumulate_product(bucket, c1, c2, sign)
        return Form._raw(self.chart, _collect(self.chart.table, acc))

    # ------------------------------------------------------------------
    # differential operators

    def d(self) -> "Form":
        """Exterior derivative.

        Differentiates the coefficient in every chart variable and applies
        the chain rule to the Gaussian weight; the new one-form enters at
        the front of the one-form word, signed by its sorted position.
        Fiber words are untouched.
        """
        chart = self.chart
        table = chart.table
        nvars = chart.one_form_count
        y_vars = [Scalar.variable(table, f"y{j}") for j in range(1, chart.n + 1)]
        acc: dict[FormTerm, Bucket] = {}
        for term, coeff in self.terms.items():
            g, o, f = term
            for idx in range(nvars):
                bit = 1 << idx
                if o & bit:
                    continue
                total = coeff.partial(table.names[idx])
                if g and idx >= chart.m:
                    total = total - (coeff * y_vars[idx - chart.m]).scaled(g)
                if not total.terms:
                    continue
                sign = -1 if (o & (bit - 1)).bit_count() & 1 else 1
                key = FormTerm(g, o | bit, f)
                bucket = acc.get(key)
                if bucket is None:
                    bucket = acc[key] = Bucket()
                accumulate_terms(bucket, total, sign)
        return Form._raw(chart, _collect(table, acc))

    def substitute_fiber(self, images: Sequence["Form"], *, odd: bool = False) -> "Form":
        """Replace each fiber generator e_(v+1) of each term, in place, by
        the form images[v], summed over the word's generators.

        Image terms carry at most one fiber generator; only the images of
        generators that occur in the form are read. The sign is the
        parity of moving e_(v+1) from its slot to the front of the fiber
        word, times that of sorting the image's generator into the rest of
        the word, times that of pulling the image's one-form word to the
        front of the term's; nothing in the image crosses the fiber word.
        ``odd`` adds a global (-1)^(form degree), for an operator that
        anticommutes past the one-form word. Gaussian weights add.
        """
        chart = self.chart
        if len(images) != chart.n:
            raise ValueError(f"need one image per fiber generator, {chart.n} in all")
        used = 0
        for term in self.terms:
            used |= term.fiber_gens
        parts = []
        for v, image in enumerate(images):
            self._check_chart(image)
            part = []
            if used >> v & 1:
                for (g2, o2, f2), c2 in image.terms.items():
                    if f2 & (f2 - 1):
                        raise ValueError("a fiber image term carries more than one fiber generator")
                    part.append((g2, o2, f2, f2 - 1 if f2 else 0, c2))
            parts.append(part)
        acc: dict[FormTerm, Bucket] = {}
        for (g, o, f), coeff in self.terms.items():
            flip = o.bit_count() & 1 if odd else 0
            for bit in _bits(f):
                rest = f ^ bit
                slot = flip ^ (f & (bit - 1)).bit_count() & 1
                for g2, o2, f2, below, c2 in parts[bit.bit_length() - 1]:
                    if o2 & o or f2 & rest:
                        continue
                    sign = -1 if (slot ^ (rest & below).bit_count()) & 1 else 1
                    if o2:
                        sign *= merge_sign(o2, o)
                    key = FormTerm(g + g2, o | o2, rest | f2)
                    bucket = acc.get(key)
                    if bucket is None:
                        bucket = acc[key] = Bucket()
                    accumulate_product(bucket, coeff, c2, sign)
        return Form._raw(chart, _collect(chart.table, acc))

    def contract_tautological(self) -> "Form":
        """Interior product with the position section sum_k y_k e_k: each
        fiber generator e_k is replaced by y_k, as an odd operator, so the
        contraction anticommutes past the one-form word."""
        return self.substitute_fiber(_position_images(self.chart), odd=True)

    def fiber_coefficient(self, word: int) -> "Form":
        """Coefficient of the fiber word ``word`` (a bit mask): the terms
        carrying exactly that word, with the word stripped."""
        return Form._raw(self.chart, {FormTerm(g, o, 0): c for (g, o, f), c in self.terms.items() if f == word})

    def berezin(self) -> "Form":
        """Coefficient of the full fiber word e1^..^en; all other terms die."""
        return self.fiber_coefficient(self.chart.fiber_full)

    def fiber_degree_part(self, degree: int) -> "Form":
        """The terms whose fiber word has ``degree`` generators."""
        return Form._raw(self.chart, {t: c for t, c in self.terms.items() if t.fiber_gens.bit_count() == degree})

    def on_fiber_word(self, word: int) -> "Form":
        """This fiber-free form with the fiber word ``word`` (a bit mask)
        attached to every term; no sign arises."""
        chart = self.chart
        if word & ~chart.fiber_full:
            raise ValueError(f"fiber word {word:#b} does not fit chart {chart}")
        terms = {}
        for (g, o, f), coeff in self.terms.items():
            if f:
                raise ValueError("form already carries a fiber word")
            terms[FormTerm(g, o, word)] = coeff
        return Form._raw(chart, terms)

    def fiber_integral(self) -> "Form":
        """Push a total-space form down the fiber.

        Only terms carrying every dy generator survive; the canonical storage
        order already places the dx block before the dy block, so the
        reordering sign is +1. Each fiber variable then integrates against the
        unit-variance Gaussian: y^(2k) contributes (2k-1)!! s and odd powers
        vanish, with one factor of s per fiber direction.
        """
        chart = self.chart
        dy_mask = chart.dy_mask
        fiber_vars = [f"y{j}" for j in range(1, chart.n + 1)]
        buckets: dict[FormTerm, Bucket] = {}
        for (g, o, f), coeff in self.terms.items():
            if o & dy_mask != dy_mask:
                continue
            if f:
                raise ValueError("cannot integrate a term still carrying fiber generators")
            if g == 0:
                raise ValueError("divergent fiber integral: full dy word with no Gaussian weight")
            if g != 1:
                raise ValueError(f"unsupported Gaussian weight {g}: the moment table is fixed at weight 1")
            key = FormTerm(0, o & ~dy_mask, 0)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = Bucket()
            accumulate_moments(bucket, coeff, fiber_vars, _gaussian_moment, chart.n)
        return Form._raw(chart, _collect(chart.table, buckets))

    def t_derivative(self) -> "Form":
        """Formal derivative in the family parameter t, coefficientwise."""
        res = {}
        for term, coeff in self.terms.items():
            dc = coeff.partial("t")
            if dc.terms:
                res[term] = dc
        return Form._raw(self.chart, res)

    def times_gaussian(self, power: int = 1) -> "Form":
        """Multiply by exp(-power*|y|^2/2), shifting every term's weight."""
        res = {}
        for (g, o, f), coeff in self.terms.items():
            if g + power < 0:
                raise ValueError("Gaussian weight must stay nonnegative")
            res[FormTerm(g + power, o, f)] = coeff
        return Form._raw(self.chart, res)

    def parity_involution(self) -> "Form":
        """Negate terms of odd total parity (form degree plus fiber
        degree); the grading involution used by the pair product."""
        res = {
            t: (-c if (t.one_forms.bit_count() + t.fiber_gens.bit_count()) & 1 else c)
            for t, c in self.terms.items()
        }
        return Form._raw(self.chart, res)

    # ------------------------------------------------------------------
    # inspection

    def is_base_form(self, degree: int | None = None) -> bool:
        """No Gaussian weight, no fiber word, one-forms within the dx block,
        coefficients free of fiber variables (optionally: pure degree)."""
        chart = self.chart
        for (g, o, f), coeff in self.terms.items():
            if g or f or o & chart.dy_mask:
                return False
            if degree is not None and o.bit_count() != degree:
                return False
            if any(coeff.depends_on(f"y{j}") for j in range(1, chart.n + 1)):
                return False
        return True

    def sorted_terms(self) -> list[tuple[FormTerm, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def to_obj(self) -> list:
        chart = self.chart
        return [
            {
                "gauss": term.gauss,
                "d": chart.one_form_names(term.one_forms),
                "e": chart.fiber_names(term.fiber_gens),
                "coeff": coeff.to_obj(),
            }
            for term, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_obj(cls, chart: ChartSpec, obj) -> "Form":
        if not isinstance(obj, list):
            raise ValueError("form payload must be a list of term objects")
        acc: dict[FormTerm, Bucket] = {}
        for entry in obj:
            if not isinstance(entry, dict):
                raise ValueError(f"bad form term {entry!r}")
            d, e = entry.get("d", []), entry.get("e", [])
            if not (isinstance(d, list) and isinstance(e, list) and all(isinstance(x, str) for x in d + e)):
                raise ValueError(f"bad form term {entry!r}: d and e must be lists of generator names")
            coeff = Scalar.from_obj(chart.table, entry.get("coeff", []))
            gauss = exact_int(entry.get("gauss", 0), f"Gaussian weight {entry.get('gauss')!r}")
            single = cls.single(chart, coeff, gauss=gauss, d=d, e=e)
            for term, c in single.terms.items():
                accumulate_terms(acc.setdefault(term, Bucket()), c, 1)
        return cls._raw(chart, _collect(chart.table, acc))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chart = self.chart
        parts = []
        for term, coeff in self.sorted_terms():
            bits = [f"({coeff})"]
            if term.gauss:
                bits.append(f"G^{term.gauss}")
            if term.one_forms:
                bits.append("^".join(chart.one_form_names(term.one_forms)))
            if term.fiber_gens:
                bits.append("[" + "^".join(chart.fiber_names(term.fiber_gens)) + "]")
            parts.append(" ".join(bits))
        return "  +  ".join(parts)

    def __repr__(self) -> str:
        return f"Form({self})"


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
    terms = {
        FormTerm(0, 0, chart.fiber_bit(k)): Scalar.variable(table, f"y{k}")
        for k in range(1, chart.n + 1)
    }
    return Form._raw(chart, terms)
