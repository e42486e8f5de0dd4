"""Exact coefficient ring: sparse polynomials over rationals.

A Scalar is a sparse polynomial with rational coefficients in the chart
variables x1..xm, the fiber variables y1..yn and the family parameter t,
times an integer power of a formal unit ``s`` standing for sqrt(2*pi).
Keeping s symbolic lets Gaussian moments cancel normalization factors
exactly instead of numerically.

Representation. A Scalar holds one positive integer denominator ``den``
and a dict ``terms`` from a packed monomial to a nonzero integer
numerator; the coefficient of a monomial is ``terms[key] / den``. The form
is canonical: ``gcd(den, *numerators) == 1``, so ``den`` is the lcm of the
reduced coefficient denominators and structural equality is exact.

Packing (the packed-exponent layout of Monagan and Pearce): each declared
variable owns a field of ``FIELD_BITS`` bits, the first variable of the
table in the most significant field; the top bit of each field is a guard
bit, so an exponent must stay below ``EXPONENT_LIMIT``. The power of s sits
above every field as a signed value. A monomial product is then one int
addition and a partial derivative one subtraction. A product that carries
an exponent into a guard bit raises ValueError naming the variable; so
does an exponent at or above the limit in any constructor. Nothing wraps.

``Monomial`` (an exponent tuple plus the s power), ``Fraction`` and the
reduced ``p/q`` text appear only at the boundary: the public constructors,
``sorted_terms``, ``to_obj``/``from_obj``, ``__str__`` and
:meth:`Scalar.evaluate`, the bridge to floats used by the numeric
quadrature oracle in the test suite. Floats are refused everywhere else.

Fused sums of products go through a :class:`Bucket` and the raw helpers
:func:`accumulate_product`, :func:`accumulate_terms` and
:func:`accumulate_moments`; no other module packs or unpacks a monomial.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Mapping, NamedTuple, Sequence

S_NAME = "s"

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1
# the longest digit run of a rational or a generator name in an instance
# file, shorter than any interpreter's limit on int(str)
DIGIT_LIMIT = 1000
# the instance schema's rational: ASCII digits, an optional minus on p only
_RATIONAL = re.compile(rf"(-?[0-9]{{1,{DIGIT_LIMIT}}})/([0-9]{{1,{DIGIT_LIMIT}}})")


def rational_from_str(text: str) -> Fraction:
    """Parse the canonical ``p/q`` notation (q required and positive)."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(
            f"rational must look like 'p/q', got {reprlib.repr(text)}: p and q of 1 to {DIGIT_LIMIT} digits each"
        )
    p, q = int(match[1]), int(match[2])
    if q <= 0:
        raise ValueError(f"rational denominator must be positive in {text!r}")
    return Fraction(p, q)


def exact_int(value, what: str) -> int:
    """The value if it is an int; a bool, a float such as a JSON 2.7, or a
    string is refused rather than coerced or truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} is not an integer")
    return value


def exact_rational(value) -> Fraction:
    """The value as a Fraction; only int and Fraction are exact inputs."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact arithmetic takes int or Fraction, not {type(value).__name__}")


class Monomial(NamedTuple):
    """Exponent vector over a table's variables plus a power of s: the
    boundary form of a packed monomial.

    ``exps`` has one slot per declared variable, in table order.
    Serialization stays sparse (zero exponents are skipped).
    """

    exps: tuple[int, ...]
    s: int = 0


class VarTable:
    """Declared commuting variables for one chart: x1..xm, y1..yn, t, and
    the bit layout of their packed monomials.

    The unit s is not part of the table; it is tracked separately on each
    monomial and is never differentiated.
    """

    __slots__ = ("m", "n", "names", "_index", "shifts", "s_shift", "guard")

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0:
            raise ValueError("variable counts must be nonnegative")
        self.m = m
        self.n = n
        self.names: tuple[str, ...] = tuple(
            [f"x{i}" for i in range(1, m + 1)]
            + [f"y{j}" for j in range(1, n + 1)]
            + ["t"]
        )
        self._index = {name: k for k, name in enumerate(self.names)}
        size = len(self.names)
        self.shifts = tuple(FIELD_BITS * (size - 1 - k) for k in range(size))
        self.s_shift = FIELD_BITS * size
        self.guard = sum(EXPONENT_LIMIT << shift for shift in self.shifts)

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"variable {name!r} is not declared in this table") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarTable) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self) -> int:
        return hash((self.m, self.n))

    def __repr__(self) -> str:
        return f"VarTable(m={self.m}, n={self.n})"

    def pack(self, exps: Sequence[int], s: int) -> int:
        if len(exps) != len(self.names):
            raise ValueError("monomial does not match the variable table")
        if min(exps) < 0:
            raise ValueError("variable exponents must be nonnegative (only s may be inverted)")
        if max(exps) >= EXPONENT_LIMIT:
            name, e = next((name, e) for name, e in zip(self.names, exps) if e >= EXPONENT_LIMIT)
            raise ValueError(f"exponent {e} of {name} is not below the limit {EXPONENT_LIMIT}")
        key = s
        for e in exps:
            key = (key << FIELD_BITS) + e
        return key

    def pack_powers(self, powers: Mapping[str, int]) -> int:
        """Packed key of a sparse map like {"x1": 2, "s": -3}."""
        exps = [0] * len(self.names)
        s = 0
        for name, e in powers.items():
            exact_int(e, f"exponent {e!r} of {name}")
            if name == S_NAME:
                s += e
            else:
                exps[self.index(name)] += e
        return self.pack(exps, s)

    def unpack(self, key: int) -> Monomial:
        return Monomial(tuple([(key >> shift) & _FIELD_MASK for shift in self.shifts]), key >> self.s_shift)

    def check_guard(self, keys) -> None:
        """Raise if a product carried any exponent of ``keys`` into a guard bit."""
        hit = reduce(or_, keys, 0) & self.guard
        if hit:
            name = next(name for name, shift in zip(self.names, self.shifts) if hit >> shift & EXPONENT_LIMIT)
            raise ValueError(f"exponent of {name} overflows the limit {EXPONENT_LIMIT} in a product")


@lru_cache(maxsize=None)
def var_table(m: int, n: int) -> VarTable:
    return VarTable(m, n)


def _normalized(table: VarTable, den: int, terms: dict[int, int]) -> "Scalar":
    """Scalar from nonzero numerators over den, divided by their common gcd."""
    if not terms:
        return Scalar._raw(table, 1, terms)
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return Scalar._raw(table, den, terms)


def _from_fractions(coeffs: Mapping[int, Fraction]) -> tuple[int, dict[int, int]]:
    """Canonical (den, numerators) of packed keys with exact coefficients."""
    den = lcm(*[q.denominator for q in coeffs.values()])
    return den, {k: q.numerator * (den // q.denominator) for k, q in coeffs.items() if q}


class Scalar:
    """Sparse multivariate polynomial with exact rational coefficients:
    integer numerators ``terms`` over one denominator ``den``.

    Immutable by convention: every operation returns a new value and never
    touches its operands, so Scalars can be shared freely across threads.
    Two Scalars are equal exactly when their denominators and term maps
    coincide; ``len`` is the number of monomials.
    """

    __slots__ = ("table", "den", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, Fraction] | None = None):
        self.table = table
        self.den, self.terms = _from_fractions(
            {table.pack(mono.exps, mono.s): exact_rational(q) for mono, q in (terms or {}).items()}
        )

    @classmethod
    def _raw(cls, table: VarTable, den: int, terms: dict[int, int]) -> "Scalar":
        out = object.__new__(cls)
        out.table = table
        out.den = den
        out.terms = terms
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, table: VarTable) -> "Scalar":
        return cls._raw(table, 1, {})

    @classmethod
    def rational(cls, table: VarTable, value) -> "Scalar":
        q = exact_rational(value)
        if not q:
            return cls._raw(table, 1, {})
        return cls._raw(table, q.denominator, {0: q.numerator})

    @classmethod
    def one(cls, table: VarTable) -> "Scalar":
        return cls._raw(table, 1, {0: 1})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Scalar":
        return cls._raw(table, 1, {1 << table.shifts[table.index(name)]: 1})

    @classmethod
    def s_power(cls, table: VarTable, power: int) -> "Scalar":
        return cls._raw(table, 1, {power << table.s_shift: 1})

    @classmethod
    def term(cls, table: VarTable, coeff, powers: Mapping[str, int] | None = None) -> "Scalar":
        """Single term from a sparse map like {"x1": 2, "s": -3}."""
        return cls._raw(table, *_from_fractions({table.pack_powers(powers or {}): exact_rational(coeff)}))

    # ------------------------------------------------------------------
    # ring operations

    def _check_table(self, other: "Scalar") -> None:
        if self.table is not other.table and self.table != other.table:
            raise ValueError("operands use different variable tables")

    def _combine(self, other: "Scalar", sign: int) -> "Scalar":
        self._check_table(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            res = dict(self.terms)
            f2 = sign
        else:
            g = gcd(d1, d2)
            f1 = d2 // g
            res = {k: c * f1 for k, c in self.terms.items()}
            f2 = sign * (d1 // g)
            d1 *= f1
        for k, c in other.terms.items():
            tot = res.get(k, 0) + c * f2
            if tot:
                res[k] = tot
            else:
                del res[k]
        return _normalized(self.table, d1, res)

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "Scalar":
        return Scalar._raw(self.table, self.den, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_table(other)
        bucket = Bucket()
        accumulate_product(bucket, self, other, 1)
        return bucket.scalar(self.table)

    def scaled(self, value) -> "Scalar":
        q = exact_rational(value)
        if not q:
            return Scalar._raw(self.table, 1, {})
        p = q.numerator
        return _normalized(self.table, self.den * q.denominator, {k: c * p for k, c in self.terms.items()})

    def __len__(self) -> int:
        return len(self.terms)

    # ------------------------------------------------------------------
    # calculus and evaluation

    def partial(self, name: str) -> "Scalar":
        """Formal partial derivative; s is a constant unit and is rejected."""
        if name == S_NAME:
            raise ValueError("cannot differentiate with respect to the unit s")
        shift = self.table.shifts[self.table.index(name)]
        one = 1 << shift
        res: dict[int, int] = {}
        for k, c in self.terms.items():
            e = (k >> shift) & _FIELD_MASK
            if e:
                res[k - one] = c * e
        return _normalized(self.table, self.den, res)

    def evaluate(self, point: Mapping[str, float], s_value: float) -> float:
        """Numeric value at a point; every variable that occurs must be bound."""
        names = self.table.names
        total = 0.0
        for k, c in self.terms.items():
            mono = self.table.unpack(k)
            val = float(Fraction(c, self.den))
            for idx, e in enumerate(mono.exps):
                if e:
                    name = names[idx]
                    if name not in point:
                        raise ValueError(f"no value bound for variable {name!r}")
                    val *= point[name] ** e
            if mono.s:
                val *= s_value ** mono.s
            total += val
        return total

    def depends_on(self, name: str) -> bool:
        if name == S_NAME:
            shift = self.table.s_shift
            return any(k >> shift for k in self.terms)
        shift = self.table.shifts[self.table.index(name)]
        return any((k >> shift) & _FIELD_MASK for k in self.terms)

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.table == other.table and self.den == other.den and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[int, tuple[int, ...], int, str]]:
        """(degree, exponents, s power, reduced "p/q") rows in graded-lex
        order of the declared variables, s power last."""
        shifts, s_shift, den = self.table.shifts, self.table.s_shift, self.den
        rows = []
        for k, c in self.terms.items():
            exps = tuple([(k >> shift) & _FIELD_MASK for shift in shifts])
            g = gcd(c, den)
            rows.append((sum(exps), exps, k >> s_shift, f"{c // g}/{den // g}"))
        rows.sort()
        return rows

    def to_obj(self) -> list:
        """Canonical JSON-ready shape: [[monomial map, "p/q"], ...]."""
        names = self.table.names
        out = []
        for _, exps, s, coeff in self.sorted_terms():
            mdict: dict[str, int] = {names[i]: e for i, e in enumerate(exps) if e}
            if s:
                mdict[S_NAME] = s
            out.append([mdict, coeff])
        return out

    @classmethod
    def from_obj(cls, table: VarTable, obj) -> "Scalar":
        if not isinstance(obj, list):
            raise ValueError("scalar payload must be a list of [monomial, coeff] pairs")
        acc: dict[int, Fraction] = {}
        for entry in obj:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError(f"bad scalar term {entry!r}")
            mdict, coeff_str = entry
            if not isinstance(mdict, dict):
                raise ValueError(f"bad monomial {mdict!r}")
            key = table.pack_powers(mdict)
            if 0 in (e for name, e in mdict.items() if name != S_NAME):
                raise ValueError(f"bad monomial {mdict!r}: a file lists only the variables a monomial carries")
            acc[key] = acc.get(key, 0) + rational_from_str(coeff_str)
        return cls._raw(table, *_from_fractions(acc))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for _, exps, s, coeff in reversed(self.sorted_terms()):
            factors = [coeff]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(self.table.names[i])
                elif e:
                    factors.append(f"{self.table.names[i]}^{e}")
            if s == 1:
                factors.append(S_NAME)
            elif s:
                factors.append(f"{S_NAME}^{s}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"


class Bucket:
    """Mutable running sum of Scalars: integer numerators over one
    denominator that grows to the lcm of what arrives.

    Internal plumbing shared with the form algebra, so that products are
    fused into one accumulator without allocating intermediate Scalars.
    Zero numerators may remain until :meth:`scalar` collects the sum.
    """

    __slots__ = ("den", "terms")

    def __init__(self):
        self.den = 1
        self.terms: dict[int, int] = {}

    def factor(self, den: int) -> int:
        """Bring the bucket onto a multiple of den; return its den // den."""
        own = self.den
        if own % den:
            if self.terms:
                f = den // gcd(own, den)
                terms = self.terms
                for k in terms:
                    terms[k] *= f
                own *= f
            else:
                own = den
            self.den = own
        return own // den

    def scalar(self, table: VarTable) -> Scalar:
        """The collected sum, canonical; raises on a guard-bit overflow.
        The bucket must not be used afterwards."""
        terms = self.terms
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        table.check_guard(terms)
        return _normalized(table, self.den, terms)


def accumulate_product(dst: Bucket, left: Scalar, right: Scalar, sign: int) -> None:
    """dst += sign * left * right, one int add per monomial product."""
    f = dst.factor(left.den * right.den) * sign
    terms = dst.terms
    get = terms.get
    pairs = right.terms.items()
    for k1, c1 in left.terms.items():
        c1 *= f
        for k2, c2 in pairs:
            k = k1 + k2
            terms[k] = get(k, 0) + c1 * c2


def accumulate_terms(dst: Bucket, src: Scalar, sign: int) -> None:
    """dst += sign * src."""
    f = dst.factor(src.den) * sign
    terms = dst.terms
    get = terms.get
    for k, c in src.terms.items():
        terms[k] = get(k, 0) + c * f


def accumulate_moments(
    dst: Bucket, src: Scalar, names: Sequence[str], moment: Callable[[int], int], s_power: int
) -> None:
    """dst += src integrated out in each variable of ``names``: a power e of
    such a variable becomes the integer factor moment(e) (e > 0) and the
    variable is dropped; every surviving term gains s^s_power."""
    table = src.table
    shifts = [table.shifts[table.index(name)] for name in names]
    keep = ~sum(_FIELD_MASK << shift for shift in shifts)
    s_add = s_power << table.s_shift
    f = dst.factor(src.den)
    terms = dst.terms
    get = terms.get
    for k, c in src.terms.items():
        weight = f
        for shift in shifts:
            e = (k >> shift) & _FIELD_MASK
            if e:
                weight *= moment(e)
                if not weight:
                    break
        if weight:
            key = (k & keep) + s_add
            terms[key] = get(key, 0) + c * weight
