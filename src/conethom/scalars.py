"""Exact coefficient ring: sparse polynomials over rationals.

A Scalar is a sparse polynomial with Fraction coefficients in the chart
variables x1..xm, the fiber variables y1..yn and the family parameter t,
times an integer power of a formal unit ``s`` standing for sqrt(2*pi).
Keeping s symbolic lets Gaussian moments cancel normalization factors
exactly instead of numerically.

Floats enter only through :meth:`Scalar.evaluate`, the bridge used by the
numeric quadrature oracle in the test suite.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

S_NAME = "s"


def rational_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse the canonical ``p/q`` notation (q required and positive)."""
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"rational must look like 'p/q', got {text!r}")
    try:
        p, q = int(num), int(den)
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}") from exc
    if q <= 0:
        raise ValueError(f"rational denominator must be positive in {text!r}")
    return Fraction(p, q)


class VarTable:
    """Declared commuting variables for one chart: x1..xm, y1..yn, t.

    The unit s is not part of the table; it is tracked separately on each
    monomial and is never differentiated.
    """

    __slots__ = ("m", "n", "names", "_index")

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

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"variable {name!r} is not declared in this table") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarTable) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self) -> int:
        return hash((self.m, self.n))

    def __repr__(self) -> str:
        return f"VarTable(m={self.m}, n={self.n})"


@lru_cache(maxsize=None)
def var_table(m: int, n: int) -> VarTable:
    return VarTable(m, n)


class Monomial(NamedTuple):
    """Exponent vector over a table's variables plus a power of s.

    ``exps`` has one slot per declared variable, in table order; the layout
    is dense so equality and hashing are structural with no normalization
    step. Serialization stays sparse (zero exponents are skipped).
    """

    exps: tuple[int, ...]
    s: int = 0

    def degree(self) -> int:
        return sum(self.exps)

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(operator.add, self.exps, other.exps)), self.s + other.s)

    def sort_key(self):
        # graded lexicographic in the declared variable order, s power last
        return (self.degree(), self.exps, self.s)


class Scalar:
    """Sparse multivariate polynomial with exact Fraction coefficients.

    Immutable by convention: every operation returns a new value and never
    touches its operands, so Scalars can be shared freely across threads.
    Two Scalars are equal exactly when their term maps coincide.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, Fraction] | None = None):
        self.table = table
        clean: dict[Monomial, Fraction] = {}
        if terms:
            size = table.size
            for mono, coeff in terms.items():
                if len(mono.exps) != size:
                    raise ValueError("monomial does not match the variable table")
                if any(e < 0 for e in mono.exps):
                    raise ValueError("variable exponents must be nonnegative (only s may be inverted)")
                q = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if q:
                    clean[mono] = q
        self.terms = clean

    @classmethod
    def _raw(cls, table: VarTable, terms: dict[Monomial, Fraction]) -> "Scalar":
        out = object.__new__(cls)
        out.table = table
        out.terms = terms
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, table: VarTable) -> "Scalar":
        return cls._raw(table, {})

    @classmethod
    def rational(cls, table: VarTable, value) -> "Scalar":
        q = Fraction(value)
        if not q:
            return cls._raw(table, {})
        return cls._raw(table, {Monomial((0,) * table.size, 0): q})

    @classmethod
    def one(cls, table: VarTable) -> "Scalar":
        return cls.rational(table, 1)

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Scalar":
        exps = [0] * table.size
        exps[table.index(name)] = 1
        return cls._raw(table, {Monomial(tuple(exps), 0): Fraction(1)})

    @classmethod
    def s_power(cls, table: VarTable, power: int) -> "Scalar":
        return cls._raw(table, {Monomial((0,) * table.size, power): Fraction(1)})

    @classmethod
    def term(cls, table: VarTable, coeff, powers: Mapping[str, int] | None = None) -> "Scalar":
        """Single term from a sparse map like {"x1": 2, "s": -3}."""
        exps = [0] * table.size
        s_exp = 0
        for name, e in (powers or {}).items():
            if name == S_NAME:
                s_exp += int(e)
            else:
                exps[table.index(name)] += int(e)
        return cls(table, {Monomial(tuple(exps), s_exp): Fraction(coeff)})

    # ------------------------------------------------------------------
    # ring operations

    def _check_table(self, other: "Scalar") -> None:
        if self.table is not other.table and self.table != other.table:
            raise ValueError("operands use different variable tables")

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_table(other)
        res = dict(self.terms)
        for mono, q in other.terms.items():
            cur = res.get(mono)
            if cur is None:
                res[mono] = q
            else:
                tot = cur + q
                if tot:
                    res[mono] = tot
                else:
                    del res[mono]
        return Scalar._raw(self.table, res)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_table(other)
        res = dict(self.terms)
        for mono, q in other.terms.items():
            cur = res.get(mono)
            if cur is None:
                res[mono] = -q
            else:
                tot = cur - q
                if tot:
                    res[mono] = tot
                else:
                    del res[mono]
        return Scalar._raw(self.table, res)

    def __neg__(self) -> "Scalar":
        return Scalar._raw(self.table, {m: -q for m, q in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_table(other)
        res: dict[Monomial, Fraction] = {}
        accumulate_product(res, self.terms, other.terms, 1)
        return Scalar._raw(self.table, {m: q for m, q in res.items() if q})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, value) -> "Scalar":
        q = value if isinstance(value, Fraction) else Fraction(value)
        if not q:
            return Scalar._raw(self.table, {})
        return Scalar._raw(self.table, {m: c * q for m, c in self.terms.items()})

    # ------------------------------------------------------------------
    # calculus and evaluation

    def partial(self, name: str) -> "Scalar":
        """Formal partial derivative; s is a constant unit and is rejected."""
        if name == S_NAME:
            raise ValueError("cannot differentiate with respect to the unit s")
        idx = self.table.index(name)
        res: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono.exps[idx]
            if not e:
                continue
            exps = list(mono.exps)
            exps[idx] = e - 1
            res[Monomial(tuple(exps), mono.s)] = coeff * e
        return Scalar._raw(self.table, res)

    def evaluate(self, point: Mapping[str, float], s_value: float) -> float:
        """Numeric value at a point; every variable that occurs must be bound."""
        names = self.table.names
        total = 0.0
        for mono, coeff in self.terms.items():
            val = float(coeff)
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
            return any(m.s for m in self.terms)
        idx = self.table.index(name)
        return any(m.exps[idx] for m in self.terms)

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def to_obj(self) -> list:
        """Canonical JSON-ready shape: [[monomial map, "p/q"], ...]."""
        out = []
        for mono, coeff in self.sorted_terms():
            mdict: dict[str, int] = {
                self.table.names[i]: e for i, e in enumerate(mono.exps) if e
            }
            if mono.s:
                mdict[S_NAME] = mono.s
            out.append([mdict, rational_to_str(coeff)])
        return out

    @classmethod
    def from_obj(cls, table: VarTable, obj) -> "Scalar":
        if not isinstance(obj, list):
            raise ValueError("scalar payload must be a list of [monomial, coeff] pairs")
        acc: dict[Monomial, Fraction] = {}
        for entry in obj:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError(f"bad scalar term {entry!r}")
            mdict, coeff_str = entry
            if not isinstance(mdict, dict):
                raise ValueError(f"bad monomial {mdict!r}")
            accumulate_terms(acc, cls.term(table, rational_from_str(coeff_str), mdict).terms, 1)
        return cls._raw(table, {m: q for m, q in acc.items() if q})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True):
            factors = [rational_to_str(coeff)]
            for i, e in enumerate(mono.exps):
                if e == 1:
                    factors.append(self.table.names[i])
                elif e:
                    factors.append(f"{self.table.names[i]}^{e}")
            if mono.s == 1:
                factors.append(S_NAME)
            elif mono.s:
                factors.append(f"{S_NAME}^{mono.s}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def accumulate_product(
    dst: dict[Monomial, Fraction],
    left: Mapping[Monomial, Fraction],
    right: Mapping[Monomial, Fraction],
    sign: int,
) -> None:
    """dst += sign * left * right at the raw term-map level.

    Internal plumbing shared with the form algebra so products can be fused
    into one accumulator without allocating intermediate Scalars. Zero
    coefficients may remain in dst; callers prune on collection.
    """
    if sign < 0:
        left = {m: -c for m, c in left.items()}
    add = operator.add
    for m1, c1 in left.items():
        e1, s1 = m1
        for m2, c2 in right.items():
            mono = Monomial(tuple(map(add, e1, m2.exps)), s1 + m2.s)
            q = c1 * c2
            cur = dst.get(mono)
            dst[mono] = q if cur is None else cur + q


def accumulate_terms(
    dst: dict[Monomial, Fraction],
    src: Mapping[Monomial, Fraction],
    sign: int,
) -> None:
    """dst += sign * src at the raw term-map level."""
    for mono, q in src.items():
        if sign < 0:
            q = -q
        cur = dst.get(mono)
        dst[mono] = q if cur is None else cur + q
