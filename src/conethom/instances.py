"""Seeded generation and serialization of verification instances.

Generation is a pure function of (seed, config): the random call sequence
is fixed, so identical inputs reproduce identical instances on any
platform. Skewness is obtained by antisymmetrizing strictly-upper random
entries, and the twist form is built as a constant-coefficient 2-form
plus an exact differential, hence closed by construction.

Instance files are JSON with rationals as "p/q" strings and monomials as
sparse maps like {"x1": 2, "s": -3}; the schema ships in docs/.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import MISSING, asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path

from .cone import ConePair, ConnectionMatrix, EndomorphismField
from .forms import ChartSpec, Form, FormTerm
from .scalars import Monomial, Scalar, exact_int
from .thom import ConnectionData

SCHEMA_NAME = "conethom.instance/v1"
# the top-level fields of an instance file; a test pins them to
# InstanceFile.to_obj and docs/instance.schema.json
_FILE_FIELDS = ("schema", "config", "m", "n", "eta", "phi", "omega")

_MASK64 = (1 << 64) - 1


def seed_sequence(base_seed: int, count: int) -> list[int]:
    """Derived batch seeds: a splitmix64 stream walked from the base seed."""
    out = []
    state = base_seed & _MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


@dataclass(frozen=True)
class GenConfig:
    m: int
    n: int
    seed: int
    max_degree: int = 2
    max_terms: int = 3
    coeff_bound: int = 9
    t_degree: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("need rank >= 1 and base dimension >= 0")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        if min(self.max_degree, self.max_terms, self.coeff_bound, self.t_degree) < 0:
            raise ValueError("generator bounds must be nonnegative")
        if self.coeff_bound < 1 or self.max_terms < 1:
            raise ValueError("coefficient bound and term count must be at least 1")


def _random_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _random_base_scalar(
    rng: random.Random,
    chart: ChartSpec,
    config: GenConfig,
    *,
    allow_t: bool = True,
) -> Scalar:
    table = chart.table
    terms: dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(1, config.max_terms)):
        exps = [0] * table.size
        if chart.m:
            degree = rng.randint(0, config.max_degree)
            for _ in range(degree):
                exps[rng.randrange(chart.m)] += 1
        if allow_t and config.t_degree:
            exps[table.size - 1] = rng.randint(0, config.t_degree)
        mono = Monomial(tuple(exps), 0)
        terms[mono] = terms.get(mono, 0) + _random_rational(rng, config.coeff_bound)
    return Scalar(table, terms)


def _random_base_one_form(
    rng: random.Random,
    chart: ChartSpec,
    config: GenConfig,
    *,
    allow_t: bool = True,
) -> Form:
    if chart.m == 0:
        return Form.zero(chart)
    total = Form.zero(chart)
    for _ in range(rng.randint(1, config.max_terms)):
        axis = rng.randrange(chart.m) + 1
        coeff = _random_base_scalar(rng, chart, config, allow_t=allow_t)
        total = total + Form.single(chart, coeff, d=(f"dx{axis}",))
    return total


def generate(config: GenConfig) -> ConnectionData:
    """Deterministic valid instance for the given config."""
    rng = random.Random(config.seed)
    chart = ChartSpec(config.m, config.n)
    n = chart.n
    zero_form = Form.zero(chart)
    zero_scalar = Scalar.zero(chart.table)

    eta_rows = [[zero_form for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entry = _random_base_one_form(rng, chart, config)
            eta_rows[i][j] = entry
            eta_rows[j][i] = -entry
    eta = ConnectionMatrix(chart, eta_rows)

    phi_rows = [[zero_scalar for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entry = _random_base_scalar(rng, chart, config)
            phi_rows[i][j] = entry
            phi_rows[j][i] = -entry
    phi = EndomorphismField(chart, phi_rows)

    # closed by construction: constants plus an exact part; no base 2-forms
    # exist below m = 2, so the twist degenerates to zero there
    omega = Form.zero(chart)
    if chart.m >= 2:
        for i in range(1, chart.m + 1):
            for j in range(i + 1, chart.m + 1):
                c = _random_rational(rng, config.coeff_bound)
                if c:
                    omega = omega + Form.single(chart, c, d=(f"dx{i}", f"dx{j}"))
        omega = omega + _random_base_one_form(rng, chart, config, allow_t=False).d()

    return ConnectionData(chart, eta, phi, omega)


# ----------------------------------------------------------------------
# serialization


def connection_to_obj(data: ConnectionData) -> dict:
    return {
        "m": data.chart.m,
        "n": data.chart.n,
        "eta": [[form.to_obj() for form in row] for row in data.eta.entries],
        "phi": [[scalar.to_obj() for scalar in row] for row in data.phi.entries],
        "omega": data.omega.to_obj(),
    }


def _int_fields(obj: dict, names, required, where: str) -> dict[str, int]:
    """The named integer fields of a file object that are present; each
    required name must be."""
    missing = [name for name in required if name not in obj]
    if missing:
        raise ValueError(f"{where} is missing {missing}")
    return {name: exact_int(obj[name], f"{where} field {name} = {obj[name]!r}") for name in names if name in obj}


def connection_from_obj(obj: dict) -> ConnectionData:
    dims = _int_fields(obj, ("m", "n"), ("m", "n"), "instance")
    chart = ChartSpec(dims["m"], dims["n"])
    n = chart.n
    eta_obj, phi_obj = obj.get("eta"), obj.get("phi")
    if not isinstance(eta_obj, list) or len(eta_obj) != n:
        raise ValueError("eta must be an n x n matrix of forms")
    if not isinstance(phi_obj, list) or len(phi_obj) != n:
        raise ValueError("phi must be an n x n matrix of scalars")
    eta_rows = []
    for i, row in enumerate(eta_obj):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"eta row {i} has the wrong length")
        eta_rows.append([Form.from_obj(chart, cell) for cell in row])
    phi_rows = []
    for i, row in enumerate(phi_obj):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"phi row {i} has the wrong length")
        phi_rows.append([Scalar.from_obj(chart.table, cell) for cell in row])
    omega = Form.from_obj(chart, obj.get("omega", []))
    eta = ConnectionMatrix(chart, eta_rows)
    phi = EndomorphismField(chart, phi_rows)
    return ConnectionData(chart, eta, phi, omega)


def fingerprint(data: ConnectionData) -> str:
    """Stable hash of the serialized instance (16 hex digits)."""
    payload = json.dumps(connection_to_obj(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class InstanceFile:
    """On-disk shape of one instance: schema version, optional config echo,
    and the connection data. Round trips losslessly; loading re-validates
    every invariant."""

    data: ConnectionData
    config: GenConfig | None = None
    schema: str = SCHEMA_NAME

    def to_obj(self) -> dict:
        obj = {"schema": self.schema}
        if self.config is not None:
            obj["config"] = asdict(self.config)
        obj.update(connection_to_obj(self.data))
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "InstanceFile":
        if not isinstance(obj, dict):
            raise ValueError("instance file must hold a JSON object")
        schema = obj.get("schema")
        if schema != SCHEMA_NAME:
            raise ValueError(f"unsupported instance schema {schema!r}, expected {SCHEMA_NAME!r}")
        unknown = sorted(set(obj) - set(_FILE_FIELDS))
        if unknown:
            raise ValueError(f"unknown instance file fields {unknown}")
        config = None
        if "config" in obj:
            c = obj["config"]
            if not isinstance(c, dict):
                raise ValueError("instance config must be an object")
            defaults = {f.name: f.default for f in fields(GenConfig)}
            unknown = sorted(set(c) - set(defaults))
            if unknown:
                raise ValueError(f"unknown instance config fields {unknown}")
            required = [name for name, default in defaults.items() if default is MISSING]
            config = GenConfig(**_int_fields(c, defaults, required, "instance config"))
        return cls(data=connection_from_obj(obj), config=config)


def save_instance(path, instance: InstanceFile) -> None:
    text = json.dumps(instance.to_obj(), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_instance(path) -> InstanceFile:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance file is not valid JSON: {exc}") from exc
    return InstanceFile.from_obj(obj)


# ----------------------------------------------------------------------
# randomized forms and pairs for the law and commutation suites


def random_form(
    rng: random.Random,
    chart: ChartSpec,
    *,
    terms: int = 3,
    base_only: bool = False,
    with_fiber: bool = True,
    max_gauss: int = 0,
) -> Form:
    """Small random form whose terms have one monomial of degree at most 2
    and a rational coefficient with numerator and denominator bounded by 5.
    With ``base_only`` the one-form word stays in the dx block and
    coefficients avoid the fiber variables; fiber words stay allowed
    either way unless ``with_fiber`` is off."""
    table = chart.table
    total = Form.zero(chart)
    gen_bits = chart.m if base_only else chart.one_form_count
    for _ in range(terms):
        one_mask = rng.getrandbits(gen_bits) if gen_bits else 0
        fiber_mask = rng.getrandbits(chart.n) if with_fiber else 0
        gauss = rng.randint(0, max_gauss) if max_gauss else 0
        exps = [0] * table.size
        degree = rng.randint(0, 2)
        var_limit = chart.m if base_only else chart.m + chart.n
        if var_limit:
            for _ in range(degree):
                exps[rng.randrange(var_limit)] += 1
        coeff = Scalar(
            table,
            {Monomial(tuple(exps), 0): _random_rational(rng, 5)},
        )
        if coeff.is_zero:
            continue
        word = one_mask << 1 | fiber_mask << chart.fiber_shift
        total = total + Form(chart, {FormTerm(gauss, word): coeff})
    return total


def random_pair(
    rng: random.Random,
    chart: ChartSpec,
    *,
    base_only: bool = False,
    max_gauss: int = 0,
    terms: int = 3,
) -> ConePair:
    return ConePair(
        random_form(rng, chart, terms=terms, base_only=base_only, max_gauss=max_gauss),
        random_form(rng, chart, terms=terms, base_only=base_only, max_gauss=max_gauss),
    )
