"""Check runner: wraps the identity residuals into verdict reports.

Each check computes an exact residual on one instance; a report carries
the verdict, the first offending term in canonical order if any (sign
bugs are the dominant failure mode, so failures must be localizable), a
wall time and a few size counters. Randomized checks derive their RNG
seed from the instance fingerprint and the check name, so reruns are
reproducible.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from . import thom
from .classical import classical_degeneration_residual
from .cone import ConePair, cone_covariant, cone_d
from .forms import Form
from .instances import fingerprint, random_form, random_pair
from .thom import ConnectionData


@dataclass
class VerificationReport:
    check: str
    fingerprint: str
    verdict: str  # "pass" or "fail"
    residual: dict | None = None
    wall_time_ms: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_obj(self) -> dict:
        obj = {
            "check": self.check,
            "fingerprint": self.fingerprint,
            "verdict": self.verdict,
            "wall_time_ms": self.wall_time_ms,
            "counters": self.counters,
        }
        if self.residual is not None:
            obj["residual"] = self.residual
        return obj

    def text_line(self) -> str:
        line = f"CHECK {self.check} {self.fingerprint} {self.verdict.upper()}"
        if self.residual is not None:
            term = self.residual["term"]
            words = "^".join(term["d"]) or "1"
            fiber = "^".join(term["e"])
            piece = f"{self.residual['component']}: g={term['gauss']} {words}"
            if fiber:
                piece += f" [{fiber}]"
            line += f" {piece} coeff={self.residual['pretty']}"
            if self.residual.get("context"):
                line += f" ({self.residual['context']})"
        return line


def _form_residual_payload(form: Form, component: str, context: str | None = None) -> dict:
    term, coeff = form.sorted_terms()[0]
    chart = form.chart
    one_mask = chart.one_form_mask
    payload = {
        "component": component,
        "term": {
            "gauss": term.gauss,
            "d": chart.names(term.word & one_mask),
            "e": chart.names(term.word & ~one_mask),
        },
        "coeff": coeff.to_obj(),
        "pretty": str(coeff),
    }
    if context:
        payload["context"] = context
    return payload


def residual_payload(value: Form, context: str | None = None) -> dict | None:
    """First nonzero term of a residual a + theta b, from a before b, or None."""
    for component, part in zip(("first", "second"), value.theta_slots()):
        if not part.is_zero:
            return _form_residual_payload(part, component, context)
    return None


def _check_rng(fp: str, check: str) -> random.Random:
    digest = hashlib.sha256(f"{fp}:{check}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _run_bianchi(data: ConnectionData, rng: random.Random, counters: dict):
    res = thom.bianchi_residual(data)
    counters["residual_terms"] = len(res.terms)
    yield res, None


def _run_qs_cross(data: ConnectionData, rng: random.Random, counters: dict):
    yield thom.structure_cross_residual(data), None


def _run_closed(data: ConnectionData, rng: random.Random, counters: dict):
    res = thom.closedness_residual(data)
    counters.update(thom.series_stats(data))
    yield res, None


def _run_fiber(data: ConnectionData, rng: random.Random, counters: dict):
    res = thom.fiber_integral_residual(data)
    counters.update(thom.series_stats(data))
    yield res, None


def _run_berezin_commute(data: ConnectionData, rng: random.Random, counters: dict, trials: int = 6):
    counters["trials"] = 2 * trials
    for i in range(trials):
        pair = random_pair(rng, data.chart, base_only=True)
        lhs = cone_d(pair.berezin(), data.omega, check=False)
        rhs = cone_covariant(data.eta, data.phi, data.omega, pair).berezin()
        yield lhs - rhs, f"base-pair trial {i}"
    for i in range(trials):
        pair = random_pair(rng, data.chart, max_gauss=2)
        lhs = cone_d(pair.berezin(), data.omega, check=False)
        full = cone_covariant(data.eta, data.phi, data.omega, pair)
        rhs = (full + pair.contract_tautological()).berezin()
        yield lhs - rhs, f"total-space trial {i}"


def _run_cone_pair_laws(data: ConnectionData, rng: random.Random, counters: dict, trials: int = 5):
    chart = data.chart
    unit = ConePair.one(chart)
    counters["trials"] = 4 * trials
    for i in range(trials):
        p = random_pair(rng, chart, max_gauss=1, terms=2)
        q = random_pair(rng, chart, max_gauss=1, terms=2)
        r = random_pair(rng, chart, max_gauss=1, terms=2)
        yield p.wedge(q).wedge(r) - p.wedge(q.wedge(r)), f"associativity trial {i}"
        yield unit.wedge(p) - p, f"left unit trial {i}"
        yield p.wedge(unit) - p, f"right unit trial {i}"
    for i in range(trials):
        p = random_pair(rng, chart, max_gauss=1)
        yield cone_d(cone_d(p, data.omega, check=False), data.omega, check=False), f"d^2 trial {i}"
        yield p.contract_tautological().contract_tautological(), f"contraction^2 trial {i}"


def _run_transgression(data: ConnectionData, rng: random.Random, counters: dict):
    yield thom.variation_derivative_residual(data), "variation derivative"
    yield thom.exponent_variation_residual(data), "exponent variation"
    yield thom.transgression_residual(data), "transgression formula"
    counters.update(thom.series_stats(data))


def _run_rho(data: ConnectionData, rng: random.Random, counters: dict, trials: int = 5):
    chart = data.chart
    mus = [Form.zero(chart)]
    for _ in range(3):
        mus.append(random_form(rng, chart, terms=2, with_fiber=False))
    # keep only one-form terms: random_form may emit mixed degrees (and
    # with_fiber=False leaves the words without fiber generators)
    mus = [
        Form(chart, {t: c for t, c in mu.terms.items() if t.word.bit_count() == 1 and not t.gauss})
        for mu in mus
    ]
    counters["trials"] = len(mus) * trials
    for k, mu in enumerate(mus):
        for i in range(trials):
            pair = random_pair(rng, chart, max_gauss=1, terms=2)
            yield thom.conjugation_residual(data, mu, pair), f"mu {k} trial {i}"


def _run_classical_compare(data: ConnectionData, rng: random.Random, counters: dict):
    first_diff, second = classical_degeneration_residual(data)
    yield first_diff, "first component vs classical pipeline"
    yield second, "second component must vanish"


_RUNNERS = {
    "bianchi": _run_bianchi,
    "qs-cross": _run_qs_cross,
    "closed": _run_closed,
    "fiber": _run_fiber,
    "berezin-commute": _run_berezin_commute,
    "cone-pair-laws": _run_cone_pair_laws,
    "transgression": _run_transgression,
    "rho": _run_rho,
    "classical-compare": _run_classical_compare,
}

CHECK_NAMES = tuple(_RUNNERS)

# CLI suite name -> report entries it produces: each check is its own
# suite, except that qs-cross rides along with bianchi and
# classical-compare is a subcommand of its own
SUITES = {name: (name,) for name in CHECK_NAMES if name not in ("qs-cross", "classical-compare")}
SUITES["bianchi"] = ("bianchi", "qs-cross")
SUITES["all"] = tuple(name for name in CHECK_NAMES if name != "classical-compare")


def run_check(name: str, data: ConnectionData, fp: str | None = None) -> VerificationReport:
    """Run one named check on one instance and assemble its report."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown check {name!r}")
    if fp is None:
        fp = fingerprint(data)
    rng = _check_rng(fp, name)
    counters: dict = {}
    started = time.perf_counter()
    residual = None
    for value, context in _RUNNERS[name](data, rng, counters):
        payload = residual_payload(value, context)
        if payload is not None:
            residual = payload
            break
    elapsed = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        check=name,
        fingerprint=fp,
        verdict="pass" if residual is None else "fail",
        residual=residual,
        wall_time_ms=round(elapsed, 3),
        counters=counters,
    )


def run_suite(suite: str, data: ConnectionData) -> list[VerificationReport]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    fp = fingerprint(data)
    return [run_check(name, data, fp) for name in SUITES[suite]]
