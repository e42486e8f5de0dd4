"""Byte-identity of the program's outputs on three small instances.

The literal values below were computed once and committed; any change to
the coefficient arithmetic, the canonical ordering or the ``p/q`` output
that alters a single byte of a Thom pair, a report or a residual shows here.
"""

import hashlib
import json

import pytest

from conethom import thom
from conethom.cone import EndomorphismField
from conethom.instances import GenConfig, fingerprint, generate
from conethom.report import run_check, run_suite
from conethom.scalars import Scalar
from conethom.thom import ConnectionData

GOLDEN = {
    (2, 2, 0): {
        "seed": 11,
        "fingerprint": "8b7d8a52f3d0328c",
        "u": "1aa89939bf22902148976e5b84a4713670fe83d7d17af8e9acace73271980bc5",
        "reports": "f2c47332a6bc0eb06f197bee9ca9c3f3c71d9cc8ae7e216bfcb71702041fce3d",
    },
    (2, 3, 0): {
        "seed": 12,
        "fingerprint": "bfe60fc0528d0992",
        "u": "8ca1f586a2edb71d4c3e879156876d9444241b3fe1a19efab3bdd297eb239bb4",
        "reports": "ffa087e68089c66f03f4594a75aa30e5fad2eb8991a28804ae2af2de64887e4a",
    },
    (3, 3, 2): {
        "seed": 13,
        "fingerprint": "106af6d4214876d8",
        "u": "d53dc6bf614811f45fc5e972f811292f36fb0cacba66c1b684db9ba46f496b8c",
        "reports": "ada8cb4eac8d5c8aaa70a4333853eccf8ddce033134e06a5b209fdaccb017701",
    },
}

NON_SKEW_PHI_RESIDUAL = {
    "component": "second",
    "term": {"gauss": 0, "d": ["dx1", "dx2"], "e": ["e1", "e3"]},
    "coeff": [[{}, "-73/60"], [{"x2": 1}, "1/14"], [{"x1": 1}, "-38/15"]],
    "pretty": "-38/15*x1 + 1/14*x2 + -73/60",
}


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _instance(m, n, t_degree):
    return generate(GenConfig(m=m, n=n, seed=GOLDEN[m, n, t_degree]["seed"], t_degree=t_degree))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_outputs(key):
    data = _instance(*key)
    expect = GOLDEN[key]
    reports = [r.to_obj() for r in run_suite("all", data)]
    for r in reports:
        assert r.pop("wall_time_ms") >= 0
    got = {
        "seed": expect["seed"],
        "fingerprint": fingerprint(data),
        "u": _sha(thom.thom_form(data).pair.to_obj()),
        "reports": _sha(reports),
    }
    assert got == expect


def test_golden_negative_control_residual():
    data = _instance(2, 3, 0)
    rows = [list(r) for r in data.phi.entries]
    rows[0][1] = rows[0][1] + Scalar.one(data.chart.table)
    broken = ConnectionData(
        data.chart, data.eta, EndomorphismField(data.chart, rows, check=False), data.omega, check=False
    )
    report = run_check("bianchi", broken)
    assert report.verdict == "fail"
    assert report.residual == NON_SKEW_PHI_RESIDUAL
