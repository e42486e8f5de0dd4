import json
import re
from pathlib import Path

import jsonschema
import pytest

from conethom.cli import main
from conethom.cone import EndomorphismField
from conethom.instances import _FILE_FIELDS, GenConfig, InstanceFile, generate
from conethom.report import CHECK_NAMES, run_check, run_suite
from conethom.scalars import DIGIT_LIMIT, EXPONENT_LIMIT, Scalar
from conethom.thom import ConnectionData

DOCS = Path(__file__).resolve().parent.parent / "docs"


def run_cli(*argv):
    return main(list(argv))


def test_check_all_on_seed_seven(capsys):
    assert run_cli("check", "all", "--m", "2", "--n", "2", "--seed", "7") == 0
    out = capsys.readouterr().out
    assert "CHECK bianchi" in out and "PASS" in out and "FAIL" not in out


def test_check_fiber_point_chart(capsys):
    assert run_cli("check", "fiber", "--m", "0", "--n", "1", "--seed", "1") == 0
    assert "CHECK fiber" in capsys.readouterr().out


def test_gen_then_check_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert run_cli("gen", "--m", "2", "--n", "2", "--seed", "7", "--out", str(path)) == 0
    assert run_cli("check", "bianchi", "--instance", str(path)) == 0
    out = capsys.readouterr().out
    assert "CHECK bianchi" in out and "CHECK qs-cross" in out


def _omega_name(name):
    return lambda o: o["omega"][0]["d"].__setitem__(0, name)


def _omega_coeff(text):
    # any base 2-form is closed at m = 2, so only the text is at fault
    return lambda o: o["omega"][0]["coeff"][0].__setitem__(1, text)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(lambda o: o["phi"][0].__setitem__(1, [[{}, "3/1"]]), "not skew", id="non-skew-phi"),
        pytest.param(lambda o: o["config"].pop("m"), "instance config is missing ['m']", id="config-without-m"),
        pytest.param(lambda o: o.__setitem__("config", [1, 2]), "config must be an object", id="config-not-object"),
        pytest.param(lambda o: o["config"].__setitem__("colour", 1), "unknown instance config", id="config-unknown-key"),
        pytest.param(lambda o: o["config"].__setitem__("seed", True), "seed = True is not an integer", id="config-bool"),
        pytest.param(lambda o: o.__setitem__("m", 2.7), "m = 2.7 is not an integer", id="float-m"),
        pytest.param(lambda o: o["omega"][0].__setitem__("d", [1]), "lists of generator names", id="name-not-string"),
        pytest.param(lambda o: o["omega"][0].__setitem__("gauss", 0.5), "weight 0.5 is not an integer", id="float-gauss"),
        pytest.param(lambda o: o["omega"][0]["coeff"][0].__setitem__(1, 3), "must look like 'p/q'", id="coeff-not-string"),
        pytest.param(lambda o: o.__setitem__("colour", 1), "unknown instance file fields ['colour']", id="unknown-top-level-key"),
        *(
            pytest.param(_omega_name(name), f"unknown one-form generator {name!r}", id=f"name-{name}")
            for name in ("dx+1", "dx 1", "dx\uff11", "dx1_0", "dx0_1")
        ),
        *(
            pytest.param(_omega_coeff(text), f"must look like 'p/q', got {text!r}", id=f"rational-{text}")
            for text in ("+3/4", " 3/4", "3/ 4", "\uff13/4", "3/+4", "3_0/4")
        ),
        pytest.param(
            lambda o: o["omega"][0]["coeff"][0].__setitem__(0, {"x1": 0}), "lists only the variables", id="zero-exponent"
        ),
        pytest.param(lambda o: o["omega"][0].pop("gauss"), "need exactly the fields", id="term-without-gauss"),
        # a digit run past Python's int(str) limit is refused by the pattern
        pytest.param(_omega_coeff("1" * 5000 + "/1"), "p and q of 1 to 1000 digits", id="rational-5000-digits"),
        pytest.param(_omega_name("dx" + "1" * 5000), "dx or dy, then 1 to 1000 digits", id="name-5000-digits"),
    ],
)
def test_corrupted_instance_exits_two(tmp_path, capsys, corrupt, message):
    path = tmp_path / "inst.json"
    run_cli("gen", "--m", "2", "--n", "2", "--seed", "3", "--out", str(path))
    obj = json.loads(path.read_text())
    corrupt(obj)
    path.write_text(json.dumps(obj))
    assert run_cli("check", "bianchi", "--instance", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_exponent_beyond_the_field_exits_two(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli("gen", "--m", "2", "--n", "2", "--seed", "3", "--out", str(path))
    obj = json.loads(path.read_text())
    obj["omega"][0]["coeff"] = [[{"x1": 2**20}, "1/1"]]
    path.write_text(json.dumps(obj))
    assert run_cli("check", "closed", "--instance", str(path)) == 2
    assert f"exponent {2**20} of x1" in capsys.readouterr().err


def test_instance_schema_bounds_exponents_like_the_program():
    schema = json.loads((DOCS / "instance.schema.json").read_text())
    variable = schema["$defs"]["monomial"]["patternProperties"]["^(x[0-9]+|y[0-9]+|t)$"]
    assert variable["maximum"] == EXPONENT_LIMIT - 1


def test_instance_schema_bounds_digit_runs_like_the_program():
    schema = json.loads((DOCS / "instance.schema.json").read_text())
    form_term = schema["$defs"]["form"]["items"]["properties"]
    patterns = (
        schema["$defs"]["rational"]["pattern"],
        form_term["d"]["items"]["pattern"],
        form_term["e"]["items"]["pattern"],
    )
    for pattern in patterns:
        assert set(re.findall(r"\{1,(\d+)\}", pattern)) == {str(DIGIT_LIMIT)}


def test_missing_inputs_exit_two(capsys):
    assert run_cli("check", "bianchi") == 2
    assert run_cli("check", "bianchi", "--seed", "1", "--m", "2") == 2
    capsys.readouterr()


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("check", "bianchi", "--bogus", "1")
    assert excinfo.value.code == 2


def test_unreadable_instance_exits_two(tmp_path, capsys):
    assert run_cli("check", "all", "--instance", str(tmp_path / "missing.json")) == 2
    capsys.readouterr()


def test_json_reports_validate_and_are_deterministic(tmp_path):
    schema = json.loads((DOCS / "report.schema.json").read_text())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = run_cli(
            "check", "all", "--m", "2", "--n", "2", "--seed", "5",
            "--count", "2", "--format", "json", "--out", str(out),
        )
        assert code == 0
    payload = json.loads(out1.read_text())
    jsonschema.validate(payload, schema)
    scrub = lambda text: re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": 0', text)
    assert scrub(out1.read_text()) == scrub(out2.read_text())


def test_instance_file_validates_against_schema(tmp_path):
    schema = json.loads((DOCS / "instance.schema.json").read_text())
    path = tmp_path / "inst.json"
    run_cli("gen", "--m", "3", "--n", "2", "--seed", "9", "--t-degree", "1", "--out", str(path))
    jsonschema.validate(json.loads(path.read_text()), schema)


def test_instance_file_fields_match_writer_and_schema():
    # the loader's list of top-level fields is the writer's and the schema's
    schema = json.loads((DOCS / "instance.schema.json").read_text())
    config = GenConfig(m=2, n=2, seed=7)
    written = InstanceFile(data=generate(config), config=config).to_obj()
    assert set(_FILE_FIELDS) == set(written) == set(schema["properties"])
    assert schema["additionalProperties"] is False


def test_failing_check_exits_one_and_localizes(tmp_path, capsys):
    # hand-build a non-skew instance file bypassing validation, then ask the
    # runner directly: the CLI would refuse to load it, which is the point of
    # the exit-2 path; the exit-1 path needs an honest failing verdict
    data = generate(GenConfig(m=2, n=2, seed=12))
    rows = [list(r) for r in data.phi.entries]
    rows[0][0] = rows[0][0] + Scalar.one(data.chart.table)
    broken = ConnectionData(
        data.chart,
        data.eta,
        EndomorphismField(data.chart, rows, check=False),
        data.omega,
        check=False,
    )
    report = run_check("bianchi", broken)
    assert report.verdict == "fail"
    assert report.residual is not None
    assert report.residual["term"]["e"]
    line = report.text_line()
    assert "FAIL" in line and "coeff=" in line
    # failing payloads satisfy the published schema too
    schema = json.loads((DOCS / "report.schema.json").read_text())
    payload = {
        "schema": "conethom.report/v1",
        "command": "check bianchi",
        "reports": [report.to_obj()],
    }
    jsonschema.validate(payload, schema)


def test_transgression_suite_cli(capsys):
    assert run_cli(
        "check", "transgression", "--m", "2", "--n", "2", "--seed", "20", "--t-degree", "1"
    ) == 0
    capsys.readouterr()


def test_classical_compare_cli(capsys):
    assert run_cli("classical-compare", "--m", "2", "--n", "3", "--seed", "4") == 0
    out = capsys.readouterr().out
    assert "CHECK classical-compare" in out


def test_classical_compare_rejects_twisted_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli("gen", "--m", "2", "--n", "2", "--seed", "7", "--out", str(path))
    data = generate(GenConfig(m=2, n=2, seed=7))
    if data.omega.is_zero and data.phi.is_zero:
        pytest.skip("instance happens to be degenerate")
    assert run_cli("classical-compare", "--instance", str(path)) == 2
    capsys.readouterr()


def test_run_suite_bundles_cross_check():
    data = generate(GenConfig(m=2, n=2, seed=8))
    reports = run_suite("bianchi", data)
    names = [r.check for r in reports]
    assert names == ["bianchi", "qs-cross"]
    # a passing report never carries a residual
    assert all(r.residual is None for r in reports if r.verdict == "pass")
    all_names = [r.check for r in run_suite("all", data)]
    assert set(all_names) == {
        "bianchi", "qs-cross", "closed", "fiber",
        "berezin-commute", "cone-pair-laws", "transgression", "rho",
    }


def test_report_schema_names_every_registered_check():
    schema = json.loads((DOCS / "report.schema.json").read_text())
    assert tuple(schema["$defs"]["report"]["properties"]["check"]["enum"]) == CHECK_NAMES


def test_gen_writes_to_stdout_without_out(capsys):
    assert run_cli("gen", "--m", "1", "--n", "1", "--seed", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "conethom.instance/v1"
