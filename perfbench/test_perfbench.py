"""Tests of the benchmark itself: every seed draws recorded instances, the
output gate has teeth, and traced counts repeat exactly.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer


@pytest.fixture
def program():
    return run.import_program()


def first(name: str, count: int) -> run.Workload:
    """The first ``count`` instances of a workload (a prefix of its seed stream)."""
    return dataclasses.replace(run.WORKLOADS[name], count=count)


def table(workload: run.Workload) -> dict[int, list]:
    return run.recorded_digests(run.WORKLOADS[workload.name])


def gate(program, workload: run.Workload, seed: int, workdir) -> run.Session:
    session = run.Session(program, workload, seed, workdir)
    try:
        planned = run.plan(program, workload, seed, table(workload))
        session.passes(run.make_items(program, workload, planned, workdir), 0)
    finally:
        session.close()
    return session


# a seed with no record of its own, as any seed but the pool's and the held-out one
OTHER_SEED = 987654321


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED, OTHER_SEED])
def test_recorded_digests_hold(program, tmp_path, seed):
    session = gate(program, first("batch-rank2-files", 2), seed, tmp_path)
    assert session.failed == 0, session.messages
    assert session.attempted == 18


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_seed_draws_one_recorded_block_per_stratum(program, name):
    workload = run.WORKLOADS[name]
    recorded = table(workload)
    width = len(workload.ranks)
    held_out = run.plan(program, workload, run.HELD_OUT_SEED, recorded)
    assert held_out == run.seed_stream(program, workload, run.HELD_OUT_SEED, recorded[run.HELD_OUT_SEED])
    pool = [p for base in run.POOL_SEEDS for p in run.seed_stream(program, workload, base, recorded[base])]
    blocks = sorted(
        (pool[j : j + width] for j in range(0, len(pool), width)),
        key=lambda block: (sum(r[2] for _, _, r in block), block[0][1]),
    )
    stratum = {block[0][1]: j // len(run.POOL_SEEDS) for j, block in enumerate(blocks)}
    drawn = [run.plan(program, workload, seed, recorded) for seed in (run.DEFAULT_SEED, OTHER_SEED, OTHER_SEED + 1)]
    assert drawn[1] == run.plan(program, workload, OTHER_SEED, recorded)
    assert drawn[1] != drawn[2]
    for planned in drawn:
        assert len({s for _, s, _ in planned}) == workload.count
        assert all(recorded is not None for _, _, recorded in planned)
        assert [n for n, _, _ in planned] == [workload.ranks[i % width] for i in range(workload.count)]
        firsts = [planned[j][1] for j in range(0, workload.count, width)]
        assert sorted(stratum[s] for s in firsts) == list(range(workload.count // width))
        assert not {s for _, s, _ in held_out} & {s for _, s, _ in planned}


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, OTHER_SEED])
def test_negated_normalization_breaks_the_gate(program, tmp_path, monkeypatch, seed):
    # closedness is linear in U, so the verdict stays "pass": only the digest can catch it
    original = program.thom.thom_normalization
    monkeypatch.setattr(program.thom, "thom_normalization", lambda chart: original(chart).scaled(-1))
    session = gate(program, first("closed-rank4", 1), seed, tmp_path)
    assert session.failed == 1
    (message,) = session.messages
    assert message.startswith(f"closed-rank4 seed {seed} instance 0 ")
    assert "U digest" in message


def test_flipped_cone_differential_breaks_the_gate(program, tmp_path):
    original = sys.modules["conethom.cone"].cone_d

    def flipped(pair, omega, *, check=True):
        d = original(pair, omega, check=check)
        return type(d)(d.first, -d.second)

    undo: list = []
    tracer.replace_function(original, flipped, undo)
    try:
        session = gate(program, first("all-family-rank3", 1), run.DEFAULT_SEED, tmp_path)
    finally:
        tracer.restore(undo)
    assert session.failed > 0
    assert session.messages[0].startswith(f"all-family-rank3 seed {run.DEFAULT_SEED} instance 0 ")
    assert "verdict fail" in session.messages[0]


def test_instance_without_record_fails_the_gate(program, tmp_path):
    workload = first("closed-rank4", 1)
    planned = run.seed_stream(program, workload, run.DEFAULT_SEED)  # no digests
    session = run.Session(program, workload, run.DEFAULT_SEED, tmp_path)
    try:
        session.passes(run.make_items(program, workload, planned, tmp_path), 0)
    finally:
        session.close()
    assert session.failed == 1
    assert "no recorded digests" in session.messages[0]


def test_traced_counts_repeat_and_match_untraced_digests(tmp_path):
    workload = first("batch-rank2-files", 4)
    runs = [run.traced_run(workload, run.DEFAULT_SEED, tmp_path, table(workload)) for _ in range(2)]
    for session, _, _ in runs:
        # the gate compares the traced pass with the untraced pass and the record
        assert session.failed == 0, session.messages
    exact = [
        {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "lines")}
        for _, metrics, _ in runs
    ]
    assert exact[0] == exact[1]
    counts = exact[0]
    assert counts["instances.generate.calls"] == 4 + 4  # traced setup, then classical-compare
    assert counts["thom.gaussian_exponential.calls"] > 0
    assert counts["scalars.monomial_products"] > counts["scalars.accumulate_product.calls"]


def test_traced_builds_per_instance(tmp_path):
    workload = first("all-family-rank3", 2)
    session, metrics, _ = run.traced_run(workload, run.DEFAULT_SEED, tmp_path, table(workload))
    assert session.failed == 0, session.messages
    value = {k: m["value"] for k, m in metrics.items()}
    # the traced setup generates each instance once; the pass's own fresh copies are not traced
    assert value["instances.generate.calls"] == 2
    assert value["thom.structure_forms.calls"] == 2 * 8
    assert value["thom.gaussian_exponential.calls"] == 2 * 4


def test_metrics_are_those_of_the_benchmark_file(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = first("batch-rank2-files", 2)
    recorded = table(workload)
    session, metrics, _ = run.untraced_run(workload, run.DEFAULT_SEED, 0, tmp_path, recorded)
    assert session.failed == 0, session.messages
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    _, metrics, _ = run.traced_run(workload, run.DEFAULT_SEED, tmp_path, recorded)
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    args = ["--workload", "closed-rank4", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "conethom" in done.stderr
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
