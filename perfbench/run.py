"""Time-to-verdict benchmark for conethom.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in this one single-threaded process as a closed loop: the
next instance starts only once every verdict of the previous one is in. The
program is driven through its public functions and receives only instances
generated from ``--seed``. Every verdict must pass, and every instance's two
digests (the Thom pair ``U`` and the reports without wall times) must equal
the values recorded in ``perfbench/digests/``. Every seed but the held-out
one draws its N instances from a recorded pool, stratified by recorded work,
so that every instance a run visits has recorded digests and every run
holds the same mix of small and large instances. See NOTES.md.

With ``--trace 0`` the loop makes whole passes over the run's instances until
``--seconds`` of verdict time have been measured, and the end-to-end metrics
are reported from each instance's fastest visit. With ``--trace 1`` the run
warms up on a few instances, then visits every instance exactly once
untraced and once traced, so that every count repeats exactly, and reports
per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from reference import reference_s, scale
from tracer import SPANS, Tracer, replace_function, restore

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGEST_DIR = HERE / "digests"

DEFAULT_SEED = 7
HELD_OUT_SEED = 101
# the pool is the first N instances of each of these seeds' streams
POOL_SEEDS = tuple(range(16))
# set-ups repeated per pass of an untraced run, evenly spaced, besides the first
SETUPS_PER_PASS = 4
# instances visited before a traced run's paired visits, so that no visit
# they compare is the process's first
WARM_UP = 5
SRC_MODULES = ("__init__", "__main__", "classical", "cli", "cone", "forms", "instances", "report", "scalars", "thom")


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    ranks: tuple[int, ...]  # instance i has rank ranks[i % len(ranks)]
    t_degree: int
    suite: str
    checks: int  # verdicts per instance
    count: int  # distinct instances per run, a multiple of len(ranks)
    files: bool = False


# Why each workload exists is recorded in NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed-rank4", 2, (4,), 0, "closed", 1, 36),
        Workload("all-family-rank3", 3, (3,), 2, "all", 8, 50),
        Workload("batch-rank2-files", 2, (2, 3), 0, "all", 9, 120, files=True),
    )
}


class Refused(RuntimeError):
    """The run cannot start: no program to measure, or no record to check it against."""


def import_program() -> SimpleNamespace:
    """Import conethom from this checkout's src/, never from elsewhere."""
    package_dir = SRC / "conethom"
    if not (package_dir / "__init__.py").is_file():
        raise Refused(f"no conethom package at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("conethom")
    if Path(package.__file__).resolve().parent != package_dir:
        raise Refused(f"conethom was imported from {package.__file__}, not from {package_dir}")
    return SimpleNamespace(
        **{name: importlib.import_module("conethom." + name) for name in ("instances", "report", "thom", "cli")}
    )


def unload_program() -> dict:
    """Remove conethom from ``sys.modules``; returns what was removed."""
    names = [n for n in sys.modules if n == "conethom" or n.startswith("conethom.")]
    return {name: sys.modules.pop(name) for name in names}


@dataclass(frozen=True)
class Item:
    index: int
    config: object  # conethom.instances.GenConfig
    path: Path | None  # instance file, for the file workload
    recorded: tuple | None  # (U digest, report digest, work); None only while recording


# one planned instance: (rank n, instance seed, recorded [U digest, report
# digest, work] or None)
Planned = tuple[int, int, "tuple | None"]


def seed_stream(program, workload: Workload, seed: int, digests=()) -> list[Planned]:
    """Instances 0..N-1 of ``seed_sequence(seed, N)``, with what is recorded
    for them (None past the record)."""
    ranks = workload.ranks
    return [
        (ranks[i % len(ranks)], instance_seed, tuple(digests[i]) if i < len(digests) else None)
        for i, instance_seed in enumerate(program.instances.seed_sequence(seed, workload.count))
    ]


def plan(program, workload: Workload, seed: int, table: dict[int, list]) -> list[Planned]:
    """The run's N instances. The held-out seed runs its own stream. Any
    other seed draws from the pool, the streams of ``POOL_SEEDS``: the pool's
    blocks of ``len(ranks)`` consecutive instances (so that ranks keep
    alternating) are sorted by recorded work and cut into strata of
    ``len(POOL_SEEDS)`` blocks, and the seed picks one block from each
    stratum and shuffles them. The same seed draws the same instances."""
    if seed == HELD_OUT_SEED:
        return seed_stream(program, workload, seed, table.get(seed, ()))
    width = len(workload.ranks)
    blocks = []
    for base in POOL_SEEDS:
        stream = seed_stream(program, workload, base, table.get(base, ()))
        if any(recorded is None for _, _, recorded in stream):
            raise Refused(f"no recorded digests for the pool seed {base} of {workload.name}")
        blocks += [stream[j : j + width] for j in range(0, len(stream), width)]
    blocks.sort(key=lambda block: (sum(recorded[2] for _, _, recorded in block), block[0][1]))
    rng = random.Random(seed)
    size = len(POOL_SEEDS)
    chosen = [rng.choice(blocks[j : j + size]) for j in range(0, len(blocks), size)]
    rng.shuffle(chosen)
    return [planned for block in chosen for planned in block]


def make_items(program, workload: Workload, planned: list[Planned], workdir: Path) -> list[Item]:
    """Generate the run's instances; the file workload also writes them.

    No instance object is kept: each visit generates its own, so that the
    process holds one instance at a time and nothing the program attaches to
    an instance object carries over to a later visit."""
    inst = program.instances
    items = []
    for i, (n, instance_seed, recorded) in enumerate(planned):
        config = inst.GenConfig(m=workload.m, n=n, seed=instance_seed, t_degree=workload.t_degree)
        data = inst.generate(config)
        path = None
        if workload.files:
            path = workdir / f"instance-{i}.json"
            inst.save_instance(path, inst.InstanceFile(data=data, config=config))
        items.append(Item(i, config, path, recorded))
    return items


def setup(workload: Workload, planned: list[Planned], workdir: Path):
    """Import conethom afresh and make the run's instances. Returns the
    program, the instances and the seconds this took."""
    unload_program()
    start = time.perf_counter()
    program = import_program()
    items = make_items(program, workload, planned, workdir)
    return program, items, time.perf_counter() - start


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def without_wall_time(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "wall_time_ms"}


def recorded_digests(workload: Workload) -> dict[int, list]:
    """The recorded ``[U digest, report digest, work]`` of each instance, by seed."""
    path = DIGEST_DIR / f"{workload.name}.json"
    if not path.is_file():
        return {}
    return {int(k): v for k, v in json.loads(path.read_text(encoding="utf-8")).items()}


class Session:
    """The closed loop and the output gate of one workload run."""

    def __init__(self, program, workload: Workload, seed: int, workdir: Path, recording: bool = False):
        """With ``recording``, instances without recorded digests are not a failure."""
        self.program = program
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.recording = recording
        # keep each Thom form the checks build, so that its digest is taken
        # after the timed call instead of building U a second time
        self.built: list = []
        self.undo: list = []
        thom_form = program.thom.thom_form

        def capture(*args, **kwargs):
            u = thom_form(*args, **kwargs)
            self.built.append(u)
            return u

        replace_function(thom_form, capture, self.undo)
        self.around = nullcontext  # the traced run wraps each step in a root span
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: dict[int, tuple[str, str]] = {}
        self.u_sizes: dict[int, tuple[int, int]] = {}

    def close(self) -> None:
        restore(self.undo)

    def where(self, item: Item) -> str:
        c = item.config
        return (
            f"{self.workload.name} seed {self.seed} instance {item.index} "
            f"(m={c.m} n={c.n} t_degree={c.t_degree} instance seed {c.seed})"
        )

    def visit(self, item: Item, data):
        """Every verdict of one instance, timed. Returns (wall, cpu, output, U
        forms built for the instance)."""
        cli = self.program.cli
        forms = self.built
        forms.clear()
        if self.workload.files:
            out = self.workdir / f"report-{item.index}.json"
            c = item.config
            check = ["check", "all", "--instance", str(item.path), "--format", "json", "--out", str(out)]
            classical = ["classical-compare", "--m", str(c.m), "--n", str(c.n), "--seed", str(c.seed)]
            out.unlink(missing_ok=True)
            text = io.StringIO()
            with redirect_stdout(text):
                wall, cpu = time.perf_counter(), time.process_time()
                codes = [cli.main(check)]
                built = len(forms)  # classical-compare builds U of the untwisted instance
                codes.append(cli.main(classical))
                wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            return wall, cpu, (codes, out, text.getvalue()), forms[:built]
        wall, cpu = time.perf_counter(), time.process_time()
        reports = self.program.report.run_suite(self.workload.suite, data)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return wall, cpu, reports, forms[:]

    def verdicts(self, output) -> tuple[list[str], object]:
        """The verdict of each check, and the reports without wall times."""
        if not self.workload.files:
            reports = [without_wall_time(r.to_obj()) for r in output]
            return [r["verdict"] for r in reports], reports
        codes, out, classical = output
        payload = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
        reports = [without_wall_time(r) for r in payload.get("reports", [])]
        payload["reports"] = reports
        lines = classical.splitlines()
        verdicts = [r["verdict"] for r in reports]
        verdicts += ["pass" if line.endswith(" PASS") else "fail" for line in lines]
        return verdicts, {"exit": codes, "check-all": payload, "classical-compare": lines}

    def u_forms(self, item: Item, data, forms: list) -> list:
        if forms:
            return forms
        # the checks no longer go through thom_form: build U outside the timed loop
        if item.path is not None:
            data = self.program.instances.load_instance(item.path).data
        return [self.program.thom.thom_form(data)]

    def judge(self, item: Item, data, output, forms: list) -> None:
        """Check the verdicts and both digests of one visit, outside the timed loop."""
        checks = self.workload.checks
        problems = []
        verdicts, reports = self.verdicts(output)
        if len(verdicts) != checks:
            problems.append(f"{len(verdicts)} verdicts instead of {checks}")
        problems += [f"check {i} verdict {v}" for i, v in enumerate(verdicts) if v != "pass"]
        forms = self.u_forms(item, data, forms)
        u_digests = {digest(u.pair.to_obj()) for u in forms}
        if len(u_digests) != 1:
            problems.append(f"{len(u_digests)} different U built for one instance")
        got = (min(u_digests), digest(reports))
        first = self.digests.setdefault(item.index, got)
        if item.index not in self.u_sizes:
            pair = forms[0].pair
            terms = list(pair.first.terms.values()) + list(pair.second.terms.values())
            self.u_sizes[item.index] = (len(terms), sum(len(c.terms) for c in terms))
        recorded = item.recorded
        if recorded is None and not self.recording:
            problems.append("no recorded digests")
        for label, k in (("U", 0), ("report", 1)):
            if got[k] != first[k]:
                problems.append(f"{label} digest {got[k]} differs from {first[k]} earlier in this run")
            if recorded is not None and got[k] != recorded[k]:
                problems.append(f"{label} digest {got[k]} != recorded {recorded[k]}")
        self.attempted += checks
        if problems:
            self.failed += min(checks, len(problems))
            self.messages.append(f"{self.where(item)}: " + "; ".join(problems))

    def step(self, item: Item) -> tuple[float, float] | None:
        # a fresh instance object for every visit, generated outside the timed region
        data = None if self.workload.files else self.program.instances.generate(item.config)
        try:
            with self.around():
                wall, cpu, output, forms = self.visit(item, data)
        except Exception as exc:  # a raising check is a failed verdict, not a crash
            self.attempted += self.workload.checks
            self.failed += self.workload.checks
            self.messages.append(f"{self.where(item)}: raised {type(exc).__name__}: {exc}")
            return None
        self.judge(item, data, output, forms)
        self.built.clear()
        return wall, cpu

    def passes(self, items: list[Item], seconds: float, after_visit=None) -> list[list[tuple[float, float, float]]]:
        """Whole passes over ``items`` until ``seconds`` of verdict time, at
        least one. Returns the (wall, cpu, reference seconds per second)
        samples of each item, in order; see reference.py.
        ``after_visit(visits)`` runs outside the timed region."""
        samples: list[list[tuple[float, float, float]]] = [[] for _ in items]
        timed = 0.0
        visits = 0
        while True:
            for k, item in enumerate(items):
                before = reference_s()
                sample = self.step(item)
                after = reference_s()
                visits += 1
                if sample is not None:
                    samples[k].append((*sample, scale(1.0, before, after)))
                    timed += sample[0]
                if after_visit is not None:
                    after_visit(visits)
            if timed >= seconds:
                return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def src_lines() -> dict[str, dict]:
    """Line count of src/conethom, in total and for each module of the commit
    that defined the benchmark (0 once a module is gone). Recorded, not gated."""
    counts = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "conethom").glob("*.py")}
    out = {f"src.lines.{name}": metric(counts.get(name, 0), "lines") for name in SRC_MODULES}
    out["src.lines"] = metric(sum(counts.values()), "lines")
    return out


def planned_instances(workload: Workload, seed: int, table: dict[int, list]) -> list[Planned]:
    """The run's plan, made before any timed set-up (it needs ``seed_sequence``)."""
    planned = plan(import_program(), workload, seed, table)
    unload_program()
    return planned


def untraced_run(workload: Workload, seed: int, seconds: float, workdir: Path, table: dict[int, list]):
    planned = planned_instances(workload, seed, table)
    before = reference_s()
    program, items, first = setup(workload, planned, workdir)
    raw_setup = [first]
    setup_times = [scale(first, before, reference_s())]
    stride = max(1, len(items) // SETUPS_PER_PASS)

    def repeat_setup(visits: int) -> None:
        # Set-up takes a fraction of a second; repeats spread over the whole
        # run see the same machine as the verdict times do.
        if visits % stride == 0:
            loaded = unload_program()
            before = reference_s()
            raw_setup.append(setup(workload, planned, workdir)[2])
            setup_times.append(scale(raw_setup[-1], before, reference_s()))
            unload_program()
            sys.modules.update(loaded)  # the session goes on with the first import

    session = Session(program, workload, seed, workdir)
    samples = session.passes(items, seconds, repeat_setup)
    session.close()
    # each instance's median visit, in reference seconds and as measured; no
    # sample at all means every visit raised, and the run fails
    per_instance = [
        (
            statistics.median(w * k for w, _, k in s),
            statistics.median(c * k for _, c, k in s),
            statistics.median(w for w, _, _ in s),
        )
        for s in samples
        if s
    ] or [(0.0, 0.0, 0.0)]
    walls = [w for w, _, _ in per_instance]
    raw_walls = [w for _, _, w in per_instance]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "instances_per_s": metric(len(walls) / (sum(walls) or 1.0), "1/s"),
        "verdict_s_p50": metric(statistics.median(walls), "s"),
        "cpu_s_per_instance": metric(sum(c for _, c, _ in per_instance) / len(per_instance), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    visits = [len(s) for s in samples]
    factors = [k for s in samples for _, _, k in s] or [0.0]
    notes = [
        f"visits per instance {min(visits)}-{max(visits)} over {len(items)} distinct instances",
        f"reference seconds per second {statistics.median(factors)!r} (median over visits)",
        f"as measured: instances_per_s {len(raw_walls) / (sum(raw_walls) or 1.0)!r} 1/s, "
        f"verdict_s_p50 {statistics.median(raw_walls)!r} s, setup_s {statistics.median(raw_setup)!r} s",
        f"setup_s samples {setup_times!r}",
    ]
    if len(walls) >= 100:
        notes.append(f"verdict_s_p90 {statistics.quantiles(walls, n=10)[-1]!r} s")
    return session, metrics, notes


def traced_run(workload: Workload, seed: int, workdir: Path, table: dict[int, list]):
    planned = planned_instances(workload, seed, table)
    program, items, _ = setup(workload, planned, workdir)
    session = Session(program, workload, seed, workdir)
    session.passes(items[:WARM_UP], 0)
    tracer = Tracer()
    with tracer.installed():
        with tracer.root("setup"):
            traced_items = make_items(program, workload, planned, workdir)
    # each instance untraced, then at once traced, so that a slow phase of
    # the machine lands on both sides of the overhead
    untraced, traced = [], []
    for item, traced_item in zip(items, traced_items):
        untraced.append(session.step(item))
        with tracer.installed():
            session.around = lambda: tracer.root("pass")
            traced.append(session.step(traced_item))
            session.around = nullcontext
    session.close()
    untraced = [s for s in untraced if s is not None]
    traced = [s for s in traced if s is not None]
    wall = sum(w for w, _ in tracer.roots.values())
    glue = sum(g for _, g in tracer.roots.values())
    layers = tracer.layer_self_s()
    metrics = {}
    for _, _, name in SPANS:
        if name is None:
            continue
        metrics[f"{name}.calls"] = metric(tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = metric(tracer.self_s[name], "s")
    for name in sorted(program.report.CHECK_NAMES):
        metrics[f"report.check.{name}.s"] = metric(tracer.total_s[f"report.check.{name}"], "s")
    for name in ("scalars.monomial_products", "forms.Form.wedge.term_pairs"):
        metrics[name] = metric(tracer.counts[name], "count")
    metrics["thom.U.pair_terms"] = metric(sum(t for t, _ in session.u_sizes.values()), "count")
    metrics["thom.U.monomials"] = metric(sum(m for _, m in session.u_sizes.values()), "count")
    untraced_s = sum(w for w, _ in untraced)
    traced_s = sum(w for w, _ in traced)
    metrics.update(
        {
            "trace.wall_s": metric(wall, "s"),
            "trace.glue_s": metric(glue, "s"),
            "trace.untraced_pass_s": metric(untraced_s, "s"),
            "trace.overhead_s": metric(traced_s - untraced_s, "s"),
            "trace.overhead_share": metric((traced_s - untraced_s) / untraced_s, "share"),
        }
    )
    metrics.update(src_lines())
    notes = [f"layer self_s {name} {value!r}" for name, value in sorted(layers.items())]
    notes.append(f"glue_s {glue!r} traced wall_s {wall!r} untraced pass_s {untraced_s!r}")
    return session, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    table = recorded_digests(workload)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            session, metrics, notes = traced_run(workload, args.seed, workdir, table)
        else:
            session, metrics, notes = untraced_run(workload, args.seed, args.seconds, workdir, table)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"fail_ratio {session.failed / max(session.attempted, 1)!r}")
    for line in session.messages:
        print(f"FAIL {line}")
    for line in notes:
        print(f"# {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    correct = session.failed == 0 and session.attempted > 0
    result = {"correct": correct, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
