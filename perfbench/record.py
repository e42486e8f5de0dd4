"""Record what the benchmark workloads check against.

    python3 perfbench/record.py

For every workload, runs one traced pass over the instances of
``seed_sequence(seed, N)`` of each pool seed and of the held-out seed, and
stores for every instance the digest of its Thom pair U, the digest of its
reports and its work (``scalars.monomial_products`` of its visit) in
perfbench/digests/<workload>.json. Run it only on a commit whose outputs are
the reference: every benchmark run compares against these files and draws
its instances by the recorded work, and recording refuses to store a run
with failing checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import Tracer


def record(workload: run.Workload, seed: int) -> list[list]:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        program = run.import_program()
        session = run.Session(program, workload, seed, workdir, recording=True)
        tracer = Tracer()
        work: list[int] = []

        def count(visits: int) -> None:
            work.append(tracer.counts["scalars.monomial_products"] - sum(work))

        try:
            items = run.make_items(program, workload, run.seed_stream(program, workload, seed), workdir)
            with tracer.installed():
                session.around = lambda: tracer.root("visit")
                session.passes(items, 0, count)
        finally:
            session.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if session.failed:
        raise SystemExit("refusing to record a failing run:\n" + "\n".join(session.messages))
    return [[*session.digests[i], work[i]] for i in range(workload.count)]


def main() -> int:
    run.DIGEST_DIR.mkdir(exist_ok=True)
    for name in sorted(run.WORKLOADS):
        table = {}
        for seed in (*run.POOL_SEEDS, run.HELD_OUT_SEED):
            table[seed] = record(run.WORKLOADS[name], seed)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
        rows = ",\n".join(f'"{seed}": {json.dumps(table[seed])}' for seed in sorted(table))
        (run.DIGEST_DIR / f"{name}.json").write_text("{\n" + rows + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
