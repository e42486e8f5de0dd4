"""One-shot baseline probe over the ROADMAP grid; not a workload, not gated.

    python3 perfbench/probe.py

Times thom_form, closedness_residual and run_suite("all") untraced on the
seed-7 instances at (m, n) = (2, 2), (3, 3), (3, 4), reporting the median of
three runs, then traces one thom_form and one run_suite("all") per size for
the per-stage and per-check split. Prints markdown tables for NOTES.md.
"""

from __future__ import annotations

import statistics
import sys
import time

import run
from tracer import Tracer

GRID = ((2, 2), (3, 3), (3, 4))
SEED = 7
REPEATS = 3


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def main() -> int:
    program = run.import_program()
    thom, report = program.thom, program.report
    instances = {
        (m, n): program.instances.generate(program.instances.GenConfig(m=m, n=n, seed=SEED)) for m, n in GRID
    }

    print('| (m, n) | `thom_form` | `closedness_residual` | `run_suite("all")` |')
    print("|---|---|---|---|")
    for (m, n), data in instances.items():
        cells = [
            median_ms(lambda: thom.thom_form(data)),
            median_ms(lambda: thom.closedness_residual(data)),
            median_ms(lambda: report.run_suite("all", data)),
        ]
        print(f"| ({m}, {n}) | " + " | ".join(f"{c:.1f} ms" for c in cells) + " |")

    for (m, n), data in instances.items():
        calls = (
            ("thom_form", lambda: thom.thom_form(data)),
            ("run_suite all", lambda: report.run_suite("all", data)),
        )
        for label, call in calls:
            tracer = Tracer()
            with tracer.installed(), tracer.root(label):
                call()
            wall, glue = tracer.roots[label]
            print(f"\n({m}, {n}) traced {label}: {1000 * wall:.1f} ms; self-time share per span")
            rows = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
            for name, value in rows:
                if value >= 0.01 * wall:
                    print(f"- `{name}` {100 * value / wall:.1f}% ({tracer.calls[name]} calls)")
            print(f"- glue {100 * glue / wall:.1f}%")
            if label == "run_suite all":
                checks = sorted((k, v) for k, v in tracer.total_s.items() if k.startswith("report.check."))
                print("- per check: " + ", ".join(f"{k[13:]} {1000 * v:.1f} ms" for k, v in checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
