"""A fixed computation timed next to every measured call, to tell how fast
the machine is running at that moment.

On a shared host, co-tenants slow this process by up to 1.9x in phases that
last from seconds to minutes, longer than a run. Timing this reference right
before and right after a call and scaling the call's time by
``REFERENCE_S / reference time`` removes most of that factor: in ten runs of
each workload on such a host, ``instances_per_s`` as measured spread by
0.14-0.23 (quartile distance over median), scaled by 0.05.

The reference is a frozen copy of the product loop at the core of the
program's kernel (``scalars.accumulate_product``: exponent tuples added
pairwise, Fraction coefficients multiplied and summed into a dict) on fixed
operands. It is the benchmark's own code, so a change to the program does
not change it.
"""

from __future__ import annotations

import operator
import random
import time
from fractions import Fraction
from typing import NamedTuple

# seconds the reference takes on the machine the benchmark was tuned on in a
# quiet phase (2-core x86-64, Python 3.11); scaled times are in these seconds
REFERENCE_S = 0.002


class Monomial(NamedTuple):
    exps: tuple[int, ...]
    s: int


def _operand(rng: random.Random) -> dict[Monomial, Fraction]:
    return {
        Monomial(tuple(rng.randrange(3) for _ in range(6)), rng.randrange(2)): Fraction(
            rng.randrange(1, 60), rng.randrange(1, 30)
        )
        for _ in range(30)
    }


_rng = random.Random(0)
LEFT, RIGHT = _operand(_rng), _operand(_rng)


def reference_s() -> float:
    """Seconds one product of the fixed operands takes now."""
    add = operator.add
    dst: dict[Monomial, Fraction] = {}
    start = time.perf_counter()
    for m1, c1 in LEFT.items():
        e1, s1 = m1
        for m2, c2 in RIGHT.items():
            mono = Monomial(tuple(map(add, e1, m2.exps)), s1 + m2.s)
            q = c1 * c2
            cur = dst.get(mono)
            dst[mono] = q if cur is None else cur + q
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference timings, in reference seconds."""
    return seconds * REFERENCE_S / min(before, after)
