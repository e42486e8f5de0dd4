"""Per-layer tracing of conethom, installed from outside the package.

A traced function is replaced, in every loaded ``conethom`` module that holds
a reference to it, by a wrapper that keeps a stack of child time. That also
reaches names bound by ``from .x import y`` (``forms`` and ``cone`` both hold
their own ``accumulate_product``). Methods are patched on their class.

Calls are traced only inside a root phase (``Tracer.root``); outside one the
wrapper passes straight through, so the harness's own calls into the package
stay out of the figures. A span's self time is its duration minus the time of
the traced calls made inside it; a root's glue is its wall time that no span
covers. Spans are aggregated per name in memory, not kept one by one: the
kernel alone is called hundreds of thousands of times per pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute path, span name or None for report.check.<name>)
SPANS = (
    ("scalars", "accumulate_product", "scalars.accumulate_product"),
    ("forms", "Form.wedge", "forms.Form.wedge"),
    ("forms", "Form.d", "forms.Form.d"),
    ("forms", "Form.contract_tautological", "forms.Form.contract_tautological"),
    ("cone", "ConePair.wedge", "cone.ConePair.wedge"),
    ("cone", "cone_d", "cone.cone_d"),
    ("cone", "cone_covariant", "cone.cone_covariant"),
    ("thom", "structure_forms", "thom.structure_forms"),
    ("thom", "thom_exponent", "thom.thom_exponent"),
    ("thom", "gaussian_exponential", "thom.gaussian_exponential"),
    ("thom", "fiber_integral", "thom.fiber_integral"),
    ("thom", "transgression_primitive", "thom.transgression_primitive"),
    ("classical", "classical_thom_form", "classical.classical_thom_form"),
    ("instances", "generate", "instances.generate"),
    ("instances", "save_instance", "instances.save_instance"),
    ("instances", "load_instance", "instances.load_instance"),
    ("instances", "fingerprint", "instances.fingerprint"),
    ("report", "run_check", None),
    ("cli", "main", "cli.main"),
)

# exact work counters: span name -> (counter name, size of one call)
COUNTERS = {
    "scalars.accumulate_product": (
        "scalars.monomial_products",
        lambda args: len(args[1]) * len(args[2]),
    ),
    "forms.Form.wedge": (
        "forms.Form.wedge.term_pairs",
        lambda args: len(args[0].terms) * len(args[1].terms),
    ),
}


def package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "conethom" or name.startswith("conethom.")]


def replace_function(original, replacement, undo: list) -> None:
    """Rebind every module-level reference to ``original`` in conethom."""
    for module in package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))


def restore(undo: list) -> None:
    while undo:
        owner, key, original = undo.pop()
        setattr(owner, key, original)


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.roots: defaultdict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])  # name -> [wall, glue]
        self._stack = [0.0]

    def _wrap(self, name, fn):
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls
        counts = self.counts
        counter_name, size = COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if len(stack) == 1:  # outside every root phase
                return fn(*args, **kwargs)
            key = name or "report.check." + (args[0] if args else kwargs["name"])
            if size is not None:
                counts[counter_name] += size(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[key] += elapsed - inner
                total_s[key] += elapsed
                calls[key] += 1

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every span in ``SPANS`` into the loaded conethom modules."""
        undo: list = []
        try:
            for module_name, attr, name in SPANS:
                module = sys.modules["conethom." + module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(name, original))
                    undo.append((cls, method, original))
                else:
                    original = getattr(module, attr)
                    replace_function(original, self._wrap(name, original), undo)
            yield self
        finally:
            restore(undo)

    @contextmanager
    def root(self, name: str):
        """Time a top-level phase, summed over its entries; traced calls
        inside it are its children and the rest is glue."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            inner = self._stack.pop()
            totals = self.roots[name]
            totals[0] += wall
            totals[1] += wall - inner

    def layer_self_s(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return dict(out)
