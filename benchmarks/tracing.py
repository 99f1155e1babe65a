"""Spans and call counters for the benchmark's traced and counting passes.

Everything here wraps skewarch from outside; no program file changes.
A wrapped function is replaced in every skewarch module that binds it,
because the modules import each other's functions by name (``suites``
binds ``props`` functions with ``from .props import ...``), so patching
the defining module alone would miss those calls.  Methods are patched
on their class, which every caller shares.

Install wrappers after importing ``skewarch.cli`` (which imports every
other module) and before constructing any ring, so no caller holds an
unwrapped reference.
"""

import re
import sys
import time
from collections import defaultdict

# cli is imported so that its bindings are in sys.modules when rebinding
from skewarch import (cli, endos, props, registry, reports,  # noqa: F401
                      rings, skew, suites)

from metrics import PROPS_TRACED

# span name -> functions it wraps, as (module, attribute)
FUNCTION_SPANS = {
    "rings.construct": [(rings, "construct_ring")],
    "rings.units": [(rings, "units")],
    "rings.jacobson_radical": [(rings, "jacobson_radical")],
    "rings.zero_divisors": [(rings, "zero_divisors")],
    "rings.is_domain": [(rings, "is_domain")],
    "rings.idempotents": [(rings, "idempotents")],
    "endos.build": [(endos, "build_endo")],
    "endos.predicates": [(endos, name) for name in (
        "is_injective", "is_rigid", "is_compatible", "preserves_nonunits")],
    "skew.series_inverse": [(skew, "series_inverse")],
    "skew.solve_right_divisibility": [(skew, "solve_right_divisibility")],
    "registry.self_check": [(registry, "startup_self_check")],
    "reports.render": [(reports, "render_json")],
}
for _name in PROPS_TRACED:
    FUNCTION_SPANS["props." + _name] = [(props, _name)]

# span name -> (class, method); the twisted products
METHOD_SPANS = {
    "skew.series_mul": (skew.TruncSeries, "__mul__"),
    "skew.poly_mul": (skew.SkewPoly, "__mul__"),
}

CELL_SPAN = "suites.cell"
WHOLE_SPANS = ("registry.self_check",)
ROOT_SPAN = "work"


def metric_id(text: str) -> str:
    """Map a registry entry id onto the metric-name alphabet."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


def rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` in skewarch."""
    found = False
    for name, module in list(sys.modules.items()):
        if name != "skewarch" and not name.startswith("skewarch."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    if not found:
        raise LookupError("no skewarch module binds %r" % (original,))


def ring_classes():
    """Ring handle classes that implement their own kernels."""
    return [c for c in vars(rings).values()
            if isinstance(c, type) and issubclass(c, rings.RingHandle)
            and "k_mul" in vars(c)]


class SpanRecorder:
    """Keeps spans in memory as [name, key, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, key=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, key(*args) if key else None, clock(), None,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return traced

    def span(self, name, fn):
        """Run ``fn()`` inside a span of its own."""
        return self.wrap(name, fn)()

    def install(self) -> None:
        for name, targets in FUNCTION_SPANS.items():
            for module, attr in targets:
                original = getattr(module, attr)
                rebind(original, self.wrap(name, original))
        for name, (cls, attr) in METHOD_SPANS.items():
            setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
        run_one = suites.run_one
        rebind(run_one, self.wrap(
            CELL_SPAN, run_one,
            key=lambda entry, suite_id, config: (entry.id, suite_id)))

    def self_times(self):
        """Seconds per span name, 0 for a name with no span: each span
        less its direct children, except cells and the registry
        self-check, which are kept whole.
        A cell is the unit the CLI schedules and the self-check is a
        phase of its own, so their inclusive time is what matters; their
        children are reported under their own names as well."""
        child = [0.0] * len(self.spans)
        for name, key, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(
            [name + "_s"
             for name in (*FUNCTION_SPANS, *METHOD_SPANS, ROOT_SPAN)]
            + ["suites.%s_s" % suite_id for suite_id in suites.SUITE_IDS]
            + ["suites.entry.%s_s" % metric_id(entry.id)
               for entry in registry.ENTRIES], 0.0)
        for i, (name, key, start, end, parent) in enumerate(self.spans):
            whole = end - start
            if name == CELL_SPAN:
                entry_id, suite_id = key
                out["suites.%s_s" % suite_id] += whole
                out["suites.entry.%s_s" % metric_id(entry_id)] += whole
            elif name in WHOLE_SPANS:
                out[name + "_s"] += whole
            else:
                out[name + "_s"] += whole - child[i]
        return out

    def rows(self):
        return [[name, list(key) if key else None, start, end, parent]
                for name, key, start, end, parent in self.spans]


class CallCounter:
    """Exact call counts of the ring kernels per ring kind and of the
    twisted products, plus the share of nonzero operand coefficients.
    Counting adds a Python call to every kernel call, so no time is read
    from a counting pass."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.coeffs = 0
        self.nonzero = 0

    def install(self) -> None:
        counts = self.counts
        for cls in ring_classes():
            for op in ("k_add", "k_mul"):
                key = "rings.%s.calls.%s" % (op, cls.kind)
                counts[key] = 0

                def counted(ring, x, y, _fn=vars(cls)[op], _key=key):
                    counts[_key] += 1
                    return _fn(ring, x, y)
                setattr(cls, op, counted)
        for name, (cls, attr) in METHOD_SPANS.items():
            key = name + ".calls"
            counts[key] = 0
            setattr(cls, attr, self._counted_product(vars(cls)[attr], key))

    def clear(self) -> None:
        for key in self.counts:
            self.counts[key] = 0
        self.coeffs = self.nonzero = 0

    def _counted_product(self, fn, key):
        def counted(a, b):
            self.counts[key] += 1
            zero = a.ring.zero_v
            for operand in (a, b):
                self.coeffs += len(operand.coeffs)
                self.nonzero += sum(1 for c in operand.coeffs if c != zero)
            return fn(a, b)
        return counted

    def metrics(self):
        out = dict(self.counts)
        out["skew.mul.density"] = (self.nonzero / self.coeffs
                                   if self.coeffs else 0.0)
        return out
