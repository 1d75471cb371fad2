"""Spans around the calls `wintgen.cli` makes into each module, and a
separate jet-operation counter.

Both patch names from outside the program and put them back afterwards.
A name that a later version of the program no longer has is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, attribute, span name): the names cli calls, patched where cli
# looks them up.  ideal's own moebius_data call is wrapped too, so
# theorem-b and hopf-check attribute that time to moebius.
SPAN_POINTS = (
    ("wintgen.cli", "_emit", "cli.emit"),
    ("wintgen.gallery", "by_name", "gallery.by_name"),
    ("wintgen.cli", "sample_points", "immersion.sample_points"),
    ("wintgen.cli", "parse_immersion", "immersion.parse"),
    ("wintgen.cli", "classical_data", "classical.forms"),
    ("wintgen.cli", "ddvv_from_forms", "classical.forms"),
    ("wintgen.cli", "moebius_data", "moebius.moebius_data"),
    ("wintgen.ideal", "moebius_data", "moebius.moebius_data"),
    ("wintgen.cli", "integrability_residuals",
     "moebius.integrability_residuals"),
    ("wintgen.cli", "_analyze", "ideal.canonical_fields"),
    ("wintgen.cli", "_package_invariants", "ideal.package_invariants"),
)
ROOT = "cli.call"
# ClassicalContext computes lazily: its work happens in the is_umbilic()
# that cli calls next, so both count as classical.context.
CONTEXT = ("wintgen.cli", "ClassicalContext", "classical.context")


class _Patches:
    def __init__(self):
        self._saved = []
        self.missing = []

    def replace(self, module, attr, make, label):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr} ({label})")
            return
        self._saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def restore(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


class Tracer:
    """Spans in memory: [name, start, end, parent index, call id]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.call_id = None
        self._patches = _Patches()

    @property
    def missing(self):
        return self._patches.missing

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.call_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def traced(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def run_call(self, call_id, fn, *args):
        """Run `fn(*args)` as the root span of one program call."""
        self.call_id = call_id
        return self.traced(fn, ROOT)(*args)

    def install(self):
        import importlib

        self._patches = _Patches()
        for mod_name, attr, name in SPAN_POINTS:
            self._patches.replace(importlib.import_module(mod_name), attr,
                                  lambda fn, n=name: self.traced(fn, n), name)
        mod_name, attr, name = CONTEXT

        def make_context(cls):
            def construct(*args, **kwargs):
                ctx = self.traced(cls, name)(*args, **kwargs)
                ctx.is_umbilic = self.traced(ctx.is_umbilic, name)
                return ctx
            return construct

        self._patches.replace(importlib.import_module(mod_name), attr,
                              make_context, name)

    def uninstall(self):
        self._patches.restore()

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self):
        """{(call id, span name): self seconds}."""
        acc = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            acc[(s[4], s[0])] += t
        return dict(acc)


# ---------------------------------------------------------------------------
# jet-operation counting

_ADDS = ("__add__", "__radd__", "__sub__", "__rsub__")
_MULS = ("__mul__", "__rmul__")
_DIVS = ("__truediv__", "__rtruediv__")


class OpCounter:
    """Counts MultiJet arithmetic, `jets.derivative` and
    `jets.jet_elementary`.  Products are split by the truncation order they
    run at: the lower order of two jets, or the jet's order against a
    scalar.  Operations nested in another (the products inside an
    elementary function) count too."""

    def __init__(self):
        self.counts = Counter()
        self._patches = _Patches()

    @property
    def missing(self):
        return self._patches.missing

    def install(self):
        from wintgen import jets

        cls = jets.MultiJet
        counts = self.counts

        def counted(key):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def counted_mul(fn):
            @functools.wraps(fn)
            def wrapper(a, b):
                order = a.order
                if isinstance(b, cls) and b.order < order:
                    order = b.order
                counts["mul"] += 1
                counts[f"mul.o{order}"] += 1
                return fn(a, b)
            return wrapper

        for attr in _ADDS:
            self._patches.replace(cls, attr, counted("add"), "add")
        for attr in _MULS:
            self._patches.replace(cls, attr, counted_mul, "mul")
        for attr in _DIVS:
            self._patches.replace(cls, attr, counted("div"), "div")
        self._patches.replace(jets, "derivative", counted("derivative"),
                              "derivative")
        self._patches.replace(jets, "jet_elementary", counted("elementary"),
                              "elementary")

    def uninstall(self):
        self._patches.restore()
