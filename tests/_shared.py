"""Memoized gallery analyses shared across test modules, and the one
jet-operation counter of the tests.

The conformal pipeline is pure per (example, point), so repeated requests
from different tests reuse one lazy context and one snapshot of it.
"""

from collections import Counter
from functools import lru_cache

from wintgen import classical, gallery, jets, moebius


@lru_cache(maxsize=None)
def entry(name):
    return gallery.by_name(name)


@lru_cache(maxsize=None)
def context(name, p):
    return moebius.MoebiusContext(entry(name).spec, p)


@lru_cache(maxsize=None)
def mdata(name, p):
    return moebius.moebius_data(context(name, p))


def plan_points(name, k=None):
    pts = entry(name).sample_plan
    return pts if k is None else pts[:k]


class JetOps:
    """Counts jet operations while installed by a pytest monkeypatch (the
    fixture or one of its contexts): counts[kind, order, in_chart], where
    kind is "product" (a jet times a jet), "scalar" (a number or a lane
    vector times a jet), "add" (a jet plus or minus a jet or a number),
    "derivative" or "stacked" (one call of the product kernel of stacked
    jets, jets.stack_mul, whatever its entry count); order is the lower of
    the two jets' orders (the jet's own against a number, the
    differentiated jet's for a derivative), and in_chart whether the
    operation ran inside the chart evaluation."""

    def __init__(self, monkeypatch):
        self.counts, self.in_chart = Counter(), False
        for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                     "__rsub__"):
            monkeypatch.setattr(jets.MultiJet, attr, self._counted(
                "mul" in attr, getattr(jets.MultiJet, attr)))
        derivative, evaluate = jets.derivative, classical.eval_immersion_jet
        stack_mul = jets.stack_mul

        def counted_stack_mul(a, b):
            order = jets.stack_order(a if len(a) <= len(b) else b)
            self.counts["stacked", order, self.in_chart] += 1
            return stack_mul(a, b)

        def counted_derivative(a, var_index):
            self.counts["derivative", a.order, self.in_chart] += 1
            return derivative(a, var_index)

        def in_chart(*args):
            self.in_chart = True
            try:
                return evaluate(*args)
            finally:
                self.in_chart = False
        monkeypatch.setattr(jets, "derivative", counted_derivative)
        monkeypatch.setattr(jets, "stack_mul", counted_stack_mul)
        monkeypatch.setattr(classical, "eval_immersion_jet", in_chart)

    def _counted(self, product, fn):
        def wrapper(a, b):
            jet = isinstance(b, jets.MultiJet)
            kind = ("product" if jet else "scalar") if product else "add"
            order = min(a.order, b.order) if jet else a.order
            self.counts[kind, order, self.in_chart] += 1
            return fn(a, b)
        return wrapper

    def total(self, *kinds, order=None, in_chart=None) -> int:
        """The operations of these kinds, at one order and one side of the
        chart evaluation when given."""
        return sum(n for (kind, o, chart), n in self.counts.items()
                   if kind in kinds and order in (None, o)
                   and in_chart in (None, chart))
