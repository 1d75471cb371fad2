"""Memoized gallery analyses shared across test modules.

The conformal pipeline is pure per (example, point, order), so repeated
requests from different tests reuse one computation.
"""

from functools import lru_cache

from wintgen import gallery, moebius


@lru_cache(maxsize=None)
def entry(name):
    return gallery.by_name(name)


@lru_cache(maxsize=None)
def mdata(name, p, order=5):
    return moebius.moebius_data(
        moebius.MoebiusContext(entry(name).spec, p, order=order))


def plan_points(name, k=None):
    pts = entry(name).sample_plan
    return pts if k is None else pts[:k]
