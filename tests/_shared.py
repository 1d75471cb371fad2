"""Memoized gallery analyses shared across test modules.

The conformal pipeline is pure per (example, point), so repeated requests
from different tests reuse one lazy context and one snapshot of it.
"""

from functools import lru_cache

from wintgen import gallery, moebius


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
