"""Set-up time in fresh interpreters, jet-primitive microbenchmarks, and
the reference work that tracks the host's speed."""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

INNER = 200     # operations per timed repeat
REPEATS = 7     # timed repeats; the fastest counts

# Import the CLI, then make the jet tables get built on first use at orders
# 2-5: one product, division, derivative and elementary call each.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wintgen.cli
from wintgen import jets
for k in range(2, 6):
    a = jets.jet_seed(1, 0.5, k) + jets.jet_seed(2, 0.25, k) * 0.5
    b = a * jets.jet_seed(3, 0.125, k)
    c = b / (a + 1.0)
    jets.derivative(c, 1)
    jets.sin(a)
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(src_dir) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(src_dir)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _full_jet(jets, order, p):
    """A jet with every coefficient nonzero, built through the public API."""
    u = [jets.jet_seed(i + 1, v, order) for i, v in enumerate(p)]
    return jets.exp(u[0] * 0.3 + u[1] * 0.2 - u[2] * 0.1) + 1.5


def _min_per_op(fn, inner: int = INNER) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / inner


def jet_primitives() -> dict[str, float]:
    """Min-of-`REPEATS` time per operation in microseconds."""
    from wintgen import jets

    out = {}
    for k in range(2, 6):
        a = _full_jet(jets, k, (0.3, 0.4, 0.5))
        b = _full_jet(jets, k, (0.7, 0.1, 0.2))
        out[f"jets.mul.us.o{k}"] = _min_per_op(lambda: a * b)
    a = _full_jet(jets, 5, (0.3, 0.4, 0.5))
    b = _full_jet(jets, 5, (0.7, 0.1, 0.2))
    out["jets.div.us.o5"] = _min_per_op(lambda: a / b, INNER // 4)
    out["jets.sqrt.us.o5"] = _min_per_op(lambda: jets.sqrt(a))
    out["jets.sin.us.o5"] = _min_per_op(lambda: jets.sin(a))
    out["jets.derivative.us.o5"] = _min_per_op(
        lambda: jets.derivative(a, 2))
    return {name: v * 1e6 for name, v in out.items()}


# The reference: truncated products of 21-term series, done in plain Python
# and with the small-array numpy calls (gather, multiply, bincount) that the
# program's jets make.  It is the benchmark's own code, so no change to the
# program can change it.  On an idle core of a 2-vCPU Xeon host it takes
# about 20 ms, half in each part.
_REF_TERMS = 21
_REF_A = [1.0 + 0.001 * i for i in range(_REF_TERMS)]
_REF_B = [0.5 - 0.002 * i for i in range(_REF_TERMS)]
_REF_I, _REF_J = (ix.ravel() for ix in np.indices((_REF_TERMS, _REF_TERMS)))
_REF_I, _REF_J = (ix[_REF_I + _REF_J < _REF_TERMS] for ix in (_REF_I, _REF_J))
_REF_OUT = _REF_I + _REF_J


def reference_seconds() -> float:
    """Wall time of one pass of the reference work."""
    a, b = np.array(_REF_A), np.array(_REF_B)
    t0 = time.perf_counter()
    for _ in range(800):
        c = [0.0] * _REF_TERMS
        for i, x in enumerate(_REF_A):
            for j in range(_REF_TERMS - i):
                c[i + j] += x * _REF_B[j]
    for _ in range(2500):
        np.bincount(_REF_OUT, weights=a[_REF_I] * b[_REF_J],
                    minlength=_REF_TERMS)
    return time.perf_counter() - t0
