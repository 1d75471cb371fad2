"""Built-in analytic examples with known ground truth.

Positive cases (ideal at every point of the chart), negative controls, and a
Lorentz-matrix generator for invariance testing.  Each entry documents where
its expected numbers come from as mathematical facts about the example.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jets
from .errors import DegenerateCurve, NotLorentz
from .immersion import (EUCLIDEAN, SPHERE, ImmersionSpec, sample_points,
                        unit_stream)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    spec: ImmersionSpec
    expected: dict
    sample_plan: tuple
    expression_text: Optional[str] = None  # file-format twin where expressible


def _entry(name, spec, expected, expression_text=None, plan_seed=0x5EED):
    return GalleryEntry(
        name=name, spec=spec, expected=expected,
        sample_plan=tuple(sample_points(spec.domain, 20, seed=plan_seed)),
        expression_text=expression_text)


# ---------------------------------------------------------------------------
# rotation-group orbit


_SO3_TEXT = """\
# First two columns of a rotation matrix in Euler angles (z-y-z), scaled
# to land on the unit sphere of R^6.  u2 stays away from 0 and pi where
# the Euler chart degenerates.
ambient: sphere
name: so3
domain: u1 in [0.05,6.2]; u2 in [0.3,2.8]; u3 in [0.05,6.2]
x1 = (cos(u1)*cos(u2)*cos(u3) - sin(u1)*sin(u3)) / sqrt(2)
x2 = (sin(u1)*cos(u2)*cos(u3) + cos(u1)*sin(u3)) / sqrt(2)
x3 = -sin(u2)*cos(u3) / sqrt(2)
x4 = (-cos(u1)*cos(u2)*sin(u3) - sin(u1)*cos(u3)) / sqrt(2)
x5 = (-sin(u1)*cos(u2)*sin(u3) + cos(u1)*cos(u3)) / sqrt(2)
x6 = sin(u2)*sin(u3) / sqrt(2)
"""


def _so3_evaluator(u):
    """(first column, second column) of R_z(u1) R_y(u2) R_z(u3), over sqrt(2).

    The two columns are orthonormal in R^3, so the concatenation has norm
    sqrt(2) and the scaled map lands on S^5 exactly.
    """
    c1, s1 = jets.cos(u[0]), jets.sin(u[0])
    c2, s2 = jets.cos(u[1]), jets.sin(u[1])
    c3, s3 = jets.cos(u[2]), jets.sin(u[2])
    col1 = [c1 * c2 * c3 - s1 * s3, s1 * c2 * c3 + c1 * s3, -(s2 * c3)]
    col2 = [-(c1 * c2 * s3) - s1 * c3, -(s1 * c2 * s3) + c1 * c3, s2 * s3]
    return [v * (1.0 / SQRT2) for v in col1 + col2]


@functools.cache
def so3_example() -> GalleryEntry:
    """Homogeneous orbit of SO(3) acting on pairs of orthonormal vectors.

    Minimal in S^5.  Ground truth: conformal factor rho = sqrt(6) (constant),
    conformal form C = 0, U = V = G = 0, torsion scalar L = 1/sqrt(6),
    normal connection theta12(E3) = 1/sqrt(6), 2*Fhat = L^2 so Fhat = 1/12,
    omega = 0 (closed), classification sphere_minimal.  All constants follow
    from homogeneity: every frame invariant is constant along the orbit.
    """
    spec = ImmersionSpec(ambient=SPHERE, name="so3",
                         domain=((0.05, 6.2), (0.3, 2.8), (0.05, 6.2)),
                         evaluator=_so3_evaluator)
    expected = {
        "ideal": True, "umbilic": False, "L_zero": False,
        "zeros": ("U", "V", "G"), "classification": "sphere_minimal",
        "minimal": True, "hopf": True,
        "constants": {"mu": 1.0 / SQRT6, "L": 1.0 / SQRT6, "rho": SQRT6,
                      "nu": 1.0, "Fhat": 1.0 / 12.0, "theta12_E3": 1.0 / SQRT6},
    }
    return _entry("so3", spec, expected, expression_text=_SO3_TEXT, plan_seed=0x501)


# ---------------------------------------------------------------------------
# Hopf lifts of plane curves: circle bundle over a holomorphic curve in CP^2


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _poly_eval_complex(coeffs, z):
    """Horner evaluation of a complex-coefficient polynomial at z = (re, im)
    over generic scalars."""
    re, im = 0.0, 0.0
    for c in reversed(coeffs):
        re, im = _cmul((re, im), z)
        re = re + c.real
        im = im + c.imag
    return re, im


def _hopf_evaluator(polys):
    def evaluate(u):
        z = (u[0], u[1])
        comps = [_poly_eval_complex(c, z) for c in polys]
        norm2 = 0.0
        for re, im in comps:
            norm2 = norm2 + re * re + im * im
        inv = 1.0 / jets.sqrt(norm2)
        ct, st = jets.cos(u[2]), jets.sin(u[2])
        out = []
        for re, im in comps:
            out.append((re * ct - im * st) * inv)
            out.append((re * st + im * ct) * inv)
        return out
    return evaluate


VERONESE_CURVE = ((1.0,), (0.0, SQRT2), (0.0, 0.0, 1.0))

_VERONESE_HOPF_TEXT = """\
# Circle orbits over the plane curve z -> (1, sqrt(2) z, z^2), normalized to
# the unit sphere of C^3 = R^6; |gamma|^2 = (1+|z|^2)^2 exactly.
ambient: sphere
name: veronese-hopf
domain: u1 in [-0.8,0.8]; u2 in [-0.8,0.8]; u3 in [0.05,6.2]
x1 = cos(u3) / (1 + u1^2 + u2^2)
x2 = sin(u3) / (1 + u1^2 + u2^2)
x3 = sqrt(2) * (u1*cos(u3) - u2*sin(u3)) / (1 + u1^2 + u2^2)
x4 = sqrt(2) * (u1*sin(u3) + u2*cos(u3)) / (1 + u1^2 + u2^2)
x5 = ((u1^2 - u2^2)*cos(u3) - 2*u1*u2*sin(u3)) / (1 + u1^2 + u2^2)
x6 = ((u1^2 - u2^2)*sin(u3) + 2*u1*u2*cos(u3)) / (1 + u1^2 + u2^2)
"""


def hopf_lift_curve(polys=VERONESE_CURVE, name="veronese-hopf",
                    domain=((-0.8, 0.8), (-0.8, 0.8), (0.05, 6.2)),
                    expected=None, expression_text=None,
                    plan_seed=0x502) -> GalleryEntry:
    """Circle bundle over a plane curve given by three complex polynomials.

    Chart: (u1, u2) = Re z, Im z and u3 the circle angle; the point is
    e^{i u3} gamma(z)/|gamma(z)| in the unit sphere of C^3.  For any
    holomorphic curve the lift is minimal in S^5 and ideal, with G = 0 and
    omega closed; the default curve is the quadratic one whose lift is the
    homogeneous example in different coordinates.
    """
    polys = tuple(tuple(complex(c) for c in coeffs) for coeffs in polys)
    # refuse curves that vanish somewhere on the chart grid
    grid = 9
    for i in range(grid):
        for j in range(grid):
            s = domain[0][0] + (domain[0][1] - domain[0][0]) * i / (grid - 1)
            t = domain[1][0] + (domain[1][1] - domain[1][0]) * j / (grid - 1)
            n2 = 0.0
            for c in polys:
                re, im = _poly_eval_complex(c, (s, t))
                n2 += re * re + im * im
            if n2 < 1e-8:
                raise DegenerateCurve(
                    f"curve vanishes near z = {s:+.3f}{t:+.3f}i")
    spec = ImmersionSpec(ambient=SPHERE, name=name, domain=domain,
                         evaluator=_hopf_evaluator(polys))
    if expected is None:
        expected = {
            "ideal": True, "umbilic": False, "L_zero": False,
            "zeros": ("G",), "classification": "sphere_minimal",
            "minimal": True, "hopf": True, "constants": {"mu": 1.0 / SQRT6},
        }
    return _entry(name, spec, expected, expression_text=expression_text,
                  plan_seed=plan_seed)


@functools.cache
def veronese_hopf_example() -> GalleryEntry:
    return hopf_lift_curve(expression_text=_VERONESE_HOPF_TEXT)


@functools.cache
def hopf_generic_example() -> GalleryEntry:
    """Hopf lift of the cubic curve z -> (1, z, z^3): same qualitative
    behavior as the default lift but with non-constant conformal factor, so
    exactness of omega (omega = d log nu) is a non-trivial check here."""
    return hopf_lift_curve(
        polys=((1.0,), (0.0, 1.0), (0.0, 0.0, 0.0, 1.0)),
        name="hopf-generic",
        domain=((0.2, 0.9), (0.2, 0.9), (0.05, 6.2)),
        plan_seed=0x503)


# ---------------------------------------------------------------------------
# cone over the quadratic (Veronese) minimal surface in S^4


def _cone_evaluator(u):
    """t * sigma(a, b) where sigma maps the unit 2-sphere to the unit sphere
    of R^5 by the five quadratic harmonics; the image surface is minimal in
    S^4, so the cone is minimal in R^5 and the ray direction lies in the
    kernel of the second fundamental form."""
    a, b, t = u
    sa, ca = jets.sin(a), jets.cos(a)
    sb, cb = jets.sin(b), jets.cos(b)
    x = sa * cb
    y = sa * sb
    z = ca
    sigma = [
        SQRT3 * (x * y),
        SQRT3 * (x * z),
        SQRT3 * (y * z),
        SQRT3 * 0.5 * (x * x - y * y),
        0.5 * (x * x + y * y - z * z * 2.0),
    ]
    return [t * s for s in sigma]


@functools.cache
def cone_over_veronese() -> GalleryEntry:
    """Euclidean cone over the quadratic minimal surface in S^4.

    Ideal at every chart point, but the canonical 2-plane distribution is
    integrable: the torsion scalar L vanishes, so invariants that divide by
    L are refused (IntegrableDistribution).  |x| = u3 on each ray.
    """
    spec = ImmersionSpec(ambient=EUCLIDEAN, name="cone-veronese",
                         domain=((0.4, 2.7), (0.05, 6.2), (0.5, 2.0)),
                         evaluator=_cone_evaluator)
    expected = {
        "ideal": True, "umbilic": False, "L_zero": True,
        "zeros": (), "classification": None, "minimal": True, "hopf": False,
        "constants": {"mu": 1.0 / SQRT6},
    }
    return _entry("cone-veronese", spec, expected, plan_seed=0x504)


# ---------------------------------------------------------------------------
# negative controls


def _umbilic_evaluator(u):
    """Geodesic-distance sphere of radius 0.6 inside a great S^3: totally
    umbilic, so the conformal factor vanishes identically and the whole
    conformal pipeline must refuse it.  The constant components come back as
    plain floats; jet evaluation wraps them."""
    r = 0.6
    sr, cr = math.sin(r), math.cos(r)
    c1, s1 = jets.cos(u[0]), jets.sin(u[0])
    c2, s2 = jets.cos(u[1]), jets.sin(u[1])
    c3, s3 = jets.cos(u[2]), jets.sin(u[2])
    w = [c1, s1 * c2, s1 * s2 * c3, s1 * s2 * s3]
    return [sr * w[0], sr * w[1], sr * w[2], sr * w[3], cr, 0.0]


@functools.cache
def umbilic_control() -> GalleryEntry:
    spec = ImmersionSpec(ambient=SPHERE, name="umbilic-control",
                         domain=((0.4, 2.7), (0.4, 2.7), (0.05, 6.2)),
                         evaluator=_umbilic_evaluator)
    expected = {"ideal": None, "umbilic": True, "L_zero": None, "zeros": (),
                "classification": None, "minimal": False, "hopf": False,
                "constants": {}}
    return _entry("umbilic-control", spec, expected, plan_seed=0x505)


def _generic_evaluator(u):
    """Product-torus chart pushed off symmetry by a bump and renormalized:
    nothing special holds, so the ideality defect stays far from zero."""
    eps = 0.15
    c1, s1 = jets.cos(u[0]), jets.sin(u[0])
    c2, s2 = jets.cos(u[1]), jets.sin(u[1])
    c3, s3 = jets.cos(u[2]), jets.sin(u[2])
    inv3 = 1.0 / SQRT3
    y = [
        c1 * inv3 + eps * 0.30 * jets.sin(u[0] + 2.0 * u[1]) * c3,
        s1 * inv3 + eps * 0.20 * jets.cos(2.0 * u[0]) * jets.sin(u[1] + u[2]),
        c2 * inv3 + eps * 0.25 * s1 * s2 * s3,
        s2 * inv3 + eps * 0.15 * jets.cos(u[1] + 2.0 * u[2]),
        c3 * inv3 + eps * 0.20 * jets.sin(2.0 * u[1] + u[2]),
        s3 * inv3 + eps * 0.10 * jets.cos(u[0] + u[1] + u[2]),
    ]
    n2 = y[0] * y[0]
    for v in y[1:]:
        n2 = n2 + v * v
    inv = 1.0 / jets.sqrt(n2)
    return [v * inv for v in y]


@functools.cache
def generic_control() -> GalleryEntry:
    spec = ImmersionSpec(ambient=SPHERE, name="generic-control",
                         domain=((0.3, 6.0), (0.3, 6.0), (0.3, 6.0)),
                         evaluator=_generic_evaluator)
    expected = {"ideal": False, "umbilic": False, "L_zero": None, "zeros": (),
                "classification": None, "minimal": False, "hopf": False,
                "constants": {}, "min_slack": 0.01}
    return _entry("generic-control", spec, expected, plan_seed=0x506)


# ---------------------------------------------------------------------------
# registry: each entry is built once per process, on first request, with
# its sample plan; nothing mutates an entry, so callers share it

_CONSTRUCTORS = {
    "so3": so3_example,
    "veronese-hopf": veronese_hopf_example,
    "hopf-generic": hopf_generic_example,
    "cone-veronese": cone_over_veronese,
    "umbilic-control": umbilic_control,
    "generic-control": generic_control,
}


def all_entries() -> list[GalleryEntry]:
    return [make() for make in _CONSTRUCTORS.values()]


def by_name(name: str) -> GalleryEntry:
    make = _CONSTRUCTORS.get(name)
    if make is None:
        raise KeyError(f"no gallery entry named {name!r}")
    return make()


def names() -> list[str]:
    return list(_CONSTRUCTORS)


# ---------------------------------------------------------------------------
# random Lorentz transformations (for invariance tests)


def random_lorentz(seed: int) -> np.ndarray:
    """T = diag(1, R1) * Boost(phi) * diag(1, R2) on R^7_1 with R1, R2 random
    special orthogonal and 0.125 <= phi < 0.5: preserves the (-,+,...,+)
    form and the time orientation."""
    stream = unit_stream(seed)

    def gauss():
        # Box-Muller
        u1 = max(next(stream), 1e-300)
        u2 = next(stream)
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def rand_so(n):
        a = np.array([[gauss() for _ in range(n)] for _ in range(n)])
        q, r = np.linalg.qr(a)
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q

    phi = 0.5 * (0.25 + 0.75 * next(stream))
    boost = np.eye(7)
    boost[0, 0] = boost[1, 1] = math.cosh(phi)
    boost[0, 1] = boost[1, 0] = math.sinh(phi)
    t1 = np.eye(7)
    t1[1:, 1:] = rand_so(6)
    t2 = np.eye(7)
    t2[1:, 1:] = rand_so(6)
    return t1 @ boost @ t2


def check_lorentz(T: np.ndarray, tol: float = 1e-12) -> None:
    T = np.asarray(T, dtype=float)
    n = T.shape[0]
    if T.shape != (n, n):
        raise NotLorentz(f"matrix shape {T.shape} is not square")
    eta = np.diag([-1.0] + [1.0] * (n - 1))
    dev = np.max(np.abs(T.T @ eta @ T - eta))
    if dev > tol:
        raise NotLorentz(f"T^t eta T deviates from eta by {dev:.3e}")
    if T[0, 0] <= 0:
        raise NotLorentz("T reverses time orientation")
