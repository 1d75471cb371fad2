"""Fundamental forms, the DDVV report, and the adapted normal form."""

import math

import numpy as np
import pytest

from wintgen.classical import (ClassicalContext, adapted_frame,
                               classical_data, ddvv_from_forms,
                               ddvv_matrix_gap, ddvv_report, fundamental_forms,
                               half_angle, umbilic, _pattern_matrices)
from wintgen.errors import (NotIdealPoint, NotImmersed, ShapeError,
                            UmbilicPoint)
from wintgen.gallery import (cone_over_veronese, generic_control,
                             so3_example, umbilic_control,
                             veronese_hopf_example)
from wintgen.immersion import parse_immersion, sample_points

import _oracles as oracles
from _charts import HYPERBOLIC_GRAPH

GEODESIC_S3 = """\
ambient: sphere
name: geodesic-s3
domain: u1 in [0.4,2.7]; u2 in [0.4,2.7]; u3 in [0.05,6.2]
x1 = cos(u1)
x2 = sin(u1)*cos(u2)
x3 = sin(u1)*sin(u2)*cos(u3)
x4 = sin(u1)*sin(u2)*sin(u3)
x5 = 0
x6 = 0
"""

RANK_DEFICIENT = """\
ambient: sphere
name: rank-deficient
domain: u1 in [0.0,6.2]; u2 in [0.0,6.2]; u3 in [0.0,6.2]
x1 = cos(u1) / sqrt(2)
x2 = sin(u1) / sqrt(2)
x3 = cos(u2) / sqrt(2)
x4 = sin(u2) / sqrt(2)
x5 = 0
x6 = 0
"""


def test_totally_geodesic_slice():
    spec = parse_immersion(GEODESIC_S3)
    data = fundamental_forms(spec, (0.9, 1.3, 2.0))
    assert np.max(np.abs(data.h)) < 1e-10
    assert np.max(np.abs(data.H)) < 1e-10


def test_so3_minimal_and_frames():
    entry = so3_example()
    data = fundamental_forms(entry.spec, (0.3, 0.7, 1.1))
    assert float(np.linalg.norm(data.H)) < 1e-9
    # orthonormality in the ambient inner product
    T = data.tangent_frame  # rows: frame in chart components
    G = data.induced_metric
    gram = T @ G @ T.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10
    N = data.normal_frame
    assert np.max(np.abs(N @ N.T - np.eye(2))) < 1e-10


def test_hyperbolic_frames_orthonormal():
    spec = parse_immersion(HYPERBOLIC_GRAPH)
    p = (0.2, -0.3, 0.4)
    data = fundamental_forms(spec, p)
    eta = np.diag([-1.0] + [1.0] * 5)
    N = data.normal_frame
    assert np.max(np.abs(N @ eta @ N.T - np.eye(2))) < 1e-10
    # normals are orthogonal to the position (spacelike section)
    ctx = ClassicalContext(spec, p, order=2)
    x0 = np.array([j.value for j in ctx.x])
    assert np.max(np.abs(N @ eta @ x0)) < 1e-10
    rep = ddvv_report(spec, p)
    assert rep.slack >= -1e-10


def test_not_immersed():
    spec = parse_immersion(RANK_DEFICIENT)
    with pytest.raises(NotImmersed):
        fundamental_forms(spec, (1.0, 2.0, 3.0))


def test_cone_radial_kernel_and_minimal():
    entry = cone_over_veronese()
    for p in [(1.0, 2.0, 0.8), (2.0, 0.7, 1.5), (0.6, 4.4, 1.0)]:
        ctx = ClassicalContext(entry.spec, p, order=2)
        data = classical_data(ctx)
        # the cone over a minimal spherical surface is minimal
        assert float(np.linalg.norm(data.H)) < 1e-9
        # chart ray direction d/du3 expressed in the orthonormal frame:
        # rows of L = inv(tangent_frame) give d/du_a = sum_i L[a,i] e_i
        L = np.linalg.inv(data.tangent_frame)
        ray = L[2] / np.linalg.norm(L[2])
        for r in range(2):
            assert np.max(np.abs(data.h[r] @ ray)) < 1e-9


def test_umbilic_round_sphere_report():
    entry = umbilic_control()
    rep = ddvv_report(entry.spec, (1.0, 1.2, 2.0))
    assert rep.s_N == pytest.approx(0.0, abs=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-10)
    data = fundamental_forms(entry.spec, (1.0, 1.2, 2.0))
    assert umbilic(data.h, data.H)


def test_so3_ideal_at_sample():
    entry = so3_example()
    for p in sample_points(entry.spec.domain, 20, seed=5):
        rep = ddvv_report(entry.spec, p)
        assert abs(rep.slack) < 1e-9
        assert rep.ideal


def test_generic_control_strict_slack_vs_fd_oracle():
    entry = generic_control()
    p = entry.sample_plan[0]
    rep = ddvv_report(entry.spec, p)
    assert rep.slack > 0.05
    assert not rep.ideal

    from wintgen.immersion import eval_immersion_values
    fd = oracles.fd_classical_invariants(
        lambda q: eval_immersion_values(entry.spec, q), p, c=1.0)
    assert rep.s == pytest.approx(fd["s"], abs=2e-5)
    assert rep.s_N == pytest.approx(fd["s_N"], abs=2e-5)
    assert rep.H_norm2 == pytest.approx(fd["H2"], abs=2e-5)
    assert rep.slack == pytest.approx(fd["slack"], abs=5e-5)


def test_cone_slack_vs_fd_oracle():
    entry = cone_over_veronese()
    from wintgen.immersion import eval_immersion_values
    for p in [(1.1, 2.3, 0.9), (1.8, 5.0, 1.4), (0.7, 1.0, 1.8)]:
        rep = ddvv_report(entry.spec, p)
        assert abs(rep.slack) < 1e-8
        fd = oracles.fd_classical_invariants(
            lambda q: eval_immersion_values(entry.spec, q), p, c=0.0)
        assert rep.slack == pytest.approx(fd["slack"], abs=1e-4)


def test_ddvv_inequality_on_gallery():
    for entry in (so3_example(), veronese_hopf_example(), cone_over_veronese(),
                  generic_control(), umbilic_control()):
        for p in entry.sample_plan:
            rep = ddvv_report(entry.spec, p)
            assert rep.slack >= -1e-10, entry.name


# ---------------------------------------------------------------------------
# matrix gap


def test_matrix_gap_normal_form():
    mu = 1.0 / math.sqrt(6.0)
    B1 = np.zeros((3, 3))
    B1[0, 1] = B1[1, 0] = mu
    B2 = np.diag([mu, -mu, 0.0])
    assert ddvv_matrix_gap([B1, B2]) == pytest.approx(0.0, abs=1e-15)


def test_matrix_gap_single_matrix():
    B = np.diag([1.0, 1.0, -2.0])
    assert ddvv_matrix_gap([B]) == pytest.approx(float(np.sum(B * B)) ** 2, rel=1e-14)


def test_matrix_gap_random_pairs_nonnegative():
    rng = np.random.default_rng(101)
    worst = np.inf
    for _ in range(2000):
        mats = []
        for _ in range(2):
            a = rng.normal(size=(3, 3))
            a = (a + a.T) / 2
            a -= np.trace(a) / 3 * np.eye(3)
            mats.append(a)
        worst = min(worst, ddvv_matrix_gap(mats))
    assert worst >= -1e-12


def test_matrix_gap_shape_errors():
    with pytest.raises(ShapeError):
        ddvv_matrix_gap([np.zeros((3, 3)), np.zeros((2, 2))])
    with pytest.raises(ShapeError):
        ddvv_matrix_gap([np.array([[0.0, 1.0], [-1.0, 0.0]])])  # antisymmetric
    with pytest.raises(ShapeError):
        ddvv_matrix_gap([np.eye(3)])  # nonzero trace
    with pytest.raises(ShapeError):
        ddvv_matrix_gap([])


# ---------------------------------------------------------------------------
# frame-gauge independence of the report


def test_report_invariant_under_frame_rotations():
    entry = generic_control()
    data = fundamental_forms(entry.spec, entry.sample_plan[1])
    (base,) = ddvv_from_forms(data.h[None], data.H[None], data.c)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        o, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        h2 = np.einsum("sr,sij->rij", o, np.einsum("ia,rab,jb->rij", q, data.h, q))
        H2 = o.T @ data.H
        (rot,) = ddvv_from_forms(h2[None], H2[None], data.c)
        assert rot.s == pytest.approx(base.s, abs=1e-10)
        assert rot.s_N == pytest.approx(base.s_N, abs=1e-10)
        assert rot.H_norm2 == pytest.approx(base.H_norm2, abs=1e-10)
        assert rot.slack == pytest.approx(base.slack, abs=1e-10)


# ---------------------------------------------------------------------------
# adapted frame


def test_adapted_frame_synthetic_roundtrip():
    lam1, lam2, mu0 = 0.2, -0.1, 0.4
    P1, P2 = _pattern_matrices(lam1, lam2, mu0)
    rng = np.random.default_rng(13)
    for trial in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        ang = rng.uniform(0, 2 * np.pi)
        o = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        if trial % 2:
            o = o @ np.diag([1.0, -1.0])
        h = np.einsum("sr,sij->rij", o,
                      np.stack([q.T @ P1 @ q, q.T @ P2 @ q]))
        H = o.T @ np.array([lam1, lam2])
        frame = adapted_frame_from_parts(h, H)
        assert frame.mu0 == pytest.approx(mu0, abs=1e-10)
        assert frame.pattern_residual < 1e-10
        # the residual gauge rotates (lambda1, lambda2); the pair's norm and
        # the kernel direction are pinned
        assert frame.lambda1 ** 2 + frame.lambda2 ** 2 == pytest.approx(
            lam1 ** 2 + lam2 ** 2, abs=1e-10)
        assert abs(frame.tangent_rotation[2] @ q[2]) == pytest.approx(1.0, abs=1e-9)
        # recovered rotations are orthogonal
        R = frame.tangent_rotation
        assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-12


def adapted_frame_from_parts(h, H):
    from wintgen.classical import ClassicalData
    data = ClassicalData(induced_metric=np.eye(3), tangent_frame=np.eye(3),
                         normal_frame=np.zeros((2, 6)), h=np.asarray(h),
                         H=np.asarray(H), c=1.0)
    return adapted_frame(data)


def test_adapted_frame_so3_matches_search_oracle():
    entry = so3_example()
    data = fundamental_forms(entry.spec, (0.3, 0.7, 1.1))
    frame = adapted_frame(data)
    assert frame.mu0 == pytest.approx(1.0, abs=1e-9)
    assert frame.pattern_residual < 1e-9

    # independent oracle: exhaustive sweep of tangent angle x normal angle
    # (with and without a normal flip) minimizing the off-pattern norm in the
    # invariant 2-plane representation
    T = data.h - data.H[:, None, None] * np.eye(3)[None, :, :]
    _, _, vt = np.linalg.svd(np.vstack([T[0], T[1]]))
    e3 = vt[2]
    k = int(np.argmin(np.abs(e3)))
    f1 = np.zeros(3)
    f1[k] = 1.0
    f1 -= (f1 @ e3) * e3
    f1 /= np.linalg.norm(f1)
    f2 = np.cross(e3, f1)
    z1 = complex(f1 @ T[0] @ f1, f1 @ T[0] @ f2)
    z2 = complex(f1 @ T[1] @ f1, f1 @ T[1] @ f2)

    tgrid = np.arange(0.0, np.pi, 1e-3)
    sgrid = np.arange(0.0, 2 * np.pi, 1e-3)
    phase = np.exp(2j * tgrid)[:, None]
    best = (np.inf, None)
    for flip in (1.0, -1.0):
        for lo in range(0, sgrid.size, 700):
            s = sgrid[lo:lo + 700][None, :]
            w1 = phase * (np.cos(s) * z1 + np.sin(s) * flip * z2)
            w2 = phase * (-np.sin(s) * z1 + np.cos(s) * flip * z2)
            mu = (w1.imag + w2.real) / 2.0
            res = (2 * (w1.real ** 2 + (w1.imag - mu) ** 2)
                   + 2 * ((w2.real - mu) ** 2 + w2.imag ** 2))
            idx = np.unravel_index(np.argmin(res), res.shape)
            if res[idx] < best[0]:
                best = (res[idx], mu[idx])
    # the sweep resolves angles to 1e-3, so the floor scales like (grid step)^2
    assert best[0] < 1e-5
    assert best[1] == pytest.approx(frame.mu0, abs=2e-4)


def test_adapted_frame_refusals():
    with pytest.raises(UmbilicPoint):
        adapted_frame(fundamental_forms(umbilic_control().spec, (1.0, 1.2, 2.0)))
    entry = generic_control()
    with pytest.raises(NotIdealPoint):
        adapted_frame(fundamental_forms(entry.spec, entry.sample_plan[0]))


@pytest.mark.parametrize("mu", [1e-3, 1e-5, 1e-6, 1e-8])
def test_adapted_frame_refuses_exactly_where_the_umbilic_criterion_holds(mu):
    # ideal patterns mu P + H I: trace-free part 4 mu^2 against |II|^2 1.59,
    # so the criterion holds from mu = 6.3e-6 down; the ddvv command and
    # the invariant gates read the same criterion
    H = np.array([0.7, 0.2])
    h = mu * np.array(_pattern_matrices(0.0, 0.0, 1.0)) \
        + H[:, None, None] * np.eye(3)
    assert umbilic(h, H) == (mu <= 1e-6)
    if mu <= 1e-6:
        with pytest.raises(UmbilicPoint):
            adapted_frame_from_parts(h, H)
    else:
        frame = adapted_frame_from_parts(h, H)
        assert frame.mu0 == pytest.approx(mu, rel=1e-6)


def test_half_angle():
    # cos 2t = Im z/|z| and sin 2t = Re z/|z| turn z to i|z|, with cos t >= 0
    for z in (1 + 0j, 1j, -2j, 0.3 - 0.4j, -1.0 + 0j):
        c2, s2 = z.imag / abs(z), z.real / abs(z)
        ct, st = half_angle(c2, s2)
        assert ct >= 0.0
        assert ct ** 2 + st ** 2 == pytest.approx(1.0, abs=1e-15)
        rotated = complex(ct, st) ** 2 * z
        assert rotated.real == pytest.approx(0.0, abs=1e-12)
        assert rotated.imag == pytest.approx(abs(z), rel=1e-12)


def test_half_angle_picks_its_branch_per_lane():
    # lane vectors take each lane's branch: the float call, lane by lane
    c2 = np.array([0.6, -0.8, 0.0, -1.0, 1.0])
    s2 = np.array([0.8, 0.6, -1.0, 0.0, 0.0])
    ct, st = half_angle(c2, s2)
    for k in range(len(c2)):
        assert (ct[k], st[k]) == half_angle(float(c2[k]), float(s2[k])), k
