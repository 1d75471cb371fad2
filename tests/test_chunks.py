"""Sample points run in chunks of jets with a lane axis, and the values
read after the gates are computed once per chunk with a lane axis: a record
depends only on its point, bit for bit, wherever the point falls in a chunk
and whatever the chunk's size; a failure inside a chunk gives the one-point
document; and the batching shows in the counts of jet products, SVDs,
einsum calls and chart evaluations."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from wintgen import classical, cli, gallery, ideal, jets, moebius
from wintgen.errors import WintgenError
from wintgen.immersion import sample_points

IDEAL_CHARTS = ["so3", "veronese-hopf", "hopf-generic"]


@pytest.mark.parametrize("name", IDEAL_CHARTS)
def test_a_record_depends_only_on_its_point(name):
    spec = gallery.by_name(name).spec
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 5)
    cf = ideal.CanonicalFields(moebius.MoebiusContext(spec, chunk))
    batched = ideal._package_invariants(cf)
    residuals = moebius.integrability_residuals(
        moebius.MoebiusContext(spec, chunk))
    for k in (0, 7, len(chunk) - 1):
        alone = moebius.MoebiusContext(spec, chunk[k])
        assert batched[k] == ideal.invariants_uvlg(alone), k
        assert [residuals[k]] == moebius.integrability_residuals(alone), k


@pytest.mark.parametrize("gauge", ["raw", "V0"])
@pytest.mark.parametrize("name, partial", [
    *((name, False) for name in IDEAL_CHARTS),
    ("cone-veronese", True)])  # integrable lanes
def test_each_lane_is_its_point_alone_at_any_lane_count(name, partial, gauge):
    # the values after the gates (kernel plane, torsion, snapshot,
    # residuals) sum in a fixed order, whatever the number of lanes
    spec = gallery.by_name(name).spec
    for n in (2, 7, 20):
        chunk = sample_points(spec.domain, n, 5)
        ctx = moebius.MoebiusContext(spec, chunk)
        cf = ideal.CanonicalFields(ctx, gauge=gauge, partial=partial)
        invs = ideal._package_invariants(cf)
        residuals = moebius.integrability_residuals(ctx)
        for k in range(n):
            where = (n, k)
            alone_ctx = moebius.MoebiusContext(spec, chunk[k])
            alone = ideal.CanonicalFields(alone_ctx, gauge=gauge,
                                          partial=partial)
            for part in ("data", "plane"):
                got, want = getattr(cf, part), getattr(alone, part)
                for f in dataclasses.fields(want):
                    assert np.array_equal(np.asarray(getattr(got, f.name))[k],
                                          getattr(want, f.name)), \
                        (where, part, f.name)
            for attr in ("torsion", "floor", "integrable"):
                assert getattr(cf, attr)[k] == getattr(alone, attr), \
                    (where, attr)
            assert cf.integrable[k] == partial, where
            assert [residuals[k]] == \
                moebius.integrability_residuals(alone_ctx), where
            got, = ideal._package_invariants(alone)
            assert all(x == y if isinstance(x, str) else
                       np.array_equal(x, y, equal_nan=True) for x, y in zip(
                           dataclasses.astuple(invs[k]),
                           dataclasses.astuple(got))), where


def test_chunks_take_the_first_point_alone_then_at_most_chunk_points():
    sizes, starts = [], []

    def analyze(chunk, start):
        sizes.append(len(chunk))
        starts.append(start)
        return chunk

    pts = list(range(45))
    assert moebius.map_chunks(analyze, pts) == pts
    assert sizes == [1, 20, 20, 4]
    assert starts == [0, 1, 21, 41]


def _failing_at_3_and_5(error, calls):
    def analyze(chunk, start):
        calls.append((list(chunk), start))
        if 3 in chunk or 5 in chunk:
            raise error(f"point {min(p for p in chunk if p in (3, 5))}")
        return chunk
    return analyze


def test_a_failing_chunk_runs_again_point_by_point():
    calls = []
    with pytest.raises(WintgenError, match="point 3"):
        moebius.map_chunks(_failing_at_3_and_5(WintgenError, calls),
                           list("abc") + list(range(3, 8)))
    assert calls == [(["a"], 0), (["b", "c", 3, 4, 5, 6, 7], 1), (["b"], 1),
                     (["c"], 2), ([3], 3)]


def test_a_fault_in_a_chunk_propagates_without_a_rerun():
    # only the package's own errors are properties of a point
    calls = []
    with pytest.raises(ValueError, match="point 3"):
        moebius.map_chunks(_failing_at_3_and_5(ValueError, calls),
                           list("abc") + list(range(3, 8)))
    assert calls == [(["a"], 0), (["b", "c", 3, 4, 5, 6, 7], 1)]


# so3 with a factor sqrt(u1 - 1) / sqrt(u1 - 1): an input error (exit 2)
# where u1 < 1; and so3 with x1 bent by 0.2 (a + |a|), a = u1 - 3: not ideal
# (exit 3) where u1 > 3.  At the seeds below the first point passes and the
# first failure falls inside the second chunk (index 11 and index 3).
_SO3 = gallery.by_name("so3").expression_text
_CUT = ("x1 = (", "x1 = sqrt(u1 - 1) / sqrt(u1 - 1) * (")
_BENT = ("x1 = (", "x1 = 0.2 * (u1 - 3 + sqrt((u1 - 3)^2)) + (")

# a graph with constant components, an exact one (x5) and one built by the
# expression (u2^0): each must take the chunk's layout
CONST_GRAPH = """\
name: const-graph
ambient: euclidean
domain: u1 in [0.2,0.9]; u2 in [0.2,0.9]; u3 in [0.2,0.9]
x1 = u1
x2 = u2^0 * u2
x3 = u3
x4 = u1^2 + 2*u2^2 + 3*u3^2 + u1*u2*u3
x5 = 0
"""

# (exit code, sha256 of stdout) of `invariants --spec <file> --points n
# --seed s`, keyed (file, s, n), and of `ddvv` and `residuals`, keyed
# (command, file, s, n); the invariants and ddvv digests of cut.imm and
# bent.imm were recorded with every point analyzed alone
PINNED = {
    ("cut.imm", 0, 1): (0, "6dd2f730c52f85b3f7feba5f16039697"
                           "f892b1d55889e945624ab7139c325f13"),
    ("cut.imm", 0, 2): (0, "0e6e494aa7b9fca34dbf58f63d6ae4fa"
                           "dd831791dc624cdbd84a8320ec8ccb7b"),
    # EvalError: domain error in 'sqrt((u1 - 1.0))'
    ("cut.imm", 0, 21): (2, "19aa2b126c8fe46383becaaa399bdfb9"
                            "ba8aa9199ea1dc309b6cdef2a641941a"),
    ("cut.imm", 0, 41): (2, "19aa2b126c8fe46383becaaa399bdfb9"
                            "ba8aa9199ea1dc309b6cdef2a641941a"),
    ("bent.imm", 3, 1): (0, "cb422b2709a0b71a0b6d79c55223efe5"
                            "0b25094e0db3da62100fad0d7365a22b"),
    ("bent.imm", 3, 2): (0, "7189f5b963b4c29268972cb6f70aa53e"
                            "2ca0b6808f55fd33fdfd30bb3f35fd28"),
    # NotIdealPoint: equality gap 4.458e-02 at (5.466666703760921, ...)
    ("bent.imm", 3, 21): (3, "db1fa35e31b592541c70fc536ebeb2fa"
                             "7995b9392d5721796307b61ec96e544b"),
    ("bent.imm", 3, 41): (3, "6b21c61faf2b6956f63dff2b89b62640"
                             "8f695ce8e68dc81ce6be38aff68a3143"),
    # ddvv reads no ideality gate: only the cut chart fails
    ("ddvv", "cut.imm", 0, 1): (0, "0382df5ccd29f800006a573b2a9ecb12"
                                   "e98c71ac94c9de39c1af0ca515b7f8f0"),
    ("ddvv", "cut.imm", 0, 2): (0, "4bc7151692fd0e71bfeef53aecce155d"
                                   "e8a8a283b3b58ba6c307d74ee08cde04"),
    # EvalError: domain error in 'sqrt((u1 - 1.0))'
    ("ddvv", "cut.imm", 0, 21): (2, "4a17f30dc15dc4afe23472aef4a6bc72"
                                    "060030fe71d22cd77474355798e8c085"),
    ("ddvv", "cut.imm", 0, 41): (2, "4a17f30dc15dc4afe23472aef4a6bc72"
                                    "060030fe71d22cd77474355798e8c085"),
    ("ddvv", "bent.imm", 3, 1): (0, "b8dcc448617eab9382f703b507dd2b60"
                                    "ed31827332a98fc73c0f6177556fc599"),
    ("ddvv", "bent.imm", 3, 2): (0, "e61b7e55cea1812203ec791b41763bbd"
                                    "6ffd066e07b2b8e24f8f6d272cc5f5f7"),
    ("ddvv", "bent.imm", 3, 21): (0, "c34a4f456c13876e3c121f372cfd4b77"
                                     "bfb2a3144344bc806c8cf73338b576a1"),
    ("ddvv", "bent.imm", 3, 41): (0, "09a76a7fa073b52a3873c630474c8d32"
                                     "ba8cb186270304742eed1ed6022f2455"),
    ("ddvv", "const-graph.imm", 0, 1): (
        0, "cde91d25f11b06fa09d53ebde34488763bc1305891a1f843d4bb4b35c812b6ac"),
    ("ddvv", "const-graph.imm", 0, 2): (
        0, "433bf61f075a0e68cbb31afd1e97b8bad95912cbb98d2c8a293523a1b165db4e"),
    ("ddvv", "const-graph.imm", 0, 5): (
        0, "26b0d539f65b5fca5e44163eac81b0c6c46523eb08fea3313df10a66ab913c91"),
    ("ddvv", "const-graph.imm", 0, 21): (
        0, "949e75fd96ef04bf10f64f9a8f00424ce34c1d41fb8872485eb9571d878a7c27"),
    ("residuals", "const-graph.imm", 0, 1): (
        0, "8f31e7cc6afc0d1d8fa0eaab43b02f57004f246714c63d4278a2cdf821b05ab4"),
    ("residuals", "const-graph.imm", 0, 2): (
        0, "5a62e9a88190a9af1bd5d47fdd9ceb2bddb26c49853f665611ebe1a994ee34a4"),
    ("residuals", "const-graph.imm", 0, 5): (
        0, "f4e4b22aed6568356ad36eaa8ce56736d9fe2b99130f5f07701a97d1e08fc21d"),
    ("residuals", "const-graph.imm", 0, 21): (
        0, "314f2091def8d0e4a410917290cd49fd3db2b522b9bd3abe60d2d5445b21364f"),
}


def _pinned_run(capsys, monkeypatch, tmp_path, command, file, text, seed,
                points):
    """(exit code, sha256 of stdout) of command on a file with this text."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / file).write_text(text)
    code = cli.main([command, "--spec", file, "--points", str(points),
                     "--seed", str(seed)])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


_FAILING_FILES = pytest.mark.parametrize(
    "file, edit, seed", [("cut.imm", _CUT, 0), ("bent.imm", _BENT, 3)])
_POINTS = pytest.mark.parametrize("points", [1, 2, 21, 41])


@_FAILING_FILES
@_POINTS
def test_a_later_failure_inside_a_chunk_gives_the_one_point_document(
        capsys, monkeypatch, tmp_path, file, edit, seed, points):
    assert _pinned_run(capsys, monkeypatch, tmp_path, "invariants", file,
                       _SO3.replace(*edit), seed, points) \
        == PINNED[file, seed, points]


@_FAILING_FILES
@_POINTS
def test_ddvv_gives_the_one_point_document_across_chunks(
        capsys, monkeypatch, tmp_path, file, edit, seed, points):
    assert _pinned_run(capsys, monkeypatch, tmp_path, "ddvv", file,
                       _SO3.replace(*edit), seed, points) \
        == PINNED["ddvv", file, seed, points]


@pytest.mark.parametrize("command", ["ddvv", "residuals"])
@pytest.mark.parametrize("points", [1, 2, 5, 21])
def test_constant_components_take_the_chunks_layout(
        capsys, monkeypatch, tmp_path, command, points):
    assert _pinned_run(capsys, monkeypatch, tmp_path, command,
                       "const-graph.imm", CONST_GRAPH, 0, points) \
        == PINNED[command, "const-graph.imm", 0, points]


def test_no_multi_point_chunk_falls_back(capsys, monkeypatch, tmp_path):
    # a chunk that raises runs again point by point: the same document, but
    # a silent slowdown where every point passes alone
    sizes, raised = [], []
    run = moebius.map_chunks

    def guarded(analyze, pts):
        def analyze_chunk(chunk, start):
            sizes.append(len(chunk))
            try:
                return analyze(chunk, start)
            except Exception:
                raised.append(len(chunk))
                raise
        return run(analyze_chunk, pts)

    monkeypatch.setattr(cli, "map_chunks", guarded)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "const-graph.imm").write_text(CONST_GRAPH)
    sources = [*(["--example", e.name] for e in gallery.all_entries()),
               ["--spec", "const-graph.imm"]]
    for command in ("ddvv", "invariants", "theorem-b", "hopf-check",
                    "residuals"):
        for source in sources:
            cli.main([command, *source, "--points", "5"])
            assert max(raised, default=1) == 1, (command, source)
    capsys.readouterr()
    assert set(sizes) == {1, 4}


@pytest.mark.parametrize("name", [e.name for e in gallery.all_entries()])
def test_ddvv_records_are_the_one_point_reports(capsys, name):
    # ddvv runs its sample in chunks; each record is still the library's
    # report at its point alone, bit for bit
    entry = gallery.by_name(name)
    spec = entry.spec
    pts = sample_points(spec.domain, 20, 0)
    code = cli.main(["ddvv", "--example", name, "--points", "20"])
    doc = json.loads(capsys.readouterr().out)
    if entry.expected["umbilic"]:  # refuses at its first point
        forms = classical.fundamental_forms(spec, pts[0])
        assert classical.umbilic(forms.h, forms.H)
        assert code == 3 and "at sample point 0;" in doc["refusal"]["message"]
        return
    records = doc["records"]
    assert code == 0 and len(records) == len(pts)
    for rec, p in zip(records, pts):
        rep = classical.ddvv_report(spec, p)
        assert rec["point"] == list(p)
        assert [rec[k] for k in ("s", "H_norm2", "s_N", "slack", "ideal")] \
            == [rep.s, rep.H_norm2, rep.s_N, rep.slack, rep.ideal]


def test_a_refusal_names_its_sample_index_in_a_later_chunk(
        capsys, monkeypatch):
    # umbilic at sample point 27 (the third chunk's seventh lane), whether
    # the chunk refuses itself or reruns point by point
    spec = gallery.by_name("so3").spec
    target = tuple(sample_points(spec.domain, 41, 0)[27])
    umbilic = classical.ClassicalContext.is_umbilic

    def marked(self):  # the umbilic mask, with the target's lane set
        mask = umbilic(self)
        return mask | np.reshape([q == target for q in self.p], np.shape(mask))

    monkeypatch.setattr(classical.ClassicalContext, "is_umbilic", marked)
    chunk_alone = lambda analyze, pts: analyze(pts[21:41], 21)
    for chunks in (moebius.map_chunks, chunk_alone):
        monkeypatch.setattr(cli, "map_chunks", chunks)
        assert cli.main(["ddvv", "--example", "so3", "--points", "41"]) == 3
        refusal = json.loads(capsys.readouterr().out)["refusal"]
        assert refusal["kind"] == "UmbilicPoint"
        assert "at sample point 27;" in refusal["message"]


class _ProductCount:
    """Counts MultiJet.__mul__ and __rmul__ calls while installed."""

    def __init__(self, monkeypatch):
        self.n = 0
        for attr in ("__mul__", "__rmul__"):
            fn = getattr(jets.MultiJet, attr)
            monkeypatch.setattr(jets.MultiJet, attr, self._counted(fn))

    def _counted(self, fn):
        def wrapper(a, b):
            self.n += 1
            return fn(a, b)
        return wrapper


def test_products_grow_with_chunks_not_points(capsys, monkeypatch):
    counts = []
    for points in (1, 20):
        with monkeypatch.context() as m:
            counter = _ProductCount(m)
            assert cli.main(["invariants", "--example", "so3", "--points",
                             str(points)]) == 0
        counts.append(counter.n)
    capsys.readouterr()
    assert counts[1] <= 2.5 * counts[0], counts


def test_values_are_computed_once_per_chunk(capsys, monkeypatch):
    # 20 points run as the first point alone and one chunk of 19: one
    # kernel-plane SVD per chunk for the invariants, and one run of the
    # residual identities (five einsum calls) per chunk for the residuals
    # (20 SVDs when each point ran its own value code, and 100 einsum calls
    # when each point ran its own residuals)
    calls = {"svd": 0, "einsum": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np, "einsum", counted("einsum", np.einsum))
    assert cli.main(["invariants", "--example", "so3", "--points", "20"]) == 0
    assert calls == {"svd": 2, "einsum": 0}
    assert cli.main(["residuals", "--example", "so3", "--points", "20"]) == 0
    capsys.readouterr()
    assert calls == {"svd": 2, "einsum": 10}


def test_ddvv_evaluates_the_chart_once_per_chunk(capsys, monkeypatch):
    # 20 points run as the first point alone and one chunk of 19: two
    # order-2 chart evaluations (20 when each point built its own context)
    orders = []
    evaluate = classical.eval_immersion_jet

    def counted(spec, p, order):
        orders.append(order)
        return evaluate(spec, p, order)

    monkeypatch.setattr(classical, "eval_immersion_jet", counted)
    assert cli.main(["ddvv", "--example", "so3", "--points", "20"]) == 0
    capsys.readouterr()
    assert orders == [2, 2]
