"""Sample points run in chunks of jets with a lane axis, and the values
read after the gates are computed once per chunk with a lane axis: a record
depends only on its point, bit for bit, wherever the point falls in a chunk
and whatever the chunk's size; a failure inside a chunk gives the one-point
document; and the batching shows in the counts of jet products, SVDs,
einsum calls and chart evaluations."""

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest

from wintgen import (classical, cli, gallery, ideal, immersion, jetalg, jets,
                     moebius)
from wintgen.errors import (EvalError, IntegrableDistribution, OrderError,
                            Refusal, WintgenError)
from wintgen.immersion import sample_points

from _shared import JetOps

IDEAL_CHARTS = ["so3", "veronese-hopf", "hopf-generic"]
# the contracted value fields of a MoebiusContext
VALUE_FIELDS = ["riemann_values", "omega_values", "covB_values",
                "covC_values", "covA_values"]


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
    # the values after the gates (value fields, kernel plane, torsion,
    # snapshot, residuals) contract by np.einsum or stacked np.matmul over
    # the lane axis; numpy's loop order, not the code, keeps each lane's
    # sums those of its point alone, so every entry is compared bit for bit
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
            for value_field in VALUE_FIELDS:  # bits, so the sign of 0 too
                got = getattr(ctx, value_field)[k]
                want = getattr(alone_ctx, value_field)
                assert got.shape == want.shape \
                    and got.tobytes() == want.tobytes(), (where, value_field)
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


def test_chunks_probe_the_first_point_then_run_chunk_points_from_it():
    probed, sizes, starts = [], [], []

    def analyze(chunk, start):
        sizes.append(len(chunk))
        starts.append(start)
        return chunk

    pts = list(range(45))
    assert moebius.map_chunks(analyze, pts, probed.append) == pts
    assert probed == [0]
    assert sizes == [20, 20, 5]
    assert starts == [0, 20, 40]


def test_a_refusing_probe_runs_no_chunk_and_an_empty_sample_no_probe():
    calls = []

    def refuse(p):
        raise WintgenError(f"point {p}")

    with pytest.raises(WintgenError, match="point 0"):
        moebius.map_chunks(lambda chunk, start: calls.append(start), [0, 1],
                           refuse)
    assert calls == []
    assert moebius.map_chunks(None, [], refuse) == []


def _failing_at_3_and_5(error, calls):
    def analyze(chunk, start):
        calls.append((list(chunk), start))
        failing = [p for p in chunk if p in (3, 5)]
        if failing:
            exc = error(f"point {failing[0]}")
            exc.lane = chunk.index(failing[0])
            raise exc
        return chunk
    return analyze


def _passing_probe(p):
    return None


def test_a_failing_chunk_reruns_the_points_before_its_lane():
    # the error names lane 3: the points before it run again as one chunk,
    # then point 3 runs the probe and the error propagates
    calls, probed = [], []
    with pytest.raises(WintgenError, match="point 3"):
        moebius.map_chunks(_failing_at_3_and_5(WintgenError, calls),
                           list("abc") + list(range(3, 8)), probed.append)
    assert calls == [(["a", "b", "c", 3, 4, 5, 6, 7], 0),
                     (["a", "b", "c"], 0)]
    assert probed == ["a", 3]


def test_a_lane_less_error_is_the_first_points():
    # an error that every point raises (of the chart or of the request)
    # names no lane: point 0 runs the probe and the error propagates, with
    # no rerun
    calls, probed = [], []

    def analyze(chunk, start):
        calls.append(list(chunk))
        raise EvalError("every point fails")

    with pytest.raises(EvalError, match="every point fails"):
        moebius.map_chunks(analyze, list(range(6)), probed.append)
    assert calls == [list(range(6))]
    assert probed == [0, 0]


def test_an_earlier_point_that_fails_at_a_later_step_comes_first():
    # the chunk raises at its first step, at point 5; point 2 passes that
    # step and fails at the next: the rerun prefix (points 0 to 4) reports
    # point 2, after its own prefix (points 0 and 1) passes
    calls, probed = [], []

    def analyze(chunk, start):
        calls.append(list(chunk))
        for step, bad in (("first", 5), ("second", 2)):
            if bad in chunk:
                raise Refusal(f"{step} step fails at point {bad}",
                              lane=chunk.index(bad))
        return chunk

    with pytest.raises(Refusal, match="second step fails at point 2"):
        moebius.map_chunks(analyze, list(range(8)), probed.append)
    assert calls == [list(range(8)), list(range(5)), [0, 1]]
    assert probed == [0, 2]


def test_a_failing_point_reports_its_probes_refusal_as_a_sample_of_one():
    # the probe refuses point 3, and any chunk holding 3 fails another way:
    # point 3 reports the probe's refusal wherever it sits in the sample
    def probe(p):
        if p == 3:
            raise Refusal("the probe refuses point 3")

    def analyze(chunk, start):
        if 3 in chunk:
            raise EvalError("the chunk fails at point 3",
                            lane=chunk.index(3))
        return chunk

    for pts in (list(range(6)), [3]):
        with pytest.raises(Refusal, match="probe refuses point 3"):
            moebius.map_chunks(analyze, pts, probe)
    assert moebius.map_chunks(analyze, [0, 1, 2], probe) == [0, 1, 2]


def test_a_fault_in_a_chunk_propagates_without_a_rerun():
    # only the package's own errors are properties of a point
    calls = []
    with pytest.raises(ValueError, match="point 3"):
        moebius.map_chunks(_failing_at_3_and_5(ValueError, calls),
                           list("abc") + list(range(3, 8)), _passing_probe)
    assert calls == [(["a", "b", "c", 3, 4, 5, 6, 7], 0)]


# so3 with a factor sqrt(u1 - 1) / sqrt(u1 - 1): an input error (exit 2)
# where u1 < 1; and so3 with x1 bent by 0.2 (a + |a|), a = u1 - 3: off the
# sphere, so not immersed in it (exit 3), where u1 > 3.  At the seeds below
# point 0 passes its probe and the first failure falls inside the first
# chunk of 20 points (index 11 and index 3).  so3 with (x1, x2) turned by the
# angle 0.2 (a + |a|) stays on the sphere, and is not ideal where u1 > 3
# (index 3 again).
_SO3 = gallery.by_name("so3").expression_text
_CUT = ("x1 = (", "x1 = sqrt(u1 - 1) / sqrt(u1 - 1) * (")
_BENT = ("x1 = (", "x1 = 0.2 * (u1 - 3 + sqrt((u1 - 3)^2)) + (")
_X1, _X2 = (line.split(" = ", 1)[1] for line in _SO3.splitlines()
            if line.startswith(("x1 =", "x2 =")))
_ANGLE = "0.2 * (u1 - 3 + sqrt((u1 - 3)^2))"
_TURNED = (f"x1 = {_X1}\nx2 = {_X2}",
           f"x1 = cos({_ANGLE}) * {_X1} - sin({_ANGLE}) * {_X2}\n"
           f"x2 = sin({_ANGLE}) * {_X1} + cos({_ANGLE}) * {_X2}")

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
    # NotImmersed: chart leaves the ambient model at (5.466666703760921, ...)
    ("bent.imm", 3, 21): (3, "5c49a1ca060a6a78a9285df5055b8233"
                             "41a5fe1b8cc2ac1ac7302badd3967f34"),
    ("bent.imm", 3, 41): (3, "f199a6c5fdf68e8b52b907fd45b7690a"
                             "440833dd02ac8711c291d7e1f75110dd"),
    ("turned.imm", 3, 1): (0, "620b14fc8308ac0ab27e7e85253b8314"
                              "99b7c44688de4ce0001ea38b9a4fb1f0"),
    ("turned.imm", 3, 2): (0, "51c245e3d9a0a95d90dbb64011f93954"
                              "ea0af9a40607dbee7e6baa785465eba1"),
    # NotIdealPoint: equality gap 4.327e-02 at (5.466666703760921, ...)
    ("turned.imm", 3, 21): (3, "09b68f16bc5dc9e6b5c012ef274275b3"
                               "d81cc559ae509a8dc6c9be2828b57125"),
    ("turned.imm", 3, 41): (3, "c7a20b85e0cae8141065f2d32f01f36d"
                               "e4984b6caab6b28bdc575dd0f578486d"),
    # ddvv reads no ideality gate: the turned chart passes
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
    ("ddvv", "bent.imm", 3, 21): (3, "bb9987ddcec103720c2547161920fca3"
                                     "c47099abd5e8942e68e7f9105acd0f76"),
    ("ddvv", "bent.imm", 3, 41): (3, "fdb2b803716a63a45e33944ee49403b3"
                                     "c14a8fd144343cb12f87adbeb68e5953"),
    ("ddvv", "turned.imm", 3, 1): (0, "aae4851d951b79880396cf7613f75e73"
                                      "e0dcbaa4ee0900986bbe50206f517fa0"),
    ("ddvv", "turned.imm", 3, 2): (0, "46347a18c1513ebcccb179c49a8fd841"
                                      "cee5c2a863091f9520394d2c6c069154"),
    ("ddvv", "turned.imm", 3, 21): (0, "589f87f93e4932ebdb8bba00751582c5"
                                       "7218cd5dd77d9b9d1f39c5e52cdb6c26"),
    ("ddvv", "turned.imm", 3, 41): (0, "d4c9b3b54ba0841bad9412c6653c8621"
                                       "cfacdcf65fba0db2297dc67726624d5b"),
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
    "file, edit, seed", [("cut.imm", _CUT, 0), ("bent.imm", _BENT, 3),
                         ("turned.imm", _TURNED, 3)])
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


# so3 on u1 in [2.0, 3.14], with 1e-300 exp(10000 (u1 - 3)) added to x1:
# near u1 = 3.07 x1 leaves the sphere by about 1e-6, which the probe's
# order-3 gates refuse, while the order-5 jet of exp overflows, an input
# error; at seed 100 the first such point is sample point 16
BLOWUP = _SO3.replace("u1 in [0.05,6.2]", "u1 in [2.0,3.14]").replace(
    "x1 = (", "x1 = 1e-300 * exp(10000 * (u1 - 3.0)) + (")


@pytest.mark.parametrize("command", ["invariants", "residuals"])
def test_a_point_inside_a_chunk_gives_its_one_point_refusal(
        capsys, monkeypatch, tmp_path, command):
    spec = immersion.parse_immersion(BLOWUP)
    p = sample_points(spec.domain, 20, 100)[16]
    with pytest.raises(EvalError, match="not finite"):
        immersion.eval_immersion_jet(spec, [p], moebius.JET_ORDER)
    with pytest.raises(Refusal) as alone:
        ideal.sample_invariants(spec, [p])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blowup.imm").write_text(BLOWUP)
    code = cli.main([command, "--spec", "blowup.imm", "--points", "20",
                     "--seed", "100"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["refusal"] == {"kind": type(alone.value).__name__,
                              "message": str(alone.value)}


@pytest.mark.parametrize("command", ["ddvv", "residuals"])
@pytest.mark.parametrize("points", [1, 2, 5, 21])
def test_constant_components_take_the_chunks_layout(
        capsys, monkeypatch, tmp_path, command, points):
    assert _pinned_run(capsys, monkeypatch, tmp_path, command,
                       "const-graph.imm", CONST_GRAPH, 0, points) \
        == PINNED[command, "const-graph.imm", 0, points]


def test_no_multi_point_chunk_falls_back(capsys, monkeypatch, tmp_path):
    # a chunk that raises reruns the points before the lane its error
    # names; an error that no point raises alone would misreport the
    # sample, so a chunk of several points raises only in a call that ends
    # refused or failed
    sizes, raised = [], []
    run = moebius.map_chunks

    def guarded(analyze, pts, probe=None):
        def analyze_chunk(chunk, start):
            sizes.append(len(chunk))
            try:
                return analyze(chunk, start)
            except Exception:
                raised.append(len(chunk))
                raise
        return run(analyze_chunk, pts, probe)

    monkeypatch.setattr(cli, "map_chunks", guarded)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "const-graph.imm").write_text(CONST_GRAPH)
    sources = [*(["--example", e.name] for e in gallery.all_entries()),
               ["--spec", "const-graph.imm"]]
    for command in ("ddvv", "invariants", "theorem-b", "hopf-check",
                    "residuals"):
        for source in sources:
            sizes.clear()
            raised.clear()
            code = cli.main([command, *source, "--points", "5"])
            if code == 0:
                assert raised == [] and sizes == [5], (command, source)
            else:  # refused at point 0: by the probe, or by ddvv's chunk
                assert set(sizes) <= {5, 1}, (command, source)
    capsys.readouterr()


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
    # umbilic at sample point 27 (the second chunk's eighth lane), whether
    # the chunk runs alone or after the first
    spec = gallery.by_name("so3").spec
    target = tuple(sample_points(spec.domain, 41, 0)[27])
    umbilic = classical.ClassicalContext.is_umbilic

    def marked(self):  # the umbilic mask, with the target's lane set
        mask = umbilic(self)
        return mask | np.reshape([q == target for q in self.p], np.shape(mask))

    monkeypatch.setattr(classical.ClassicalContext, "is_umbilic", marked)
    chunk_alone = lambda analyze, pts, probe=None: analyze(pts[20:40], 20)
    for chunks in (moebius.map_chunks, chunk_alone):
        monkeypatch.setattr(cli, "map_chunks", chunks)
        assert cli.main(["ddvv", "--example", "so3", "--points", "41"]) == 3
        refusal = json.loads(capsys.readouterr().out)["refusal"]
        assert refusal["kind"] == "UmbilicPoint"
        assert "at sample point 27;" in refusal["message"]


def test_products_grow_with_chunks_not_points(capsys, monkeypatch):
    counts = []
    for points in (1, 20):
        with monkeypatch.context() as m:
            counter = JetOps(m)
            assert cli.main(["invariants", "--example", "so3", "--points",
                             str(points)]) == 0
        counts.append(counter.total("product", "scalar"))
    capsys.readouterr()
    assert counts[1] <= 2.5 * counts[0], counts


@pytest.mark.parametrize("argv", [
    "invariants --example so3 --points 20",
    "residuals --example hopf-generic --points 2"])
def test_jets_run_at_the_order_their_readers_use(capsys, monkeypatch, argv):
    # x at K = 5 for the Blaschke tensor, but the metric, the frames and the
    # normals at K - 2 and the inverse metric and the adapted frame at K - 3:
    # no product past the chart evaluation runs at order 4 or 5
    counter = JetOps(monkeypatch)
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    products = functools.partial(counter.total, "product", "scalar",
                                 "stacked")
    assert products(order=5, in_chart=True) > 0, counter.counts
    assert products(order=4) == 0, counter.counts
    assert products(order=5, in_chart=False) == 0, counter.counts


def test_values_are_computed_once_per_chunk(capsys, monkeypatch):
    # 2 and 20 points both run as point 0's probe plus one chunk, so the
    # value code (kernel-plane SVDs, the einsum contractions of the value
    # fields and of the residual identities) runs as often at 20 points as
    # at 2; each point running its own value code would scale with points
    def counts(command, points):
        calls = {"svd": 0, "einsum": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
            m.setattr(np, "einsum", counted("einsum", np.einsum))
            assert cli.main([command, "--example", "so3", "--points",
                             str(points)]) == 0
        return calls

    for command in ("invariants", "residuals"):
        at_2 = counts(command, 2)
        assert at_2["einsum"] > 0, command
        assert counts(command, 20) == at_2, command
    capsys.readouterr()


def _chart_evaluations(monkeypatch):
    """(order, lane count) of each chart evaluation that classical makes."""
    evaluations = []
    evaluate = classical.eval_immersion_jet

    def counted(spec, p, order):
        evaluations.append((order, len(jets.points(p))))
        return evaluate(spec, p, order)

    monkeypatch.setattr(classical, "eval_immersion_jet", counted)
    return evaluations


def test_ddvv_evaluates_the_chart_once_per_chunk(capsys, monkeypatch):
    # 20 points: one chunk of 20 at order 2, with no probe (20 evaluations
    # when each point built its own context)
    evaluations = _chart_evaluations(monkeypatch)
    assert cli.main(["ddvv", "--example", "so3", "--points", "20"]) == 0
    capsys.readouterr()
    assert evaluations == [(2, 20)]


@pytest.mark.parametrize("command, name", [
    ("invariants", "cone-veronese"), ("invariants", "umbilic-control"),
    ("invariants", "generic-control")])  # ddvv has no probe
def test_a_refusal_at_point_0_evaluates_one_low_order_lane(
        capsys, monkeypatch, command, name):
    evaluations = _chart_evaluations(monkeypatch)
    assert cli.main([command, "--example", name, "--points", "20"]) == 3
    capsys.readouterr()
    assert len(evaluations) == 1
    order, lanes = evaluations[0]
    assert lanes == 1 and order <= 3, evaluations


def test_a_refusal_at_a_chunks_first_lane_is_not_rerun(capsys, monkeypatch):
    # the umbilic gate refuses at lane 0, which is what point 0 alone
    # refuses: the chunk of 20 is the only context built
    evaluations = _chart_evaluations(monkeypatch)
    assert cli.main(["ddvv", "--example", "umbilic-control", "--points",
                     "20"]) == 3
    refusal = json.loads(capsys.readouterr().out)["refusal"]
    assert "at sample point 0;" in refusal["message"]
    assert evaluations == [(2, 20)]


# the turned chart on u1 in [0.05, 3.3]: at seed 28 the first point that is
# not ideal is the last of 20, sample point 19; (exit code, sha256 of
# stdout) of `invariants --points 20 --seed 28`, recorded while a failing
# chunk reran every point up to it alone
TURNED_LATE = _SO3.replace(*_TURNED).replace("u1 in [0.05,6.2]",
                                             "u1 in [0.05,3.3]")
TURNED_LATE_PINNED = (3, "ba28192d93cdc80a1c2625962f2e794a"
                         "f717545091ab93b4a534c657c7e1fc65")


def test_a_late_failure_reruns_one_prefix_chunk(capsys, monkeypatch,
                                                tmp_path):
    sizes = []
    analyze = cli._analyze
    monkeypatch.setattr(cli, "_analyze", lambda spec, chunk, args: (
        sizes.append(len(chunk)) or analyze(spec, chunk, args)))
    assert _pinned_run(capsys, monkeypatch, tmp_path, "invariants",
                       "turned.imm", TURNED_LATE, 28, 20) \
        == TURNED_LATE_PINNED
    assert sizes == [20, 19]


def _bits(inv):
    """The floats of a WintgenInvariants record, as int64 bit patterns."""
    return np.array([x for v in dataclasses.astuple(inv)
                     if not isinstance(v, str)
                     for x in (v if isinstance(v, tuple) else (v,))],
                    dtype=float).view(np.int64)


def test_the_v0_gauge_turns_each_lane_as_its_point_alone(monkeypatch):
    # C read as zero at the target point makes its lane already reduced
    # (U = V = 0), while the other lanes of the chunk turn: the reduced
    # lane keeps its rows, each lane as its point alone, bit for bit
    spec = gallery.by_name("hopf-generic").spec
    contract = ideal.CanonicalFields._contract_c
    for target in (0, 1):
        pts = sample_points(spec.domain, 2, 0)

        def zero_at_target(self, r, i):
            mask = [0.0 if q == tuple(pts[target]) else 1.0
                    for q in self.ctx.p]
            return contract(self, r, i) * (
                np.array(mask) if len(mask) > 1 else mask[0])

        monkeypatch.setattr(ideal.CanonicalFields, "_contract_c",
                            zero_at_target)
        cf = ideal.CanonicalFields(moebius.MoebiusContext(spec, pts),
                                   gauge="V0")
        invs = ideal._package_invariants(cf)
        assert invs[target].U == invs[target].V == 0.0
        assert invs[1 - target].U > 0.05
        for k, p in enumerate(pts):
            alone = ideal.CanonicalFields(moebius.MoebiusContext(spec, p),
                                          gauge="V0")
            assert np.array_equal(_bits(invs[k]),
                                  _bits(ideal._package_invariants(alone)[0]))
            assert cf.Rfv[k].tobytes() == alone.Rfv.tobytes(), (target, k)


@pytest.mark.parametrize("argv, calls", [
    ("invariants --example so3 --points 20", 2),
    ("invariants --example cone-veronese --points 20", 1),
    ("residuals --example hopf-generic --points 2", 2)])
def test_the_umbilic_gate_is_decided_once_per_context(capsys, monkeypatch,
                                                      argv, calls):
    # one probe context and one chunk context, or the probe's alone where
    # it refuses
    count = []
    umbilic = classical.umbilic
    monkeypatch.setattr(classical, "umbilic",
                        lambda *a: count.append(1) or umbilic(*a))
    cli.main(argv.split())
    capsys.readouterr()
    assert len(count) == calls


@pytest.mark.parametrize("name", ["so3", "cone-veronese"])
def test_the_probe_makes_no_order_0_product(monkeypatch, name):
    # the probe reads only the values of Gamma, so its order-3 context
    # builds them from the values and first partials of g, equal to the
    # values of the jets at order 5 bit for bit; Gamma itself stays a jet
    # field, with no first partials at order 3
    spec = gallery.by_name(name).spec
    p = sample_points(spec.domain, 1, 0)[0]
    with monkeypatch.context() as m:
        counter = JetOps(m)
        try:
            ideal.probe_frame(spec, p)
        except IntegrableDistribution:
            assert name == "cone-veronese"
    assert counter.total("product", "scalar", "stacked", order=0) == 0, \
        counter.counts
    assert counter.total("product", order=1) > 0
    for pts in (p, sample_points(spec.domain, 3, 0)):
        low, full = (moebius.MoebiusContext(spec, pts, order=k)
                     for k in (ideal.GATE_ORDER, moebius.JET_ORDER))
        assert np.array_equal(low.Gamma_values.view(np.int64),
                              full.Gamma_values.view(np.int64))
        with pytest.raises(OrderError):
            low.riemann_values


@pytest.mark.parametrize("command, probe_order", [
    ("invariants", 3), ("theorem-b", 3), ("hopf-check", 3), ("residuals", 2)])
def test_a_passing_sample_builds_one_order_5_chunk(
        capsys, monkeypatch, command, probe_order):
    evaluations = _chart_evaluations(monkeypatch)
    assert cli.main([command, "--example", "so3", "--points", "20"]) == 0
    capsys.readouterr()
    assert evaluations == [(probe_order, 1), (moebius.JET_ORDER, 20)]


# the gallery charts whose forms the probe reads at point 0 (umbilic-control
# refuses there on the point pass, before any of these values)
PROBED_CHARTS = ["so3", "veronese-hopf", "hopf-generic", "cone-veronese",
                 "generic-control"]
GATE_VALUES = ("B_values", "covB_values", "covB_terms", "theta12_values",
               "omega_values", "EC_values", "Gamma_values")


@pytest.mark.parametrize("name", PROBED_CHARTS)
def test_gate_values_at_order_3_equal_order_5_bit_for_bit(name):
    # a jet product's low coefficients sum the same pairs in the same order
    # at any order, so the probe's order-3 context decides as order 5 would
    spec = gallery.by_name(name).spec
    for seed in range(4):
        chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, seed)
        for p in (chunk, chunk[0], chunk[13]):  # 20 lanes, and one
            where = (seed, len(jets.points(p)))
            low, full = (moebius.MoebiusContext(spec, p, order=k)
                         for k in (ideal.GATE_ORDER, moebius.JET_ORDER))
            for attr in GATE_VALUES:
                got, want = getattr(low, attr), getattr(full, attr)
                if attr == "covB_terms":
                    got, want = np.stack(got), np.stack(want)
                assert np.array_equal(got, want), (where, attr)
            if name == "generic-control":
                continue  # not ideal: the frame gates refuse at once
            partial = name == "cone-veronese"  # integrable: no refusal
            got, want = (list(map(_gate_values, ideal.frame_gates(
                ctx, partial=partial))) for ctx in (low, full))
            for k, (x, y) in enumerate(zip(got, want)):
                assert all(map(np.array_equal, x, y)), (where, k)


_JET_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                   "__pow__")


@pytest.mark.parametrize("name", ["so3", "hopf-generic"])
def test_frame_gates_make_no_jet_arithmetic(monkeypatch, name):
    # the gates read values: once the point pass, B and covB are built,
    # deciding them makes no jet operation
    spec = gallery.by_name(name).spec
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 0)
    for p in (chunk, chunk[0]):
        ctx = moebius.MoebiusContext(spec, p, order=ideal.GATE_ORDER)
        for attr in ("B", "covB_values", "covB_terms"):
            getattr(ctx, attr)
        ctx.classical.point
        ops = []
        with monkeypatch.context() as m:
            for attr in _JET_ARITHMETIC:
                fn = getattr(jets.MultiJet, attr)
                m.setattr(jets.MultiJet, attr,
                          lambda *a, _fn=fn, _k=attr: ops.append(_k)
                          or _fn(*a))
            for attr in ("derivative", "jet_elementary"):
                fn = getattr(jets, attr)
                m.setattr(jets, attr, lambda *a, _fn=fn, _k=attr:
                          ops.append(_k) or _fn(*a))
            ideal.frame_gates(ctx)
        assert ops == [], (len(jets.points(p)), len(ops))


def test_the_turned_frame_is_built_once_per_chunk_and_never_in_the_probe(
        capsys, monkeypatch):
    calls, in_probe = [], []
    turned, probe = ideal.turned_frame, cli.probe_frame

    def counted_probe(*args, **kwargs):
        before = len(calls)
        probe(*args, **kwargs)
        in_probe.append(len(calls) - before)

    monkeypatch.setattr(ideal, "turned_frame",
                        lambda *a: calls.append(1) or turned(*a))
    monkeypatch.setattr(cli, "probe_frame", counted_probe)
    assert cli.main(["invariants", "--example", "so3", "--points", "20"]) == 0
    capsys.readouterr()
    assert in_probe == [0]
    assert len(calls) == 1


def _gate_values(out):
    """The values of one output of ideal.frame_gates, as a list of arrays:
    a kernel plane's fields, the values of jets, or the array itself."""
    if dataclasses.is_dataclass(out):
        return [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, (list, jets.MultiJet)):
        return [jetalg.value_array(out)]
    return [out]


# x4 = 1e-70 sin(1e70 u1) has finite jets up to order 4, but its order-5
# coefficient overflows, and its second partial of 1e70 makes no point ideal
FAST_WAVE = """\
name: fast-wave
ambient: euclidean
domain: u1 in [0.2,0.9]; u2 in [0.2,0.9]; u3 in [0.2,0.9]
x1 = u1
x2 = u2
x3 = u3
x4 = 1e-70 * sin(1e70 * u1)
x5 = u1 * u2
"""


def test_a_probe_refusal_comes_before_an_order_5_evaluation_error(
        capsys, monkeypatch, tmp_path):
    # the one place the probe changes a document: point 0 refuses on its
    # order-3 gates, where evaluating it alone at order 5 (as the analysis
    # does) raises EvalError first; residuals' probe passes, so its chunk
    # still raises EvalError, at point 0
    spec = immersion.parse_immersion(FAST_WAVE)
    p0 = sample_points(spec.domain, 3, 0)[0]
    immersion.eval_immersion_jet(spec, p0, ideal.GATE_ORDER)
    with pytest.raises(EvalError, match="component x4 is not finite"):
        immersion.eval_immersion_jet(spec, p0, moebius.JET_ORDER)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wave.imm").write_text(FAST_WAVE)
    for command, code, kind in (("invariants", 3, "NotIdealPoint"),
                                ("residuals", 2, "EvalError")):
        assert cli.main([command, "--spec", "wave.imm", "--points", "3"]) \
            == code
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("refusal", doc.get("error"))["kind"] == kind, command
