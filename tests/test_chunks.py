"""Sample points run in chunks of jets with a lane axis: a record depends
only on its point, bit for bit, wherever the point falls in a chunk; a
failure inside a chunk gives the one-point document; and the batching shows
in the count of jet products."""

import hashlib

import pytest

from wintgen import cli, gallery, ideal, jets, moebius
from wintgen.immersion import sample_points

IDEAL_CHARTS = ["so3", "veronese-hopf", "hopf-generic"]


@pytest.mark.parametrize("name", IDEAL_CHARTS)
def test_a_record_depends_only_on_its_point(name):
    spec = gallery.by_name(name).spec
    chunk = sample_points(spec.domain, moebius.CHUNK_POINTS, 5)
    cf = ideal.CanonicalFields(moebius.MoebiusContext(spec, chunk))
    batched = [ideal._package_invariants(lane) for lane in cf.lanes]
    residuals = [moebius.integrability_residuals(lane)
                 for lane in moebius.MoebiusContext(spec, chunk).lanes]
    for k in (0, 7, len(chunk) - 1):
        alone = moebius.MoebiusContext(spec, chunk[k])
        assert batched[k] == ideal.invariants_uvlg(alone), k
        assert residuals[k] == moebius.integrability_residuals(alone), k


def test_chunks_take_the_first_point_alone_then_at_most_chunk_points():
    sizes = []

    def analyze(chunk):
        sizes.append(len(chunk))
        return chunk

    pts = list(range(45))
    assert moebius.map_chunks(analyze, pts) == pts
    assert sizes == [1, 20, 20, 4]


def test_a_failing_chunk_runs_again_point_by_point():
    calls = []

    def analyze(chunk):
        calls.append(list(chunk))
        if 3 in chunk or 5 in chunk:
            raise ValueError(f"point {min(p for p in chunk if p in (3, 5))}")
        return chunk

    with pytest.raises(ValueError, match="point 3"):
        moebius.map_chunks(analyze, list(range(8)))
    assert calls == [[0], [1, 2, 3, 4, 5, 6, 7], [1], [2], [3]]


# so3 with a factor sqrt(u1 - 1) / sqrt(u1 - 1): an input error (exit 2)
# where u1 < 1; and so3 with x1 bent by 0.2 (a + |a|), a = u1 - 3: not ideal
# (exit 3) where u1 > 3.  At the seeds below the first point passes and the
# first failure falls inside the second chunk (index 11 and index 3).
_CUT = ("x1 = (", "x1 = sqrt(u1 - 1) / sqrt(u1 - 1) * (")
_BENT = ("x1 = (", "x1 = 0.2 * (u1 - 3 + sqrt((u1 - 3)^2)) + (")

# (exit code, sha256 of stdout) of `invariants --spec <file> --points n
# --seed s`, recorded with every point analyzed alone
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
}


@pytest.mark.parametrize("file, edit, seed", [("cut.imm", _CUT, 0),
                                              ("bent.imm", _BENT, 3)])
@pytest.mark.parametrize("points", [1, 2, 21, 41])
def test_a_later_failure_inside_a_chunk_gives_the_one_point_document(
        capsys, monkeypatch, tmp_path, file, edit, seed, points):
    monkeypatch.chdir(tmp_path)
    (tmp_path / file).write_text(
        gallery.by_name("so3").expression_text.replace(*edit))
    code = cli.main(["invariants", "--spec", file, "--points", str(points),
                     "--seed", str(seed)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    want_code, want_digest = PINNED[file, seed, points]
    assert (code, digest) == (want_code, want_digest)


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
