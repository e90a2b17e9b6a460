import io
import zipfile
from fractions import Fraction

import numpy as np
import pytest

from intentrec import store
from intentrec.artifacts import TrainedModel
from intentrec.navgraph import NavGraph, NodeAttrs, detect_targets
from intentrec.ranksvm import IntentWeights, RankModel
from intentrec.recommender import Clustering


def _fraction_fma_dot(x, y) -> float:
    """The FMA chain in exact arithmetic, each step rounded once by float()
    (whose zero is +0.0: the vectors here have no zero product)."""
    s = 0.0
    for a, b in zip(x, y, strict=True):
        s = float(Fraction(a) * Fraction(b) + Fraction(s))
    return s


def _vectors(rng, n):
    """A pair of n-vectors whose entries span several magnitudes and signs,
    so that the sums cancel and round often."""
    scale = 10.0 ** rng.integers(-4, 5, size=(2, n))
    x, y = rng.normal(size=(2, n)) * scale
    return x, y


class TestFmaDot:
    def test_equals_the_correctly_rounded_fma_chain(self):
        rng = np.random.default_rng(21)
        for _ in range(3000):
            x, y = _vectors(rng, int(rng.integers(1, 16)))
            got = store.fma_dot(x.tolist(), y.tolist())
            assert got.hex() == _fraction_fma_dot(x.tolist(), y.tolist()).hex(), (x, y)

    def test_equals_numpy_dot_bitwise_for_short_vectors(self):
        rng = np.random.default_rng(22)
        for n in range(1, 16):
            for _ in range(400):
                x, y = _vectors(rng, n)
                assert store.fma_dot(x.tolist(), y.tolist()).hex() == float(np.dot(x, y)).hex()
            for zero in (np.zeros(n), -np.zeros(n)):
                for v in (x, y, -y):
                    got = store.fma_dot(zero.tolist(), v.tolist())
                    assert got.hex() == float(np.dot(zero, v)).hex(), (zero, v)

    def test_unequal_lengths_never_truncate(self):
        with pytest.raises(ValueError):
            store.fma_dot([1.0, 2.0], [1.0])


def _model(rng, rank):
    """One user on a graph with targets t1, t2 and t3; rank weights for t1
    and t3 (and for the non-target x), of norm up to 10 so the clamp binds."""
    g = NavGraph(user_id="u")
    for n in ("a", "t1", "t2", "t3", "x"):
        g.nodes[n] = NodeAttrs()
    for v in ("t1", "t2", "t3"):
        g.edges[("a", v)] = 1.0 / 3.0
    detect_targets(g)
    weights = {
        t: IntentWeights(w=rng.normal(size=rank) * rng.uniform(0.1, 10.0)) for t in ("t3", "x", "t1")
    }
    model = TrainedModel(
        graphs={"u": g},
        clustering=Clustering({}, {}),
        rank_models={"u": RankModel(weights)},
        serving={},
    )
    return model, model.rank_models["u"].to_json()


def test_intent_fields_are_those_rank_model_writes():
    # the fields `read_model` requires of each rankmodel.json intent
    doc = RankModel({"I": IntentWeights(w=np.zeros(2))}).to_json()
    assert doc.keys() == {"lambda", "intents"}
    assert doc["intents"]["I"].keys() == store._INTENT_KEYS


class TestIntentScores:
    @pytest.mark.parametrize("rank", [1, 3, 5, 15])
    def test_pure_python_scores_are_the_numpy_scores_bitwise(self, rank):
        rng = np.random.default_rng(rank)
        model, doc = _model(rng, rank)
        targets = model.graphs["u"].targets()
        F = rng.normal(size=(300, rank)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        F[0] = 0.0
        F[1] = -0.0
        clamped = 0
        for f in F:
            expected = model.intent_scores("u", f)
            got = store.intent_scores(targets, doc, f.tolist())
            assert list(got) == list(expected) == ["t1", "t3"]
            assert [s.hex() for s in got.values()] == [s.hex() for s in expected.values()], f
            clamped += sum(s in (0.0, 1.0) for s in got.values())
        assert clamped > 10 or rank == 1  # one weight each: |w| decides alone

    def test_user_without_rank_model_scores_nothing(self):
        assert store.intent_scores(("t1",), None, [1.0, 2.0]) == {}


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


class TestReadNpz:
    def test_reads_each_array_as_numpy_wrote_it(self, tmp_path):
        arrays = {
            "a": np.arange(12.0).reshape(3, 4), "b": np.int32(7), "c": np.empty((0, 2)),
            "d": np.arange(5, dtype=np.uint8),
        }
        data = _npz(**arrays)
        dtypes = {name: a.dtype.str for name, a in arrays.items()}
        got = store.read_npz(tmp_path / "kalman.npz", {"a": 3, "b": None, "c": 0, "d": 5}, data, dtypes)
        for name, a in arrays.items():
            assert got[name].shape == a.shape and got[name].descr == a.dtype.str
            assert bytes(got[name].data) == a.tobytes()

    @pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
    def test_reads_every_npy_format_version(self, tmp_path, version):
        a = np.arange(6.0).reshape(2, 3)
        member = io.BytesIO()
        np.lib.format.write_array(member, a, version=version)
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as z:
            z.writestr("a.npy", member.getvalue())
        got = store.read_npz(tmp_path / "kalman.npz", {"a": 2}, buf.getvalue())["a"]
        assert got.shape == (2, 3) and bytes(got.data) == a.tobytes()

    @pytest.mark.parametrize("array,what", [
        (np.array([1.0, None], dtype=object), "pickled"),
        (np.zeros(2, dtype=[("x", "<f8")]), "pickled objects or records"),
        (np.asfortranarray(np.arange(6.0).reshape(2, 3)), "Fortran-order"),
        (np.arange(2, dtype=np.float32), "dtype <f4"),
        (np.arange(2, dtype=">f8"), "dtype >f8"),
    ], ids=["object", "structured", "fortran", "float32", "big-endian"])
    def test_refuses(self, tmp_path, array, what):
        with pytest.raises(store.StaleArtifact, match=what) as info:
            store.read_npz(tmp_path / "kalman.npz", {"a": None}, _npz(a=array))
        assert "re-run `intentrec kalman`" in str(info.value)

    def test_refuses_a_wrong_row_count_and_a_short_member(self, tmp_path):
        data = _npz(a=np.zeros((3, 2)))
        with pytest.raises(store.StaleArtifact, match=r"not the 4 rows"):
            store.read_npz(tmp_path / "kalman.npz", {"a": 4}, data)
        member = io.BytesIO()
        np.lib.format.write_array(member, np.zeros((3, 2)))
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as z:
            z.writestr("a.npy", member.getvalue()[:-8])
        with pytest.raises(store.StaleArtifact, match="40 bytes for shape"):
            store.read_npz(tmp_path / "kalman.npz", {"a": 3}, buf.getvalue())
