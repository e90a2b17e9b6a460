import numpy as np
import pytest

from intentrec.ranksvm import (
    RankModel,
    RankTrainingSet,
    _pair_terms,
    build_training_sets,
    intent_score,
    session_final_target,
    train,
    train_all,
    training_sets_from_endings,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestTrainingSets:
    def test_final_target_is_last_target_visited(self):
        assert session_final_target(["a", "b", "c"], {"b", "a"}) == "b"
        assert session_final_target(["a", "b"], set()) is None

    def test_split_by_session_ending(self):
        f = [np.eye(2)[0], np.eye(2)[1]]
        sessions = [
            (["x", "I"], [f[0], f[0]]),
            (["x", "J"], [f[1], f[1]]),
            (["x", "x"], [f[0]]),  # no target visited: dropped
        ]
        ts = build_training_sets(sessions, {"I", "J"})
        assert set(ts) == {"I", "J"}
        assert len(ts["I"].R1) == 2
        assert len(ts["I"].R2) == 2

    def test_zero_factors_dropped(self):
        endings = {"I": [np.zeros(2), np.ones(2)], "J": [np.ones(2)]}
        ts = training_sets_from_endings(endings)
        assert len(ts["I"].R1) == 1


class TestTrain:
    def test_two_point_analytic_case(self):
        ts = RankTrainingSet(
            intent="I",
            R1=np.array([[1.0, 0.0]]),
            R2=np.array([[0.0, 1.0]]),
        )
        model = train(ts, lam=10.0)
        w = model.w
        assert w[0] > 0 > w[1]
        # the solution is proportional to (1, -1)
        assert w[0] == pytest.approx(-w[1], rel=1e-2)
        assert w @ np.array([1.0, 0.0]) > w @ np.array([0.0, 1.0])

    def test_separable_data_low_violations(self):
        rng = np.random.default_rng(0)
        w_true = _unit(rng.normal(size=5))
        pos, neg = [], []
        while len(pos) < 40 or len(neg) < 40:
            f = _unit(rng.normal(size=5))
            margin = w_true @ f
            if margin > 0.3 and len(pos) < 40:
                pos.append(f)
            elif margin < -0.3 and len(neg) < 40:
                neg.append(f)
        ts = RankTrainingSet(intent="I", R1=np.array(pos), R2=np.array(neg))
        model = train(ts)
        assert model.violation_rate <= 0.05

    def test_identical_sides_near_zero(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        ts = RankTrainingSet(intent="I", R1=pts, R2=pts.copy())
        model = train(ts)
        assert np.linalg.norm(model.w) < 0.5

    def test_degenerate_fallback(self):
        ts = RankTrainingSet(
            intent="I", R1=np.array([[0.6, 0.8]]), R2=np.empty((0, 0))
        )
        model = train(ts)
        assert model.degenerate
        np.testing.assert_allclose(model.w, [0.6, 0.8])

    def test_empty_positive_rejected(self):
        ts = RankTrainingSet(intent="I", R1=np.empty((0, 0)), R2=np.empty((0, 0)))
        with pytest.raises(ValueError):
            train(ts)

    def test_weight_norm_capped(self):
        rng = np.random.default_rng(3)
        ts = RankTrainingSet(
            intent="I",
            R1=np.array([_unit(rng.normal(size=3)) for _ in range(10)]),
            R2=np.array([_unit(rng.normal(size=3)) for _ in range(10)]),
        )
        model = train(ts)
        assert np.linalg.norm(model.w) <= 4.0 + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        ts = RankTrainingSet(
            intent="I",
            R1=np.array([_unit(rng.normal(size=3)) for _ in range(5)]),
            R2=np.array([_unit(rng.normal(size=3)) for _ in range(5)]),
        )
        a = train(ts)
        b = train(ts)
        np.testing.assert_array_equal(a.w, b.w)


class TestIntentScore:
    def _model(self, w):
        ts = RankTrainingSet(
            intent="I", R1=np.array([w]), R2=np.empty((0, 0))
        )
        model = RankModel()
        model.weights["I"] = train(ts)
        model.weights["I"].w = np.asarray(w, dtype=float)
        return model

    def test_affine_map_values(self):
        model = self._model([4.0, 0.0])
        assert intent_score(model, "I", np.array([0.0, 1.0])) == pytest.approx(0.5)
        assert intent_score(model, "I", np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert intent_score(model, "I", np.array([-0.5, 0.0])) == pytest.approx(0.25)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = rng.normal(size=4) * rng.uniform(0, 4)
            model = self._model(w)
            f = _unit(rng.normal(size=4))
            assert 0.0 <= intent_score(model, "I", f) <= 1.0

    def test_order_preserved(self):
        model = self._model([2.0, 1.0, 0.0])
        fa = _unit([1.0, 0.0, 0.0])
        fb = _unit([0.0, 1.0, 0.0])
        assert intent_score(model, "I", fa) > intent_score(model, "I", fb)

    def test_unknown_intent(self):
        model = self._model([1.0])
        with pytest.raises(KeyError):
            intent_score(model, "missing", np.ones(1))


def _brute_force_terms(w, R1, R2, lam):
    """Objective, gradient and generalized Hessian from every pair difference."""
    diffs = (R1[:, None, :] - R2[None, :, :]).reshape(-1, len(w))
    residual = 1.0 - diffs @ w
    act = residual > 0
    return (
        w @ w + lam * np.sum(residual[act] ** 2),
        2.0 * w - 2.0 * lam * diffs[act].T @ residual[act],
        2.0 * np.eye(len(w)) + 2.0 * lam * diffs[act].T @ diffs[act],
    )


class TestNewtonSolver:
    def _assert_terms_match(self, w, R1, R2, lam):
        got = _pair_terms(np.asarray(w, dtype=float), R1, R2, lam)
        want = _brute_force_terms(np.asarray(w, dtype=float), R1, R2, lam)
        for g, e in zip(got, want):
            np.testing.assert_allclose(g, e, rtol=1e-10, atol=1e-10)

    def test_sorted_sums_match_all_pairs(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            dim = int(rng.integers(1, 6))
            R1 = rng.normal(size=(int(rng.integers(1, 25)), dim))
            R2 = rng.normal(size=(int(rng.integers(1, 25)), dim))
            if trial % 2:
                R1[1:] = R1[0]  # duplicate rows on both sides
                R2[len(R2) // 2 :] = R2[0]
            w = rng.normal(size=dim) * rng.uniform(0.0, 3.0)
            self._assert_terms_match(w, R1, R2, float(rng.uniform(0.1, 10.0)))

    def test_single_negative_and_pair_at_margin_one(self):
        R1 = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        R2 = np.array([[0.0, 1.0]])
        # w.(r1_0 - r2_0) is exactly 1: the pair sits on the hinge
        self._assert_terms_match([1.0, 0.0], R1, R2, 2.0)
        self._assert_terms_match([0.3, -0.2], R1, R2, 2.0)
        R2 = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
        self._assert_terms_match([1.0, 0.0], R1, R2, 0.5)

    def test_optimum_has_zero_gradient(self):
        rng = np.random.default_rng(9)
        R1 = np.array([_unit(rng.normal(size=5) + 0.5) for _ in range(30)])
        R2 = np.array([_unit(rng.normal(size=5) - 0.5) for _ in range(40)])
        ts = RankTrainingSet(intent="I", R1=R1, R2=R2)
        model = train(ts)
        assert np.linalg.norm(model.w) < 4.0
        _, grad, _ = _brute_force_terms(model.w, R1, R2, 1.0)
        assert np.linalg.norm(grad) <= 1e-8
        assert model.pairs == 30 * 40
        assert 0 < model.iterations <= 50


class TestPersistence:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(7)
        ts = RankTrainingSet(
            intent="I",
            R1=np.array([_unit(rng.normal(size=3)) for _ in range(4)]),
            R2=np.array([_unit(rng.normal(size=3)) for _ in range(4)]),
        )
        model = train_all({"I": ts})
        again = RankModel.loads(model.dumps())
        np.testing.assert_allclose(again.weights["I"].w, model.weights["I"].w)
        assert again.trade_off == model.trade_off
