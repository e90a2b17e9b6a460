import json
import logging

import numpy as np
import pytest

from intentrec.ranksvm import (
    BATCH_INTENTS,
    MAX_BACKTRACKS,
    MAX_NEWTON_ITERS,
    WEIGHT_NORM_CAP,
    IntentWeights,
    RankModel,
    RankTrainingSet,
    _Batch,
    _pair_terms,
    _unit_rows,
    build_training_sets,
    session_final_target,
    solve,
    stacked_scores,
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

    @pytest.mark.parametrize("shape", [
        {"I": "xox", "J": "xx", "K": "ox"},
        {"I": "xx", "J": "oo", "K": "x"},
        {"I": "x", "J": "oo"},
        {"I": "xox"},
    ], ids=["some-zero-rows", "all-zero-ending", "only-other-ending-zero", "single-ending"])
    def test_rows_normalised_once_match_per_intent_rows(self, shape):
        # x is a random factor, o a zero one, which unit normalisation drops
        rng = np.random.default_rng(11)
        endings = {
            intent: [rng.normal(size=3) if c == "x" else np.zeros(3) for c in rows]
            for intent, rows in shape.items()
        }
        ts = training_sets_from_endings(endings)
        for intent in sorted(endings):
            pos = _unit_rows(endings[intent])
            neg = _unit_rows(
                [f for other in sorted(endings) if other != intent for f in endings[other]]
            )
            if len(pos) == 0:
                assert intent not in ts
                continue
            for got, want in ((ts[intent].R1, pos), (ts[intent].R2, neg)):
                assert np.array_equal(got, want)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if len(endings) == 1:
            assert solve([ts["I"]])[0].degenerate


    @pytest.mark.parametrize("shape", ["xxoxx" * 40, "oxo", "ooo", "x", ""],
                             ids=["many-with-zero-rows", "one-nonzero", "all-zero", "one", "none"])
    def test_unit_rows_match_the_per_row_norms_bitwise(self, shape):
        # x is a random factor of random scale, o a zero one
        rng = np.random.default_rng(13)
        factors = [
            rng.normal(size=5) * 10.0 ** int(rng.integers(-3, 4)) if c == "x" else np.zeros(5)
            for c in shape
        ]
        norms = [np.linalg.norm(f) for f in factors]
        rows = [f / n for f, n in zip(factors, norms) if n > 0]
        want = np.array(rows) if rows else np.empty((0, 0))
        got = _unit_rows(factors)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTrain:
    def test_two_point_analytic_case(self):
        ts = RankTrainingSet(
            intent="I",
            R1=np.array([[1.0, 0.0]]),
            R2=np.array([[0.0, 1.0]]),
        )
        model = solve([ts], lam=10.0)[0]
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
        model = solve([ts])[0]
        assert model.violation_rate <= 0.05

    def test_identical_sides_near_zero(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        ts = RankTrainingSet(intent="I", R1=pts, R2=pts.copy())
        model = solve([ts])[0]
        assert np.linalg.norm(model.w) < 0.5

    def test_degenerate_fallback(self):
        ts = RankTrainingSet(
            intent="I", R1=np.array([[0.6, 0.8]]), R2=np.empty((0, 0))
        )
        model = solve([ts])[0]
        assert model.degenerate
        np.testing.assert_allclose(model.w, [0.6, 0.8])

    def test_empty_positive_rejected(self):
        ts = RankTrainingSet(intent="I", R1=np.empty((0, 0)), R2=np.empty((0, 0)))
        with pytest.raises(ValueError):
            solve([ts])[0]

    def test_weight_norm_capped(self):
        rng = np.random.default_rng(3)
        ts = RankTrainingSet(
            intent="I",
            R1=np.array([_unit(rng.normal(size=3)) for _ in range(10)]),
            R2=np.array([_unit(rng.normal(size=3)) for _ in range(10)]),
        )
        model = solve([ts])[0]
        assert np.linalg.norm(model.w) <= 4.0 + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        ts = RankTrainingSet(
            intent="I",
            R1=np.array([_unit(rng.normal(size=3)) for _ in range(5)]),
            R2=np.array([_unit(rng.normal(size=3)) for _ in range(5)]),
        )
        a = solve([ts])[0]
        b = solve([ts])[0]
        np.testing.assert_array_equal(a.w, b.w)


class TestIntentScore:
    @staticmethod
    def _score(w, f) -> float:
        """The normalized score of one factor under the weights w."""
        return float(stacked_scores(np.asarray(w, dtype=float)[None], np.asarray(f)[None])[0, 0])

    def test_affine_map_values(self):
        w = [4.0, 0.0]
        assert self._score(w, np.array([0.0, 1.0])) == pytest.approx(0.5)
        assert self._score(w, np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert self._score(w, np.array([-0.5, 0.0])) == pytest.approx(0.25)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = rng.normal(size=4) * rng.uniform(0, 4)
            f = _unit(rng.normal(size=4))
            assert 0.0 <= self._score(w, f) <= 1.0

    def test_order_preserved(self):
        w = [2.0, 1.0, 0.0]
        fa = _unit([1.0, 0.0, 0.0])
        fb = _unit([0.0, 1.0, 0.0])
        assert self._score(w, fa) > self._score(w, fb)


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


def _terms(w, R1, R2, lam):
    """The batched terms of one set at w."""
    batch = _Batch.pad([RankTrainingSet("I", R1, R2)])
    obj, grad, hess = _pair_terms(np.array([w], dtype=float), batch, lam)
    return obj[0], grad[0], hess[0]


# The per-set Newton solve the batched one replaces, kept as its oracle.
def _serial_pair_terms(w: np.ndarray, R1: np.ndarray, R2: np.ndarray, lam: float):
    dim = len(w)
    qy, yy = 3 + dim, 3 + 2 * dim  # first columns of q*y and y y^T; y starts at 3
    p, q = R1 @ w, R2 @ w
    order = np.argsort(q, kind="stable")
    q, y = q[order], R2[order]
    starts = np.searchsorted(q, p - 1.0, side="right")
    cols = np.empty((len(q), yy + dim * dim))
    cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3:qy] = 1.0, q, q * q, y
    cols[:, qy:yy] = q[:, None] * y
    cols[:, yy:] = (y[:, :, None] * y[:, None, :]).reshape(len(q), -1)
    suffix = np.zeros((len(q) + 1, cols.shape[1]))
    suffix[:-1] = np.cumsum(cols[::-1], axis=0)[::-1]
    sums = suffix[starts]
    n, s_q, s_qq = sums[:, :1], sums[:, 1:2], sums[:, 2:3]
    s_y, s_qy, s_yy = sums[:, 3:qy], sums[:, qy:yy], sums[:, yy:]
    a = 1.0 - p[:, None]  # the residual of pair (i, j) is a_i + q_j
    loss = np.sum(n * a * a + 2.0 * a * s_q + s_qq)
    # d/dw of the loss is 2 * sum_ij (a_i + q_j)(y_j - x_i) over active pairs
    pull = (a * s_y + s_qy - R1 * (n * a + s_q)).sum(axis=0)
    # sum_ij (x_i - y_j)(x_i - y_j)^T over active pairs
    cross = R1.T @ s_y
    pair_hess = (R1 * n).T @ R1 - cross - cross.T + s_yy.sum(axis=0).reshape(dim, dim)
    return (
        float(w @ w + lam * loss),
        2.0 * w + 2.0 * lam * pull,
        2.0 * np.eye(dim) + 2.0 * lam * pair_hess,
    )


def _serial_train(ts: RankTrainingSet, lam: float) -> IntentWeights:
    if len(ts.R1) == 0:
        raise ValueError("empty positive set")
    if len(ts.R2) == 0:
        w = ts.R1.mean(axis=0)
        n = np.linalg.norm(w)
        w = w / n if n > 0 else w
        return IntentWeights(w=w, degenerate=True)

    w = np.zeros(ts.R1.shape[1])
    obj, grad, hess = _serial_pair_terms(w, ts.R1, ts.R2, lam)
    iterations = 0
    while iterations < MAX_NEWTON_ITERS:
        step = np.linalg.solve(hess, grad)
        decrease = float(grad @ step)
        if decrease <= np.finfo(float).eps * obj:
            break  # the predicted change is below the objective's resolution
        for t in 0.5 ** np.arange(MAX_BACKTRACKS):
            trial = w - t * step
            terms = _serial_pair_terms(trial, ts.R1, ts.R2, lam)
            if terms[0] <= obj - 1e-4 * t * decrease:
                break
        else:
            break  # the objective no longer moves
        w, (obj, grad, hess) = trial, terms
        iterations += 1

    norm = np.linalg.norm(w)
    if norm > WEIGHT_NORM_CAP:
        w = w * (WEIGHT_NORM_CAP / norm)
        obj = _serial_pair_terms(w, ts.R1, ts.R2, lam)[0]
    # pair (i, j) is violated when its margin p_i - q_j is <= 0
    p, q = ts.R1 @ w, np.sort(ts.R2 @ w)
    pairs = len(p) * len(q)
    rate = float(np.sum(len(q) - np.searchsorted(q, p, side="left"))) / pairs
    return IntentWeights(w=w, objective=obj, violation_rate=rate, pairs=pairs, iterations=iterations)


def _serial_stop(ts: RankTrainingSet, iw: IntentWeights, lam: float) -> str:
    """Why the serial loop stopped, replayed from its weights."""
    if iw.degenerate:
        return "degenerate"
    if abs(np.linalg.norm(iw.w) - WEIGHT_NORM_CAP) < 1e-12:
        return "capped"
    if iw.iterations == MAX_NEWTON_ITERS:
        return "iterations"
    obj, grad, hess = _serial_pair_terms(iw.w, ts.R1, ts.R2, lam)
    if float(grad @ np.linalg.solve(hess, grad)) <= np.finfo(float).eps * obj:
        return "converged"
    return "backtracking"


def _random_sets(rng, count, lam_rows):
    """count sets of mixed ranks and sizes: one-row sets, duplicate rows,
    near-separable ones whose weights hit the norm cap, and sets without
    negatives, in one stream. Rows are unit vectors, but at rank 1, where
    unit rows are +-1 and would make every sum exact."""
    sets = []
    for k in range(count):
        dim = (5, 3, 5, 1)[k % 4]
        n1, n2 = (int(rng.integers(1, r)) for r in lam_rows)
        R1 = rng.normal(size=(n1, dim)) + 0.3
        R2 = rng.normal(size=(n2, dim)) - 0.3
        if k % 7 == 0:
            R1, R2 = R1[:1], R2[:1]
        elif k % 7 == 1:
            R1[1:] = R1[0]  # duplicate rows on both sides
            R2[len(R2) // 2 :] = R2[0]
        elif k % 7 == 2:
            base, gap = rng.normal(size=dim), 0.05 * rng.normal(size=dim)
            R1 = base + gap + 0.01 * rng.normal(size=(n1, dim))
            R2 = base - gap + 0.01 * rng.normal(size=(n2, dim))
        elif k % 23 == 3:
            R2 = np.empty((0, 0))
        if dim > 1:
            R1, R2 = (r / np.linalg.norm(r, axis=1, keepdims=True) if r.size else r
                      for r in (R1, R2))
        sets.append(RankTrainingSet(f"i{k}", R1, R2))
    return sets


class TestNewtonSolver:
    def _assert_terms_match(self, w, R1, R2, lam):
        got = _terms(np.asarray(w, dtype=float), R1, R2, lam)
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

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_mixed_sizes_in_one_batch(self, dim):
        # padded rows add nothing: each set's terms are its all-pairs terms
        # and, above rank 1, bit for bit the serial solve's per-set terms
        # (`solve` takes rank-1 sets one at a time)
        rng = np.random.default_rng(12 + dim)
        sets = [
            RankTrainingSet(f"i{k}", rng.normal(size=(n1, dim)), rng.normal(size=(n2, dim)))
            for k, (n1, n2) in enumerate([(1, 1), (1, 30), (25, 1), (3, 7), (25, 30), (9, 2)])
        ]
        W = rng.normal(size=(len(sets), dim)) * rng.uniform(0.5, 3.0, size=(len(sets), 1))
        got = _pair_terms(W, _Batch.pad(sets), 1.5)
        for i, ts in enumerate(sets):
            want = _brute_force_terms(W[i], ts.R1, ts.R2, 1.5)
            serial = _serial_pair_terms(W[i], ts.R1, ts.R2, 1.5)
            for g, e, s in zip((x[i] for x in got), want, serial):
                np.testing.assert_allclose(g, e, rtol=1e-10, atol=1e-10)
                assert dim == 1 or np.asarray(g).tobytes() == np.asarray(s).tobytes()

    @pytest.mark.parametrize("lam,rows,stops", [
        (1.0, (30, 55), {"converged", "capped", "degenerate"}),
        (1e13, (6, 6), {"converged", "capped", "iterations", "backtracking", "degenerate"}),
    ], ids=["acceptance-sizes", "noisy-objective"])
    def test_matches_serial_newton_bitwise(self, lam, rows, stops):
        # more sets of each rank than one batch holds, so the stream is
        # solved in several batches per rank, interleaved with degenerate sets
        sets = _random_sets(np.random.default_rng(21), 3 * BATCH_INTENTS + 5, rows)
        got = solve(sets, lam)
        seen = set()
        for ts, g in zip(sets, got, strict=True):
            want = _serial_train(ts, lam)
            seen.add(_serial_stop(ts, want, lam))
            assert g.w.shape == want.w.shape and g.w.tobytes() == want.w.tobytes(), ts.intent
            assert type(g.objective) is float and g.objective == want.objective, ts.intent
            for name in ("iterations", "violation_rate", "pairs", "degenerate"):
                assert getattr(g, name) == getattr(want, name), (ts.intent, name)
        assert stops <= seen, seen

    def test_degenerate_intents_logged_once_as_a_count(self, caplog):
        one = np.array([[0.6, 0.8]])
        sets = [
            RankTrainingSet("I", one, np.empty((0, 0))),
            RankTrainingSet("J", one, np.array([[0.8, 0.6]])),
            RankTrainingSet("K", one, np.empty((0, 0))),
        ]
        with caplog.at_level(logging.WARNING, logger="intentrec.ranksvm"):
            got = solve(sets)
        assert [iw.degenerate for iw in got] == [True, False, True]
        records = [r for r in caplog.records if r.name == "intentrec.ranksvm"]
        assert len(records) == 1, records
        assert "2 intents" in records[0].getMessage()

    def test_optimum_has_zero_gradient(self):
        rng = np.random.default_rng(9)
        R1 = np.array([_unit(rng.normal(size=5) + 0.5) for _ in range(30)])
        R2 = np.array([_unit(rng.normal(size=5) - 0.5) for _ in range(40)])
        ts = RankTrainingSet(intent="I", R1=R1, R2=R2)
        model = solve([ts])[0]
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
        model = RankModel({"I": solve([ts])[0]})
        again = RankModel.from_json(json.loads(json.dumps(model.to_json())))
        np.testing.assert_allclose(again.weights["I"].w, model.weights["I"].w)
        assert again.trade_off == model.trade_off
