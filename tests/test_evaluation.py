import math

import numpy as np
import pytest

from intentrec.artifacts import TrainedModel
from intentrec.evaluation import (
    ALL_METHODS,
    event_auc,
    ndcg_at_k,
    precision_recall_at_k,
    report,
    results_csv,
    run_benchmark,
)
from intentrec.models import Dataset
from intentrec.recommender import Clustering


class TestNdcg:
    def test_rank_one(self):
        assert ndcg_at_k(["hit", "x"], "hit") == pytest.approx(1.0, abs=1e-12)

    def test_rank_two_hand_value(self):
        assert ndcg_at_k(["x", "hit"], "hit") == pytest.approx(
            1.0 / math.log2(3), abs=1e-12
        )

    def test_miss_is_zero(self):
        assert ndcg_at_k(["a", "b"], "hit") == 0.0

    def test_beyond_k_is_miss(self):
        shown = [f"n{i}" for i in range(10)] + ["hit"]
        assert ndcg_at_k(shown, "hit", k=10) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ndcg_at_k([], "x", k=0)


class TestPrecisionRecall:
    def test_single_hit_at_ten(self):
        p, r = precision_recall_at_k(["hit"] + ["x"] * 9, "hit", k=10)
        assert p == pytest.approx(0.1)
        assert r == 1.0

    def test_miss(self):
        p, r = precision_recall_at_k(["a"], "hit", k=10)
        assert (p, r) == (0.0, 0.0)


class TestEventAuc:
    def test_hand_case(self):
        scores = {"pos": 0.9, "a": 0.5, "b": 0.95, "c": 0.9}
        # one below, one above, one tie -> (1 + 0.5)/3
        assert event_auc(scores, "pos") == pytest.approx(0.5)

    def test_several_ties(self):
        scores = {"a": 0.2, "pos": 0.4, "b": 0.4, "c": 0.4, "d": 0.1, "e": 0.7}
        # two below, two ties, one above -> (2 + 1) / 5
        assert event_auc(scores, "pos") == 0.6

    def test_nan_is_neither_below_nor_tied(self):
        nan = float("nan")
        assert event_auc({"pos": 0.5, "a": nan, "b": 0.1}, "pos") == 0.5
        assert event_auc({"pos": nan, "a": nan, "b": 0.1}, "pos") == 0.0

    def test_positive_missing(self):
        assert event_auc({"a": 0.1}, "pos") == 0.0

    def test_no_negatives(self):
        assert event_auc({"pos": 0.3}, "pos") == 1.0


class TestWeightedAuc:
    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(0)
        base, transformed = [], []
        for _ in range(100):
            scores = {f"n{j}": float(rng.uniform()) for j in range(5)}
            true_next = f"n{int(rng.integers(5))}"
            base.append(event_auc(scores, true_next))
            warped = {n: math.exp(3 * s) for n, s in scores.items()}
            transformed.append(event_auc(warped, true_next))
        assert transformed == base

    def test_equals_per_user_event_weighted_mean(self):
        # u1 has three events, u2 one: the per-user means 0.5 and 1.0,
        # weighted 3:1, give (3 * 0.5 + 1.0) / 4
        aucs = {"u1": [0.25, 0.5, 0.75], "u2": [1.0]}
        rows = [(0.0, 0.0, 0.0, auc) for user in aucs for auc in aucs[user]]
        per_user = sum(len(v) * (sum(v) / len(v)) for v in aucs.values()) / len(rows)
        wauc = report("m", rows).wauc
        assert wauc == pytest.approx(per_user, abs=1e-12)
        assert wauc == pytest.approx(0.625, abs=1e-12)

    def test_empty(self):
        # a run without test sessions gives every method a zero row
        model = TrainedModel(
            graphs={}, clustering=Clustering({}, {}), rank_models={}, serving={}
        )
        result = run_benchmark(Dataset(train=[], test=[], split_instant=0), model)
        assert [r.method for r in result.reports] == list(ALL_METHODS)
        for r in result.reports:
            assert (r.ndcg, r.precision, r.recall, r.wauc, r.events) == (0.0, 0.0, 0.0, 0.0, 0)
        assert result.events == 0


class TestSummarize:
    def test_aggregates(self):
        # a hit at rank 1 and a miss, at k = 1
        rows = [(1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0)]
        rep = report("m", rows)
        assert rep.events == 2
        assert rep.ndcg == pytest.approx(0.5)
        assert rep.precision == pytest.approx(0.5)
        assert rep.recall == pytest.approx(0.5)
        assert rep.wauc == pytest.approx(0.5)

    def test_empty(self):
        rep = report("m", [])
        assert rep.events == 0
        assert rep.ndcg == 0.0

    def test_results_csv_layout(self):
        rep = report("m", [(1.0, 0.1, 1.0, 1.0)])
        text = results_csv([rep])
        lines = text.strip().split("\n")
        assert lines[0] == "method,ndcg,precision,recall,wauc,events"
        assert lines[1] == "m,1.000000,0.100000,1.000000,1.000000,1"
