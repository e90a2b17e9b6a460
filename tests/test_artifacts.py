import copy

import numpy as np
import pytest

from intentrec import kalman, ranksvm, store
from intentrec.artifacts import TrainedModel, UserServing, serving_factor
from intentrec.context import FeatureLayout, context_vector
from intentrec.models import ReportKind
from intentrec.navgraph import NavGraph, NodeAttrs, detect_targets
from intentrec.ranksvm import IntentWeights, RankModel
from intentrec.recommender import Clustering

from conftest import make_hit, per_target_intent_scores

PAIRS = [("m", "d"), ("m2", "d2")]


def random_serving(rng, rank=3, settled=False):
    """A served user over two (metric, dimension) pairs, with a random
    filter state, optionally carrying a settled gain."""
    layout = FeatureLayout(list(PAIRS))
    n = layout.width
    lam = rng.normal(size=(n, rank))
    root = rng.normal(size=(rank, rank))
    state = kalman.KalmanState(
        A=rng.normal(scale=0.5, size=(rank, rank)), Q=0.1 * np.eye(rank),
        Psi=rng.uniform(0.5, 2.0) * np.eye(n), Lam=lam,
        f_post=rng.normal(size=rank), P_post=root @ root.T + np.eye(rank),
        gain=rng.normal(size=(rank, n)),
    )
    if settled:
        state.settled = (rng.normal(size=(rank, rank)), rng.normal(size=(rank, n)))
    return UserServing(layout, Lam_pinv=np.linalg.pinv(lam), final_state=state)


class TestServingFactor:
    def test_unknown_pair_and_all_zero_view_are_missing(self):
        rng = np.random.default_rng(3)
        views = [
            make_hit(metric="other", dim="pair", values=(1.0, 5.0, 2.0)),
            make_hit(metric="m2", dim="d2", kind=ReportKind.HISTOGRAM, values=(0.0, -0.0, 0.0)),
        ]
        for hit in views:
            serving = random_serving(rng, settled=True)
            expected = kalman.step(copy.deepcopy(serving.final_state), kalman.MISSING)
            f_kal, f_pf2, state = serving_factor(serving, serving.final_state, hit)
            assert state.settled is None and state.gain is None
            np.testing.assert_array_equal(f_kal, expected.f_post)
            np.testing.assert_array_equal(state.P_post, expected.P_post)
            np.testing.assert_array_equal(f_pf2, np.zeros(len(f_pf2)))

    def test_observed_view_matches_the_context_vector_path(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            serving = random_serving(rng, settled=bool(trial % 2))
            metric, dim = PAIRS[int(rng.integers(len(PAIRS)))]
            kind = list(ReportKind)[int(rng.integers(2))]
            values = rng.normal(scale=10.0, size=int(rng.integers(1, 12)))
            hit = make_hit(metric=metric, dim=dim, kind=kind, values=tuple(values.tolist()))
            x = context_vector(serving.layout, hit)
            # an all-zero context vector is a missing view
            view = x if x.any() else kalman.MISSING
            expected = kalman.serve_step(copy.deepcopy(serving.final_state), view)
            f_kal, f_pf2, state = serving_factor(serving, serving.final_state, hit)
            np.testing.assert_array_equal(f_kal, expected.f_post)
            np.testing.assert_array_equal(f_pf2, serving.Lam_pinv @ x)
            np.testing.assert_array_equal(state.P_post, expected.P_post)
            assert (state.settled is None) == (expected.settled is None)


def _scored_model(rng, rank=4):
    """Two users on one graph each: "ranked" has rank weights for targets t1
    and t3 (t2 has none; "x" is no target), of norm up to 10 so that the
    clamp binds; "unranked" has no rank model."""
    graphs = {}
    for uid in ("ranked", "unranked"):
        g = NavGraph(user_id=uid)
        for n in ("a", "t1", "t2", "t3", "x"):
            g.nodes[n] = NodeAttrs()
        for v in ("t1", "t2", "t3"):
            g.edges[("a", v)] = 1.0 / 3.0
        detect_targets(g)
        graphs[uid] = g
    weights = {
        t: IntentWeights(w=rng.normal(size=rank) * rng.uniform(0.1, 10.0))
        for t in ("t3", "x", "t1")
    }
    return TrainedModel(
        graphs=graphs,
        clustering=Clustering({}, {}),
        rank_models={"ranked": RankModel(weights)},
        serving={},
    )


def _bits(scores: dict[str, float]) -> list[tuple[str, str]]:
    return [(t, s.hex()) for t, s in scores.items()]


class TestStackedIntentScores:
    def test_stack_matches_the_per_target_loop_bitwise(self):
        rng = np.random.default_rng(8)
        model = _scored_model(rng)
        F = rng.normal(size=(300, 4)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        F[[0, 7]] = 0.0  # a zero factor is scored as it is
        F[9] = [-0.0, 0.0, -0.0, 0.0]
        F[11, 2] = np.nan
        stacked = model.stacked_intent_scores("ranked", F)
        assert list(stacked[0]) == ["t1", "t3"]  # in target order, t2 has no weights
        assert stacked[0] == {"t1": 0.5, "t3": 0.5}
        for f, got in zip(F, stacked):
            assert _bits(got) == _bits(per_target_intent_scores(model, "ranked", f))
            assert _bits(model.intent_scores("ranked", f)) == _bits(got)
        clamped = [s for row in stacked for s in row.values() if s in (0.0, 1.0)]
        assert len(clamped) > 10

    @pytest.mark.parametrize("rank", [1, 2, 3, 5, 6, 12])
    def test_every_form_scores_alike_bitwise(self, rank):
        # the one-factor dots, the stacked product, the per-target oracle and
        # the pure-Python scores of a cold `recommend`; at rank 1 each dot is
        # a plain product
        rng = np.random.default_rng(rank)
        model = _scored_model(rng, rank)
        w = model.rank_models["ranked"].weights["t3"].w
        w *= 16.0 / np.linalg.norm(w)  # t3 clamps wherever |cos(w, f)| > 1/4
        targets = model.graphs["ranked"].targets()
        doc = model.rank_models["ranked"].to_json()
        F = rng.normal(size=(300, rank)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        F[0] = 0.0
        F[1] = -0.0
        F[2, rank // 2] = np.nan
        stacked = model.stacked_intent_scores("ranked", F)
        for f, got in zip(F, stacked):
            assert list(got) == ["t1", "t3"]
            assert _bits(model.intent_scores("ranked", f)) == _bits(got)
            assert _bits(per_target_intent_scores(model, "ranked", f)) == _bits(got)
            assert _bits(store.intent_scores(targets, doc, f.tolist())) == _bits(got)
        assert stacked[0] == stacked[1] == {"t1": 0.5, "t3": 0.5}
        assert all(np.isnan(s) for s in stacked[2].values())
        clamped = [s for row in stacked for s in row.values() if s in (0.0, 1.0)]
        assert len(clamped) > 10

    def test_one_factor_is_scored_without_the_stack(self, monkeypatch):
        model = _scored_model(np.random.default_rng(11))
        f = np.random.default_rng(12).normal(size=4)
        expected = model.stacked_intent_scores("ranked", f[None])[0]

        def stacked(*args):
            raise AssertionError("a one-factor score went through the stack")

        monkeypatch.setattr(ranksvm, "stacked_scores", stacked)
        monkeypatch.setattr(TrainedModel, "stacked_intent_scores", stacked)
        assert _bits(model.intent_scores("ranked", f)) == _bits(expected)

    def test_user_without_rank_model_scores_nothing(self):
        model = _scored_model(np.random.default_rng(9))
        assert model.stacked_intent_scores("unranked", np.ones((3, 4))) == [{}, {}, {}]
        assert model.intent_scores("unranked", np.ones(4)) == {}

    def test_weights_follow_redetected_targets(self):
        rng = np.random.default_rng(10)
        model = _scored_model(rng)
        f = rng.normal(size=4)
        assert list(model.intent_scores("ranked", f)) == ["t1", "t3"]
        graph = model.graphs["ranked"]
        graph.edges[("a", "x")] = 0.25  # x becomes a target, which has weights
        detect_targets(graph)
        assert list(model.intent_scores("ranked", f)) == ["t1", "t3", "x"]
        assert _bits(model.intent_scores("ranked", f)) == _bits(
            per_target_intent_scores(model, "ranked", f)
        )
