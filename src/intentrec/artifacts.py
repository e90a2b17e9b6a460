"""The fitted model that serving and evaluation read: per-user graphs, the
user clustering, Kalman serving states and rank models."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import context, kalman, navgraph, ranksvm, recommender, store
from .models import HitRecord


@dataclass
class UserServing:
    """Everything needed to score one user's context at serving time."""

    layout: context.FeatureLayout
    Lam_pinv: np.ndarray  # pseudo-inverse of the N_u x R loading matrix
    final_state: kalman.KalmanState


@dataclass
class TrainedModel:
    graphs: dict[str, navgraph.NavGraph]
    clustering: recommender.Clustering
    rank_models: dict[str, ranksvm.RankModel]  # per user; latent spaces differ
    serving: dict[str, UserServing]
    # per user: the graph's targets tuple, and those of its targets with
    # rank weights paired with their weights as lists, built on the user's
    # first scoring
    _weights: dict[str, tuple[tuple[str, ...], list[tuple[str, list[float]]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _weighted_targets(self, user_id: str) -> list[tuple[str, list[float]]]:
        """The user's weighted targets in target order, cached in `_weights`
        and rebuilt after `detect_targets` re-indexed its graph; [] without
        a rank model."""
        targets = self.graphs[user_id].targets()
        model = self.rank_models.get(user_id)
        if model is None:
            return []
        cached = self._weights.get(user_id)
        if cached is None or cached[0] is not targets:  # detect_targets re-indexes
            weighted = [(t, model.weights[t].w.tolist()) for t in targets if t in model.weights]
            cached = self._weights[user_id] = (targets, weighted)
        return cached[1]

    def intent_scores(self, user_id: str, f: np.ndarray) -> dict[str, float]:
        """The scores of the user's graph targets under the current factor
        f, in target order: `store.factor_scores`, bit for bit a row of
        `stacked_intent_scores`."""
        return store.factor_scores(self._weighted_targets(user_id), np.asarray(f).tolist())

    def stacked_intent_scores(self, user_id: str, F: np.ndarray) -> list[dict[str, float]]:
        """The scores of the user's graph targets under each factor (row of
        F), in target order, from one `ranksvm.stacked_scores` of the
        factors at unit norm: row for row, bit for bit `store.factor_scores`,
        as each norm is the square root of an `ranksvm.ordered_dots` sum."""
        weighted = self._weighted_targets(user_id)
        if not weighted:
            return [{} for _ in F]
        names = [t for t, _ in weighted]
        norm = np.sqrt(ranksvm.ordered_dots(F, F))
        unit = F / np.where(norm > 0, norm, 1.0)[:, None]
        scores = ranksvm.stacked_scores(np.array([w for _, w in weighted]), unit)
        return [dict(zip(names, row)) for row in scores.tolist()]


def serving_factor(serving: UserServing, state: kalman.KalmanState, hit: HitRecord):
    """Advance the user's filter, a stack of one, by one step for a new view,
    with the settled gain once the filter's covariance has settled
    (`kalman.serve_step`). The view is missing, as a fit finds from its
    all-zero panel column, when its pair is unknown to the layout or all its
    features are zero.

    Returns (kalman factor, parafac2-only factor, new state).
    """
    x, observed = context.observed_vector(serving.layout, hit)
    state = kalman.serve_step(state, x if observed else kalman.MISSING)
    f_pf2 = serving.Lam_pinv @ x
    return state.f_post.copy(), f_pf2, state
