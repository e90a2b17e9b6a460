"""The fitted model that serving and evaluation read: per-user graphs, the
user clustering, Kalman serving states and rank models."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import context, kalman, navgraph, ranksvm
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
    clustering: context.UserClustering
    rank_models: dict[str, ranksvm.RankModel]  # per user; latent spaces differ
    serving: dict[str, UserServing]

    def intent_scores(self, user_id: str, f: np.ndarray) -> dict[str, float]:
        """Scores of the user's graph targets under the current factor f."""
        graph = self.graphs[user_id]
        model = self.rank_models.get(user_id)
        if model is None:
            return {}
        norm = float(np.linalg.norm(f))
        unit = f / norm if norm > 0 else f
        weights = model.weights
        return {t: ranksvm.intent_score(model, t, unit) for t in graph.targets() if t in weights}


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
