"""The fitted model that serving and evaluation read: per-user graphs, the
user clustering, Kalman serving states and rank models."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import context, kalman, navgraph, ranksvm, recommender
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
    # per user: the graph's targets tuple, those of its targets with rank
    # weights, their weights stacked and the rows of that stack, built on the
    # user's first scoring
    _weights: dict[
        str, tuple[tuple[str, ...], tuple[str, ...], np.ndarray, tuple[np.ndarray, ...]]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def _target_weights(self, user_id: str):
        """The user's `_weights` entry, built on first use or after
        `detect_targets` re-indexed its graph; None without a rank model."""
        targets = self.graphs[user_id].targets()
        model = self.rank_models.get(user_id)
        if model is None:
            return None
        cached = self._weights.get(user_id)
        if cached is None or cached[0] is not targets:  # detect_targets re-indexes
            names = tuple(t for t in targets if t in model.weights)
            W = np.array([model.weights[t].w for t in names])
            cached = self._weights[user_id] = (targets, names, W, tuple(W))
        return cached

    def intent_scores(self, user_id: str, f: np.ndarray) -> dict[str, float]:
        """Scores of the user's graph targets under the current factor f,
        taken at unit norm (a zero factor as it is): each target with rank
        weights w scores (4 + <w, f>) / 8, clamped to [0, 1], in target
        order. The norm and each <w, f> are one `ddot` (`x.dot(y)`, as
        np.linalg.norm takes it), so a factor scores bit for bit as a row of
        `stacked_intent_scores`."""
        cached = self._target_weights(user_id)
        if cached is None:
            return {}
        _, names, _, rows = cached
        f = np.asarray(f)
        norm = math.sqrt(f.dot(f))
        if norm > 0:
            f = f / norm
        return {t: min(max((4.0 + float(w.dot(f))) / 8.0, 0.0), 1.0) for t, w in zip(names, rows)}

    def stacked_intent_scores(self, user_id: str, F: np.ndarray) -> list[dict[str, float]]:
        """The scores of the user's graph targets under each factor (row of
        F), from one stacked product: each factor is taken at unit norm (a
        zero factor as it is), and each target with rank weights scored by
        `ranksvm.stacked_scores`, in the order of the graph's targets."""
        cached = self._target_weights(user_id)
        if cached is None:
            return [{} for _ in F]
        _, names, W, _ = cached
        if not names:
            return [{} for _ in F]
        norm = ranksvm.row_norms(F)
        unit = F / np.where(norm > 0, norm, 1.0)[:, None]
        return [dict(zip(names, row)) for row in ranksvm.stacked_scores(W, unit).tolist()]


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
