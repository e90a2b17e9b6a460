"""Context feature extraction, per-user context matrices, user clustering and
per-cluster context tensors."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .models import HitRecord, ReportKind, Session

log = logging.getLogger(__name__)

SLOTS_PER_PAIR = 6
N_CLUSTERS = 4


@dataclass
class FeatureLayout:
    """Maps (metric, dimension_element) pairs to 6-slot segments."""

    user_id: str
    slots: list[tuple[str, str]]

    @property
    def width(self) -> int:
        return SLOTS_PER_PAIR * len(self.slots)

    def segment(self, metric: str, dimension_element: str) -> int | None:
        """Starting row of the pair's segment, or None if the pair is unknown."""
        try:
            idx = self.slots.index((metric, dimension_element))
        except ValueError:
            return None
        return SLOTS_PER_PAIR * idx


@dataclass
class ContextMatrix:
    user_id: str
    layout: FeatureLayout
    X: np.ndarray  # width x T, one column per report view


@dataclass
class ContextTensor:
    cluster_id: int
    users: list[str]
    matrices: list[np.ndarray]  # ragged first mode, common column count T
    T: int


@dataclass
class UserClustering:
    assignments: dict[str, int]
    centroids: np.ndarray  # 4 x 3, standardized feature space
    insufficient: bool = False
    empty_clusters: list[int] = field(default_factory=list)


def extract_features(hit: HitRecord) -> np.ndarray:
    """6-slot feature vector for one report view.

    Time series: [sum, max, min, argmax, longest positive run, mean |diff|].
    Histogram: only the aggregate (sum) slot is populated.
    """
    v = np.asarray(hit.values, dtype=float)
    if v.size == 0:
        raise ValueError("empty values")
    if hit.report_kind is ReportKind.HISTOGRAM:
        return np.array([v.sum(), 0.0, 0.0, 0.0, 0.0, 0.0])
    if v.size == 1:
        return np.array([v[0], v[0], v[0], 0.0, 0.0, 0.0])
    diffs = np.diff(v)
    # on doubles b > a exactly when b - a > 0; Python floats compare faster
    longest = run = 0
    for a, b in zip(hit.values, hit.values[1:]):
        run = run + 1 if b > a else 0
        longest = max(longest, run)
    return np.array(
        [v.sum(), v.max(), v.min(), float(np.argmax(v)), float(longest), np.abs(diffs).mean()]
    )


def build_layout(sessions: list[Session]) -> FeatureLayout:
    pairs = sorted({(h.metric, h.dimension_element) for s in sessions for h in s.hits})
    return FeatureLayout(user_id=sessions[0].user_id, slots=pairs)


def build_matrix(sessions: list[Session]) -> ContextMatrix:
    """Stack per-view context vectors into the user's context matrix."""
    hits = sorted((h for s in sessions for h in s.hits), key=lambda h: h.timestamp)
    if not hits:
        raise ValueError("no hits for user")
    layout = build_layout(sessions)
    X = np.column_stack([context_vector(layout, hit) for hit in hits])
    return ContextMatrix(user_id=layout.user_id, layout=layout, X=X)


def context_vector(layout: FeatureLayout, hit: HitRecord) -> np.ndarray:
    """Single context vector for one view under an existing layout.

    A pair unseen in the layout yields the all-zero vector (treated as a
    missing observation downstream).
    """
    x = np.zeros(layout.width)
    row = layout.segment(hit.metric, hit.dimension_element)
    if row is not None:
        x[row : row + SLOTS_PER_PAIR] = extract_features(hit)
    return x


def usage_features(sessions: list[Session]) -> np.ndarray:
    """(browsing duration, transition count, distinct reports) for one user."""
    duration = sum(s.hits[-1].timestamp - s.hits[0].timestamp for s in sessions)
    transitions = sum(max(len(s) - 1, 0) for s in sessions)
    distinct = len({h.report_id for s in sessions for h in s.hits})
    return np.array([duration, transitions, distinct], dtype=float)


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = [pts[rng.integers(len(pts))]]
    for _ in range(k - 1):
        d2 = np.min(
            [((pts - c) ** 2).sum(axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(pts[rng.integers(len(pts))])
            continue
        probs = d2 / total
        centroids.append(pts[rng.choice(len(pts), p=probs)])
    return np.array(centroids)


def cluster_users(features: dict[str, np.ndarray], seed: int = 0) -> UserClustering:
    """k-means (k=4, k-means++ seeding) on z-scored usage features.

    Clusters are relabeled by ascending centroid activity, so cluster 3 holds
    the most experienced users. Fewer than 4 users puts everyone in cluster 0.
    """
    user_ids = sorted(features)
    pts = np.array([features[u] for u in user_ids], dtype=float)
    if len(user_ids) < N_CLUSTERS:
        log.warning("only %d users; clustering skipped", len(user_ids))
        return UserClustering(
            assignments={u: 0 for u in user_ids},
            centroids=np.zeros((N_CLUSTERS, pts.shape[1] if pts.size else 3)),
            insufficient=True,
            empty_clusters=[1, 2, 3],
        )

    mean = pts.mean(axis=0)
    std = pts.std(axis=0)
    std[std == 0] = 1.0
    z = (pts - mean) / std

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(z, N_CLUSTERS, rng)
    labels = np.zeros(len(z), dtype=int)
    for _ in range(100):
        d2 = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new = centroids.copy()
        for c in range(N_CLUSTERS):
            members = z[labels == c]
            if len(members):
                new[c] = members.mean(axis=0)
        shift = np.abs(new - centroids).max()
        centroids = new
        if shift < 1e-8:
            break

    # rank clusters by total activity of the centroid; 3 = most experienced
    order = np.argsort(centroids.sum(axis=1), kind="stable")
    relabel = {int(old): rank for rank, old in enumerate(order)}
    labels = np.array([relabel[int(c)] for c in labels])
    centroids = centroids[order]

    assignments = {u: int(c) for u, c in zip(user_ids, labels)}
    empty = [c for c in range(N_CLUSTERS) if not np.any(labels == c)]
    return UserClustering(assignments=assignments, centroids=centroids, empty_clusters=empty)


def assemble_tensor(
    matrices: list[ContextMatrix], clustering: UserClustering, cluster_id: int
) -> ContextTensor:
    """Pad each member matrix to the cluster max T by cyclic column repetition."""
    members = sorted(
        (m for m in matrices if clustering.assignments.get(m.user_id) == cluster_id),
        key=lambda m: m.user_id,
    )
    if not members:
        raise ValueError(f"cluster {cluster_id} has no users")
    T = max(m.X.shape[1] for m in members)
    padded = []
    for m in members:
        t_u = m.X.shape[1]
        cols = np.arange(T) % t_u
        padded.append(m.X[:, cols])
    return ContextTensor(
        cluster_id=cluster_id, users=[m.user_id for m in members], matrices=padded, T=T
    )
