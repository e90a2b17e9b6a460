"""Context feature extraction, per-user context matrices, user clustering and
the padded panels of a cluster's context tensor."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .models import SLOTS_PER_PAIR, HitRecord, ReportKind, Session

log = logging.getLogger(__name__)

N_CLUSTERS = 4


@dataclass
class FeatureLayout:
    """Maps (metric, dimension_element) pairs to 6-slot segments."""

    slots: list[tuple[str, str]]
    _rows: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows = {pair: SLOTS_PER_PAIR * i for i, pair in enumerate(self.slots)}

    @property
    def width(self) -> int:
        return SLOTS_PER_PAIR * len(self.slots)

    def segment(self, metric: str, dimension_element: str) -> int | None:
        """Starting row of the pair's segment, or None if the pair is unknown."""
        return self._rows.get((metric, dimension_element))


@dataclass
class ContextMatrix:
    layout: FeatureLayout
    X: np.ndarray  # width x T, one column per report view


@dataclass
class UserClustering:
    assignments: dict[str, int]
    centroids: np.ndarray  # 4 x 3, standardized feature space
    insufficient: bool = False
    empty_clusters: list[int] = field(default_factory=list)


def _pairwise_sum(v: tuple[float, ...] | list[float], lo: int, n: int) -> float:
    """NumPy's pairwise sum of v[lo:lo + n], n >= 1, in its exact order
    (`extract_features` states it). The loops add plainly: the builtin
    `sum` compensates its rounding since Python 3.12."""
    if n < 8:
        res = 0.0
        for x in v[lo : lo + n]:
            res += x
        return res
    if n <= 128:
        end = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = v[lo : lo + 8]
        for i in range(lo + 8, end, 8):
            r0 += v[i]
            r1 += v[i + 1]
            r2 += v[i + 2]
            r3 += v[i + 3]
            r4 += v[i + 4]
            r5 += v[i + 5]
            r6 += v[i + 6]
            r7 += v[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in v[end : lo + n]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(v, lo, n2) + _pairwise_sum(v, lo + n2, n - n2)


def _add_reduce(v: tuple[float, ...] | list[float]) -> float:
    """`np.sum` of a float64 vector, bit for bit: add.reduce starts from
    its identity 0.0 and adds the pairwise sum of the elements."""
    return 0.0 + _pairwise_sum(v, 0, len(v))


def extract_features(hit: HitRecord) -> tuple[float, ...]:
    """6-slot feature vector for one report view, as six Python floats.

    Time series: [sum, max, min, argmax, longest positive run, mean |diff|].
    Histogram: only the aggregate (sum) slot is populated.

    Computed on the Python floats of `hit.values` without NumPy, whose
    per-call overhead would dominate on a few values, yet bit-identical to
    `v.sum()`, `v.max()`, `v.min()`, `np.argmax(v)` and
    `np.abs(np.diff(v)).mean()` of `v = np.asarray(hit.values)`:
    - both sums add in the order of NumPy's pairwise `add.reduce`: from its
      identity 0.0, sequentially below 8 elements, in 8 strided
      accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) up to
      128, and as the sum of two halves above that (`_pairwise_sum`);
    - with a NaN anywhere, max and min are NaN and argmax is the first
      NaN's index; otherwise argmax is the first index of the maximum.
    When 0.0 and -0.0 tie for the max or min, NumPy's sign depends on its
    SIMD lanes; here it is that of the first of them.
    """
    v = hit.values
    n = len(v)
    if n == 0:
        raise ValueError("empty values")
    total = _add_reduce(v)
    if hit.report_kind is ReportKind.HISTOGRAM:
        return (total, 0.0, 0.0, 0.0, 0.0, 0.0)
    if n == 1:
        return (v[0], v[0], v[0], 0.0, 0.0, 0.0)
    # a NaN anywhere makes the sum NaN, so only then look for one
    first_nan = next((i for i, x in enumerate(v) if x != x), None) if total != total else None
    if first_nan is None:
        top, bottom = max(v), min(v)
        argmax = v.index(top)
    else:
        top = bottom = v[first_nan]
        argmax = first_nan
    abs_diffs = []
    longest = run = 0
    prev = v[0]
    for x in v[1:]:
        d = x - prev
        abs_diffs.append(abs(d))
        if d > 0:
            run += 1
            if run > longest:
                longest = run
        else:
            run = 0
        prev = x
    return (total, top, bottom, float(argmax), float(longest), _add_reduce(abs_diffs) / (n - 1))


def build_layout(sessions: list[Session]) -> FeatureLayout:
    pairs = sorted({(h.metric, h.dimension_element) for s in sessions for h in s.hits})
    return FeatureLayout(slots=pairs)


def build_matrix(sessions: list[Session]) -> ContextMatrix:
    """Stack per-view context vectors into the user's context matrix."""
    hits = sorted((h for s in sessions for h in s.hits), key=lambda h: h.timestamp)
    if not hits:
        raise ValueError("no hits for user")
    layout = build_layout(sessions)
    X = np.column_stack([context_vector(layout, hit) for hit in hits])
    return ContextMatrix(layout=layout, X=X)


def context_vector(layout: FeatureLayout, hit: HitRecord) -> np.ndarray:
    """Single context vector for one view under an existing layout.

    A pair unseen in the layout yields the all-zero vector (treated as a
    missing observation downstream).
    """
    return observed_vector(layout, hit)[0]


def observed_vector(layout: FeatureLayout, hit: HitRecord) -> tuple[np.ndarray, bool]:
    """The view's context vector and whether it is an observation: its pair
    is known to the layout and some feature is nonzero, which is exactly
    when the vector is not all zero."""
    x = np.zeros(layout.width)
    row = layout.segment(hit.metric, hit.dimension_element)
    if row is None:
        return x, False
    features = extract_features(hit)
    x[row : row + SLOTS_PER_PAIR] = features
    return x, any(features)


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


def assemble_tensor(matrices: list[ContextMatrix]) -> list[np.ndarray]:
    """The cluster's panels: each member matrix padded to the longest one's
    T columns by cyclic column repetition, in the order given."""
    if not matrices:
        raise ValueError("a cluster without members")
    T = max(m.X.shape[1] for m in matrices)
    return [m.X[:, np.arange(T) % m.X.shape[1]] for m in matrices]
