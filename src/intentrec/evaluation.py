"""Evaluation harness: ranking metrics over held-out sessions for the
proposed scoring variants and the four baselines."""
from __future__ import annotations

import copy
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import recommender
from .artifacts import TrainedModel, serving_factor
from .config import DEFAULT_MIN_UNIQUE_REPORTS, VARIANTS
from .models import Dataset, group_by_user
from .recommender import DEFAULT_TOP_K, RelevanceVariant

log = logging.getLogger(__name__)

BASELINES = ("mass", "frequency", "context", "parafac2")
ALL_METHODS = BASELINES + VARIANTS
_VARIANT_ENUMS = {v: RelevanceVariant(v) for v in VARIANTS}


@dataclass
class EvalReport:
    method: str
    ndcg: float
    precision: float
    recall: float
    wauc: float
    events: int


@dataclass
class BenchmarkResult:
    reports: list[EvalReport]
    skipped_unseen: int = 0
    skipped_filtered: int = 0
    views: int = 0  # test views stepped through serving_factor
    steady_views: int = 0  # of those, served with the settled Kalman gain
    missing_views: int = 0  # of those, missing observations (no gain)

    @property
    def events(self) -> int:
        """Evaluated events; every method scores each one."""
        return max((r.events for r in self.reports), default=0)


def ndcg_at_k(shown: list[str], true_next: str, k: int = DEFAULT_TOP_K) -> float:
    """Binary-relevance NDCG with a single relevant item (ideal DCG = 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        rank0 = shown.index(true_next, 0, k)
    except ValueError:
        return 0.0
    return 1.0 / math.log2(rank0 + 2)


def precision_recall_at_k(
    shown: list[str], true_next: str, k: int = DEFAULT_TOP_K
) -> tuple[float, float]:
    if k < 1:
        raise ValueError("k must be >= 1")
    hit = 1.0 if true_next in shown[:k] else 0.0
    return hit / k, hit


def event_auc(scores: dict[str, float], true_next: str) -> float:
    """Pairwise AUC of the positive against every other candidate."""
    if true_next not in scores:
        return 0.0
    negatives = len(scores) - 1
    if not negatives:
        return 1.0
    pos = scores[true_next]
    below = ties = 0
    for s in scores.values():
        if s < pos:
            below += 1
        elif s == pos:
            ties += 1
    ties -= pos == pos  # the positive ties with itself, unless it is NaN
    return (below + 0.5 * ties) / negatives


def report(method: str, rows: list[tuple[float, float, float, float]]) -> EvalReport:
    """Each metric's mean over the event rows. w-AUC, the per-user mean AUC
    weighted by the user's event count, is the mean over events."""
    if not rows:
        return EvalReport(method=method, ndcg=0.0, precision=0.0, recall=0.0, wauc=0.0, events=0)
    ndcg, precision, recall, wauc = (float(np.mean(column)) for column in zip(*rows))
    return EvalReport(method, ndcg, precision, recall, wauc, events=len(rows))


def _top(scores: dict[str, float], k: int) -> tuple[dict[str, float], list[str]]:
    """scores and its k best nodes, ties broken by node id."""
    return scores, sorted(scores, key=lambda v: (-scores[v], v))[:k]


def _by_score(recs: list[recommender.Recommendation], k: int):
    """Each candidate's K and the top-k nodes `rank` orders by it."""
    return {r.node: r.score for r in recs}, [r.node for r in recommender.rank(recs, k)]


def _by_relevance(recs: list[recommender.Recommendation], k: int):
    """Each candidate's R and the top-k nodes `rank` orders by it."""
    return (
        {r.node: r.relevance for r in recs},
        [r.node for r in recommender.rank(recs, k, "relevance")],
    )


def run_benchmark(
    dataset: Dataset,
    model: TrainedModel,
    k: int = DEFAULT_TOP_K,
    min_unique_reports: int = DEFAULT_MIN_UNIQUE_REPORTS,
) -> BenchmarkResult:
    """One event per consecutive test-session pair, scored by every method.

    Users unseen in training (or with too few unique training reports) are
    skipped and counted. Methods needing context artifacts fall back to
    frequency-only behavior for users excluded from the factorization.

    Each user is evaluated in two passes. The first advances the user's
    filter through all of the user's test views and keeps each event's
    Kalman and PARAFAC2-only factors; their intent scores then come from one
    stacked product per factor kind. The second scores, ranks and measures
    each event; the mass and frequency rankings, which only the current
    report's candidates decide, are made once per current report.
    """
    rows: dict[str, list[tuple[float, float, float, float]]] = {m: [] for m in ALL_METHODS}
    skipped_unseen = 0
    skipped_filtered = 0
    views = steady_views = missing_views = 0

    test_by_user = group_by_user(dataset.test)
    for uid in sorted(test_by_user):
        graph = model.graphs.get(uid)
        if graph is None:
            skipped_unseen += len(test_by_user[uid])
            continue
        if len(graph.nodes) < min_unique_reports:
            skipped_filtered += sum(max(len(s) - 1, 0) for s in test_by_user[uid])
            continue
        serving = model.serving.get(uid)
        state = copy.deepcopy(serving.final_state) if serving else None

        events: list[tuple[str, str]] = []  # (current, true next) report
        f_kal: list[np.ndarray] = []
        f_pf2: list[np.ndarray] = []
        for sess in test_by_user[uid]:
            hits = sess.hits
            for i, hit in enumerate(hits):
                if serving is not None:
                    settled = state.settled is not None
                    kal, pf2, state = serving_factor(serving, state, hit)
                    views += 1
                    steady_views += settled and state.settled is not None
                    # only a missing view's exact step leaves no gain
                    missing_views += state.gain is None
                if i + 1 >= len(hits):
                    continue
                if hit.report_id not in graph.nodes:
                    skipped_unseen += 1
                    continue
                events.append((hit.report_id, hits[i + 1].report_id))
                if serving is not None:
                    f_kal.append(kal)
                    f_pf2.append(pf2)
        if not events:
            continue
        if serving is not None:
            scores_kal = model.stacked_intent_scores(uid, np.array(f_kal))
            scores_pf2 = model.stacked_intent_scores(uid, np.array(f_pf2))
        else:
            scores_kal = scores_pf2 = [{}] * len(events)

        baselines: dict[str, dict] = {}
        for (u, v_star), s_kal, s_pf2 in zip(events, scores_kal, scores_pf2):
            candidates = recommender.enumerate_candidates(graph, u)
            if u not in baselines:
                baselines[u] = {
                    "mass": _top({v: graph.nodes[v].mass for v, _, _ in candidates}, k),
                    "frequency": _top({v: w for v, w, _ in candidates}, k),
                }
            kal = {
                v: recommender.score(graph, candidates, s_kal, variant)
                for v, variant in _VARIANT_ENUMS.items()
            }
            pf2 = recommender.score(graph, candidates, s_pf2, RelevanceVariant.SUM_I)
            # the context baselines score sum-i's R alone (alpha=1, W
            # stripped, beta=0); the variants score K
            methods = {
                **baselines[u],
                "context": _by_relevance(kal["sum-i"], k),
                "parafac2": _by_relevance(pf2, k),
                **{v: _by_score(kal[v], k) for v in VARIANTS},
            }
            for method, (scores, shown) in methods.items():
                precision, recall = precision_recall_at_k(shown, v_star, k)
                ndcg, auc = ndcg_at_k(shown, v_star, k), event_auc(scores, v_star)
                rows[method].append((ndcg, precision, recall, auc))

    reports = [report(m, rows[m]) for m in ALL_METHODS]
    if not any(r.events for r in reports):
        log.warning("no evaluable events in the test set")
    return BenchmarkResult(
        reports=reports,
        skipped_unseen=skipped_unseen,
        skipped_filtered=skipped_filtered,
        views=views,
        steady_views=steady_views,
        missing_views=missing_views,
    )


def results_csv(reports: list[EvalReport]) -> str:
    buf = io.StringIO()
    buf.write("method,ndcg,precision,recall,wauc,events\n")
    for r in reports:
        buf.write(
            f"{r.method},{r.ndcg:.6f},{r.precision:.6f},{r.recall:.6f},{r.wauc:.6f},{r.events}\n"
        )
    return buf.getvalue()


def results_table(reports: list[EvalReport]) -> str:
    lines = [f"{'Method':<12} {'NDCG':>8} {'Precision':>10} {'Recall':>8} {'w-AUC':>8}"]
    lines.append("-" * len(lines[0]))
    for r in reports:
        lines.append(
            f"{r.method:<12} {r.ndcg:>8.4f} {r.precision:>10.4f} {r.recall:>8.4f} {r.wauc:>8.4f}"
        )
    return "\n".join(lines)
