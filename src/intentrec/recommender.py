"""Recommendation scoring: combine transition weight, context relevance and
node mass; rank candidates; source group-based recommendations; apply
feedback updates."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .navgraph import ALPHA_BETA_FLOOR, NavGraph, intent_distances

DEFAULT_TOP_K = 10
DEFAULT_FEEDBACK_RATE = 0.1


class RelevanceVariant(str, Enum):
    SUM_I = "sum-i"
    MAX_I = "max-i"
    MAX_IXD = "max-ixd"
    DOT_IXD = "dot-ixd"


class FeedbackKind(str, Enum):
    EXPLICIT_POS = "explicit_pos"
    EXPLICIT_NEG = "explicit_neg"
    IMPLICIT_POS = "implicit_pos"
    IMPLICIT_NEG = "implicit_neg"


@dataclass(slots=True)
class Recommendation:
    node: str
    score: float  # K_uv
    relevance: float  # R_v
    weight: float  # W_uv (path product for 2-step nodes)
    mass: float  # M_v
    collaborative: bool
    source_user: str
    step: int
    alpha: float = 1.0
    beta: float = 0.0

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "K": self.score,
            "R": self.relevance,
            "W": self.weight,
            "M": self.mass,
            "alpha": self.alpha,
            "beta": self.beta,
            "collaborative": self.collaborative,
            "step": self.step,
        }


def _sum_i(items, distances: dict[str, float]) -> float:
    return sum([s for t, s in items if t in distances], 0.0)


def _dot_ixd(items, distances: dict[str, float]) -> float:
    return sum([s * distances[t] for t, s in items if t in distances], 0.0)


def _max_i(items, distances: dict[str, float]) -> float:
    values = [s for t, s in items if t in distances]
    return max(values) if values else 0.0


def _max_ixd(items, distances: dict[str, float]) -> float:
    values = [s * distances[t] for t, s in items if t in distances]
    return max(values) if values else 0.0


# each variant's collapse of the (intent, score) items over a node's distances
_COLLAPSE = {
    RelevanceVariant.SUM_I: _sum_i,
    RelevanceVariant.DOT_IXD: _dot_ixd,
    RelevanceVariant.MAX_I: _max_i,
    RelevanceVariant.MAX_IXD: _max_ixd,
}


def _collapse(variant: RelevanceVariant):
    try:
        return _COLLAPSE[variant]
    except KeyError:
        raise ValueError(f"unknown variant: {variant}") from None


def relevance(
    variant: RelevanceVariant,
    intent_scores: dict[str, float],
    distances: dict[str, float],
) -> float:
    """Collapse the scores of the intents reachable in distances (for IxD
    variants weighted by their path probabilities) into a single relevance,
    the float 0.0 when none is reachable."""
    return _collapse(variant)(intent_scores.items(), distances)


def enumerate_candidates(graph: NavGraph, u: str) -> list[tuple[str, float, int]]:
    """1-step and 2-step candidates of u with their path-product weights.

    2-step weights maximize W_uv * W_vw over intermediates; nodes already
    reachable in one step keep their 1-step entry only, and u is excluded.
    The list is memoized on the graph's index, as intent_distances' results
    are, and shared: callers must not mutate it.
    """
    index = graph._index
    if index is not None:
        memo = index.candidates.get(u)
        if memo is not None:
            return memo
    if u not in graph.nodes:
        raise KeyError(f"unknown node: {u!r}")
    index = graph._indexed()
    successors = index.successors
    one_step = dict(successors.get(u, ()))
    two_step: dict[str, float] = {}
    for v, w_uv in one_step.items():
        for w_node, w_vw in successors.get(v, ()):
            if w_node == u or w_node in one_step:
                continue
            prod = w_uv * w_vw
            if prod > two_step.get(w_node, 0.0):
                two_step[w_node] = prod
    out = [(v, w, 1) for v, w in sorted(one_step.items())]
    out += [(v, w, 2) for v, w in sorted(two_step.items())]
    index.candidates[u] = out
    return out


def score(
    graph: NavGraph,
    candidates: list[tuple[str, float, int]],
    intent_scores: dict[str, float],
    variant: RelevanceVariant,
    collaborative: bool = False,
) -> list[Recommendation]:
    """Score each enumerate_candidates entry with K = a*W*R + b*M, its
    relevance R taken from graph's own paths."""
    nodes, source_user = graph.nodes, graph.user_id
    collapse, items = _collapse(variant), intent_scores.items()
    memo = graph._indexed().distances  # intent_distances' memo, read first
    recs: list[Recommendation] = []
    for v, w_uv, step in candidates:
        attrs = nodes[v]
        alpha, beta, mass = attrs.alpha, attrs.beta, attrs.mass
        distances = memo.get(v)
        if distances is None:
            distances = intent_distances(graph, v)
        r_v = collapse(items, distances)
        # positional, in field order: keywords cost about a third of this loop
        recs.append(Recommendation(
            v, alpha * w_uv * r_v + beta * mass, r_v, w_uv, mass,
            collaborative, source_user, step, alpha, beta,
        ))
    return recs


def recommend(
    graph: NavGraph,
    u: str,
    intent_scores: dict[str, float],
    variant: RelevanceVariant = RelevanceVariant.SUM_I,
) -> list[Recommendation]:
    return score(graph, enumerate_candidates(graph, u), intent_scores, variant)


# rank's sort key for each `by` field, spelled out so that no element pays
# for a getattr call
_RANK_KEYS = {
    "score": lambda r: (-r.score, r.collaborative, -r.relevance, -r.weight, -r.mass, r.node),
    "relevance": lambda r: (-r.relevance, r.collaborative, -r.relevance, -r.weight, -r.mass, r.node),
}


def rank(
    recs: list[Recommendation], k: int = DEFAULT_TOP_K, by: str = "score"
) -> list[Recommendation]:
    """Order by the field `by` desc ("score", K, or "relevance", R, for the
    context-only baselines), own-graph before collaborative, then R, W, M
    desc, and keep the first k distinct nodes: a node offered by several
    source graphs is listed once, at its best entry."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(recs, key=_RANK_KEYS[by])
    top: dict[str, Recommendation] = {}
    for r in ordered:
        top.setdefault(r.node, r)
        if len(top) == k:
            break
    return list(top.values())


class Clustering(NamedTuple):
    """The user clustering of a fitted model, all of it that
    `group_recommend` reads: each user's cluster, and the source table
    `holders`. For each report, it lists the (user, cluster) of every graph
    user whose graph holds that report and at least one target, in user id
    order; an unclustered user is listed as cluster -1. `build` makes both
    from the model's graphs, once per loaded model. The table stays valid
    while no graph gains a node or changes a target flag: serving only
    scales alpha/beta."""

    assignments: dict[str, int]
    holders: dict[str, list[tuple[str, int]]]

    @classmethod
    def build(cls, assignments: dict[str, int], graphs: dict[str, NavGraph]) -> Clustering:
        holders: dict[str, list[tuple[str, int]]] = {}
        for uid in sorted(graphs):
            nodes = graphs[uid].nodes
            # the flags, not `targets()`, which would index every graph
            if any(a.target for a in nodes.values()):
                entry = (uid, assignments.get(uid, -1))
                for n in nodes:
                    holders.setdefault(n, []).append(entry)
        return cls(assignments, holders)


def group_recommend(
    user_id: str,
    clustering: Clustering,
    graphs: dict[str, NavGraph],
    u: str,
    intent_scores: dict[str, float],
    variant: RelevanceVariant = RelevanceVariant.SUM_I,
) -> list[Recommendation]:
    """Source novel candidates from more-experienced users' graphs.

    Source users sit in clusters ranked at or above the original user's,
    contain node u and at least one target: the `clustering.holders` of u
    that are in graphs. Intent scores stay the original user's; weights,
    masses and distances come from each source graph. Only nodes absent from
    the original user's graph are kept.
    """
    if user_id not in clustering.assignments:
        raise KeyError(f"user {user_id!r} not clustered")
    own_cluster = clustering.assignments[user_id]
    own_graph = graphs.get(user_id)
    own_nodes = own_graph.nodes if own_graph is not None else {}

    recs: list[Recommendation] = []
    for other_id, cluster in clustering.holders.get(u, ()):
        if other_id == user_id or cluster < own_cluster:
            continue
        g = graphs.get(other_id)
        if g is None:
            continue
        candidates = [c for c in enumerate_candidates(g, u) if c[0] not in own_nodes]
        if candidates:
            recs += score(g, candidates, intent_scores, variant, collaborative=True)
    return recs


def apply_feedback(
    graph: NavGraph,
    shown: list[Recommendation],
    kind: FeedbackKind,
    node: str | None = None,
    rate: float = DEFAULT_FEEDBACK_RATE,
) -> NavGraph:
    """Multiplicative update of the feedback factors of the implicated nodes.

    2-step recommendations receive half the multiplier effect; factors are
    floored at 0.01. Mutates and returns the graph.
    """
    shown_by_node = {r.node: r for r in shown}

    def scale(n: str, multiplier: float) -> None:
        rec = shown_by_node.get(n)
        if rec is not None and rec.step == 2:
            multiplier = 1.0 + (multiplier - 1.0) / 2.0
        attrs = graph.nodes[n]
        attrs.alpha = max(attrs.alpha * multiplier, ALPHA_BETA_FLOOR)
        attrs.beta = max(attrs.beta * multiplier, ALPHA_BETA_FLOOR)

    if kind is FeedbackKind.IMPLICIT_NEG:
        for r in shown:
            if r.node in graph.nodes:
                scale(r.node, 1.0 - rate / 4.0)
        return graph

    if node is None or node not in shown_by_node:
        raise ValueError(f"feedback target {node!r} not in the shown list")
    if node not in graph.nodes:
        raise ValueError(f"feedback target {node!r} not in the graph")
    if kind is FeedbackKind.EXPLICIT_POS:
        scale(node, 1.0 + rate)
    elif kind is FeedbackKind.EXPLICIT_NEG:
        scale(node, 1.0 - rate)
    elif kind is FeedbackKind.IMPLICIT_POS:
        scale(node, 1.0 + rate / 2.0)
    else:
        raise ValueError(f"unknown feedback kind: {kind}")
    return graph
