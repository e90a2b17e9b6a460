"""Per-user navigation graphs: Markov transition weights, target detection,
node masses and probabilistic distances to targets."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .models import Session

ALPHA_BETA_FLOOR = 0.01


@dataclass
class NodeAttrs:
    target: int = 0
    mass: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    dwell_seconds: float = 0.0


@dataclass
class _Index:
    """What queries read from a graph: adjacency sorted by successor id, as
    weights and as Dijkstra lengths -ln(W), the sorted targets, and each
    queried source's intent distances and recommendation candidates."""
    successors: dict[str, tuple[tuple[str, float], ...]]
    lengths: dict[str, tuple[tuple[str, float], ...]]
    targets: tuple[str, ...]
    distances: dict[str, dict[str, float]] = field(default_factory=dict)
    candidates: dict[str, list[tuple[str, float, int]]] = field(default_factory=dict)


@dataclass
class NavGraph:
    """A user's navigation graph.

    The first query (successors, targets, intent_distances or
    `recommender.enumerate_candidates`) indexes the edges and target flags;
    detect_targets drops the index. Feedback only scales alpha/beta, which
    no query reads, so the index stays valid between fits. Query results are
    shared with the index and must not be mutated.
    """
    user_id: str
    nodes: dict[str, NodeAttrs] = field(default_factory=dict)
    edges: dict[tuple[str, str], float] = field(default_factory=dict)
    transition_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    _index: _Index | None = field(default=None, init=False, repr=False, compare=False)

    def _indexed(self) -> _Index:
        if self._index is None:
            adjacency: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
            for (u, v), w in sorted(self.edges.items()):
                adjacency.setdefault(u, []).append((v, w))
            self._index = _Index(
                successors={u: tuple(vs) for u, vs in adjacency.items()},
                lengths={u: tuple((v, -math.log(w)) for v, w in vs) for u, vs in adjacency.items()},
                targets=tuple(sorted(n for n, a in self.nodes.items() if a.target)),
            )
        return self._index

    def successors(self, u: str) -> tuple[tuple[str, float], ...]:
        return self._indexed().successors.get(u, ())

    def targets(self) -> tuple[str, ...]:
        return self._indexed().targets

    def to_json(self) -> dict:
        return {
            "user_id": self.user_id,
            "nodes": [
                {"id": n, "target": a.target, "mass": a.mass, "alpha": a.alpha, "beta": a.beta}
                for n, a in sorted(self.nodes.items())
            ],
            "edges": [
                {"from": u, "to": v, "w": w, "count": self.transition_counts.get((u, v), 0)}
                for (u, v), w in sorted(self.edges.items())
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "NavGraph":
        """The graph `to_json` wrote; TypeError for a field of another type
        than it writes: ids str, target and count int, the others float."""
        g = cls(user_id=doc["user_id"])
        if type(g.user_id) is not str:
            raise TypeError(f"user id {g.user_id!r} is not a string")
        for n in doc["nodes"]:
            node, target, mass, alpha, beta = n["id"], n["target"], n["mass"], n["alpha"], n["beta"]
            if not (type(node) is str and type(target) is int
                    and type(mass) is type(alpha) is type(beta) is float):
                raise TypeError(f"node {node!r} of {g.user_id} holds a field of another type")
            g.nodes[node] = NodeAttrs(target=target, mass=mass, alpha=alpha, beta=beta)
        for e in doc["edges"]:
            u, v, w, count = e["from"], e["to"], e["w"], e["count"]
            if not (type(u) is type(v) is str and type(w) is float and type(count) is int):
                raise TypeError(f"edge {u!r} -> {v!r} of {g.user_id} holds a field of another type")
            g.edges[(u, v)] = w
            g.transition_counts[(u, v)] = count
        return g


def build_graph(sessions: list[Session]) -> NavGraph:
    """Build the weighted navigation graph from one user's sessions.

    Consecutive identical reports collapse into dwell time (no self loops).
    The final hit of each session gets the user's median dwell as its own.
    """
    if not sessions:
        return NavGraph(user_id="")
    user_id = sessions[0].user_id
    if any(s.user_id != user_id for s in sessions):
        raise ValueError("sessions belong to different users")

    g = NavGraph(user_id=user_id)
    dwell: dict[str, float] = {}
    observed_dwells: list[float] = []
    last_nodes: list[str] = []  # final node of each session, dwell imputed later

    for sess in sessions:
        prev: str | None = None
        for i, hit in enumerate(sess.hits):
            node = hit.report_id
            if node not in g.nodes:
                g.nodes[node] = NodeAttrs()
            if i + 1 < len(sess.hits):
                d = sess.hits[i + 1].timestamp - hit.timestamp
                dwell[node] = dwell.get(node, 0.0) + d
                observed_dwells.append(d)
            if prev is not None and prev != node:
                key = (prev, node)
                g.transition_counts[key] = g.transition_counts.get(key, 0) + 1
            prev = node
        if sess.hits:
            last_nodes.append(sess.hits[-1].report_id)

    import statistics  # not at the top: its imports cost a cold `recommend` ~4 ms

    median_dwell = statistics.median(observed_dwells) if observed_dwells else 0.0
    for node in last_nodes:
        dwell[node] = dwell.get(node, 0.0) + median_dwell

    out_totals: dict[str, int] = {}
    for (u, _), c in g.transition_counts.items():
        out_totals[u] = out_totals.get(u, 0) + c
    for (u, v), c in g.transition_counts.items():
        g.edges[(u, v)] = c / out_totals[u]

    total_dwell = sum(dwell.get(n, 0.0) for n in g.nodes)
    for n, attrs in g.nodes.items():
        attrs.dwell_seconds = dwell.get(n, 0.0)
        if total_dwell > 0:
            attrs.mass = dwell.get(n, 0.0) / total_dwell
        else:
            attrs.mass = 1.0 / len(g.nodes)
    return g


def detect_targets(graph: NavGraph) -> set[str]:
    """Flag nodes whose distinct-edge in-degree is >= the mean in-degree."""
    if not graph.nodes:
        return set()
    indeg = {n: 0 for n in graph.nodes}
    for (_, v) in graph.edges:
        indeg[v] += 1
    mean = sum(indeg.values()) / len(indeg)
    targets = {n for n, d in indeg.items() if d >= mean}
    for n, attrs in graph.nodes.items():
        attrs.target = 1 if n in targets else 0
    graph._index = None
    return targets


def intent_distances(graph: NavGraph, source: str) -> dict[str, float]:
    """Max path probability from source to each reachable target.

    Dijkstra over edge lengths -ln(W); an empty path has probability 1, so a
    source that is itself a target maps to 1. The result is memoized on the
    graph's index, and a memoized source is answered before anything else.
    """
    index = graph._index
    if index is not None:
        memo = index.distances.get(source)
        if memo is not None:
            return memo
    if source not in graph.nodes:
        raise KeyError(f"unknown source node: {source!r}")
    index = graph._indexed()

    dist: dict[str, float] = {source: 0.0}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, length in index.lengths.get(u, ()):
            nd = d + length
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heappush(heap, (nd, v))

    out = {t: math.exp(-dist[t]) for t in index.targets if t in dist}
    index.distances[source] = out
    return out
