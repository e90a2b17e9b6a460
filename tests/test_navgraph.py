import itertools
import json
import math

import numpy as np
import pytest

from intentrec.navgraph import (
    NavGraph,
    NodeAttrs,
    build_graph,
    detect_targets,
    intent_distances,
)
from intentrec.recommender import FeedbackKind, apply_feedback, rank, recommend

from conftest import make_session, random_sessions


class TestBuildGraph:
    def test_transition_weights_hand_example(self):
        sessions = [
            make_session("u1", ["A", "B", "A", "C"]),
            make_session("u1", ["A", "B"], start=10_000),
        ]
        g = build_graph(sessions)
        assert g.edges[("A", "B")] == pytest.approx(2 / 3)
        assert g.edges[("A", "C")] == pytest.approx(1 / 3)
        assert g.edges[("B", "A")] == pytest.approx(1.0)

    def test_single_hit_session(self):
        g = build_graph([make_session("u1", ["A"])])
        assert list(g.nodes) == ["A"]
        assert g.edges == {}
        assert g.nodes["A"].mass == pytest.approx(1.0)

    def test_dwell_and_mass_two_hits(self):
        g = build_graph([make_session("u1", ["A", "B"], gap=100)])
        assert g.nodes["A"].dwell_seconds == pytest.approx(100)
        assert g.nodes["B"].dwell_seconds == pytest.approx(100)  # median imputation
        assert g.nodes["A"].mass == pytest.approx(0.5)
        assert g.nodes["B"].mass == pytest.approx(0.5)

    def test_consecutive_repeats_collapse(self):
        g = build_graph([make_session("u1", ["A", "A", "B"])])
        assert ("A", "A") not in g.edges
        assert g.edges[("A", "B")] == pytest.approx(1.0)

    def test_no_cross_session_edges(self):
        sessions = [
            make_session("u1", ["A", "B"]),
            make_session("u1", ["C", "D"], start=10_000),
        ]
        g = build_graph(sessions)
        assert ("B", "C") not in g.edges

    def test_mixed_users_rejected(self):
        with pytest.raises(ValueError):
            build_graph([make_session("u1", ["A"]), make_session("u2", ["B"])])

    def test_empty_input(self):
        g = build_graph([])
        assert g.nodes == {}

    def test_row_stochastic_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = build_graph(random_sessions(rng))
            out_sums = {}
            for (u, _), w in g.edges.items():
                out_sums[u] = out_sums.get(u, 0.0) + w
            for total in out_sums.values():
                assert total == pytest.approx(1.0, abs=1e-9)
            assert g.nodes
            total_mass = sum(a.mass for a in g.nodes.values())
            assert total_mass == pytest.approx(1.0, abs=1e-9)


class TestDetectTargets:
    def _graph(self, edges):
        g = NavGraph(user_id="u1")
        for u, v in edges:
            g.nodes.setdefault(u, NodeAttrs())
            g.nodes.setdefault(v, NodeAttrs())
            g.edges[(u, v)] = 1.0
        return g

    def test_hand_example(self):
        g = self._graph([("A", "C"), ("B", "C"), ("C", "D")])
        assert detect_targets(g) == {"C", "D"}
        assert g.nodes["C"].target == 1
        assert g.nodes["A"].target == 0

    def test_single_isolated_node(self):
        g = NavGraph(user_id="u1", nodes={"A": NodeAttrs()})
        assert detect_targets(g) == {"A"}

    def test_two_cycle(self):
        g = self._graph([("A", "B"), ("B", "A")])
        assert detect_targets(g) == {"A", "B"}

    def test_non_empty_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = build_graph(random_sessions(rng))
            assert detect_targets(g), "every non-empty graph must yield targets"


def _exhaustive_best(graph: NavGraph, source: str, target: str) -> float | None:
    """Max path probability by enumerating all simple paths."""
    if source == target:
        return 1.0
    best = None
    succ = {}
    for (u, v), w in graph.edges.items():
        succ.setdefault(u, []).append((v, w))

    def walk(node, prob, visited):
        nonlocal best
        for v, w in succ.get(node, []):
            if v in visited:
                continue
            p = prob * w
            if v == target:
                if best is None or p > best:
                    best = p
            else:
                walk(v, p, visited | {v})

    walk(source, 1.0, {source})
    return best


class TestIntentDistances:
    def test_chain_hand_example(self):
        g = NavGraph(user_id="u1")
        for n in "uvt":
            g.nodes[n] = NodeAttrs()
        g.edges[("u", "v")] = 0.5
        g.edges[("v", "t")] = 0.4
        g.nodes["t"].target = 1
        d = intent_distances(g, "u")
        assert d == pytest.approx({"t": 0.2})

    def test_source_is_target(self):
        g = NavGraph(user_id="u1", nodes={"A": NodeAttrs(target=1)})
        assert intent_distances(g, "A") == {"A": 1.0}

    def test_best_of_two_paths(self):
        g = NavGraph(user_id="u1")
        for n in "sabt":
            g.nodes[n] = NodeAttrs()
        g.nodes["t"].target = 1
        g.edges[("s", "a")] = 0.3
        g.edges[("a", "t")] = 1.0
        g.edges[("s", "b")] = 0.6
        g.edges[("b", "t")] = 0.2
        assert intent_distances(g, "s")["t"] == pytest.approx(0.3)

    def test_unknown_source(self):
        with pytest.raises(KeyError):
            intent_distances(NavGraph(user_id="u1"), "missing")

    def test_unreachable_targets_omitted(self):
        g = NavGraph(user_id="u1")
        for n in "ab":
            g.nodes[n] = NodeAttrs(target=1)
        d = intent_distances(g, "a")
        assert "b" not in d

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = build_graph(random_sessions(rng, n_reports=6))
            detect_targets(g)
            source = sorted(g.nodes)[0]
            d = intent_distances(g, source)
            for t in g.targets():
                expected = _exhaustive_best(g, source, t)
                if expected is None:
                    assert t not in d
                else:
                    assert math.log(d[t]) == pytest.approx(
                        math.log(expected), abs=1e-12
                    )

    def test_adding_edge_never_decreases_probability(self):
        rng = np.random.default_rng(3)
        g = build_graph(random_sessions(rng, n_reports=5))
        detect_targets(g)
        source = sorted(g.nodes)[0]
        before = intent_distances(g, source)
        # renormalizing would change weights, so bolt on a fresh source edge
        nodes = sorted(g.nodes)
        if len(nodes) >= 2 and (source, nodes[-1]) not in g.edges:
            g2 = NavGraph(user_id="u1", nodes=dict(g.nodes), edges=dict(g.edges))
            g2.edges[(source, nodes[-1])] = 1.0
            after = intent_distances(g2, source)
            for t, p in before.items():
                assert after[t] >= p - 1e-12


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(5)
        g = build_graph(random_sessions(rng))
        detect_targets(g)
        g2 = NavGraph.from_json(json.loads(json.dumps(g.to_json())))
        assert g2.user_id == g.user_id
        assert set(g2.nodes) == set(g.nodes)
        for n in g.nodes:
            assert g2.nodes[n].mass == pytest.approx(g.nodes[n].mass)
            assert g2.nodes[n].target == g.nodes[n].target
        assert g2.edges == pytest.approx(g.edges)


def _cold(g: NavGraph) -> NavGraph:
    """A copy of g that has answered no query yet."""
    return NavGraph.from_json(g.to_json())


class TestIndex:
    def test_memoized_distances_match_cold_queries(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = build_graph(random_sessions(rng, n_sessions=5))
            detect_targets(g)
            scores = {t: float(rng.uniform()) for t in g.targets()}
            for _ in range(4):
                for source in sorted(g.nodes):
                    cold = _cold(g)
                    assert intent_distances(g, source) == intent_distances(cold, source)
                    assert intent_distances(g, source) is intent_distances(g, source)
                current = sorted(g.nodes)[int(rng.integers(len(g.nodes)))]
                shown = rank(recommend(g, current, scores))
                if shown:
                    apply_feedback(g, shown, FeedbackKind.EXPLICIT_POS, node=shown[0].node)
                    apply_feedback(g, shown, FeedbackKind.IMPLICIT_NEG)

    def test_detect_targets_refreshes_index(self):
        g = NavGraph(user_id="u1")
        for n in "ABCD":
            g.nodes[n] = NodeAttrs()
        g.edges[("A", "C")] = 1.0
        g.edges[("B", "C")] = 1.0
        detect_targets(g)
        assert g.targets() == ("C",)
        assert intent_distances(g, "A") == {"C": 1.0}
        assert g.successors("C") == ()

        g.edges[("C", "D")] = 0.5
        assert detect_targets(g) == {"C", "D"}
        assert g.targets() == ("C", "D")
        assert g.successors("C") == (("D", 0.5),)
        assert intent_distances(g, "A") == {"C": 1.0, "D": 0.5}
        assert intent_distances(g, "A") == intent_distances(_cold(g), "A")

    def test_successors_match_edge_scan(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            g = build_graph(random_sessions(rng))
            for u in sorted(g.nodes) + ["missing"]:
                scan = sorted((v, w) for (a, v), w in g.edges.items() if a == u)
                assert g.successors(u) == tuple(scan)
                assert isinstance(g.successors(u), tuple)
