import copy
import json

import numpy as np
import pytest

from intentrec import recommender
from intentrec.navgraph import NavGraph, NodeAttrs, build_graph, detect_targets
from intentrec.recommender import (
    Clustering,
    FeedbackKind,
    RelevanceVariant,
    apply_feedback,
    enumerate_candidates,
    group_recommend,
    rank,
    recommend,
    relevance,
    score,
)

from conftest import make_session, random_sessions, rec_fields, scan_group_recommend


def _graph(edges, masses=None, targets=()):
    g = NavGraph(user_id="u1")
    for u, v in edges:
        g.nodes.setdefault(u, NodeAttrs())
        g.nodes.setdefault(v, NodeAttrs())
    for (u, v), w in edges.items():
        g.edges[(u, v)] = w
    for n, m in (masses or {}).items():
        g.nodes[n].mass = m
    for t in targets:
        g.nodes[t].target = 1
    return g


class TestRelevance:
    def test_hand_examples(self):
        scores = {"t1": 0.2, "t2": 0.3}
        dists = {"t1": 0.5, "t2": 0.4}
        assert relevance(RelevanceVariant.SUM_I, scores, dists) == pytest.approx(0.5)
        assert relevance(RelevanceVariant.MAX_I, scores, dists) == pytest.approx(0.3)
        assert relevance(RelevanceVariant.MAX_IXD, scores, dists) == pytest.approx(0.12)
        assert relevance(RelevanceVariant.DOT_IXD, scores, dists) == pytest.approx(0.22)

    def test_empty_scores_zero(self):
        assert relevance(RelevanceVariant.SUM_I, {}, {}) == 0.0

    @pytest.mark.parametrize("variant", list(RelevanceVariant))
    def test_no_reachable_intent_is_float_zero(self, variant):
        # an int 0 would serialise as "R": 0 and change recommendations.jsonl
        assert type(relevance(variant, {"t": 0.8}, {})) is float
        g = _graph({("u", "a"): 0.5, ("u", "t"): 0.5}, targets=("t",))
        recs = {r.node: r for r in score(g, enumerate_candidates(g, "u"), {"t": 0.8}, variant)}
        assert recs["t"].relevance > 0.0  # "a" has no path to the target
        assert type(recs["a"].relevance) is float and recs["a"].relevance == 0.0
        assert json.dumps(recs["a"].to_json()["R"]) == "0.0"

    def test_sum_dominates_max(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            scores = {f"t{i}": float(rng.uniform()) for i in range(n)}
            dists = {f"t{i}": float(rng.uniform()) for i in range(n)}
            s = relevance(RelevanceVariant.SUM_I, scores, dists)
            m = relevance(RelevanceVariant.MAX_I, scores, dists)
            assert s >= m - 1e-12


class TestCandidates:
    def test_one_and_two_step(self):
        g = _graph({("u", "a"): 0.5, ("u", "b"): 0.5, ("a", "c"): 1.0, ("b", "c"): 0.8, ("b", "u"): 0.2})
        cands = enumerate_candidates(g, "u")
        by_node = {v: (w, s) for v, w, s in cands}
        assert by_node["a"] == (0.5, 1)
        assert by_node["b"] == (0.5, 1)
        # two-step weight maximizes over intermediates: via a (0.5) beats via b (0.4)
        assert by_node["c"] == (pytest.approx(0.5), 2)
        assert "u" not in by_node  # the current node is never a candidate

    def test_one_step_nodes_not_duplicated(self):
        g = _graph({("u", "a"): 1.0, ("a", "b"): 0.5, ("a", "a2"): 0.5, ("u", "b"): 0.0001})
        g.edges[("u", "a")] = 0.9
        g.edges[("u", "b")] = 0.1
        cands = enumerate_candidates(g, "u")
        assert sum(1 for v, _, _ in cands if v == "b") == 1

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            enumerate_candidates(NavGraph(user_id="u1"), "nope")


def _cold(g: NavGraph) -> NavGraph:
    """A copy of g that has answered no query yet."""
    return NavGraph.from_json(g.to_json())


class TestCandidateMemo:
    def test_memo_matches_fresh_enumeration_and_survives_feedback(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            g = build_graph(random_sessions(rng, n_sessions=5))
            detect_targets(g)
            scores = {t: float(rng.uniform()) for t in g.targets()}
            for _ in range(4):
                for u in sorted(g.nodes):
                    memo = enumerate_candidates(g, u)
                    assert memo is enumerate_candidates(g, u)
                    assert memo == enumerate_candidates(_cold(g), u)
                # feedback only scales alpha/beta, which scoring reads anew
                current = sorted(g.nodes)[int(rng.integers(len(g.nodes)))]
                memo = enumerate_candidates(g, current)
                shown = rank(recommend(g, current, scores))
                if shown:
                    apply_feedback(g, shown, FeedbackKind.EXPLICIT_POS, node=shown[0].node)
                    apply_feedback(g, shown, FeedbackKind.IMPLICIT_NEG)
                assert enumerate_candidates(g, current) is memo
                assert recommend(g, current, scores) == recommend(_cold(g), current, scores)

    def test_detect_targets_drops_the_memo(self):
        g = _graph({("u", "a"): 1.0, ("a", "b"): 1.0}, targets=("b",))
        first = enumerate_candidates(g, "u")
        assert first == [("a", 1.0, 1), ("b", 1.0, 2)]
        g.nodes["c"] = NodeAttrs()
        g.edges[("u", "a")] = g.edges[("u", "c")] = 0.5
        detect_targets(g)
        again = enumerate_candidates(g, "u")
        assert again is not first
        assert again == [("a", 0.5, 1), ("c", 0.5, 1), ("b", 0.5, 2)]
        assert first == [("a", 1.0, 1), ("b", 1.0, 2)]

    def test_group_recommend_leaves_the_memo_unchanged(self):
        novice = build_graph([make_session("novice", ["hub", "x"])])
        expert = build_graph([make_session("expert", ["hub", "x", "t"]),
                              make_session("expert", ["hub", "deep", "t"])])
        for g in (novice, expert):
            detect_targets(g)
        graphs = {"novice": novice, "expert": expert}
        clustering = Clustering.build({"novice": 0, "expert": 3}, graphs)
        memo = enumerate_candidates(expert, "hub")
        before = list(memo)
        recs = group_recommend("novice", clustering, graphs, "hub", {"t": 0.8})
        assert "x" in {v for v, _, _ in before} and "x" not in {r.node for r in recs}
        assert enumerate_candidates(expert, "hub") is memo and memo == before

    def test_deepcopy_of_a_queried_graph_returns_the_same_candidates(self):
        rng = np.random.default_rng(31)
        g = build_graph(random_sessions(rng, n_sessions=6, n_reports=8))
        detect_targets(g)
        scores = {t: float(rng.uniform()) for t in g.targets()}
        served = {u: recommend(g, u, scores) for u in sorted(g.nodes)}
        twin = copy.deepcopy(g)
        for u in sorted(g.nodes):
            assert enumerate_candidates(twin, u) == enumerate_candidates(g, u)
            assert enumerate_candidates(twin, u) is not enumerate_candidates(g, u)
            assert recommend(twin, u, scores) == served[u]



class TestScoreCandidates:
    def test_score_identity(self):
        g = _graph(
            {("u", "a"): 0.7, ("u", "b"): 0.3, ("a", "t"): 1.0, ("b", "t"): 1.0},
            masses={"a": 0.4, "b": 0.1},
            targets=("t",),
        )
        g.nodes["a"].alpha = 1.5
        g.nodes["a"].beta = 0.5
        recs = score(g, enumerate_candidates(g, "u"), {"t": 0.8}, RelevanceVariant.DOT_IXD)
        assert {r.node for r in recs} == {"a", "b", "t"}
        for r in recs:
            attrs = g.nodes[r.node]
            assert r.relevance > 0.0
            expected = attrs.alpha * r.weight * r.relevance + attrs.beta * r.mass
            assert r.score == pytest.approx(expected, abs=1e-15)

    def test_recommend_restricts_scores_to_reachable_targets(self):
        # two disjoint branches: each candidate sees only its own target's score
        g = _graph(
            {("u", "a"): 0.5, ("u", "b"): 0.5, ("a", "t1"): 1.0, ("b", "t2"): 1.0},
            targets=("t1", "t2"),
        )
        recs = {r.node: r for r in recommend(g, "u", {"t1": 0.9, "t2": 0.1})}
        assert recs["a"].relevance == pytest.approx(0.9)
        assert recs["b"].relevance == pytest.approx(0.1)


class TestRank:
    def _rec(self, node, score, collab=False, rel=0.0, w=0.0, m=0.0, src="u1"):
        from intentrec.recommender import Recommendation

        return Recommendation(
            node=node, score=score, relevance=rel, weight=w, mass=m,
            collaborative=collab, source_user=src, step=1,
        )

    def test_order_and_tiebreaks(self):
        recs = [
            self._rec("a", 0.5),
            self._rec("b", 0.9),
            self._rec("c", 0.5, collab=True),
            self._rec("d", 0.5, rel=0.4),
        ]
        ordered = [r.node for r in rank(recs, k=4)]
        assert ordered == ["b", "d", "a", "c"]

    def test_relevance_tiebreaks(self):
        # equal R: own graph first, then W, M desc, then node id; the score
        # field is ignored
        recs = [
            self._rec("collab", 9.0, collab=True, rel=0.5, w=0.9, m=0.9),
            self._rec("low-w", 8.0, rel=0.5, w=0.1, m=0.9),
            self._rec("b", 7.0, rel=0.5, w=0.3, m=0.2),
            self._rec("a", 6.0, rel=0.5, w=0.3, m=0.2),
            self._rec("low-m", 5.0, rel=0.5, w=0.3, m=0.1),
            self._rec("top", 0.0, rel=0.9),
        ]
        ordered = [r.node for r in rank(recs, k=6, by="relevance")]
        assert ordered == ["top", "a", "b", "low-m", "low-w", "collab"]

    def test_node_from_two_sources_is_listed_once_at_its_best_entry(self):
        best = self._rec("x", 0.0, collab=True, rel=0.4, w=0.6, src="u3")
        recs = [
            self._rec("x", 0.0, collab=True, rel=0.4, w=0.2, src="u2"),
            self._rec("y", 0.0, rel=0.4, w=0.1),
            best,
            self._rec("x", 0.0, collab=True, rel=0.1, w=0.9, src="u4"),
        ]
        ranked = rank(recs, k=3, by="relevance")
        assert [r.node for r in ranked] == ["y", "x"]
        assert ranked[1] is best

    def test_k_truncates(self):
        recs = [self._rec(f"n{i}", float(i)) for i in range(5)]
        assert len(rank(recs, k=2)) == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            rank([], k=0)


class TestGroupRecommend:
    def _setup(self):
        novice = build_graph([make_session("novice", ["hub", "x"])])
        expert = build_graph(
            [make_session("expert", ["hub", "deep", "t"], gap=30)] * 2
        )
        detect_targets(novice)
        detect_targets(expert)
        graphs = {"novice": novice, "expert": expert}
        return graphs, {"novice": 0, "expert": 3}

    def _check(self, user_id, assignments, graphs, u, scores=None, table=None):
        """group_recommend over the source table of `table` (graphs if
        None), checked field for field against the scan of graphs."""
        scores = {"t": 0.8} if scores is None else scores
        clustering = Clustering.build(assignments, graphs if table is None else table)
        recs = group_recommend(user_id, clustering, graphs, u, scores)
        expected = scan_group_recommend(user_id, assignments, graphs, u, scores)
        assert rec_fields(recs) == rec_fields(expected)
        return recs

    def test_sources_novel_nodes_from_experienced_users(self):
        graphs, assignments = self._setup()
        recs = self._check("novice", assignments, graphs, "hub")
        nodes = {r.node for r in recs}
        assert "deep" in nodes
        assert all(r.collaborative for r in recs)
        assert all(r.source_user == "expert" for r in recs)
        assert "x" not in nodes  # already known to the novice

    def test_ranked_list_holds_distinct_nodes(self):
        graphs, assignments = self._setup()
        graphs["expert2"] = build_graph(
            [make_session("expert2", ["hub", "deep", "t"], gap=30)] * 2
        )
        detect_targets(graphs["expert2"])
        assignments["expert2"] = 3
        recs = self._check("novice", assignments, graphs, "hub")
        assert [r.node for r in recs].count("deep") == 2
        ranked = rank(recs, k=10)
        nodes = [r.node for r in ranked]
        assert len(nodes) == len(set(nodes))
        assert set(nodes) == {r.node for r in recs}
        assert ranked[nodes.index("deep")].source_user == "expert"

    def test_less_experienced_users_excluded(self):
        graphs, assignments = self._setup()
        assignments["expert"] = 0
        assignments["novice"] = 3
        assert self._check("novice", assignments, graphs, "hub") == []

    def test_unclustered_user_rejected(self):
        graphs, assignments = self._setup()
        with pytest.raises(KeyError):
            group_recommend("ghost", Clustering.build(assignments, graphs), graphs, "hub", {})

    def test_table_lists_holders_in_id_order(self):
        # whatever order the graphs come in, as the scan of sorted ids did
        graphs, assignments = self._setup()
        for uid in ("expert3", "expert1", "expert2"):
            graphs[uid] = build_graph([make_session(uid, ["hub", uid, "t"], gap=30)] * 2)
            detect_targets(graphs[uid])
            assignments[uid] = 3
        clustering = Clustering.build(assignments, graphs)
        assert clustering.holders["hub"] == [
            ("expert", 3), ("expert1", 3), ("expert2", 3), ("expert3", 3), ("novice", 0),
        ]
        recs = self._check("novice", assignments, graphs, "hub")
        sources = [r.source_user for r in recs if r.node == "t"]
        assert sources == ["expert", "expert1", "expert2", "expert3"]

    def test_unclustered_source_sits_below_every_cluster(self):
        # a graph user without a cluster is listed as cluster -1: a source
        # only for a user of cluster -1 or below, never for a clustered one
        graphs, assignments = self._setup()
        del assignments["expert"]
        clustering = Clustering.build(assignments, graphs)
        assert ("expert", -1) in clustering.holders["hub"]
        assert self._check("novice", assignments, graphs, "hub") == []
        assignments["novice"] = -1
        assert {r.node for r in self._check("novice", assignments, graphs, "hub")} == {"deep", "t"}

    def test_source_without_targets_is_not_listed(self):
        graphs, assignments = self._setup()
        for attrs in graphs["expert"].nodes.values():
            attrs.target = 0
        clustering = Clustering.build(assignments, graphs)
        assert all(uid != "expert" for uid, _ in clustering.holders.get("hub", ()))
        assert self._check("novice", assignments, graphs, "hub") == []

    def test_requesting_user_without_a_graph(self):
        # a clustered user without a graph keeps every source's candidates
        graphs, assignments = self._setup()
        graphs["novice"] = build_graph([make_session("novice", ["hub", "deep"])])
        detect_targets(graphs["novice"])
        assert {r.node for r in self._check("novice", assignments, graphs, "hub")} == {"t"}
        del graphs["novice"]
        assert {r.node for r in self._check("novice", assignments, graphs, "hub")} == {"deep", "t"}

    def test_source_missing_from_the_graphs_handed_in(self):
        # the table is built from every graph; a call handed fewer graphs
        # reads only those
        graphs, assignments = self._setup()
        graphs["expert2"] = build_graph([make_session("expert2", ["hub", "y", "t"], gap=30)] * 2)
        detect_targets(graphs["expert2"])
        assignments["expert2"] = 3
        table = dict(graphs)
        del graphs["expert"]
        recs = self._check("novice", assignments, graphs, "hub", table=table)
        assert {r.source_user for r in recs} == {"expert2"}

    def test_source_without_novel_candidates_is_not_scored(self, monkeypatch):
        graphs, assignments = self._setup()
        graphs["twin"] = build_graph([make_session("twin", ["hub", "x"])] * 2)
        detect_targets(graphs["twin"])
        assignments["twin"] = 3
        clustering = Clustering.build(assignments, graphs)
        scored = []
        monkeypatch.setattr(
            recommender, "score", lambda g, *args, **kw: scored.append(g.user_id) or []
        )
        group_recommend("novice", clustering, graphs, "hub", {"t": 0.8})
        assert scored == ["expert"]


class TestFeedback:
    def _shown(self, g):
        return recommend(g, "u", {})

    def _graph(self):
        gr = NavGraph(user_id="u1")
        for n in ("u", "a", "b"):
            gr.nodes[n] = NodeAttrs(mass=0.3)
        gr.edges[("u", "a")] = 0.5
        gr.edges[("u", "b")] = 0.5
        gr.edges[("a", "c")] = 1.0
        gr.nodes["c"] = NodeAttrs(mass=0.1)
        return gr

    def test_explicit_positive(self):
        g = self._graph()
        shown = self._shown(g)
        apply_feedback(g, shown, FeedbackKind.EXPLICIT_POS, node="a", rate=0.1)
        assert g.nodes["a"].alpha == pytest.approx(1.1)
        assert g.nodes["a"].beta == pytest.approx(1.1)
        assert g.nodes["b"].alpha == pytest.approx(1.0)

    def test_explicit_negative_and_floor(self):
        g = self._graph()
        shown = self._shown(g)
        g.nodes["a"].alpha = 0.011
        g.nodes["a"].beta = 0.011
        apply_feedback(g, shown, FeedbackKind.EXPLICIT_NEG, node="a", rate=0.5)
        assert g.nodes["a"].alpha == pytest.approx(0.01)  # floored

    def test_implicit_positive_half_rate(self):
        g = self._graph()
        shown = self._shown(g)
        apply_feedback(g, shown, FeedbackKind.IMPLICIT_POS, node="b", rate=0.2)
        assert g.nodes["b"].alpha == pytest.approx(1.1)

    def test_implicit_negative_hits_all_shown(self):
        g = self._graph()
        shown = self._shown(g)
        apply_feedback(g, shown, FeedbackKind.IMPLICIT_NEG, rate=0.4)
        assert g.nodes["a"].alpha == pytest.approx(0.9)
        assert g.nodes["b"].alpha == pytest.approx(0.9)

    def test_two_step_gets_half_effect(self):
        g = self._graph()
        shown = self._shown(g)
        two_step = next(r for r in shown if r.step == 2)
        apply_feedback(g, shown, FeedbackKind.EXPLICIT_POS, node=two_step.node, rate=0.2)
        assert g.nodes[two_step.node].alpha == pytest.approx(1.1)  # half of +0.2

    def test_unshown_node_rejected(self):
        g = self._graph()
        with pytest.raises(ValueError):
            apply_feedback(g, self._shown(g), FeedbackKind.EXPLICIT_POS, node="zzz")


class TestWarmGraphs:
    def test_warm_replay_serves_cold_lists(self):
        # graphs that keep their index across requests serve the same lists
        # as graphs rebuilt cold before every request
        rng = np.random.default_rng(23)
        users = [f"u{i}" for i in range(6)]
        warm = {}
        for uid in users:
            warm[uid] = build_graph(random_sessions(rng, user=uid, n_sessions=6, n_reports=8))
            detect_targets(warm[uid])
        assignments = {uid: i % 3 for i, uid in enumerate(users)}
        clustering = Clustering.build(assignments, warm)
        cold = {uid: NavGraph.from_json(g.to_json()) for uid, g in warm.items()}

        def serve(graphs, uid, current, scores):
            recs = recommend(graphs[uid], current, scores)
            group = group_recommend(uid, clustering, graphs, current, scores)
            assert rec_fields(group) == rec_fields(
                scan_group_recommend(uid, assignments, graphs, current, scores)
            )
            recs += group
            shown = rank(recs)
            own = [r for r in shown if r.node in graphs[uid].nodes]
            if own:
                apply_feedback(graphs[uid], own, FeedbackKind.EXPLICIT_POS, node=own[0].node)
                apply_feedback(graphs[uid], own, FeedbackKind.IMPLICIT_NEG)
            return [(r.node, r.score, r.source_user) for r in shown]

        served = 0
        for _ in range(60):
            uid = users[int(rng.integers(len(users)))]
            current = sorted(warm[uid].nodes)[int(rng.integers(len(warm[uid].nodes)))]
            scores = {f"r{i}": float(rng.uniform()) for i in range(8)}
            cold = {u: NavGraph.from_json(g.to_json()) for u, g in cold.items()}
            lists = serve(warm, uid, current, scores)
            assert lists == serve(cold, uid, current, scores)
            served += bool(lists)
        assert served > 0
