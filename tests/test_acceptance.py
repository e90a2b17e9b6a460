"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion.
"""
import math
import time

import numpy as np
import pytest

from intentrec import pipeline, synth
from intentrec.context import ContextTensor
from intentrec.evaluation import EvalEvent, ndcg_at_k, precision_recall_at_k, weighted_auc
from intentrec.kalman import evolve_sequence
from intentrec.navgraph import build_graph, detect_targets, intent_distances
from intentrec.parafac2 import decompose, reconstruct
from intentrec.pipeline import PipelineConfig
from intentrec.ranksvm import RankModel, RankTrainingSet, intent_score, train
from intentrec.recommender import RelevanceVariant, recommend

from conftest import random_sessions


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _run_pipeline(tmp_path, seed, *, n_users, sessions_per_user, rho, n_seeds_tag,
                  process_noise=1.0):
    wd = tmp_path / f"{n_seeds_tag}_{seed}"
    wd.mkdir()
    scfg = synth.SynthConfig(
        n_users=n_users, n_reports=60, sessions_per_user=sessions_per_user,
        intent_count=3, context_signal_strength=rho, seed=seed,
    )
    pipeline.stage_synth(wd, scfg)
    cfg = PipelineConfig(seed=seed, process_noise=process_noise)
    result = pipeline.run_all(wd, cfg, wd / "hits.jsonl")
    total_hits = sum(
        1 for _ in (wd / "hits.jsonl").read_text().strip().split("\n")
    )
    return {r.method: r.ndcg for r in result.reports}, total_hits, wd


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("ordering")
    out = []
    for seed in (1, 2, 3, 4, 5):
        t0 = time.time()
        ndcg, hits, _ = _run_pipeline(
            root, seed, n_users=200, sessions_per_user=20, rho=0.8,
            n_seeds_tag="s",
        )
        out.append((ndcg, hits, time.time() - t0))
    return out


class TestOrderingReproduction:
    def test_sum_i_beats_frequency_and_mass(self, runs):
        d_freq = float(np.mean([r["sum-i"] - r["frequency"] for r, _, _ in runs]))
        d_mass = float(np.mean([r["sum-i"] - r["mass"] for r, _, _ in runs]))
        _report(
            "ordering: NDCG(Sum-I) beats Frequency and Mass by >= 0.02",
            d_freq >= 0.02 and d_mass >= 0.02,
            f"margin vs frequency {d_freq:.4f}, vs mass {d_mass:.4f}, 5 seeds",
        )

    def test_context_beats_frequency(self, runs):
        d_ctx = float(np.mean([r["context"] - r["frequency"] for r, _, _ in runs]))
        _report(
            "ordering: NDCG(Context) beats Frequency",
            d_ctx > 0,
            f"margin {d_ctx:.4f}, 5 seeds",
        )

    def test_scale_and_runtime(self, runs):
        min_hits = min(h for _, h, _ in runs)
        max_t = max(t for _, _, t in runs)
        _report(
            "ordering: >=10k hits and full pipeline under 5 minutes",
            min_hits >= 10_000 and max_t < 300.0,
            f"min hits {min_hits}, slowest run {max_t:.1f}s",
        )


class TestNullSignal:
    def test_sum_i_matches_frequency_without_signal(self, tmp_path):
        diffs = []
        for seed in range(10):
            ndcg, _, _ = _run_pipeline(
                tmp_path, seed, n_users=60, sessions_per_user=12, rho=0.0,
                n_seeds_tag="n",
            )
            diffs.append(ndcg["sum-i"] - ndcg["frequency"])
        gap = abs(float(np.mean(diffs)))
        _report(
            "null signal: |NDCG(Sum-I) - NDCG(Frequency)| <= 0.03 at rho=0",
            gap <= 0.03,
            f"mean gap {gap:.4f}, 10 seeds",
        )


class TestParafac2Oracle:
    def test_construct_then_recover(self):
        hits = 0
        monotone = 0
        ortho_ok = True
        trials = 0
        for rank in (1, 2, 5):
            for trial in range(17 if rank != 5 else 16):
                trials += 1
                rng = np.random.default_rng(1000 * rank + trial)
                Qh, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
                H = Qh * rng.uniform(0.8, 1.25, size=rank)
                Qv, _ = np.linalg.qr(rng.normal(size=(12, rank)))
                V = Qv[:, :rank] * rng.uniform(0.8, 1.25, size=rank)
                mats = []
                for n_u in (6, 8, 7):
                    Q, _ = np.linalg.qr(rng.normal(size=(n_u, rank)))
                    s = rng.uniform(0.5, 2.0, size=rank)
                    mats.append(Q[:, :rank] @ H @ np.diag(s) @ V.T)
                tensor = ContextTensor(
                    cluster_id=0, users=["a", "b", "c"], matrices=mats, T=12
                )
                factors, report = decompose(
                    tensor, rank=rank, tol=1e-15, max_iters=3000, seed=trial
                )
                rel = max(
                    np.linalg.norm(X - reconstruct(factors, u)) / np.linalg.norm(X)
                    for u, X in enumerate(mats)
                )
                hits += rel <= 1e-6
                errs = report.errors
                monotone += all(
                    errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1)
                )
                for G in factors.G:
                    if not np.allclose(G.T @ G, np.eye(rank), atol=1e-8):
                        ortho_ok = False
        _report(
            "parafac2: recovery/monotonicity/orthonormality over 50 trials",
            hits / trials >= 0.95 and monotone == trials and ortho_ok,
            f"recovered {hits}/{trials}, monotone {monotone}/{trials}, "
            f"orthonormal={ortho_ok}",
        )


class TestKalmanOracle:
    def test_hand_case_and_random_problems(self):
        # hand case
        (ev,), state = evolve_sequence(
            np.eye(1), np.eye(1), np.eye(1), 2 * np.eye(1),
            [np.array([4.0])], np.zeros(1),
        )
        hand_ok = (
            abs(state.gain[0, 0] - 0.5) <= 1e-12
            and abs(ev[0] - 2.0) <= 1e-12
            and abs(state.P_post[0, 0] - 1.0) <= 1e-12
        )
        # independent 1-D implementation
        rng = np.random.default_rng(0)
        max_err = 0.0
        for _ in range(100):
            a, q = rng.uniform(-1.5, 1.5), rng.uniform(0.01, 2.0)
            lam, psi = rng.uniform(0.1, 3.0), rng.uniform(0.01, 2.0)
            f, p = rng.normal(), 1.0
            obs = [float(rng.normal(scale=3)) for _ in range(6)]
            evolved, st = evolve_sequence(
                np.array([[lam]]), np.array([[a]]), np.array([[q]]),
                np.array([[psi]]), [np.array([x]) for x in obs],
                np.array([f]),
            )
            for x, got in zip(obs, evolved):
                fp = a * f
                pp = a * p * a + q
                k = pp * lam / (lam * pp * lam + psi)
                f = fp + k * (x - lam * fp)
                p = (1 - k * lam) * pp
                max_err = max(max_err, abs(got[0] - f))
            max_err = max(max_err, abs(st.P_post[0, 0] - p))
        _report(
            "kalman: hand case to 1e-12 and 100 random scalar problems",
            hand_ok and max_err <= 1e-12,
            f"hand_ok={hand_ok}, max |err| {max_err:.2e}",
        )


class TestDijkstraOracle:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        checked = 0
        worst = 0.0
        for _ in range(200):
            g = build_graph(random_sessions(rng, n_reports=int(rng.integers(3, 9))))
            detect_targets(g)
            succ = {}
            for (u, v), w in g.edges.items():
                succ.setdefault(u, []).append((v, w))

            def best(source, target):
                if source == target:
                    return 1.0
                top = None
                stack = [(source, 1.0, {source})]
                while stack:
                    node, prob, seen = stack.pop()
                    for v, w in succ.get(node, []):
                        if v in seen:
                            continue
                        p = prob * w
                        if v == target:
                            top = p if top is None else max(top, p)
                        else:
                            stack.append((v, p, seen | {v}))
                return top

            source = sorted(g.nodes)[0]
            d = intent_distances(g, source).per_target
            for t in g.targets():
                expected = best(source, t)
                if expected is None:
                    assert t not in d
                    continue
                checked += 1
                worst = max(worst, abs(math.log(d[t]) - math.log(expected)))
        _report(
            "dijkstra: 200 random graphs match exhaustive enumeration",
            worst <= 1e-12 and checked > 0,
            f"{checked} source-target pairs, worst log-domain error {worst:.2e}",
        )


class TestRankSvm:
    def test_violations_bounds_and_analytic_case(self):
        rng = np.random.default_rng(1)
        w_true = rng.normal(size=5)
        w_true /= np.linalg.norm(w_true)
        pos, neg = [], []
        while len(pos) < 50 or len(neg) < 50:
            f = rng.normal(size=5)
            f /= np.linalg.norm(f)
            m = w_true @ f
            if m > 0.3 and len(pos) < 50:
                pos.append(f)
            elif m < -0.3 and len(neg) < 50:
                neg.append(f)
        ts = RankTrainingSet(intent="I", R1=np.array(pos), R2=np.array(neg))
        entry = train(ts)
        model = RankModel()
        model.weights["I"] = entry

        in_bounds = all(
            0.0 <= intent_score(model, "I", f) <= 1.0 for f in pos + neg
        )
        two = train(
            RankTrainingSet(
                intent="I", R1=np.array([[1.0, 0.0]]), R2=np.array([[0.0, 1.0]])
            ),
            lam=10.0,
        )
        analytic_ok = two.w @ np.array([1.0, 0.0]) > two.w @ np.array([0.0, 1.0])
        _report(
            "ranksvm: <=5% violations, scores in [0,1], 2-point ordering",
            entry.violation_rate <= 0.05 and in_bounds and analytic_ok,
            f"violation rate {entry.violation_rate:.3f}",
        )


class TestMetrics:
    def test_hand_values_and_monotone_invariance(self):
        ndcg2 = ndcg_at_k(["x", "hit"], "hit")
        p10, _ = precision_recall_at_k(["hit"] + ["x"] * 9, "hit", k=10)
        rng = np.random.default_rng(2)
        events = []
        for i in range(100):
            scores = {f"n{j}": float(rng.uniform()) for j in range(6)}
            shown = sorted(scores, key=lambda n: -scores[n])
            events.append(
                EvalEvent(
                    user=f"u{i % 5}", current="c",
                    true_next=f"n{int(rng.integers(6))}",
                    shown=shown, scores=scores,
                )
            )
        base = weighted_auc(events)
        warped = [
            EvalEvent(
                user=e.user, current=e.current, true_next=e.true_next,
                shown=e.shown,
                scores={n: math.tanh(2 * s) + 5 for n, s in e.scores.items()},
            )
            for e in events
        ]
        invariant = abs(weighted_auc(warped) - base) <= 1e-12
        _report(
            "metrics: hand values and monotone-invariant weighted AUC",
            abs(ndcg2 - 1 / math.log2(3)) <= 1e-12 and p10 == 0.1 and invariant,
            f"rank-2 NDCG {ndcg2:.6f}, precision@10 {p10}, invariant={invariant}",
        )


class TestGraphLayer:
    def test_stochasticity_targets_and_score_identity(self):
        rng = np.random.default_rng(3)
        worst_row = 0.0
        worst_k = 0.0
        all_targets = True
        for _ in range(1000):
            g = build_graph(random_sessions(rng, n_sessions=3))
            targets = detect_targets(g)
            all_targets &= bool(targets)
            sums = {}
            for (u, _), w in g.edges.items():
                sums[u] = sums.get(u, 0.0) + w
            for s in sums.values():
                worst_row = max(worst_row, abs(s - 1.0))
            source = sorted(g.nodes)[0]
            scores = {t: float(rng.uniform()) for t in targets}
            for rec in recommend(g, source, scores, RelevanceVariant.SUM_I):
                attrs = g.nodes[rec.node]
                k = attrs.alpha * rec.weight * rec.relevance + attrs.beta * rec.mass
                worst_k = max(worst_k, abs(k - rec.score))
        _report(
            "graph layer: row-stochastic, non-empty targets, score identity",
            worst_row <= 1e-9 and all_targets and worst_k < 1e-12,
            f"worst row error {worst_row:.2e}, worst score error {worst_k:.2e}",
        )


class TestDeterminism:
    def test_byte_identical_results(self, tmp_path):
        outputs = []
        for run in ("one", "two"):
            wd = tmp_path / run
            wd.mkdir()
            scfg = synth.SynthConfig(
                n_users=16, n_reports=50, sessions_per_user=8, intent_count=3,
                context_signal_strength=0.8, seed=7,
            )
            pipeline.stage_synth(wd, scfg)
            cfg = PipelineConfig(seed=7, rank=4, max_iters=30)
            pipeline.run_all(wd, cfg, wd / "hits.jsonl")
            outputs.append((wd / "results.csv").read_bytes())
        _report(
            "determinism: byte-identical results.csv across two runs",
            outputs[0] == outputs[1],
            f"{len(outputs[0])} bytes each",
        )
