"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion.
"""
import copy
import json
import math
import time

import numpy as np
import pytest

from intentrec import cli, pipeline, synth
from intentrec.artifacts import serving_factor
from intentrec.evaluation import event_auc, ndcg_at_k, precision_recall_at_k
from intentrec.kalman import evolve_sequence, initial_state, step
from intentrec.models import group_by_user
from intentrec.navgraph import build_graph, detect_targets, intent_distances
from intentrec.parafac2 import decompose, loading_matrix, stack_panels
from intentrec.pipeline import PipelineConfig
from intentrec.ranksvm import RankTrainingSet, solve, stacked_scores
from intentrec.recommender import RelevanceVariant, group_recommend, recommend

from conftest import per_target_intent_scores, random_sessions, rec_fields, scan_group_recommend


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
def fits(tmp_path_factory):
    """Acceptance-scale fits of seeds 1-5: (NDCG by method, hits, seconds, workdir)."""
    root = tmp_path_factory.mktemp("ordering")
    out = []
    for seed in (1, 2, 3, 4, 5):
        t0 = time.time()
        ndcg, hits, wd = _run_pipeline(
            root, seed, n_users=200, sessions_per_user=20, rho=0.8,
            n_seeds_tag="s",
        )
        out.append((ndcg, hits, time.time() - t0, wd))
    return out


@pytest.fixture(scope="module")
def runs(fits):
    return [fit[:3] for fit in fits]


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


class TestStackedIntentScores:
    def test_every_seed1_test_factor_scores_as_the_per_target_loop(self, fits):
        wd = fits[0][3]
        model = pipeline.load_model(wd)
        dataset = pipeline.load_dataset(wd / "sessions.npz")
        factors = differ = 0
        for uid, sessions in sorted(group_by_user(dataset.test).items()):
            serving = model.serving.get(uid)
            if serving is None or uid not in model.graphs:
                continue
            state = copy.deepcopy(serving.final_state)
            F = []
            for hit in (h for sess in sessions for h in sess.hits):
                f_kal, f_pf2, state = serving_factor(serving, state, hit)
                F += [f_kal, f_pf2]
            for f, got in zip(F, model.stacked_intent_scores(uid, np.array(F))):
                differ += list(got.items()) != list(per_target_intent_scores(model, uid, f).items())
                factors += 1
        _report(
            "intent scores: stacked product equals the per-target loop",
            differ == 0 and factors > 10_000,
            f"{differ} of {factors} seed-1 Kalman and PARAFAC2 test factors differ",
        )


class TestSourceTable:
    def test_every_seed1_test_request_sources_as_the_scan(self, fits):
        wd = fits[0][3]
        model = pipeline.load_model(wd)
        dataset = pipeline.load_dataset(wd / "sessions.npz")
        assignments = model.clustering.assignments
        requests = sorted({
            (h.user_id, h.report_id) for sess in dataset.test for h in sess.hits
            if h.user_id in assignments
        })
        differ = sourced = 0
        for uid, current in requests:
            serving = model.serving.get(uid)
            scores = model.intent_scores(uid, serving.final_state.f_post) if serving else {}
            got = group_recommend(uid, model.clustering, model.graphs, current, scores)
            expected = scan_group_recommend(uid, assignments, model.graphs, current, scores)
            differ += rec_fields(got) != rec_fields(expected)
            sourced += bool(got)
        _report(
            "group recommendations: the source table sources as the scan of every graph",
            differ == 0 and sourced > 1_000,
            f"{differ} of {len(requests)} seed-1 test requests differ, {sourced} sourced",
        )


def _wide_workdir(wd):
    """The stage-by-stage CI step's two-width workdir, under wd: an 8-user
    log in which the first member of the largest cluster also views a
    second (metric, dimension) pair, fitted at rank 3."""
    base = wd / "base"
    assert cli.main(["synth", "--workdir", str(base), "--users", "8", "--reports", "40",
                     "--sessions-per-user", "6", "--seed", "1"]) == cli.EXIT_OK
    for argv in (["ingest", "--input", str(base / "hits.jsonl")], ["graph"], ["tensor"]):
        assert cli.main([*argv, "--workdir", str(base)]) == cli.EXIT_OK
    rows = [json.loads(line) for line in (base / "hits.jsonl").read_text().splitlines()]
    clusters = json.loads((base / "clustering.json").read_text())["clusters"]
    user = max(clusters.values(), key=len)[0]
    extra = [
        dict(r, metric="visits", dim_element="mobile", ts=r["ts"] + 1)
        for r in rows if r["user_id"] == user
    ][:3]
    wide = wd / "wide"
    wide.mkdir()
    (wide / "hits.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows + extra))
    for argv in (
        ["ingest", "--input", str(wide / "hits.jsonl")], ["graph"], ["tensor"],
        ["factorize", "--rank", "3"], ["kalman"], ["train-rank"],
    ):
        assert cli.main([*argv, "--workdir", str(wide)]) == cli.EXIT_OK
    return wide


class TestStackedPinv:
    def test_each_loading_pinv_is_the_per_member_pinv(self, fits, tmp_path):
        wide = _wide_workdir(tmp_path)
        clusters = json.loads((wide / "clustering.json").read_text())["clusters"]
        models = [pipeline.load_model(wd) for *_, wd in fits] + [pipeline.load_model(wide)]
        widths = {u: s.layout.width for u, s in models[-1].serving.items()}
        two_widths = sum(len({widths[u] for u in members}) == 2 for members in clusters.values())
        differ = users = 0
        for model in models:
            for serving in model.serving.values():
                alone = np.linalg.pinv(serving.final_state.Lam)
                got = serving.Lam_pinv
                differ += got.shape != alone.shape or got.tobytes() != alone.tobytes()
                users += 1
        _report(
            "load_model: each width group's stacked pinv equals the per-member pinv",
            differ == 0 and two_widths == 1 and users > 1_000,
            f"{differ} of {users} loadings differ, seeds 1-5 and one two-width cluster",
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
                factors, report = decompose(
                    *stack_panels(mats), rank=rank, tol=1e-15, max_iters=3000, seed=trial
                )
                rel = max(
                    np.linalg.norm(mats[u] - X_hat) / np.linalg.norm(mats[u])
                    for g, members in enumerate(factors.members)
                    for u, X_hat in zip(members, loading_matrix(factors, g) @ factors.V.T)
                )
                hits += rel <= 1e-6
                errs = report.errors
                monotone += all(
                    errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1)
                )
                for G in factors.G:
                    if not np.allclose(G.swapaxes(1, 2) @ G, np.eye(rank), atol=1e-8):
                        ortho_ok = False
        _report(
            "parafac2: recovery/monotonicity/orthonormality over 50 trials",
            hits / trials >= 0.95 and monotone == trials and ortho_ok,
            f"recovered {hits}/{trials}, monotone {monotone}/{trials}, "
            f"orthonormal={ortho_ok}",
        )


class TestKalmanOracle:
    def test_hand_case_and_random_problems(self):
        # hand case: one filter, a stack of one, one view
        one = np.eye(1)
        ev, state, _, _ = evolve_sequence(
            one[None], one, one, 2 * one[None], np.full((1, 1, 1), 4.0), [1], np.zeros(1),
        )
        gain = step(initial_state(one, one, one, 2 * one, np.zeros(1)), np.array([4.0])).gain
        hand_ok = (
            abs(gain[0, 0] - 0.5) <= 1e-12
            and abs(ev[0, 0, 0] - 2.0) <= 1e-12
            and abs(state.P_post[0, 0, 0] - 1.0) <= 1e-12
        )
        # independent 1-D implementation
        rng = np.random.default_rng(0)
        max_err = 0.0
        for _ in range(100):
            a, q = rng.uniform(-1.5, 1.5), rng.uniform(0.01, 2.0)
            lam, psi = rng.uniform(0.1, 3.0), rng.uniform(0.01, 2.0)
            f, p = rng.normal(), 1.0
            obs = [float(rng.normal(scale=3)) for _ in range(6)]
            (evolved,), st, _, _ = evolve_sequence(
                np.array([[[lam]]]), np.array([[a]]), np.array([[q]]),
                np.array([[[psi]]]), np.array([[obs]]), [len(obs)], np.array([f]),
            )
            for x, got in zip(obs, evolved):
                fp = a * f
                pp = a * p * a + q
                k = pp * lam / (lam * pp * lam + psi)
                f = fp + k * (x - lam * fp)
                p = (1 - k * lam) * pp
                max_err = max(max_err, abs(got[0] - f))
            max_err = max(max_err, abs(st.P_post[0, 0, 0] - p))
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
            d = intent_distances(g, source)
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
        entry = solve([ts])[0]

        in_bounds = all(
            0.0 <= stacked_scores(entry.w[None], f[None])[0, 0] <= 1.0 for f in pos + neg
        )
        two = solve(
            [RankTrainingSet(intent="I", R1=np.array([[1.0, 0.0]]), R2=np.array([[0.0, 1.0]]))],
            lam=10.0,
        )[0]
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
        invariant = True
        for _ in range(100):
            scores = {f"n{j}": float(rng.uniform()) for j in range(6)}
            true_next = f"n{int(rng.integers(6))}"
            warped = {n: math.tanh(2 * s) + 5 for n, s in scores.items()}
            invariant &= event_auc(warped, true_next) == event_auc(scores, true_next)
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

    def test_shuffled_log_fits_the_same_model(self, tmp_path):
        # the order of a log's rows is no input: a shuffled hits.jsonl
        # yields byte-identical results.csv and rankmodel.json
        scfg = synth.SynthConfig(
            n_users=40, n_reports=50, sessions_per_user=10, intent_count=3,
            context_signal_strength=0.8, seed=5,
        )
        cfg = PipelineConfig(seed=5, rank=4, max_iters=30)
        outputs = []
        for shuffle in (False, True):
            wd = tmp_path / ("shuffled" if shuffle else "sorted")
            wd.mkdir()
            pipeline.stage_synth(wd, scfg)
            if shuffle:
                lines = (wd / "hits.jsonl").read_text().splitlines(keepends=True)
                order = np.random.default_rng(11).permutation(len(lines))
                (wd / "hits.jsonl").write_text("".join(lines[i] for i in order))
            pipeline.run_all(wd, cfg, wd / "hits.jsonl")
            outputs.append([(wd / name).read_bytes() for name in ("results.csv", "rankmodel.json")])
        _report(
            "determinism: a shuffled hits.jsonl fits byte-identical results.csv and rankmodel.json",
            outputs[0] == outputs[1],
            f"{len(outputs[0][0])} and {len(outputs[0][1])} bytes",
        )
