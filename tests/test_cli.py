import argparse
import copy
import dataclasses
import gc
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    assert_parts_serve_as_the_full_read,
    cluster_arrays,
    counting_decodes,
    names_report,
    numpy_recommend_doc,
    without_evaluate,
)

import intentrec
from intentrec import cli, kalman, pipeline, store, synth
from intentrec.artifacts import serving_factor
from intentrec.context import context_vector
from intentrec.evaluation import (
    ALL_METHODS,
    VARIANTS,
    event_auc,
    ndcg_at_k,
    precision_recall_at_k,
)
from intentrec.ingest import hit_to_doc
from intentrec.models import Dataset, HitRecord, ReportKind, Session, group_by_user
from intentrec.pipeline import PipelineConfig
from intentrec.recommender import RelevanceVariant, enumerate_candidates, rank, recommend


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A workdir with every stage already run on a tiny synthetic log."""
    wd = tmp_path_factory.mktemp("stages")
    scfg = synth.SynthConfig(
        n_users=8, n_reports=40, sessions_per_user=8, intent_count=2,
        context_signal_strength=0.8, seed=3,
    )
    pipeline.stage_synth(wd, scfg)
    cfg = PipelineConfig(seed=3, rank=3, max_iters=20)
    pipeline.stage_ingest(wd, cfg, wd / "hits.jsonl")
    pipeline.stage_graph(wd, cfg)
    pipeline.stage_tensor(wd, cfg)
    pipeline.stage_factorize(wd, cfg)
    pipeline.stage_kalman(wd, cfg)
    pipeline.stage_train_rank(wd, cfg)
    return wd


def _assert_serving_shapes(workdir: Path):
    """Every training user is served with an R x N_u Lam_pinv, R being its
    cluster's fitted rank, and kalman.npz holds one R-vector per training view,
    each cluster's in one array padded with zeros to its longest member's."""
    model = pipeline.load_model(workdir)
    dataset = pipeline.load_dataset(workdir / "sessions.npz")
    views = Counter(h.user_id for s in dataset.train for h in s.hits)
    assert model.rank_models
    assert set(model.serving) == set(views)
    fits = json.loads((workdir / "manifest.json").read_text())["factorize"]["clusters"]
    clusters = json.loads((workdir / "clustering.json").read_text())["clusters"]
    for uid, serving in model.serving.items():
        cluster = str(model.clustering.assignments[uid])
        rank = fits[cluster]["rank"]
        assert serving.Lam_pinv.shape == (rank, serving.layout.width)
        with np.load(workdir / "kalman.npz") as z:
            evolved = z[f"{cluster}/evolved"]
        T = max(views[u] for u in clusters[cluster])
        assert evolved.shape == (len(clusters[cluster]), T, rank)
        row = evolved[clusters[cluster].index(uid)]
        assert row[: views[uid]].any(axis=1).all() and not row[views[uid] :].any(), uid


def _replay_test_split(workdir: Path, cfg: PipelineConfig, advance) -> list:
    """(user, current, top-k) of every test event, each view advancing its
    user's filter by `advance(serving, state, hit) -> (factor, state)`."""
    model = pipeline.load_model(workdir)
    dataset = pipeline.load_dataset(workdir / "sessions.npz")
    variant = RelevanceVariant(cfg.variant)
    lists = []
    for uid, sessions in sorted(group_by_user(dataset.test).items()):
        graph = model.graphs.get(uid)
        if graph is None or len(graph.nodes) < cfg.min_unique_reports:
            continue
        serving = model.serving.get(uid)
        state = copy.deepcopy(serving.final_state) if serving else None
        for sess in sessions:
            for hit, nxt in zip(sess.hits, sess.hits[1:] + [None]):
                if serving is not None:
                    f, state = advance(serving, state, hit)
                if nxt is None or hit.report_id not in graph.nodes:
                    continue
                scores = model.intent_scores(uid, f) if serving else {}
                ranked = rank(recommend(graph, hit.report_id, scores, variant), cfg.k)
                lists.append((uid, hit.report_id, [r.node for r in ranked]))
    return lists


@contextmanager
def _counting_exact_steps():
    """A Counter whose "exact" entry counts the filters that `kalman.step`
    calls advance while the context is open: one per call in serving, and a
    stack's members that take the exact step in a fit's lockstep round."""
    exact_step = kalman.step
    counts = Counter()

    def counted_step(state, x):
        counts["exact"] += len(np.atleast_2d(state.f_post))
        return exact_step(state, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kalman, "step", counted_step)
        yield counts


@contextmanager
def _counting_parses():
    """A Counter whose "splits" entry counts the `pipeline._split_sessions`
    calls (two per parse of a sessions file) made while the context is open."""
    split_sessions = pipeline._split_sessions
    counts = Counter()

    def counted(columns, vocab):
        counts["splits"] += 1
        return split_sessions(columns, vocab)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_split_sessions", counted)
        yield counts


@contextmanager
def _counting_reads():
    """A Counter of the reads of each file, by path, made while the context
    is open through `Path.read_bytes`, `Path.read_text` and `Path.open` in
    a read mode; a call made inside another (read_bytes opening the file)
    is not counted again."""
    reads = Counter()
    inside = []

    def counting(name):
        method = getattr(Path, name)

        def counted(self, *args, **kwargs):
            mode = (args[0] if args else kwargs.get("mode", "r")) if name == "open" else "r"
            if not inside and not set(mode) & set("wax+"):
                reads[Path(self)] += 1
            inside.append(name)
            try:
                return method(self, *args, **kwargs)
            finally:
                inside.pop()
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for name in ("read_bytes", "read_text", "open"):
            patch.setattr(Path, name, counting(name))
        yield reads


def _served_replay(workdir: Path, cfg: PipelineConfig) -> tuple[list, int, int]:
    """The test split replayed through `serving_factor`: its top-k lists,
    the views stepped and how many of them took the exact `kalman.step`."""
    def served(serving, state, hit):
        counts["views"] += 1
        f, _, state = serving_factor(serving, state, hit)
        return f, state

    with _counting_exact_steps() as counts:
        lists = _replay_test_split(workdir, cfg, served)
    return lists, counts["views"], counts["exact"]


class TestStages:
    def test_artifacts_exist(self, workdir):
        for name in (
            "hits.jsonl", "sessions.npz", "graphs.json", "clustering.json",
            "rankmodel.json", "manifest.json",
        ):
            assert (workdir / name).exists(), name
        for name in ("tensors.npz", "factors.npz", "kalman.npz"):
            assert (workdir / name).is_file(), name

    def test_tensor_members_follow_the_clustering(self, workdir):
        # stage_tensor alone picks and orders a cluster's members, sorted,
        # every trained user in one cluster; their panels follow in that
        # order, one stack per width (6 rows per feature slot), and each
        # stage file holds every cluster's arrays under `<c>/<name>`
        doc = json.loads((workdir / "clustering.json").read_text())
        clusters = doc["clusters"]
        assert clusters
        dataset = pipeline.load_dataset(workdir / "sessions.npz")
        members = [u for users in clusters.values() for u in users]
        assert sorted(members) == sorted({s.user_id for s in dataset.train})
        for name in ("tensors.npz", "factors.npz", "kalman.npz"):
            with np.load(workdir / name) as z:
                assert sorted({key.split("/")[0] for key in z.files}) == sorted(clusters), name
        for c, users in clusters.items():
            assert users == sorted(users), c
            widths = [6 * len(doc["slots"][uid]) for uid in users]
            with np.load(workdir / "tensors.npz") as z:
                z = cluster_arrays(z, c)
                assert list(z) == [f"X_{w}" for w in sorted(set(widths), key=widths.index)]
                for w in set(widths):
                    assert z[f"X_{w}"].shape[:2] == (widths.count(w), w), (c, w)

    def test_manifest_tracks_stages(self, workdir):
        manifest = json.loads((workdir / "manifest.json").read_text())
        for stage in ("synth", "ingest", "graph", "tensor", "factorize", "kalman", "train-rank"):
            assert stage in manifest, stage
            assert "elapsed_s" in manifest[stage]

    def test_ingest_manifest_counts_the_split(self, workdir):
        entry = json.loads((workdir / "manifest.json").read_text())["ingest"]
        dataset = pipeline.load_dataset(workdir / "sessions.npz")
        assert entry["train_sessions"] == len(dataset.train) > 0
        assert entry["test_sessions"] == len(dataset.test) > 0
        assert entry["train_hits"] == sum(len(s) for s in dataset.train)
        assert entry["test_hits"] == sum(len(s) for s in dataset.test)
        assert entry["split_instant"] == dataset.split_instant
        assert entry["skipped_rows"] == 0
        rows = (workdir / "hits.jsonl").read_text().splitlines()
        assert entry["train_hits"] + entry["test_hits"] == len(rows)

    def test_evaluate_stage(self, workdir):
        cfg = PipelineConfig(seed=3, rank=3, min_unique_reports=3)
        result = pipeline.stage_evaluate(workdir, cfg)
        assert (workdir / "results.csv").exists()
        methods = {r.method for r in result.reports}
        assert {"mass", "frequency", "context", "sum-i"} <= methods

    def test_evaluate_manifest_counts_events(self, workdir):
        cfg = PipelineConfig(seed=3, rank=3, min_unique_reports=3)
        result = pipeline.stage_evaluate(workdir, cfg)
        entry = json.loads((workdir / "manifest.json").read_text())["evaluate"]
        assert entry["events"] == result.events > 0
        assert {r.events for r in result.reports} == {entry["events"]}
        assert entry["skipped_unseen"] == result.skipped_unseen
        assert entry["skipped_filtered"] == result.skipped_filtered
        # a view is served with the settled gain exactly when it skips the
        # exact Kalman step
        _, views, exact = _served_replay(workdir, cfg)
        assert entry["views"] == result.views == views
        assert entry["steady_views"] == result.steady_views == views - exact
        assert 0 < entry["steady_views"] < entry["views"]

    def test_evaluate_manifest_counts_missing_views(self, workdir, tmp_path):
        # a test view of a pair its user never viewed in training is missing
        cfg = PipelineConfig(seed=3, rank=3, min_unique_reports=3)
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        pipeline.stage_evaluate(wd, cfg)
        before = json.loads((wd / "manifest.json").read_text())["evaluate"]
        assert before["missing_views"] == 0

        model = pipeline.load_model(wd)
        evaluated = {
            u for u in model.serving if len(model.graphs[u].nodes) >= cfg.min_unique_reports
        }
        dataset = pipeline.load_dataset(wd / "sessions.npz")
        sess = next(s for s in dataset.test if s.user_id in evaluated)
        sess.hits[0] = sess.hits[0]._replace(metric="never-viewed")
        with (wd / "sessions.npz").open("wb") as fh:
            pipeline.save_dataset(dataset, fh)
        result = pipeline.stage_evaluate(wd, cfg)
        entry = json.loads((wd / "manifest.json").read_text())["evaluate"]
        assert entry["missing_views"] == result.missing_views == 1
        assert entry["views"] == result.views == before["views"]

    def test_non_finite_row_is_skipped_end_to_end(self, tmp_path):
        # one NaN in one row of hits.jsonl costs that row, not the fit
        scfg = synth.SynthConfig(n_users=8, n_reports=40, sessions_per_user=8, seed=3)
        pipeline.stage_synth(tmp_path, scfg)
        hits = tmp_path / "hits.jsonl"
        rows = hits.read_text().splitlines()
        row = json.loads(rows[5])
        row["values"][1] = float("nan")
        rows[5] = json.dumps(row)
        hits.write_text("\n".join(rows) + "\n")
        cfg = PipelineConfig(seed=3, rank=3, max_iters=20, min_unique_reports=3)
        result = pipeline.run_all(tmp_path, cfg, hits)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["ingest"]["skipped_rows"] == 1
        dataset = pipeline.load_dataset(tmp_path / "sessions.npz")
        assert sum(len(s) for s in dataset.train + dataset.test) == len(rows) - 1
        assert result.events > 0

    def test_settled_gain_serves_the_exact_lists(self, workdir):
        # every test event gets the top-10 list of the exact filter
        cfg = PipelineConfig(seed=3, rank=3, min_unique_reports=3)

        def exact(serving, state, hit):
            x = context_vector(serving.layout, hit)
            state = kalman.step(state, x if x.any() else kalman.MISSING)
            return state.f_post.copy(), state

        expected = _replay_test_split(workdir, cfg, exact)
        served, views, exact_steps = _served_replay(workdir, cfg)
        assert served == expected
        assert len(expected) > 0 and exact_steps < views

    def test_evaluation_measures_the_served_path(self, workdir):
        # replaying the test split through the serving calls gives exactly
        # the NDCG, precision, recall and w-AUC that evaluation reports for
        # every method: the variants rank the served `recommend` list by K,
        # the context baselines rank the sum-i list by R (then W, M and
        # node), and mass and frequency order the enumerated candidates
        cfg = PipelineConfig(seed=3, rank=3, min_unique_reports=3)
        reports = {r.method: r for r in pipeline.stage_evaluate(workdir, cfg).reports}
        model = pipeline.load_model(workdir)
        dataset = pipeline.load_dataset(workdir / "sessions.npz")
        rows: dict[str, list[tuple[float, ...]]] = {m: [] for m in ALL_METHODS}

        def by_relevance(recs):
            scores = {r.node: r.relevance for r in recs}
            order = sorted(recs, key=lambda r: (-r.relevance, -r.weight, -r.mass, r.node))
            return scores, [r.node for r in order]

        def by_value(scores):
            return scores, sorted(scores, key=lambda v: (-scores[v], v))

        for uid, sessions in sorted(group_by_user(dataset.test).items()):
            graph = model.graphs.get(uid)
            if graph is None or len(graph.nodes) < cfg.min_unique_reports:
                continue
            serving = model.serving.get(uid)
            state = copy.deepcopy(serving.final_state) if serving else None
            for sess in sessions:
                for hit, nxt in zip(sess.hits, sess.hits[1:] + [None]):
                    if serving is not None:
                        f, f_pf2, state = serving_factor(serving, state, hit)
                    if nxt is None or hit.report_id not in graph.nodes:
                        continue
                    scores = model.intent_scores(uid, f) if serving else {}
                    scores_pf2 = model.intent_scores(uid, f_pf2) if serving else {}
                    candidates = enumerate_candidates(graph, hit.report_id)
                    lists = {
                        "mass": by_value({v: graph.nodes[v].mass for v, _, _ in candidates}),
                        "frequency": by_value({v: w for v, w, _ in candidates}),
                        "context": by_relevance(recommend(graph, hit.report_id, scores)),
                        "parafac2": by_relevance(recommend(graph, hit.report_id, scores_pf2)),
                    }
                    for v in VARIANTS:
                        recs = recommend(graph, hit.report_id, scores, RelevanceVariant(v))
                        lists[v] = {r.node: r.score for r in recs}, [
                            r.node for r in rank(recs, cfg.k)
                        ]
                    true_next = nxt.report_id
                    for method, (auc_scores, order) in lists.items():
                        shown = order[: cfg.k]
                        rows[method].append((
                            ndcg_at_k(shown, true_next, cfg.k),
                            *precision_recall_at_k(shown, true_next, cfg.k),
                            event_auc(auc_scores, true_next),
                        ))
        for m in ALL_METHODS:
            assert len(rows[m]) == reports[m].events > 0, m
            ndcg, precision, recall, wauc = (float(np.mean(c)) for c in zip(*rows[m]))
            rep = reports[m]
            assert (rep.ndcg, rep.precision, rep.recall, rep.wauc) == (
                ndcg, precision, recall, wauc
            ), m

    def test_loaded_model_reproduces_fit(self, workdir):
        _assert_serving_shapes(workdir)

    def test_serving_reads_no_factors(self, workdir, tmp_path):
        # kalman.npz holds every filter and evolved factor that serving,
        # train-rank and evaluate read
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = PipelineConfig(seed=3, rank=3, max_iters=20, min_unique_reports=3)
        pipeline.stage_evaluate(wd, cfg)
        expected = {n: (wd / n).read_bytes() for n in ("rankmodel.json", "results.csv")}
        served = set(pipeline.load_model(wd).serving)
        (wd / "factors.npz").unlink()
        assert set(pipeline.load_model(wd).serving) == served
        pipeline.stage_train_rank(wd, cfg)
        pipeline.stage_evaluate(wd, cfg)
        assert {n: (wd / n).read_bytes() for n in expected} == expected

    def test_rerun_on_smaller_log_leaves_no_stale_clusters(self, tmp_path):
        # a 3-user log fitted where a 40-user log was fitted before gives
        # the artifacts and results of a fresh workdir
        def fit(wd: Path, n_users: int):
            scfg = synth.SynthConfig(n_users=n_users, n_reports=40, sessions_per_user=8, seed=3)
            pipeline.stage_synth(wd, scfg)
            cfg = PipelineConfig(seed=3, rank=3, max_iters=20, min_unique_reports=3)
            pipeline.run_all(wd, cfg, wd / "hits.jsonl")

        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        fit(reused, 40)
        fit(reused, 3)
        fit(fresh, 3)
        listing = [sorted(p.name for p in wd.iterdir()) for wd in (reused, fresh)]
        assert listing[0] == listing[1]
        for name in ("tensors.npz", "factors.npz", "kalman.npz"):
            files = []
            for wd in (reused, fresh):
                with np.load(wd / name) as z:
                    files.append(z.files)
            assert files[0] == files[1], name
        for name in ("rankmodel.json", "results.csv"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        model = pipeline.load_model(reused)
        assert len(model.graphs) == 3
        assert set(model.serving) == set(model.graphs)

    def test_manifest_hashes_stage_inputs(self, workdir):
        cfg = PipelineConfig(seed=3, rank=3, min_unique_reports=3)
        pipeline.stage_evaluate(workdir, cfg)
        doc = json.loads((workdir / "clustering.json").read_text())
        assert doc["clusters"]
        # every file load_model reads
        model_files = {"graphs.json", "clustering.json", "rankmodel.json", "kalman.npz"}
        expected = {
            "ingest": {"hits.jsonl"},
            "tensor": {"sessions.npz"},
            "factorize": {"clustering.json", "tensors.npz"},
            "kalman": {"clustering.json", "tensors.npz", "factors.npz"},
            "train-rank": {"sessions.npz", "graphs.json", "clustering.json", "kalman.npz"},
            "graph": {"sessions.npz"},
            "evaluate": {"sessions.npz", *model_files},
            "recommend": model_files,
        }
        model = pipeline.load_model(workdir)
        uid = sorted(model.serving)[0]
        node = sorted(model.graphs[uid].nodes)[0]
        for collaborative in (False, True):
            pipeline.stage_recommend(workdir, cfg, uid, node, collaborative)
            manifest = json.loads((workdir / "manifest.json").read_text())
            for stage, keys in expected.items():
                inputs = manifest[stage]["inputs"]
                assert set(inputs) == keys, (stage, collaborative)
                for key, digest in inputs.items():
                    assert digest == hashlib.sha256((workdir / key).read_bytes()).hexdigest(), key
            assert manifest["recommend"]["config"] == {
                "user": uid, "current": node, "k": cfg.k, "variant": cfg.variant,
                "collaborative": collaborative,
            }

    def test_each_input_is_read_once(self, tmp_path):
        # every stage and recommend read each input once, and the manifest
        # records the SHA-256 of the bytes it read; manifest.json, which is
        # no stage's input, is read again to be rewritten
        wd = tmp_path / "wd"
        cfg = PipelineConfig(seed=3, rank=3, max_iters=20)
        reads, inputs = {}, {}

        def read_once(stage, call):
            with _counting_reads() as counts:
                call()
            counts.pop(wd / "manifest.json", None)
            reads[stage] = {path.relative_to(wd).as_posix(): n for path, n in counts.items()}
            inputs[stage] = json.loads((wd / "manifest.json").read_text())[stage]["inputs"]
            for name, digest in inputs[stage].items():
                assert digest == hashlib.sha256((wd / name).read_bytes()).hexdigest(), (stage, name)

        synth_config = synth.SynthConfig(n_users=8, n_reports=40, seed=3)
        read_once("synth", lambda: pipeline.stage_synth(wd, synth_config))
        for stage in ("ingest", "graph", "tensor", "factorize", "kalman", "train-rank", "evaluate"):
            read_once(stage, lambda: getattr(pipeline, f"stage_{stage.replace('-', '_')}")(wd, cfg))
        graph = json.loads((wd / "graphs.json").read_text())[0]
        for collaborative in (False, True):
            stage = f"recommend{' --collaborative' * collaborative}"
            read_once("recommend", lambda: pipeline.stage_recommend(
                wd, cfg, graph["user_id"], graph["edges"][0]["from"], collaborative
            ))
            reads[stage], inputs[stage] = reads.pop("recommend"), inputs.pop("recommend")
        assert reads == {stage: dict.fromkeys(names, 1) for stage, names in inputs.items()}

    def test_manifest_inputs_are_what_the_stage_read(self, workdir, tmp_path):
        # files read outside a stage, or by a stage that stopped before its
        # manifest entry, are no input of the next stage
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        pipeline.load_model(wd)
        (wd / "rankmodel.json").unlink()
        with pytest.raises(pipeline.MissingArtifact):
            pipeline.stage_evaluate(wd, PipelineConfig(seed=3))
        pipeline.stage_graph(wd, PipelineConfig(seed=3))
        manifest = json.loads((wd / "manifest.json").read_text())
        assert set(manifest["graph"]["inputs"]) == {"sessions.npz"}

    def test_interrupted_manifest_write_keeps_the_old_manifest(self, workdir, tmp_path):
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        before = (wd / "manifest.json").read_bytes()

        def interrupted(src, dst):
            raise KeyboardInterrupt

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store.os, "replace", interrupted)
            with pytest.raises(KeyboardInterrupt):
                pipeline.stage_graph(wd, PipelineConfig(seed=3))
        assert (wd / "manifest.json").read_bytes() == before

    @pytest.mark.parametrize("stage,output", [
        ("synth", "hits.jsonl"),
        ("ingest", "sessions.npz"),
        ("graph", "graphs.json"),
        ("tensor", "clustering.json"),
        ("tensor", "tensors.npz"),
        ("factorize", "factors.npz"),
        ("kalman", "kalman.npz"),
        ("train-rank", "rankmodel.json"),
        ("evaluate", "results.csv"),
        ("evaluate", "results.txt"),
    ])
    def test_interrupted_write_keeps_the_previous_artifact(self, workdir, tmp_path, stage, output):
        # every output is written to a temporary file that replaces it last:
        # a stage interrupted at that step leaves the previous file, the
        # workdir is as it was, and no temporary file is left
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        flags = {
            "synth": ["--users", "8", "--reports", "40", "--sessions-per-user", "8",
                      "--intents", "2", "--rho", "0.8", "--seed", "3"],
        }.get(stage, ["--seed", "3", "--rank", "3", "--max-iters", "20"])
        argv = [stage, "--workdir", str(wd), *flags]
        assert cli.main(argv) == cli.EXIT_OK
        (wd / output).write_bytes(f"previous {output}\n".encode())
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        replace = os.replace

        def interrupted(src, dst):
            if Path(dst).name == output:
                raise KeyboardInterrupt
            replace(src, dst)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store.os, "replace", interrupted)
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before
        assert list(wd.rglob("*.tmp")) == []

    def test_manifest_fit_counters(self, workdir, tmp_path):
        manifest = json.loads((workdir / "manifest.json").read_text())
        for cluster, entry in manifest["factorize"]["clusters"].items():
            # ||X - G H diag(s) V'||^2 / ||X||^2 over the cluster's panels
            # every synthetic user has N_u = 6: one stack per cluster
            with np.load(workdir / "tensors.npz") as z:
                panels = z[f"{cluster}/X_6"]
            with np.load(workdir / "factors.npz") as z:
                H, S, V, G = (z[f"{cluster}/{name}"] for name in ("H", "S", "V", "G_6"))
            err = sum(
                float(((X - g @ H @ np.diag(s) @ V.T) ** 2).sum()) for X, g, s in zip(panels, G, S)
            )
            norm_sq = sum(float((X**2).sum()) for X in panels)
            assert entry["relative_error"] == pytest.approx(err / norm_sq)
            assert 0 <= entry["relative_error"] < 1

        def view_counts(wd: Path) -> tuple[int, int]:
            views = missing = 0
            doc = json.loads((wd / "clustering.json").read_text())
            for cluster, users in doc["clusters"].items():
                with np.load(wd / "tensors.npz") as z:
                    for uid, panel in zip(users, z[f"{cluster}/X_6"], strict=True):
                        X = panel[:, : doc["views"][uid]]
                        views += X.shape[1]
                        missing += int((~X.any(axis=0)).sum())
            return views, missing

        dataset = pipeline.load_dataset(workdir / "sessions.npz")
        entry = manifest["kalman"]
        assert (entry["views"], entry["missing_views"]) == view_counts(workdir)
        assert entry["views"] == sum(len(s.hits) for s in dataset.train)

        # a view whose context vector is all zero is a missing observation
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        def zero_first_view(stack):
            stack[0, :, 0] = 0.0
            return stack

        _edit_npz(wd / "tensors.npz", "0/X_6", zero_first_view)
        with _counting_exact_steps() as counts:
            pipeline.stage_kalman(wd, PipelineConfig(seed=3, rank=3))
        entry = json.loads((wd / "manifest.json").read_text())["kalman"]
        assert (entry["views"], entry["missing_views"]) == view_counts(wd)
        assert entry["missing_views"] == manifest["kalman"]["missing_views"] + 1
        # a fit step takes the settled gain exactly when it skips the exact step
        assert entry["steady_views"] == entry["views"] - counts["exact"]
        assert 0 < entry["steady_views"] < entry["views"] - entry["missing_views"]

    def test_undersized_cluster_rank_is_clamped(self, tmp_path):
        # every synthetic user views a single (metric, dimension) pair, so
        # N_u = 6 and a requested rank of 8 must drop to 6 in every cluster
        scfg = synth.SynthConfig(n_users=8, n_reports=40, sessions_per_user=8, seed=3)
        pipeline.stage_synth(tmp_path, scfg)
        cfg = PipelineConfig(seed=3, rank=8, max_iters=5)
        pipeline.stage_ingest(tmp_path, cfg, tmp_path / "hits.jsonl")
        pipeline.stage_tensor(tmp_path, cfg)
        pipeline.stage_factorize(tmp_path, cfg)
        clusters = json.loads((tmp_path / "manifest.json").read_text())["factorize"]["clusters"]
        assert clusters
        for cluster, entry in clusters.items():
            assert entry["requested_rank"] == 8
            assert entry["rank"] == 6
            assert entry["iterations"] >= 1
            assert isinstance(entry["converged"], bool)
            with np.load(tmp_path / "factors.npz") as z:
                assert z[f"{cluster}/H"].shape == (6, 6)

    def test_default_config_converges(self, tmp_path, caplog):
        # at 50 iterations cluster 1 of this log stopped unconverged
        scfg = synth.SynthConfig(n_users=60, sessions_per_user=10, seed=1)
        pipeline.stage_synth(tmp_path, scfg)
        cfg = PipelineConfig(seed=1, rank=8)
        pipeline.stage_ingest(tmp_path, cfg, tmp_path / "hits.jsonl")
        pipeline.stage_tensor(tmp_path, cfg)
        pipeline.stage_factorize(tmp_path, cfg)
        clusters = json.loads((tmp_path / "manifest.json").read_text())["factorize"]["clusters"]
        assert clusters
        assert all(entry["converged"] for entry in clusters.values()), clusters
        assert "did not converge" not in caplog.text

    def test_unconverged_cluster_warns(self, tmp_path, caplog):
        scfg = synth.SynthConfig(n_users=60, sessions_per_user=10, seed=1)
        pipeline.stage_synth(tmp_path, scfg)
        cfg = PipelineConfig(seed=1, rank=8, max_iters=2)
        pipeline.stage_ingest(tmp_path, cfg, tmp_path / "hits.jsonl")
        pipeline.stage_tensor(tmp_path, cfg)
        pipeline.stage_factorize(tmp_path, cfg)
        clusters = json.loads((tmp_path / "manifest.json").read_text())["factorize"]["clusters"]
        warned = [r for r in caplog.records if "did not converge" in r.getMessage()]
        assert len(warned) == sum(not e["converged"] for e in clusters.values()) > 0

    def test_train_rank_manifest_matches_model(self, workdir):
        entry = json.loads((workdir / "manifest.json").read_text())["train-rank"]
        doc = json.loads((workdir / "rankmodel.json").read_text())
        weights = [iw for m in doc.values() for iw in m["intents"].values()]
        trained = [iw for iw in weights if not iw["degenerate"]]
        rates = [iw["violation_rate"] for iw in trained]
        assert trained
        assert entry["config"] == {"lambda": PipelineConfig().rank_lambda}
        assert entry["intents_trained"] == len(trained)
        assert entry["intents_degenerate"] == len(weights) - len(trained)
        assert entry["pairs"] == sum(iw["pairs"] for iw in trained) > 0
        assert entry["violation_rate_mean"] == pytest.approx(sum(rates) / len(rates))
        assert entry["violation_rate_max"] == max(rates)
        assert entry["newton_iterations_max"] == max(iw["iterations"] for iw in trained) > 0
        # users with a graph but no rank model are served from the graph alone
        graph_users = {g["user_id"] for g in json.loads((workdir / "graphs.json").read_text())}
        assert entry["users_without_rank_model"] == len(graph_users - doc.keys())

    def test_recommend_stage(self, workdir):
        model = pipeline.load_model(workdir)
        uid = sorted(model.serving)[0]
        graph = model.graphs[uid]
        current = sorted(graph.nodes)[0]
        cfg = PipelineConfig(seed=3)
        doc = pipeline.stage_recommend(workdir, cfg, uid, current, False)
        assert doc["user"] == uid
        for rec in doc["recs"]:
            # the emitted score must be recomputable from its parts
            assert rec["K"] == pytest.approx(
                rec["alpha"] * rec["W"] * rec["R"] + rec["beta"] * rec["M"],
                abs=1e-12,
            )


def _hit(user, ts, report, kind, values, session=None, metric="visits"):
    return HitRecord(
        user_id=user, timestamp=ts, report_id=report, report_kind=kind, metric=metric,
        dimension_element="all", values=values, session_hint=session,
    )


class TestSessionsFile:
    def test_save_load_save_round_trip(self, tmp_path):
        series, histogram = ReportKind.TIME_SERIES, ReportKind.HISTOGRAM
        train = [
            Session("usuário-1", [
                _hit("usuário-1", 0, "r1", series, (-0.0, 5e-324, 3.0), "s1"),
                _hit("usuário-1", 60, "rapport-é", histogram, (1.7976931348623157e308,), "s1",
                     metric="durée"),
            ]),
            Session("u2", [_hit("u2", 7, "r1", histogram, (2.5, -1.0))]),
            # a hint keeps its JSON type: 1, 1.0 and "1" are three sessions
            Session("u3", [_hit("u3", 8, "1", series, (1.0,), 1)]),
            Session("u3", [_hit("u3", 9, "1", series, (1.0,), 1.0)]),
            Session("u3", [_hit("u3", 10, "1", series, (-0.0,), "1")]),
            Session("u3", [_hit("u3", 2**63 - 1, "r1", series, (1e-300,), 2.5)]),
        ]
        test = [
            Session("usuário-1", [
                _hit("usuário-1", 900, "r2", series, (0.1, 1e-300, -2.0)),
                _hit("usuário-1", 960, "r1", histogram, (4.0,), "s2"),
            ]),
        ]
        dataset = Dataset(train=train, test=test, split_instant=900)
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        with first.open("wb") as fh:
            pipeline.save_dataset(dataset, fh)
        loaded = pipeline.load_dataset(first)
        with second.open("wb") as fh:
            pipeline.save_dataset(loaded, fh)
        assert loaded == dataset
        assert second.read_bytes() == first.read_bytes()

        hits = [h for s in loaded.train + loaded.test for h in s.hits]
        expected = [h for s in dataset.train + dataset.test for h in s.hits]
        # == does not tell -0.0 from 0.0
        assert [[v.hex() for v in h.values] for h in hits] == [
            [v.hex() for v in h.values] for h in expected
        ]
        assert [type(h.session_hint) for h in hits] == [
            type(h.session_hint) for h in expected
        ]
        for h in hits:
            assert type(h.values) is tuple
            assert all(type(v) is float for v in h.values)
            assert type(h.timestamp) is int
            assert type(h.report_kind) is ReportKind

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        """A `run_all` workdir and how often the fit split a sessions file."""
        wd = tmp_path_factory.mktemp("memo")
        pipeline.stage_synth(wd, synth.SynthConfig(n_users=8, n_reports=40, seed=3))
        with _counting_parses() as counts:
            pipeline.run_all(wd, PipelineConfig(seed=3, rank=3, max_iters=20), wd / "hits.jsonl")
        return wd, counts["splits"]

    def test_one_fit_parses_the_sessions_file_once(self, fitted):
        # graph parses it (train and test); tensor, train-rank and evaluate
        # reuse that parse
        _, splits = fitted
        assert splits == 2

    def test_every_reader_records_the_sessions_file(self, fitted):
        wd, _ = fitted
        # each records the digest of the bytes it read, hashed once
        digest = hashlib.sha256((wd / "sessions.npz").read_bytes()).hexdigest()
        manifest = json.loads((wd / "manifest.json").read_text())
        for stage in ("graph", "tensor", "train-rank", "evaluate"):
            assert manifest[stage]["inputs"]["sessions.npz"] == digest, stage

    def test_a_stage_hashes_the_sessions_file_once(self, fitted, tmp_path, monkeypatch):
        # the manifest takes the digest each reader made of the bytes it
        # read: every input, sessions.npz and graphs.json included, is
        # hashed once, and nothing else is hashed
        wd = tmp_path / "wd"
        shutil.copytree(fitted[0], wd)
        names = {p.read_bytes(): p.name for p in wd.iterdir() if p.is_file()}
        hashed = Counter()
        sha256 = store.hashlib.sha256

        def counted(data=b"", **kwargs):
            hashed[names.get(bytes(data))] += 1
            return sha256(data, **kwargs)

        monkeypatch.setattr(store.hashlib, "sha256", counted)
        pipeline.stage_train_rank(wd, PipelineConfig(seed=3, rank=3))
        inputs = json.loads((wd / "manifest.json").read_text())["train-rank"]["inputs"]
        assert {"sessions.npz", "graphs.json"} <= inputs.keys()
        assert hashed == Counter(dict.fromkeys(inputs, 1))

    def test_edited_copy_leaves_later_loads_whole(self, fitted):
        wd, _ = fitted
        path = wd / "sessions.npz"
        edited = pipeline.load_dataset(path)
        edited.test[0].hits[0] = edited.test[0].hits[0]._replace(metric="edited")
        edited.train[0].hits.append(edited.train[1].hits[0])
        edited.train.append(Session("someone", list(edited.test[0].hits)))
        with _counting_parses() as counts:
            again = pipeline.load_dataset(path)
        assert counts["splits"] == 0  # the memo answered
        pipeline._parsed.clear()
        fresh = pipeline.load_dataset(path)
        assert again == fresh != edited
        assert again.test[0].hits[0].metric != "edited"

    def test_rewritten_file_is_parsed_again(self, fitted, tmp_path):
        # the memo answers by content, not by path
        path = tmp_path / "sessions.npz"
        path.write_bytes((fitted[0] / "sessions.npz").read_bytes())
        dataset = pipeline.load_dataset(path)
        dataset.test[0].hits[0] = dataset.test[0].hits[0]._replace(metric="edited")
        with path.open("wb") as fh:
            pipeline.save_dataset(dataset, fh)
        with _counting_parses() as counts:
            assert pipeline.load_dataset(path) == dataset
        assert counts["splits"] == 2


def _largest_cluster(wd: Path, name: str) -> str:
    """The key `<c>/<name>` of the workdir's largest cluster c's array `name`."""
    clusters = json.loads((wd / "clustering.json").read_text())["clusters"]
    return f"{max(clusters, key=lambda c: len(clusters[c]))}/{name}"


def _edit_npz(path: Path, name: str, edit) -> tuple[Path, str]:
    """path with its array `name` replaced by edit(array), and the stage
    that rewrites a spoiled kalman.npz."""
    with np.load(path) as z:
        arrays = dict(z)
    arrays[name] = edit(arrays[name])
    np.savez(path, **arrays)
    return path, "kalman"


def _short_stack(name: str):
    def spoil(wd: Path) -> tuple[Path, str]:
        return _edit_npz(wd / "kalman.npz", f"0/{name}", lambda a: a[:-1])
    return spoil


def _f_post(edit):
    def spoil(wd: Path) -> tuple[Path, str]:
        def checked(a):
            assert a.shape[0] > 1 and a.shape[1] > 1
            return edit(a)
        return _edit_npz(wd / "kalman.npz", _largest_cluster(wd, "f_post"), checked)
    return spoil


def _edit_json(name: str, writer: str, edit):
    """A spoiler that replaces the workdir's JSON file `name` by edit(doc)."""
    def spoil(wd: Path) -> tuple[Path, str]:
        path = wd / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return path, writer
    return spoil


def _torn(name: str, writer: str):
    def spoil(wd: Path) -> tuple[Path, str]:
        path = wd / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        return path, writer
    return spoil


def _another_rank(wd: Path) -> tuple[Path, str]:
    for argv in (["factorize", "--rank", "2"], ["kalman"]):
        assert cli.main([*argv, "--workdir", str(wd)]) == cli.EXIT_OK
    return wd / "rankmodel.json", "train-rank"


def _missing_kalman(wd: Path) -> tuple[Path, str]:
    path = wd / "kalman.npz"
    path.unlink()
    return path, "kalman"


def _first_intent(doc: dict, edit) -> dict:
    """The rankmodel.json doc with its first user's first intent edited in place."""
    entry = next(iter(next(iter(doc.values()))["intents"].values()))
    edit(entry)
    return doc


def _first_graph(docs: list, edit) -> list:
    """The graphs.json docs with the first user's graph edited by edit(graph)."""
    edit(docs[0])
    return docs


# Each way a fitted model's files can be spoiled, as a function that spoils a
# copy of the workdir and returns the path it spoiled and the stage that
# rewrites it.
SPOILED_MODELS = {
    **{f"short-{name}": _short_stack(name) for name in ("f_post", "P_post", "psi", "Lam")},
    "object-f_post": _f_post(lambda a: a.astype(object)),
    "fortran-f_post": _f_post(np.asfortranarray),
    "float32-f_post": _f_post(lambda a: a.astype(np.float32)),
    "flat-f_post": _f_post(lambda a: a[:, 0].copy()),
    "narrow-P_post": lambda wd: _edit_npz(
        wd / "kalman.npz", _largest_cluster(wd, "P_post"), lambda a: a[:, :, :-1]
    ),
    "another-rank": _another_rank,
    "torn-graphs": _torn("graphs.json", "graph"),
    "torn-rankmodel": _torn("rankmodel.json", "train-rank"),
    "torn-kalman": _torn("kalman.npz", "kalman"),
    "missing-kalman": _missing_kalman,
    "assignments-clustering": _edit_json("clustering.json", "tensor", lambda doc: {
        "assignments": {u: int(c) for c, members in doc["clusters"].items() for u in members},
        **{k: doc[k] for k in ("centroids", "insufficient", "empty_clusters")},
    }),
    "graphs-of-numbers": _edit_json("graphs.json", "graph", lambda doc: [1, 2]),
    "graphs-object": _edit_json("graphs.json", "graph", lambda doc: {}),
    "string-mass": _edit_json("graphs.json", "graph", lambda docs: _first_graph(
        docs, lambda g: [node.update(mass=str(node["mass"])) for node in g["nodes"]]
    )),
    "float-count": _edit_json("graphs.json", "graph", lambda docs: _first_graph(
        docs, lambda g: [edge.update(count=float(edge["count"])) for edge in g["edges"]]
    )),
    "rankmodel-list": _edit_json("rankmodel.json", "train-rank", lambda doc: []),
    "user-without-intents": _edit_json(
        "rankmodel.json", "train-rank", lambda doc: {**doc, next(iter(doc)): {"lambda": 1.0}}
    ),
    "intent-extra-field": _edit_json(
        "rankmodel.json", "train-rank", lambda doc: _first_intent(doc, lambda e: e.update(extra=0))
    ),
    "string-weight": _edit_json(
        "rankmodel.json", "train-rank",
        lambda doc: _first_intent(doc, lambda e: e.update(w=[str(x) for x in e["w"]])),
    ),
}


class TestCliExitCodes:
    def test_every_config_field_has_a_flag(self):
        parser = argparse.ArgumentParser()
        cli._add_common(parser)
        flags = {a.dest: a for a in parser._actions}
        fields = dataclasses.fields(PipelineConfig)
        assert [f.name for f in fields if f.name not in flags] == []
        argv = ["--workdir", "w"]
        for f in fields:
            action = flags[f.name]
            if action.choices:
                value = next(c for c in action.choices if c != f.default)
            else:
                value = f.default + 1
            argv += [action.option_strings[0], str(value)]
        config = cli._pipeline_config(parser.parse_args(argv))
        assert [f.name for f in fields if getattr(config, f.name) == f.default] == []

    def test_every_command_offers_every_config_field(self):
        # each fitting command, recommend, sweep and run takes one flag per
        # PipelineConfig field
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        commands = [
            "ingest", "graph", "tensor", "factorize", "kalman", "train-rank", "evaluate",
            "recommend", "sweep", "run",
        ]
        assert sorted(sub.choices) == sorted(["synth", *commands])
        flags = {f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(PipelineConfig)}
        for command in commands:
            offered = {s for action in sub.choices[command]._actions for s in action.option_strings}
            assert sorted(flags - offered) == [], command

    def test_a_command_gets_only_its_own_flags(self):
        sub = next(
            a for a in cli.parser_for(["recommend"])._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        for command, parser in sub.choices.items():
            flags = [s for action in parser._actions for s in action.option_strings]
            assert (flags == ["-h", "--help"]) == (command != "recommend"), command

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["-h"], ["--help"], ["--verbose"], ["definitely-not-a-command"],
            ["--verbose", "recommend", "--help"], ["--verb", "run", "--workdir"],
            ["-", "recommend"], ["-1", "recommend"], ["--", "recommend", "--help"],
            ["--verbose=1", "recommend"], ["recommend", "--workdir", "w", "--user", "u"],
            ["recommend", "--workdir", "w", "--user", "u", "--current", "c", "extra"],
            ["recommend", "--workdir", "w", "--user", "u", "--current", "c", "--collaborative"],
            ["evaluate", "--workdir", "w", "--variant", "nope"],
            ["factorize", "--workdir", "w", "--rank", "x"], ["factorize", "--workdir", "w"],
            ["sweep", "--workdir", "w", "--ranks"], ["sweep", "--workdir", "w", "--ranks", "2", "3"],
            ["synth", "--workdir", "w", "--rho", "high"], ["synth", "--workdir", "w", "--seed", "2"],
            ["run", "--workdir", "w", "--users", "3"], ["ingest", "--workdir", "w", "--input", "h"],
            *([command, "--help"] for command in cli._COMMANDS),
            *([command] for command in cli._COMMANDS),
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_each_page_and_error_reads_as_the_full_parser_s(self, argv, capsys):
        def parse(parser):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit as exc:
                out = capsys.readouterr()
                return exc.code, out.out, out.err

        assert parse(cli.parser_for(argv)) == parse(cli.build_parser())

    def test_usage_error(self):
        assert cli.main(["definitely-not-a-command"]) == cli.EXIT_USAGE

    def test_missing_artifact(self, tmp_path, capsys):
        code = cli.main(["graph", "--workdir", str(tmp_path)])
        assert code == cli.EXIT_MISSING_ARTIFACT
        # a log that no stage writes is named on its own
        log = tmp_path / "log.csv"
        capsys.readouterr()
        code = cli.main(["ingest", "--workdir", str(tmp_path), "--input", str(log)])
        assert code == cli.EXIT_MISSING_ARTIFACT
        assert capsys.readouterr().err == f"missing artifact: {log} does not exist\n"

    @pytest.fixture
    def ingested(self, tmp_path):
        assert cli.main(
            ["synth", "--workdir", str(tmp_path), "--users", "8", "--reports", "40",
             "--sessions-per-user", "6", "--seed", "2"]
        ) == cli.EXIT_OK
        assert cli.main(["ingest", "--workdir", str(tmp_path)]) == cli.EXIT_OK
        return tmp_path

    def _assert_stale_sessions(self, workdir, capsys, names="ingest"):
        capsys.readouterr()
        assert cli.main(["graph", "--workdir", str(workdir)]) == cli.EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "sessions.npz" in err and names in err
        assert not (workdir / "graphs.json").exists()

    def test_row_layout_sessions_is_stale(self, ingested, capsys):
        # only a sessions.json as the row layout wrote it, one dict per hit:
        # sessions.npz is missing
        path = ingested / "sessions.npz"
        dataset = pipeline.load_dataset(path)
        doc = {
            "split_instant": dataset.split_instant,
            "train": [[hit_to_doc(h) for h in s.hits] for s in dataset.train],
            "test": [[hit_to_doc(h) for h in s.hits] for s in dataset.test],
        }
        (ingested / "sessions.json").write_text(json.dumps(doc, sort_keys=True))
        path.unlink()
        self._assert_stale_sessions(ingested, capsys, names="missing artifact")

    def test_json_in_place_of_sessions_is_stale(self, ingested, capsys):
        path = ingested / "sessions.npz"
        path.write_text(json.dumps({"split_instant": 0, "train": {}, "test": {}}))
        self._assert_stale_sessions(ingested, capsys)

    @staticmethod
    def _rewrite(path: Path, edit):
        """Rewrite the sessions.npz at path with its columns passed through edit."""
        with np.load(path) as z:
            columns = {name: z[name] for name in z.files}
        edit(columns)
        np.savez(path, **columns)

    @pytest.mark.parametrize("edit", [
        lambda cols: cols.update(test_report_id=cols["test_report_id"][:-1]),
        lambda cols: cols.update(test_lengths=np.insert(cols["test_lengths"], 0, 0)),
        lambda cols: cols["test_values"].__setitem__(3, np.nan),
        lambda cols: cols["test_metric"].__setitem__(0, len(json.loads(cols["vocab"].tobytes()))),
        lambda cols: cols["train_kind"].__setitem__(0, -1),
        lambda cols: cols["test_counts"].__setitem__(0, cols["test_counts"][0] + 1),
        lambda cols: cols.pop("test_session"),
        lambda cols: cols.update(test_ts=cols["test_ts"].astype(float)),
    ], ids=[
        "short-column", "empty-session", "non-finite-value", "out-of-vocabulary",
        "unknown-kind", "value-counts", "missing-column", "float-ts",
    ])
    def test_disagreeing_columns_are_stale(self, ingested, capsys, edit):
        self._rewrite(ingested / "sessions.npz", edit)
        self._assert_stale_sessions(ingested, capsys)

    def test_truncated_sessions_is_stale(self, ingested, capsys):
        path = ingested / "sessions.npz"
        path.write_bytes(path.read_bytes()[:1000])
        self._assert_stale_sessions(ingested, capsys)

    @pytest.mark.parametrize("edit", [
        None,
        lambda cols: cols.update(test_report_id=cols["test_report_id"][:-1]),
        lambda cols: cols.update(train_lengths=np.insert(cols["train_lengths"], 0, 0)),
    ], ids=["truncated", "short-column", "empty-session"])
    def test_sessions_spoiled_after_a_load_is_stale(self, ingested, capsys, edit):
        # the process parsed the file whole before; its new bytes are
        # checked again, not answered from that parse
        assert cli.main(["graph", "--workdir", str(ingested)]) == cli.EXIT_OK
        graphs = (ingested / "graphs.json").read_bytes()
        path = ingested / "sessions.npz"
        if edit is None:
            path.write_bytes(path.read_bytes()[:1000])
        else:
            self._rewrite(path, edit)
        capsys.readouterr()
        for stage in ("graph", "tensor", "train-rank", "evaluate"):
            assert cli.main([stage, "--workdir", str(ingested)]) == cli.EXIT_MISSING_ARTIFACT
            err = capsys.readouterr().err
            assert "sessions.npz" in err and "ingest" in err, stage
        assert (ingested / "graphs.json").read_bytes() == graphs

    @pytest.mark.parametrize("name", [
        "graphs.json", "clustering.json", "rankmodel.json", "manifest.json",
    ])
    def test_truncated_artifact_is_stale(self, workdir, tmp_path, capsys, name):
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        model = pipeline.load_model(wd)
        uid = sorted(model.serving)[0]
        node = sorted(model.graphs[uid].nodes)[0]
        path = wd / name
        text = path.read_bytes()
        path.write_bytes(text[: len(text) // 2])
        capsys.readouterr()
        for argv in (
            ["recommend", "--workdir", str(wd), "--user", uid, "--current", node],
            ["evaluate", "--workdir", str(wd), "--rank", "3"],
        ):
            assert cli.main(argv) == cli.EXIT_MISSING_ARTIFACT, argv
            err = capsys.readouterr().err
            assert "stale artifact" in err and str(path) in err, err

    def test_assignments_layout_clustering_is_stale(self, workdir, tmp_path, capsys):
        # clustering.json as earlier versions wrote it, with `assignments`
        # in place of the member lists, stops every stage that reads it
        # before that stage writes
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        model = pipeline.load_model(wd)
        uid = sorted(model.serving)[0]
        node = sorted(model.graphs[uid].nodes)[0]
        path, _ = SPOILED_MODELS["assignments-clustering"](wd)
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        capsys.readouterr()
        for argv in (
            ["factorize", "--workdir", str(wd), "--rank", "3"],
            ["kalman", "--workdir", str(wd)],
            ["train-rank", "--workdir", str(wd)],
            ["recommend", "--workdir", str(wd), "--user", uid, "--current", node],
        ):
            assert cli.main(argv) == cli.EXIT_MISSING_ARTIFACT, argv
            err = capsys.readouterr().err
            assert "stale artifact" in err and str(path) in err, err
            assert "intentrec tensor`" in err, err
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before

    @pytest.mark.parametrize("size", ["half", "empty"])
    @pytest.mark.parametrize("name,writer,command", [
        ("tensors.npz", "tensor", ["factorize", "--rank", "3"]),
        ("factors.npz", "factorize", ["kalman"]),
        ("kalman.npz", "kalman", ["recommend"]),
    ], ids=["tensors", "factors", "kalman"])
    def test_truncated_npz_is_stale(self, workdir, tmp_path, capsys, name, writer, command, size):
        # a half-written or empty .npz names itself and the stage to re-run,
        # and is closed: no file is left for the garbage collector to warn about
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        argv = [*command, "--workdir", str(wd)]
        if command == ["recommend"]:
            model = pipeline.load_model(wd)
            uid = sorted(model.serving)[0]
            argv += ["--user", uid, "--current", sorted(model.graphs[uid].nodes)[0]]
        path = wd / name
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] if size == "half" else b"")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cli.main(argv) == cli.EXIT_MISSING_ARTIFACT, argv
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
        err = capsys.readouterr().err
        assert "stale artifact" in err and str(path) in err, err
        assert f"intentrec {writer}`" in err, err

    @pytest.mark.parametrize("name,writer,command", [
        ("tensors.npz", "tensor", ["factorize", "--rank", "3"]),
        ("factors.npz", "factorize", ["kalman"]),
        ("kalman.npz", "kalman", ["train-rank"]),
    ], ids=["tensors", "factors", "kalman"])
    def test_positional_npz_is_stale(self, workdir, tmp_path, capsys, name, writer, command):
        # an .npz of the positional layout of earlier versions (one array
        # per member of cluster 0, arr_0, arr_1, ... in member order, beside
        # the named ones) names itself and the stage that rewrites it, and
        # the refused stage leaves the workdir as it was
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        doc = json.loads((wd / "clustering.json").read_text())
        path = wd / name
        with np.load(path) as z:
            arrays = dict(z)
        stack = arrays.pop("0/" + {"tensors": "X_6", "factors": "G_6", "kalman": "evolved"}[path.stem])
        if path.stem == "kalman":
            stack = [row[: doc["views"][uid]] for uid, row in zip(doc["clusters"]["0"], stack)]
        np.savez(path, *stack, **arrays)
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        capsys.readouterr()
        assert cli.main([*command, "--workdir", str(wd)]) == cli.EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "stale artifact" in err and str(path) in err, err
        assert f"intentrec {writer}`" in err, err
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before

    def test_stack_of_other_members_is_stale(self, workdir, tmp_path, capsys):
        # a stack whose rows are not the members clustering.json lists, as
        # when `tensor` was stopped after it rewrote clustering.json, is stale
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        clusters = json.loads((wd / "clustering.json").read_text())["clusters"]
        cluster = max(clusters, key=lambda c: len(clusters[c]))
        path, _ = _edit_npz(wd / "tensors.npz", f"{cluster}/X_6", lambda a: a[1:])
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        capsys.readouterr()
        assert cli.main(["factorize", "--rank", "3", "--workdir", str(wd)]) == cli.EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "stale artifact" in err and str(path) in err and "intentrec tensor`" in err, err
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before

    @staticmethod
    def _request(wd: Path) -> list[str]:
        """A recommend request of the workdir's first served user, at the
        first report its graph leaves."""
        model = pipeline.load_model(wd)
        uid = sorted(model.serving)[0]
        return ["--user", uid, "--current", min(model.graphs[uid].edges)[0]]

    def _assert_refused(self, wd, capsys, path, writer, request, *also):
        """recommend, evaluate and each command in `also` refuse wd, naming
        path and the stage that rewrites it, and leave the workdir as it was."""
        argvs = (["recommend", *request], ["evaluate"], *also)
        for name in ("results.csv", "recommendations.jsonl"):
            (wd / name).write_text(f"sentinel {name}\n")
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        capsys.readouterr()
        for argv in argvs:
            assert cli.main([*argv, "--workdir", str(wd)]) == cli.EXIT_MISSING_ARTIFACT, argv
            err = capsys.readouterr().err
            assert "stale artifact" in err and str(path) in err, err
            assert f"intentrec {writer}`" in err, err
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before

    @pytest.mark.parametrize("name", ["f_post", "P_post", "psi", "Lam"])
    def test_stack_short_of_the_members_is_stale(self, workdir, tmp_path, capsys, name):
        # a kalman.npz stack without the last member's rows, as clustering.json
        # lists more members than it holds, is stale: not an IndexError
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        path, writer = SPOILED_MODELS[f"short-{name}"](wd)
        self._assert_refused(wd, capsys, path, writer, self._request(workdir))

    @pytest.mark.parametrize("how", ["object", "fortran", "float32"])
    def test_member_numpy_would_load_is_stale(self, workdir, tmp_path, capsys, how):
        # an f_post pickled, in Fortran order or of another dtype is no array
        # this version writes: both the pure-Python and the NumPy reader
        # refuse it, as one reader
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        path, writer = SPOILED_MODELS[f"{how}-f_post"](wd)
        self._assert_refused(wd, capsys, path, writer, self._request(workdir))

    def test_rank_weights_of_another_rank_are_stale(self, workdir, tmp_path, capsys):
        # factorize and kalman re-run at another rank leave rankmodel.json
        # with weights of the old rank: stale, not a matmul error and not a
        # dot truncated to the shorter vector
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        path, writer = SPOILED_MODELS["another-rank"](wd)
        self._assert_refused(wd, capsys, path, writer, self._request(workdir))

    @pytest.mark.parametrize("case", [
        "graphs-of-numbers", "graphs-object", "string-mass", "float-count", "rankmodel-list",
        "user-without-intents", "intent-extra-field", "string-weight",
    ])
    def test_model_file_of_another_layout_is_stale(self, workdir, tmp_path, capsys, case):
        # graphs.json and rankmodel.json of another layout than the stages
        # write are stale on every path that reads them, train-rank included
        # for graphs.json: not a traceback, an unknown user or an empty run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        path, writer = SPOILED_MODELS[case](wd)
        also = [["train-rank"]] if path.name == "graphs.json" else []
        self._assert_refused(wd, capsys, path, writer, self._request(workdir), *also)

    @pytest.mark.parametrize("case", sorted(SPOILED_MODELS))
    def test_both_readers_refuse_alike(self, workdir, tmp_path, case):
        # `recommend` and `evaluate` read the model through one reader, so
        # each spoiled model file stops both with the same error, and a
        # spoiled graphs.json stops train-rank with it too
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        _, user, _, current = self._request(workdir)
        path, writer = SPOILED_MODELS[case](wd)
        cfg = PipelineConfig(seed=3)
        stages = [
            lambda: pipeline.stage_recommend(wd, cfg, user, current),
            lambda: pipeline.stage_evaluate(wd, cfg),
        ]
        if path.name == "graphs.json":
            stages.append(lambda: pipeline.stage_train_rank(wd, cfg))
        errors = []
        for stage in stages:
            with pytest.raises((store.MissingArtifact, store.StaleArtifact)) as info:
                stage()
            errors.append((type(info.value), str(info.value)))
        assert errors == [errors[0]] * len(stages)
        kind, message = errors[0]
        assert str(path) in message, message
        assert kind is store.MissingArtifact or f"intentrec {writer}`" in message, message

    @pytest.mark.parametrize("name,command", [
        ("tensors", ["factorize", "--rank", "3"]),
        ("factors", ["kalman"]),
        ("kalman", ["train-rank"]),
        ("kalman", ["recommend"]),
    ], ids=["factorize", "kalman", "train-rank", "recommend"])
    def test_workdir_of_cluster_directories_is_refused(
        self, workdir, tmp_path, capsys, name, command
    ):
        # a workdir fitted by an earlier version holds each cluster's arrays
        # in <name>/cluster_<c>.npz, which no stage reads: a stage that
        # reads <name>.npz exits 3 naming it and leaves the workdir as it was
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        (wd / name).mkdir()
        with np.load(wd / f"{name}.npz") as z:
            for c in {key.split("/")[0] for key in z.files}:
                np.savez(wd / name / f"cluster_{c}.npz", **cluster_arrays(z, c))
        (wd / f"{name}.npz").unlink()
        argv = [*command, "--workdir", str(wd)]
        if command == ["recommend"]:
            argv += self._request(workdir)
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "missing artifact" in err and str(wd / f"{name}.npz") in err, err
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before

    def test_refit_removes_the_cluster_directories_it_replaces(self, workdir, tmp_path, caplog):
        # a workdir fitted by an earlier version, refit from `tensor`: each
        # stage that writes <name>.npz removes <name>/ if it holds only that
        # layout's cluster files, and otherwise leaves it with one warning
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        for name in ("tensors", "factors", "kalman"):
            (wd / name).mkdir()
            with np.load(wd / f"{name}.npz") as z:
                for c in {key.split("/")[0] for key in z.files}:
                    np.savez(wd / name / f"cluster_{c}.npz", **cluster_arrays(z, c))
                    (wd / name / f"cluster_{c}.json").write_text("{}")
            (wd / f"{name}.npz").unlink()
        (wd / "kalman" / "notes.txt").write_text("kept\n")
        for command in (["tensor"], ["factorize", "--rank", "3"], ["kalman"], ["train-rank"]):
            assert cli.main([*command, "--workdir", str(wd), "--seed", "3"]) == cli.EXIT_OK
        assert sorted(p.name for p in wd.iterdir() if p.is_dir()) == ["kalman"]
        assert sorted(p.name for p in (wd / "kalman").iterdir())[-1] == "notes.txt"
        warned = [r.getMessage() for r in caplog.records if "earlier version" in r.getMessage()]
        assert len(warned) == 1 and str(wd / "kalman") in warned[0], warned
        assert {p.name for p in workdir.iterdir()} <= {p.name for p in wd.iterdir()}

    @pytest.mark.parametrize("command", [
        ["factorize", "--rank", "3"], ["kalman"], ["train-rank"], ["recommend"],
    ], ids=["factorize", "kalman", "train-rank", "recommend"])
    def test_workdir_of_every_cluster_directory_names_the_stage_to_refit_from(
        self, workdir, tmp_path, capsys, command
    ):
        # a workdir fitted by an earlier version, all three of its stage
        # outputs per-cluster directories: each stage that reads one of the
        # missing files names `tensor`, the first stage to re-run, at once
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        for name in ("tensors", "factors", "kalman"):
            (wd / name).mkdir()
            with np.load(wd / f"{name}.npz") as z:
                for c in {key.split("/")[0] for key in z.files}:
                    np.savez(wd / name / f"cluster_{c}.npz", **cluster_arrays(z, c))
            (wd / f"{name}.npz").unlink()
        argv = [*command, "--workdir", str(wd)]
        if command == ["recommend"]:
            argv += self._request(workdir)
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "missing artifact" in err and str(wd / "tensors.npz") in err, err
        assert "re-run `intentrec tensor`" in err, err
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before

    def test_workdir_of_only_the_log_names_ingest(self, tmp_path, capsys):
        assert cli.main(["synth", "--workdir", str(tmp_path), "--users", "4", "--seed", "1"]) == 0
        capsys.readouterr()
        assert cli.main(["graph", "--workdir", str(tmp_path)]) == cli.EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "missing artifact" in err and str(tmp_path / "sessions.npz") in err, err
        assert "re-run `intentrec ingest`" in err, err

    @pytest.mark.parametrize("collaborative", [False, True], ids=["own", "collaborative"])
    def test_recommend_is_the_numpy_path_bitwise(self, workdir, tmp_path, collaborative):
        # every user at every report of its graph: the doc stage_recommend
        # scores in pure Python is the one the NumPy model builds
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        model = pipeline.load_model(wd)
        cfg = PipelineConfig(seed=3)
        requests = [(u, node) for u, g in sorted(model.graphs.items()) for node in sorted(g.nodes)]
        assert len({u for u, _ in requests}) == len(model.graphs) > 1
        for user, current in requests:
            got = pipeline.stage_recommend(wd, cfg, user, current, collaborative)
            expected = numpy_recommend_doc(model, cfg, user, current, collaborative)
            assert json.dumps(got) == json.dumps(expected), (user, current)

    def test_recommend_imports_no_numpy(self, workdir, tmp_path):
        # a cold recommend loads neither NumPy nor any fitting layer
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        argv = ["recommend", "--workdir", str(wd), *self._request(wd), "--collaborative"]
        script = (
            "import json, sys\n"
            "from intentrec import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
        )
        src = str(Path(intentrec.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        code, modules = json.loads(done.stderr.splitlines()[-1])
        assert code == cli.EXIT_OK
        assert json.loads(done.stdout)["recs"]
        fitting = {"pipeline", "evaluation", "synth", "parafac2", "kalman", "ranksvm", "context",
                   "artifacts", "ingest"}
        assert [m for m in modules if m.split(".")[0] == "numpy"] == []
        assert [m for m in modules if m.removeprefix("intentrec.") in fitting] == []

    @pytest.mark.parametrize("name,command,output", [
        ("tensors.npz", ["factorize", "--rank", "3"], "factors.npz"),
        ("factors.npz", ["kalman"], "kalman.npz"),
    ], ids=["factorize", "kalman"])
    def test_refused_stage_keeps_its_previous_output(
        self, workdir, tmp_path, capsys, name, command, output
    ):
        # a stage refused for a half-written input must not replace the
        # previous run's output
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        path = wd / name
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        before = {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}
        assert before[wd / output]
        capsys.readouterr()
        assert cli.main([*command, "--workdir", str(wd)]) == cli.EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "stale artifact" in err and str(path) in err, err
        assert {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")} == before

    def test_torn_manifest_refuses_before_writing(self, workdir, tmp_path, capsys):
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        model = pipeline.load_model(wd)
        uid = sorted(model.serving)[0]
        node = sorted(model.graphs[uid].nodes)[0]
        manifest = wd / "manifest.json"
        torn = manifest.read_bytes()[:500]
        manifest.write_bytes(torn)
        sentinels = ("graphs.json", "results.csv", "results.txt", "recommendations.jsonl")
        for name in sentinels:
            (wd / name).write_text(f"sentinel {name}\n")
        capsys.readouterr()
        for argv in (
            ["graph", "--workdir", str(wd)],
            ["evaluate", "--workdir", str(wd)],
            ["recommend", "--workdir", str(wd), "--user", uid, "--current", node],
        ):
            assert cli.main(argv) == cli.EXIT_MISSING_ARTIFACT, argv
            err = capsys.readouterr().err
            assert "stale artifact" in err and str(manifest) in err, err
        for name in sentinels:
            assert (wd / name).read_text() == f"sentinel {name}\n", name
        assert manifest.read_bytes() == torn
        assert not (wd / "manifest.json.tmp").exists()

    @pytest.mark.parametrize("argv,field", [
        (["factorize", "--rank", "0"], "rank"),
        (["factorize", "--max-iters", "0"], "max_iters"),
        (["kalman", "--process-noise", "-1"], "process_noise"),
        (["kalman", "--process-noise", "nan"], "process_noise"),
        (["train-rank", "--rank-lambda", "-1"], "rank_lambda"),
        (["train-rank", "--rank-lambda", "0"], "rank_lambda"),
        (["run", "--k", "0"], "k"),
        # after --config: the text of the config file, None for no file
        (["evaluate", "--config", '{"variant": "sum-x"}'], "variant"),
        (["synth", "--users", "0"], "n_users"),
        # a bad rank after a good one: neither sweep_R2/ nor sweep_R0/ is made
        (["sweep", "--ranks", "2", "0"], "rank"),
        (["graph", "--config", None], "config.json"),
        (["synth", "--config", None], "config.json"),
        (["graph", "--config", '{"rank": '], "config.json"),
        (["graph", "--config", "[3]"], "config.json"),
        (["factorize", "--config", '{"rank": "3"}'], "rank"),
        (["factorize", "--config", '{"rank": 2.5}'], "rank"),
        (["evaluate", "--config", '{"k": true}'], "k"),
        (["synth", "--config", '{"n_users": 4.5}'], "n_users"),
    ], ids=["rank", "max-iters", "process-noise", "process-noise-nan", "rank-lambda",
            "rank-lambda-zero", "run-k", "config-variant", "synth-users", "sweep-ranks",
            "config-missing", "synth-config-missing", "config-malformed", "config-list",
            "config-rank-string", "config-rank-fraction", "config-k-bool",
            "synth-config-users-fraction"])
    def test_out_of_range_config_is_a_usage_error(self, workdir, tmp_path, capsys, argv, field):
        # refused before any stage writes: every artifact keeps its bytes,
        # and no file or directory is added
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        if "--config" in argv:
            at = argv.index("--config") + 1
            config = tmp_path / "config.json"
            if argv[at] is not None:
                config.write_text(argv[at])
            argv = [*argv[:at], str(config), *argv[at + 1 :]]

        def contents():
            return {p: p.read_bytes() if p.is_file() else None for p in wd.rglob("*")}

        before = contents()
        capsys.readouterr()
        assert cli.main([*argv, "--workdir", str(wd)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and field in err, err
        assert contents() == before

    def test_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\nnot json either\n")
        code = cli.main(["ingest", "--workdir", str(tmp_path), "--input", str(bad)])
        assert code == cli.EXIT_DATA

    def test_stale_pipeline_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rank": 3, "rank_epochs": 50}))
        code = cli.main(["ingest", "--workdir", str(tmp_path), "--config", str(config)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "rank_epochs" in err and "rank_lambda" in err

    def test_stale_synth_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_users": 4, "rank_epochs": 50}))
        code = cli.main(["synth", "--workdir", str(tmp_path), "--config", str(config)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "rank_epochs" in err and "n_users" in err
        assert not (tmp_path / "hits.jsonl").exists()

    @pytest.mark.parametrize("counts", [["--reports", "9"], ["--reports", "12"],
                                        ["--reports", "40", "--intents", "10"]])
    def test_synth_too_few_reports_writes_nothing(self, tmp_path, capsys, counts):
        # too few non-intent reports for each user's hub, branches and
        # fillers to be distinct: refused before the workdir is made
        wd = tmp_path / "work"
        assert cli.main(["synth", "--workdir", str(wd), *counts]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "n_reports" in err, err
        assert not wd.exists()

    def test_synth_and_ingest_ok(self, tmp_path):
        assert (
            cli.main(
                ["synth", "--workdir", str(tmp_path), "--users", "4",
                 "--reports", "30", "--sessions-per-user", "4", "--seed", "1"]
            )
            == cli.EXIT_OK
        )
        assert (
            cli.main(
                ["ingest", "--workdir", str(tmp_path),
                 "--input", str(tmp_path / "hits.jsonl")]
            )
            == cli.EXIT_OK
        )

    def test_full_run_and_recommend(self, tmp_path):
        assert cli.main(
            ["synth", "--workdir", str(tmp_path), "--users", "8", "--reports", "40",
             "--sessions-per-user", "6", "--seed", "2"]
        ) == cli.EXIT_OK
        assert cli.main(
            ["run", "--workdir", str(tmp_path), "--input", str(tmp_path / "hits.jsonl"),
             "--rank", "3", "--max-iters", "15", "--seed", "2"]
        ) == cli.EXIT_OK
        model = pipeline.load_model(tmp_path)
        uid = sorted(model.serving)[0]
        node = sorted(model.graphs[uid].nodes)[0]
        assert cli.main(
            ["recommend", "--workdir", str(tmp_path), "--user", uid, "--current", node]
        ) == cli.EXIT_OK

    def test_run_into_a_fresh_workdir(self, tmp_path):
        assert cli.main(
            ["synth", "--workdir", str(tmp_path), "--users", "8", "--reports", "40",
             "--sessions-per-user", "6", "--seed", "2"]
        ) == cli.EXIT_OK
        fresh = tmp_path / "new" / "wd"
        assert cli.main(
            ["run", "--workdir", str(fresh), "--input", str(tmp_path / "hits.jsonl"),
             "--rank", "3", "--max-iters", "15", "--seed", "2"]
        ) == cli.EXIT_OK
        assert (fresh / "results.csv").exists()
        # without --process-noise, `run` fits at the 1.0 the acceptance gates
        # and the benchmark run
        entry = json.loads((fresh / "manifest.json").read_text())["kalman"]
        assert entry["config"] == {"process_noise": 1.0}

    def test_rank_one_run_and_sweep(self, tmp_path):
        assert cli.main(
            ["synth", "--workdir", str(tmp_path), "--users", "8", "--reports", "40",
             "--sessions-per-user", "6", "--seed", "2"]
        ) == cli.EXIT_OK
        common = ["--max-iters", "15", "--seed", "2"]
        assert cli.main(
            ["run", "--workdir", str(tmp_path), "--input", str(tmp_path / "hits.jsonl"),
             "--rank", "1", *common]
        ) == cli.EXIT_OK
        _assert_serving_shapes(tmp_path)
        assert cli.main(
            ["sweep", "--workdir", str(tmp_path), "--ranks", "1", "2", *common]
        ) == cli.EXIT_OK
        for r in (1, 2):
            _assert_serving_shapes(tmp_path / f"sweep_R{r}")


def _every_request(wd: Path) -> list[tuple[str, str]]:
    """Every user of graphs.json at every report of its graph."""
    graphs = json.loads((wd / "graphs.json").read_text())
    return [(g["user_id"], node["id"]) for g in graphs for node in g["nodes"]]


class TestPartRead:
    # a plain recommend on a workdir whose model files still hold the bytes
    # `evaluate` read and checked decodes only the user's part of the model;
    # on any other workdir it reads and checks the whole model, as before

    @pytest.fixture(scope="class")
    def evaluated(self, workdir, tmp_path_factory):
        wd = tmp_path_factory.mktemp("part") / "evaluated"
        shutil.copytree(workdir, wd)
        pipeline.stage_evaluate(wd, PipelineConfig(seed=3))
        return wd

    @staticmethod
    def _copy(wd: Path, tmp_path: Path) -> Path:
        shutil.copytree(wd, tmp_path / "wd")
        return tmp_path / "wd"

    def test_every_request_serves_as_the_full_read(self, evaluated, tmp_path):
        wd = self._copy(evaluated, tmp_path)
        cfg = PipelineConfig(seed=3)
        oracle = without_evaluate(wd, tmp_path / "oracle")
        assert_parts_serve_as_the_full_read(wd, oracle, cfg, _every_request(wd))

    def test_user_without_cluster_or_rank_model_serves_as_the_full_read(self, evaluated, tmp_path):
        # the fixture fits every user into a cluster and a rank model: drop
        # the smallest cluster (its users then have no filter) and another
        # user's rank model, and evaluate that model
        wd = self._copy(evaluated, tmp_path)
        path = wd / "clustering.json"
        doc = json.loads(path.read_text())
        dropped = min(doc["clusters"], key=lambda c: len(doc["clusters"][c]))
        outside = doc["clusters"].pop(dropped)
        path.write_text(json.dumps(doc, sort_keys=True))
        with np.load(wd / "kalman.npz") as z:
            arrays = {k: z[k] for k in z.files if not k.startswith(f"{dropped}/")}
        np.savez(wd / "kalman.npz", **arrays)
        path = wd / "rankmodel.json"
        doc = json.loads(path.read_text())
        unranked = next(u for u in sorted(doc) if u not in outside)
        del doc[unranked]
        path.write_text(json.dumps(doc, sort_keys=True))
        cfg = PipelineConfig(seed=3)
        pipeline.stage_evaluate(wd, cfg)
        requests = _every_request(wd)
        assert {outside[0], unranked} <= {user for user, _ in requests}
        oracle = without_evaluate(wd, tmp_path / "oracle")
        assert_parts_serve_as_the_full_read(wd, oracle, cfg, requests)

    @staticmethod
    def _served(wd: Path, user: str, current: str) -> tuple[dict, int]:
        """The doc of a plain request and the graphs it built."""
        with counting_decodes() as counts:
            doc = pipeline.stage_recommend(wd, PipelineConfig(seed=3), user, current)
        return doc, counts["graphs"]

    def test_workdir_not_evaluated_serves_alike(self, evaluated, tmp_path):
        # fitted through train-rank only, the manifest records no evaluate:
        # the whole model is read and checked
        wd = without_evaluate(evaluated, tmp_path / "wd")
        user, current = _every_request(wd)[0]
        assert self._served(wd, user, current) == (self._served(evaluated, user, current)[0], 8)

    def test_files_of_another_layout_fall_back_to_the_full_read(self, evaluated, tmp_path):
        # evaluate checked graphs.json and rankmodel.json laid out by another
        # writer: the digests match, but no part is where the writers put it
        wd = self._copy(evaluated, tmp_path)
        for name in ("graphs.json", "rankmodel.json"):
            path = wd / name
            path.write_text(json.dumps(json.loads(path.read_text()), indent=1, sort_keys=True))
        pipeline.stage_evaluate(wd, PipelineConfig(seed=3))
        user, current = _every_request(wd)[0]
        assert self._served(wd, user, current) == (self._served(evaluated, user, current)[0], 8)
        manifest = json.loads((wd / "manifest.json").read_text())
        assert manifest["recommend"]["inputs"].items() < manifest["evaluate"]["inputs"].items()

    @pytest.mark.parametrize("collaborative", [False, True], ids=["own", "collaborative"])
    def test_spoiled_graph_of_another_user_is_refused(self, evaluated, tmp_path, collaborative):
        # the requester's own graph is whole, in the writer's layout; the
        # last user's holds masses as strings, a file evaluate never checked
        wd = self._copy(evaluated, tmp_path)
        path = wd / "graphs.json"
        docs = json.loads(path.read_text())
        for node in docs[-1]["nodes"]:
            node["mass"] = str(node["mass"])
        path.write_text(json.dumps(docs, sort_keys=True))
        user, current = _every_request(wd)[0]
        assert user != docs[-1]["user_id"]
        errors = []
        for stage in (
            lambda: pipeline.stage_recommend(wd, PipelineConfig(seed=3), user, current, collaborative),
            lambda: pipeline.stage_evaluate(wd, PipelineConfig(seed=3)),
        ):
            with pytest.raises(store.StaleArtifact) as info:
                stage()
            errors.append(str(info.value))
        assert errors[0] == errors[1] and str(path) in errors[0], errors

    @pytest.mark.parametrize("flags", [[], ["--collaborative"]], ids=["own", "collaborative"])
    def test_unknown_user_exits_4(self, workdir, evaluated, tmp_path, capsys, flags):
        # found in neither graphs.json nor its part: the full read names it
        for wd in (self._copy(evaluated, tmp_path), workdir):
            capsys.readouterr()
            argv = ["recommend", "--workdir", str(wd), "--user", "nobody", "--current", "r000", *flags]
            assert cli.main(argv) == cli.EXIT_DATA
            assert capsys.readouterr().err == "error: \"unknown user: 'nobody'\"\n"

    def test_every_collaborative_request_serves_as_the_full_read(self, evaluated, tmp_path):
        # each request decodes its user's graph and every other graph naming
        # the current report, and nothing else of graphs.json
        wd = self._copy(evaluated, tmp_path)
        cfg = PipelineConfig(seed=3)
        oracle = without_evaluate(wd, tmp_path / "oracle")
        assert_parts_serve_as_the_full_read(wd, oracle, cfg, _every_request(wd), collaborative=True)

    @pytest.fixture(scope="class")
    def group_request(self, evaluated) -> tuple[str, str]:
        """The first request of the evaluated workdir whose collaborative
        doc holds a report the user's own graph lacks: one sourced from
        another user's graph."""
        model, cfg = pipeline.load_model(evaluated), PipelineConfig(seed=3)
        for user, current in _every_request(evaluated):
            recs = numpy_recommend_doc(model, cfg, user, current, collaborative=True)["recs"]
            if any(r["node"] not in model.graphs[user].nodes for r in recs):
                return user, current
        raise AssertionError("no request of the workdir is served from another user's graph")

    @staticmethod
    def _relay_graphs(wd: Path, user: str, current: str, relay) -> int:
        """Rewrite graphs.json in the writer's layout, except that each
        object other than user's that names current is laid out as
        relay(its text) returns, and re-run evaluate; the number of objects
        relaid."""
        path = wd / "graphs.json"
        texts, relaid = [], 0
        for doc in json.loads(path.read_text()):
            text = json.dumps(doc, sort_keys=True)
            if doc["user_id"] != user and names_report(doc, current):
                text, relaid = relay(text), relaid + 1
            texts.append(text)
        path.write_text("[" + ", ".join(texts) + "]")
        pipeline.stage_evaluate(wd, PipelineConfig(seed=3))
        return relaid

    @pytest.mark.parametrize("case", ["node", "object", "escaped"])
    def test_other_layouts_of_the_sources_serve_as_the_full_read(
        self, evaluated, group_request, tmp_path, case
    ):
        # the graphs naming current, other than the user's, laid out anew
        # and evaluated: a node without the space after its key (still
        # found), objects without any (not found where the writer puts them)
        # and current spelled with an escape (found by no search for it):
        # the last two take the full read
        user, current = group_request
        wd = self._copy(evaluated, tmp_path)
        name, escaped = json.dumps(current), '"\\u%04x%s"' % (ord(current[0]), current[1:])
        relay = {
            "node": lambda text: text.replace(f'"id": {name}', f'"id":{name}'),
            "object": lambda text: json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")),
            "escaped": lambda text: text.replace(name, escaped),
        }[case]
        sources = self._relay_graphs(wd, user, current, relay)
        docs = json.loads((wd / "graphs.json").read_text())
        assert sources >= 1 and json.loads(escaped) == current
        cfg = PipelineConfig(seed=3)
        oracle = without_evaluate(wd, tmp_path / "oracle")
        with counting_decodes() as counts:
            got = pipeline.stage_recommend(wd, cfg, user, current, True)
        # the fall-back read decodes every graph after the user's own
        assert counts["graphs"] == 1 + (sources if case == "node" else len(docs))
        expected = pipeline.stage_recommend(oracle, cfg, user, current, True)
        assert json.dumps(got) == json.dumps(expected)
        # the layouts hold the same graphs: served as the fitted model is
        as_fitted = without_evaluate(evaluated, tmp_path / "as-fitted")
        assert got == pipeline.stage_recommend(as_fitted, cfg, user, current, True)

    def test_user_id_twice_serves_as_the_full_read(self, evaluated, group_request, tmp_path):
        # each other graph naming current is followed, at the end of the
        # list, by a graph of the same id that does not name it, which the
        # full read keeps: no source is left, and the full read serves that
        user, current = group_request
        wd = self._copy(evaluated, tmp_path)
        path = wd / "graphs.json"
        docs = json.loads(path.read_text())
        spare = next(g for g in docs if not names_report(g, current))
        sources = [g["user_id"] for g in docs if g["user_id"] != user and names_report(g, current)]
        docs += [{**spare, "user_id": uid} for uid in sources]
        path.write_text(json.dumps(docs, sort_keys=True))
        cfg = PipelineConfig(seed=3)
        pipeline.stage_evaluate(wd, cfg)
        got = pipeline.stage_recommend(wd, cfg, user, current, True)
        assert json.dumps(got) == json.dumps(
            pipeline.stage_recommend(without_evaluate(wd, tmp_path / "oracle"), cfg, user, current, True)
        )
        assert got == pipeline.stage_recommend(wd, cfg, user, current)

    @pytest.mark.parametrize("rename", ["report", "prefixed"])
    def test_user_id_holding_the_report_id_serves_as_the_full_read(
        self, evaluated, group_request, tmp_path, rename
    ):
        # another user renamed to the current report's id, or to an id that
        # holds it, in every model file, and evaluated: each request at
        # current is served as the full read serves it
        user, current = group_request
        wd = self._copy(evaluated, tmp_path)
        docs = json.loads((wd / "graphs.json").read_text())
        other = next(g["user_id"] for g in docs if g["user_id"] != user and names_report(g, current))
        new = current if rename == "report" else f"{other}-{current}"
        for name in ("graphs.json", "clustering.json", "rankmodel.json"):
            path = wd / name
            path.write_text(path.read_text().replace(json.dumps(other), json.dumps(new)))
        pipeline.stage_evaluate(wd, PipelineConfig(seed=3))
        requests = [(u, c) for u, c in _every_request(wd) if c == current]
        assert (user, current) in requests and (new, current) in requests
        oracle = without_evaluate(wd, tmp_path / "oracle")
        assert_parts_serve_as_the_full_read(wd, oracle, PipelineConfig(seed=3), requests, collaborative=True)

    @pytest.mark.parametrize("flags", [[], ["--collaborative"]], ids=["own", "collaborative"])
    def test_recommend_imports_no_logging(self, evaluated, group_request, tmp_path, flags):
        # nothing on a cold recommend's path logs, so it loads no logging
        wd = self._copy(evaluated, tmp_path)
        user, current = group_request
        argv = ["recommend", "--workdir", str(wd), "--user", user, "--current", current, *flags]
        script = (
            "import json, sys\n"
            "from intentrec import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, 'logging' in sys.modules]), file=sys.stderr)\n"
        )
        src = str(Path(intentrec.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert json.loads(done.stderr.splitlines()[-1]) == [cli.EXIT_OK, False]
        assert json.loads(done.stdout)["recs"]


def _readme_cli_commands() -> list[list[str]]:
    """Each `intentrec` command of the README's CLI code block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("intentrec ")]


class TestReadmeQuickstart:
    def test_every_command_of_the_cli_block_exits_0(self, tmp_path, monkeypatch, capsys):
        commands = _readme_cli_commands()
        assert [argv[0] for argv in commands] == [
            "synth", "run", "ingest", "graph", "tensor", "factorize", "kalman", "train-rank",
            "evaluate", "recommend", "sweep",
        ]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
            if argv[0] == "recommend":
                # the block's user and current report are served, not refused
                assert json.loads(capsys.readouterr().out)["recs"]
