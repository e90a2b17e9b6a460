import json
from collections import Counter
from pathlib import Path

import pytest

from intentrec import cli, pipeline, synth
from intentrec.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A workdir with every stage already run on a tiny synthetic log."""
    wd = tmp_path_factory.mktemp("stages")
    scfg = synth.SynthConfig(
        n_users=8, n_reports=40, sessions_per_user=8, intent_count=2,
        context_signal_strength=0.8, seed=3,
    )
    pipeline.stage_synth(wd, scfg)
    cfg = PipelineConfig(seed=3, rank=3, max_iters=20, rank_epochs=20)
    pipeline.stage_ingest(wd, cfg, wd / "hits.jsonl")
    pipeline.stage_graph(wd, cfg)
    pipeline.stage_tensor(wd, cfg)
    pipeline.stage_factorize(wd, cfg)
    pipeline.stage_kalman(wd, cfg)
    pipeline.stage_train_rank(wd, cfg)
    return wd


def _assert_serving_shapes(workdir: Path):
    """Every training user is served with an R x N_u Lam_pinv, R being its
    cluster's fitted rank, and one R-vector per training view."""
    model = pipeline.load_model(workdir)
    dataset = pipeline.load_dataset(workdir / "sessions.json")
    views = Counter(h.user_id for s in dataset.train for h in s.hits)
    assert model.rank_models
    assert set(model.serving) == set(views)
    for uid, serving in model.serving.items():
        cluster = model.clustering.assignments[uid]
        fit = json.loads((workdir / "factors" / f"cluster_{cluster}.json").read_text())
        rank = fit["rank"]
        assert serving.Lam_pinv.shape == (rank, serving.layout.width)
        assert len(serving.evolved) == views[uid]
        assert all(f.shape == (rank,) for f in serving.evolved)


class TestStages:
    def test_artifacts_exist(self, workdir):
        for name in (
            "hits.jsonl", "sessions.json", "graphs.json", "clustering.json",
            "rankmodel.json", "manifest.json",
        ):
            assert (workdir / name).exists(), name
        assert (workdir / "tensors").is_dir()
        assert (workdir / "factors").is_dir()
        assert (workdir / "kalman").is_dir()

    def test_manifest_tracks_stages(self, workdir):
        manifest = json.loads((workdir / "manifest.json").read_text())
        for stage in ("synth", "ingest", "graph", "tensor", "factorize", "kalman", "train-rank"):
            assert stage in manifest, stage
            assert "elapsed_s" in manifest[stage]

    def test_evaluate_stage(self, workdir):
        cfg = PipelineConfig(seed=3, rank=3, min_unique_reports=3)
        result = pipeline.stage_evaluate(workdir, cfg)
        assert (workdir / "results.csv").exists()
        methods = {r.method for r in result.reports}
        assert {"mass", "frequency", "context", "sum-i"} <= methods

    def test_loaded_model_reproduces_fit(self, workdir):
        _assert_serving_shapes(workdir)

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
            fit = json.loads((tmp_path / "factors" / f"cluster_{cluster}.json").read_text())
            assert fit["rank"] == 6

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


class TestCliExitCodes:
    def test_usage_error(self):
        assert cli.main(["definitely-not-a-command"]) == cli.EXIT_USAGE

    def test_missing_artifact(self, tmp_path):
        code = cli.main(["graph", "--workdir", str(tmp_path)])
        assert code == cli.EXIT_MISSING_ARTIFACT

    def test_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\nnot json either\n")
        code = cli.main(["ingest", "--workdir", str(tmp_path), "--input", str(bad)])
        assert code == cli.EXIT_DATA

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
             "--rank", "3", "--max-iters", "15", "--rank-epochs", "15", "--seed", "2"]
        ) == cli.EXIT_OK
        model = pipeline.load_model(tmp_path)
        uid = sorted(model.serving)[0]
        node = sorted(model.graphs[uid].nodes)[0]
        assert cli.main(
            ["recommend", "--workdir", str(tmp_path), "--user", uid, "--current", node]
        ) == cli.EXIT_OK

    def test_rank_one_run_and_sweep(self, tmp_path):
        assert cli.main(
            ["synth", "--workdir", str(tmp_path), "--users", "8", "--reports", "40",
             "--sessions-per-user", "6", "--seed", "2"]
        ) == cli.EXIT_OK
        common = ["--max-iters", "15", "--rank-epochs", "15", "--seed", "2"]
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
