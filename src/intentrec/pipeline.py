"""File-backed pipeline stages: each stage reads its predecessor's artifacts
from the workdir, writes its own, and records a manifest entry."""
from __future__ import annotations

import hashlib
import json
import logging
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import context, evaluation, ingest, kalman, navgraph, parafac2, ranksvm, recommender, synth
from .artifacts import TrainedModel, UserServing, observation
from .models import Dataset, Session, group_by_user

log = logging.getLogger(__name__)

TRANSITION_RIDGE = 1e-3


class MissingArtifact(FileNotFoundError):
    pass


@dataclass
class PipelineConfig:
    timeout: float = ingest.DEFAULT_SESSION_TIMEOUT
    train_fraction: float = 0.7
    rank: int = parafac2.DEFAULT_RANK
    max_iters: int = parafac2.DEFAULT_MAX_ITERS
    tol: float = 1e-6
    rank_lambda: float = ranksvm.DEFAULT_LAMBDA
    process_noise: float = kalman.DEFAULT_PROCESS_NOISE
    feedback_rate: float = recommender.DEFAULT_FEEDBACK_RATE
    variant: str = "sum-i"
    k: int = 10
    seed: int = 0
    min_unique_reports: int = 5


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingArtifact(str(path))
    return path


def _read_json(path: Path):
    return json.loads(_require(path).read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _note_manifest(
    workdir: Path, stage: str, inputs: list[Path], config: dict, t0: float, **details
):
    manifest_path = workdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    manifest[stage] = {
        "inputs": {p.name: _sha256(p) for p in inputs if p.is_file()},
        "config": config,
        "elapsed_s": round(time.time() - t0, 3),
        **details,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def save_dataset(dataset: Dataset, path: Path):
    doc = {
        "split_instant": dataset.split_instant,
        "train": [[ingest.hit_to_doc(h) for h in s.hits] for s in dataset.train],
        "test": [[ingest.hit_to_doc(h) for h in s.hits] for s in dataset.test],
    }
    path.write_text(json.dumps(doc, sort_keys=True))


def load_dataset(path: Path) -> Dataset:
    doc = _read_json(path)

    def sessions(key):
        out = []
        for hits in doc[key]:
            parsed = [ingest.hit_from_doc(h) for h in hits]
            out.append(Session(user_id=parsed[0].user_id, hits=parsed))
        return out

    return Dataset(train=sessions("train"), test=sessions("test"), split_instant=doc["split_instant"])


def _load_npz(path: Path) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """A cluster's .npz: the per-user arrays, saved positionally in user
    order, and the named arrays the cluster shares."""
    with np.load(_require(path)) as z:
        arrays = dict(z)
    n_users = sum(name.startswith("arr_") for name in arrays)
    return [arrays.pop(f"arr_{i}") for i in range(n_users)], arrays


def _load_factors(path: Path) -> parafac2.Parafac2Factors:
    G, shared = _load_npz(path)
    S = shared["S"]
    return parafac2.Parafac2Factors(rank=S.shape[1], G=G, H=shared["H"], S=list(S), V=shared["V"])


# ---------------------------------------------------------------- stages


def stage_synth(workdir: Path, config: synth.SynthConfig) -> Path:
    t0 = time.time()
    workdir.mkdir(parents=True, exist_ok=True)
    hits = synth.generate(config)
    out = workdir / "hits.jsonl"
    out.write_text(synth.to_jsonl(hits))
    _note_manifest(workdir, "synth", [], asdict(config), t0)
    return out


def stage_ingest(workdir: Path, config: PipelineConfig, source: Path | None = None) -> Path:
    t0 = time.time()
    src = _require(source or workdir / "hits.jsonl")
    fmt = "csv" if src.suffix == ".csv" else "jsonl"
    with src.open() as fh:
        parsed = ingest.parse_hits(fh, format=fmt)
    sessions = ingest.sessionize(parsed.records, timeout=config.timeout)
    dataset = ingest.temporal_split(sessions, train_fraction=config.train_fraction)
    out = workdir / "sessions.json"
    save_dataset(dataset, out)
    _note_manifest(
        workdir,
        "ingest",
        [src],
        {"timeout": config.timeout, "train_fraction": config.train_fraction,
         "skipped_rows": parsed.skipped},
        t0,
    )
    return out


def stage_graph(workdir: Path, config: PipelineConfig) -> Path:
    t0 = time.time()
    dataset = load_dataset(workdir / "sessions.json")
    docs = []
    for uid, sessions in sorted(group_by_user(dataset.train).items()):
        g = navgraph.build_graph(sorted(sessions, key=lambda s: s.hits[0].timestamp))
        navgraph.detect_targets(g)
        docs.append(g.to_json())
    out = workdir / "graphs.json"
    out.write_text(json.dumps(docs, sort_keys=True))
    _note_manifest(workdir, "graph", [workdir / "sessions.json"], {}, t0)
    return out


def load_graphs(workdir: Path) -> dict[str, navgraph.NavGraph]:
    docs = _read_json(workdir / "graphs.json")
    graphs = {}
    for doc in docs:
        g = navgraph.NavGraph.from_json(doc)
        graphs[g.user_id] = g
    return graphs


def stage_tensor(workdir: Path, config: PipelineConfig) -> Path:
    t0 = time.time()
    dataset = load_dataset(workdir / "sessions.json")
    per_user = {
        uid: sorted(sessions, key=lambda s: s.hits[0].timestamp)
        for uid, sessions in group_by_user(dataset.train).items()
    }
    features = {uid: context.usage_features(s) for uid, s in per_user.items()}
    clustering = context.cluster_users(features, seed=config.seed)
    (workdir / "clustering.json").write_text(
        json.dumps(
            {
                "assignments": clustering.assignments,
                "centroids": clustering.centroids.tolist(),
                "insufficient": clustering.insufficient,
                "empty_clusters": clustering.empty_clusters,
            },
            sort_keys=True,
        )
    )

    matrices = {uid: context.build_matrix(s) for uid, s in per_user.items()}
    tensor_root = workdir / "tensors"
    tensor_root.mkdir(parents=True, exist_ok=True)
    for cluster_id in range(context.N_CLUSTERS):
        members = sorted(u for u, c in clustering.assignments.items() if c == cluster_id)
        if not members:
            continue
        tensor = context.assemble_tensor([matrices[u] for u in members], clustering, cluster_id)
        layout_doc = {
            "users": tensor.users,
            "T": tensor.T,
            "orig_cols": {u: matrices[u].X.shape[1] for u in tensor.users},
            "slots": {u: matrices[u].layout.slots for u in tensor.users},
        }
        (tensor_root / f"cluster_{cluster_id}.json").write_text(json.dumps(layout_doc, sort_keys=True))
        # Padding leaves the panels column-major. BLAS sums in a
        # layout-dependent order, and the fitted model's last bits (so
        # results.csv) are pinned to row-major panels.
        np.savez(
            tensor_root / f"cluster_{cluster_id}.npz",
            *(np.ascontiguousarray(m) for m in tensor.matrices),
        )
    _note_manifest(workdir, "tensor", [workdir / "sessions.json"], {"seed": config.seed}, t0)
    return tensor_root


def load_clustering(workdir: Path) -> context.UserClustering:
    doc = _read_json(workdir / "clustering.json")
    return context.UserClustering(
        assignments=doc["assignments"],
        centroids=np.asarray(doc["centroids"]),
        insufficient=doc["insufficient"],
        empty_clusters=doc["empty_clusters"],
    )


def _cluster_ids(tensor_root: Path) -> list[int]:
    return sorted(int(p.stem.split("_")[1]) for p in tensor_root.glob("cluster_*.json"))


def stage_factorize(workdir: Path, config: PipelineConfig) -> Path:
    """PARAFAC2 per cluster. A cluster's rank is clamped to
    min(rank, T, smallest N_u), so every member keeps a context model."""
    t0 = time.time()
    tensor_root = _require(workdir / "tensors")
    factor_root = workdir / "factors"
    factor_root.mkdir(parents=True, exist_ok=True)
    clusters: dict[str, dict] = {}
    for cluster_id in _cluster_ids(tensor_root):
        layout_doc = _read_json(tensor_root / f"cluster_{cluster_id}.json")
        mats, _ = _load_npz(tensor_root / f"cluster_{cluster_id}.npz")
        tensor = context.ContextTensor(
            cluster_id=cluster_id, users=layout_doc["users"], matrices=mats, T=layout_doc["T"]
        )
        rank = min(config.rank, tensor.T, min(m.shape[0] for m in mats))
        if rank < config.rank:
            log.warning("cluster %d: rank %d clamped to %d", cluster_id, config.rank, rank)
        factors, report = parafac2.decompose(
            tensor,
            rank=rank,
            tol=config.tol,
            max_iters=config.max_iters,
            seed=config.seed + cluster_id,
        )
        if not report.converged:
            log.warning(
                "cluster %d: PARAFAC2 did not converge in %d iterations",
                cluster_id, report.iterations,
            )
        np.savez(
            factor_root / f"cluster_{cluster_id}.npz",
            *factors.G, H=factors.H, S=np.array(factors.S), V=factors.V,
        )
        (factor_root / f"cluster_{cluster_id}.json").write_text(
            json.dumps(
                {
                    "users": tensor.users,
                    "rank": rank,
                    "seed": config.seed + cluster_id,
                    "iterations": report.iterations,
                    "converged": report.converged,
                    "errors": report.errors,
                },
                sort_keys=True,
            )
        )
        clusters[str(cluster_id)] = {
            "requested_rank": config.rank,
            "rank": rank,
            "iterations": report.iterations,
            "converged": report.converged,
        }
    _note_manifest(
        workdir, "factorize", [], {"rank": config.rank, "seed": config.seed}, t0, clusters=clusters
    )
    return factor_root


def stage_kalman(workdir: Path, config: PipelineConfig) -> Path:
    """Evolve each member's latent factor over its training views. The
    transition A is fitted once per cluster, from the cluster's shared V."""
    t0 = time.time()
    tensor_root = _require(workdir / "tensors")
    factor_root = _require(workdir / "factors")
    kdir = workdir / "kalman"
    kdir.mkdir(parents=True, exist_ok=True)
    state_doc: dict[str, dict] = {}
    for cluster_id in _cluster_ids(tensor_root):
        layout_doc = _read_json(tensor_root / f"cluster_{cluster_id}.json")
        mats, _ = _load_npz(tensor_root / f"cluster_{cluster_id}.npz")
        factors = _load_factors(factor_root / f"cluster_{cluster_id}.npz")
        f_initial = parafac2.initial_latent_factors(factors)
        A = kalman.estimate_transition(f_initial, ridge=TRANSITION_RIDGE)
        Q = config.process_noise * np.eye(factors.rank)
        evolved_per_user = []
        for idx, uid in enumerate(layout_doc["users"]):
            lam = parafac2.loading_matrix(factors, idx)
            X = mats[idx]
            psi_scale = kalman.estimate_measurement_noise(X, lam, f_initial)
            Psi = psi_scale * np.eye(lam.shape[0])
            obs = [observation(X[:, t]) for t in range(layout_doc["orig_cols"][uid])]
            evolved, final = kalman.evolve_sequence(lam, A, Q, Psi, obs, f_initial[:, 0].copy())
            evolved_per_user.append(np.array(evolved))
            state_doc[uid] = {
                "cluster": cluster_id,
                "index": idx,
                "q": config.process_noise,
                "psi": psi_scale,
                "f_post": final.f_post.tolist(),
                "P_post": final.P_post.tolist(),
            }
        np.savez(kdir / f"cluster_{cluster_id}.npz", *evolved_per_user, A=A)
    (kdir / "states.json").write_text(json.dumps(state_doc, sort_keys=True))
    _note_manifest(workdir, "kalman", [], {"process_noise": config.process_noise}, t0)
    return kdir


def _load_serving(workdir: Path) -> dict[str, UserServing]:
    tensor_root = _require(workdir / "tensors")
    factor_root = _require(workdir / "factors")
    kdir = _require(workdir / "kalman")
    states = _read_json(kdir / "states.json")
    clusters: dict[int, tuple] = {}
    serving: dict[str, UserServing] = {}
    for uid, st in states.items():
        cluster_id = st["cluster"]
        idx = st["index"]
        if cluster_id not in clusters:
            name = f"cluster_{cluster_id}"
            evolved, shared = _load_npz(kdir / f"{name}.npz")
            clusters[cluster_id] = (
                _load_factors(factor_root / f"{name}.npz"),
                evolved,
                shared["A"],
                _read_json(tensor_root / f"{name}.json")["slots"],
            )
        factors, evolved, A, slots = clusters[cluster_id]
        lam = parafac2.loading_matrix(factors, idx)
        state = kalman.KalmanState(
            A=A,
            Q=st["q"] * np.eye(factors.rank),
            Psi=st["psi"] * np.eye(lam.shape[0]),
            Lam=lam,
            f_post=np.asarray(st["f_post"]),
            P_post=np.asarray(st["P_post"]),
        )
        serving[uid] = UserServing(
            user_id=uid,
            layout=context.FeatureLayout(user_id=uid, slots=[tuple(p) for p in slots[uid]]),
            Lam_pinv=np.linalg.pinv(lam),
            final_state=state,
            evolved=list(evolved[idx]),
        )
    return serving


def stage_train_rank(workdir: Path, config: PipelineConfig) -> Path:
    t0 = time.time()
    dataset = load_dataset(workdir / "sessions.json")
    graphs = load_graphs(workdir)
    serving = _load_serving(workdir)

    models: dict[str, ranksvm.RankModel] = {}
    for uid, sessions in sorted(group_by_user(dataset.train).items()):
        if uid not in serving:
            continue
        evolved = serving[uid].evolved
        session_factors = []
        pos = 0
        for sess in sorted(sessions, key=lambda s: s.hits[0].timestamp):
            session_factors.append((sess.reports, evolved[pos : pos + len(sess)]))
            pos += len(sess)
        training_sets = ranksvm.build_training_sets(session_factors, set(graphs[uid].targets()))
        if training_sets:
            models[uid] = ranksvm.train_all(training_sets, lam=config.rank_lambda)
    out = workdir / "rankmodel.json"
    out.write_text(
        json.dumps({u: m.to_json() for u, m in models.items()}, sort_keys=True)
    )
    weights = [iw for m in models.values() for iw in m.weights.values()]
    trained = [iw for iw in weights if not iw.degenerate]
    rates = [iw.violation_rate for iw in trained]
    _note_manifest(
        workdir, "train-rank",
        [workdir / "sessions.json", workdir / "graphs.json"],
        {"lambda": config.rank_lambda},
        t0,
        intents_trained=len(trained),
        intents_degenerate=len(weights) - len(trained),
        pairs=sum(iw.pairs for iw in trained),
        violation_rate_mean=float(np.mean(rates)) if rates else 0.0,
        violation_rate_max=max(rates, default=0.0),
        newton_iterations_max=max((iw.iterations for iw in trained), default=0),
    )
    return out


def load_model(workdir: Path) -> TrainedModel:
    graphs = load_graphs(workdir)
    clustering = load_clustering(workdir)
    serving = _load_serving(workdir)
    doc = _read_json(workdir / "rankmodel.json")
    rank_models = {u: ranksvm.RankModel.from_json(m) for u, m in doc.items()}
    return TrainedModel(
        graphs=graphs,
        clustering=clustering,
        rank_models=rank_models,
        serving=serving,
    )


def stage_recommend(
    workdir: Path,
    config: PipelineConfig,
    user: str,
    current: str,
    collaborative: bool = False,
) -> dict:
    t0 = time.time()
    model = load_model(workdir)
    if user not in model.graphs:
        raise KeyError(f"unknown user: {user!r}")
    graph = model.graphs[user]
    serving = model.serving.get(user)
    if serving is not None:
        f = serving.final_state.f_post
        intent_scores = model.intent_scores(user, f)
    else:
        intent_scores = {}
    variant = recommender.RelevanceVariant(config.variant)
    recs = recommender.recommend(graph, current, intent_scores, variant)
    if collaborative:
        recs += recommender.group_recommend(
            user, model.clustering, model.graphs, current, intent_scores, variant
        )
    ranked = recommender.rank(recs, k=config.k)
    doc = {
        "user": user,
        "current": current,
        "k": config.k,
        "variant": config.variant,
        "recs": [r.to_json() for r in ranked],
    }
    out = workdir / "recommendations.jsonl"
    with out.open("a") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
    _note_manifest(workdir, "recommend", [workdir / "rankmodel.json"], {"user": user}, t0)
    return doc


def stage_evaluate(workdir: Path, config: PipelineConfig) -> evaluation.BenchmarkResult:
    t0 = time.time()
    dataset = load_dataset(workdir / "sessions.json")
    model = load_model(workdir)
    result = evaluation.run_benchmark(
        dataset, model, k=config.k, min_unique_reports=config.min_unique_reports
    )
    (workdir / "results.csv").write_text(evaluation.results_csv(result.reports))
    (workdir / "results.txt").write_text(evaluation.results_table(result.reports) + "\n")
    _note_manifest(
        workdir, "evaluate",
        [workdir / "sessions.json", workdir / "graphs.json", workdir / "rankmodel.json"],
        {"k": config.k, "min_unique_reports": config.min_unique_reports},
        t0,
    )
    return result


def run_all(workdir: Path, config: PipelineConfig, source: Path | None = None):
    stage_ingest(workdir, config, source)
    stage_graph(workdir, config)
    stage_tensor(workdir, config)
    stage_factorize(workdir, config)
    stage_kalman(workdir, config)
    stage_train_rank(workdir, config)
    return stage_evaluate(workdir, config)


def stage_sweep(workdir: Path, config: PipelineConfig, ranks: list[int]):
    """Re-fit and evaluate across factorization ranks; returns (rows, best)."""
    rows = []
    for r in ranks:
        sub = workdir / f"sweep_R{r}"
        sub.mkdir(parents=True, exist_ok=True)
        for name in ("sessions.json", "graphs.json", "clustering.json"):
            src = _require(workdir / name)
            (sub / name).write_text(src.read_text())
        if (sub / "tensors").exists():
            shutil.rmtree(sub / "tensors")
        shutil.copytree(workdir / "tensors", sub / "tensors")
        cfg = PipelineConfig(**{**asdict(config), "rank": r})
        stage_factorize(sub, cfg)
        stage_kalman(sub, cfg)
        stage_train_rank(sub, cfg)
        result = stage_evaluate(sub, cfg)
        proposed = next(rep for rep in result.reports if rep.method == "sum-i")
        rows.append((r, proposed))
    best = max(rows, key=lambda row: row[1].ndcg)
    return rows, best
