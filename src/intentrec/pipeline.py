"""File-backed pipeline stages: each stage reads its predecessor's artifacts
from the workdir, writes its own, and records a manifest entry."""
from __future__ import annotations

import io
import json
import logging
import re
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from . import context, evaluation, ingest, kalman, navgraph, parafac2, ranksvm, synth
from .artifacts import TrainedModel, UserServing
from .config import PipelineConfig
from .models import Dataset, HitRecord, ReportKind, Session, group_by_user
from .recommender import Clustering
from .store import (  # noqa: F401  (MissingArtifact, stage_recommend: re-exported)
    MissingArtifact,
    NpyArray,
    StaleArtifact,
    _assignments,
    _begin_stage,
    _clustered,
    _note_manifest,
    _read_bytes,
    _read_clustering,
    _replacing,
    _rerun,
    _widths,
    load_graphs,
    read_clusters,
    read_model,
    read_npz,
    stage_recommend,
)

log = logging.getLogger(__name__)

TRANSITION_RIDGE = 1e-3
PARAFAC2_TOL = 1e-6  # parafac2.DEFAULT_TOL (1e-7) costs ~12x the iterations for no NDCG gain


# sessions.npz holds `split_instant`, `vocab` (a JSON list, UTF-8 encoded) and
# for each split one 1-D column per name below, prefixed `train_` or `test_`:
# `lengths` (hits per session) and `values` (every hit's values, flat), then
# one entry per hit, the hits of all sessions end to end: `ts`, `kind` (an
# index into ReportKind), `counts` (the hit's number of values) and each text
# column as an index into `vocab`.
_SPLITS = ("train", "test")
_TEXT_COLUMNS = ("user_id", "report_id", "metric", "dim_element", "session")
_PER_HIT = ("ts", "kind", "counts", *_TEXT_COLUMNS)
_SPLIT_COLUMNS = ("lengths", "values", *_PER_HIT)
# each array's dtype as np.save records it, the one `save_dataset` writes
_SESSION_DTYPES = {
    "split_instant": np.dtype(np.int64).str,
    "vocab": np.dtype(np.uint8).str,
    **{
        f"{split}_{name}": np.dtype({"values": np.float64, "ts": np.int64}.get(name, np.int32)).str
        for split in _SPLITS for name in _SPLIT_COLUMNS
    },
}
_KIND_ORDER = tuple(ReportKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KIND_ORDER)}


class _Vocab(dict):
    """Each distinct (type, value) -> its index, given on first sight: so
    a session hint keeps its JSON type, and 1, 1.0 and "1" stay apart."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _split_arrays(sessions: list[Session], vocab: _Vocab) -> dict[str, np.ndarray]:
    hits = [h for s in sessions for h in s.hits]
    user, ts, report, kind, metric, dim, values, session = zip(*hits) if hits else [()] * 8
    text = (user, report, metric, dim, session)
    return {
        "lengths": np.array([len(s) for s in sessions], dtype=np.int32),
        "values": np.fromiter(chain.from_iterable(values), dtype=np.float64),
        "ts": np.array(ts, dtype=np.int64),
        "kind": np.array(list(map(_KIND_CODES.__getitem__, kind)), dtype=np.int32),
        "counts": np.array(list(map(len, values)), dtype=np.int32),
        **{
            name: np.array(list(map(vocab.__getitem__, zip(map(type, col), col))), dtype=np.int32)
            for name, col in zip(_TEXT_COLUMNS, text)
        },
    }


def save_dataset(dataset: Dataset, fh):
    """Write dataset to the binary file fh as the columns of sessions.npz."""
    vocab = _Vocab()
    arrays = {
        f"{split}_{name}": column
        for split, sessions in zip(_SPLITS, (dataset.train, dataset.test))
        for name, column in _split_arrays(sessions, vocab).items()
    }
    words = json.dumps([value for _, value in vocab]).encode()
    np.savez(
        fh, split_instant=np.int64(dataset.split_instant),
        vocab=np.frombuffer(words, dtype=np.uint8), **arrays,
    )


def _split_sessions(columns: dict[str, np.ndarray], vocab: list) -> list[Session]:
    """The sessions of one split's columns, each of its `_SESSION_DTYPES`
    dtype; ValueError if they disagree."""
    for name, column in columns.items():
        if column.ndim != 1:
            raise ValueError(f"column {name} is not a 1-D array")
    lengths, counts, values = columns["lengths"], columns["counts"], columns["values"]
    if (lengths < 1).any():
        raise ValueError("a session without hits")
    n_hits = int(lengths.sum())
    short = [name for name in _PER_HIT if len(columns[name]) != n_hits]
    if short:
        raise ValueError(f"columns {short} do not hold the {n_hits} hits of `lengths`")
    if (counts < 1).any() or int(counts.sum()) != len(values):
        raise ValueError(f"value counts do not split the {len(values)} values into hits")
    if not np.isfinite(values).all():
        raise ValueError("non-finite values")
    sizes = {"kind": len(_KIND_ORDER), **dict.fromkeys(_TEXT_COLUMNS, len(vocab))}
    outside = [n for n, size in sizes.items() if ((columns[n] < 0) | (columns[n] >= size)).any()]
    if outside:
        raise ValueError(f"columns {outside} hold codes outside their vocabulary")
    flat = values.tolist()
    ends = np.cumsum(counts).tolist()
    user, report, metric, dim, session = (
        map(vocab.__getitem__, columns[name].tolist()) for name in _TEXT_COLUMNS
    )
    hits = list(map(
        HitRecord, user, columns["ts"].tolist(), report,
        map(_KIND_ORDER.__getitem__, columns["kind"].tolist()), metric, dim,
        map(tuple, map(flat.__getitem__, map(slice, [0, *ends[:-1]], ends))), session,
    ))
    sessions = []
    end = 0
    for n in lengths.tolist():
        start, end = end, end + n
        sessions.append(Session(user_id=hits[start].user_id, hits=hits[start:end]))
    return sessions


# The last sessions file `load_dataset` parsed, keyed by the SHA-256 of its
# bytes: the stages of one process then parse a given content once. Its
# Sessions are never handed out, only copies around the immutable hits.
_parsed: dict[str, Dataset] = {}


def load_dataset(path: Path) -> Dataset:
    """The Dataset `save_dataset` wrote to path. The structure is checked
    once per file, not per hit: a file without one of the columns, or whose
    columns disagree, raises StaleArtifact; so does a truncated one. Each
    call returns its own Sessions and hit lists, so a caller may edit them."""
    data, key = _read_bytes(path)
    if key not in _parsed:
        arrays = read_npz(path, dict.fromkeys(_SESSION_DTYPES), data, _SESSION_DTYPES)
        arrays = {name: _array(array) for name, array in arrays.items()}
        try:
            vocab = json.loads(arrays["vocab"].tobytes())
            split_instant = arrays["split_instant"]
            if type(vocab) is not list or split_instant.shape:
                raise ValueError("vocab is not a JSON list, or split_instant not one integer")
            splits = {
                split: _split_sessions(
                    {name: arrays[f"{split}_{name}"] for name in _SPLIT_COLUMNS}, vocab
                )
                for split in _SPLITS
            }
            parsed = Dataset(**splits, split_instant=int(split_instant))
        except (KeyError, TypeError, ValueError) as exc:
            raise StaleArtifact(_rerun(
                path, "does not hold the session columns this version writes "
                f"({type(exc).__name__}: {exc})"
            )) from exc
        _parsed.clear()
        _parsed[key] = parsed
    parsed = _parsed[key]
    return Dataset(
        train=[Session(s.user_id, list(s.hits)) for s in parsed.train],
        test=[Session(s.user_id, list(s.hits)) for s in parsed.test],
        split_instant=parsed.split_instant,
    )


def _array(array: NpyArray) -> np.ndarray:
    """A checked `read_npz` array as a read-only NumPy array over its bytes."""
    return np.frombuffer(array.data, dtype=array.descr).reshape(array.shape)


# ---------------------------------------------------------------- stages


def stage_synth(workdir: Path, config: synth.SynthConfig) -> Path:
    t0 = _begin_stage(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    hits = synth.generate(config)
    out = workdir / "hits.jsonl"
    with _replacing(out) as fh:
        fh.write(synth.to_jsonl(hits).encode())
    _note_manifest(workdir, "synth", asdict(config), t0)
    return out


def stage_ingest(workdir: Path, config: PipelineConfig, source: Path | None = None) -> Path:
    t0 = _begin_stage(workdir)
    _parsed.clear()  # so a fit never holds two datasets
    src = source or workdir / "hits.jsonl"
    fmt = "csv" if src.suffix == ".csv" else "jsonl"
    parsed = ingest.parse_hits(io.BytesIO(_read_bytes(src)[0]), format=fmt)
    sessions = ingest.sessionize(parsed.records, timeout=config.timeout)
    dataset = ingest.temporal_split(sessions, train_fraction=config.train_fraction)
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "sessions.npz"
    with _replacing(out) as fh:
        save_dataset(dataset, fh)
    _note_manifest(
        workdir, "ingest",
        {"timeout": config.timeout, "train_fraction": config.train_fraction}, t0,
        skipped_rows=parsed.skipped,
        train_sessions=len(dataset.train),
        test_sessions=len(dataset.test),
        train_hits=dataset.train_hits,
        test_hits=dataset.test_hits,
        split_instant=dataset.split_instant,
    )
    return out


def stage_graph(workdir: Path, config: PipelineConfig) -> Path:
    t0 = _begin_stage(workdir)
    dataset = load_dataset(workdir / "sessions.npz")
    docs = []
    for uid, sessions in sorted(group_by_user(dataset.train).items()):
        g = navgraph.build_graph(sessions)
        navgraph.detect_targets(g)
        docs.append(g.to_json())
    out = workdir / "graphs.json"
    with _replacing(out) as fh:
        fh.write(json.dumps(docs, sort_keys=True).encode())
    _note_manifest(workdir, "graph", {}, t0)
    return out


def _drop_cluster_dir(out: Path):
    """Remove `<name>/`, the directory of per-cluster files in which earlier
    versions wrote what out, `<name>.npz`, now holds, if it holds nothing but
    that layout's `cluster_<c>.npz` and `.json` files; otherwise leave it and
    log one warning that names it. Called once out is written whole."""
    old = out.with_suffix("")
    if not old.is_dir():
        return
    files = list(old.iterdir())
    try:
        if all(re.fullmatch(r"cluster_\d+\.(npz|json)", f.name) and f.is_file() for f in files):
            for f in files:
                f.unlink()
            old.rmdir()
            return
    except OSError:
        pass
    log.warning(
        "%s, the per-cluster directory of an earlier version, is left: "
        "it holds other files or cannot be removed", old,
    )


def stage_tensor(workdir: Path, config: PipelineConfig) -> Path:
    t0 = _begin_stage(workdir)
    dataset = load_dataset(workdir / "sessions.npz")
    per_user = group_by_user(dataset.train)
    features = {uid: context.usage_features(s) for uid, s in per_user.items()}
    clustering = context.cluster_users(features, seed=config.seed)
    matrices = {uid: context.build_matrix(s) for uid, s in per_user.items()}
    clusters: dict[str, list[str]] = {}
    for uid, cluster_id in sorted(clustering.assignments.items()):
        clusters.setdefault(str(cluster_id), []).append(uid)
    doc = {
        "clusters": clusters,
        "views": {u: m.X.shape[1] for u, m in matrices.items()},
        "slots": {u: m.layout.slots for u, m in matrices.items()},
        "centroids": clustering.centroids.tolist(),
        "insufficient": clustering.insufficient,
        "empty_clusters": clustering.empty_clusters,
    }
    tensors = {}
    for cluster_id, members in clusters.items():
        stacks, _ = parafac2.stack_panels(context.assemble_tensor([matrices[u] for u in members]))
        tensors[cluster_id] = {f"X_{X.shape[1]}": X for X in stacks}
    with _replacing(workdir / "clustering.json") as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode())
    out = workdir / "tensors.npz"
    with _replacing(out) as fh:
        np.savez(fh, **_clustered(tensors))
    _drop_cluster_dir(out)
    _note_manifest(workdir, "tensor", {"seed": config.seed}, t0)
    return out


def _stacks(groups: dict[int, list[int]], prefix: str) -> dict[str, int]:
    """The `read_npz` rows of a cluster's width-group stacks `<prefix>_<N_u>`."""
    return {f"{prefix}_{width}": len(idx) for width, idx in groups.items()}


def stage_factorize(workdir: Path, config: PipelineConfig) -> Path:
    """PARAFAC2 per cluster, each width group of its members one stack. A
    cluster's rank is clamped to min(rank, T, smallest N_u), so every member
    keeps a context model. factors.npz holds each cluster's width groups'
    G stacks `G_<N_u>`, S in member order, H and V."""
    t0 = _begin_stage(workdir)
    doc = _read_clustering(workdir)
    groups = {c: parafac2.width_groups(_widths(doc, m)) for c, m in doc["clusters"].items()}
    rows = {c: _stacks(g, "X") for c, g in groups.items()}
    clusters: dict[str, dict] = {}
    fitted = {}
    for cluster_id, panels in read_clusters(workdir / "tensors.npz", rows).items():
        stacks = list(map(_array, panels.values()))
        rank = min(config.rank, stacks[0].shape[2], min(groups[cluster_id]))
        if rank < config.rank:
            log.warning("cluster %s: rank %d clamped to %d", cluster_id, config.rank, rank)
        factors, report = parafac2.decompose(
            stacks, list(groups[cluster_id].values()), rank=rank, tol=PARAFAC2_TOL,
            max_iters=config.max_iters, seed=config.seed + int(cluster_id),
        )
        if not report.converged:
            log.warning(
                "cluster %s: PARAFAC2 did not converge in %d iterations",
                cluster_id, report.iterations,
            )
        fitted[cluster_id] = {f"G_{G.shape[1]}": G for G in factors.G}
        fitted[cluster_id].update(H=factors.H, S=factors.S, V=factors.V)
        norm_sq = report.norm_sq
        clusters[cluster_id] = {
            "requested_rank": config.rank,
            "rank": rank,
            "iterations": report.iterations,
            "converged": report.converged,
            "relative_error": report.errors[-1] / norm_sq if norm_sq else 0.0,
        }
    out = workdir / "factors.npz"
    with _replacing(out) as fh:
        np.savez(fh, **_clustered(fitted))
    _drop_cluster_dir(out)
    _note_manifest(
        workdir, "factorize", {"rank": config.rank, "seed": config.seed}, t0, clusters=clusters
    )
    return out


def stage_kalman(workdir: Path, config: PipelineConfig) -> Path:
    """Build each member's filter (the only code that does) and evolve its
    latent factor over its training views, the members of a cluster that
    share a width N_u as one stack in lockstep. kalman.npz holds each
    cluster's A (fitted once, from the shared V) and Q; `psi`, `f_post` and
    `P_post` stacked in member order, and the members' `Lam` rows one after
    another; and `evolved`, each member's evolved factor per training view
    (B x T x R, zero past the member's views)."""
    t0 = _begin_stage(workdir)
    doc = _read_clustering(workdir)
    groups = {c: parafac2.width_groups(_widths(doc, m)) for c, m in doc["clusters"].items()}
    tensors = read_clusters(workdir / "tensors.npz", {c: _stacks(g, "X") for c, g in groups.items()})
    fits = read_clusters(workdir / "factors.npz", {
        c: {**_stacks(g, "G"), "H": None, "S": len(doc["clusters"][c]), "V": None}
        for c, g in groups.items()
    })
    views = steady = missing = 0
    filters = {}
    for cluster_id, members in doc["clusters"].items():
        widths = np.array(_widths(doc, members))
        fit = {name: _array(array) for name, array in fits[cluster_id].items()}
        factors = parafac2.Parafac2Factors(
            fit["S"].shape[1], G=[fit[f"G_{width}"] for width in groups[cluster_id]], H=fit["H"],
            S=fit["S"], V=fit["V"], members=list(groups[cluster_id].values()),
        )
        f_initial = parafac2.initial_latent_factors(factors)
        A = kalman.estimate_transition(f_initial, ridge=TRANSITION_RIDGE)
        Q = config.process_noise * np.eye(factors.rank)
        n, r = len(members), factors.rank
        counts = np.array([doc["views"][uid] for uid in members])
        first_row = np.cumsum(widths) - widths  # of each member's Lam rows
        T = f_initial.shape[1]
        psi, f_post, P_post = np.empty(n), np.empty((n, r)), np.empty((n, r, r))
        Lam, evolved = np.empty((widths.sum(), r)), np.empty((n, T, r))
        for g, (width, idx) in enumerate(groups[cluster_id].items()):
            X = _array(tensors[cluster_id][f"X_{width}"])
            lam = parafac2.loading_matrix(factors, g)
            psi[idx] = kalman.estimate_measurement_noise(X, lam, f_initial)
            f_seq, final, steady_obs, missing_obs = kalman.evolve_sequence(
                lam, A, Q, psi[idx, None, None] * np.eye(width), X, counts[idx], f_initial[:, 0]
            )
            evolved[idx] = np.where(np.arange(T)[:, None] < counts[idx, None, None], f_seq, 0.0)
            f_post[idx], P_post[idx] = final.f_post[:, :, 0], final.P_post
            Lam[(first_row[idx, None] + np.arange(width)).ravel()] = lam.reshape(-1, r)
            steady += steady_obs
            missing += missing_obs
        views += int(counts.sum())
        filters[cluster_id] = dict(
            A=A, Q=Q, psi=psi, Lam=Lam, f_post=f_post, P_post=P_post, evolved=evolved
        )
    out = workdir / "kalman.npz"
    with _replacing(out) as fh:
        np.savez(fh, **_clustered(filters))
    _drop_cluster_dir(out)
    _note_manifest(
        workdir, "kalman", {"process_noise": config.process_noise}, t0,
        views=views, steady_views=steady, missing_views=missing,
    )
    return out


def stage_train_rank(workdir: Path, config: PipelineConfig) -> Path:
    t0 = _begin_stage(workdir)
    dataset = load_dataset(workdir / "sessions.npz")
    graphs = load_graphs(workdir)
    doc = _read_clustering(workdir)
    rows = {c: {"evolved": len(members)} for c, members in doc["clusters"].items()}
    filters = read_clusters(workdir / "kalman.npz", rows)
    evolved_per_user = {
        uid: _array(filters[cluster_id]["evolved"])[idx, : doc["views"][uid]]
        for cluster_id, members in doc["clusters"].items() for idx, uid in enumerate(members)
    }

    keys: list[tuple[str, str]] = []  # (user, intent) of each set, in the order made

    def training_sets():
        for uid, sessions in sorted(group_by_user(dataset.train).items()):
            if uid not in evolved_per_user:
                continue
            evolved = evolved_per_user[uid]
            session_factors = []
            pos = 0
            for sess in sessions:
                session_factors.append((sess.reports, evolved[pos : pos + len(sess)]))
                pos += len(sess)
            sets = ranksvm.build_training_sets(session_factors, set(graphs[uid].targets()))
            keys.extend((uid, intent) for intent in sets)
            yield from sets.values()

    weights = ranksvm.solve(training_sets(), lam=config.rank_lambda)  # fills keys
    models: dict[str, ranksvm.RankModel] = {}
    for (uid, intent), iw in zip(keys, weights, strict=True):
        models.setdefault(uid, ranksvm.RankModel(trade_off=config.rank_lambda)).weights[intent] = iw
    out = workdir / "rankmodel.json"
    with _replacing(out) as fh:
        fh.write(json.dumps({u: m.to_json() for u, m in models.items()}, sort_keys=True).encode())
    trained = [iw for iw in weights if not iw.degenerate]
    rates = [iw.violation_rate for iw in trained]
    _note_manifest(
        workdir, "train-rank", {"lambda": config.rank_lambda}, t0,
        intents_trained=len(trained),
        intents_degenerate=len(weights) - len(trained),
        pairs=sum(iw.pairs for iw in trained),
        violation_rate_mean=float(np.mean(rates)) if rates else 0.0,
        violation_rate_max=max(rates, default=0.0),
        newton_iterations_max=max((iw.iterations for iw in trained), default=0),
        users_without_rank_model=len(graphs.keys() - models.keys()),
    )
    return out


def load_model(workdir: Path) -> TrainedModel:
    """The model `store.read_model` reads, with each member's filter as
    `stage_kalman` wrote it, the pseudo-inverse of its loadings (one
    `np.linalg.pinv` per width group of a cluster, a stack) and the
    clustering's source table (`Clustering.build`)."""
    graphs, doc, rank_docs, filters = read_model(workdir)
    serving: dict[str, UserServing] = {}
    for cluster_id, members in doc["clusters"].items():
        A, Q, psi, Lam, f_post, P_post = map(_array, filters[cluster_id].values())
        widths = np.array(_widths(doc, members))
        first_row = np.cumsum(widths) - widths  # of each member's Lam rows
        pinvs = {}
        for width, idx in parafac2.width_groups(widths).items():
            rows = (first_row[idx, None] + np.arange(width)).ravel()
            pinvs.update(zip(idx, np.linalg.pinv(Lam[rows].reshape(len(idx), width, -1))))
        for idx, uid in enumerate(members):
            layout = context.FeatureLayout([tuple(p) for p in doc["slots"][uid]])
            lam = Lam[first_row[idx] : first_row[idx] + layout.width]
            state = kalman.KalmanState(
                A=A, Q=Q, Psi=psi[idx] * np.eye(layout.width), Lam=lam,
                f_post=f_post[idx], P_post=P_post[idx],
            )
            serving[uid] = UserServing(layout, Lam_pinv=pinvs[idx], final_state=state)
    return TrainedModel(
        graphs=graphs,
        clustering=Clustering.build(_assignments(doc), graphs),
        rank_models={u: ranksvm.RankModel.from_json(m) for u, m in rank_docs.items()},
        serving=serving,
    )


def stage_evaluate(workdir: Path, config: PipelineConfig) -> evaluation.BenchmarkResult:
    t0 = _begin_stage(workdir)
    dataset = load_dataset(workdir / "sessions.npz")
    model = load_model(workdir)
    result = evaluation.run_benchmark(
        dataset, model, k=config.k, min_unique_reports=config.min_unique_reports
    )
    with _replacing(workdir / "results.csv") as fh:
        fh.write(evaluation.results_csv(result.reports).encode())
    with _replacing(workdir / "results.txt") as fh:
        fh.write((evaluation.results_table(result.reports) + "\n").encode())
    _note_manifest(
        workdir, "evaluate", {"k": config.k, "min_unique_reports": config.min_unique_reports}, t0,
        events=result.events,
        skipped_unseen=result.skipped_unseen,
        skipped_filtered=result.skipped_filtered,
        views=result.views,
        steady_views=result.steady_views,
        missing_views=result.missing_views,
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


def stage_sweep(workdir: Path, configs: list[PipelineConfig]):
    """Re-fit and evaluate at each config's rank; returns (rows, best)."""
    rows = []
    for cfg in configs:
        sub = workdir / f"sweep_R{cfg.rank}"
        sub.mkdir(parents=True, exist_ok=True)
        for name in ("sessions.npz", "graphs.json", "clustering.json", "tensors.npz"):
            with _replacing(sub / name) as fh:
                fh.write(_read_bytes(workdir / name)[0])
        stage_factorize(sub, cfg)
        stage_kalman(sub, cfg)
        stage_train_rank(sub, cfg)
        result = stage_evaluate(sub, cfg)
        proposed = next(rep for rep in result.reports if rep.method == "sum-i")
        rows.append((cfg.rank, proposed))
    best = max(rows, key=lambda row: row[1].ndcg)
    return rows, best
