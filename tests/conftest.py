"""Shared helpers for building hit records, sessions and workdirs in tests."""
from __future__ import annotations

import dataclasses
import json
import shutil
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from intentrec import pipeline, recommender, store, synth
from intentrec.models import HitRecord, ReportKind, Session


def cluster_arrays(z, cluster: str) -> dict[str, np.ndarray]:
    """Cluster c's arrays of an opened tensors.npz, factors.npz or
    kalman.npz, which keys them `<c>/<name>`, by name in the file's order."""
    return {
        key.removeprefix(f"{cluster}/"): z[key] for key in z.files if key.startswith(f"{cluster}/")
    }


def make_hit(
    user="u1",
    ts=0,
    report="r1",
    kind=ReportKind.TIME_SERIES,
    metric="m",
    dim="d",
    values=(1.0, 2.0),
    hint=None,
):
    return HitRecord(
        user_id=user,
        timestamp=ts,
        report_id=report,
        report_kind=kind,
        metric=metric,
        dimension_element=dim,
        values=tuple(values),
        session_hint=hint,
    )


def make_session(user, reports, start=0, gap=60, hint=None, **hit_kwargs):
    """Session visiting the given report ids at fixed time gaps."""
    hits = [
        make_hit(user=user, ts=start + i * gap, report=r, hint=hint, **hit_kwargs)
        for i, r in enumerate(reports)
    ]
    return Session(user_id=user, hits=hits)


def random_sessions(rng: np.random.Generator, user="u1", n_sessions=4, n_reports=6):
    """Random sessions over a small report universe; always ≥2 hits each."""
    reports = [f"r{i}" for i in range(n_reports)]
    out = []
    t = 0
    for s in range(n_sessions):
        length = int(rng.integers(2, 6))
        path = [reports[int(rng.integers(n_reports))]]
        while len(path) < length:
            nxt = reports[int(rng.integers(n_reports))]
            if nxt != path[-1]:
                path.append(nxt)
        out.append(make_session(user, path, start=t, gap=int(rng.integers(10, 120))))
        t += 10_000
    return out


def two_width_workdir(workdir: Path) -> tuple[pipeline.PipelineConfig, list[str]]:
    """A small synthetic log fitted through `factorize`, in which two users
    also view a second (metric, dimension) pair. They share a cluster with
    a one-pair user between them in member order, so its width groups
    interleave: widths 12, 6, 12. Returns the config and the two users."""
    scfg = synth.SynthConfig(
        n_users=8, n_reports=40, sessions_per_user=8, intent_count=2,
        context_signal_strength=0.8, seed=3,
    )
    pipeline.stage_synth(workdir, scfg)
    hits = workdir / "hits.jsonl"
    rows = [json.loads(line) for line in hits.read_text().splitlines()]
    wide = ["u0002", "u0007"]
    extra = [
        {**row, "metric": "visits", "dim_element": "mobile", "ts": row["ts"] + 1}
        for user in wide for row in [r for r in rows if r["user_id"] == user][:6]
    ]
    hits.write_text("".join(json.dumps(row) + "\n" for row in rows + extra))
    cfg = pipeline.PipelineConfig(seed=3, rank=3, max_iters=20)
    pipeline.stage_ingest(workdir, cfg, hits)
    for stage in (pipeline.stage_graph, pipeline.stage_tensor, pipeline.stage_factorize):
        stage(workdir, cfg)
    return cfg, wide


def _left_to_right_dot(x, y) -> np.float64:
    """((x0*y0 + x1*y1) + x2*y2) + ..., one NumPy scalar multiply and add
    per term."""
    s = np.multiply(x[0], y[0])
    for a, b in zip(x[1:], y[1:]):
        s = np.add(s, np.multiply(a, b))
    return s


def per_target_intent_scores(model, user_id: str, f: np.ndarray) -> dict[str, float]:
    """The intent scores of f by their definition, one target at a time:
    the bitwise oracle of `TrainedModel.intent_scores`, its stacked form
    and `store.intent_scores`, sharing no code with them. f is divided by
    the square root of its left-to-right dot with itself unless that is 0,
    and each of the user's graph targets that has rank weights w scores the
    clamped (4 + <w, f>) / 8, its dot also summed left to right, in target
    order."""
    graph = model.graphs[user_id]
    rank_model = model.rank_models.get(user_id)
    if rank_model is None:
        return {}
    f = np.asarray(f, dtype=float)
    norm = np.sqrt(_left_to_right_dot(f, f))
    unit = np.divide(f, norm) if norm > 0 else f
    out = {}
    for t in graph.targets():
        if t in rank_model.weights:
            raw = _left_to_right_dot(rank_model.weights[t].w, unit)
            out[t] = float(np.minimum(np.maximum(np.divide(np.add(4.0, raw), 8.0), 0.0), 1.0))
    return out


def scan_group_recommend(
    user_id, assignments, graphs, u, intent_scores, variant=recommender.RelevanceVariant.SUM_I
):
    """`recommender.group_recommend` as a scan of every graph it is handed,
    in id order, the oracle of its source table: a source is any other
    user whose cluster (-1 if unclustered) is at or above user_id's and
    whose graph holds u and at least one target."""
    if user_id not in assignments:
        raise KeyError(f"user {user_id!r} not clustered")
    own_cluster = assignments[user_id]
    own_graph = graphs.get(user_id)
    own_nodes = set(own_graph.nodes) if own_graph else set()
    recs = []
    for other_id in sorted(graphs):
        if other_id == user_id:
            continue
        if assignments.get(other_id, -1) < own_cluster:
            continue
        g = graphs[other_id]
        if u not in g.nodes or not g.targets():
            continue
        candidates = [c for c in recommender.enumerate_candidates(g, u) if c[0] not in own_nodes]
        recs += recommender.score(g, candidates, intent_scores, variant, collaborative=True)
    return recs


def rec_fields(recs) -> list[str]:
    """Every field of each Recommendation, in order, as repr: so two lists
    compare equal only if each float is equal bit for bit (-0.0 included)."""
    return [repr(dataclasses.astuple(r)) for r in recs]


def numpy_recommend_doc(model, config, user: str, current: str, collaborative: bool) -> dict:
    """The doc `stage_recommend` returns, built from a `load_model` model as
    the NumPy serving path builds it: the oracle of its pure-Python scoring."""
    serving = model.serving.get(user)
    scores = model.intent_scores(user, serving.final_state.f_post) if serving else {}
    variant = recommender.RelevanceVariant(config.variant)
    recs = recommender.recommend(model.graphs[user], current, scores, variant)
    if collaborative:
        recs += recommender.group_recommend(
            user, model.clustering, model.graphs, current, scores, variant
        )
    ranked = recommender.rank(recs, k=config.k)
    request = {"user": user, "current": current, "k": config.k, "variant": config.variant}
    return {**request, "recs": [r.to_json() for r in ranked]}


@contextmanager
def counting_decodes():
    """A Counter of the graphs `NavGraph.from_json` builds ("graphs") and of
    the .npz members `store.read_npz` decodes ("arrays") while the context
    is open."""
    from_json, npy = store.NavGraph.from_json, store._npy
    counts = Counter()

    def graph(doc):
        counts["graphs"] += 1
        return from_json(doc)

    def array(raw, dtype):
        counts["arrays"] += 1
        return npy(raw, dtype)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store.NavGraph, "from_json", staticmethod(graph))
        patch.setattr(store, "_npy", array)
        yield counts


def without_evaluate(workdir: Path, copy: Path) -> Path:
    """A copy of workdir whose manifest has no `evaluate` entry, so that a
    request on it reads and checks the whole model: the oracle of a
    request served from the user's part."""
    shutil.copytree(workdir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    del manifest["evaluate"]
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy


def names_report(graph_doc: dict, report: str) -> bool:
    """Whether a graphs.json object names report: as its user id, a node or
    an edge's end."""
    return (
        report == graph_doc["user_id"]
        or any(n["id"] == report for n in graph_doc["nodes"])
        or any(report in (e["from"], e["to"]) for e in graph_doc["edges"])
    )


def assert_parts_serve_as_the_full_read(
    workdir: Path, oracle: Path, config, requests, collaborative: bool = False
):
    """Each (user, current) request on the evaluated workdir decodes the
    user's graph (and, if collaborative, every other graph naming current)
    and the f_post of the user's cluster, if it has one, and returns the
    doc the full read returns on oracle (`without_evaluate`); the request's
    manifest inputs stay evaluate's model inputs."""
    clusters = json.loads((workdir / "clustering.json").read_text())["clusters"]
    docs = json.loads((workdir / "graphs.json").read_text())
    for user, current in requests:
        with counting_decodes() as counts:
            got = pipeline.stage_recommend(workdir, config, user, current, collaborative)
        others = sum(g["user_id"] != user and names_report(g, current) for g in docs) if collaborative else 0
        clustered = any(user in members for members in clusters.values())
        assert (counts["graphs"], counts["arrays"]) == (1 + others, int(clustered)), (user, current, counts)
        expected = pipeline.stage_recommend(oracle, config, user, current, collaborative)
        assert json.dumps(got) == json.dumps(expected), (user, current)
    manifest = json.loads((workdir / "manifest.json").read_text())
    model = {k: v for k, v in manifest["evaluate"]["inputs"].items() if k != "sessions.npz"}
    assert manifest["recommend"]["inputs"] == model
