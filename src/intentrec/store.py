"""The workdir's artifact files: reading, checking and writing them, the manifest
that records which files each stage read, `read_model`, the one reader of
the served model, and `stage_recommend`, which serves one request from it,
decoding only the requesting user's part (and, for a collaborative request,
the graphs naming the current report) of a model whose files still hold
the bytes `evaluate` checked (by the digests its manifest entry records).
NumPy-free, so that a cold `intentrec recommend` imports neither NumPy nor
the fitting layers; `pipeline` reads and writes the same files through
this module (`load_model` through `read_model`) and re-exports it."""
from __future__ import annotations

import ast
import hashlib
import io
import json
import math
import operator
import os
import re
import struct
import sys
import time
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from . import recommender
from .config import PipelineConfig
from .models import SLOTS_PER_PAIR
from .navgraph import NavGraph


class MissingArtifact(FileNotFoundError):
    pass


class StaleArtifact(Exception):
    """An artifact an earlier version (or an interrupted stage) left behind,
    which this version cannot read: re-run the stage that writes it."""


# Each stage's outputs in fit order: the one record of which stage writes each file.
OUTPUTS = {
    "synth": ("hits.jsonl",),
    "ingest": ("sessions.npz",),
    "graph": ("graphs.json",),
    "tensor": ("clustering.json", "tensors.npz"),
    "factorize": ("factors.npz",),
    "kalman": ("kalman.npz",),
    "train-rank": ("rankmodel.json",),
    "evaluate": ("results.csv", "results.txt"),
}
_WRITERS = {name: stage for stage, names in OUTPUTS.items() for name in names}


def _rerun(path: Path, what: str) -> str:
    """The message of every missing or stale artifact: `<path> <what>;
    re-run `intentrec <writer>``, writer being the stage of OUTPUTS that
    writes path. A file no stage writes, such as an `ingest --input` log, is
    named on its own."""
    writer = _WRITERS.get(path.name)
    return f"{path} {what}" if writer is None else f"{path} {what}; re-run `intentrec {writer}`"


# Every file the running stage has read, its manifest inputs, with the
# SHA-256 of the bytes it read.
_reads: dict[Path, str] = {}
# The workdir's manifest as the running stage found it when it began.
_manifest: dict = {}


def _begin_stage(workdir: Path) -> float:
    """Forget what earlier stages read and read the workdir's manifest, so
    a stage refuses a torn one before it writes; the time this one starts."""
    _reads.clear()
    _manifest.clear()
    _manifest.update(_read_manifest(workdir))
    return time.time()


def _read_bytes(path: Path) -> tuple[bytes, str]:
    """The bytes at path and their SHA-256, which the running stage's
    manifest records as an input: the one read of every file a stage reads,
    read and hashed once; MissingArtifact if the file is not there."""
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        # named by the first output missing beside it, of ingest's up to its
        # writer's (ingest may read another log than hits.jsonl): so a workdir
        # short of several outputs names the stage to refit from at once
        names = list(_WRITERS)
        earlier = names[1 : names.index(path.name)] if path.name in _WRITERS else []
        first = next((path.parent / n for n in earlier if not (path.parent / n).is_file()), path)
        also = "" if first == path else f", nor does {path.name}"
        raise MissingArtifact(_rerun(first, f"does not exist{also}")) from None
    _reads[path] = digest = hashlib.sha256(data).hexdigest()
    return data, digest


def _read_json(path: Path):
    """The JSON artifact at path; a truncated one is stale."""
    data, _ = _read_bytes(path)
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise StaleArtifact(_rerun(path, f"is not whole JSON ({exc})")) from exc


def _read_manifest(workdir: Path) -> dict:
    """The workdir's manifest.json, {} before any stage has run; a torn one
    is stale. It is no stage's input, so it bypasses `_read_bytes`."""
    path = workdir / "manifest.json"
    try:
        return json.loads(path.read_text()) if path.exists() else {}
    except ValueError as exc:
        raise StaleArtifact(
            f"{path} is not whole JSON ({exc}); remove it, as no stage rewrites it whole"
        ) from exc


@contextmanager
def _replacing(path: Path):
    """A binary temporary file beside path, which replaces path when the
    block completes and is removed if anything raises: the one writer of
    every artifact but the append-only recommendations.jsonl."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _note_manifest(workdir: Path, stage: str, config: dict, t0: float, **details):
    """Record the stage in manifest.json, its inputs being the files it read."""
    manifest = _read_manifest(workdir)
    manifest[stage] = {
        "inputs": {
            (p.relative_to(workdir).as_posix() if p.is_relative_to(workdir) else p.name): digest
            for p, digest in _reads.items()
        },
        "config": config,
        "elapsed_s": round(time.time() - t0, 3),
        **details,
    }
    with _replacing(workdir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True).encode())


# ---------------------------------------------------------------- .npz


# The dtype descr of the float64 arrays the fitting stages write, in this
# host's byte order as np.save records it.
F8 = ("<" if sys.byteorder == "little" else ">") + "f8"
_NPY_MAGIC = b"\x93NUMPY"
_NPY_KEYS = {"descr", "fortran_order", "shape"}


class NpyArray(NamedTuple):
    """One array of an .npz as `read_npz` checked it."""

    descr: str  # its dtype, as np.save records it
    shape: tuple[int, ...]
    data: memoryview  # its elements in C order, exactly as many bytes as they take


def _npy(raw: bytes, dtype: str) -> NpyArray:
    """The array in raw, the bytes of an .npy file of format version 1, 2
    or 3, if it is a C-order array of dtype; ValueError saying what it is
    otherwise."""
    if raw[:6] != _NPY_MAGIC or len(raw) < 12:
        raise ValueError("no .npy header")
    major = raw[6]
    if major not in (1, 2, 3):
        raise ValueError(f".npy format version {major}")
    start = 10 if major == 1 else 12
    end = start + int.from_bytes(raw[8:start], "little")
    try:
        header = ast.literal_eval(raw[start:end].decode("utf8" if major == 3 else "latin1"))
    except (SyntaxError, ValueError) as exc:
        raise ValueError(f"a .npy header that does not parse ({exc})") from None
    if not isinstance(header, dict) or header.keys() != _NPY_KEYS:
        raise ValueError("a .npy header without exactly descr, fortran_order and shape")
    descr, shape = header["descr"], header["shape"]
    if not isinstance(descr, str) or "O" in descr:
        raise ValueError(f"pickled objects or records ({descr!r}), which this version never writes")
    if header["fortran_order"]:
        raise ValueError("a Fortran-order array, which this version never writes")
    if descr != dtype:
        raise ValueError(f"an array of dtype {descr}, not {dtype}")
    if not isinstance(shape, tuple) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"an array of shape {shape!r}")
    size = math.prod(shape) * int(descr[2:])
    if len(raw) - end != size:
        raise ValueError(f"{len(raw) - end} bytes for shape {shape}, not {size}")
    return NpyArray(descr, shape, memoryview(raw)[end:])


def read_npz(
    path: Path,
    rows: dict[str, int | None],
    data: bytes | None = None,
    dtype: str | dict[str, str] = F8,
) -> dict[str, NpyArray]:
    """The arrays named in `rows` of the .npz at path, or of its bytes if
    the caller has already read them, each of `dtype` (or of its entry in
    `dtype`); an array with a row count in `rows` (a stack, one row per
    member) must hold that many rows. A file that is not so is stale: a
    truncated one, one without such an array (as in the positional layout,
    `arr_0`, ..., of earlier versions), one holding it pickled, in Fortran
    order or of another dtype, and one whose stack holds other members than
    clustering.json lists. Only the named arrays are read, and nothing is
    unpickled."""
    if data is None:
        data, _ = _read_bytes(path)
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as z:
            files = set(z.namelist())
            missing = [name for name in rows if f"{name}.npy" not in files]
            if missing:
                raise StaleArtifact(_rerun(
                    path, f"holds no array {', '.join(missing)}, so it is not in this version's layout"
                ))
            raw = {name: z.read(f"{name}.npy") for name in rows}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise StaleArtifact(_rerun(path, f"is not a whole .npz ({type(exc).__name__}: {exc})")) from exc
    arrays = {}
    for name, n in rows.items():
        try:
            arrays[name] = array = _npy(raw[name], dtype if isinstance(dtype, str) else dtype[name])
        except ValueError as exc:
            raise StaleArtifact(_rerun(path, f"holds {name} as {exc}")) from exc
        if n is not None and array.shape[:1] != (n,):
            raise StaleArtifact(_rerun(
                path, f"holds {name} of shape {array.shape}, not the {n} rows clustering.json lists"
            ))
    return arrays


def _clustered(per_cluster: dict[str, dict]) -> dict:
    """{c: {name: x}} keyed as tensors.npz, factors.npz and kalman.npz hold
    cluster c's array `name`: {"<c>/<name>": x}."""
    return {f"{c}/{name}": x for c, named in per_cluster.items() for name, x in named.items()}


def read_clusters(path: Path, rows: dict[str, dict]) -> dict[str, dict[str, NpyArray]]:
    """Each cluster c's arrays of the stage file at path, rows[c] being its
    `read_npz` rows, by cluster: one `read_npz`, so the file is read and
    hashed once."""
    arrays = read_npz(path, _clustered(rows))
    return {c: {name: arrays[f"{c}/{name}"] for name in named} for c, named in rows.items()}


# ---------------------------------------------------------------- model files


def load_graphs(workdir: Path) -> dict[str, NavGraph]:
    """graphs.json as `stage_graph` wrote it, a list of graph objects, each
    user's graph by its id. Another layout is stale."""
    path = workdir / "graphs.json"
    docs = _read_json(path)
    if type(docs) is list:
        try:
            return {g.user_id: g for g in map(NavGraph.from_json, docs)}
        except (KeyError, TypeError):
            pass
    raise StaleArtifact(_rerun(path, "is not a list of graph objects"))


_CLUSTERING_KEYS = {"clusters", "views", "slots", "centroids", "insufficient", "empty_clusters"}


def _read_clustering(workdir: Path) -> dict:
    """clustering.json as `stage_tensor` wrote it: each cluster's sorted
    members (the row order of its .npz arrays), each user's view count and
    feature slots, and the k-means diagnostics. Another layout is stale."""
    path = workdir / "clustering.json"
    doc = _read_json(path)
    if not _is_clustering(doc):
        raise StaleArtifact(_rerun(path, "is not this version's layout"))
    return doc


def _is_clustering(doc) -> bool:
    return isinstance(doc, dict) and doc.keys() == _CLUSTERING_KEYS


def _assignments(doc: dict) -> dict[str, int]:
    """Each user's cluster in a `_read_clustering` doc: the one listing it."""
    return {u: int(c) for c, members in doc["clusters"].items() for u in members}


def _widths(doc: dict, members: list[str]) -> list[int]:
    """Each member's width N_u, from its feature slots in a `_read_clustering` doc."""
    return [SLOTS_PER_PAIR * len(doc["slots"][u]) for u in members]


# the fields of each intent in rankmodel.json: `RankModel.to_json` writes
# those of `ranksvm.IntentWeights`
_INTENT_KEYS = {"w", "objective", "violation_rate", "degenerate", "pairs", "iterations"}


def _rank_fault(doc, ranks: dict[str, int]) -> str | None:
    """What makes a rankmodel.json doc other than `stage_train_rank`'s
    layout, None if nothing does: each user's `lambda` and `intents`, each
    intent exactly the fields of `RankModel.to_json`, its weights `w` a list
    of floats of the rank R of the user's Kalman factor (`ranks`). Weights of
    another R are left when `factorize` and `kalman` re-ran at another rank:
    a score would dot vectors of unequal lengths."""
    if type(doc) is not dict:
        return "is not an object of users"
    for uid, model in doc.items():
        if (
            type(model) is not dict or model.keys() != {"lambda", "intents"}
            or type(model["intents"]) is not dict
        ):
            return f"holds {uid} without exactly `lambda` and `intents`"
        rank = ranks.get(uid)
        for intent, entry in model["intents"].items():
            if type(entry) is not dict or entry.keys() != _INTENT_KEYS:
                return f"holds {uid} {intent} without exactly the fields {sorted(_INTENT_KEYS)}"
            w = entry["w"]
            if type(w) is not list or not all(type(x) is float for x in w):
                return f"holds weights for {uid} {intent} that are not a list of floats"
            if rank is not None and len(w) != rank:
                return (
                    f"holds weights of length {len(w)} for {uid} {intent}, "
                    f"whose factor in kalman.npz has rank {rank}"
                )


class ModelFiles(NamedTuple):
    """The served model as `read_model` read and checked it."""

    graphs: dict[str, NavGraph]
    clustering: dict  # the `_read_clustering` doc
    rank_models: dict  # rankmodel.json, checked by `_rank_fault`
    filters: dict[str, dict[str, NpyArray]]  # each cluster's kalman.npz filter arrays, by its id


# The files of the served model, which `evaluate` reads and checks in full.
_MODEL_FILES = ("graphs.json", "clustering.json", "rankmodel.json", "kalman.npz")
_DECODER = json.JSONDecoder()


def read_model(workdir: Path, user: str | None = None, current: str | None = None) -> ModelFiles:
    """The files of the served model, each read, checked and recorded as an
    input of the running stage: graphs.json, clustering.json, rankmodel.json
    and every cluster's filter arrays of kalman.npz (not `evolved`). The
    one reader of the model, which both `stage_recommend` and
    `pipeline.load_model` call. Given a user, it returns only the part a
    request of that user at report current needs (`_read_part`: the
    user's part, and the graphs naming current if current is given) if the
    files still hold the bytes `evaluate` read and checked in full;
    otherwise, and without a user, it checks all of them, so a spoiled file
    is refused alike on every path."""
    if user is not None and (part := _read_part(workdir, user, current)) is not None:
        return part
    graphs = load_graphs(workdir)
    doc = _read_clustering(workdir)
    rank_path = workdir / "rankmodel.json"
    rank_models = _read_json(rank_path)
    rows = {}
    for cluster_id, members in doc["clusters"].items():
        n, width = len(members), sum(_widths(doc, members))
        # Lam holds each member's N_u rows one after another, the others one row per member
        rows[cluster_id] = {"A": None, "Q": None, "psi": n, "Lam": width, "f_post": n, "P_post": n}
    path = workdir / "kalman.npz"
    filters, ranks = read_clusters(path, rows), {}
    for cluster_id, arrays in filters.items():
        n, width, r = rows[cluster_id]["psi"], rows[cluster_id]["Lam"], arrays["f_post"].shape[-1]
        shapes = [a.shape for a in arrays.values()]
        if shapes != [(r, r), (r, r), (n,), (width, r), (n, r), (n, r, r)]:
            raise StaleArtifact(_rerun(
                path, f"holds cluster {cluster_id}'s filters of shapes {shapes}, not of one rank"
            ))
        ranks.update(dict.fromkeys(doc["clusters"][cluster_id], r))
    if fault := _rank_fault(rank_models, ranks):
        raise StaleArtifact(_rerun(rank_path, fault))
    return ModelFiles(graphs, doc, rank_models, filters)


def _read_part(workdir: Path, user: str, current: str | None = None) -> ModelFiles | None:
    """The model narrowed to a request of user at report current: the
    user's graph, its rankmodel.json entry (or none) and its cluster's
    `f_post`, with the whole clustering.json; given current, also every
    other graph object naming it, which holds every graph `group_recommend`
    may source from current (`Clustering.build` over the part lists the
    same holders of current as over the whole model). Each model file is
    read and hashed as the full read does, and the part is decoded only if
    every digest is the one the running stage's manifest records for
    `evaluate`, which records it only after `read_model` has checked those
    bytes in full; so what spans users is vouched for, and the part itself
    passes each check the full read applies to it. The parts are found as
    the writers' `json.dumps(..., sort_keys=True)` lays them out: a graph
    object from `{"edges": ` to `"user_id": <id>}` (`_graph_object`) and an
    entry from `<id>: {"intents": `, sequences no string value can hold, as
    its quotes are escaped. None if a file is missing or differs from
    evaluate's, a part is not where the writer puts it, or the part cannot
    be shown to hold every graph naming current: then the caller reads and
    checks every file, and refuses what evaluate would."""
    checked = _manifest.get("evaluate", {}).get("inputs", {})
    if not checked.keys() >= set(_MODEL_FILES):
        return None
    data = {}
    for name in _MODEL_FILES:
        try:
            data[name], digest = _read_bytes(workdir / name)
        except MissingArtifact:
            return None
        if digest != checked[name]:
            return None
    try:
        text = data["graphs.json"].decode()
        tail = f'"user_id": {json.dumps(user)}}}'
        end = text.rfind(tail)
        found = _graph_object(text, end) if end >= 0 else None
        if found is None or found[2] != end + len(tail) or found[0].user_id != user:
            return None
        graph, *own = found
        others = {} if current is None else _graphs_naming(text, current, *own)
        if others is None:
            return None
        text = data["rankmodel.json"].decode()
        key = f'{json.dumps(user)}: {{"intents": '
        at = text.rfind(key)
        if at < 0:  # no entry: the user is served from its graph alone
            if user in json.loads(text):
                return None
            rank_models = {}
        else:
            entry, stop = _DECODER.raw_decode(text, at + len(key) - len('{"intents": '))
            # a key follows "{" or ", ", not the escaped quote of an id ending in user's
            if text[at - 1 : at] not in ("{", " ") or not text.startswith((", ", "}"), stop):
                return None
            rank_models = {user: entry}
        doc = json.loads(data["clustering.json"])
    except (ValueError, KeyError, TypeError):
        return None
    if not _is_clustering(doc):
        return None
    filters, ranks = {}, {}
    for cluster_id, members in doc["clusters"].items():
        if user in members:
            name = f"{cluster_id}/f_post"
            try:
                f_post = read_npz(workdir / "kalman.npz", {name: len(members)}, data["kalman.npz"])[name]
            except StaleArtifact:
                return None
            filters, ranks = {cluster_id: {"f_post": f_post}}, {user: f_post.shape[-1]}
            break
    if _rank_fault(rank_models, ranks):
        return None
    return ModelFiles({**others, user: graph}, doc, rank_models, filters)


def _graph_object(text: str, at: int) -> tuple[NavGraph, int, int] | None:
    """The graph of the object of graphs.json text that spans offset at,
    with the object's start and end offsets: the object from the last
    `{"edges": ` before at, which must end in `"user_id": <its id>}` past
    at, as `stage_graph`'s writer lays it out; None if it does not. A
    decoded object of another layout raises as `NavGraph.from_json` does."""
    start = text.rfind('{"edges": ', 0, at)
    if start < 0:
        return None
    doc, stop = _DECODER.raw_decode(text, start)
    if stop <= at or not text.endswith(f'"user_id": {json.dumps(doc.get("user_id"))}}}', start, stop):
        return None
    return NavGraph.from_json(doc), start, stop


def _graphs_naming(
    text: str, current: str, own_start: int, own_stop: int
) -> dict[str, NavGraph] | None:
    """The graph of every object of graphs.json text naming current but the
    requesting user's own (the object at own_start:own_stop), each decoded
    by `_graph_object`, by user id; None unless that is shown to be every
    graph the full read would hold that names current: every occurrence of
    current's JSON string lies in a decoded object, the text holds no
    backslash (an escape could spell an id another way, and without one a
    quoted id can only be a whole string) and no user id twice (the full
    read keeps an id's last object)."""
    if "\\" in text:
        return None
    ids = re.findall(r'"user_id"\s*:\s*("[^"]*")', text)
    if len(set(ids)) != len(ids):
        return None
    graphs, name = {}, json.dumps(current)
    at = text.find(name)
    while at >= 0:
        if own_start <= at < own_stop:
            stop = own_stop
        else:
            found = _graph_object(text, at)
            if found is None:
                return None
            graph, _, stop = found
            graphs[graph.user_id] = graph
        at = text.find(name, stop)
    return graphs


# ---------------------------------------------------------------- scoring


def dot(x: list[float], y: list[float]) -> float:
    """<x, y> in the one order every intent score sums it, left to right:
    ((x0*y0 + x1*y1) + x2*y2) + ..., each product and each sum one IEEE-754
    double operation, so it has the same bits on every host and Python
    (built-in `sum` compensates float sums from Python 3.12, and BLAS picks
    its order by CPU). `ranksvm.ordered_dots` takes the same sums over
    arrays. Vectors of unequal lengths are a ValueError, never truncated."""
    if len(x) != len(y):
        raise ValueError(f"vectors of lengths {len(x)} and {len(y)}")
    products = map(operator.mul, x, y)
    s = next(products, 0.0)
    for p in products:
        s += p
    return s


def factor_scores(weighted: list[tuple[str, list[float]]], f: list[float]) -> dict[str, float]:
    """The intent scores of one factor f: f is taken at unit norm,
    divided by sqrt(dot(f, f)) unless that is 0, and each target t with
    rank weights w (`weighted`, in target order) scored (4 + dot(w, f)) / 8,
    clamped to [0, 1]. The one scorer of a single factor, bit for bit a row
    of `ranksvm.stacked_scores`; a NaN score stays NaN."""
    norm = math.sqrt(dot(f, f))
    if norm > 0:
        f = [x / norm for x in f]
    return {t: min(max((4.0 + dot(w, f)) / 8.0, 0.0), 1.0) for t, w in weighted}


def intent_scores(targets: tuple[str, ...], rank_model: dict | None, f: list[float]) -> dict[str, float]:
    """The `factor_scores` of a user's graph targets under its factor f,
    from the user's entry of rankmodel.json (None without one)."""
    if rank_model is None:
        return {}
    weights = rank_model["intents"]
    return factor_scores([(t, weights[t]["w"]) for t in targets if t in weights], f)


def stage_recommend(
    workdir: Path,
    config: PipelineConfig,
    user: str,
    current: str,
    collaborative: bool = False,
) -> dict:
    """The top-k recommendations for user at report current, appended to
    recommendations.jsonl. The model is read by `read_model`, given the
    user and, for a collaborative request, current: if `evaluate` has
    checked the files as they are, a plain request decodes only the user's
    part and a collaborative one also the graphs naming current, its
    possible sources; otherwise the whole model is read and checked as
    `pipeline.load_model` does. Only the user's factor is decoded, and
    scored by `intent_scores`."""
    t0 = _begin_stage(workdir)
    graphs, doc, rank_models, filters = read_model(workdir, user, current if collaborative else None)
    if user not in graphs:
        raise KeyError(f"unknown user: {user!r}")
    graph = graphs[user]
    scores = {}
    for cluster_id, members in doc["clusters"].items():
        if user in members:
            f_post = filters[cluster_id]["f_post"]
            rank = f_post.shape[-1]
            f = list(struct.unpack_from(f"={rank}d", f_post.data, 8 * rank * members.index(user)))
            scores = intent_scores(graph.targets(), rank_models.get(user), f)
            break
    variant = recommender.RelevanceVariant(config.variant)
    recs = recommender.recommend(graph, current, scores, variant)
    if collaborative:
        clustering = recommender.Clustering.build(_assignments(doc), graphs)
        recs += recommender.group_recommend(user, clustering, graphs, current, scores, variant)
    ranked = recommender.rank(recs, k=config.k)
    request = {"user": user, "current": current, "k": config.k, "variant": config.variant}
    out = {**request, "recs": [r.to_json() for r in ranked]}
    with (workdir / "recommendations.jsonl").open("a") as fh:
        fh.write(json.dumps(out, sort_keys=True) + "\n")
    _note_manifest(workdir, "recommend", {**request, "collaborative": collaborative}, t0)
    return out
