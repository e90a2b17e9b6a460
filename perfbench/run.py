#!/usr/bin/env python3
"""Benchmark of the intentrec toolkit.

    python3 perfbench/run.py --workload fit|serve|cli --seed N --seconds S --trace 0|1

Run from the repository root. Every workload is a closed loop driven by one
client in this process:

- fit: `pipeline.run_all` on a fresh workdir, at the acceptance scale.
- serve: one loaded model replays the held-out views in time order; every
  view advances the user's Kalman state, asks for a top-k list (every 10th
  request also for group recommendations) and feeds back whether the true
  next report was shown.
- cli: cold `python -m intentrec.cli recommend` calls, one after another.

Timings are reported in reference units (reference.py): each is divided by
the time of a fixed computation interleaved with the workload, so that the
shared host's drifting speed cancels out.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 a separate, fixed amount of work runs once untraced and once with
every layer's public functions wrapped, and the last line holds per-layer
metrics. The lines before it are a readable report. See METRICS.md.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import hashlib
import json
import logging
import math
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

import common
import reference
import tracing
from reference import Reference

K = 10
GROUP_EVERY = 10  # every 10th request also asks for group recommendations
SETUP_REPEATS = {"fit": 3, "serve": 11, "cli": 11}
SERVE_MIN_PASSES = 3  # at least 1,000 group calls, so their p99 has 10 beyond it
CLI_MIN_CALLS = 40  # p75 of the call latency then has 10 calls beyond it
CLI_POOL = 64
CLI_TRACED_CALLS = 20
CLI_CHECKED = 3  # CLI answers compared with in-process `stage_recommend`
# Reference chunks (reference.py) interleaved with the timed work.
SETUP_REF_CHUNKS = 50  # before each set-up repeat
SERVE_REF_EVERY, SERVE_REF_CHUNKS = 100, 3  # after every 100th request
CLI_REF_EVERY = 2  # one reference process after every 2nd call
FIT_REF_INTERVAL, FIT_REF_CHUNKS = 0.15, 3  # every 150 ms of `run_all`, from a timer
FIT_BRACKET_CHUNKS = 200  # before and after a traced run's `run_all`
TAIL_PERCENTILE = {"fit": 100, "serve": 99, "cli": 75}
METHODS = ("mass", "frequency", "context", "parafac2", "max-ixd", "dot-ixd", "max-i", "sum-i")
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ndcg_at_10", "ndcg"),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, attr in tracing.LAYER_FUNCS:
        units[f"{mod}.{attr}.calls"] = "count"
        units[f"{mod}.{attr}.self_s"] = "s"
    for stage in tracing.STAGES:
        units[f"pipeline.stage_{stage}.wall_s"] = "s"
        units[f"pipeline.stage_{stage}.self_s"] = "s"
    units.update({
        "ingest.rows": "count",
        "ingest.skipped": "count",
        "parafac2.iterations": "count",
        "parafac2.converged_ratio": "ratio",
        "ranksvm.pairs": "count",
        "ranksvm.violation_rate_mean": "ratio",
        "ranksvm.degenerate": "count",
        "recommender.candidates_per_request": "count",
        "recommender.lists_with_repeats": "count",
        "evaluation.events": "count",
        "evaluation.skipped_unseen": "count",
        "evaluation.skipped_filtered": "count",
        "pipeline.artifact_files": "count",
        "pipeline.artifact_bytes": "bytes",
        "cli.import_s": "s",
        "log.records": "count",
        "log.records_per_request": "count",
        "fit.results_sha256": "digest48",
        "serve.topk_sha256": "digest48",
        "cli.topk_sha256": "digest48",
        "serve.recommend_p50_us": "us",
        "serve.recommend_p99_us": "us",
        "serve.group_recommend_p50_ms": "ms",
        "serve.group_recommend_p99_ms": "ms",
        "serve.requests_per_s": "1/s",
        "trace.spans": "count",
        "trace.untraced_latency_p50_ms": "ms",
        "trace.overhead_latency_p50_ms": "ms",
    })
    for method in METHODS:
        units[f"evaluation.ndcg.{method}"] = "ndcg"
    return units


class Run:
    """What one benchmark run measured and checked."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.report: list[str] = []

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def note(self, line: str):
        self.report.append(line)


class LogCapture(logging.Handler):
    """Counts intentrec's log records and writes them to a file, not the terminal.

    Attached to the root logger without changing its level, so the library
    logs at its default level (WARNING). The file is written through a large
    buffer rather than flushed per record, so disk writes do not add noise
    to the timed requests.
    """

    def __init__(self, path: Path):
        super().__init__()
        self.setFormatter(logging.Formatter("%(levelname)s:%(name)s:%(message)s"))
        self.records = 0
        self.file = path.open("w", buffering=1 << 20)

    def emit(self, record):
        if record.name.startswith("intentrec"):
            self.records += 1
            self.file.write(self.format(record) + "\n")

    def close(self):
        self.file.close()
        super().close()


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    if pct >= 100:
        return ordered[-1]
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ndcg(shown: list[str], true_next: str) -> float:
    return 1.0 / math.log2(shown.index(true_next) + 2) if true_next in shown[:K] else 0.0


def timed_setup(run: Run, repeats: int, action):
    """Repeat a set-up action, each time after some reference chunks; returns
    the last result. Records the median time at reference speed as setup_s."""
    ref, times = Reference(), []
    for _ in range(repeats):
        ref.run(SETUP_REF_CHUNKS)
        t0 = time.perf_counter()
        result = action()
        times.append(time.perf_counter() - t0)
    run.note(f"setup: median {statistics.median(times):.4f} s as measured, "
             f"reference chunk {ref.sample_s * 1e3:.4f} ms")
    run.metrics["setup_s"] = statistics.median(times) * ref.scale
    return result


# ------------------------------------------------------------------ inputs


def held_out_views(hits_text: str, config):
    """Every held-out view in time order with the next report of its session
    (None for a session's last view). Split as the ingest stage splits."""
    from intentrec import ingest

    parsed = ingest.parse_hits(hits_text)
    sessions = ingest.sessionize(parsed.records, timeout=config.timeout)
    dataset = ingest.temporal_split(sessions, train_fraction=config.train_fraction)
    views = []
    for sess in dataset.test:
        for i, hit in enumerate(sess.hits):
            nxt = sess.hits[i + 1].report_id if i + 1 < len(sess.hits) else None
            views.append((hit.timestamp, hit.user_id, i, hit, nxt))
    views.sort(key=lambda v: v[:3])
    return [(uid, hit, nxt) for _, uid, _, hit, nxt in views]


def check_fingerprint(run: Run, hits_text: str, views):
    """Compare the generated inputs with the digests pinned for this seed."""
    requests = "".join(f"{u}\t{h.report_id}\t{n}\n" for u, h, n in views if n is not None)
    got = {
        "hits_sha256": common.sha256_hex(hits_text.encode()),
        "requests_sha256": common.sha256_hex(requests.encode()),
    }
    pinned = json.loads(FINGERPRINTS.read_text()).get(str(run.seed))
    run.note(f"inputs: hits.jsonl sha256 {got['hits_sha256']}, requests sha256 {got['requests_sha256']}")
    if pinned is None:
        run.note(f"inputs: seed {run.seed} has no pinned fingerprint")
        return
    for key, value in got.items():
        run.check(pinned[key] == value, f"input fingerprint {key} differs from the pinned value")


def results_ndcg(path: Path, method: str = "sum-i") -> float:
    """NDCG of one method in an evaluated workdir's results.csv."""
    for line in path.read_text().splitlines()[1:]:
        fields = line.split(",")
        if fields[0] == method:
            return float(fields[1])
    raise ValueError(f"{path} has no row for {method}")


def artifact_counts(workdir: Path) -> tuple[int, int]:
    files = [p for p in workdir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def layer_values(summary: dict, counts: dict, requests: int) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, agg in summary.items():
        if name.startswith("pipeline.stage_"):
            values[f"{name}.wall_s"] = agg["wall_s"]
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.self_s"] = agg["self_s"]
    values.update({k: counts.get(k, 0) for k in tracing.COUNTERS})
    decomposed = summary.get("parafac2.decompose", {}).get("calls", 0)
    trained = summary.get("ranksvm.train", {}).get("calls", 0)
    values["parafac2.converged_ratio"] = counts.get("parafac2.converged", 0) / decomposed if decomposed else 0.0
    values["ranksvm.violation_rate_mean"] = (
        counts.get("ranksvm.violation_rate_sum", 0) / trained if trained else 0.0
    )
    values["recommender.candidates_per_request"] = (
        counts.get("recommender.candidates", 0) / requests if requests else 0.0
    )
    values["trace.spans"] = sum(agg["calls"] for agg in summary.values())
    return values


# ------------------------------------------------------------------ fit


def fit_workload(run: Run, seconds: float, trace: bool, capture: LogCapture):
    from intentrec import pipeline

    config = common.pipeline_config(run.seed, common.FIT_SETTINGS)
    run.note(f"config: {json.dumps(dataclasses.asdict(config), sort_keys=True)}")
    synthesized = []

    def synthesize():
        synthesized.append(pipeline.stage_synth(run.work / f"synth{len(synthesized)}", common.synth_config(run.seed)))
        return synthesized[-1]

    hits = timed_setup(run, SETUP_REPEATS["fit"], synthesize)
    texts = {path.read_text() for path in synthesized}
    run.check(len(texts) == 1, "input generation is not deterministic")
    hits_text = texts.pop()
    views = held_out_views(hits_text, config)
    check_fingerprint(run, hits_text, views)

    def fit_once(tag: str, ref: Reference, sampled: bool):
        """One `run_all`. Sampled, reference chunks run during it and its time
        excludes them; else (so that no chunk lands inside a traced span)
        they run just before and after it."""
        workdir = run.work / tag
        workdir.mkdir()
        run.attempted += 1
        if not sampled:
            ref.run(FIT_BRACKET_CHUNKS)
        before = ref.spent
        with ref.sampling(FIT_REF_INTERVAL if sampled else 0, FIT_REF_CHUNKS):
            t0 = time.perf_counter()
            result = pipeline.run_all(workdir, config, hits)
            elapsed = time.perf_counter() - t0
        elapsed -= ref.spent - before
        if not sampled:
            ref.run(FIT_BRACKET_CHUNKS)
        ndcgs = {r.method: r.ndcg for r in result.reports}
        events = {r.events for r in result.reports}
        ok = sorted(ndcgs) == sorted(METHODS) and len(events) == 1 and events.pop() > 0
        ok = ok and all(0.0 <= v <= 1.0 for v in ndcgs.values())
        run.check(ok, f"{tag}: NDCG outside [0, 1] or methods/event counts differ: {result.reports}")
        run.failed += not ok
        digest = common.sha256_hex((workdir / "results.csv").read_bytes())
        return elapsed, ndcgs, digest, workdir

    times, digests = [], set()
    ref = Reference()
    start = time.perf_counter()
    while not times or (not trace and time.perf_counter() - start < seconds):
        elapsed, ndcgs, digest, workdir = fit_once(f"fit{len(times)}", ref, sampled=not trace)
        times.append(elapsed)
        digests.add(digest)
        if len(times) > 1:
            shutil.rmtree(workdir)
    run.check(len(digests) == 1, "results.csv differs between repeated fits")
    run.note(f"fit: run_all {', '.join(f'{t:.3f}' for t in times)} s as measured; results.csv sha256 {digest}")
    run.note("fit: NDCG@10 " + ", ".join(f"{m} {ndcgs[m]:.4f}" for m in METHODS))
    if not trace:
        run.note(f"fit: reference chunk {ref.sample_s * 1e3:.4f} ms over {ref.samples} chunks")
        run.metrics.update({
            "latency_p50_ms": statistics.median(times) * ref.scale * 1e3,
            "latency_tail_ms": percentile(times, TAIL_PERCENTILE["fit"]) * ref.scale * 1e3,
            "throughput_per_s": len(times) / sum(times) / ref.scale,
            "peak_rss_mb": common.peak_rss_mb(),
            "ndcg_at_10": ndcgs["sum-i"],
        })
        return

    tracer = tracing.Tracer()
    tracer.install()
    records_before = capture.records
    traced_elapsed, traced_ndcgs, traced_digest, workdir = fit_once("fit_traced", ref, sampled=False)
    run.check(traced_digest == digest, "traced fit wrote a different results.csv")
    files, size = artifact_counts(workdir)
    summary = tracer.summary()
    events = tracer.counts.get("evaluation.events", 0)
    run.metrics.update(layer_values(summary, tracer.counts, events))
    run.metrics.update({f"evaluation.ndcg.{m}": v for m, v in traced_ndcgs.items()})
    records = capture.records - records_before
    run.metrics.update({
        "pipeline.artifact_files": files,
        "pipeline.artifact_bytes": size,
        "log.records": records,
        "log.records_per_request": records / events if events else 0.0,
        "fit.results_sha256": common.digest48(traced_digest),
        "trace.untraced_latency_p50_ms": times[0] * ref.scale * 1e3,
        "trace.overhead_latency_p50_ms": (traced_elapsed - times[0]) * ref.scale * 1e3,
    })
    train = summary.get("ranksvm.train", {}).get("self_s", 0.0)
    run.note(f"trace: run_all {traced_elapsed:.3f} s traced vs {times[0]:.3f} s untraced; "
             f"ranksvm.train self time {train:.3f} s = {train / traced_elapsed:.1%} of the traced run")
    tracer.write(run.work.parent / "trace-fit.csv")


# ------------------------------------------------------------------ serve


def replay(model, views, run: Run, ref: Reference | None = None, tracer: tracing.Tracer | None = None):
    """One pass over the held-out views on fresh copies of the mutable state.
    With `ref`, reference chunks run after every SERVE_REF_EVERY-th request;
    the pass's wall time excludes them."""
    from intentrec import artifacts, recommender

    graphs = copy.deepcopy(model.graphs)
    states = {u: copy.deepcopy(s.final_state) for u, s in model.serving.items()}
    variant = recommender.RelevanceVariant("sum-i")
    clock = time.perf_counter
    latency, rec_lat, group_lat, gains = [], [], [], []
    digest = hashlib.sha256()
    bad = repeats = 0
    ref_s = 0.0
    gc.collect()  # the copies above leave garbage that should not be collected mid-pass
    t_start = clock()
    for uid, hit, nxt in views:
        graph = graphs.get(uid)
        if graph is None:
            continue
        serving = model.serving.get(uid)
        is_request = nxt is not None and hit.report_id in graph.nodes
        if tracer is not None:
            tracer.request = len(latency) + 1
        run.attempted += is_request
        try:
            t0 = clock()
            scores = {}
            if serving is not None:
                f, _, states[uid] = artifacts.serving_factor(serving, states[uid], hit)
                if is_request:
                    scores = model.intent_scores(uid, f)
            if not is_request:
                continue
            t1 = clock()
            recs = recommender.recommend(graph, hit.report_id, scores, variant)
            t2 = clock()
            if len(latency) % GROUP_EVERY == 0:
                recs = recs + recommender.group_recommend(
                    uid, model.clustering, graphs, hit.report_id, scores, variant
                )
                group_lat.append(clock() - t2)
            t3 = clock()
            ranked = recommender.rank(recs, k=K)
            t4 = clock()
            shown = [r.node for r in ranked]
            if nxt in shown and nxt in graph.nodes:
                recommender.apply_feedback(graph, ranked, recommender.FeedbackKind.IMPLICIT_POS, node=nxt)
            else:
                recommender.apply_feedback(graph, ranked, recommender.FeedbackKind.IMPLICIT_NEG)
            t5 = clock()
        except Exception as exc:  # a failed request is counted, and the replay goes on
            bad += 1
            run.check(False, f"request {uid} {hit.report_id} raised {exc!r}")
            continue
        bad += len(shown) > K
        repeats += len(set(shown)) != len(shown)
        latency.append(t5 - t0)
        rec_lat.append((t2 - t1) + (t4 - t3))
        gains.append(ndcg(shown, nxt))
        digest.update(f"{uid}\t{hit.report_id}\t{','.join(shown)}\n".encode())
        if ref is not None and len(latency) % SERVE_REF_EVERY == 0:
            ref_s += ref.run(SERVE_REF_CHUNKS)
    run.failed += bad
    run.check(bad == 0, f"{bad} requests failed or returned more than {K} nodes")
    return {
        "wall": clock() - t_start - ref_s,
        "latency": latency,
        "recommend": rec_lat,
        "group": group_lat,
        "ndcg": sum(gains) / len(gains) if gains else 0.0,
        "digest": digest.hexdigest(),
        "repeats": repeats,
    }


def serving_setup(run: Run):
    """Fit the serving model, check the inputs and time `load_model`."""
    from intentrec import pipeline

    workdir = run.work / "model"
    common.fit_serving_model(workdir, run.seed, run.work / "fit-model.log")
    config = common.pipeline_config(run.seed, common.SERVING_MODEL_SETTINGS)
    run.note(f"config: {json.dumps(dataclasses.asdict(config), sort_keys=True)}")
    hits_text = (workdir / "hits.jsonl").read_text()
    views = held_out_views(hits_text, config)
    check_fingerprint(run, hits_text, views)
    model = timed_setup(run, SETUP_REPEATS[run.workload], lambda: pipeline.load_model(workdir))
    return workdir, config, views, model


def serve_figures(passes: list[dict]) -> dict[str, float]:
    rec = [x for p in passes for x in p["recommend"]]
    group = [x for p in passes for x in p["group"]]
    requests = sum(len(p["latency"]) for p in passes)
    return {
        "serve.recommend_p50_us": percentile(rec, 50) * 1e6,
        "serve.recommend_p99_us": percentile(rec, 99) * 1e6,
        "serve.group_recommend_p50_ms": percentile(group, 50) * 1e3,
        "serve.group_recommend_p99_ms": percentile(group, 99) * 1e3,
        "serve.requests_per_s": requests / sum(p["wall"] for p in passes),
    }


def serve_workload(run: Run, seconds: float, trace: bool, capture: LogCapture):
    from intentrec import pipeline

    workdir, _, views, model = serving_setup(run)
    passes = []
    ref = Reference()
    start = time.perf_counter()
    while len(passes) < SERVE_MIN_PASSES or (not trace and time.perf_counter() - start < seconds):
        passes.append(replay(model, views, run, ref))
    digests = {p["digest"] for p in passes}
    run.check(len(digests) == 1, "top-k lists differ between identical replays")
    figures = serve_figures(passes)
    run.note(f"serve: {len(passes)} passes of {len(passes[0]['latency'])} requests; "
             f"top-k sha256 {passes[0]['digest']}")
    run.note("serve: " + ", ".join(f"{k} {v:.4g}" for k, v in figures.items()))
    latency = [x for p in passes for x in p["latency"]]
    if not trace:
        run.note(f"serve: reference chunk {ref.sample_s * 1e3:.4f} ms over {ref.samples} chunks")
        run.metrics.update({
            "latency_p50_ms": percentile(latency, 50) * ref.scale * 1e3,
            "latency_tail_ms": percentile(latency, TAIL_PERCENTILE["serve"]) * ref.scale * 1e3,
            "throughput_per_s": len(latency) / sum(p["wall"] for p in passes) / ref.scale,
            "peak_rss_mb": common.peak_rss_mb(),
            "ndcg_at_10": passes[0]["ndcg"],
        })
        return

    tracer = tracing.Tracer()
    tracer.install()
    records_before = capture.records
    traced_model = pipeline.load_model(workdir)
    traced_ref = Reference()
    traced = replay(traced_model, views, run, traced_ref, tracer)
    run.check(traced["digest"] == passes[0]["digest"], "traced replay served different top-k lists")
    requests = len(traced["latency"])
    records = capture.records - records_before
    untraced_p50 = percentile(latency, 50) * ref.scale * 1e3
    traced_p50 = percentile(traced["latency"], 50) * traced_ref.scale * 1e3
    run.metrics.update(layer_values(tracer.summary(), tracer.counts, requests))
    run.metrics.update(figures)
    run.metrics.update({
        "log.records": records,
        "log.records_per_request": records / requests,
        "serve.topk_sha256": common.digest48(traced["digest"]),
        "recommender.lists_with_repeats": traced["repeats"],
        "trace.untraced_latency_p50_ms": untraced_p50,
        "trace.overhead_latency_p50_ms": traced_p50 - untraced_p50,
    })
    tracer.write(run.work.parent / "trace-serve.csv")


# ------------------------------------------------------------------ cli


LOG_LINE = re.compile(r"^(DEBUG|INFO|WARNING|ERROR|CRITICAL):", re.M)


@dataclasses.dataclass
class CliCall:
    elapsed: float
    rss_mb: float
    shown: list[str]
    request: tuple[str, str, bool]  # user, current report, collaborative
    child: dict | None  # span summary written by a traced call


def cli_digest(calls: list[CliCall]) -> str:
    return common.sha256_hex("\n".join(",".join(c.shown) for c in calls).encode())


def cli_workload(run: Run, seconds: float, trace: bool, capture: LogCapture):
    from intentrec import pipeline

    workdir, config, views, model = serving_setup(run)
    eligible = [
        (uid, hit.report_id)
        for uid, hit, nxt in views
        if nxt is not None and uid in model.graphs and hit.report_id in model.graphs[uid].nodes
    ]
    pool = eligible[:: max(1, len(eligible) // CLI_POOL)][:CLI_POOL]
    calls_dir = run.work / "cli"
    shutil.copytree(workdir, calls_dir)
    stdout, stderr = run.work / "cli.out", run.work / "cli.err"
    stderr.write_bytes(b"")

    def call(i: int, traced: bool) -> CliCall:
        user, current = pool[i % len(pool)]
        collaborative = i % GROUP_EVERY == 0
        args = ["recommend", "--workdir", str(calls_dir), "--user", user, "--current", current, "--k", str(K)]
        args += ["--collaborative"] if collaborative else []
        summary, rss = run.work / f"cli-trace{i}.json", run.work / "cli-rss"
        rss.unlink(missing_ok=True)
        prefix = [str(Path(__file__).with_name("child.py")), "cli", str(summary)] if traced else ["-c", common.CLI_LAUNCHER, str(rss)]
        run.attempted += 1
        t0 = time.perf_counter()
        code = common.run_child([sys.executable, *prefix, *args], stdout, stderr, timeout=60, append_stderr=True)
        elapsed = time.perf_counter() - t0
        try:
            doc = json.loads(stdout.read_text())
            shown = [r["node"] for r in doc["recs"]]
            ok = code == 0 and doc["user"] == user and doc["current"] == current and len(shown) <= K
        except (ValueError, KeyError, TypeError):
            shown, ok = [], False
        ok = ok and (traced or rss.exists())
        run.failed += not ok
        run.check(ok, f"cli call {i} ({user} {current}) exited {code}, printed an invalid list or wrote no peak RSS")
        child = json.loads(summary.read_text()) if traced and summary.exists() else None
        rss_mb = float(rss.read_text()) if rss.exists() else 0.0
        return CliCall(elapsed, rss_mb, shown, (user, current, collaborative), child)

    def reference_process(ref: Reference):
        t0 = time.perf_counter()
        code = common.run_child(
            [sys.executable, reference.__file__, str(reference.PROCESS_CHUNKS)],
            run.work / "reference.out", stderr, timeout=60, append_stderr=True,
        )
        ref.add(time.perf_counter() - t0)
        run.check(code == 0, f"reference process exited {code}")

    calls: list[CliCall] = []
    ref = Reference(reference.PROCESS_NOMINAL_S)
    start = time.perf_counter()
    limit = CLI_TRACED_CALLS if trace else CLI_MIN_CALLS
    while len(calls) < limit or (not trace and time.perf_counter() - start < seconds):
        calls.append(call(len(calls), traced=False))
        if len(calls) % CLI_REF_EVERY == 0:
            reference_process(ref)
    times = [c.elapsed for c in calls]
    answers = {c.request: c.shown for c in calls}
    for request in list(answers)[:CLI_CHECKED]:
        expected = pipeline.stage_recommend(workdir, config, *request)
        run.check([r["node"] for r in expected["recs"]] == answers[request],
                  f"cli answer for {request} differs from in-process stage_recommend")
    digest = cli_digest(calls[:limit])
    run.note(f"cli: {len(calls)} calls, p50 {percentile(times, 50):.3f} s, "
             f"p75 {percentile(times, 75):.3f} s, max {max(times):.3f} s as measured; top-k sha256 {digest}")
    if not trace:
        run.note(f"cli: reference process {ref.sample_s:.4f} s over {ref.samples} processes")
        run.metrics.update({
            "latency_p50_ms": percentile(times, 50) * ref.scale * 1e3,
            "latency_tail_ms": percentile(times, TAIL_PERCENTILE["cli"]) * ref.scale * 1e3,
            "throughput_per_s": len(times) / sum(times) / ref.scale,
            "peak_rss_mb": max(c.rss_mb for c in calls),
            "ndcg_at_10": results_ndcg(workdir / "results.csv"),
        })
        return

    traced_ref, traced = Reference(reference.PROCESS_NOMINAL_S), []
    for i in range(CLI_TRACED_CALLS):
        traced.append(call(i, traced=True))
        if len(traced) % CLI_REF_EVERY == 0:
            reference_process(traced_ref)
    run.check(cli_digest(traced) == digest, "traced cli calls served different top-k lists")
    children = [c.child for c in traced if c.child is not None]
    run.check(len(children) == len(traced), "a traced cli call wrote no trace summary")
    counts: dict[str, float] = {}
    for child in children:
        for key, value in child["counts"].items():
            counts[key] = counts.get(key, 0) + value
    records = len(LOG_LINE.findall(stderr.read_text()))
    untraced_p50 = percentile(times, 50) * ref.scale * 1e3
    traced_p50 = percentile([c.elapsed for c in traced], 50) * traced_ref.scale * 1e3
    run.metrics.update(layer_values(tracing.merge([c["summary"] for c in children]), counts, len(traced)))
    run.metrics.update({
        "cli.import_s": statistics.median(c["import_s"] for c in children),
        "log.records": records,
        "log.records_per_request": records / (len(calls) + len(traced)),
        "cli.topk_sha256": common.digest48(cli_digest(traced)),
        "recommender.lists_with_repeats": sum(len(set(c.shown)) != len(c.shown) for c in traced),
        "trace.untraced_latency_p50_ms": untraced_p50,
        "trace.overhead_latency_p50_ms": traced_p50 - untraced_p50,
    })


# ------------------------------------------------------------------ main


WORKLOADS = {"fit": fit_workload, "serve": serve_workload, "cli": cli_workload}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (common.SRC / "intentrec" / "__init__.py").is_file():
        print(f"perfbench: no intentrec sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    base = common.ROOT / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work)
    capture = LogCapture(work / "program.log")
    logging.getLogger().addHandler(capture)
    try:
        WORKLOADS[args.workload](run, args.seconds, bool(args.trace), capture)
    finally:
        logging.getLogger().removeHandler(capture)
        capture.close()
        log_copy = base / f"program-{args.workload}.log"
        if (work / "program.log").exists():
            shutil.copyfile(work / "program.log", log_copy)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = per_layer_units()
        values = {name: run.metrics.get(name, 0) for name in units}
    else:
        units = dict(END_TO_END)
        values = {name: run.metrics[name] for name in units}
    for line in run.report:
        print(line)
    for problem in run.problems:
        print(f"check failed: {problem}")
    for name, value in values.items():
        print(f"{name:<44} {value:>18.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
