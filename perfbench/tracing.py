"""Spans and counters recorded around calls into intentrec's modules.

The program is not edited: `Tracer.install` replaces each traced function,
in every intentrec module that binds it, by a wrapper that records a span
(name, start, end, parent, request id). Spans stay in memory until the run
ends. A function a later version of the program no longer defines is
skipped and reports zero.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) of every traced function; "Class.method" wraps a method.
LAYER_FUNCS = (
    ("ingest", "parse_hits"),
    ("ingest", "sessionize"),
    ("navgraph", "build_graph"),
    ("navgraph", "intent_distances"),
    ("context", "build_matrix"),
    ("context", "cluster_users"),
    ("context", "assemble_tensor"),
    ("parafac2", "decompose"),
    ("kalman", "evolve_sequence"),
    ("kalman", "step"),
    ("ranksvm", "train"),
    ("artifacts", "serving_factor"),
    ("artifacts", "TrainedModel.intent_scores"),
    ("recommender", "recommend"),
    ("recommender", "group_recommend"),
    ("recommender", "enumerate_candidates"),
    ("recommender", "apply_feedback"),
    ("evaluation", "run_benchmark"),
    ("pipeline", "load_model"),
)
STAGES = ("ingest", "graph", "tensor", "factorize", "kalman", "train_rank", "evaluate", "recommend")

# Counters taken from a traced call's arguments and result, at the call site.
COUNTERS = (
    "ingest.rows",
    "ingest.skipped",
    "parafac2.iterations",
    "parafac2.converged",
    "ranksvm.pairs",
    "ranksvm.violation_rate_sum",
    "ranksvm.degenerate",
    "recommender.candidates",
    "evaluation.events",
    "evaluation.skipped_unseen",
    "evaluation.skipped_filtered",
)


def _count_parse(counts, args, result):
    counts["ingest.rows"] += len(getattr(result, "records", ()))
    counts["ingest.skipped"] += getattr(result, "skipped", 0)


def _count_decompose(counts, args, result):
    report = result[1]
    counts["parafac2.iterations"] += getattr(report, "iterations", 0)
    counts["parafac2.converged"] += bool(getattr(report, "converged", False))


def _count_train(counts, args, result):
    ts = args[0]
    counts["ranksvm.pairs"] += len(ts.R1) * len(ts.R2)
    counts["ranksvm.violation_rate_sum"] += getattr(result, "violation_rate", 0.0)
    counts["ranksvm.degenerate"] += bool(getattr(result, "degenerate", False))


def _count_candidates(counts, args, result):
    counts["recommender.candidates"] += len(result)


def _count_benchmark(counts, args, result):
    reports = getattr(result, "reports", ())
    counts["evaluation.events"] += max((r.events for r in reports), default=0)
    counts["evaluation.skipped_unseen"] += getattr(result, "skipped_unseen", 0)
    counts["evaluation.skipped_filtered"] += getattr(result, "skipped_filtered", 0)


HOOKS = {
    "ingest.parse_hits": _count_parse,
    "parafac2.decompose": _count_decompose,
    "ranksvm.train": _count_train,
    "recommender.enumerate_candidates": _count_candidates,
    "evaluation.run_benchmark": _count_benchmark,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []

    def _wrap(self, name, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function under its name in each module binding it."""
        import intentrec.pipeline  # noqa: F401  (loads every traced module)

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("intentrec") and m]
        targets = list(LAYER_FUNCS) + [("pipeline", f"stage_{s}") for s in STAGES]
        for mod_name, attr in targets:
            home = sys.modules.get(f"intentrec.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is not None and hasattr(cls, meth):
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, wall seconds, and self seconds (wall minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["wall_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path: Path):
        """Write the spans as CSV: name, start, end, parent, request."""
        with path.open("w") as fh:
            fh.write("name,start_s,end_s,parent,request\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{request}\n")


def merge(summaries: list[dict]) -> dict[str, dict[str, float]]:
    """Sum per-name summaries, e.g. from several traced child processes."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, agg in summary.items():
            acc = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
    return out
