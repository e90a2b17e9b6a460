"""Child processes of the benchmark.

    child.py fit WORKDIR SEED          synthesize inputs, fit and evaluate the serving model
    child.py cli SUMMARY.json ARGS...  one traced `intentrec` CLI call
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import common
import tracing


def fit(workdir: Path, seed: int):
    from intentrec import pipeline

    pipeline.stage_synth(workdir, common.synth_config(seed))
    config = common.pipeline_config(seed, common.SERVING_MODEL_SETTINGS)
    pipeline.run_all(workdir, config, workdir / "hits.jsonl")
    return 0


def traced_cli(summary_path: Path, argv: list[str]) -> int:
    t0 = time.perf_counter()
    from intentrec import cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    code = cli.main(argv)
    summary_path.write_text(
        json.dumps({"import_s": import_s, "summary": tracer.summary(), "counts": tracer.counts})
    )
    return code


if __name__ == "__main__":
    if sys.argv[1] == "fit":
        sys.exit(fit(Path(sys.argv[2]), int(sys.argv[3])))
    sys.exit(traced_cli(Path(sys.argv[2]), sys.argv[3:]))
