"""Command-line driver for the full pipeline."""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import evaluation, pipeline, synth
from .ingest import FormatError
from .pipeline import MissingArtifact, PipelineConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_DATA = 4

log = logging.getLogger("intentrec")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--workdir", type=Path, required=True, help="artifact directory")
    p.add_argument("--config", type=Path, help="JSON config file; flags override it")
    p.add_argument("--timeout", type=float)
    p.add_argument("--train-fraction", type=float, dest="train_fraction")
    p.add_argument("--rank", type=int)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol", type=float)
    p.add_argument("--rank-lambda", type=float, dest="rank_lambda")
    p.add_argument("--process-noise", type=float, dest="process_noise")
    p.add_argument("--variant", choices=[v for v in evaluation.VARIANTS])
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-unique-reports", type=int, dest="min_unique_reports")


class ConfigKeyError(Exception):
    """A --config file names a field the config class does not have."""


def _config(cls, doc: dict):
    accepted = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(doc) - set(accepted))
    if unknown:
        raise ConfigKeyError(
            f"unknown config key(s) {', '.join(unknown)}; "
            f"{cls.__name__} accepts {', '.join(accepted)}"
        )
    return cls(**doc)


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    base = {}
    if args.config:
        base = json.loads(args.config.read_text())
    for name in (
        "timeout", "train_fraction", "rank", "max_iters", "tol", "rank_lambda",
        "process_noise", "variant", "k", "seed", "min_unique_reports",
    ):
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    return _config(PipelineConfig, base)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intentrec",
        description="Intent-aware report recommendation pipeline",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hit log")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--config", type=Path, help="JSON SynthConfig file")
    p.add_argument("--users", type=int)
    p.add_argument("--reports", type=int)
    p.add_argument("--sessions-per-user", type=int, dest="sessions_per_user")
    p.add_argument("--intents", type=int)
    p.add_argument("--rho", type=float, help="context signal strength in [0,1]")
    p.add_argument("--seed", type=int)

    for name, help_text in (
        ("ingest", "parse, sessionize and split the hit log"),
        ("graph", "build per-user navigation graphs"),
        ("tensor", "cluster users and assemble context tensors"),
        ("factorize", "PARAFAC2 decomposition per cluster"),
        ("kalman", "evolve latent factors with Kalman filtering"),
        ("train-rank", "train per-intent ranking weights"),
        ("evaluate", "run the benchmark on the test split"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "ingest":
            p.add_argument("--input", type=Path, help="hit log (jsonl or csv)")

    p = sub.add_parser("recommend", help="top-k recommendations for a user")
    _add_common(p)
    p.add_argument("--user", required=True)
    p.add_argument("--current", required=True, help="report id currently viewed")
    p.add_argument("--collaborative", action="store_true")

    p = sub.add_parser("sweep", help="iterate the factorization rank")
    _add_common(p)
    p.add_argument("--ranks", type=int, nargs="+", required=True)

    p = sub.add_parser("run", help="run every stage end to end")
    _add_common(p)
    p.add_argument("--input", type=Path)
    return parser


def _synth_config(args: argparse.Namespace) -> synth.SynthConfig:
    base = {}
    if args.config:
        base = json.loads(args.config.read_text())
    overrides = {
        "n_users": args.users,
        "n_reports": args.reports,
        "sessions_per_user": args.sessions_per_user,
        "intent_count": args.intents,
        "context_signal_strength": args.rho,
        "seed": args.seed,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    return _config(synth.SynthConfig, base)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    try:
        if args.command == "synth":
            out = pipeline.stage_synth(args.workdir, _synth_config(args))
            print(f"wrote {out}")
            return EXIT_OK

        config = _pipeline_config(args)
        workdir: Path = args.workdir
        if args.command == "ingest":
            out = pipeline.stage_ingest(workdir, config, args.input)
        elif args.command == "graph":
            out = pipeline.stage_graph(workdir, config)
        elif args.command == "tensor":
            out = pipeline.stage_tensor(workdir, config)
        elif args.command == "factorize":
            out = pipeline.stage_factorize(workdir, config)
        elif args.command == "kalman":
            out = pipeline.stage_kalman(workdir, config)
        elif args.command == "train-rank":
            out = pipeline.stage_train_rank(workdir, config)
        elif args.command == "recommend":
            doc = pipeline.stage_recommend(
                workdir, config, args.user, args.current, args.collaborative
            )
            print(json.dumps(doc, indent=2, sort_keys=True))
            return EXIT_OK
        elif args.command == "evaluate":
            result = pipeline.stage_evaluate(workdir, config)
            print(evaluation.results_table(result.reports))
            print(
                f"skipped: {result.skipped_unseen} unseen, "
                f"{result.skipped_filtered} below unique-report filter"
            )
            return EXIT_OK
        elif args.command == "sweep":
            rows, best = pipeline.stage_sweep(workdir, config, args.ranks)
            for r, rep in rows:
                print(
                    f"R={r:<3d} ndcg={rep.ndcg:.4f} precision={rep.precision:.4f} "
                    f"recall={rep.recall:.4f} wauc={rep.wauc:.4f}"
                )
            print(f"best R={best[0]} (ndcg={best[1].ndcg:.4f})")
            return EXIT_OK
        elif args.command == "run":
            result = pipeline.run_all(workdir, config, args.input)
            print(evaluation.results_table(result.reports))
            return EXIT_OK
        else:
            parser.error(f"unknown command {args.command}")
            return EXIT_USAGE
        print(f"wrote {out}")
        return EXIT_OK
    except ConfigKeyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingArtifact as exc:
        print(f"missing artifact: {exc} (run the preceding stage first)", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
