"""Command-line driver for the full pipeline. Each command imports the
layers it runs: `recommend` only the NumPy-free `store` and its imports."""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import typing
from pathlib import Path

from .config import VARIANTS, PipelineConfig
from .models import FormatError
from .store import MissingArtifact, StaleArtifact, stage_recommend

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_ARTIFACT = 3  # also a stale artifact, which its stage must rewrite
EXIT_DATA = 4

log = logging.getLogger("intentrec")
# each PipelineConfig field's type, from its annotation: the type of its flag
_CONFIG_TYPES = typing.get_type_hints(PipelineConfig)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--workdir", type=Path, required=True, help="artifact directory")
    p.add_argument("--config", type=Path, help="JSON config file; flags override it")
    for f in dataclasses.fields(PipelineConfig):
        choices = VARIANTS if f.name == "variant" else None
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_CONFIG_TYPES[f.name], choices=choices)


class ConfigError(Exception):
    """A --config file cannot be read as a JSON object or names a field the
    config class does not have, or a flag or field holds a value of another
    type or one the class refuses."""


def _config_file(path: Path | None) -> dict:
    """The fields a --config file sets, {} without one."""
    if path is None:
        return {}
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} holds no JSON object of config fields")
    return doc


def _config(cls, doc: dict):
    accepted = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(doc) - set(accepted))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {', '.join(unknown)}; "
            f"{cls.__name__} accepts {', '.join(accepted)}"
        )
    types = typing.get_type_hints(cls)
    for name, value in doc.items():
        # a float field takes an integer too; JSON's true and false are no numbers
        kinds = (int, float) if types[name] is float else types[name]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(
                f"{cls.__name__}: {name} must be of type {types[name].__name__}, not {value!r}"
            )
    try:
        return cls(**doc)
    except ValueError as exc:
        raise ConfigError(f"{cls.__name__}: {exc}") from exc


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    base = _config_file(args.config)
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            base[f.name] = value
    return _config(PipelineConfig, base)


# each command and its help line, in the order `intentrec --help` lists them
_COMMANDS = {
    "synth": "generate a synthetic hit log",
    "ingest": "parse, sessionize and split the hit log",
    "graph": "build per-user navigation graphs",
    "tensor": "cluster users and assemble context tensors",
    "factorize": "PARAFAC2 decomposition per cluster",
    "kalman": "evolve latent factors with Kalman filtering",
    "train-rank": "train per-intent ranking weights",
    "evaluate": "run the benchmark on the test split",
    "recommend": "top-k recommendations for a user",
    "sweep": "iterate the factorization rank",
    "run": "run every stage end to end",
}


def _add_flags(p: argparse.ArgumentParser, command: str):
    if command == "synth":
        p.add_argument("--workdir", type=Path, required=True)
        p.add_argument("--config", type=Path, help="JSON SynthConfig file")
        p.add_argument("--users", type=int)
        p.add_argument("--reports", type=int)
        p.add_argument("--sessions-per-user", type=int, dest="sessions_per_user")
        p.add_argument("--intents", type=int)
        p.add_argument("--rho", type=float, help="context signal strength in [0,1]")
        p.add_argument("--seed", type=int)
        return
    _add_common(p)
    if command == "ingest":
        p.add_argument("--input", type=Path, help="hit log (jsonl or csv)")
    elif command == "recommend":
        p.add_argument("--user", required=True)
        p.add_argument("--current", required=True, help="report id currently viewed")
        p.add_argument("--collaborative", action="store_true")
    elif command == "sweep":
        p.add_argument("--ranks", type=int, nargs="+", required=True)
    elif command == "run":
        p.add_argument("--input", type=Path)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command. Given a command, only its subparser gets
    its flags: argparse reads no other's, so every help page and usage error
    reads as the full parser's, and a cold `recommend` makes 28
    `add_argument` calls, not 147."""
    parser = argparse.ArgumentParser(
        prog="intentrec",
        description="Intent-aware report recommendation pipeline",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_flags(p, name)
    return parser


def parser_for(argv: list[str]) -> argparse.ArgumentParser:
    """`build_parser` for the command argv runs. No top-level flag takes a
    value, so the first word that is no flag is that command, or argparse
    refuses argv before it reads any command's flags."""
    return build_parser(next((a for a in argv if not a.startswith("-")), None))


def _synth_config(args: argparse.Namespace):
    from . import synth

    base = _config_file(args.config)
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
    argv = sys.argv[1:] if argv is None else argv
    parser = parser_for(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    try:
        if args.command == "recommend":
            doc = stage_recommend(
                args.workdir, _pipeline_config(args), args.user, args.current, args.collaborative
            )
            print(json.dumps(doc, indent=2, sort_keys=True))
            return EXIT_OK

        from . import evaluation, pipeline

        if args.command == "synth":
            out = pipeline.stage_synth(args.workdir, _synth_config(args))
            print(f"wrote {out}")
            return EXIT_OK

        config = _pipeline_config(args)
        workdir: Path = args.workdir
        if args.command == "evaluate":
            result = pipeline.stage_evaluate(workdir, config)
            print(evaluation.results_table(result.reports))
            print(
                f"skipped: {result.skipped_unseen} unseen, "
                f"{result.skipped_filtered} below unique-report filter"
            )
            return EXIT_OK
        if args.command == "sweep":
            # every rank is checked before the sweep copies anything
            fields = dataclasses.asdict(config)
            configs = [_config(PipelineConfig, {**fields, "rank": r}) for r in args.ranks]
            rows, best = pipeline.stage_sweep(workdir, configs)
            for r, rep in rows:
                print(
                    f"R={r:<3d} ndcg={rep.ndcg:.4f} precision={rep.precision:.4f} "
                    f"recall={rep.recall:.4f} wauc={rep.wauc:.4f}"
                )
            print(f"best R={best[0]} (ndcg={best[1].ndcg:.4f})")
            return EXIT_OK
        if args.command == "run":
            result = pipeline.run_all(workdir, config, args.input)
            print(evaluation.results_table(result.reports))
            return EXIT_OK
        if args.command == "ingest":
            out = pipeline.stage_ingest(workdir, config, args.input)
        else:  # graph ... train-rank, looked up when called, as a tracer may wrap the stages
            out = getattr(pipeline, "stage_" + args.command.replace("-", "_"))(workdir, config)
        print(f"wrote {out}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except StaleArtifact as exc:
        print(f"stale artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
