"""Command-line interface.

Commands: build-db, run, sweep, stats, eval. Options may come from a
`key = value` config file (--config) with command-line flags taking
precedence. Exit codes: 0 success, 1 usage error, 2 data error,
3 provider error.
"""

from __future__ import annotations

import argparse
import logging
import random
import sys
from pathlib import Path

from .errors import CausalRagError, ProviderError, ReplayMissError, TransportError
from .evaluation import render_table
from .prompting import load_catalog
from .repository import load_repository, repository_stats
from .retrieval import MATCHERS, StrategyKind
from .runner import (
    BACKENDS,
    TASKS,
    ExperimentConfig,
    build_db,
    eval_predictions,
    make_backend,
    run_experiment,
    sweep,
)

LOGGER = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3

STRATEGY_NAMES = tuple(s.value for s in StrategyKind)
MATCHING_MODES = ("greedy", "optimal")


class CliUsageError(Exception):
    """Bad flags, bad config keys, or invalid option values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(message)


# Hard defaults per command; a key present here may also be set from a
# config file. `...` marks options that must be provided one way or the other.
RUN_DEFAULTS: dict[str, object] = {
    "dataset": ...,
    "dataset_format": "jsonl",
    "db": None,
    "task": "detect",
    "strategy": "zeroshot",
    "k": 10,
    "seed": 0,
    "single_pair": False,
    "matcher": "edit_ratio",
    "threshold": 0.90,
    "no_fallback": False,
    "matching": "greedy",
    "model": "gpt-4o",
    "backend": "replay",
    "transcript": None,
    "cache": None,
    "base_url": "https://api.openai.com",
    "embedding_model": "local-hash-256",
    "catalog": None,
    "out": ...,
    "concurrency": 4,
    "force": False,
}
SWEEP_DEFAULTS: dict[str, object] = {
    **RUN_DEFAULTS,
    "strategies": ...,
    "k_values": ...,
}
BUILD_DB_DEFAULTS: dict[str, object] = {
    "inputs": ...,
    "db": ...,
    "cap": 10,
    "seed": 0,
    "model": "gpt-4o",
    "backend": "replay",
    "transcript": None,
    "base_url": "https://api.openai.com",
    "catalog": None,
    "concurrency": 1,
}
STATS_DEFAULTS: dict[str, object] = {"db": ..., "sample": 0, "seed": 0}
EVAL_DEFAULTS: dict[str, object] = {
    "predictions": ...,
    "dataset": ...,
    "dataset_format": "jsonl",
    "task": "detect",
    "single_pair": False,
    "matching": "greedy",
}


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", help="input dataset file")
    sub.add_argument("--dataset-format", dest="dataset_format", help="jsonl|semeval|ade|li")
    sub.add_argument("--db", help="fewshot example repository file")
    sub.add_argument("--task", choices=TASKS)
    sub.add_argument("--k", type=int, help="examples per prompt")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--single-pair", dest="single_pair", action="store_true",
                     help="extraction prompts ask for exactly one pair")
    sub.add_argument("--matcher", choices=MATCHERS, help="connective similarity matcher")
    sub.add_argument("--threshold", type=float, help="pattern match threshold (strict >)")
    sub.add_argument("--no-fallback", dest="no_fallback", action="store_true",
                     help="empty pattern pools yield zero examples instead of random ones")
    sub.add_argument("--matching", choices=MATCHING_MODES, help="triplet matching mode")
    sub.add_argument("--model", help="chat model id")
    sub.add_argument("--backend", choices=BACKENDS)
    sub.add_argument("--transcript", help="replay/record transcript JSONL")
    sub.add_argument("--cache", help="embedding cache JSONL")
    sub.add_argument("--base-url", dest="base_url", help="provider base URL")
    sub.add_argument("--embedding-model", dest="embedding_model",
                     help="embedding model id, or local-hash-<dim> for the offline embedder")
    sub.add_argument("--catalog", help="prompt catalog file (defaults to the packaged one)")
    sub.add_argument("--out", help="prediction output JSONL (run) / CSV (sweep)")
    sub.add_argument("--concurrency", type=int, help="max in-flight provider calls")
    sub.add_argument("--force", action="store_true", help="rerun ids already in the output")
    sub.add_argument("--config", help="key = value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="causal-rag", description=__doc__, argument_default=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    build = commands.add_parser("build-db", argument_default=argparse.SUPPRESS,
                                help="build the connective-indexed example repository")
    build.add_argument("--inputs", nargs="+", help="canonical JSONL dataset files to merge")
    build.add_argument("--db", help="output repository file")
    build.add_argument("--cap", type=int, help="max examples kept per connective")
    build.add_argument("--seed", type=int)
    build.add_argument("--model", help="chat model id for connective extraction")
    build.add_argument("--backend", choices=BACKENDS)
    build.add_argument("--transcript", help="replay/record transcript JSONL")
    build.add_argument("--base-url", dest="base_url")
    build.add_argument("--catalog", help="prompt catalog file")
    build.add_argument("--concurrency", type=int)
    build.add_argument("--config", help="key = value config file; flags override it")

    run = commands.add_parser("run", argument_default=argparse.SUPPRESS,
                              help="run one experiment and score it")
    _add_run_flags(run)
    run.add_argument("--strategy", choices=STRATEGY_NAMES)

    sweep_cmd = commands.add_parser("sweep", argument_default=argparse.SUPPRESS,
                                    help="run a strategy/k grid and emit a CSV")
    _add_run_flags(sweep_cmd)
    sweep_cmd.add_argument("--strategies", nargs="+", choices=STRATEGY_NAMES)
    sweep_cmd.add_argument("--k-values", dest="k_values", nargs="+", type=int)

    stats = commands.add_parser("stats", argument_default=argparse.SUPPRESS,
                                help="print repository statistics")
    stats.add_argument("--db", help="repository file")
    stats.add_argument("--sample", type=int, help="sample N connectives per frequency")
    stats.add_argument("--seed", type=int)

    ev = commands.add_parser("eval", argument_default=argparse.SUPPRESS,
                             help="re-score an existing prediction file")
    ev.add_argument("--predictions", help="prediction JSONL from a previous run")
    ev.add_argument("--dataset", help="dataset the predictions were made on")
    ev.add_argument("--dataset-format", dest="dataset_format")
    ev.add_argument("--task", choices=TASKS)
    ev.add_argument("--single-pair", dest="single_pair", action="store_true")
    ev.add_argument("--matching", choices=MATCHING_MODES)
    return parser


def load_config_file(path: str) -> dict[str, str]:
    """Parse a `key = value` config file; `#` lines are comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise CliUsageError(f"config file {path} line {line_no}: expected key = value")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(key: str, raw: str, default: object) -> object:
    try:
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if key in ("inputs", "strategies"):
            return raw.split()
        if key == "k_values":
            return [int(part) for part in raw.split()]
    except ValueError as exc:
        raise CliUsageError(f"config key {key}: cannot parse value {raw!r}") from exc
    return raw


def resolve_options(defaults: dict[str, object], args: argparse.Namespace) -> dict[str, object]:
    """Layer hard defaults < config file < command-line flags."""
    given = dict(vars(args))
    given.pop("command", None)
    config_path = given.pop("config", None)
    merged = dict(defaults)
    if config_path:
        for key, raw in load_config_file(str(config_path)).items():
            if key not in defaults:
                raise CliUsageError(f"unknown config key: {key}")
            merged[key] = _coerce(key, raw, defaults[key])
    for key, value in given.items():
        merged[key] = value
    missing = sorted(key for key, value in merged.items() if value is ...)
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise CliUsageError(f"missing required option(s): {flags}")
    return merged


def _experiment_config(opts: dict[str, object], strategy_name: str, out: str) -> ExperimentConfig:
    try:
        strategy = StrategyKind(strategy_name)
    except ValueError as exc:
        raise CliUsageError(f"unknown strategy: {strategy_name}") from exc
    try:
        config = ExperimentConfig(
            task=str(opts["task"]),
            strategy=strategy,
            dataset_path=str(opts["dataset"]),
            dataset_format=str(opts["dataset_format"]),
            output_path=out,
            db_path=(str(opts["db"]) if opts["db"] else None),
            k=int(opts["k"]),
            seed=int(opts["seed"]),
            single_pair=bool(opts["single_pair"]),
            matcher=str(opts["matcher"]),
            similarity_threshold=float(opts["threshold"]),
            fallback_to_random=not bool(opts["no_fallback"]),
            matching=str(opts["matching"]),
            model_id=str(opts["model"]),
            backend=str(opts["backend"]),
            base_url=str(opts["base_url"]),
            concurrency=int(opts["concurrency"]),
            transcript_path=(str(opts["transcript"]) if opts["transcript"] else None),
            cache_path=(str(opts["cache"]) if opts["cache"] else None),
            embedding_model=str(opts["embedding_model"]),
            catalog_path=(str(opts["catalog"]) if opts["catalog"] else None),
            force=bool(opts["force"]),
        )
        config.retrieval_config()  # fail fast on matcher/k/threshold problems
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    return config


def cmd_run(args: argparse.Namespace) -> int:
    opts = resolve_options(RUN_DEFAULTS, args)
    config = _experiment_config(opts, str(opts["strategy"]), str(opts["out"]))
    result = run_experiment(config)
    if result.skipped_existing:
        print(f"resumed: {result.skipped_existing} ids already present (use --force to rerun)")
    print(render_table(result.report))
    print(f"predictions: {result.output_path}")
    print(f"metrics: {result.output_path}.metrics.json")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = resolve_options(SWEEP_DEFAULTS, args)
    strategy_names = [str(s) for s in list(opts["strategies"])]
    k_values = [int(k) for k in list(opts["k_values"])]
    if not k_values or any(k < 1 for k in k_values):
        raise CliUsageError("--k-values must be positive integers")
    csv_path = str(opts["out"])
    base = _experiment_config(opts, strategy_names[0], csv_path + ".base.jsonl")
    try:
        strategies = [StrategyKind(name) for name in strategy_names]
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    reports = sweep(base, strategies, k_values, csv_path)
    print(f"swept {len(reports)} runs -> {csv_path}")
    return EXIT_OK


def cmd_build_db(args: argparse.Namespace) -> int:
    opts = resolve_options(BUILD_DB_DEFAULTS, args)
    backend_name = str(opts["backend"])
    if backend_name not in BACKENDS:
        raise CliUsageError(f"backend must be one of {BACKENDS}")
    if backend_name in ("replay", "record") and not opts["transcript"]:
        raise CliUsageError(f"backend {backend_name!r} requires --transcript")
    backend = make_backend(
        backend_name,
        str(opts["transcript"]) if opts["transcript"] else None,
        str(opts["base_url"]),
    )
    catalog = load_catalog(str(opts["catalog"])) if opts["catalog"] else None
    repo = build_db(
        input_paths=[str(p) for p in list(opts["inputs"])],
        db_path=str(opts["db"]),
        model_id=str(opts["model"]),
        backend=backend,
        cap=int(opts["cap"]),
        seed=int(opts["seed"]),
        catalog=catalog,
        concurrency=int(opts["concurrency"]),
    )
    print(f"wrote {opts['db']}")
    print(_stats_text(repo, sample=0, seed=int(opts["seed"])))
    return EXIT_OK


def _stats_text(repo, sample: int, seed: int) -> str:
    stats = repository_stats(repo)
    lines = [
        f"records              {stats.total_records}",
        f"unique connectives   {stats.unique_connectives}",
        f"connectives with >=5 {stats.connectives_with_at_least_5}",
        "examples-per-connective histogram:",
    ]
    for freq, count in stats.frequency_histogram.items():
        lines.append(f"  {freq:>3} example(s): {count} connective(s)")
    if sample > 0:
        by_freq: dict[int, list[str]] = {}
        for connective, ids in repo.index.items():
            by_freq.setdefault(len(ids), []).append(connective)
        lines.append(f"sampled connectives ({sample} per frequency):")
        for freq in sorted(by_freq):
            pool = sorted(by_freq[freq])
            rng = random.Random(f"{seed}|stats|{freq}")
            picks = pool if len(pool) <= sample else rng.sample(pool, sample)
            lines.append(f"  {freq:>3} example(s): {', '.join(sorted(picks))}")
    return "\n".join(lines)


def cmd_stats(args: argparse.Namespace) -> int:
    opts = resolve_options(STATS_DEFAULTS, args)
    repo = load_repository(str(opts["db"]))
    print(_stats_text(repo, sample=int(opts["sample"]), seed=int(opts["seed"])))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    opts = resolve_options(EVAL_DEFAULTS, args)
    report = eval_predictions(
        predictions_path=str(opts["predictions"]),
        dataset_path=str(opts["dataset"]),
        task=str(opts["task"]),
        dataset_format=str(opts["dataset_format"]),
        single_pair=bool(opts["single_pair"]),
        matching=str(opts["matching"]),
    )
    print(render_table(report))
    return EXIT_OK


HANDLERS = {
    "build-db": cmd_build_db,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "stats": cmd_stats,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = getattr(args, "command", None)
        if not command:
            parser.print_usage(sys.stderr)
            print("error: a command is required", file=sys.stderr)
            return EXIT_USAGE
        return HANDLERS[command](args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ReplayMissError, TransportError) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        print(
            "partial results stay in the output file; re-run the same command "
            "to resume from where it stopped",
            file=sys.stderr,
        )
        return EXIT_PROVIDER
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except CausalRagError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
