"""Command-line interface.

Commands: build-db, run, sweep, stats, eval. build-db, run and sweep also
take options from a `key = value` config file (--config): each line stands
for the flag named by its key and is checked exactly like that flag, and
command-line flags take precedence. An option given neither way is left to
the library's default. Exit codes: 0 success, 1 usage error, 2 data error,
3 provider error.
"""

from __future__ import annotations

import argparse
import logging
import random
import sys
from pathlib import Path

from .corpus import FORMATS
from .errors import CausalRagError, ProviderError, ReplayMissError, TransportError
from .evaluation import MATCHING_MODES, render_table
from .prompting import load_catalog
from .repository import load_repository, repository_stats
from .retrieval import MATCHERS, STRATEGY_NAMES, StrategyKind
from .runner import (
    BACKENDS,
    DEFAULT_BACKEND,
    DEFAULT_BASE_URL,
    DEFAULT_MODEL,
    TASKS,
    ExperimentConfig,
    build_db,
    eval_predictions,
    make_backend,
    run_experiment,
    sweep,
    sweep_configs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3

TRUE_WORDS = ("true", "1", "yes")
FALSE_WORDS = ("false", "0", "no")


class CliUsageError(Exception):
    """Bad flags, bad config keys, or invalid option values."""


class _Parser(argparse.ArgumentParser):
    """Raises CliUsageError instead of exiting. An option not given stays
    out of the namespace, so the library's own default applies."""

    commands: dict[str, _Parser]

    def __init__(self, **kwargs) -> None:
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(message)


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _add_run_flags(sub: _Parser) -> None:
    sub.add_argument("--dataset", dest="dataset_path", required=True,
                     help="input dataset file")
    sub.add_argument("--dataset-format", choices=FORMATS, help="input dataset format")
    sub.add_argument("--db", dest="db_path", help="fewshot example repository file")
    sub.add_argument("--task", choices=TASKS, default="detect")
    sub.add_argument("--k", type=positive_int, help="examples per prompt")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--single-pair", action="store_true",
                     help="extraction prompts ask for exactly one pair")
    sub.add_argument("--matcher", choices=MATCHERS, help="connective similarity matcher")
    sub.add_argument("--threshold", dest="similarity_threshold", type=float,
                     help="pattern match threshold (strict >)")
    sub.add_argument("--no-fallback", dest="fallback_to_random", action="store_false",
                     help="empty pattern pools yield zero examples instead of random ones")
    sub.add_argument("--matching", choices=MATCHING_MODES, help="triplet matching mode")
    sub.add_argument("--model", dest="model_id", help="chat model id")
    sub.add_argument("--backend", choices=BACKENDS)
    sub.add_argument("--transcript", dest="transcript_path", help="replay/record transcript JSONL")
    sub.add_argument("--cache", dest="cache_path", help="embedding cache JSONL")
    sub.add_argument("--base-url", help="provider base URL")
    sub.add_argument("--embedding-model",
                     help="embedding model id, or local-hash-<dim> for the offline embedder")
    sub.add_argument("--catalog", dest="catalog_path",
                     help="prompt catalog file (defaults to the packaged one)")
    sub.add_argument("--out", dest="output_path", required=True,
                     help="prediction output JSONL (run) / CSV (sweep)")
    sub.add_argument("--concurrency", type=positive_int, help="max in-flight provider calls")
    sub.add_argument("--force", action="store_true", help="rerun ids already in the output")
    sub.add_argument("--config", help="key = value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="causal-rag", description=__doc__)
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)
    parser.commands = commands.choices

    build = commands.add_parser("build-db", help="build the connective-indexed example repository")
    build.add_argument("--inputs", dest="input_paths", nargs="+", required=True,
                       help="canonical JSONL dataset files to merge")
    build.add_argument("--db", dest="db_path", required=True, help="output repository file")
    build.add_argument("--cap", type=positive_int, help="max examples kept per connective")
    build.add_argument("--seed", type=int)
    build.add_argument("--model", dest="model_id", default=DEFAULT_MODEL,
                       help="chat model id for connective extraction")
    build.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)
    build.add_argument("--transcript", dest="transcript_path",
                       help="replay/record transcript JSONL")
    build.add_argument("--base-url", default=DEFAULT_BASE_URL)
    build.add_argument("--catalog", help="prompt catalog file")
    build.add_argument("--concurrency", type=positive_int)
    build.add_argument("--config", help="key = value config file; flags override it")

    run = commands.add_parser("run", help="run one experiment and score it")
    _add_run_flags(run)
    run.add_argument("--strategy", choices=STRATEGY_NAMES, default="zeroshot")

    sweep_cmd = commands.add_parser("sweep", help="run a strategy/k grid and emit a CSV")
    _add_run_flags(sweep_cmd)
    sweep_cmd.add_argument("--strategies", nargs="+", choices=STRATEGY_NAMES, required=True)
    sweep_cmd.add_argument("--k-values", nargs="+", type=positive_int, required=True)

    stats = commands.add_parser("stats", help="print repository statistics")
    stats.add_argument("--db", required=True, help="repository file")
    stats.add_argument("--sample", type=non_negative_int, default=0,
                       help="sample N connectives per frequency")
    stats.add_argument("--seed", type=int, default=0)

    ev = commands.add_parser("eval", help="re-score an existing prediction file")
    ev.add_argument("--predictions", dest="predictions_path", required=True,
                    help="prediction JSONL from a previous run")
    ev.add_argument("--dataset", dest="dataset_path", required=True,
                    help="dataset the predictions were made on")
    ev.add_argument("--dataset-format", choices=FORMATS)
    ev.add_argument("--task", choices=TASKS, default="detect")
    ev.add_argument("--single-pair", action="store_true")
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


def config_tokens(path: str, command: str, sub: _Parser) -> list[str]:
    """The flag tokens a config file stands for: `--key=value`, a list key's
    value split on whitespace, a boolean as its bare flag or nothing. Each
    key is parsed by `sub`, a parser without required options, on its own,
    so an error names the file and the key."""
    tokens: list[str] = []
    for key, value in load_config_file(path).items():
        if command == "sweep" and key == "strategy":
            continue  # a run config's strategy; a sweep runs --strategies
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise CliUsageError(f"{path}: unknown config key: {key}")
        if action.nargs == 0:
            if value.lower() not in TRUE_WORDS + FALSE_WORDS:
                raise CliUsageError(
                    f"{path}: config key {key}: expected one of "
                    f"{'/'.join(TRUE_WORDS + FALSE_WORDS)}, got {value!r}"
                )
            given = [flag] if value.lower() in TRUE_WORDS else []
        elif action.nargs == "+":
            given = [flag, *value.split()]
        else:
            given = [f"{flag}={value}"]
        try:
            sub.parse_args(given)
        except CliUsageError as exc:
            raise CliUsageError(f"{path}: config key {key}: {exc}") from None
        tokens += given
    return tokens


def _lenient_parser() -> _Parser:
    """The CLI parser with no option required, to check a command line or a
    config file key on its own."""
    parser = build_parser()
    for sub in parser.commands.values():
        for action in sub._actions:
            action.required = False
    return parser


def parse_options(argv: list[str]) -> tuple[str, dict]:
    """The command and the options given for it: the config file's tokens
    go before the command line's, so a flag overrides the file."""
    lenient = _lenient_parser()
    args = lenient.parse_args(argv)
    command = getattr(args, "command", None)
    if not command:
        lenient.print_usage(sys.stderr)
        raise CliUsageError("a command is required")
    tokens = []
    if "config" in args:
        tokens = config_tokens(args.config, command, lenient.commands[command])
    rest = argv[argv.index(command) + 1:]
    options = vars(build_parser().parse_args([command, *tokens, *rest]))
    del options["command"]
    options.pop("config", None)
    return command, options


def _experiment_config(**options) -> ExperimentConfig:
    try:
        return ExperimentConfig(**options)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def cmd_run(opts: dict) -> int:
    config = _experiment_config(**{**opts, "strategy": StrategyKind(opts["strategy"])})
    result = run_experiment(config)
    if result.skipped_existing:
        print(f"resumed: {result.skipped_existing} ids already present (use --force to rerun)")
    print(render_table(result.report))
    print(f"predictions: {result.output_path}")
    print(f"metrics: {result.output_path}.metrics.json")
    return EXIT_OK


def cmd_sweep(opts: dict) -> int:
    strategies = [StrategyKind(name) for name in opts.pop("strategies")]
    k_values = opts.pop("k_values")
    csv_path = opts.pop("output_path")
    base = _experiment_config(
        **opts, strategy=strategies[0], output_path=csv_path + ".base.jsonl"
    )
    try:  # every cell, before anything is read or removed
        sweep_configs(base, strategies, k_values, csv_path)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    reports = sweep(base, strategies, k_values, csv_path)
    print(f"swept {len(reports)} runs -> {csv_path}")
    return EXIT_OK


def cmd_build_db(opts: dict) -> int:
    backend, transcript = opts.pop("backend"), opts.pop("transcript_path", None)
    if backend in ("replay", "record") and not transcript:
        raise CliUsageError(f"backend {backend!r} requires --transcript")
    opts["backend"] = make_backend(backend, transcript, opts.pop("base_url"))
    if "catalog" in opts:
        opts["catalog"] = load_catalog(opts["catalog"])
    repo = build_db(**opts)
    print(f"wrote {opts['db_path']}")
    print(_stats_text(repo, sample=0, seed=repo.seed))
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


def cmd_stats(opts: dict) -> int:
    repo = load_repository(opts["db"])
    print(_stats_text(repo, sample=opts["sample"], seed=opts["seed"]))
    return EXIT_OK


def cmd_eval(opts: dict) -> int:
    print(render_table(eval_predictions(**opts)))
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
    try:
        command, options = parse_options(sys.argv[1:] if argv is None else argv)
        return HANDLERS[command](options)
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
