"""Experiment orchestration: wire datasets, retrieval, prompts, and scoring.

A run walks every input instance: retrieve examples under the configured
strategy, assemble the prompt, complete it, parse the response, and append
one prediction record per sentence. A run, or a whole sweep, shares one
session: the dataset, repository and transcript are loaded once, the
repository is embedded once, and the chat client asks the backend once per
distinct request, connective prompts included, so a live sweep pays what a
record sweep pays.

Records stream to the output file in sentence-id order, each line written
as soon as its record and every smaller id are done, so a killed run keeps
all it wrote and a re-run resumes after it. The worker that makes a record
also scores it (`evaluation.sentence_outcome`), and the outcome joins the
run's `Tally` as the line is written: a run keeps nothing per record.
Reading a prediction file back checks every line (one that does not fit
the task is a `MalformedRecordError` naming the file and the line) and
scores the lines of the run's own instances, a later line winning.
`RunResult.records` reads the full records back. All sampling is salted
with the sentence id, so outputs are byte-identical across runs and
concurrency bounds whenever the transcript, seed, and config are fixed.
Unparseable responses are scored as failures, never crashes; under the
replay backend, timings are 0.0 to keep outputs reproducible.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .corpus import DatasetSplit, LabeledInstance, load_dataset
from .embedding import (
    EmbeddingCache,
    EmbeddingService,
    EmbeddingVector,
    HttpEmbeddingProvider,
    LocalHashEmbedder,
    VectorIndex,
)
from .errors import ProviderError, UnparseableResponseError
from .evaluation import (
    MATCHING_MODES, Outcome, Tally, build_report, check_prediction, sentence_outcome,
)
# the runner no longer calls these; perfbench/spans.py still wraps them by name
from .evaluation import detection_metrics, single_pair_accuracy, triplet_metrics  # noqa: F401
from .gateway import (
    Backend,
    LiveBackend,
    LlmClient,
    RecordBackend,
    ReplayBackend,
    Transcript,
    request_hash,
)
from .jsonl import LineAppender, encode_line, read_jsonl
from .prompting import (
    PromptCatalog,
    default_catalog,
    detection_prompt,
    extraction_prompt,
    load_catalog,
    parse_detection,
    parse_extraction,
)
from .repository import (
    DEFAULT_CAP,
    Repository,
    build_repository,
    load_repository,
    save_repository,
)
from .retrieval import (
    RetrievalConfig,
    RetrievalResult,
    StrategyKind,
    input_connectives,
    knn_index,
    retrieve_knn,
    retrieve_knn_pattern,
    retrieve_pattern,
    retrieve_random,
    zeroshot_result,
)

LOGGER = logging.getLogger(__name__)

TASKS = ("detect", "extract")
BACKENDS = ("live", "replay", "record")
DEFAULT_MODEL = "gpt-4o"
DEFAULT_BACKEND = "replay"
DEFAULT_BASE_URL = "https://api.openai.com"
LOCAL_EMBEDDER_PREFIX = "local-hash-"
DEFAULT_LOCAL_EMBEDDER = LOCAL_EMBEDDER_PREFIX + "256"


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    strategy: StrategyKind
    dataset_path: str
    output_path: str
    db_path: str | None = None
    dataset_format: str = "jsonl"
    k: int = 10
    seed: int = 0
    single_pair: bool = False
    matcher: str = "edit_ratio"
    similarity_threshold: float = 0.90
    fallback_to_random: bool = True
    matching: str = "greedy"
    model_id: str = DEFAULT_MODEL
    backend: str = DEFAULT_BACKEND
    base_url: str = DEFAULT_BASE_URL
    temperature: float = 0.0
    max_output_tokens: int = 1024
    concurrency: int = 4
    transcript_path: str | None = None
    cache_path: str | None = None
    embedding_model: str = DEFAULT_LOCAL_EMBEDDER
    catalog_path: str | None = None
    force: bool = False

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.backend in ("replay", "record") and not self.transcript_path:
            raise ValueError(f"backend {self.backend!r} requires a transcript path")
        if self.strategy is not StrategyKind.ZEROSHOT and not self.db_path:
            raise ValueError(f"strategy {self.strategy.value!r} requires a repository db")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.matching not in MATCHING_MODES:
            raise ValueError(f"matching must be one of {MATCHING_MODES}")
        self.retrieval_config()  # k, threshold and matcher
        if self.embedding_model.startswith(LOCAL_EMBEDDER_PREFIX):
            dim = self.embedding_model.removeprefix(LOCAL_EMBEDDER_PREFIX)
            if not (dim.isascii() and dim.isdigit() and int(dim) >= 1):
                raise ValueError(
                    f"embedding model {self.embedding_model!r}: "
                    f"{LOCAL_EMBEDDER_PREFIX}<dim> needs an integer dim >= 1"
                )

    def retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(
            k=self.k,
            similarity_threshold=self.similarity_threshold,
            matcher=self.matcher,
            seed=self.seed,
            fallback_to_random=self.fallback_to_random,
        )


@dataclass
class RunResult:
    report: dict
    output_path: str
    sentence_ids: list[str]  # the run's instances, in id order
    skipped_existing: int = 0

    @property
    def records(self) -> list[dict]:
        """The run's full prediction records in id order, read back from
        `output_path`."""
        return _read_records(self.output_path, self.sentence_ids)


def make_backend(name: str, transcript_path: str | None, base_url: str) -> Backend:
    if name == "replay":
        return ReplayBackend(Transcript(transcript_path))
    live = LiveBackend(base_url)
    if name == "record":
        return RecordBackend(Transcript(transcript_path), live)
    return live


def make_embedder(config: ExperimentConfig):
    name = config.embedding_model
    if name.startswith(LOCAL_EMBEDDER_PREFIX):
        return LocalHashEmbedder(dim=int(name.removeprefix(LOCAL_EMBEDDER_PREFIX)))
    return HttpEmbeddingProvider(config.base_url, name)


def _select_instances(split: DatasetSplit, task: str, single_pair: bool) -> list[LabeledInstance]:
    """What a run of `task` scores: every sentence for detect, the causal
    ones for extract, each with exactly one gold pair under single_pair."""
    if task != "extract":
        return list(split.instances)
    instances = [inst for inst in split.instances if inst.label == 1]
    if single_pair:
        multi = [i.sentence.id for i in instances if len(i.sentence.pairs) != 1]
        if multi:
            raise ValueError(f"single_pair needs exactly one gold pair; offending: {multi[:5]}")
    return instances


class _Session:
    """What every cell of one run or sweep shares, loaded once: the catalog,
    the selected instances, the repository, the chat client with its
    answers, the query vectors by sentence id and, once a kNN cell needs
    them, the embedding service and the repository's vector index."""

    def __init__(self, config: ExperimentConfig, backend: Backend | None, embedder,
                 catalog: PromptCatalog | None):
        self.catalog = catalog or (
            load_catalog(config.catalog_path) if config.catalog_path else default_catalog()
        )
        split = load_dataset(config.dataset_path, config.dataset_format)
        self.instances = _select_instances(split, config.task, config.single_pair)
        if not self.instances:
            raise ValueError("no instances to run (extract task needs causal sentences)")
        self.repo = load_repository(config.db_path) if config.db_path else None
        self.llm = LlmClient(
            backend=backend if backend is not None
            else make_backend(config.backend, config.transcript_path, config.base_url),
            model_id=config.model_id,
            temperature=config.temperature,
            max_output_tokens=config.max_output_tokens,
        )
        self.embedder = embedder
        self.embeddings: EmbeddingService | None = None
        self.index: VectorIndex | None = None
        # each sentence id goes to one worker per cell and cells run one
        # after another, so no two threads touch one key at the same time
        self.queries: dict[str, EmbeddingVector] = {}


def _retrieve(
    instance: LabeledInstance, config: ExperimentConfig, session: _Session
) -> RetrievalResult:
    strategy = config.strategy
    if strategy is StrategyKind.ZEROSHOT:
        return zeroshot_result()
    repo = session.repo
    rcfg = config.retrieval_config()
    sid = instance.sentence.id
    text = instance.sentence.raw_text
    if strategy is StrategyKind.RANDOM:
        return retrieve_random(repo, rcfg, salt=sid)
    if strategy is not StrategyKind.PATTERN and sid not in session.queries:
        session.queries[sid] = session.embeddings.vector(text)
    if strategy is StrategyKind.KNN:
        return retrieve_knn(session.queries[sid], repo, session.index, rcfg)
    connectives = input_connectives(text, session.llm, session.catalog)
    if strategy is StrategyKind.PATTERN:
        return retrieve_pattern(connectives, repo, rcfg, salt=sid)
    return retrieve_knn_pattern(
        session.queries[sid], connectives, repo, session.index, rcfg, salt=sid
    )


def _provenance_json(result: RetrievalResult) -> list[dict]:
    out = []
    for p in result.provenance:
        entry: dict = {"record_id": p.record_id, "origin": p.origin}
        if p.score is not None:
            entry["score"] = round(p.score, 6)
        if p.connective is not None:
            entry["connective"] = p.connective
        out.append(entry)
    return out


def _process_instance(
    instance: LabeledInstance, config: ExperimentConfig, session: _Session
) -> dict:
    started = time.perf_counter()
    retrieved = _retrieve(instance, config, session)
    sentence = instance.sentence
    if config.task == "detect":
        prompt = detection_prompt(sentence.raw_text, retrieved, session.catalog)
    else:
        prompt = extraction_prompt(
            sentence.raw_text, retrieved, config.single_pair, session.catalog
        )
    request = session.llm.request(prompt.system_text, prompt.user_text)
    response = session.llm.complete(request)

    parsed: dict | None
    try:
        if config.task == "detect":
            parsed = {"label": parse_detection(response).label}
        else:
            prediction = parse_extraction(response)
            parsed = {
                "pairs": [{"cause": p.cause, "effect": p.effect} for p in prediction.pairs],
                "overlap_flag": prediction.overlap_flag,
                "dropped_spans": prediction.dropped_spans,
            }
    except UnparseableResponseError:
        parsed = None

    elapsed_ms = 0.0 if config.backend == "replay" else (time.perf_counter() - started) * 1000.0
    return {
        "sentence_id": sentence.id,
        "task": config.task,
        "strategy": config.strategy.value,
        "prompt_hash": request_hash(request),
        "example_count": prompt.example_count,
        "fallback_used": retrieved.fallback_used,
        "provenance": _provenance_json(retrieved),
        "response": response,
        "parsed": parsed,
        "parse_error": parsed is None,
        "timing_ms": round(elapsed_ms, 3),
    }


def _read_outcomes(
    path: str | Path, instances: Sequence[LabeledInstance], task: str, single_pair: bool,
    matching: str,
) -> tuple[dict[str, Outcome], set[str]]:
    """The outcomes of `instances` in a prediction file, by sentence id (a
    later line wins), and the strategies its lines name. Every line is
    checked; only the instances' own lines are scored."""
    wanted = {inst.sentence.id: inst for inst in instances}

    def parse(record: dict) -> tuple[str, str, Outcome | None]:
        sid, strategy = check_prediction(record, task), record.get("strategy", "zeroshot")
        if type(strategy) is not str:
            raise TypeError(f"strategy must be a string, got {strategy!r}")
        instance = wanted.get(sid)
        outcome = instance and sentence_outcome(record, instance, single_pair, matching)
        return sid, strategy, outcome

    outcomes: dict[str, Outcome] = {}
    strategies: set[str] = set()
    for sid, strategy, outcome in read_jsonl(path, parse):
        strategies.add(strategy)
        if outcome is not None:
            outcomes[sid] = outcome
    return outcomes, strategies


def _read_records(path: str | Path, ids: Sequence[str]) -> list[dict]:
    """The full records of `ids` from a prediction file, in that order; a
    later line wins."""
    wanted: dict[str, dict | None] = dict.fromkeys(ids)
    for sid, record in read_jsonl(path, lambda record: (record["sentence_id"], record)):
        if sid in wanted:
            wanted[sid] = record
    return [wanted[sid] for sid in ids]


def run_experiment(
    config: ExperimentConfig,
    backend: Backend | None = None,
    embedder=None,
    catalog: PromptCatalog | None = None,
) -> RunResult:
    """Run one experiment; `backend`/`embedder` may be injected for tests.

    Existing output ids are skipped unless config.force; new records are
    appended in sentence-id order, each as it completes. Metrics always
    cover the full instance set: the existing records of the run's
    instances, scored as the file is read before the run, are tallied
    together with the new ones, each scored as it is written."""
    return _run_cell(_Session(config, backend, embedder, catalog), config)


def _run_cell(session: _Session, config: ExperimentConfig) -> RunResult:
    """One experiment over the session's instances; `config` differs from
    the session's own at most in strategy, k and output path."""
    instances = session.instances
    if config.strategy is not StrategyKind.ZEROSHOT and not session.repo.records:
        raise ValueError("repository is empty")

    output_path = Path(config.output_path)
    if config.force and output_path.exists():
        output_path.unlink()
    existing, _ = _read_outcomes(
        output_path, instances, config.task, config.single_pair, config.matching
    ) if output_path.exists() else ({}, set())
    tally = Tally(config.task, config.single_pair, existing.values())
    skipped_existing = tally.sentences
    todo = [inst for inst in instances if inst.sentence.id not in existing]
    todo.sort(key=lambda inst: inst.sentence.id)
    knn = config.strategy in (StrategyKind.KNN, StrategyKind.KNN_PATTERN)
    if knn and todo and session.index is None:
        # embed the repository once per session, before workers read it
        session.embeddings = EmbeddingService(
            provider=session.embedder if session.embedder is not None else make_embedder(config),
            cache=EmbeddingCache(config.cache_path) if config.cache_path else None,
        )
        session.index = knn_index(session.repo, session.embeddings)

    failures: list[tuple[int, ProviderError]] = []  # (position in `todo`, error)

    def work(position: int, instance: LabeledInstance) -> tuple[dict, Outcome] | None:
        # no instance behind a provider error starts; those ahead of it run
        if failures and position > min(p for p, _ in failures):
            return None
        try:
            record = _process_instance(instance, config, session)
        except ProviderError as exc:
            failures.append((position, exc))
            return None
        return record, sentence_outcome(record, instance, config.single_pair, config.matching)

    def lines(results):
        for result in results:
            if result is None:  # failed or never started: later lines would break id order
                return
            record, outcome = result
            yield encode_line(record)
            tally.add(outcome)  # once its line is written

    threaded = config.concurrency > 1 and len(todo) > 1
    pool = ThreadPoolExecutor(config.concurrency) if threaded else None
    try:
        # both `map`s yield in the id order of `todo`, as each result is ready
        LineAppender(output_path).extend(
            lines((pool.map if pool else map)(work, range(len(todo)), todo)))
    finally:
        if pool is not None:  # instances not yet started are dropped
            pool.shutdown(cancel_futures=True)
    if failures:
        LOGGER.warning(
            "provider error: stopped after %d of %d instances; the completed records were kept",
            tally.sentences - skipped_existing, len(todo),
        )
        raise failures[0][1]

    config_echo = {
        "task": config.task,
        "strategy": config.strategy.value,
        "k": config.k,
        "seed": config.seed,
        "matcher": config.matcher,
        "threshold": config.similarity_threshold,
        "catalog_version": session.catalog.version,
        "model_id": config.model_id,
        "backend": config.backend,
        "single_pair": config.single_pair,
        "matching": config.matching,
    }
    report = build_report(tally.kind, tally.metrics(), config_echo)
    report_path = output_path.with_suffix(output_path.suffix + ".metrics.json")
    report_path.write_text(
        json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return RunResult(
        report=report,
        output_path=str(output_path),
        sentence_ids=sorted(inst.sentence.id for inst in instances),
        skipped_existing=skipped_existing,
    )


def build_db(
    input_paths: Sequence[str],
    db_path: str,
    model_id: str,
    backend: Backend,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    catalog: PromptCatalog | None = None,
    concurrency: int = 1,
    temperature: float = 0.0,
    max_output_tokens: int = 256,
) -> Repository:
    """Merge causal sentences from canonical JSONL datasets and build the DB."""
    corpus = []
    for path in input_paths:
        split = load_dataset(path, "jsonl")
        corpus.extend(split.causal_sentences())
    llm = LlmClient(
        backend=backend,
        model_id=model_id,
        temperature=temperature,
        max_output_tokens=max_output_tokens,
    )
    repo = build_repository(corpus, llm, cap=cap, seed=seed, catalog=catalog, concurrency=concurrency)
    save_repository(repo, db_path)
    return repo


def check_grid(strategies: Sequence[StrategyKind], k_values: Sequence[int]) -> None:
    """Refuse a sweep grid with no strategy or k, or with one named twice:
    each cell runs once and writes one file."""
    for name, values in (("strategy", [s.value for s in strategies]), ("k value", list(k_values))):
        if not values:
            raise ValueError(f"sweep needs at least one {name}")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"sweep repeats {name} {', '.join(map(str, repeated))}")


def sweep(
    base_config: ExperimentConfig,
    strategies: Sequence[StrategyKind],
    k_values: Sequence[int],
    csv_path: str,
    backend: Backend | None = None,
    embedder=None,
    catalog: PromptCatalog | None = None,
) -> list[dict]:
    """Run every strategy at every k in one session; emit a
    `strategy,k,metric,value` CSV."""
    check_grid(strategies, k_values)
    session = _Session(base_config, backend, embedder, catalog)
    reports = []
    rows: list[tuple[str, int, str, object]] = []
    for strategy in strategies:
        for k in k_values:
            out = f"{csv_path}.{strategy.value}.k{k}.jsonl"
            config = replace(base_config, strategy=strategy, k=k, output_path=out)
            result = _run_cell(session, config)
            reports.append(result.report)
            for metric, value in sorted(result.report["metrics"].items()):
                if isinstance(value, dict):
                    for sub, subvalue in sorted(value.items()):
                        rows.append((strategy.value, k, f"{metric}.{sub}", subvalue))
                else:
                    rows.append((strategy.value, k, metric, value))
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("strategy,k,metric,value\n")
        for strategy_name, k, metric, value in rows:
            handle.write(f"{strategy_name},{k},{metric},{value}\n")
    return reports


def eval_predictions(
    predictions_path: str,
    dataset_path: str,
    task: str,
    dataset_format: str = "jsonl",
    single_pair: bool = False,
    matching: str = "greedy",
) -> dict:
    """Re-score an existing prediction file against its dataset."""
    if matching not in MATCHING_MODES:
        raise ValueError(f"matching must be one of {MATCHING_MODES}")
    split = load_dataset(dataset_path, dataset_format)
    instances = _select_instances(split, task, single_pair)
    outcomes, strategies = _read_outcomes(
        predictions_path, instances, task, single_pair, matching
    )
    if len(strategies) > 1:
        raise ValueError(f"{predictions_path}: records of more than one strategy "
                         f"({', '.join(sorted(strategies))}); score one strategy a file")
    if not outcomes:
        raise ValueError("no overlapping sentence ids between predictions and dataset")
    tally = Tally(task, single_pair, outcomes.values())
    config_echo = {
        "task": task,
        "strategy": strategies.pop(),
        "single_pair": single_pair,
        "matching": matching,
        "predictions": predictions_path,
        "scored": tally.sentences,
        "dataset_total": len(instances),
    }
    return build_report(tally.kind, tally.metrics(), config_echo)
