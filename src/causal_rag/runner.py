"""Experiment orchestration: wire datasets, retrieval, prompts, and scoring.

A run walks every input instance: retrieve examples under the configured
strategy, assemble the prompt, complete it, parse the response, and append
one prediction record per sentence. A run, or a whole sweep, shares one
session: the dataset, repository and transcript are loaded once and no
text is embedded twice. The backend a config names keeps each answer once
(in the transcript, or in a memo under live), so the provider is asked once
per distinct request, connective prompts included, and a live sweep pays
what a record sweep pays. An injected backend is asked for every answer;
wrap it in `RecordBackend(Memo(), backend)` to ask once per request. Each
sentence's pattern candidates and kNN hits are worked out once for all the
cells of a sweep that use them.

A sweep, and a run as a sweep of one cell, is one stream. Every cell's
config is built and checked (`sweep_configs`) before the session loads
anything or `force` removes anything. Every cell is then opened (its file
read and checked, or removed under `force`), then its (cell, sentence)
tasks go through one pool of `concurrency` workers, in cell order and then
id order, a few tasks a worker queued ahead. No worker waits at a cell
boundary, and the kNN index is built on the main thread when the stream
first reaches a kNN task, while the tasks queued ahead of it wait on the
provider. A provider error stops the stream: no task behind it starts, and
everything ahead of it is written. At concurrency 1, or with one task to
run, there is no pool: each task runs on the main thread as the stream
reaches it and its result is written at once, and `concurrent.futures` is
never imported.

Each record is an `evaluation.PredictionRecord`, written as its `line()`;
its `parsed` is what `parse_detection` or `parse_extraction` returned,
stored as it is. Records stream to each cell's output file in sentence-id
order, each line written as soon as its record and every record ahead of it
in the stream are done, so a killed run keeps all it wrote and a re-run
resumes after it. A cell's report is written once its last line is. The
worker that makes a record also scores it (`evaluation.sentence_outcome`),
and the outcome joins the cell's `Tally` as the line is written: a run
keeps nothing per record. Reading a prediction file back checks every line
through `PredictionRecord.of` (a line that does not fit is a
`MalformedRecordError` naming the file and the line, before any provider
call) and scores the lines of the run's own instances, a later line
winning. `RunResult.records` reads the records back. All sampling is salted
with the sentence id, so outputs are byte-identical across runs and
concurrency bounds whenever the transcript, seed, and config are fixed.
Unparseable responses are scored as failures, never crashes; under the
replay backend, timings are 0.0 to keep outputs reproducible, and the clock
is not read.

A cell's `RetrievalConfig`, which all its records share, is built once,
when the cell is opened.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import DatasetSplit, LabeledInstance, load_dataset
from .embedding import (
    EmbeddingCache,
    EmbeddingService,
    HttpEmbeddingProvider,
    LocalHashEmbedder,
    VectorIndex,
)
from .errors import ProviderError, UnparseableResponseError, warn
from .evaluation import (
    MATCHING_MODES, Outcome, PredictionRecord, Tally, build_report, sentence_outcome,
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
from .jsonl import LineAppender, Memo, read_jsonl, replace_lines
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
    UNSHARED,
    RetrievalConfig,
    RetrievalResult,
    SentenceWork,
    StrategyKind,
    input_connectives,
    knn_index,
    retrieve_knn,
    retrieve_knn_pattern,
    retrieve_pattern,
    retrieve_random,
    zeroshot_result,
)

TASKS = ("detect", "extract")
BACKENDS = ("live", "replay", "record")
DEFAULT_MODEL = "gpt-4o"
DEFAULT_BACKEND = "replay"
DEFAULT_BASE_URL = "https://api.openai.com"
LOCAL_EMBEDDER_PREFIX = "local-hash-"
DEFAULT_LOCAL_EMBEDDER = LOCAL_EMBEDDER_PREFIX + "256"
# tasks queued ahead of the one being written, per worker: enough that no
# worker idles while the main thread writes or builds the kNN index
LOOKAHEAD_PER_WORKER = 4
_KNN = (StrategyKind.KNN, StrategyKind.KNN_PATTERN)
_PATTERN = (StrategyKind.PATTERN, StrategyKind.KNN_PATTERN)


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
    task: str
    skipped_existing: int = 0

    @property
    def records(self) -> list[PredictionRecord]:
        """The run's prediction records in id order, read back from
        `output_path`."""
        return _read_records(self.output_path, self.sentence_ids, self.task)


def make_backend(name: str, transcript_path: str | None, base_url: str) -> Backend:
    if name == "replay":
        return ReplayBackend(Transcript(transcript_path))
    answers = Transcript(transcript_path) if name == "record" else Memo()
    return RecordBackend(answers, LiveBackend(base_url))


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
    the selected instances, the repository, the chat client and its
    backend and, once the stream reaches a kNN task, the embedding service
    (the one memo of repository and query vectors) and the repository's
    vector index, whose rows are the service's copy of each repository
    vector. `shared` keeps each sentence's retrieval work for the other
    cells that use it; a single run, or a grid with one cell of a kind,
    keeps nothing there."""

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
        self.shared: SentenceWork = UNSHARED


def _retrieve(
    instance: LabeledInstance, cell: _Cell, session: _Session
) -> RetrievalResult:
    strategy = cell.config.strategy
    if strategy is StrategyKind.ZEROSHOT:
        return zeroshot_result()
    repo = session.repo
    rcfg = cell.retrieval
    sid = instance.sentence.id
    text = instance.sentence.raw_text
    if strategy is StrategyKind.RANDOM:
        return retrieve_random(repo, rcfg, salt=sid)
    work = replace(session.shared, sentence_id=sid)
    query = None if strategy is StrategyKind.PATTERN else session.embeddings.vector(text)
    if strategy is StrategyKind.KNN:
        return retrieve_knn(query, repo, session.index, rcfg, work)
    connectives = input_connectives(text, session.llm, session.catalog)
    if strategy is StrategyKind.PATTERN:
        return retrieve_pattern(connectives, repo, rcfg, salt=sid, work=work)
    return retrieve_knn_pattern(query, connectives, repo, session.index, rcfg, salt=sid,
                                work=work)


def _process_instance(
    instance: LabeledInstance, cell: _Cell, session: _Session
) -> PredictionRecord:
    config = cell.config
    timed = config.backend != "replay"  # a replayed record's timing is 0.0
    started = time.perf_counter() if timed else 0.0
    retrieved = _retrieve(instance, cell, session)
    sentence = instance.sentence
    if config.task == "detect":
        prompt = detection_prompt(sentence.raw_text, retrieved, session.catalog)
    else:
        prompt = extraction_prompt(
            sentence.raw_text, retrieved, config.single_pair, session.catalog
        )
    request = session.llm.request(prompt.system_text, prompt.user_text)
    response = session.llm.complete(request)

    parse = parse_detection if config.task == "detect" else parse_extraction
    try:
        parsed = parse(response)
    except UnparseableResponseError:
        parsed = None

    elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3) if timed else 0.0
    return PredictionRecord(
        sentence.id, config.task, config.strategy, request_hash(request), prompt.example_count,
        retrieved.fallback_used, retrieved.provenance, response, parsed, parsed is None,
        elapsed_ms,
    )


def _read_outcomes(
    path: str | Path, instances: Sequence[LabeledInstance], task: str, single_pair: bool,
    matching: str,
) -> tuple[dict[str, Outcome], set[str]]:
    """The outcomes of `instances` in a prediction file, by sentence id (a
    later line wins), and the strategies its lines name. Every line is
    checked; only the instances' own lines are scored."""
    wanted = {inst.sentence.id: inst for inst in instances}

    def parse(obj: dict) -> tuple[PredictionRecord, Outcome | None]:
        record = PredictionRecord.of(obj, task)
        instance = wanted.get(record.sentence_id)
        return record, instance and sentence_outcome(record, instance, single_pair, matching)

    outcomes: dict[str, Outcome] = {}
    strategies: set[str] = set()
    for record, outcome in read_jsonl(path, parse):
        strategies.add(record.strategy.value)
        if outcome is not None:
            outcomes[record.sentence_id] = outcome
    return outcomes, strategies


def _read_records(path: str | Path, ids: Sequence[str], task: str) -> list[PredictionRecord]:
    """The records of `ids` from a prediction file of `task`, in that
    order; every line is checked and a later line wins."""
    wanted: dict[str, PredictionRecord | None] = dict.fromkeys(ids)
    for record in read_jsonl(path, lambda obj: PredictionRecord.of(obj, task)):
        if record.sentence_id in wanted:
            wanted[record.sentence_id] = record
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
    [result] = _run_cells(_Session(config, backend, embedder, catalog), [config])
    return result


@dataclass
class _Cell:
    """One experiment of a stream, opened: its config and the retrieval
    config every record of it shares, the tally of the records its file
    already holds, and the instances it still has to run, in id order."""

    config: ExperimentConfig
    retrieval: RetrievalConfig
    tally: Tally
    todo: list[LabeledInstance]
    skipped: int  # the records already on file

    @property
    def output(self) -> Path:
        return Path(self.config.output_path)

    @property
    def knn(self) -> bool:
        return self.config.strategy in _KNN

    @property
    def written(self) -> int:
        return self.tally.sentences - self.skipped


def _report_path(output: Path) -> Path:
    return output.with_suffix(output.suffix + ".metrics.json")


def _open_cell(session: _Session, config: ExperimentConfig) -> _Cell:
    """Check a cell and read what its file already holds, before any
    provider call; `config` differs from the session's own at most in
    strategy, k and output path. Under force, its predictions and report
    are removed first."""
    if config.strategy is not StrategyKind.ZEROSHOT and not session.repo.records:
        raise ValueError("repository is empty")
    output = Path(config.output_path)
    if config.force:
        output.unlink(missing_ok=True)
        _report_path(output).unlink(missing_ok=True)
    existing, _ = _read_outcomes(
        output, session.instances, config.task, config.single_pair, config.matching
    ) if output.exists() else ({}, set())
    todo = [inst for inst in session.instances if inst.sentence.id not in existing]
    todo.sort(key=lambda inst: inst.sentence.id)
    tally = Tally(config.task, config.single_pair, existing.values())
    return _Cell(config, config.retrieval_config(), tally, todo, tally.sentences)


def _share_retrieval(session: _Session, cells: Sequence[_Cell]) -> None:
    """Keep each sentence's kNN hits, or its pattern candidates, for the
    other cells only where more than one cell still to run needs them."""
    knn = [cell.config.k for cell in cells if cell.todo and cell.knn]
    pattern = [cell for cell in cells if cell.todo and cell.config.strategy in _PATTERN]
    session.shared = SentenceWork(
        "", depth=max(knn, default=0),
        hits=Memo() if len(knn) > 1 else None,
        candidates=Memo() if len(pattern) > 1 else None,
    )


def _build_index(session: _Session, config: ExperimentConfig) -> None:
    """Embed the repository once per session, before any worker reads it."""
    session.embeddings = EmbeddingService(
        provider=session.embedder if session.embedder is not None else make_embedder(config),
        cache=EmbeddingCache(config.cache_path) if config.cache_path else None,
    )
    session.index = knn_index(session.repo, session.embeddings)


def _run_cells(session: _Session, configs: Sequence[ExperimentConfig]) -> list[RunResult]:
    """Run `configs` as one stream of (cell, sentence) tasks, in cell order
    and then id order, through one pool of `concurrency` workers (none at
    concurrency 1) that holds at most `LOOKAHEAD_PER_WORKER` tasks a worker
    queued at a time. The main thread writes each cell's lines in id order
    and its report once its last line is in. It builds the kNN index when
    the stream first reaches a kNN task, while the tasks queued ahead of it
    run. A provider error stops the stream: no task behind it starts, and
    the cells ahead of it, and the failing cell's lines ahead of it, are
    written before it is raised."""
    cells = [_open_cell(session, config) for config in configs]
    _share_retrieval(session, cells)
    tasks = ((cell, instance) for cell in cells for instance in cell.todo)
    failures: list[tuple[int, _Cell, ProviderError]] = []  # position in the stream

    def work(position: int, cell: _Cell, instance: LabeledInstance
             ) -> tuple[PredictionRecord, Outcome] | None:
        # no task behind a provider error starts; those ahead of it run
        if failures and position > min(p for p, _, _ in failures):
            return None
        config = cell.config
        try:
            record = _process_instance(instance, cell, session)
        except ProviderError as exc:
            failures.append((position, cell, exc))
            return None
        return record, sentence_outcome(record, instance, config.single_pair, config.matching)

    def results() -> Iterator[tuple[PredictionRecord, Outcome] | None]:
        """Each task's result in stream order, as it is ready; the main
        thread queues each task, at most `lookahead` at a time. Without a
        pool, each task runs and is yielded as it is reached."""
        pending: deque = deque()  # the futures of the tasks queued ahead
        for position, (cell, instance) in enumerate(tasks):
            if len(pending) == lookahead:
                yield pending.popleft().result()
            if failures:  # nothing behind a provider error is queued
                break
            if cell.knn and session.index is None:
                try:  # while the tasks queued ahead of it run
                    _build_index(session, cell.config)
                except ProviderError as exc:
                    failures.append((position, cell, exc))
                    break
            if pool is None:
                yield work(position, cell, instance)
            else:
                pending.append(pool.submit(work, position, cell, instance))
        while pending:
            yield pending.popleft().result()

    def lines(cell: _Cell, stream) -> Iterator[str]:
        for result in islice(stream, len(cell.todo)):
            if result is None:  # failed or never started: later lines would break id order
                return
            record, outcome = result
            yield record.line()
            cell.tally.add(outcome)  # once its line is written

    concurrency = configs[0].concurrency
    pool = None
    if concurrency > 1 and sum(len(cell.todo) for cell in cells) > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

        pool = ThreadPoolExecutor(concurrency)
    lookahead = LOOKAHEAD_PER_WORKER * concurrency
    stream = results()
    reports: list[RunResult] = []
    try:
        for cell in cells:
            LineAppender(cell.output).extend(lines(cell, stream))
            if cell.written < len(cell.todo):
                break
            reports.append(_write_report(session, cell))
    finally:
        if pool is not None:  # tasks not yet started are dropped
            pool.shutdown(cancel_futures=True)
    if failures:
        _, cell, error = min(failures, key=lambda failure: failure[0])
        warn(
            __name__, "provider error in %s: stopped after %d of %d instances; "
            "the completed records were kept", cell.output, cell.written, len(cell.todo),
        )
        raise error
    return reports


def _write_report(session: _Session, cell: _Cell) -> RunResult:
    config = cell.config
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
    report = build_report(cell.tally.kind, cell.tally.metrics(), config_echo)
    replace_lines(_report_path(cell.output),
                  [json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)])
    return RunResult(
        report=report,
        output_path=str(cell.output),
        sentence_ids=sorted(inst.sentence.id for inst in session.instances),
        task=config.task,
        skipped_existing=cell.skipped,
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


def sweep_configs(
    base_config: ExperimentConfig,
    strategies: Sequence[StrategyKind],
    k_values: Sequence[int],
    csv_path: str,
) -> list[ExperimentConfig]:
    """The configs of a sweep grid: every strategy at every k, each cell
    writing `<csv_path>.<strategy>.k<k>.jsonl`. A grid with no strategy or
    k, one named twice, or a cell that is not a valid config is a
    ValueError."""
    for name, values in (("strategy", [s.value for s in strategies]), ("k value", list(k_values))):
        if not values:
            raise ValueError(f"sweep needs at least one {name}")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"sweep repeats {name} {', '.join(map(str, repeated))}")
    return [
        replace(base_config, strategy=strategy, k=k,
                output_path=f"{csv_path}.{strategy.value}.k{k}.jsonl")
        for strategy in strategies
        for k in k_values
    ]


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
    `strategy,k,metric,value` CSV. Every cell's config is checked before
    anything is read or removed."""
    configs = sweep_configs(base_config, strategies, k_values, csv_path)
    session = _Session(base_config, backend, embedder, catalog)
    if base_config.force:  # it describes the cells that force clears
        Path(csv_path).unlink(missing_ok=True)
    results = _run_cells(session, configs)
    lines = ["strategy,k,metric,value"]
    for config, result in zip(configs, results):
        strategy, k = config.strategy.value, config.k
        for metric, value in sorted(result.report["metrics"].items()):
            if isinstance(value, dict):
                for sub, subvalue in sorted(value.items()):
                    lines.append(f"{strategy},{k},{metric}.{sub},{subvalue}")
            else:
                lines.append(f"{strategy},{k},{metric},{value}")
    replace_lines(csv_path, lines)
    return [result.report for result in results]


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
