"""The benchmark's workloads: inputs, set-up, the measured library call, checks.

Each workload drives the public entry points (`build_db`, `run_experiment`,
`sweep`) with a backend and an embedder the benchmark hands in, so chat
requests, prompt characters and embedding calls are counted where they
cross into the provider. The sweep's measured call uses two worker threads,
so that provider waits overlap; every other call and every set-up uses one.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from causal_rag import runner
from causal_rag.embedding import LocalHashEmbedder, normalize_for_key
from causal_rag.gateway import RecordBackend, ReplayBackend, Transcript
from causal_rag.retrieval import StrategyKind

from . import gate
from .synth import (
    MODEL_ID, InputSpec, Inputs, RepoShape, SimulatedProvider, make_inputs, prompt_kind,
)

# With two workers, CPU-bound work runs at one of two speeds per process,
# depending on whether the scheduler puts the workers on one CPU or two (the
# interpreter lock then crosses CPUs at every switch): build_db took about
# 0.05 s or 0.14 s on record-sweep-50ms, replay-bulk-extract's call about 3 s
# or 4 s. No median within one process removes that, and the interpreter lock
# gives a second worker nothing to overlap without provider waits. So only
# the latency-bound sweep measures with two workers.
SETUP_CONCURRENCY = 1
CAP = 10
EMBEDDER_DIM = 256

# ~3,000 stored records under 600 connectives; ~300 under 60
BIG_REPO = RepoShape(connectives=600, zipf_s=0.8, zipf_a=380)
SMALL_REPO = RepoShape(connectives=60, zipf_s=1.0, zipf_a=120)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: InputSpec
    task: str
    strategies: tuple[StrategyKind, ...]
    k_values: tuple[int, ...]
    record: bool = False  # measured call records into a fresh transcript
    latency_s: float = 0.0
    cache: bool = False
    concurrency: int = 1  # worker threads of the measured call


WORKLOADS = (
    Workload(
        name="replay-pattern-extract",
        why="pattern retrieval on a 3k-record, 600-connective repository: edit distance "
        "to every index key dominates; no embedding work",
        inputs=InputSpec(BIG_REPO, "extract", queries=24),
        task="extract",
        strategies=(StrategyKind.PATTERN,),
        k_values=(10,),
    ),
    Workload(
        name="replay-knn-detect",
        why="kNN retrieval without a cache re-embeds the whole 3k repository per query; "
        "no connective calls or edit distances",
        inputs=InputSpec(BIG_REPO, "detect", queries=8),
        task="detect",
        strategies=(StrategyKind.KNN,),
        k_values=(10,),
    ),
    Workload(
        name="record-sweep-50ms",
        why="the paid path: a 9-cell sweep recording through a 50 ms provider with an "
        "embedding cache; provider waits, per-cell reloads and all writes",
        inputs=InputSpec(SMALL_REPO, "detect", queries=12),
        task="detect",
        strategies=(StrategyKind.RANDOM, StrategyKind.PATTERN, StrategyKind.KNN_PATTERN),
        k_values=(1, 5, 10),
        record=True,
        latency_s=0.05,
        cache=True,
        concurrency=2,
    ),
    Workload(
        name="replay-bulk-extract",
        why="5,000 single-pair sentences with cheap random retrieval: per-record "
        "bookkeeping, record I/O and triplet scoring dominate",
        inputs=InputSpec(
            BIG_REPO, "extract", queries=5000, two_connective_share=0.0, unseen_share=0.0
        ),
        task="extract",
        strategies=(StrategyKind.RANDOM,),
        k_values=(5,),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


class CountingBackend:
    """Counts the chat requests reaching `inner`, by prompt kind, and the
    system + user characters they carry."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self.prompt_chars = 0
        self._lock = threading.Lock()

    def complete(self, req):
        kind = prompt_kind(req.system_text)
        with self._lock:
            self.calls[kind] += 1
            self.prompt_chars += len(req.system_text) + len(req.user_text)
        return self.inner.complete(req)


class CountingEmbedder:
    """Counts `embed_text` calls on the wrapped embedder."""

    def __init__(self, inner):
        self.inner = inner
        self.model_id = inner.model_id
        self.calls = 0
        self._lock = threading.Lock()

    def embed_text(self, text):
        with self._lock:
            self.calls += 1
        return self.inner.embed_text(text)


class Hooks:
    """Where the benchmark builds the objects it hands to the program. The
    traced run overrides these to wrap each object; untraced runs use them
    as they are."""

    def transcript(self, path: Path) -> Transcript:
        return Transcript(path)

    def backend(self, backend):
        return backend

    def provider(self, provider):
        return provider

    def embedder(self, embedder):
        return embedder

    def timed(self, fn):
        """Run the measured call; return (its result, its wall time)."""
        return _timed(fn)


def _timed(fn):
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


@dataclass
class Prepared:
    """Generated inputs plus the set-up products the measured call uses."""

    workload: Workload
    inputs: Inputs
    corpus_path: Path
    dataset_path: Path
    db_path: Path | None = None
    transcript_path: Path | None = None
    records: int = 0

    @property
    def queries_per_cell(self) -> int:
        """Sentences one experiment cell answers (extract skips non-causal)."""
        planted = self.inputs.planted
        return sum(
            1 for q in self.inputs.queries
            if self.workload.task == "detect" or planted[q["text"]].label == 1
        )


@dataclass
class CallResult:
    wall_s: float
    queries: int
    chat_calls: int
    embed_calls: int
    prompt_chars: int
    calls_by_kind: dict[str, int]
    failed_ids: set[str]
    problems: list[str]
    digest: str
    output_bytes: int


def generate(workload: Workload, seed: int, work: Path) -> Prepared:
    """Draw the workload's inputs from `seed` and write them under `work`."""
    inputs = make_inputs(workload.inputs, seed)
    corpus_path, dataset_path = inputs.write(work / "inputs")
    return Prepared(workload, inputs, corpus_path, dataset_path)


def _config(prep: Prepared, strategy: StrategyKind, k: int, out: Path, backend: str,
            transcript: Path, cache: Path | None = None,
            concurrency: int | None = None) -> runner.ExperimentConfig:
    return runner.ExperimentConfig(
        task=prep.workload.task,
        strategy=strategy,
        dataset_path=str(prep.dataset_path),
        output_path=str(out),
        db_path=str(prep.db_path),
        k=k,
        model_id=MODEL_ID,
        backend=backend,
        transcript_path=str(transcript),
        cache_path=str(cache) if cache else None,
        concurrency=concurrency or prep.workload.concurrency,
        force=True,
    )


def setup(prep: Prepared, directory: Path, hooks: Hooks) -> float:
    """Program work before the measured call: build the repository through a
    record backend and, for replay workloads, record the run's answers.
    Returns its wall time; the products become the measured call's inputs."""
    directory.mkdir(parents=True)
    db_path = directory / "examples.db"
    transcript_path = directory / "transcript.jsonl"
    provider = hooks.provider(SimulatedProvider(prep.inputs.planted))
    prep.db_path = db_path
    prep.transcript_path = transcript_path

    def work():
        backend = hooks.backend(RecordBackend(hooks.transcript(transcript_path), provider))
        runner.build_db(
            [str(prep.corpus_path)], str(db_path), MODEL_ID, backend,
            cap=CAP, concurrency=SETUP_CONCURRENCY,
        )
        if not prep.workload.record:
            strategy, k = prep.workload.strategies[0], prep.workload.k_values[0]
            config = _config(prep, strategy, k, directory / "record.jsonl", "record",
                             transcript_path, concurrency=SETUP_CONCURRENCY)
            backend = hooks.backend(RecordBackend(hooks.transcript(transcript_path), provider))
            runner.run_experiment(config, backend=backend, embedder=_embedder(hooks))

    _, wall = _timed(work)
    with open(db_path, encoding="utf-8") as handle:
        prep.records = sum(1 for _ in handle) - 1  # minus the header line
    return wall


def _embedder(hooks: Hooks) -> CountingEmbedder:
    return hooks.embedder(CountingEmbedder(LocalHashEmbedder(dim=EMBEDDER_DIM)))


def _digest(paths: list[Path]) -> tuple[str, int]:
    sha = hashlib.sha256()
    size = 0
    for path in paths:
        data = path.read_bytes()
        size += len(data)
        sha.update(path.name.encode() + b"\0" + data)
    return sha.hexdigest(), size


def measure(prep: Prepared, directory: Path, hooks: Hooks) -> CallResult:
    """One measured library call, then its correctness checks."""
    directory.mkdir(parents=True)
    wl = prep.workload
    embedder = _embedder(hooks)
    if wl.record:
        counted = CountingBackend(SimulatedProvider(prep.inputs.planted, wl.latency_s))
        transcript_path = directory / "transcript.jsonl"
        csv_path = directory / "grid.csv"
        base = _config(
            prep, wl.strategies[0], wl.k_values[0], directory / "unused.jsonl", "record",
            transcript_path, directory / "embeddings.jsonl" if wl.cache else None,
        )

        def call():
            backend = hooks.backend(RecordBackend(hooks.transcript(transcript_path),
                                                  hooks.provider(counted)))
            return runner.sweep(base, wl.strategies, wl.k_values, str(csv_path),
                                backend=backend, embedder=embedder)

        reports, wall = hooks.timed(call)
        outputs = [
            (strategy, k, Path(f"{csv_path}.{strategy.value}.k{k}.jsonl"))
            for strategy in wl.strategies
            for k in wl.k_values
        ]
        digest_paths = [csv_path]
    else:
        strategy, k = wl.strategies[0], wl.k_values[0]
        out = directory / "predictions.jsonl"
        config = _config(prep, strategy, k, out, "replay", prep.transcript_path)
        counted = None

        def call():
            nonlocal counted
            counted = CountingBackend(ReplayBackend(hooks.transcript(prep.transcript_path)))
            return runner.run_experiment(config, backend=hooks.backend(counted),
                                         embedder=embedder)

        result, wall = hooks.timed(call)
        reports = [result.report]
        outputs = [(strategy, k, out)]
        digest_paths = [out, Path(f"{out}.metrics.json")]

    planted = prep.inputs.query_planted()
    seen = frozenset(prep.inputs.seen_connectives)
    expected = gate.expected_metrics(wl.task, list(planted.values()))
    failed: set[str] = set()
    problems: list[str] = []
    for (strategy, k, path), report in zip(outputs, reports):
        label = f"{strategy.value}.k{k}"
        ids, found = gate.check_records(path, planted, wl.task, strategy.value, k, seen)
        failed |= {f"{label}/{sid}" for sid in ids}
        problems += found
        problems += gate.check_report(report["metrics"], expected, label)
    queries = prep.queries_per_cell * len(outputs)
    observed = {
        "chat_calls": sum(counted.calls.values()),
        "transcript_lines": gate.line_count(transcript_path) if wl.record else None,
        "embed_calls": embedder.calls,
        **{f"calls.{kind}": n for kind, n in counted.calls.items()},
    }
    problems += gate.check_counts(observed, expected_counts(prep, outputs), wl.name)
    digest, output_bytes = _digest(digest_paths + [path for _, _, path in outputs])
    if wl.record:
        # record-mode prediction files carry timings; the CSV, which holds
        # every cell's metrics, must still repeat
        digest, _ = _digest(digest_paths)
    return CallResult(
        wall_s=wall,
        queries=queries,
        chat_calls=observed["chat_calls"],
        embed_calls=observed["embed_calls"],
        prompt_chars=counted.prompt_chars,
        calls_by_kind=dict(counted.calls),
        failed_ids=failed,
        problems=problems,
        digest=digest,
        output_bytes=output_bytes,
    )


def expected_counts(prep: Prepared, outputs) -> dict:
    """Provider calls and embeddings the program must make, derived from
    the inputs and the outputs' own prompt hashes."""
    wl = prep.workload
    n = prep.queries_per_cell
    pattern = any(s.value in gate.PATTERN_STRATEGIES for s in wl.strategies)
    knn = any(s in (StrategyKind.KNN, StrategyKind.KNN_PATTERN) for s in wl.strategies)
    if not wl.record:
        counts = {f"calls.{wl.task}": n, "chat_calls": n * (2 if pattern else 1)}
        if pattern:
            counts["calls.connective"] = n
        counts["embed_calls"] = n * (prep.records + 1) if knn else 0
        return counts
    # record mode: one provider call per distinct request; the transcript
    # serves repeats (connective prompts recur in every pattern cell)
    hashes: set[str] = set()
    for _, _, path in outputs:
        hashes |= gate.prompt_hashes(path)
    counts = {f"calls.{wl.task}": len(hashes), "chat_calls": len(hashes) + (n if pattern else 0)}
    counts["transcript_lines"] = counts["chat_calls"]
    if pattern:
        counts["calls.connective"] = n
    if knn and wl.cache:
        texts = {normalize_for_key(q["text"]) for q in prep.inputs.queries}
        texts |= gate.repository_texts(prep.db_path)
        # the cache is checked before embedding and filled after, so
        # concurrent workers can each embed a text the other has not yet put
        counts["embed_calls"] = (len(texts), wl.concurrency * len(texts))
    return counts
