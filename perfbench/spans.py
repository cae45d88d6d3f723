"""Traced runs: spans around the calls into each layer, and their arithmetic.

The tracer wraps, in this process only, the names a calling module imported
from another layer (for example `causal_rag.runner.retrieve_pattern`), plus
the backend and embedder the benchmark hands in. Each call becomes a span:
name, start, end, parent span and query id; spans of one query share the
sentence id. Worker threads inherit the main thread's innermost open span as
parent. Hot string kernels are only counted. Spans stay in memory until the
run ends.

A span's self time is its duration minus the part of it that its children
cover; a layer's self time sums that over the layer's spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from causal_rag.embedding import EmbeddingCache, EmbeddingService
from causal_rag.errors import UnparseableResponseError
from causal_rag.gateway import Transcript

from .workloads import Hooks

LAYERS = (
    "corpus", "repository", "retrieval", "kernels", "embedding",
    "prompting", "gateway", "evaluation", "runner",
)

# (module, attribute, span name): calls made through these names get spans
SPANNED = (
    ("causal_rag.runner", "run_experiment", "runner.run_experiment"),
    ("causal_rag.runner", "sweep", "runner.sweep"),
    ("causal_rag.runner", "load_dataset", "corpus.load_dataset"),
    ("causal_rag.runner", "load_repository", "repository.load_repository"),
    ("causal_rag.runner", "build_repository", "repository.build_repository"),
    ("causal_rag.runner", "save_repository", "repository.save_repository"),
    ("causal_rag.runner", "retrieve_random", "retrieval.retrieve_random"),
    ("causal_rag.runner", "retrieve_knn", "retrieval.retrieve_knn"),
    ("causal_rag.runner", "retrieve_pattern", "retrieval.retrieve_pattern"),
    ("causal_rag.runner", "retrieve_knn_pattern", "retrieval.retrieve_knn_pattern"),
    ("causal_rag.runner", "input_connectives", "retrieval.input_connectives"),
    ("causal_rag.retrieval", "retrieve_random", "retrieval.retrieve_random"),
    ("causal_rag.retrieval", "retrieve_knn", "retrieval.retrieve_knn"),
    ("causal_rag.retrieval", "retrieve_pattern", "retrieval.retrieve_pattern"),
    ("causal_rag.retrieval", "knn_search", "embedding.knn_search"),
    ("causal_rag.retrieval", "connective_prompt", "prompting.assemble"),
    ("causal_rag.retrieval", "parse_connective_response", "repository.parse_connectives"),
    ("causal_rag.repository", "connective_prompt", "prompting.assemble"),
    ("causal_rag.repository", "parse_connective_response", "repository.parse_connectives"),
    ("causal_rag.runner", "detection_prompt", "prompting.assemble"),
    ("causal_rag.runner", "extraction_prompt", "prompting.assemble"),
    ("causal_rag.runner", "parse_detection", "prompting.parse"),
    ("causal_rag.runner", "parse_extraction", "prompting.parse"),
    ("causal_rag.runner", "request_hash", "gateway.request_hash"),
    ("causal_rag.runner", "detection_metrics", "evaluation.score"),
    ("causal_rag.runner", "triplet_metrics", "evaluation.score"),
    ("causal_rag.runner", "single_pair_accuracy", "evaluation.score"),
    ("causal_rag.runner", "build_report", "evaluation.score"),
)
# (module, attribute, counter): calls through these names are only counted
COUNTED = (
    ("causal_rag.retrieval", "edit_ratio", "kernels.edit_ratio"),
    ("causal_rag.retrieval", "token_subsequence", "kernels.token_subsequence"),
    ("causal_rag.evaluation", "token_subsequence", "kernels.token_subsequence"),
    ("causal_rag.evaluation", "containment_match", "evaluation.containment_checks"),
)
QUERY_FUNCTION = ("causal_rag.runner", "_process_instance")  # first argument: the instance


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    query: str | None
    phase: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer(Hooks):
    """Records spans while installed; also the hooks that wrap the objects
    the benchmark hands to the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)  # next() on a count is atomic
        self._counts: Counter[tuple[str, str]] = Counter()  # (phase, name)
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._anchor: int | None = None  # innermost open span of the main thread
        self._patches: list[tuple[object, str, object]] = []
        self.root: Span | None = None

    # -- counting ---------------------------------------------------------
    def count(self, name: str) -> None:
        with self._count_lock:
            self._counts[(self.phase, name)] += 1

    def counts(self, phase: str) -> dict[str, int]:
        with self._count_lock:
            return {name: n for (at, name), n in self._counts.items() if at == phase}

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, on_result=None, query_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._anchor
            span_id = next(tracer._ids)
            held_query = getattr(tracer._local, "query", None)
            query = query_of(*args) if query_of else held_query
            tracer._local.query = query
            on_main = threading.current_thread() is tracer._main
            stack.append(span_id)
            if on_main:
                tracer._anchor = span_id
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except UnparseableResponseError:
                tracer.count(f"{name}.unparseable")
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if on_main:
                    tracer._anchor = stack[-1] if stack else None
                tracer._local.query = held_query
                tracer.spans.append(Span(span_id, name, start, end, parent, query, tracer.phase))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counting

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for module, attribute, name in SPANNED:
            owner = importlib.import_module(module)
            on_result = self._pattern_result if attribute == "retrieve_pattern" else None
            self._patch(owner, attribute, self.wrap(getattr(owner, attribute), name, on_result))
        for module, attribute, name in COUNTED:
            owner = importlib.import_module(module)
            self._patch(owner, attribute, self.counted(getattr(owner, attribute), name))
        module, attribute = QUERY_FUNCTION
        owner = importlib.import_module(module)
        if hasattr(owner, attribute):
            query = self.wrap(getattr(owner, attribute), "runner.query",
                              query_of=lambda instance, *rest: instance.sentence.id)
            self._patch(owner, attribute, query)
        self._patch(EmbeddingService, "vector",
                    self.wrap(EmbeddingService.vector, "embedding.vector"))
        self._patch(EmbeddingCache, "get", self._cache_get(EmbeddingCache.get))
        self._patch(Transcript, "append",
                    self.wrap(Transcript.append, "gateway.transcript.append"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _pattern_result(self, result) -> None:
        if result.fallback_used:
            self.count("retrieval.pattern.fallbacks")

    def _cache_get(self, get):
        tracer = self

        @functools.wraps(get)
        def cache_get(cache, key):
            hit = get(cache, key)
            tracer.count("embedding.cache.hits" if hit is not None else "embedding.cache.misses")
            return hit

        return cache_get

    # -- hooks: wrap the objects handed to the program --------------------
    def timed(self, fn):
        """Run the measured call under a root span, kept as `self.root`."""
        result, wall = super().timed(self.wrap(fn, "bench.call"))
        self.root = self.spans[-1]
        return result, wall

    def transcript(self, path: Path) -> Transcript:
        return self.wrap(Transcript, "gateway.transcript.load")(path)

    def backend(self, backend):
        backend.complete = self.wrap(backend.complete, "gateway.complete")
        return backend

    def provider(self, provider):
        provider.complete = self.wrap(provider.complete, "gateway.provider")
        return provider

    def embedder(self, embedder):
        embedder.embed_text = self.wrap(embedder.embed_text, "embedding.embed_text")
        return embedder

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# -- arithmetic --------------------------------------------------------------


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.layer] += own[span.id]
    return dict(out)


def _quantile_ms(values: list[float], q: int) -> float:
    """The q-th percentile in ms (0.0 with no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def per_layer_metrics(tracer: Tracer, call, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced measured call `call` (a
    CallResult), plus set-up-only repository times, as name -> (value, unit)."""
    root = tracer.root
    measured = [s for s in tracer.spans if s.phase == "measure" and s.id != root.id]
    setup_spans = [s for s in tracer.spans if s.phase == "setup"]
    counts = tracer.counts("measure")
    wall = root.end - root.start
    durations: dict[str, list[float]] = defaultdict(list)
    for span in measured:
        durations[span.name].append(span.end - span.start)
    setup_durations: dict[str, list[float]] = defaultdict(list)
    for span in setup_spans:
        setup_durations[span.name].append(span.end - span.start)

    def total(name, source=durations):
        return sum(source.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    def share(part, whole):
        return part / whole if whole else 0.0

    gateway = [s for s in measured if s.name == "gateway.complete"]
    provider_calls = calls("gateway.provider")
    hits = counts.get("embedding.cache.hits", 0)
    misses = counts.get("embedding.cache.misses", 0)
    own = layer_self_times(measured + [root])
    m = {
        "corpus.load_dataset.calls": (calls("corpus.load_dataset"), "count"),
        "corpus.load_dataset.s": (total("corpus.load_dataset"), "s"),
        "repository.load_repository.calls": (calls("repository.load_repository"), "count"),
        "repository.load_repository.s": (total("repository.load_repository"), "s"),
        "repository.build_repository.s": (
            total("repository.build_repository", setup_durations), "s"),
        "repository.save_repository.s": (
            total("repository.save_repository", setup_durations), "s"),
        "retrieval.retrieve_pattern.p50_ms": (
            _quantile_ms(durations["retrieval.retrieve_pattern"], 50), "ms"),
        "retrieval.retrieve_pattern.p95_ms": (
            _quantile_ms(durations["retrieval.retrieve_pattern"], 95), "ms"),
        "retrieval.retrieve_knn.p50_ms": (
            _quantile_ms(durations["retrieval.retrieve_knn"], 50), "ms"),
        "retrieval.retrieve_knn.p95_ms": (
            _quantile_ms(durations["retrieval.retrieve_knn"], 95), "ms"),
        "retrieval.retrieve_knn_pattern.p50_ms": (
            _quantile_ms(durations["retrieval.retrieve_knn_pattern"], 50), "ms"),
        "retrieval.retrieve_random.p50_ms": (
            _quantile_ms(durations["retrieval.retrieve_random"], 50), "ms"),
        "retrieval.input_connectives.calls": (calls("retrieval.input_connectives"), "count"),
        "retrieval.pattern.fallback_share": (
            share(counts.get("retrieval.pattern.fallbacks", 0),
                  calls("retrieval.retrieve_pattern")), "ratio"),
        "retrieval.retrieve_pattern.cover_share": (
            share(union_length((s.start, s.end) for s in measured
                               if s.name == "retrieval.retrieve_pattern"), wall), "ratio"),
        "kernels.edit_ratio.calls": (counts.get("kernels.edit_ratio", 0), "count"),
        "kernels.token_subsequence.calls": (counts.get("kernels.token_subsequence", 0), "count"),
        "embedding.embed_text.calls": (calls("embedding.embed_text"), "count"),
        "embedding.embed_calls_per_query": (call.embed_calls / call.queries, "count"),
        "embedding.embed_text.s": (total("embedding.embed_text"), "s"),
        "embedding.knn_search.s": (total("embedding.knn_search"), "s"),
        "embedding.cache.hit_share": (share(hits, hits + misses), "ratio"),
        "prompting.assemble.s": (total("prompting.assemble"), "s"),
        "prompting.parse.s": (total("prompting.parse"), "s"),
        "prompting.parse_failures": (counts.get("prompting.parse.unparseable", 0), "count"),
        "gateway.calls.detect": (call.calls_by_kind.get("detect", 0), "count"),
        "gateway.calls.extract": (call.calls_by_kind.get("extract", 0), "count"),
        "gateway.calls.connective": (call.calls_by_kind.get("connective", 0), "count"),
        "gateway.provider_wait_s": (total("gateway.provider"), "s"),
        "gateway.transcript.load_s": (total("gateway.transcript.load"), "s"),
        "gateway.transcript.appends": (calls("gateway.transcript.append"), "count"),
        "gateway.replay_hit_share": (
            share(len(gateway) - provider_calls, len(gateway)), "ratio"),
        "evaluation.score.s": (total("evaluation.score"), "s"),
        "evaluation.containment_checks": (
            counts.get("evaluation.containment_checks", 0), "count"),
        "runner.output_bytes": (call.output_bytes, "bytes"),
        "trace.overhead_share": (share(wall - untraced_wall, untraced_wall), "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(measured), "count"),
    }
    for layer in LAYERS:
        if layer != "kernels":  # kernels are counted, not timed
            m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
            m[f"{layer}.cover_share"] = (
                share(union_length((s.start, s.end) for s in measured if s.layer == layer),
                      wall), "ratio")
    return m
