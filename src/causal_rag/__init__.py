"""causal-rag: connective-indexed fewshot retrieval and scoring for LLM
causality mining.

The package builds a repository of cause/effect-tagged sentences indexed by
their causal connectives, retrieves dynamic in-context examples (random, kNN,
pattern, kNN+pattern), prompts a chat model for causality detection and
extraction, and scores the outputs.

Typical library use::

    from causal_rag import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        task="detect",
        strategy=StrategyKind.PATTERN,
        dataset_path="dev.jsonl",
        output_path="out/pattern.jsonl",
        db_path="examples.db",
        transcript_path="transcript.jsonl",
    )
    result = run_experiment(config)
    print(result.report["metrics"])
"""

from __future__ import annotations

from .corpus import (
    CauseEffectPair,
    DatasetSplit,
    LabeledInstance,
    TaggedSentence,
    Triplet,
    load_dataset,
    parse_tagged_sentence,
    render_tagged,
    strip_tags,
)
from .errors import (
    CausalRagError,
    EmptyDatasetError,
    ProviderError,
    ReplayMissError,
    TagError,
    TransportError,
    UnparseableResponseError,
)
from .evaluation import (
    PredictionRecord,
    build_report,
    containment_match,
    detection_metrics,
    render_table,
    single_pair_accuracy,
    triplet_metrics,
)
from .gateway import (
    CompletionRequest,
    CompletionResponse,
    LiveBackend,
    LlmClient,
    RecordBackend,
    ReplayBackend,
    ScriptedBackend,
    Transcript,
)
from .embedding import (
    EmbeddingCache,
    EmbeddingService,
    EmbeddingVector,
    HttpEmbeddingProvider,
    LocalHashEmbedder,
)
from .prompting import (
    AssembledPrompt,
    PromptCatalog,
    connective_prompt,
    default_catalog,
    detection_prompt,
    extraction_prompt,
    load_catalog,
    parse_detection,
    parse_extraction,
)
from .repository import (
    ExampleRecord,
    Repository,
    RepositoryStats,
    build_repository,
    load_repository,
    repository_stats,
    save_repository,
)
from .retrieval import (
    RetrievalConfig,
    RetrievalResult,
    StrategyKind,
    retrieve_knn,
    retrieve_knn_pattern,
    retrieve_pattern,
    retrieve_random,
)
from .runner import (
    ExperimentConfig,
    RunResult,
    build_db,
    eval_predictions,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"

# the string kernels are pure Python; benchmark runs stamp this name
KERNEL_BACKEND = "python"

__all__ = [
    "AssembledPrompt",
    "CausalRagError",
    "CauseEffectPair",
    "CompletionRequest",
    "CompletionResponse",
    "DatasetSplit",
    "EmbeddingCache",
    "EmbeddingService",
    "EmbeddingVector",
    "EmptyDatasetError",
    "ExampleRecord",
    "ExperimentConfig",
    "HttpEmbeddingProvider",
    "KERNEL_BACKEND",
    "LabeledInstance",
    "LiveBackend",
    "LlmClient",
    "LocalHashEmbedder",
    "PredictionRecord",
    "PromptCatalog",
    "ProviderError",
    "RecordBackend",
    "ReplayBackend",
    "ReplayMissError",
    "Repository",
    "RepositoryStats",
    "RetrievalConfig",
    "RetrievalResult",
    "RunResult",
    "ScriptedBackend",
    "StrategyKind",
    "TagError",
    "TaggedSentence",
    "Transcript",
    "TransportError",
    "Triplet",
    "UnparseableResponseError",
    "build_db",
    "build_report",
    "build_repository",
    "connective_prompt",
    "containment_match",
    "default_catalog",
    "detection_metrics",
    "detection_prompt",
    "eval_predictions",
    "extraction_prompt",
    "load_catalog",
    "load_dataset",
    "load_repository",
    "parse_detection",
    "parse_extraction",
    "parse_tagged_sentence",
    "render_tagged",
    "render_table",
    "repository_stats",
    "retrieve_knn",
    "retrieve_knn_pattern",
    "retrieve_pattern",
    "retrieve_random",
    "run_experiment",
    "save_repository",
    "single_pair_accuracy",
    "strip_tags",
    "sweep",
    "triplet_metrics",
    "__version__",
]
