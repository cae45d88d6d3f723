"""causal-rag: connective-indexed fewshot retrieval and scoring for LLM
causality mining.

The package builds a repository of cause/effect-tagged sentences indexed by
their causal connectives, retrieves dynamic in-context examples (random, kNN,
pattern, kNN+pattern), prompts a chat model for causality detection and
extraction, and scores the outputs.

It exports what the README's "Library use" section documents; every other
name is imported from its module. Typical library use::

    from causal_rag import ExperimentConfig, RunResult, StrategyKind, run_experiment

    config = ExperimentConfig(
        task="detect",
        strategy=StrategyKind.PATTERN,
        dataset_path="dev.jsonl",
        output_path="out/pattern.jsonl",
        db_path="examples.db",
        backend="replay",
        transcript_path="transcript.jsonl",
    )
    result: RunResult = run_experiment(config)
    print(result.report["metrics"])
"""

from __future__ import annotations

from .errors import CausalRagError, MalformedRecordError, ProviderError
from .retrieval import StrategyKind
from .runner import ExperimentConfig, RunResult, eval_predictions, run_experiment, sweep

__version__ = "0.1.0"

# the string kernels are pure Python; benchmark runs stamp this name
KERNEL_BACKEND = "python"

__all__ = [
    "CausalRagError",
    "ExperimentConfig",
    "KERNEL_BACKEND",
    "MalformedRecordError",
    "ProviderError",
    "RunResult",
    "StrategyKind",
    "eval_predictions",
    "run_experiment",
    "sweep",
    "__version__",
]
