"""Regenerate the committed test fixtures.

Run from the repository root:

    python3 tests/generate_fixtures.py

Writes the fixture datasets, builds the example repository, and records a
provider transcript by running every retrieval strategy on both tasks (plus
a single-pair run and a strategy/k sweep) against the scripted fixture
model. Prediction outputs go to a scratch directory; only the datasets, the
repository file, and the transcript are kept. The final metrics for every
run are printed so pinned values in the acceptance tests can be checked.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fixture_llm import (
    DB_SENTENCES,
    DETECTION_SENTENCES,
    EXTRACTION_SENTENCES,
    FIXTURE_MODEL_ID,
    FixtureResponder,
    ScriptedBackend,
    single_pair_sentences,
    write_dataset,
)

from causal_rag.gateway import RecordBackend, Transcript
from causal_rag.repository import repository_stats
from causal_rag.retrieval import StrategyKind
from causal_rag.runner import ExperimentConfig, build_db, run_experiment, sweep

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def base_config(task: str, strategy: StrategyKind, dataset: Path, out: Path, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        task=task,
        strategy=strategy,
        dataset_path=str(dataset),
        output_path=str(out),
        db_path=str(FIXTURES / "examples.db"),
        k=kw.pop("k", 10),
        seed=0,
        model_id=FIXTURE_MODEL_ID,
        backend="record",
        transcript_path=str(FIXTURES / "transcript.jsonl"),
        concurrency=1,
        **kw,
    )


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    transcript_path = FIXTURES / "transcript.jsonl"
    if transcript_path.exists():
        transcript_path.unlink()

    write_dataset(FIXTURES / "repo_corpus.jsonl", DB_SENTENCES, "fixture-train")
    write_dataset(FIXTURES / "detect.jsonl", DETECTION_SENTENCES, "fixture-detect")
    write_dataset(FIXTURES / "extract.jsonl", EXTRACTION_SENTENCES, "fixture-extract")
    write_dataset(FIXTURES / "extract_single.jsonl", single_pair_sentences(), "fixture-extract")

    backend = RecordBackend(Transcript(transcript_path), ScriptedBackend(FixtureResponder()))
    repo = build_db(
        input_paths=[str(FIXTURES / "repo_corpus.jsonl")],
        db_path=str(FIXTURES / "examples.db"),
        model_id=FIXTURE_MODEL_ID,
        backend=backend,
        cap=10,
        seed=0,
    )
    stats = repository_stats(repo)
    print(f"repository: {stats.total_records} records, {stats.unique_connectives} connectives")

    scratch = Path(tempfile.mkdtemp(prefix="fixture-runs-"))
    reports: dict[str, dict] = {}
    try:
        for strategy in StrategyKind:
            for task, dataset in (
                ("detect", FIXTURES / "detect.jsonl"),
                ("extract", FIXTURES / "extract.jsonl"),
            ):
                out = scratch / f"{task}-{strategy.value}.jsonl"
                config = base_config(task, strategy, dataset, out)
                result = run_experiment(config, backend=backend)
                reports[f"{task}/{strategy.value}"] = result.report

        single = base_config(
            "extract",
            StrategyKind.RANDOM,
            FIXTURES / "extract_single.jsonl",
            scratch / "extract-single.jsonl",
            single_pair=True,
        )
        result = run_experiment(single, backend=backend)
        reports["extract-single/random"] = result.report

        sweep_base = base_config(
            "detect", StrategyKind.RANDOM, FIXTURES / "detect.jsonl", scratch / "sweep-base.jsonl"
        )
        sweep_reports = sweep(
            sweep_base,
            [StrategyKind.RANDOM, StrategyKind.PATTERN],
            [1, 5, 10, 50],
            str(scratch / "sweep.csv"),
            backend=backend,
        )
        for report in sweep_reports:
            key = f"sweep/{report['config']['strategy']}/k{report['config']['k']}"
            reports[key] = report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for key in sorted(reports):
        print(f"=== {key} ===")
        print(json.dumps(reports[key]["metrics"], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
