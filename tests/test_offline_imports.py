"""Offline runs never load the HTTP stack.

`requests` is imported only by `gateway.post_with_retry`, on the first live
request. The checks run in a fresh interpreter, since this test process has
already imported `requests` (see `test_gateway.py`)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

OFFLINE_RUNS = """
import sys
from pathlib import Path

import causal_rag
import causal_rag.cli
from causal_rag.embedding import LocalHashEmbedder
from causal_rag.gateway import RecordBackend, ScriptedBackend, Transcript
from causal_rag.retrieval import StrategyKind
from causal_rag.runner import ExperimentConfig, build_db, run_experiment, sweep
from fixture_llm import FIXTURE_MODEL_ID, FixtureResponder

fixtures, work = Path(sys.argv[1]), Path(sys.argv[2])


def config(strategy, out, **kw):
    kw = {"backend": "replay", "transcript_path": str(fixtures / "transcript.jsonl"), **kw}
    return ExperimentConfig(
        task="detect", strategy=strategy, dataset_path=str(fixtures / "detect.jsonl"),
        output_path=str(work / out), db_path=str(fixtures / "examples.db"),
        model_id=FIXTURE_MODEL_ID, concurrency=2, **kw,
    )


run_experiment(config(StrategyKind.PATTERN, "replay.jsonl", k=5))
recorded = work / "recorded.jsonl"
run_experiment(
    config(StrategyKind.RANDOM, "record.jsonl", k=1, backend="record",
           transcript_path=str(recorded)),
    backend=RecordBackend(Transcript(recorded), ScriptedBackend(FixtureResponder())),
)
sweep(config(StrategyKind.RANDOM, "unused.jsonl"),
      [StrategyKind.RANDOM, StrategyKind.KNN, StrategyKind.KNN_PATTERN], [10],
      str(work / "grid.csv"), embedder=LocalHashEmbedder())
build_db([str(fixtures / "repo_corpus.jsonl")], str(work / "built.db"), FIXTURE_MODEL_ID,
         ScriptedBackend(FixtureResponder()))
code = causal_rag.cli.main([
    "eval", "--predictions", str(work / "replay.jsonl"),
    "--dataset", str(fixtures / "detect.jsonl"), "--task", "detect",
])
assert code == 0, code
loaded = sorted({"requests", "urllib3", "ssl"} & set(sys.modules))
print("loaded:", ",".join(loaded))
"""


def test_offline_runs_never_import_the_http_stack(tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), str(TESTS), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUNS, str(TESTS / "fixtures"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: "
    assert (tmp_path / "built.db").read_bytes() == (TESTS / "fixtures" / "examples.db").read_bytes()
