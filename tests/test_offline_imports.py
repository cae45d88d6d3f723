"""Runs load only what they use: offline runs never load the HTTP stack, runs
that never embed never load numpy, runs without a worker pool never load
`concurrent.futures`, runs that warn about nothing never load `logging`,
and no run loads `datetime` (numpy itself does).

`requests` is imported only by `gateway.HttpEndpoint.post`, on the first live
request; numpy only where `embedding` first makes or scans a vector;
`concurrent.futures` where a pool is first started; `logging` by the first
warning, or by the CLI, which configures it; `mmap` where `jsonl` first
mends a torn tail. The checks run in a fresh interpreter, since this test
process has already imported all of them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Runs each step named on the command line, in order, and prints after each
# one which of the watched modules are loaded by then.
STEPS = """
import json
import sys
from pathlib import Path

import causal_rag
from causal_rag.embedding import EmbeddingCache, LocalHashEmbedder
from causal_rag.gateway import RecordBackend, ScriptedBackend, Transcript
from causal_rag.retrieval import StrategyKind
from causal_rag.runner import ExperimentConfig, build_db, eval_predictions, run_experiment, sweep
from fixture_llm import FIXTURE_MODEL_ID, FixtureResponder

fixtures, work = Path(sys.argv[1]), Path(sys.argv[2])
WATCHED = {"numpy", "requests", "urllib3", "ssl", "concurrent.futures", "logging", "mmap",
           "datetime"}


def config(strategy, out, **kw):
    kw = {"backend": "replay", "transcript_path": str(fixtures / "transcript.jsonl"),
          "concurrency": 1, **kw}
    return ExperimentConfig(
        task="detect", strategy=strategy, dataset_path=str(fixtures / "detect.jsonl"),
        output_path=str(work / out), db_path=str(fixtures / "examples.db"),
        model_id=FIXTURE_MODEL_ID, **kw,
    )


def cli(*argv):
    import causal_rag.cli  # which configures logging

    code = causal_rag.cli.main(list(argv))
    assert code == 0, (argv, code)


def record():
    recorded = work / "recorded.jsonl"
    run_experiment(
        config(StrategyKind.RANDOM, "record.jsonl", k=1, backend="record",
               transcript_path=str(recorded)),
        backend=RecordBackend(Transcript(recorded), ScriptedBackend(FixtureResponder())),
    )


def sweep_cells(*strategies):
    sweep(config(StrategyKind.RANDOM, "unused.jsonl", concurrency=2), list(strategies), [10],
          str(work / f"grid-{len(strategies)}.csv"), embedder=LocalHashEmbedder())


def cache():
    path = work / "cache.jsonl"
    line = {"dim": 2, "key": "0" * 64, "model": "m", "vector": [0.6, 0.8]}
    path.write_text(json.dumps(line) + "\\n", encoding="utf-8")
    assert len(EmbeddingCache(path)) == 1


STEP = {
    "replay": lambda: run_experiment(config(StrategyKind.PATTERN, "replay.jsonl", k=5)),
    "record": record,
    "sweep": lambda: sweep_cells(StrategyKind.RANDOM, StrategyKind.PATTERN,
                                 StrategyKind.ZEROSHOT),
    "build_db": lambda: build_db([str(fixtures / "repo_corpus.jsonl")], str(work / "built.db"),
                                 FIXTURE_MODEL_ID, ScriptedBackend(FixtureResponder())),
    "eval": lambda: eval_predictions(str(work / "replay.jsonl"),
                                     str(fixtures / "detect.jsonl"), "detect"),
    "stats": lambda: cli("stats", "--db", str(fixtures / "examples.db"), "--sample", "2"),
    "knn": lambda: sweep_cells(StrategyKind.KNN, StrategyKind.KNN_PATTERN),
    "cache": cache,
}
for name in sys.argv[3:]:
    STEP[name]()
    print("after", name, ",".join(sorted(WATCHED & set(sys.modules))))
"""


def loaded_after(tmp_path, *steps: str) -> dict[str, set[str]]:
    path = os.pathsep.join(p for p in (str(SRC), str(TESTS), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", STEPS, str(TESTS / "fixtures"), str(tmp_path), *steps],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after = [line.split(" ") for line in proc.stdout.splitlines() if line.startswith("after ")]
    return {step: set(filter(None, modules.split(","))) for _, step, modules in after}


def test_runs_load_only_what_they_use(tmp_path):
    # each step's line lists all that is loaded by then, its own and earlier
    steps = ("replay", "record", "build_db", "eval", "sweep", "stats", "knn")
    loaded = loaded_after(tmp_path, *steps)
    pool = {"concurrent.futures", "logging"}  # concurrent.futures imports logging
    assert loaded == {
        **dict.fromkeys(("replay", "record", "build_db", "eval"), set()),
        "sweep": pool,  # two workers
        "stats": pool,
        "knn": pool | {"numpy"} | ({"datetime"} & loaded["knn"]),  # numpy's own import
    }
    assert (tmp_path / "built.db").read_bytes() == (TESTS / "fixtures" / "examples.db").read_bytes()


def test_a_cli_step_loads_only_logging(tmp_path):
    assert loaded_after(tmp_path, "stats") == {"stats": {"logging"}}


def test_loading_an_embedding_cache_loads_numpy(tmp_path):
    loaded = loaded_after(tmp_path, "cache")["cache"]
    assert loaded - {"datetime"} == {"numpy"}  # numpy imports datetime itself
