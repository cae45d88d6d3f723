"""End-to-end runner and CLI behavior against the committed fixtures."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from fixture_llm import (
    DB_SENTENCES,
    DETECTION_SENTENCES,
    FIXTURE_MODEL_ID,
    FixtureResponder,
    canonical_record,
)

from causal_rag import cli, retrieval, runner
from causal_rag.cli import build_parser, main
from causal_rag.embedding import LocalHashEmbedder, normalize_for_key
from causal_rag.errors import MalformedRecordError, TransportError
from causal_rag.evaluation import PredictionRecord
from causal_rag.gateway import RecordBackend, ReplayBackend, ScriptedBackend, Transcript
from causal_rag.jsonl import read_jsonl
from causal_rag.repository import load_repository
from causal_rag.retrieval import StrategyKind
from causal_rag.runner import (
    ExperimentConfig,
    build_db,
    eval_predictions,
    run_experiment,
    sweep,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def replay_config(tmp_path: Path, task: str, strategy: StrategyKind, **kw) -> ExperimentConfig:
    dataset = kw.pop("dataset", FIXTURES / ("detect.jsonl" if task == "detect" else "extract.jsonl"))
    return ExperimentConfig(
        task=task,
        strategy=strategy,
        dataset_path=str(dataset),
        output_path=str(kw.pop("out", tmp_path / "predictions.jsonl")),
        db_path=str(FIXTURES / "examples.db"),
        model_id=FIXTURE_MODEL_ID,
        backend="replay",
        transcript_path=str(FIXTURES / "transcript.jsonl"),
        **kw,
    )


def scripted_config(tmp_path: Path, task: str, strategy: StrategyKind, **kw) -> ExperimentConfig:
    config = replay_config(tmp_path, task, strategy, **kw)
    from dataclasses import replace

    return replace(config, backend="live", transcript_path=None)


# --- run_experiment ----------------------------------------------------------


def test_replay_detect_zeroshot_metrics(tmp_path):
    result = run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT))
    metrics = result.report["metrics"]
    assert metrics["accuracy"] == 0.84
    assert metrics["counts"] == {"tp": 11, "fp": 2, "tn": 10, "fn": 2}
    assert metrics["examples_mean"] == 0.0
    assert len(result.records) == 25


def test_replay_fewshot_beats_zeroshot(tmp_path):
    zero = run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT,
                                        out=tmp_path / "zero.jsonl"))
    few = run_experiment(replay_config(tmp_path, "detect", StrategyKind.PATTERN,
                                       out=tmp_path / "few.jsonl"))
    assert few.report["metrics"]["accuracy"] > zero.report["metrics"]["accuracy"]


def test_records_sorted_and_timing_zero_under_replay(tmp_path):
    result = run_experiment(replay_config(tmp_path, "detect", StrategyKind.KNN))
    ids = [record.sentence_id for record in result.records]
    assert ids == sorted(ids)
    assert all(record.timing_ms == 0.0 for record in result.records)
    assert all(record.strategy is StrategyKind.KNN for record in result.records)


def test_output_bytes_identical_across_concurrency(tmp_path):
    blobs = []
    for i, concurrency in enumerate((1, 4)):
        out = tmp_path / f"out{i}.jsonl"
        run_experiment(
            replay_config(tmp_path, "detect", StrategyKind.KNN_PATTERN,
                          out=out, concurrency=concurrency)
        )
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_rerun_skips_existing_and_leaves_bytes_unchanged(tmp_path):
    out = tmp_path / "out.jsonl"
    first = run_experiment(replay_config(tmp_path, "detect", StrategyKind.RANDOM, out=out))
    assert first.skipped_existing == 0
    before = out.read_bytes()
    second = run_experiment(replay_config(tmp_path, "detect", StrategyKind.RANDOM, out=out))
    assert second.skipped_existing == 25
    assert out.read_bytes() == before
    assert second.report == first.report


def test_force_reruns_everything(tmp_path):
    out = tmp_path / "out.jsonl"
    run_experiment(replay_config(tmp_path, "detect", StrategyKind.RANDOM, out=out))
    before = out.read_bytes()
    forced = run_experiment(
        replay_config(tmp_path, "detect", StrategyKind.RANDOM, out=out, force=True)
    )
    assert forced.skipped_existing == 0
    assert out.read_bytes() == before


def test_resume_completes_a_partial_output(tmp_path):
    out = tmp_path / "out.jsonl"
    full = run_experiment(
        replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=tmp_path / "full.jsonl")
    )
    lines = (tmp_path / "full.jsonl").read_text(encoding="utf-8").splitlines()
    out.write_text(lines[7] + "\n", encoding="utf-8")
    resumed = run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=out))
    assert resumed.skipped_existing == 1
    assert {r.sentence_id for r in resumed.records} == {r.sentence_id for r in full.records}
    assert resumed.report["metrics"] == full.report["metrics"]


def test_resume_after_half_the_instances_matches_a_full_run(tmp_path):
    full_out = tmp_path / "full.jsonl"
    full = run_experiment(replay_config(tmp_path, "extract", StrategyKind.KNN, out=full_out))
    rows = (FIXTURES / "extract.jsonl").read_text(encoding="utf-8").splitlines()
    rows.sort(key=lambda row: json.loads(row)["id"])
    half = tmp_path / "half.jsonl"
    half.write_text("".join(row + "\n" for row in rows[: len(rows) // 2]), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    run_experiment(replay_config(tmp_path, "extract", StrategyKind.KNN, out=out, dataset=half))
    resumed = run_experiment(replay_config(tmp_path, "extract", StrategyKind.KNN, out=out))
    assert resumed.skipped_existing == len(rows) // 2
    assert resumed.records == full.records
    assert resumed.report == full.report
    assert out.read_bytes() == full_out.read_bytes()
    metrics = Path(f"{out}.metrics.json").read_bytes()
    assert metrics == Path(f"{full_out}.metrics.json").read_bytes()


class FailingReplay:
    """The fixture replay backend, counting its asks; it fails every ask
    about the sentence `poisoned`, or every ask when `poisoned` is None."""

    def __init__(self, poisoned: str | None = None):
        self.replay = ReplayBackend(Transcript(FIXTURES / "transcript.jsonl"))
        self.poisoned = poisoned
        self.asks = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.asks += 1
        sentence = request.user_text.rsplit("Sentence: ", 1)[1]
        if self.poisoned is None or self.poisoned in sentence:
            raise TransportError("connection reset")
        return self.replay.complete(request)


@pytest.mark.parametrize("sweeping", [False, True], ids=["run", "sweep"])
@pytest.mark.parametrize("concurrency", [1, 3, 8])
def test_a_dead_provider_is_asked_at_most_once_per_worker(tmp_path, concurrency, sweeping):
    out = tmp_path / "out.jsonl"
    backend = FailingReplay()
    config = replay_config(tmp_path, "detect", StrategyKind.RANDOM, out=out, k=1,
                           concurrency=concurrency)
    with pytest.raises(TransportError):
        if sweeping:  # one pool for the whole grid: the count holds across cells
            sweep(config, [StrategyKind.RANDOM, StrategyKind.ZEROSHOT], [1, 5],
                  str(tmp_path / "grid.csv"), backend=backend)
        else:
            run_experiment(config, backend=backend)
    # no instance starts after the first failure: only those already running ask
    assert 1 <= backend.asks <= concurrency
    assert all(path.read_bytes() == b"" for path in tmp_path.iterdir())


@pytest.mark.parametrize("concurrency", [1, 3, 8])
def test_provider_failure_keeps_completed_records(tmp_path, concurrency):
    full_out = tmp_path / "full.jsonl"
    run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=full_out))
    full_lines = full_out.read_bytes().splitlines(keepends=True)
    # det-013, the middle of the 25 ids; 12 records come before it
    poisoned, before = "The glitch was caused by a software bug.", 12

    out = tmp_path / "out.jsonl"
    config = replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=out,
                           concurrency=concurrency)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers interleave as often as they can
    try:
        with pytest.raises(TransportError):
            run_experiment(config, backend=FailingReplay(poisoned))
    finally:
        sys.setswitchinterval(interval)
    # every record ahead of the failed id completed and is on disk, in id order
    assert out.read_bytes() == b"".join(full_lines[:before])

    resumed = run_experiment(config)
    assert resumed.skipped_existing == before
    assert out.read_bytes() == full_out.read_bytes()
    assert Path(f"{out}.metrics.json").read_bytes() == Path(f"{full_out}.metrics.json").read_bytes()


def sweep_hashes(tmp_path: Path, strategies, k_values) -> dict[str, list[str]]:
    """The prompt hash of each line of each cell of an uninterrupted replay
    sweep, by cell file suffix ("random.k5"); the sweep is left in
    `tmp_path / "full"`."""
    full = tmp_path / "full"
    full.mkdir()
    config = replay_config(full, "detect", StrategyKind.RANDOM, out=full / "unused.jsonl")
    sweep(config, strategies, k_values, str(full / "grid.csv"))
    return {
        f"{strategy.value}.k{k}": [
            json.loads(line)["prompt_hash"]
            for line in (full / f"grid.csv.{strategy.value}.k{k}.jsonl").read_text(
                encoding="utf-8").splitlines()
        ]
        for strategy in strategies
        for k in k_values
    }


def sweep_files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())
            if path.name.startswith("grid.csv")}


class GatedReplay:
    """The fixture replay backend; it holds the request `held` until one of
    `awaited` arrives, or `timeout` seconds pass, and notes which came first."""

    def __init__(self, held: str, awaited: set[str], timeout: float = 5.0):
        self.replay = ReplayBackend(Transcript(FIXTURES / "transcript.jsonl"))
        self.held, self.awaited, self.timeout = held, awaited, timeout
        self.arrived = threading.Event()
        self.overlapped: bool | None = None

    def complete(self, request):
        if request.digest in self.awaited:
            self.arrived.set()
        if request.digest == self.held:
            self.overlapped = self.arrived.wait(self.timeout)
        return self.replay.complete(request)


def test_a_sweep_sends_the_next_cell_while_a_cell_finishes(tmp_path):
    hashes = sweep_hashes(tmp_path, [StrategyKind.RANDOM], [1, 5])
    backend = GatedReplay(held=hashes["random.k1"][-1], awaited=set(hashes["random.k5"]))
    config = replay_config(tmp_path, "detect", StrategyKind.RANDOM, concurrency=2)
    sweep(config, [StrategyKind.RANDOM], [1, 5], str(tmp_path / "grid.csv"), backend=backend)
    # cell 2's first request went out while cell 1's last was unanswered
    assert backend.overlapped is True
    assert sweep_files(tmp_path) == sweep_files(tmp_path / "full")


class PoisonedReplay:
    """The fixture replay backend, failing each request whose hash is in
    `poisoned`."""

    def __init__(self, poisoned: set[str]):
        self.replay = ReplayBackend(Transcript(FIXTURES / "transcript.jsonl"))
        self.poisoned = poisoned

    def complete(self, request):
        if request.digest in self.poisoned:
            raise TransportError("connection reset")
        return self.replay.complete(request)


@pytest.mark.parametrize("concurrency", [1, 3, 8])
def test_a_sweep_stopped_in_its_middle_cell_keeps_what_is_ahead_and_resumes(
        tmp_path, concurrency, caplog):
    k_values = [1, 5, 10]
    hashes = sweep_hashes(tmp_path, [StrategyKind.RANDOM], k_values)
    full = sweep_files(tmp_path / "full")
    before = 12  # det-013 is the middle of the 25 ids
    config = replay_config(tmp_path, "detect", StrategyKind.RANDOM, concurrency=concurrency)
    csv_path = tmp_path / "grid.csv"
    with pytest.raises(TransportError):
        sweep(config, [StrategyKind.RANDOM], k_values, str(csv_path),
              backend=PoisonedReplay({hashes["random.k5"][before]}))
    kept = sweep_files(tmp_path)
    for name in ("grid.csv.random.k1.jsonl", "grid.csv.random.k1.jsonl.metrics.json"):
        assert kept[name] == full[name]
    middle = "grid.csv.random.k5.jsonl"
    assert kept[middle] == b"".join(full[middle].splitlines(keepends=True)[:before])
    assert set(kept) == {"grid.csv.random.k1.jsonl", "grid.csv.random.k1.jsonl.metrics.json",
                         middle}  # no report for it, nothing of the last cell, no CSV
    assert f"provider error in {tmp_path / middle}: stopped after {before} of 25" in caplog.text

    sweep(config, [StrategyKind.RANDOM], k_values, str(csv_path))
    assert sweep_files(tmp_path) == full


@pytest.mark.parametrize("concurrency", [1, 3])
def test_a_dead_embedder_stops_a_sweep_at_its_first_knn_cell(tmp_path, concurrency):
    class DeadEmbedder(LocalHashEmbedder):
        def embed_text(self, text):
            raise TransportError("connection reset")

    strategies = [StrategyKind.RANDOM, StrategyKind.KNN]
    sweep_hashes(tmp_path, strategies, [10])
    full = sweep_files(tmp_path / "full")
    config = replay_config(tmp_path, "detect", StrategyKind.RANDOM, concurrency=concurrency)
    with pytest.raises(TransportError):
        sweep(config, strategies, [10], str(tmp_path / "grid.csv"), embedder=DeadEmbedder())
    # the index is built while the cell ahead runs; that cell is complete
    kept = {"grid.csv.random.k10.jsonl", "grid.csv.random.k10.jsonl.metrics.json"}
    assert sweep_files(tmp_path) == {name: full[name] for name in kept}


def test_a_forced_sweep_clears_every_cell_before_its_first_call(tmp_path):
    strategies, k_values = [StrategyKind.RANDOM, StrategyKind.PATTERN], [1, 5]
    sweep_hashes(tmp_path, strategies, k_values)
    full = sweep_files(tmp_path / "full")
    csv_path = tmp_path / "grid.csv"
    config = replay_config(tmp_path, "detect", StrategyKind.RANDOM, concurrency=1)
    sweep(config, strategies, k_values, str(csv_path))

    class DyingReplay(FailingReplay):
        def complete(self, request):
            if self.asks == 30:
                raise TransportError("connection reset")
            self.asks += 1
            return self.replay.complete(request)

    with pytest.raises(TransportError):
        sweep(replace(config, force=True), strategies, k_values, str(csv_path),
              backend=DyingReplay())
    # random.k1 paid 25 asks and random.k5 five; nothing is left of the rest
    kept = sweep_files(tmp_path)
    assert set(kept) == {"grid.csv.random.k1.jsonl", "grid.csv.random.k1.jsonl.metrics.json",
                         "grid.csv.random.k5.jsonl"}
    assert kept["grid.csv.random.k5.jsonl"].count(b"\n") == 5

    sweep(config, strategies, k_values, str(csv_path))
    assert sweep_files(tmp_path) == full


def test_a_damaged_line_in_any_cell_is_refused_before_any_call(tmp_path):
    csv_path = tmp_path / "grid.csv"
    config = replay_config(tmp_path, "detect", StrategyKind.RANDOM)
    sweep(config, [StrategyKind.RANDOM], [1, 5], str(csv_path))
    Path(f"{csv_path}.random.k1.jsonl").unlink()  # the first cell has everything to do
    last = Path(f"{csv_path}.random.k5.jsonl")
    last.write_text("not json\n" + last.read_text(encoding="utf-8"), encoding="utf-8")
    backend = FailingReplay(poisoned="no sentence says this")
    with pytest.raises(MalformedRecordError, match=f"{last}: line 1: invalid JSON"):
        sweep(config, [StrategyKind.RANDOM], [1, 5], str(csv_path), backend=backend)
    assert backend.asks == 0


class WatchingReplay:
    """The fixture replay backend; before serving a request it keeps a
    snapshot of `out` as it then stands."""

    def __init__(self, out: Path):
        self.out = out
        self.replay = ReplayBackend(Transcript(FIXTURES / "transcript.jsonl"))
        self.snapshots: list[bytes] = []
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.snapshots.append(self.out.read_bytes() if self.out.exists() else b"")
        return self.replay.complete(request)


def test_records_stream_to_the_file_in_id_order(tmp_path):
    finals = []
    for concurrency in (1, 4):
        out = tmp_path / f"c{concurrency}.jsonl"
        backend = WatchingReplay(out)
        config = replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=out,
                               concurrency=concurrency)
        run_experiment(config, backend=backend)
        final = out.read_bytes()
        finals.append(final)
        # the file is only ever a prefix, in id order, of the finished file
        assert all(final.startswith(snapshot) for snapshot in backend.snapshots)
        if concurrency == 1:
            # one request per instance: serving instance i, i - 1 lines are in
            assert [s.count(b"\n") for s in backend.snapshots] == list(range(25))
            assert all(s == b"" or s.endswith(b"\n") for s in backend.snapshots)
    assert finals[0] == finals[1]


KILLED_RUN = """
import sys, time
from pathlib import Path

from causal_rag.gateway import ReplayBackend, Transcript
from causal_rag.retrieval import StrategyKind
from causal_rag.runner import ExperimentConfig, run_experiment

dataset, db, transcript, out, marker, served = sys.argv[1:]


class BlockingReplay:
    # serves `served` requests from the transcript, then blocks for good
    def __init__(self):
        self.replay = ReplayBackend(Transcript(transcript))
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls > int(served):
            Path(marker).write_text("blocked")
            while True:
                time.sleep(60)
        return self.replay.complete(request)


config = ExperimentConfig(
    task="detect", strategy=StrategyKind.ZEROSHOT, dataset_path=dataset, output_path=out,
    db_path=db, model_id="fixture-model", backend="replay", transcript_path=transcript,
    concurrency=1,
)
run_experiment(config, backend=BlockingReplay())
"""


def test_killed_run_keeps_its_records_and_resumes_to_the_same_bytes(tmp_path):
    full_out = tmp_path / "full.jsonl"
    run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=full_out))
    full_lines = full_out.read_bytes().splitlines(keepends=True)

    out, marker, served = tmp_path / "out.jsonl", tmp_path / "blocked", 10
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", KILLED_RUN, str(FIXTURES / "detect.jsonl"),
            str(FIXTURES / "examples.db"), str(FIXTURES / "transcript.jsonl"),
            str(out), str(marker), str(served)]
    proc = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "the run never blocked"
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stderr.close()
    assert out.read_bytes() == b"".join(full_lines[:served])

    resumed = run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=out))
    assert resumed.skipped_existing == served
    assert out.read_bytes() == full_out.read_bytes()
    assert Path(f"{out}.metrics.json").read_bytes() == Path(f"{full_out}.metrics.json").read_bytes()


def test_unparseable_detection_scored_as_wrong(tmp_path):
    dataset = tmp_path / "tiny.jsonl"
    rows = [
        {"id": "t-1", "text": "The fuse blew because of a surge.", "label": 1,
         "pairs": [{"cause": "a surge", "effect": "The fuse"}], "source": "tiny"},
        {"id": "t-2", "text": "The shop closes on Sundays.", "label": 0, "pairs": [],
         "source": "tiny"},
    ]
    dataset.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8"
    )
    config = scripted_config(
        tmp_path, "detect", StrategyKind.ZEROSHOT, dataset=dataset
    )
    result = run_experiment(config, backend=ScriptedBackend(lambda req: "no comment"))
    metrics = result.report["metrics"]
    assert metrics["parse_failures"] == 2
    assert metrics["accuracy"] == 0.0
    assert all(record.parsed is None for record in result.records)


def test_extract_task_runs_only_causal_sentences(tmp_path):
    config = scripted_config(
        tmp_path, "extract", StrategyKind.ZEROSHOT, dataset=FIXTURES / "detect.jsonl"
    )
    causal_ids = {s.id for s in DETECTION_SENTENCES if s.label == 1}
    result = run_experiment(config, backend=ScriptedBackend(FixtureResponder()))
    assert {record.sentence_id for record in result.records} == causal_ids


def test_single_pair_rejects_multi_pair_dataset(tmp_path):
    config = replay_config(tmp_path, "extract", StrategyKind.ZEROSHOT, single_pair=True)
    with pytest.raises(ValueError, match="single_pair"):
        run_experiment(config)


def test_single_pair_replay_accuracy(tmp_path):
    config = replay_config(
        tmp_path, "extract", StrategyKind.RANDOM,
        dataset=FIXTURES / "extract_single.jsonl", single_pair=True,
    )
    result = run_experiment(config)
    assert result.report["metrics"]["accuracy"] == 0.875
    assert result.report["metrics"]["successes"] == 7


def test_report_echoes_config(tmp_path):
    config = scripted_config(tmp_path, "detect", StrategyKind.PATTERN, k=5, seed=3)
    result = run_experiment(config, backend=ScriptedBackend(FixtureResponder()))
    config_echo = result.report["config"]
    assert config_echo["strategy"] == "pattern"
    assert config_echo["k"] == 5
    assert config_echo["seed"] == 3
    assert config_echo["catalog_version"] == 1
    assert config_echo["matcher"] == "edit_ratio"
    assert config_echo["threshold"] == 0.90


def test_metrics_file_written_next_to_predictions(tmp_path):
    out = tmp_path / "preds.jsonl"
    result = run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=out))
    sidecar = json.loads((tmp_path / "preds.jsonl.metrics.json").read_text(encoding="utf-8"))
    assert sidecar == result.report


@pytest.mark.parametrize("task, dataset, strategy, options", [
    ("detect", "detect.jsonl", StrategyKind.PATTERN, {}),
    ("extract", "extract.jsonl", StrategyKind.KNN, {"matching": "greedy"}),
    ("extract", "extract.jsonl", StrategyKind.KNN, {"matching": "optimal"}),
    ("extract", "extract_single.jsonl", StrategyKind.RANDOM, {"single_pair": True}),
])
def test_eval_predictions_matches_run_report(tmp_path, task, dataset, strategy, options):
    out = tmp_path / "preds.jsonl"
    result = run_experiment(replay_config(tmp_path, task, strategy, out=out,
                                          dataset=FIXTURES / dataset, **options))
    rescored = eval_predictions(str(out), str(FIXTURES / dataset), task, **options)
    assert rescored["task"] == result.report["task"]
    assert rescored["metrics"] == result.report["metrics"]


@pytest.mark.parametrize("task, change", [
    ("detect", lambda record: {"parsed": {"label": 1 - record["parsed"]["label"]}}),
    ("extract", lambda record: {"parse_error": True, "parsed": None}),
])
def test_a_later_line_wins_for_a_resumed_run_and_for_eval(tmp_path, task, change):
    out = tmp_path / "preds.jsonl"
    config = replay_config(tmp_path, task, StrategyKind.RANDOM, out=out)
    first = run_experiment(config)
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    later = json.dumps({**record, **change(record)}) + "\n"
    replaced = tmp_path / "replaced.jsonl"
    replaced.write_text("".join(lines[:2] + [later] + lines[3:]), encoding="utf-8")
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(later)
    dataset = config.dataset_path
    expected = eval_predictions(str(replaced), dataset, task)["metrics"]
    assert expected != first.report["metrics"]
    resumed = run_experiment(config)
    assert resumed.skipped_existing == len(lines)
    assert resumed.report["metrics"] == expected
    assert eval_predictions(str(out), dataset, task)["metrics"] == expected


def test_eval_refuses_single_pair_where_run_does(tmp_path, capsys):
    # ext-009 and ext-010 have two gold pairs each, so `run` refuses single_pair here
    out = tmp_path / "preds.jsonl"
    run_experiment(replay_config(tmp_path, "extract", StrategyKind.KNN, out=out))
    dataset = str(FIXTURES / "extract.jsonl")
    with pytest.raises(ValueError, match=r"offending: \['ext-009', 'ext-010'\]"):
        eval_predictions(str(out), dataset, "extract", single_pair=True)
    argv = ["eval", "--predictions", str(out), "--dataset", dataset, "--task", "extract",
            "--single-pair"]
    assert main(argv) == 2
    assert "single_pair needs exactly one gold pair" in capsys.readouterr().err


def test_eval_refuses_an_unknown_matching_mode(tmp_path):
    out = predictions_of(tmp_path, "detect")
    with pytest.raises(ValueError, match="matching must be one of"):
        eval_predictions(str(out), str(FIXTURES / "detect.jsonl"), "detect", matching="bogus")


def test_eval_reads_the_prediction_file_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report echoes the predictions path
    dataset = str(FIXTURES / "extract.jsonl")
    run_experiment(replay_config(tmp_path, "extract", StrategyKind.PATTERN, out="preds.jsonl"))
    reads = []

    def counted(*args, **kw):
        reads.append(args[0])
        return read_jsonl(*args, **kw)

    monkeypatch.setattr(runner, "read_jsonl", counted)

    def report_sha(report: dict) -> str:
        text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # the report bytes are pinned: reading the file once must not change them
    report = eval_predictions("preds.jsonl", dataset, "extract")
    assert reads == ["preds.jsonl"]
    assert report["config"]["strategy"] == "pattern"
    assert report_sha(report) == "b6a43e979c0ae65511830f73d0ce9732e23077f1fb976d1a6d3adeac8dfd9d32"
    # a repeated line changes nothing; a line of another strategy is refused
    first = json.loads((tmp_path / "preds.jsonl").read_text(encoding="utf-8").splitlines()[0])
    with open(tmp_path / "preds.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(first) + "\n")
    reads.clear()
    report = eval_predictions("preds.jsonl", dataset, "extract")
    assert len(reads) == 1
    assert report_sha(report) == "b6a43e979c0ae65511830f73d0ce9732e23077f1fb976d1a6d3adeac8dfd9d32"
    with open(tmp_path / "preds.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**first, "strategy": "random"}) + "\n")
    reads.clear()
    with pytest.raises(ValueError, match=r"more than one strategy \(pattern, random\)"):
        eval_predictions("preds.jsonl", dataset, "extract")
    assert len(reads) == 1


def test_config_validation_errors():
    with pytest.raises(ValueError, match="transcript"):
        ExperimentConfig(task="detect", strategy=StrategyKind.ZEROSHOT,
                         dataset_path="d", output_path="o", backend="replay")
    with pytest.raises(ValueError, match="repository db"):
        ExperimentConfig(task="detect", strategy=StrategyKind.KNN,
                         dataset_path="d", output_path="o", backend="live")
    with pytest.raises(ValueError, match="task"):
        ExperimentConfig(task="classify", strategy=StrategyKind.ZEROSHOT,
                         dataset_path="d", output_path="o", backend="live")


@pytest.mark.parametrize("bad", [
    {"matching": "bogus"}, {"k": 0}, {"similarity_threshold": 0.0}, {"matcher": "bogus"},
])
def test_a_bad_config_fails_at_construction_before_any_provider_call(tmp_path, bad):
    # zeroshot retrieves nothing, yet its k, threshold and matcher are checked too
    backend = ScriptedBackend(FixtureResponder())
    with pytest.raises(ValueError, match=next(iter(bad))):
        run_experiment(replay_config(tmp_path, "extract", StrategyKind.ZEROSHOT, **bad),
                       backend=backend)
    assert backend.calls == 0
    assert not (tmp_path / "predictions.jsonl").exists()


@pytest.mark.parametrize("name", ["local-hash-x", "local-hash-", "local-hash-0", "local-hash--5"])
def test_config_rejects_a_malformed_local_embedder(name):
    with pytest.raises(ValueError, match="local-hash-<dim>"):
        ExperimentConfig(task="detect", strategy=StrategyKind.ZEROSHOT, dataset_path="d",
                         output_path="o", backend="live", embedding_model=name)
    for valid in ("local-hash-64", "text-embedding-3-small"):
        ExperimentConfig(task="detect", strategy=StrategyKind.ZEROSHOT, dataset_path="d",
                         output_path="o", backend="live", embedding_model=valid)


# --- build_db / sweep --------------------------------------------------------


def test_build_db_merges_inputs_and_matches_committed_db(tmp_path):
    corpus_lines = (FIXTURES / "repo_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    part_a = tmp_path / "a.jsonl"
    part_b = tmp_path / "b.jsonl"
    part_a.write_text("\n".join(corpus_lines[:20]) + "\n", encoding="utf-8")
    part_b.write_text("\n".join(corpus_lines[20:]) + "\n", encoding="utf-8")
    db_path = tmp_path / "merged.db"
    build_db(
        input_paths=[str(part_a), str(part_b)],
        db_path=str(db_path),
        model_id=FIXTURE_MODEL_ID,
        backend=ScriptedBackend(FixtureResponder()),
        cap=10,
        seed=0,
    )
    assert db_path.read_bytes() == (FIXTURES / "examples.db").read_bytes()


def test_no_store_descriptor_outlives_a_build_a_run_or_a_sweep(tmp_path, monkeypatch):
    """Each store holds its file open from its first line until it is
    released; the stores a call makes are released by its return."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to list open descriptors")

    def open_here():
        found = set()
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:  # the descriptor that listed the directory
                continue
            if target.startswith(str(tmp_path)):
                found.add(target)
        return found

    monkeypatch.setattr(runner, "LiveBackend", lambda base_url: ScriptedBackend(FixtureResponder()))
    transcript = tmp_path / "transcript.jsonl"
    build_db([str(FIXTURES / "repo_corpus.jsonl")], str(tmp_path / "examples.db"),
             FIXTURE_MODEL_ID, runner.make_backend("record", str(transcript), ""))
    assert transcript.stat().st_size > 0 and open_here() == set()
    config = replace(scripted_config(tmp_path, "detect", StrategyKind.KNN), backend="record",
                     transcript_path=str(transcript), cache_path=str(tmp_path / "cache.jsonl"),
                     db_path=str(tmp_path / "examples.db"))
    run_experiment(config)
    assert (tmp_path / "cache.jsonl").stat().st_size > 0
    assert (tmp_path / "predictions.jsonl").stat().st_size > 0 and open_here() == set()
    sweep(replace(config, strategy=StrategyKind.RANDOM), [StrategyKind.RANDOM, StrategyKind.KNN],
          [1, 5], str(tmp_path / "grid.csv"))
    assert (tmp_path / "grid.csv.knn.k5.jsonl").stat().st_size > 0 and open_here() == set()


@pytest.mark.parametrize(
    "task, strategies, k_values",
    [
        ("extract", list(StrategyKind), [10]),
        ("detect", list(StrategyKind), [10]),
        ("detect", [StrategyKind.RANDOM, StrategyKind.PATTERN], [1, 5, 10]),
    ],
)
def test_sweep_cells_equal_single_runs(tmp_path, task, strategies, k_values):
    """Each sweep cell has the bytes of its own run, and each of its lines
    is what reading it back as a `PredictionRecord` and encoding gives."""
    csv_path = tmp_path / "grid.csv"
    base = replay_config(tmp_path, task, StrategyKind.RANDOM, out=tmp_path / "unused.jsonl")
    sweep(base, strategies, k_values, str(csv_path))
    for strategy in strategies:
        for k in k_values:
            cell = Path(f"{csv_path}.{strategy.value}.k{k}.jsonl")
            alone = tmp_path / f"alone.{strategy.value}.k{k}.jsonl"
            run_experiment(replay_config(tmp_path, task, strategy, k=k, out=alone))
            assert cell.read_bytes() == alone.read_bytes(), cell.name
            assert (Path(f"{cell}.metrics.json").read_bytes()
                    == Path(f"{alone}.metrics.json").read_bytes()), cell.name
            for line in cell.read_text(encoding="utf-8").splitlines(keepends=True):
                assert PredictionRecord.of(json.loads(line), task).line() + "\n" == line


def test_sweep_asks_each_sentence_for_its_connectives_once(tmp_path, monkeypatch):
    responder = FixtureResponder()
    monkeypatch.setattr(runner, "LiveBackend", lambda base_url: ScriptedBackend(responder))
    base = scripted_config(tmp_path, "detect", StrategyKind.PATTERN, out=tmp_path / "unused.jsonl")
    sweep(base, [StrategyKind.PATTERN, StrategyKind.KNN_PATTERN], [1, 5],
          str(tmp_path / "grid.csv"))
    asked = Counter(
        request.user_text.rsplit("Sentence: ", 1)[1].split("\n", 1)[0]
        for request in responder.calls
        if "Output only the connectives" in request.system_text
    )
    texts = {s.text for s in DETECTION_SENTENCES}
    assert set(asked) == texts
    assert set(asked.values()) == {1}
    # sentences without a connective ("none") are asked once too
    assert any(s.connective is None for s in DETECTION_SENTENCES)


def test_a_sweep_does_each_sentences_retrieval_work_once(tmp_path, monkeypatch):
    """Each sentence's pattern candidates and kNN hits are worked out once a
    sweep, not once a cell, and every cell keeps the bytes of its own run."""
    calls: Counter[str] = Counter()
    lock = threading.Lock()

    def counted(name):
        work = getattr(retrieval, name)

        def counting(*args):
            with lock:
                calls[name] += 1
            return work(*args)

        return counting

    strategies = [StrategyKind.RANDOM, StrategyKind.PATTERN, StrategyKind.KNN,
                  StrategyKind.KNN_PATTERN]
    k_values = [1, 5, 10]
    # a replay config, so records carry no timing; the scripted backend answers
    base = replay_config(tmp_path, "detect", StrategyKind.RANDOM, out=tmp_path / "unused.jsonl")
    alone = {}
    for strategy in strategies:
        for k in k_values:
            out = tmp_path / f"alone.{strategy.value}.k{k}.jsonl"
            run_experiment(replace(base, strategy=strategy, k=k, output_path=str(out)),
                           backend=ScriptedBackend(FixtureResponder()))
            alone[f"{strategy.value}.k{k}"] = out.read_bytes()
    monkeypatch.setattr(retrieval, "_pattern_candidates", counted("_pattern_candidates"))
    monkeypatch.setattr(retrieval, "knn_search", counted("knn_search"))
    interval = sys.getswitchinterval()
    for concurrency in (1, 3, 8):
        calls.clear()
        csv_path = tmp_path / f"c{concurrency}.csv"
        sys.setswitchinterval(1e-6)  # cells overlap, and workers interleave often
        try:
            sweep(replace(base, concurrency=concurrency), strategies, k_values, str(csv_path),
                  backend=ScriptedBackend(FixtureResponder()))
        finally:
            sys.setswitchinterval(interval)
        # 6 cells use each, so 150 calls without the memo
        assert calls == {"_pattern_candidates": 25, "knn_search": 25}
        for cell, data in alone.items():
            assert Path(f"{csv_path}.{cell}.jsonl").read_bytes() == data, cell


# distinct request digests of a sweep over every strategy at k 1, 5 and 10
LIVE_SWEEP_DIGESTS = {"detect": 285, "extract": 116}


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("task", ["detect", "extract"])
def test_live_sweep_pays_once_per_distinct_request(tmp_path, monkeypatch, task, concurrency):
    responder = FixtureResponder()
    backend = ScriptedBackend(responder)
    monkeypatch.setattr(runner, "LiveBackend", lambda base_url: backend)
    base = scripted_config(tmp_path, task, StrategyKind.RANDOM, out=tmp_path / "unused.jsonl",
                           concurrency=concurrency)
    sweep(base, list(StrategyKind), [1, 5, 10], str(tmp_path / "grid.csv"))
    distinct = {request.digest for request in responder.calls}
    assert len(distinct) == LIVE_SWEEP_DIGESTS[task]
    assert backend.calls == len(distinct)


class CountingEmbedder(LocalHashEmbedder):
    def __init__(self) -> None:
        super().__init__(dim=256)
        self.texts: list[str] = []

    def embed_text(self, text):
        self.texts.append(text)
        return super().embed_text(text)


@pytest.mark.parametrize("cached", [False, True], ids=["memo", "cache"])
@pytest.mark.parametrize("concurrency", [1, 3])
@pytest.mark.parametrize("strategy", [StrategyKind.KNN, StrategyKind.KNN_PATTERN],
                         ids=lambda strategy: strategy.value)
def test_knn_embeds_the_repository_once_per_run(tmp_path, strategy, concurrency, cached):
    # one input repeats a repository sentence: it is embedded once, for both
    repeated = replace(DB_SENTENCES[0], id="det-999")
    dataset = tmp_path / "detect.jsonl"
    dataset.write_text(
        (FIXTURES / "detect.jsonl").read_text(encoding="utf-8")
        + json.dumps(canonical_record(repeated, "fixture-detect")) + "\n",
        encoding="utf-8",
    )
    records = load_repository(FIXTURES / "examples.db").records.values()
    repository_texts = {normalize_for_key(r.raw_text) for r in records}
    assert normalize_for_key(repeated.text) in repository_texts
    texts = sorted(repository_texts | {normalize_for_key(s.text) for s in DETECTION_SENTENCES})

    def embedded(embedder: CountingEmbedder) -> list[str]:
        return sorted(map(normalize_for_key, embedder.texts))

    backend = ScriptedBackend(FixtureResponder())
    config = scripted_config(
        tmp_path, "detect", strategy, dataset=dataset, out=tmp_path / "out.jsonl",
        concurrency=concurrency, cache_path=str(tmp_path / "run.emb") if cached else None,
    )
    embedder = CountingEmbedder()
    run_experiment(config, backend=backend, embedder=embedder)
    assert embedded(embedder) == texts

    resumed = CountingEmbedder()
    result = run_experiment(config, backend=backend, embedder=resumed)
    assert result.skipped_existing == len(DETECTION_SENTENCES) + 1
    assert resumed.calls == 0

    # a sweep embeds each text once, however many kNN cells use it
    if cached:
        config = replace(config, cache_path=str(tmp_path / "sweep.emb"))
    sweeping = CountingEmbedder()
    sweep(config, [StrategyKind.KNN, StrategyKind.KNN_PATTERN], [10],
          str(tmp_path / "grid.csv"), backend=backend, embedder=sweeping)
    assert embedded(sweeping) == texts


def test_sweep_csv_shape_and_example_counts(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    base = replay_config(tmp_path, "detect", StrategyKind.RANDOM, out=tmp_path / "unused.jsonl")
    sweep(base, [StrategyKind.RANDOM, StrategyKind.PATTERN], [1, 5], str(csv_path))
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "strategy,k,metric,value"
    cells = [line.split(",") for line in lines[1:]]
    assert {row[0] for row in cells} == {"random", "pattern"}
    assert {row[1] for row in cells} == {"1", "5"}
    by_key = {(row[0], row[1], row[2]): row[3] for row in cells}
    assert by_key[("random", "1", "examples_max")] == "1"
    assert by_key[("random", "5", "examples_mean")] == "5.0"
    assert float(by_key[("pattern", "5", "examples_mean")]) <= 5.0
    assert by_key[("random", "5", "counts.tp")] == "12"


# --- command-line interface --------------------------------------------------


def run_flags(tmp_path: Path, **overrides) -> list[str]:
    options = {
        "dataset": str(FIXTURES / "detect.jsonl"),
        "db": str(FIXTURES / "examples.db"),
        "task": "detect",
        "strategy": "zeroshot",
        "model": FIXTURE_MODEL_ID,
        "backend": "replay",
        "transcript": str(FIXTURES / "transcript.jsonl"),
        "out": str(tmp_path / "cli.jsonl"),
    }
    options.update(overrides)
    flags = ["run"]
    for key, value in options.items():
        flags += [f"--{key.replace('_', '-')}", value]
    return flags


def test_cli_requires_a_command(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_cli_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_required_flags(capsys):
    assert main(["run"]) == 1
    err = capsys.readouterr().err
    assert "--dataset" in err and "--out" in err


def test_cli_run_prints_table_and_paths(tmp_path, capsys):
    assert main(run_flags(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "0.8400" in out
    assert "predictions:" in out
    assert (tmp_path / "cli.jsonl").exists()


def test_cli_run_missing_dataset_is_data_error(tmp_path, capsys):
    assert main(run_flags(tmp_path, dataset=str(tmp_path / "absent.jsonl"))) == 2
    assert "data error" in capsys.readouterr().err


def test_cli_replay_miss_is_provider_error_with_resume_hint(tmp_path, capsys):
    empty = tmp_path / "empty-transcript.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(run_flags(tmp_path, transcript=str(empty))) == 3
    err = capsys.readouterr().err
    assert "provider error" in err
    assert "re-run the same command" in err


def test_cli_invalid_choice_is_usage_error(tmp_path, capsys):
    assert main(run_flags(tmp_path, strategy="telepathy")) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_torn_prediction_file_resumes_to_the_uninterrupted_bytes(tmp_path, capsys, caplog):
    full = tmp_path / "full.jsonl"
    assert main(run_flags(tmp_path, strategy="pattern", out=str(full))) == 0
    out = tmp_path / "cli.jsonl"
    out.write_bytes(full.read_bytes()[:-20])  # a write cut short
    capsys.readouterr()
    assert main(run_flags(tmp_path, strategy="pattern")) == 0
    assert "resumed: 24 ids already present" in capsys.readouterr().out
    assert "torn final line 25" in caplog.text
    assert out.read_bytes() == full.read_bytes()
    assert Path(f"{out}.metrics.json").read_bytes() == Path(f"{full}.metrics.json").read_bytes()


def test_cli_damaged_prediction_line_is_a_data_error_naming_it(tmp_path, capsys):
    out = tmp_path / "cli.jsonl"
    assert main(run_flags(tmp_path)) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][:-21] + "\n"
    out.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(run_flags(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"{out}: line 3: invalid JSON" in err


@pytest.mark.parametrize("command", ["run", "sweep", "eval"])
def test_cli_unknown_dataset_format_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "cli.jsonl"
    if command == "eval":
        argv = ["eval", "--predictions", str(out), "--dataset", str(FIXTURES / "detect.jsonl")]
    else:
        argv = run_flags(tmp_path)
        if command == "sweep":
            at = argv.index("--strategy")
            argv = ["sweep", *argv[1:at], *argv[at + 2:], "--strategies", "random",
                    "--k-values", "1"]
    assert main([*argv, "--dataset-format", "csv"]) == 1
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text(
        "\n".join(
            [
                "# fixture replay run",
                f"dataset = {FIXTURES / 'detect.jsonl'}",
                f"db = {FIXTURES / 'examples.db'}",
                "task = detect",
                "strategy = pattern",
                f"model = {FIXTURE_MODEL_ID}",
                "backend = replay",
                f"transcript = {FIXTURES / 'transcript.jsonl'}",
                f"out = {tmp_path / 'conf.jsonl'}",
                "k = 10",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_file), "--strategy", "zeroshot"]) == 0
    out = capsys.readouterr().out
    assert "0.8400" in out  # zeroshot accuracy: the flag overrode the file


def test_cli_config_file_typed_values(tmp_path, capsys):
    run_conf = tmp_path / "run.conf"
    run_conf.write_text(
        "\n".join(
            [
                f"dataset = {FIXTURES / 'detect.jsonl'}",
                f"db = {FIXTURES / 'examples.db'}",
                "strategy = pattern",
                f"model = {FIXTURE_MODEL_ID}",
                f"transcript = {FIXTURES / 'transcript.jsonl'}",
                f"out = {tmp_path / 'conf.jsonl'}",
                "threshold = 0.8",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    # a failed replay lookup would exit 3: at 0.8 the prompts match the
    # transcript, recorded at the default threshold, since every fixture
    # connective matches a key exactly
    assert main(["run", "--config", str(run_conf)]) == 0
    report = json.loads(Path(f"{tmp_path / 'conf.jsonl'}.metrics.json").read_text())
    assert report["config"]["threshold"] == 0.8

    build_conf = tmp_path / "build.conf"
    build_conf.write_text(
        f"inputs = {FIXTURES / 'repo_corpus.jsonl'}\n"
        f"db = {tmp_path / 'capped.db'}\n"
        f"model = {FIXTURE_MODEL_ID}\n"
        f"transcript = {FIXTURES / 'transcript.jsonl'}\n"
        "cap = 3\n",
        encoding="utf-8",
    )
    assert main(["build-db", "--config", str(build_conf)]) == 0
    repo = load_repository(tmp_path / "capped.db")
    assert max(len(ids) for ids in repo.index.values()) == 3

    bad_conf = tmp_path / "bad.conf"
    bad_conf.write_text("k = ten\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(bad_conf)]) == 1
    assert "config key k" in capsys.readouterr().err


def test_cli_config_file_unknown_key(tmp_path, capsys):
    config_file = tmp_path / "bad.conf"
    config_file.write_text("fizziness = 11\n", encoding="utf-8")
    assert main(["run", "--config", str(config_file)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_cli_stats(capsys):
    assert main(["stats", "--db", str(FIXTURES / "examples.db")]) == 0
    out = capsys.readouterr().out
    assert "records              38" in out
    assert "unique connectives   9" in out
    assert "connectives with >=5 4" in out


def test_cli_stats_sampling_is_deterministic(capsys):
    argv = ["stats", "--db", str(FIXTURES / "examples.db"), "--sample", "2", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "sampled connectives" in first


def test_cli_stats_negative_sample_is_usage_error(capsys):
    argv = ["stats", "--db", str(FIXTURES / "examples.db"), "--sample", "-2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "--sample: expected an integer >= 0, got -2" in captured.err
    assert captured.out == ""


def test_cli_eval_rescoring(tmp_path, capsys):
    assert main(run_flags(tmp_path)) == 0
    capsys.readouterr()
    argv = [
        "eval",
        "--predictions", str(tmp_path / "cli.jsonl"),
        "--dataset", str(FIXTURES / "detect.jsonl"),
        "--task", "detect",
    ]
    assert main(argv) == 0
    assert "0.8400" in capsys.readouterr().out


def predictions_of(tmp_path: Path, task: str) -> Path:
    """A zeroshot prediction file of `task` over the detection fixture."""
    out = tmp_path / "cli.jsonl"
    config = scripted_config(tmp_path, task, StrategyKind.ZEROSHOT, out=out,
                             dataset=FIXTURES / "detect.jsonl")
    run_experiment(config, backend=ScriptedBackend(FixtureResponder()))
    return out


@pytest.mark.parametrize("made, asked", [("detect", "extract"), ("extract", "detect")])
def test_cli_eval_rejects_a_prediction_file_of_another_task(tmp_path, capsys, made, asked):
    out = predictions_of(tmp_path, made)
    argv = [
        "eval",
        "--predictions", str(out),
        "--dataset", str(FIXTURES / "detect.jsonl"),
        "--task", asked,
    ]
    assert main(argv) == 2
    assert f"{out}: line 1: task is '{made}', expected '{asked}'" in capsys.readouterr().err


def detect_subset(tmp_path: Path, n: int = 10) -> Path:
    """The first `n` sentences of the detection fixture, as a dataset file."""
    rows = (FIXTURES / "detect.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    subset = tmp_path / "subset.jsonl"
    subset.write_text("".join(rows[:n]), encoding="utf-8")
    return subset


def test_cli_resume_counts_only_the_runs_own_ids(tmp_path, capsys):
    out = tmp_path / "a.jsonl"
    assert main(run_flags(tmp_path, strategy="random", k="1", out=str(out))) == 0
    capsys.readouterr()
    subset = detect_subset(tmp_path)
    assert main(run_flags(tmp_path, strategy="random", k="1", out=str(out),
                          dataset=str(subset))) == 0
    assert "resumed: 10 ids already present" in capsys.readouterr().out
    report = json.loads(Path(f"{out}.metrics.json").read_text(encoding="utf-8"))
    assert sum(report["metrics"]["counts"].values()) == 10


def test_cli_eval_refuses_a_file_of_two_strategies(tmp_path, capsys):
    out = tmp_path / "a.jsonl"
    subset = detect_subset(tmp_path)
    assert main(run_flags(tmp_path, strategy="random", k="1", out=str(out),
                          dataset=str(subset))) == 0
    assert main(run_flags(tmp_path, strategy="pattern", k="5", out=str(out))) == 0
    strategies = Counter(record["strategy"] for record in read_jsonl(out))
    assert strategies == {"random": 10, "pattern": 15}
    capsys.readouterr()
    assert main(eval_flags(out, "detect")) == 2
    assert f"data error: {out}: records of more than one strategy (pattern, random)" in (
        capsys.readouterr().err)


def test_run_refuses_to_resume_a_file_of_another_task_before_any_call(tmp_path, capsys):
    out = predictions_of(tmp_path, "extract")
    made = out.read_bytes()
    backend = ScriptedBackend(FixtureResponder())
    with pytest.raises(MalformedRecordError, match="task is 'extract', expected 'detect'"):
        run_experiment(scripted_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=out),
                       backend=backend)
    assert backend.calls == 0
    assert main(run_flags(tmp_path)) == 2
    assert "task is 'extract', expected 'detect'" in capsys.readouterr().err
    assert out.read_bytes() == made


def eval_flags(out: Path, task: str) -> list[str]:
    return ["eval", "--predictions", str(out), "--dataset", str(FIXTURES / "detect.jsonl"),
            "--task", task]


@pytest.mark.parametrize("change, reason", [
    ({"parse_error": False, "parsed": None},
     "parsed must be null exactly when parse_error is true"),
    ({"parse_error": True, "parsed": {"label": 1}},
     "parsed must be null exactly when parse_error is true"),
    ({"example_count": None}, "example_count must be an integer, got None"),
    ({"example_count": 2.0}, "example_count must be an integer, got 2.0"),
    ({"parse_error": "no"}, "parse_error must be true or false, got 'no'"),
    ({"parse_error": False, "parsed": {"label": 7}}, "parsed label must be 0 or 1, got 7"),
    ({"parse_error": False, "parsed": {"label": True}}, "parsed label must be 0 or 1, got True"),
    ({"parse_error": False, "parsed": {}}, "missing field 'label'"),
    ({"parse_error": False, "parsed": {"label": 1, "junk": 2}}, "unknown parsed field 'junk'"),
    ({"parse_error": False, "parsed": [1]}, "parsed must be an object or null, got [1]"),
    ({"sentence_id": 3}, "sentence_id must be a string, got 3"),
    ({"provenance": [{"origin": 7}]}, "missing field 'record_id'"),
    ({"provenance": [{"origin": "oracle", "record_id": "db-001"}]},
     "provenance origin must be one of random, knn, pattern, random-fallback, got 'oracle'"),
    ({"prompt_hash": "g" * 64}, "prompt_hash must be 64 lowercase hex digits, got 'ggg"),
    ({"fallback_used": "yes"}, "fallback_used must be true or false, got 'yes'"),
    ({"response": 42}, "response must be a string, got 42"),
    ({"note": "hand edited"}, "unknown field 'note'"),
    ({"strategy": ...}, "missing field 'strategy'"),
    ({"example_count": 99}, "example_count must be 5, the number of provenance entries, got 99"),
])
@pytest.mark.parametrize("command", ["run", "eval"])
def test_cli_prediction_line_that_does_not_fit_is_a_data_error_naming_it(
        tmp_path, capsys, monkeypatch, command, change, reason):
    """Line 3 of a pattern file of the first 10 sentences, changed (a key
    changed to `...` is dropped): `eval` and a resumed `run` are data errors
    naming the file, the line and the reason, and the run asks nothing."""
    out = tmp_path / "cli.jsonl"
    assert main(run_flags(tmp_path, strategy="pattern", k="5")) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)[:10]
    record = {**json.loads(lines[2]), **change}
    lines[2] = json.dumps({key: value for key, value in record.items() if value is not ...}) + "\n"
    out.write_text("".join(lines), encoding="utf-8")
    made = out.read_bytes()
    capsys.readouterr()
    provider = FailingReplay()  # counts every ask, and fails it
    monkeypatch.setattr(runner, "make_backend", lambda *args: provider)
    run = run_flags(tmp_path, strategy="pattern", k="5")
    assert main(run if command == "run" else eval_flags(out, "detect")) == 2
    assert f"data error: {out}: line 3: {reason}" in capsys.readouterr().err
    assert provider.asks == 0
    assert out.read_bytes() == made


@pytest.mark.parametrize("change, reason", [
    ({"pairs": [{"cause": 1, "effect": "rain"}]},
     "parsed pairs must hold string causes and effects"),
    ({"pairs": [{"cause": "rain"}]}, "missing field 'effect'"),
    ({"pairs": [{"cause": "rain", "effect": "flood", "why": "x"}]}, "unknown pair field 'why'"),
    ({"pairs": None}, "parsed pairs must be a non-empty array, got None"),
    ({"pairs": []}, "parsed pairs must be a non-empty array, got []"),
    ({"pairs": {"cause": "rain", "effect": "flood"}},
     "parsed pairs must be a non-empty array, got {'cause'"),
    ({"pairs": ["ab"]}, "each parsed pair must be an object, got 'ab'"),
    ({"junk": 1}, "unknown parsed field 'junk'"),
])
def test_cli_extract_prediction_line_that_does_not_fit_is_named(tmp_path, capsys, change, reason):
    """Line 1 of an extract file, its `parsed` one pair that fits with
    `change` applied, is a data error naming the file, the line and the
    reason."""
    out = predictions_of(tmp_path, "extract")
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    parsed = {"pairs": [{"cause": "rain", "effect": "flood"}], "overlap_flag": False,
              "dropped_spans": 0, **change}
    lines[0] = json.dumps({**json.loads(lines[0]), "parse_error": False, "parsed": parsed}) + "\n"
    out.write_text("".join(lines), encoding="utf-8")
    assert main(eval_flags(out, "extract")) == 2
    assert f"data error: {out}: line 1: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("change", [{"response_text": None}, {"request_hash": 7}])
def test_cli_transcript_line_that_does_not_fit_is_a_data_error_naming_it(
        tmp_path, capsys, change):
    transcript = tmp_path / "transcript.jsonl"
    lines = (FIXTURES / "transcript.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), **change}) + "\n"
    transcript.write_text("".join(lines), encoding="utf-8")
    assert main(run_flags(tmp_path, transcript=str(transcript))) == 2
    reason = "request_hash and response_text must be strings"
    assert f"data error: {transcript}: line 2: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "cli.jsonl").exists()


def test_cli_cache_line_that_does_not_fit_is_a_data_error_naming_it(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"dim": 2, "key": "k", "model": "local-hash-256", "vector": ["1.5", true]}\n',
                     encoding="utf-8")
    assert main(run_flags(tmp_path, strategy="knn", cache=str(cache))) == 2
    assert (f"data error: {cache}: line 1: embedding must be a JSON array of numbers"
            in capsys.readouterr().err)


def test_replayed_outputs_are_byte_stable_and_stores_hold_the_same_lines_at_any_concurrency(
        tmp_path):
    """Prediction files and reports are byte-identical at any concurrency;
    the embedding cache, and a record-mode transcript, hold the same lines
    in completion order."""
    outputs, caches, transcripts = [], [], []
    for run, concurrency in enumerate((1, 4, 4, 4)):
        base = tmp_path / f"run{run}"
        base.mkdir()
        config = replay_config(base, "detect", StrategyKind.KNN, concurrency=concurrency,
                               cache_path=str(base / "cache.jsonl"))
        sweep(config, [StrategyKind.KNN, StrategyKind.KNN_PATTERN], [10], str(base / "grid.csv"))
        outputs.append({path.name: path.read_bytes() for path in sorted(base.iterdir())
                        if path.name.startswith("grid.csv")})
        caches.append(sorted((base / "cache.jsonl").read_text(encoding="utf-8").splitlines()))
        recorded = Transcript(base / "recorded.jsonl")
        live = ScriptedBackend(FixtureResponder())
        run_experiment(replace(config, strategy=StrategyKind.PATTERN, output_path=str(base / "r")),
                       backend=RecordBackend(recorded, live))
        entries = map(json.loads, recorded.path.read_text(encoding="utf-8").splitlines())
        transcripts.append(sorted((e["request_hash"], e["response_text"]) for e in entries))
    assert len(outputs[0]) == 5  # 2 prediction files, 2 reports, the CSV
    assert all(files == outputs[0] for files in outputs)
    assert all(lines == caches[0] for lines in caches) and caches[0]
    assert all(lines == transcripts[0] for lines in transcripts) and transcripts[0]


def test_cli_sweep(tmp_path, capsys):
    argv = [
        "sweep",
        "--dataset", str(FIXTURES / "detect.jsonl"),
        "--db", str(FIXTURES / "examples.db"),
        "--task", "detect",
        "--model", FIXTURE_MODEL_ID,
        "--backend", "replay",
        "--transcript", str(FIXTURES / "transcript.jsonl"),
        "--out", str(tmp_path / "grid.csv"),
        "--strategies", "random", "pattern",
        "--k-values", "1", "5",
    ]
    assert main(argv) == 0
    assert "swept 4 runs" in capsys.readouterr().out
    header = (tmp_path / "grid.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "strategy,k,metric,value"


@pytest.mark.parametrize("strategies, k_values, repeated", [
    ([StrategyKind.RANDOM, StrategyKind.RANDOM], [1], "strategy random"),
    ([StrategyKind.RANDOM, StrategyKind.PATTERN], [1, 5, 1], "k value 1"),
])
def test_sweep_refuses_a_repeated_cell_before_any_call(tmp_path, strategies, k_values, repeated):
    backend = ScriptedBackend(FixtureResponder())
    # a dataset that is not there: loading anything would fail otherwise
    base = scripted_config(tmp_path, "detect", StrategyKind.RANDOM, out=tmp_path / "unused.jsonl",
                           dataset=tmp_path / "absent.jsonl")
    with pytest.raises(ValueError, match=f"sweep repeats {repeated}$"):
        sweep(base, strategies, k_values, str(tmp_path / "grid.csv"), backend=backend)
    assert backend.calls == 0
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_cell_without_its_db_is_refused_before_anything_is_read(tmp_path):
    backend = ScriptedBackend(FixtureResponder())
    csv_path = tmp_path / "grid.csv"
    csv_path.write_text("kept\n", encoding="utf-8")
    # a dataset that is not there: loading anything would fail otherwise
    base = replace(scripted_config(tmp_path, "detect", StrategyKind.ZEROSHOT,
                                   dataset=tmp_path / "absent.jsonl"), db_path=None, force=True)
    with pytest.raises(ValueError, match="strategy 'pattern' requires a repository db"):
        sweep(base, [StrategyKind.ZEROSHOT, StrategyKind.PATTERN], [1], str(csv_path),
              backend=backend)
    assert backend.calls == 0
    assert list(tmp_path.iterdir()) == [csv_path]
    assert csv_path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("dataset", ["detect.jsonl", "absent.jsonl"])
def test_cli_sweep_cell_without_its_db_is_a_usage_error(tmp_path, capsys, dataset):
    """A forced grid whose second cell needs --db exits 1 before the dataset
    is read (an absent one would be a data error) or the old CSV removed."""
    csv_path = tmp_path / "grid.csv"
    csv_path.write_text("kept\n", encoding="utf-8")
    argv = [
        "sweep",
        "--dataset", str(FIXTURES / dataset),
        "--model", FIXTURE_MODEL_ID,
        "--transcript", str(FIXTURES / "transcript.jsonl"),
        "--out", str(csv_path),
        "--strategies", "zeroshot", "pattern",
        "--k-values", "1",
        "--force",
    ]
    assert main(argv) == 1
    assert "error: strategy 'pattern' requires a repository db" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [csv_path]
    assert csv_path.read_text(encoding="utf-8") == "kept\n"


def test_cli_sweep_refuses_a_repeated_cell(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    argv = [
        "sweep",
        "--dataset", str(FIXTURES / "detect.jsonl"),
        "--db", str(FIXTURES / "examples.db"),
        "--task", "detect",
        "--model", FIXTURE_MODEL_ID,
        "--backend", "replay",
        "--transcript", str(FIXTURES / "transcript.jsonl"),
        "--out", str(csv_path),
        "--strategies", "random", "random",
        "--k-values", "1", "1",
    ]
    assert main(argv) == 1
    assert "sweep repeats strategy random" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_build_db_round_trip(tmp_path, capsys):
    db_path = tmp_path / "rebuilt.db"
    argv = [
        "build-db",
        "--inputs", str(FIXTURES / "repo_corpus.jsonl"),
        "--db", str(db_path),
        "--model", FIXTURE_MODEL_ID,
        "--backend", "replay",
        "--transcript", str(FIXTURES / "transcript.jsonl"),
    ]
    assert main(argv) == 0
    assert db_path.read_bytes() == (FIXTURES / "examples.db").read_bytes()
    repo = load_repository(db_path)
    assert len(repo.records) == 38


def test_cli_build_db_record_needs_a_transcript(tmp_path, capsys):
    db_path = tmp_path / "never.db"
    argv = [
        "build-db",
        "--inputs", str(FIXTURES / "repo_corpus.jsonl"),
        "--db", str(db_path),
        "--backend", "record",
    ]
    assert main(argv) == 1
    assert "requires --transcript" in capsys.readouterr().err
    assert not db_path.exists()


def test_cli_build_db_missing_input_leaves_no_file(tmp_path, capsys):
    db_path = tmp_path / "never.db"
    argv = [
        "build-db",
        "--inputs", str(tmp_path / "ghost.jsonl"),
        "--db", str(db_path),
        "--backend", "replay",
        "--transcript", str(FIXTURES / "transcript.jsonl"),
    ]
    assert main(argv) == 2
    assert not db_path.exists()


# --- one option path: config-file keys are the flags -------------------------

# a value for every option of run, sweep and build-db, each unlike the base
# options below and unlike the library default
RUN_OPTIONS = {
    "dataset": "other.jsonl",
    "dataset_format": "li",
    "db": "other.db",
    "task": "extract",
    "k": "3",
    "seed": "7",
    "single_pair": True,
    "matcher": "token_containment",
    "threshold": "0.5",
    "no_fallback": True,
    "matching": "optimal",
    "model": "other-model",
    "backend": "live",
    "transcript": "other-transcript.jsonl",
    "cache": "cache.jsonl",
    "base_url": "http://localhost:9",
    "embedding_model": "local-hash-64",
    "catalog": "catalog.txt",
    "out": "other.out",
    "concurrency": "2",
    "force": True,
}
OPTION_VALUES = {
    "run": {**RUN_OPTIONS, "strategy": "knn"},
    "sweep": {**RUN_OPTIONS, "strategies": "knn pattern", "k_values": "1 5"},
    "build-db": {
        "inputs": "a.jsonl b.jsonl",
        "db": "other.db",
        "cap": "3",
        "seed": "7",
        "model": "other-model",
        "backend": "live",
        "transcript": "other-transcript.jsonl",
        "base_url": "http://localhost:9",
        "catalog": "catalog.txt",
        "concurrency": "2",
    },
}
BASE_OPTIONS = {
    "run": {"dataset": "d.jsonl", "db": "e.db", "transcript": "t.jsonl", "out": "o.jsonl"},
    "sweep": {"dataset": "d.jsonl", "db": "e.db", "transcript": "t.jsonl", "out": "o.csv",
              "strategies": "random", "k_values": "10"},
    "build-db": {"inputs": "c.jsonl", "db": "e.db", "transcript": "t.jsonl"},
}
LIBRARY_CALL = {"run": "run_experiment", "sweep": "sweep", "build-db": "build_db"}


class Called(Exception):
    """Stops the CLI at the library call it was about to make."""


def library_call(monkeypatch, argv: list[str]):
    """The arguments `main(argv)` hands to run_experiment, sweep or build_db,
    with backends and catalogs stood in for by what they were built from."""

    def stop(*args, **kwargs):
        raise Called(args, kwargs)

    monkeypatch.setattr(cli, LIBRARY_CALL[argv[0]], stop)
    monkeypatch.setattr(cli, "make_backend", lambda *args: ("backend", *args))
    monkeypatch.setattr(cli, "load_catalog", lambda path: ("catalog", path))
    with pytest.raises(Called) as stopped:
        main(argv)
    return stopped.value.args


def as_flags(options: dict) -> list[str]:
    flags = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        else:
            listed = key in ("inputs", "strategies", "k_values")
            flags += [flag, *value.split()] if listed else [flag, value]
    return flags


def as_config(path: Path, options: dict) -> str:
    lines = [f"{key} = {'true' if value is True else value}" for key, value in options.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_option_table_walks_every_flag():
    parser = build_parser()
    for command, options in OPTION_VALUES.items():
        flags = set(parser.commands[command]._option_string_actions) - {"-h", "--help", "--config"}
        assert flags == {"--" + key.replace("_", "-") for key in options}, command


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, options in OPTION_VALUES.items() for key in options],
)
def test_config_file_and_flag_give_the_same_library_call(tmp_path, monkeypatch, command, key):
    options = {**BASE_OPTIONS[command], key: OPTION_VALUES[command][key]}
    from_flags = library_call(monkeypatch, [command, *as_flags(options)])
    conf = as_config(tmp_path / "opts.conf", options)
    assert library_call(monkeypatch, [command, "--config", conf]) == from_flags
    # the option reaches the library: without it the call differs
    base = library_call(monkeypatch, [command, *as_flags(BASE_OPTIONS[command])])
    assert from_flags != base


def test_config_file_booleans_and_precedence(tmp_path, monkeypatch):
    base = BASE_OPTIONS["run"]
    plain = library_call(monkeypatch, ["run", *as_flags(base)])
    flagged = library_call(monkeypatch, ["run", *as_flags(base), "--force", "--no-fallback"])
    # a key may be spelled with hyphens or underscores
    for word in ("true", "Yes", "1"):
        conf = as_config(tmp_path / "t.conf", {**base, "force": word, "no-fallback": word})
        assert library_call(monkeypatch, ["run", "--config", conf]) == flagged
    for word in ("false", "NO", "0"):
        conf = as_config(tmp_path / "f.conf", {**base, "force": word, "no_fallback": word})
        assert library_call(monkeypatch, ["run", "--config", conf]) == plain
    # flags override the file, lists included
    conf = as_config(tmp_path / "s.conf", {**BASE_OPTIONS["sweep"], "k_values": "1 5"})
    args, _ = library_call(monkeypatch, ["sweep", "--config", conf, "--k-values", "7", "--k", "4"])
    assert args[0].k == 4 and args[2] == [7]


def test_sweep_config_accepts_and_ignores_a_run_strategy(tmp_path, monkeypatch):
    options = BASE_OPTIONS["sweep"]
    conf = as_config(tmp_path / "a.conf", options)
    plain = library_call(monkeypatch, ["sweep", "--config", conf])
    conf = as_config(tmp_path / "b.conf", {**options, "strategy": "pattern"})
    assert library_call(monkeypatch, ["sweep", "--config", conf]) == plain


def test_cli_config_matching_checked_before_any_provider_call(tmp_path, capsys):
    out = tmp_path / "best.jsonl"
    conf = as_config(tmp_path / "best.conf", {
        "dataset": str(FIXTURES / "extract.jsonl"),
        "db": str(FIXTURES / "examples.db"),
        "task": "extract",
        "strategy": "pattern",
        "model": FIXTURE_MODEL_ID,
        "transcript": str(FIXTURES / "transcript.jsonl"),
        "out": str(out),
        "matching": "best",
    })
    assert main(["run", "--config", conf]) == 1
    err = capsys.readouterr().err
    assert conf in err and "config key matching" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("strategies", "random telepathy"), ("k_values", "0")])
def test_cli_sweep_config_lists_are_checked(tmp_path, capsys, key, value):
    csv_path = tmp_path / "grid.csv"
    conf = as_config(tmp_path / "grid.conf", {
        "dataset": str(FIXTURES / "detect.jsonl"),
        "db": str(FIXTURES / "examples.db"),
        "model": FIXTURE_MODEL_ID,
        "transcript": str(FIXTURES / "transcript.jsonl"),
        "out": str(csv_path),
        "strategies": "random",
        "k_values": "1",
        key: value,
    })
    assert main(["sweep", "--config", conf]) == 1
    assert f"config key {key}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "grid.conf"]


def test_cli_missing_option_named_with_a_config_file(tmp_path, capsys):
    conf = as_config(tmp_path / "half.conf", {"dataset": str(FIXTURES / "detect.jsonl")})
    assert main(["run", "--config", conf]) == 1
    err = capsys.readouterr().err
    assert "--out" in err and "--dataset" not in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cli_build_db_rejects_a_cap_below_1(tmp_path, capsys, cap):
    db_path = tmp_path / "never.db"
    argv = [
        "build-db",
        "--inputs", str(FIXTURES / "repo_corpus.jsonl"),
        "--db", str(db_path),
        "--model", FIXTURE_MODEL_ID,
        "--transcript", str(FIXTURES / "transcript.jsonl"),
        "--cap", cap,
    ]
    assert main(argv) == 1
    assert "--cap" in capsys.readouterr().err
    assert not db_path.exists()


def test_cli_sweep_rejects_a_malformed_local_embedder_before_any_cell(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    argv = [
        "sweep",
        "--dataset", str(FIXTURES / "detect.jsonl"),
        "--db", str(FIXTURES / "examples.db"),
        "--model", FIXTURE_MODEL_ID,
        "--transcript", str(FIXTURES / "transcript.jsonl"),
        "--out", str(csv_path),
        "--strategies", "random", "knn",
        "--k-values", "10",
        "--embedding-model", "local-hash-x",
    ]
    assert main(argv) == 1
    assert "local-hash-<dim>" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
