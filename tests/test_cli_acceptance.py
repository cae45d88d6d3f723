"""The fixture checks of the `causal-rag` command, driven through
`causal_rag.cli.main` under `tmp_path`: each run, sweep, build and eval
exits as it should, and the files that must match do, byte for byte.
Every whole file a command writes is replaced through a temporary file, so
no test leaves a `*.tmp` behind."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from causal_rag.cli import main
from causal_rag.gateway import API_KEY_ENV

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DETECT = FIXTURES / "detect.jsonl"
EXTRACT = FIXTURES / "extract.jsonl"
DB = FIXTURES / "examples.db"
TRANSCRIPT = FIXTURES / "transcript.jsonl"
CORPUS = FIXTURES / "repo_corpus.jsonl"
MODEL = ["--model", "fixture-model"]


def cli(*args) -> int:
    return main([str(arg) for arg in args])


def run(*args) -> int:
    return cli("run", "--db", DB, "--transcript", TRANSCRIPT, *MODEL, *args)


def sweep(*args) -> int:
    return cli("sweep", "--db", DB, "--transcript", TRANSCRIPT, *MODEL, *args)


def assert_same(a: Path, b: Path) -> None:
    assert a.read_bytes() == b.read_bytes(), f"{a} and {b} differ"


def assert_same_cells(a: Path, b: Path, cells) -> None:
    """The CSVs `a` and `b`, and each cell's predictions and report."""
    assert_same(a, b)
    for cell in cells:
        for suffix in ("jsonl", "jsonl.metrics.json"):
            assert_same(Path(f"{a}.{cell}.{suffix}"), Path(f"{b}.{cell}.{suffix}"))


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    yield
    assert not sorted(tmp_path.rglob("*.tmp"))


@pytest.fixture(scope="module")
def pattern_run(tmp_path_factory) -> Path:
    """`run --strategy pattern --k 5` over the detect fixture."""
    out = tmp_path_factory.mktemp("pattern") / "p.jsonl"
    assert run("--dataset", DETECT, "--strategy", "pattern", "--k", 5, "--out", out) == 0
    assert not sorted(out.parent.rglob("*.tmp"))
    return out


def test_run_and_eval_rescore_the_fixtures(tmp_path, pattern_run):
    assert cli("eval", "--predictions", pattern_run, "--dataset", DETECT) == 0
    out = tmp_path / "x.jsonl"
    assert run("--task", "extract", "--dataset", EXTRACT, "--strategy", "knn", "--out", out) == 0
    assert cli("eval", "--task", "extract", "--predictions", out, "--dataset", EXTRACT) == 0


def test_a_knn_sweep_over_a_warm_cache_writes_the_same_bytes_and_adds_no_cache_line(tmp_path):
    cache = tmp_path / "emb.jsonl"
    cache_lines = {}
    for state in ("cold", "warm"):
        assert sweep("--task", "extract", "--dataset", EXTRACT, "--strategies", "knn",
                     "knn-pattern", "--k-values", 10, "--cache", cache,
                     "--out", tmp_path / f"{state}.csv") == 0
        cache_lines[state] = len(cache.read_bytes().splitlines())
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert_same(cold, warm)
    for cell in ("knn.k10", "knn-pattern.k10"):
        assert_same(Path(f"{cold}.{cell}.jsonl"), Path(f"{warm}.{cell}.jsonl"))
    assert cache_lines["cold"] == cache_lines["warm"]


def test_one_pool_serves_the_whole_grid_with_one_worker_or_four(tmp_path):
    strategies = ["zeroshot", "random", "pattern", "knn", "knn-pattern"]
    for workers in (1, 4):
        assert sweep("--dataset", DETECT, "--strategies", *strategies, "--k-values", 10,
                     "--concurrency", workers, "--out", tmp_path / f"c{workers}.csv") == 0
    assert_same_cells(tmp_path / "c1.csv", tmp_path / "c4.csv",
                      [f"{strategy}.k10" for strategy in strategies])


def test_a_pattern_sweep_writes_the_same_bytes_at_every_k_and_worker_count(
        tmp_path, pattern_run):
    """The repository's connective matches serve every k, cell and worker,
    and the k 5 cell is the single pattern run."""
    for workers in (1, 4):
        assert sweep("--dataset", DETECT, "--strategies", "pattern", "--k-values", 1, 5, 10,
                     "--concurrency", workers, "--out", tmp_path / f"pk{workers}.csv") == 0
    assert_same_cells(tmp_path / "pk1.csv", tmp_path / "pk4.csv",
                      [f"pattern.k{k}" for k in (1, 5, 10)])
    for suffix in ("", ".metrics.json"):
        assert_same(tmp_path / f"pk4.csv.pattern.k5.jsonl{suffix}",
                    Path(f"{pattern_run}{suffix}"))


def test_a_sweep_and_a_knn_run_write_the_same_bytes_under_any_hash_seed(tmp_path):
    """The sweep the fixture transcript covers, and a kNN run, each in a new
    process under `PYTHONHASHSEED` 0 and 12345: no byte they write may hang
    on the order of a set or of a dict of strings."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    commands = [
        ["sweep", "--dataset", DETECT, "--strategies", "random", "pattern",
         "--k-values", 1, 5, 10, 50, "--out", "grid.csv"],
        ["run", "--dataset", DETECT, "--strategy", "knn", "--k", 10, "--out", "knn.jsonl"],
    ]
    written = {}
    for seed in ("0", "12345"):
        out = tmp_path / seed
        out.mkdir()
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "causal_rag.cli", *map(str, command),
                 "--db", DB, "--transcript", TRANSCRIPT, *MODEL],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                cwd=out, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        written[seed] = {file.name: file.read_bytes() for file in out.iterdir()}
    assert len(written["0"]) == 1 + 2 * 8 + 2  # the CSV, 8 cells, the kNN run
    assert written["0"] == written["12345"]


@pytest.mark.parametrize("matching", ["greedy", "optimal"])
def test_an_extract_sweep_scores_the_same_with_one_worker_or_four(tmp_path, matching):
    """Each record is scored as it is written, by either matcher, and eval
    re-scores a file the same way."""
    for workers in (1, 4):
        assert sweep("--task", "extract", "--dataset", EXTRACT, "--strategies", "zeroshot",
                     "random", "pattern", "--k-values", 10, "--matching", matching,
                     "--concurrency", workers,
                     "--out", tmp_path / f"x-{matching}-c{workers}.csv") == 0
    assert_same_cells(tmp_path / f"x-{matching}-c1.csv", tmp_path / f"x-{matching}-c4.csv",
                      ["zeroshot.k10", "random.k10", "pattern.k10"])
    if matching == "optimal":
        assert cli("eval", "--task", "extract", "--matching", "optimal", "--predictions",
                   tmp_path / "x-optimal-c4.csv.pattern.k10.jsonl", "--dataset", EXTRACT) == 0


def test_a_grid_cell_that_needs_a_db_is_a_usage_error_before_force_removes_anything(tmp_path):
    out = tmp_path / "nodb.csv"
    out.write_text("kept\n", encoding="utf-8")
    assert cli("sweep", "--dataset", DETECT, "--transcript", TRANSCRIPT, *MODEL,
               "--strategies", "zeroshot", "pattern", "--k-values", 1, "--force",
               "--out", out) == 1
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_a_parsed_answer_with_a_key_no_parser_writes_is_a_data_error(tmp_path, pattern_run):
    rows = [json.loads(line) for line in pattern_run.read_text(encoding="utf-8").splitlines()]
    next(row for row in rows if row["parsed"])["parsed"]["junk"] = 1
    junk = tmp_path / "junk.jsonl"
    junk.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert cli("eval", "--predictions", junk, "--dataset", DETECT) == 2


@pytest.mark.parametrize("workers", [1, 4])
def test_build_db_replays_the_fixture_transcript_into_the_committed_repository(
        tmp_path, workers):
    db = tmp_path / f"b{workers}.db"
    assert cli("build-db", "--inputs", CORPUS, "--transcript", TRANSCRIPT, *MODEL,
               "--concurrency", workers, "--db", db) == 0
    assert_same(db, DB)


def test_the_record_backend_over_a_full_transcript_writes_the_replay_bytes(
        tmp_path, monkeypatch):
    """It needs no API key, writes every cell's predictions and report as
    the replay does, and appends nothing."""
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    grid_args = ["--dataset", DETECT, "--strategies", "random", "pattern", "--k-values", 1, 5]
    assert sweep(*grid_args, "--out", tmp_path / "grid.csv") == 0
    recorded = tmp_path / "recorded.jsonl"
    shutil.copyfile(TRANSCRIPT, recorded)
    assert cli("build-db", "--backend", "record", "--inputs", CORPUS, "--transcript", recorded,
               *MODEL, "--db", tmp_path / "recorded.db") == 0
    assert_same(tmp_path / "recorded.db", DB)
    assert cli("sweep", "--backend", "record", "--db", DB, "--transcript", recorded, *MODEL,
               *grid_args, "--out", tmp_path / "recorded.csv") == 0
    assert_same_cells(tmp_path / "recorded.csv", tmp_path / "grid.csv",
                      ["random.k1", "random.k5", "pattern.k1", "pattern.k5"])
    assert_same(recorded, TRANSCRIPT)


@pytest.mark.parametrize("line, field, value", [
    (4, "connectives", [" "]),  # a connective that is blank once normalized
    (2, "tagged_text", "  "),  # a tagged_text that, its tags removed, is not the text
], ids=["blank-connective", "untagged-text"])
def test_a_damaged_repository_is_refused_naming_the_file_and_line(
        tmp_path, capsys, line, field, value):
    lines = DB.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[line - 1])
    record[field] = value
    lines[line - 1] = json.dumps(record) + "\n"
    db = tmp_path / "damaged.db"
    db.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "damaged.jsonl"
    assert cli("run", "--dataset", DETECT, "--db", db, "--transcript", TRANSCRIPT, *MODEL,
               "--strategy", "pattern", "--out", out) == 2
    assert f"{db}: line {line}: " in capsys.readouterr().err
    assert not out.exists()


def test_a_cache_of_another_dim_is_refused_naming_the_file_and_line(tmp_path, capsys):
    cache = tmp_path / "dim.cache.jsonl"
    cache.write_text(json.dumps({"dim": 2, "key": "0" * 64, "model": "local-hash-256",
                                 "vector": [0.6, 0.8]}) + "\n", encoding="utf-8")
    before = cache.read_bytes()
    out = tmp_path / "dim.jsonl"
    assert run("--dataset", DETECT, "--strategy", "knn", "--cache", cache, "--out", out) == 2
    assert f"{cache}: line 1: " in capsys.readouterr().err
    assert cache.read_bytes() == before
    assert not out.exists()


# --- the text the commands print, pinned byte for byte on the fixtures -------
# A run's table lists the task, its metrics in the order the report holds
# them, then its config echo by key; floats are printed to 4 places.

RUN_TABLE_CONFIG = """\
config.catalog_version  1
config.k                {k}
config.matcher          edit_ratio
config.matching         greedy
config.model_id         fixture-model
config.seed             0
config.single_pair      {single_pair}
config.strategy         {strategy}
config.task             {task}
config.threshold        0.9000
predictions: {out}
metrics: {out}.metrics.json
"""

DETECT_METRICS = """\
accuracy                0.9200
precision               0.9231
recall                  0.9231
f1                      0.9231
counts.tp               12
counts.fp               1
counts.tn               11
counts.fn               1
examples_mean           4.7600
examples_max            5
parse_failures          0
"""

PINNED_RUNS = {
    "detect-pattern": (
        ["--dataset", DETECT, "--strategy", "pattern", "--k", 5],
        "task                    detect\n" + DETECT_METRICS,
        {"k": 5, "single_pair": False, "strategy": "pattern", "task": "detect"},
    ),
    "extract-knn": (
        ["--task", "extract", "--dataset", EXTRACT, "--strategy", "knn"],
        """\
task                    extract
precision               0.9167
recall                  0.9167
f1                      0.9167
matched                 11
predicted_total         12
gold_total              12
examples_mean           10.0000
examples_max            10
parse_failures          0
""",
        {"k": 10, "single_pair": False, "strategy": "knn", "task": "extract"},
    ),
    "extract-single-random": (
        ["--task", "extract", "--single-pair", "--dataset", FIXTURES / "extract_single.jsonl",
         "--strategy", "random"],
        """\
task                    extract-single
accuracy                0.8750
successes               7
total                   8
overlap_count           0
examples_mean           10.0000
examples_max            10
parse_failures          0
""",
        {"k": 10, "single_pair": True, "strategy": "random", "task": "extract"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_prints_the_pinned_table(tmp_path, capsys, name):
    args, metrics, config = PINNED_RUNS[name]
    out = tmp_path / "pinned.jsonl"
    assert run(*args, "--out", out) == 0
    assert capsys.readouterr().out == metrics + RUN_TABLE_CONFIG.format(out=out, **config)


def test_eval_prints_the_pinned_table(tmp_path, capsys):
    out = tmp_path / "pinned.jsonl"
    assert run("--dataset", DETECT, "--strategy", "pattern", "--k", 5, "--out", out) == 0
    capsys.readouterr()
    assert cli("eval", "--predictions", out, "--dataset", DETECT) == 0
    assert capsys.readouterr().out == f"""\
task                  detect
accuracy              0.9200
precision             0.9231
recall                0.9231
f1                    0.9231
counts.tp             12
counts.fp             1
counts.tn             11
counts.fn             1
examples_mean         4.7600
examples_max          5
parse_failures        0
config.dataset_total  25
config.matching       greedy
config.predictions    {out}
config.scored         25
config.single_pair    False
config.strategy       pattern
config.task           detect
"""


def test_stats_prints_the_pinned_text(capsys):
    assert cli("stats", "--db", DB, "--sample", 2, "--seed", 1) == 0
    assert capsys.readouterr().out == """\
records              38
unique connectives   9
connectives with >=5 4
examples-per-connective histogram:
    1 example(s): 2 connective(s)
    2 example(s): 1 connective(s)
    3 example(s): 1 connective(s)
    4 example(s): 1 connective(s)
    5 example(s): 1 connective(s)
    6 example(s): 2 connective(s)
   10 example(s): 1 connective(s)
sampled connectives (2 per frequency):
    1 example(s): as a result of, owing to
    2 example(s): induced
    3 example(s): triggered
    4 example(s): because of
    5 example(s): resulted in
    6 example(s): due to, led to
   10 example(s): caused by
"""
