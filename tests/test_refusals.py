"""Inputs the program refuses: each test feeds one bad input and checks the
refusal by its message, its exit code through the CLI, and that nothing was
written or asked of the provider before it."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fixture_llm import FIXTURE_MODEL_ID, FixtureResponder, ScriptedBackend
from test_runner_cli import FIXTURES, replay_config, run_flags

from causal_rag import runner
from causal_rag.cli import main
from causal_rag.corpus import load_dataset
from causal_rag.embedding import LocalHashEmbedder
from causal_rag.errors import MalformedRecordError
from causal_rag.gateway import LlmClient
from causal_rag.prompting import default_catalog, parse_catalog
from causal_rag.repository import Repository, build_repository
from causal_rag.retrieval import RetrievalConfig, StrategyKind, retrieve_pattern, retrieve_random
from causal_rag.runner import run_experiment, sweep_configs

# --- through the CLI: a data error exits 2, a usage error 1 -------------------


def test_a_header_only_repository_is_refused_before_any_provider_call(tmp_path, capsys,
                                                                      monkeypatch):
    db = tmp_path / "header.db"
    db.write_text('{"cap": 10, "schema_version": 1, "seed": 0}\n', encoding="utf-8")
    backend = ScriptedBackend(FixtureResponder())
    monkeypatch.setattr(runner, "make_backend", lambda *args: backend)
    assert main(run_flags(tmp_path, db=str(db), strategy="pattern")) == 2
    assert "data error: repository is empty" in capsys.readouterr().err
    assert backend.calls == 0
    assert not (tmp_path / "cli.jsonl").exists()


def test_an_extract_run_on_a_dataset_with_no_causal_sentence_is_refused(tmp_path, capsys):
    dataset = tmp_path / "plain.jsonl"
    dataset.write_text(json.dumps({"id": "p-1", "label": 0, "text": "The sky is blue."}) + "\n",
                       encoding="utf-8")
    assert main(run_flags(tmp_path, dataset=str(dataset), task="extract")) == 2
    assert "no instances to run" in capsys.readouterr().err
    assert not (tmp_path / "cli.jsonl").exists()


def test_eval_against_a_dataset_sharing_no_id_with_the_predictions_is_refused(tmp_path, capsys):
    predictions = tmp_path / "detect.jsonl"
    run_experiment(replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT, out=predictions))
    argv = ["eval", "--predictions", str(predictions),
            "--dataset", str(FIXTURES / "extract.jsonl")]
    assert main(argv) == 2
    assert "no overlapping sentence ids between predictions and dataset" in capsys.readouterr().err


def test_a_repository_whose_first_line_is_no_header_is_refused_naming_line_1(tmp_path, capsys):
    lines = (FIXTURES / "examples.db").read_text(encoding="utf-8").splitlines(keepends=True)
    db = tmp_path / "headless.db"
    db.write_text("".join(lines[1:]), encoding="utf-8")
    assert main(run_flags(tmp_path, db=str(db), strategy="pattern")) == 2
    assert f"{db}: line 1: first line is not a repository header" in capsys.readouterr().err
    assert not (tmp_path / "cli.jsonl").exists()


def test_eval_refuses_an_unknown_provenance_key_naming_the_line(tmp_path, capsys):
    predictions = tmp_path / "pattern.jsonl"
    run_experiment(replay_config(tmp_path, "detect", StrategyKind.PATTERN, out=predictions))
    rows = [json.loads(line) for line in predictions.read_text(encoding="utf-8").splitlines()]
    line_no = next(n for n, row in enumerate(rows, start=1) if n > 1 and row["provenance"])
    rows[line_no - 1]["provenance"][0]["extra"] = 1
    predictions.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    argv = ["eval", "--predictions", str(predictions),
            "--dataset", str(FIXTURES / "detect.jsonl")]
    assert main(argv) == 2
    assert (f"{predictions}: line {line_no}: unknown provenance field 'extra'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text, reason", [
    (None, "cannot read config file"),
    ("k 5\n", "line 1: expected key = value"),
    ("force = maybe\n", "config key force: expected one of true/1/yes/false/0/no, got 'maybe'"),
    # "\udcff" is written as the byte 0xff, which is not UTF-8
    ("force = true\nk = \udcff\n", "run.conf: line 2: invalid UTF-8 ("),
])
def test_a_config_file_that_cannot_be_read_or_parsed_is_a_usage_error(tmp_path, capsys,
                                                                      text, reason):
    config_file = tmp_path / "run.conf"
    if text is not None:  # else there is no file to read
        config_file.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(run_flags(tmp_path, config=str(config_file))) == 1
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "cli.jsonl").exists()


@pytest.mark.parametrize("record, reason", [
    ({"label": 0, "text": "  "}, "'text' must be a non-empty string"),
    ({"label": 0, "text": "Rain caused floods.",
      "pairs": [{"cause": "Rain", "effect": "floods"}]},
     "non-causal record must not carry pairs"),
    ({"label": 1, "text": "Rain caused floods.",
      "pairs": [{"cause": " ", "effect": "floods"}]},
     "pair phrases must be non-empty"),
])
def test_a_dataset_record_that_breaks_the_format_is_refused_naming_its_line(tmp_path, capsys,
                                                                           record, reason):
    first = (FIXTURES / "detect.jsonl").read_text(encoding="utf-8").splitlines()[0]
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text(f"{first}\n{json.dumps({'id': 'bad-2', **record})}\n", encoding="utf-8")
    assert main(run_flags(tmp_path, dataset=str(dataset))) == 2
    assert f"{dataset}: line 2: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "cli.jsonl").exists()


SEMEVAL_BLOCK = (
    '1\t"The <e1>burst</e1> has been caused by water hammer <e2>pressure</e2>."\n'
    "Cause-Effect(e2,e1)\n"
    "Comment:\n"
    "\n"
)


@pytest.mark.parametrize("block, reason", [
    ('2\t"The <e1>rain</e1> brings <e2>floods</e2>."\n', "sentence line without a relation line"),
    ('2 "The <e1>rain</e1> brings <e2>floods</e2>."\nCause-Effect(e1,e2)\n',
     "expected '<id>\\t\"sentence\"'"),
    ('2\t"The rain brings floods."\nCause-Effect(e1,e2)\n', "sentence lacks <e1>/<e2> markup"),
    ('2\t"The <e1>rain</e1> brings \udcff <e2>floods</e2>."\nCause-Effect(e1,e2)\n',
     "invalid UTF-8 ("),
])
def test_a_semeval_block_that_breaks_the_format_is_refused_naming_its_line(tmp_path, capsys,
                                                                          block, reason):
    dataset = tmp_path / "bad.txt"
    dataset.write_bytes((SEMEVAL_BLOCK + block).encode("utf-8", "surrogateescape"))
    assert main(run_flags(tmp_path, dataset=str(dataset), dataset_format="semeval")) == 2
    assert f"{dataset}: line 5: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "cli.jsonl").exists()


ADE_LINE = "1|Intravenous azithromycin induced ototoxicity.|ototoxicity|0|0|azithromycin|0|0\n"


@pytest.mark.parametrize("kind", ["ade", "li", "catalog"])
def test_a_byte_that_is_not_utf8_is_refused_naming_the_file_and_its_line(tmp_path, capsys,
                                                                        kind):
    """A native dataset or a catalog is refused at its first byte that is
    not UTF-8, naming the file and the line that byte is on."""
    if kind == "catalog":
        packaged = Path(runner.__file__).parent / "prompts" / "catalog_v1.txt"
        lines = packaged.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        path = tmp_path / "catalog.txt"
        path.write_bytes(b"\n".join(lines))
        flags = {"catalog": str(path)}
    else:
        text = {"ade": ADE_LINE + "\n" + ADE_LINE.replace("induced", "induced \udcff"),
                "li": "The market stayed flat.\n\nPrices fell \udcff.\n"}[kind]
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        flags = {"dataset": str(path), "dataset_format": kind}
    assert main(run_flags(tmp_path, **flags)) == 2
    assert f"data error: {path}: line 3: invalid UTF-8 (" in capsys.readouterr().err
    assert not (tmp_path / "cli.jsonl").exists()


# --- through the library ------------------------------------------------------


def test_a_catalog_block_that_is_present_but_blank_is_refused_naming_the_catalog() -> None:
    blocks = {**default_catalog().blocks, "extraction_user": "  "}
    text = "catalog_version: 1\n" + "\n".join(f"--- {key} ---\n{body}"
                                              for key, body in blocks.items())
    with pytest.raises(MalformedRecordError,
                       match=r"^custom\.txt: catalog blocks empty: \['extraction_user'\]$"):
        parse_catalog(text, origin="custom.txt")


@pytest.mark.parametrize("strategies, k_values, name", [
    ([], [5], "strategy"), ([StrategyKind.PATTERN], [], "k value"),
])
def test_a_sweep_grid_with_no_strategy_or_no_k_is_refused(tmp_path, strategies, k_values, name):
    base = replay_config(tmp_path, "detect", StrategyKind.ZEROSHOT)
    with pytest.raises(ValueError, match=f"^sweep needs at least one {name}$"):
        sweep_configs(base, strategies, k_values, str(tmp_path / "grid.csv"))


def test_build_repository_with_no_worker_is_refused_before_any_provider_call() -> None:
    corpus = [inst.sentence for inst in load_dataset(FIXTURES / "repo_corpus.jsonl")]
    backend = ScriptedBackend(FixtureResponder())
    with pytest.raises(ValueError, match="^concurrency must be >= 1$"):
        build_repository(corpus, LlmClient(backend, FIXTURE_MODEL_ID), concurrency=0)
    assert backend.calls == 0


def test_a_local_embedder_of_no_dimension_is_refused() -> None:
    with pytest.raises(ValueError, match="^dim must be positive$"):
        LocalHashEmbedder(dim=0)


@pytest.mark.parametrize("retrieve", [
    lambda repo: retrieve_random(repo, RetrievalConfig()),
    # no fallback, so the refusal is retrieve_pattern's own
    lambda repo: retrieve_pattern(["caused by"], repo, RetrievalConfig(fallback_to_random=False)),
], ids=["random", "pattern"])
def test_retrieval_from_an_empty_repository_is_refused(retrieve) -> None:
    with pytest.raises(ValueError, match="^repository is empty$"):
        retrieve(Repository({}, cap=10, seed=0))
