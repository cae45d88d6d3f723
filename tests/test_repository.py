"""Tests for connective parsing, repository build/sampling, and persistence."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from fixture_llm import FIXTURE_MODEL_ID, ScriptedBackend

from causal_rag import cli, repository
from causal_rag.corpus import parse_tagged_sentence
from causal_rag.errors import MalformedRecordError, UnparseableResponseError
from causal_rag.gateway import CompletionRequest, LlmClient, ReplayBackend, Transcript
from causal_rag.repository import (
    ExampleRecord,
    Repository,
    build_repository,
    extract_connectives,
    load_repository,
    normalize_connective,
    parse_connective_response,
    repository_stats,
    sample_capped,
    save_repository,
)
from causal_rag.runner import build_db


FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_DB = FIXTURES / "examples.db"


def sentence(text: str, source: str = "fx", ordinal: int = 1):
    return parse_tagged_sentence(text, source, ordinal)


def connective_llm(mapping: dict[str, str]) -> LlmClient:
    """Scripted model: answers the connective prompt from raw sentence text."""

    def script(req: CompletionRequest) -> str:
        lines = [l for l in req.user_text.splitlines() if l.startswith("Sentence: ")]
        return mapping[lines[-1][len("Sentence: ") :]]

    return LlmClient(backend=ScriptedBackend(script), model_id="scripted")


def test_normalize_connective() -> None:
    assert normalize_connective("  Caused   By ") == "caused by"
    assert normalize_connective("-associated") == "-associated"


def test_parse_connective_response_lines_and_commas() -> None:
    assert parse_connective_response("caused by") == ["caused by"]
    assert parse_connective_response("lead to, results in") == ["lead to", "results in"]
    assert parse_connective_response("caused by\nlead to") == ["caused by", "lead to"]


def test_parse_connective_response_bullets_and_quotes() -> None:
    assert parse_connective_response('- "caused by"\n2) lead to') == ["caused by", "lead to"]
    assert parse_connective_response("* 'due to'") == ["due to"]


def test_parse_connective_response_keeps_hyphen_forms() -> None:
    assert parse_connective_response("-associated") == ["-associated"]
    assert parse_connective_response("troglitazone-induced") == ["troglitazone-induced"]


def test_parse_connective_response_dedupes_preserving_order() -> None:
    assert parse_connective_response("Lead To\nlead to\ncaused by") == ["lead to", "caused by"]


def test_parse_connective_response_empty() -> None:
    with pytest.raises(UnparseableResponseError):
        parse_connective_response("")
    with pytest.raises(UnparseableResponseError):
        parse_connective_response(" , \n , ")


def test_extract_connectives_examples() -> None:
    llm = connective_llm(
        {
            "Highly viscous lavas lead to a violent eruption.": "lead to",
            "The onset of troglitazone-induced liver injury was delayed.": "induced",
        }
    )
    s1 = sentence(
        "Highly viscous <cause>lavas</cause> lead to a violent <effect>eruption</effect>."
    )
    assert extract_connectives(s1, llm) == ["lead to"]
    s2 = sentence(
        "The onset of <cause>troglitazone</cause>-induced <effect>liver injury</effect>"
        " was delayed."
    )
    assert extract_connectives(s2, llm) == ["induced"]


def test_extract_connectives_rejects_non_causal() -> None:
    llm = connective_llm({})
    with pytest.raises(ValueError):
        extract_connectives(sentence("plain text here."), llm)


def test_extract_connectives_empty_response() -> None:
    llm = LlmClient(backend=ScriptedBackend(lambda req: ""), model_id="s")
    s = sentence("<cause>a</cause> made <effect>b</effect>")
    with pytest.raises(UnparseableResponseError):
        extract_connectives(s, llm)


def _corpus_with(connective_plan: list[tuple[str, str]]):
    """Build (corpus, mapping) where each entry is (sentence_text, connective)."""
    corpus = []
    mapping = {}
    for i, (text, connective) in enumerate(connective_plan, start=1):
        s = sentence(text, "fx", i)
        corpus.append(s)
        mapping[s.raw_text] = connective
    return corpus, mapping


def _standard_plan() -> list[tuple[str, str]]:
    plan = []
    for i in range(12):
        plan.append(
            (f"<effect>outage {i}</effect> was caused by <cause>storm {i}</cause>.", "caused by")
        )
    for i in range(3):
        plan.append(
            (f"<cause>spill {i}</cause> lead to <effect>closure {i}</effect>.", "lead to")
        )
    return plan


def test_build_cap_binds_and_slack() -> None:
    corpus, mapping = _corpus_with(_standard_plan())
    repo = build_repository(corpus, connective_llm(mapping), cap=10, seed=3)
    assert len(repo.index["caused by"]) == 10
    caused_ids = {s.id for s in corpus[:12]}
    assert set(repo.index["caused by"]) <= caused_ids
    assert len(repo.index["lead to"]) == 3
    assert list(repo.index["lead to"]) == sorted(repo.index["lead to"])


def test_build_prunes_unindexed_records() -> None:
    corpus, mapping = _corpus_with(_standard_plan())
    repo = build_repository(corpus, connective_llm(mapping), cap=10, seed=3)
    # 12 candidates under "caused by" but only 10 kept; 3 under "lead to"
    assert len(repo.records) == 13
    reachable = {rid for ids in repo.index.values() for rid in ids}
    assert set(repo.records) == reachable


def test_build_skips_unparseable_and_logs(caplog) -> None:
    corpus, mapping = _corpus_with(_standard_plan()[:3])
    mapping[corpus[1].raw_text] = ""  # model returns nothing for this one
    with caplog.at_level("WARNING"):
        repo = build_repository(corpus, connective_llm(mapping), cap=10, seed=0)
    assert corpus[1].id not in repo.records
    assert len(repo.records) == 2
    assert any(corpus[1].id in message for message in caplog.messages)


def test_build_multi_connective_record_shared() -> None:
    corpus, mapping = _corpus_with(
        [("<cause>heat</cause> lead to and caused <effect>fires</effect>.", "lead to, caused")]
    )
    repo = build_repository(corpus, connective_llm(mapping), cap=10, seed=0)
    record = next(iter(repo.records.values()))
    assert record.connectives == ("lead to", "caused")
    assert repo.index["lead to"] == repo.index["caused"] == (record.id,)


def test_build_validates_inputs() -> None:
    llm = connective_llm({})
    with pytest.raises(ValueError):
        build_repository([], llm)
    with pytest.raises(ValueError):
        build_repository([sentence("no tags at all.")], llm)


@pytest.mark.parametrize("cap", [0, -1])
def test_build_rejects_a_cap_below_1(cap) -> None:
    corpus, mapping = _corpus_with(_standard_plan()[:2])
    with pytest.raises(ValueError, match="cap"):
        build_repository(corpus, connective_llm(mapping), cap=cap)


def test_build_concurrency_identical_output() -> None:
    corpus, mapping = _corpus_with(_standard_plan())
    llm = connective_llm(mapping)
    serial = build_repository(corpus, llm, cap=10, seed=5, concurrency=1)
    parallel = build_repository(corpus, llm, cap=10, seed=5, concurrency=8)
    assert serial.records == parallel.records
    assert serial.index == parallel.index


def test_sample_capped_is_stable_under_pruning() -> None:
    rng = random.Random(99)
    for trial in range(50):
        n = rng.randrange(1, 40)
        ids = [f"fx-{i:06d}" for i in rng.sample(range(1000), n)]
        cap = rng.randrange(1, 15)
        seed = rng.randrange(100)
        kept = sample_capped(ids, "caused by", cap, seed)
        assert len(kept) == min(cap, n)
        assert list(kept) == sorted(kept)
        # removing any non-selected candidate leaves the selection unchanged
        survivors = [rid for rid in ids if rid in set(kept)]
        assert sample_capped(survivors, "caused by", cap, seed) == kept
        # adding back one dropped candidate still reproduces the selection
        dropped = [rid for rid in ids if rid not in set(kept)]
        if dropped:
            again = sample_capped(survivors + dropped[:1], "caused by", cap, seed)
            assert again == kept


def _selection_indexes(monkeypatch) -> list[dict]:
    """Every index `repository._index_of` returns from now on, in order."""
    made: list[dict] = []
    index_of = repository._index_of

    def recording(*args):
        made.append(index_of(*args))
        return made[-1]

    monkeypatch.setattr(repository, "_index_of", recording)
    return made


def test_load_rebuilds_identical_index(tmp_path, monkeypatch) -> None:
    corpus, mapping = _corpus_with(_standard_plan())  # 12 "caused by" under a cap of 10
    made = _selection_indexes(monkeypatch)
    repo = build_repository(corpus, connective_llm(mapping), cap=10, seed=11)
    (selected,) = made  # the index the build kept records by
    assert len(selected["caused by"]) == 10
    # the index of the kept records is the one they were selected with
    assert repo.index == selected
    path = tmp_path / "db.jsonl"
    save_repository(repo, path)
    loaded = load_repository(path)
    assert len(made) == 2  # loading builds no index
    assert loaded.index == selected
    assert loaded.records == repo.records
    assert (loaded.cap, loaded.seed) == (10, 11)


def test_the_fixture_repository_has_the_index_it_was_selected_with(tmp_path,
                                                                     monkeypatch) -> None:
    made = _selection_indexes(monkeypatch)
    backend = ReplayBackend(Transcript(FIXTURES / "transcript.jsonl"))
    repo = build_db([str(FIXTURES / "repo_corpus.jsonl")], str(tmp_path / "examples.db"),
                    FIXTURE_MODEL_ID, backend)
    (selected,) = made
    assert (tmp_path / "examples.db").read_bytes() == FIXTURE_DB.read_bytes()
    assert repo.index == selected
    assert load_repository(FIXTURE_DB).index == selected


def test_save_byte_identical_across_builds(tmp_path) -> None:
    corpus, mapping = _corpus_with(_standard_plan())
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_repository(build_repository(corpus, connective_llm(mapping), cap=10, seed=7), p1)
    save_repository(build_repository(corpus, connective_llm(mapping), cap=10, seed=7), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_header_shape(tmp_path) -> None:
    corpus, mapping = _corpus_with(_standard_plan()[:2])
    repo = build_repository(corpus, connective_llm(mapping), cap=10, seed=4)
    path = tmp_path / "db.jsonl"
    save_repository(repo, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {"schema_version": 1, "cap": 10, "seed": 4}
    ids = [json.loads(line)["id"] for line in lines[1:]]
    assert ids == sorted(ids)


def test_load_empty_file(tmp_path) -> None:
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(MalformedRecordError):
        load_repository(path)


@pytest.mark.parametrize("value, shown", [
    ("99", "99"), ("true", "True"), ("1.0", "1.0"), ('"1"', "'1'"), ("null", "None"),
])
def test_load_unknown_schema_version(tmp_path, value, shown) -> None:
    """Only the JSON integer 1 is version 1: `true` and `1.0` equal 1 in
    Python, and the header's cap and seed refuse both too."""
    path = tmp_path / "db.jsonl"
    path.write_text(
        f'{{"schema_version": {value}, "cap": 10, "seed": 0}}\n'
        '{"id": "a", "text": "t", "tagged_text": "t", "pairs": [], '
        '"connectives": ["x"], "source": "s"}\n'
    )
    with pytest.raises(MalformedRecordError) as excinfo:
        load_repository(path)
    assert str(excinfo.value) == f"{path}: line 1: schema_version {shown}, expected 1"


def test_load_corrupt_record_reports_line(tmp_path) -> None:
    path = tmp_path / "db.jsonl"
    path.write_text(
        '{"schema_version": 1, "cap": 10, "seed": 0}\n'
        '{"id": "a", "text": "t", "tagged_text": "t", "pairs": [], '
        '"connectives": ["x"], "source": "s"}\n'
        "{truncated\n"
    )
    with pytest.raises(MalformedRecordError) as excinfo:
        load_repository(path)
    assert excinfo.value.line_number == 3
    assert str(excinfo.value).startswith(f"{path}: line 3: invalid JSON")


def test_repository_errors_name_the_file_and_the_line(tmp_path) -> None:
    path = tmp_path / "db.jsonl"
    record = ('{"id": "a", "text": "t", "tagged_text": "t", "pairs": [], '
              '"connectives": ["x"], "source": "s"}\n')
    header = '{"schema_version": 1, "cap": 10, "seed": 0}\n'
    cases = [
        (header + record + record, "line 3: duplicate record id a"),
        (header + record.replace('"source": "s", ', "").replace(', "source": "s"', ""),
         "line 2: missing field 'source'"),
        (header + record.replace('["x"]', "[]"), "line 2: record a has no connectives"),
        (header + record + record.replace('"a"', '"b"').replace('["x"]', '["x", " \\t"]'),
         "line 3: record b has a blank connective"),
        (header + record.replace('["x"]', '[""]'), "line 2: record a has a blank connective"),
        ('{"schema_version": 1, "cap": "x", "seed": 0}\n', "line 1: header lacks integer cap/seed"),
        ("", "line 1: repository file is empty (missing header)"),
        ('["schema_version", 1]\n', "line 1: expected a JSON object"),
    ]
    for text, reason in cases:
        path.write_text(text)
        with pytest.raises(MalformedRecordError) as excinfo:
            load_repository(path)
        assert str(excinfo.value) == f"{path}: {reason}"


@pytest.mark.parametrize("field, value", [
    ("cap", "true"), ("cap", '"10"'), ("cap", "10.9"), ("cap", "10.0"), ("cap", "null"),
    ("seed", "false"), ("seed", "1.7"), ("seed", '"0"'),
])
def test_load_refuses_a_header_cap_or_seed_that_is_not_a_json_integer(tmp_path, field,
                                                                      value) -> None:
    """int() would take each of these but null: `"cap": true` would rebuild
    the index with cap 1, which changes what pattern retrieval finds."""
    json_text = {"cap": "10", "seed": "0", field: value}
    path = tmp_path / "db.jsonl"
    path.write_text(
        f'{{"schema_version": 1, "cap": {json_text["cap"]}, "seed": {json_text["seed"]}}}\n'
        '{"id": "a", "text": "t", "tagged_text": "t", "pairs": [], '
        '"connectives": ["x"], "source": "s"}\n'
    )
    with pytest.raises(MalformedRecordError) as excinfo:
        load_repository(path)
    assert str(excinfo.value) == f"{path}: line 1: header lacks integer cap/seed"


@pytest.mark.parametrize("cap", [0, -1])
def test_load_rejects_a_header_cap_below_1(tmp_path, cap) -> None:
    path = tmp_path / "db.jsonl"
    path.write_text(
        f'{{"schema_version": 1, "cap": {cap}, "seed": 0}}\n'
        '{"id": "a", "text": "t", "tagged_text": "t", "pairs": [], '
        '"connectives": ["x"], "source": "s"}\n'
    )
    with pytest.raises(MalformedRecordError, match="cap") as excinfo:
        load_repository(path)
    assert excinfo.value.line_number == 1


def test_load_accepts_a_header_cap_of_1(tmp_path) -> None:
    path = tmp_path / "db.jsonl"
    path.write_text(
        '{"schema_version": 1, "cap": 1, "seed": 0}\n'
        '{"id": "a", "text": "t", "tagged_text": "t", "pairs": [], '
        '"connectives": ["x"], "source": "s"}\n'
    )
    repo = load_repository(str(path))  # a str path, as the CLI passes it
    assert repo.cap == 1 and list(repo.records) == ["a"]


def test_load_record_without_connectives(tmp_path) -> None:
    path = tmp_path / "db.jsonl"
    path.write_text(
        '{"schema_version": 1, "cap": 10, "seed": 0}\n'
        '{"id": "a", "text": "t", "tagged_text": "t", "pairs": [], '
        '"connectives": [], "source": "s"}\n'
    )
    with pytest.raises(MalformedRecordError):
        load_repository(path)


PAIRS_REASON = "'pairs' must be an array of objects with string 'cause' and 'effect'"
TAG_RULE_REASON = "record db-001's 'tagged_text' without its tags is not its 'text'"


@pytest.mark.parametrize("field, value, reason", [
    ("id", 5, "'id' must be a string"),
    ("text", 5, "'text' must be a string"),
    ("tagged_text", None, "'tagged_text' must be a string"),
    ("source", 7, "'source' must be a string"),
    ("connectives", "because", "'connectives' must be an array of strings"),
    ("connectives", ["caused by", 3], "'connectives' must be an array of strings"),
    ("connectives", [], "record db-001 has no connectives"),
    ("pairs", {"cause": "heavy rain", "effect": "The flood"}, PAIRS_REASON),
    ("pairs", [["heavy rain", "The flood"]], PAIRS_REASON),
    ("pairs", [{"cause": "heavy rain", "effect": None}], PAIRS_REASON),
    ("pairs", [{"cause": "heavy rain"}], "missing field 'effect'"),
    ("tagged_text", "  ", TAG_RULE_REASON),
    ("tagged_text", "<cause>heavy rain</cause> caused <effect>the flood</effect>.",
     TAG_RULE_REASON),
])
def test_every_field_of_a_saved_record_is_checked(tmp_path, capsys, field, value, reason) -> None:
    lines = FIXTURE_DB.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    assert record["id"] == "db-001"
    record[field] = value
    lines[1] = json.dumps(record) + "\n"
    path = tmp_path / "examples.db"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        load_repository(path)
    assert str(excinfo.value) == f"{path}: line 2: {reason}"
    assert cli.main(["stats", "--db", str(path)]) == cli.EXIT_DATA
    assert f"{path}: line 2: {reason}" in capsys.readouterr().err


def test_a_saved_connective_unverified_key_is_read_past(tmp_path) -> None:
    """An older file whose record carries `connective_unverified` loads as
    a file without it does, and saves without it."""
    lines = FIXTURE_DB.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    record["connective_unverified"] = True
    lines[1] = json.dumps(record) + "\n"
    path = tmp_path / "examples.db"
    path.write_text("".join(lines), encoding="utf-8")
    loaded = load_repository(path)
    assert loaded.records == load_repository(FIXTURE_DB).records
    save_repository(loaded, tmp_path / "saved.db")
    assert (tmp_path / "saved.db").read_bytes() == FIXTURE_DB.read_bytes()


def test_a_torn_final_line_of_a_repository_is_refused(tmp_path) -> None:
    data = FIXTURE_DB.read_bytes()
    path = tmp_path / "examples.db"
    path.write_bytes(data[:-12])  # the kill cut the newline and the end of the last record
    with pytest.raises(MalformedRecordError) as excinfo:
        load_repository(path)
    last = data.count(b"\n")
    assert excinfo.value.line_number == last
    assert str(excinfo.value).startswith(f"{path}: line {last}: invalid JSON")


def test_repository_stats_shape() -> None:
    records = {
        "r1": ExampleRecord("r1", "a", "a", (), ("a",), "s"),
        "r2": ExampleRecord("r2", "b", "b", (), ("a",), "s"),
        "r3": ExampleRecord("r3", "c", "c", (), ("b",), "s"),
    }
    repo = Repository(records=records, cap=10, seed=0)
    assert repo.index == {"a": ("r1", "r2"), "b": ("r3",)}
    stats = repository_stats(repo)
    assert stats["unique_connectives"] == 2
    assert stats["frequency_histogram"] == {1: 1, 2: 1}
    assert stats["total_records"] == 3
    assert stats["connectives_with_at_least_5"] == 0


def test_repository_stats_at_least_5_and_consistency() -> None:
    corpus, mapping = _corpus_with(_standard_plan())
    repo = build_repository(corpus, connective_llm(mapping), cap=10, seed=2)
    stats = repository_stats(repo)
    assert stats["connectives_with_at_least_5"] == 1  # "caused by" holds 10
    assert sum(stats["frequency_histogram"].values()) == stats["unique_connectives"]
    entries = sum(k * v for k, v in stats["frequency_histogram"].items())
    assert entries == sum(len(ids) for ids in repo.index.values())
    assert entries >= stats["total_records"]


def test_empty_index_stats() -> None:
    repo = Repository(records={}, cap=10, seed=0)
    stats = repository_stats(repo)
    assert stats["total_records"] == 0
    assert stats["unique_connectives"] == 0
    assert stats["frequency_histogram"] == {}
    assert stats["connectives_with_at_least_5"] == 0


def test_index_of_records_matches_manual_expectation() -> None:
    records = {
        f"r{i}": ExampleRecord(f"r{i}", f"t{i}", f"t{i}", (), ("caused by",), "s")
        for i in (3, 1, 0, 2)
    }
    repo = Repository(records=records, cap=10, seed=0)
    assert repo.index == {"caused by": ("r0", "r1", "r2", "r3")}
