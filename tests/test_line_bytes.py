"""The bytes of each stored line, pinned: prediction lines, transcript
lines, embedding-cache lines, saved repositories and canonical datasets
share one encoding (keys sorted, non-ASCII text written as UTF-8), and a
request's digest is taken over one compact form. A change to any literal below changes the bytes of
files already on disk, or the hash that finds a recorded answer."""

from __future__ import annotations

import json
import random
from pathlib import Path

from fixture_llm import FIXTURE_MODEL_ID, FixtureResponder, ScriptedBackend

from causal_rag.corpus import load_dataset, write_canonical
from causal_rag.embedding import EmbeddingCache, EmbeddingKey, EmbeddingVector
from causal_rag.gateway import CompletionRequest, Transcript
from causal_rag.jsonl import encode_line
from causal_rag.retrieval import StrategyKind
from causal_rag.runner import ExperimentConfig, build_db, run_experiment

TEXT = "Le café très chaud provoque une brûlure — vraiment."
CAUSE, EFFECT = "Le café très chaud", "une brûlure"
ROW = {"id": "fr-1", "text": TEXT, "label": 1,
       "pairs": [{"cause": CAUSE, "effect": EFFECT}], "source": "fr"}

PAIRS = (b'"pairs": [{"cause": "Le caf\xc3\xa9 tr\xc3\xa8s chaud", '
         b'"effect": "une br\xc3\xbblure"}]')
TAGGED = (b'"<cause>Le caf\xc3\xa9 tr\xc3\xa8s chaud</cause> provoque '
          b'<effect>une br\xc3\xbblure</effect> \xe2\x80\x94 vraiment."')
PLAIN = b'"Le caf\xc3\xa9 tr\xc3\xa8s chaud provoque une br\xc3\xbblure \xe2\x80\x94 vraiment."'


def answer(request: CompletionRequest) -> str:
    if "Output only the connectives" in request.system_text:
        return "provoque"
    return f"<cause>{CAUSE}</cause> provoque <effect>{EFFECT}</effect> — vraiment."


def dataset(tmp_path):
    path = tmp_path / "fr.jsonl"
    path.write_text(json.dumps(ROW, ensure_ascii=False) + "\n", encoding="utf-8")
    return path


def test_saved_repository_bytes(tmp_path):
    db = tmp_path / "fr.db"
    build_db([str(dataset(tmp_path))], str(db), "m", ScriptedBackend(answer))
    assert db.read_bytes() == (
        b'{"cap": 10, "schema_version": 1, "seed": 0}\n'
        b'{"connectives": ["provoque"], "id": "fr-1", ' + PAIRS + b', "source": "fr", '
        b'"tagged_text": ' + TAGGED + b', "text": ' + PLAIN + b'}\n'
    )


def test_prediction_line_bytes(tmp_path):
    out = tmp_path / "p.jsonl"
    config = ExperimentConfig(task="extract", strategy=StrategyKind.ZEROSHOT,
                              dataset_path=str(dataset(tmp_path)), output_path=str(out),
                              model_id="m", backend="replay",
                              transcript_path=str(tmp_path / "unused.jsonl"))
    run_experiment(config, backend=ScriptedBackend(answer))
    assert out.read_bytes() == (
        b'{"example_count": 0, "fallback_used": false, "parse_error": false, '
        b'"parsed": {"dropped_spans": 0, "overlap_flag": false, ' + PAIRS + b'}, '
        b'"prompt_hash": "8ddd4186d10bb867aa324ca86304396a376e7163291d10ae7d6c70e1e6eba169", '
        b'"provenance": [], "response": ' + TAGGED + b', "sentence_id": "fr-1", '
        b'"strategy": "zeroshot", "task": "extract"}\n'
    )


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_line(tmp_path, strategy: StrategyKind, sentence_id: str) -> bytes:
    """The prediction line of `sentence_id` from a k=2 extraction run over
    the fixtures, answered by the fixture model."""
    out = tmp_path / f"{strategy.value}.jsonl"
    config = ExperimentConfig(task="extract", strategy=strategy,
                              dataset_path=str(FIXTURES / "extract.jsonl"), output_path=str(out),
                              db_path=str(FIXTURES / "examples.db"), k=2,
                              model_id=FIXTURE_MODEL_ID, backend="replay",
                              transcript_path=str(tmp_path / "unused.jsonl"))
    run_experiment(config, backend=ScriptedBackend(FixtureResponder()))
    tag = b'"sentence_id": "' + sentence_id.encode() + b'"'
    (found,) = [line for line in out.read_bytes().splitlines(keepends=True) if tag in line]
    return found


def test_knn_pattern_provenance_line_bytes(tmp_path):
    # two kNN hits, then the pattern block less the id kNN already holds
    assert fixture_line(tmp_path, StrategyKind.KNN_PATTERN, "ext-004") == (
        b'{"example_count": 3, "fallback_used": false, "parse_error": false, '
        b'"parsed": {"dropped_spans": 0, "overlap_flag": false, '
        b'"pairs": [{"cause": "The strike", "effect": "missed shipments"}]}, '
        b'"prompt_hash": "9e7be9c7b23b1a214d0e3ae13ef9d3f60b1f0ed4ea423b35b27bcfef93024ac8", '
        b'"provenance": [{"origin": "knn", "record_id": "db-029", "score": 0.721688}, '
        b'{"origin": "knn", "record_id": "db-026", "score": 0.5}, '
        b'{"connective": "resulted in", "origin": "pattern", "record_id": "db-027", '
        b'"score": 1.0}], '
        b'"response": "<cause>The strike</cause> resulted in <effect>missed shipments</effect>.", '
        b'"sentence_id": "ext-004", "strategy": "knn-pattern", "task": "extract"}\n'
    )


def test_pattern_fallback_provenance_line_bytes(tmp_path):
    assert fixture_line(tmp_path, StrategyKind.PATTERN, "ext-007") == (
        b'{"example_count": 2, "fallback_used": true, "parse_error": false, '
        b'"parsed": {"dropped_spans": 0, "overlap_flag": false, '
        b'"pairs": [{"cause": "grid operator", "effect": "The outage"}]}, '
        b'"prompt_hash": "0b2d56a05c0ffa968b6eb1600e2d53a40823a2417f5006c9f9cb59608b8564be", '
        b'"provenance": [{"origin": "random-fallback", "record_id": "db-003"}, '
        b'{"origin": "random-fallback", "record_id": "db-017"}], '
        b'"response": "<effect>The outage</effect> was blamed on <cause>grid operator</cause>.", '
        b'"sentence_id": "ext-007", "strategy": "pattern", "task": "extract"}\n'
    )


def test_transcript_line_bytes(tmp_path):
    path = tmp_path / "t.jsonl"
    Transcript(path).append("ab" * 32, "réponse — « oui »", "2026-01-02T03:04:05+00:00")
    assert path.read_bytes() == (
        b'{"request_hash": "' + b"ab" * 32 + b'", '
        b'"response_text": "r\xc3\xa9ponse \xe2\x80\x94 \xc2\xab oui \xc2\xbb", '
        b'"timestamp": "2026-01-02T03:04:05+00:00"}\n'
    )


def test_a_transcript_line_is_encode_line_of_its_entry_seeded(tmp_path):
    path = tmp_path / "t.jsonl"
    rng = random.Random(26)
    alphabet = 'ab "\\\n\r\t\x00\u2028\u2029é—\U0001f600\U0001f9ea'
    entries = [{"request_hash": f"{i:064x}",
                "response_text": "".join(rng.choices(alphabet, k=rng.randrange(40))),
                "timestamp": f"2026-01-02T03:04:{i % 60:02d}.{i:06d}+00:00"}
               for i in range(300)]
    transcript = Transcript(path)
    for entry in entries:
        transcript.append(**entry)
    assert path.read_bytes() == "".join(encode_line(entry) + "\n"
                                        for entry in entries).encode("utf-8")
    reloaded = Transcript(path)
    assert [reloaded.get(entry["request_hash"]) for entry in entries] == [
        entry["response_text"] for entry in entries]


def test_embedding_cache_line_bytes(tmp_path):
    path = tmp_path / "e.jsonl"
    vector = EmbeddingVector((0.6, -0.8, 1e-05, 3.0))
    EmbeddingCache(path).put(EmbeddingKey("cd" * 32, "text-embedding-3-small"), vector)
    assert path.read_bytes() == (
        b'{"dim": 4, "key": "' + b"cd" * 32 + b'", "model": "text-embedding-3-small", '
        b'"vector": [0.6, -0.8, 1e-05, 3.0]}\n'
    )


def test_canonical_dataset_bytes(tmp_path):
    path = tmp_path / "c.jsonl"
    write_canonical(load_dataset(dataset(tmp_path)), path)
    assert path.read_bytes() == (
        b'{"id": "fr-1", "label": 1, ' + PAIRS + b', "source": "fr", "text": ' + PLAIN + b'}\n'
    )


def test_request_digest():
    request = CompletionRequest("Système : réponds.", "Phrase : « café »", "m")
    assert request.digest == "e53f75cf6e761a65d101b523f17a7743ddc25da035b5d0342d9c908c25845903"
