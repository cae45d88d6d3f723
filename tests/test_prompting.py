"""Tests for prompt catalog loading, prompt assembly, and response parsing."""

from __future__ import annotations

import pytest

from causal_rag.corpus import CauseEffectPair
from causal_rag.errors import UnparseableResponseError
from causal_rag.prompting import (
    AssembledPrompt,
    default_catalog,
    detection_prompt,
    extraction_prompt,
    connective_prompt,
    load_catalog,
    parse_catalog,
    parse_detection,
    parse_extraction,
    render_example,
)
from causal_rag.repository import ExampleRecord
from causal_rag.retrieval import ExampleProvenance, RetrievalResult, StrategyKind


def record(rid: str, tagged: str, connectives: tuple[str, ...] = ("caused by",)) -> ExampleRecord:
    return ExampleRecord(
        id=rid,
        raw_text=tagged.replace("<cause>", "")
        .replace("</cause>", "")
        .replace("<effect>", "")
        .replace("</effect>", ""),
        tagged_text=tagged,
        pairs=(CauseEffectPair("x", "y"),),
        connectives=connectives,
        source="t",
    )


def result(strategy: StrategyKind, records: list[ExampleRecord]) -> RetrievalResult:
    return RetrievalResult(
        examples=tuple(records),
        provenance=tuple(
            ExampleProvenance(record_id=r.id, origin=strategy.value) for r in records
        ),
        strategy=strategy,
        fallback_used=False,
    )


def ten_records() -> list[ExampleRecord]:
    return [
        record(f"t-{i:06d}", f"<cause>c{i}</cause> made <effect>e{i}</effect>")
        for i in range(10)
    ]


def test_default_catalog_loads() -> None:
    catalog = default_catalog()
    assert catalog.version == 1
    assert "detection_system" in catalog.blocks
    assert "{sentence}" in catalog.block("detection_user")


def test_catalog_parse_rejects_missing_blocks() -> None:
    with pytest.raises(ValueError):
        parse_catalog("catalog_version: 1\n--- detection_system ---\nhi\n")


def test_catalog_parse_rejects_missing_version() -> None:
    with pytest.raises(ValueError):
        parse_catalog("--- detection_system ---\nhi\n")


def test_catalog_custom_file(tmp_path) -> None:
    source = default_catalog()
    blocks = "\n".join(
        f"--- {key} ---\n{text}" for key, text in source.blocks.items()
    )
    path = tmp_path / "cat.txt"
    path.write_text(f"catalog_version: 7\n{blocks}\n")
    catalog = load_catalog(path)
    assert catalog.version == 7
    prompt = detection_prompt("a sentence", None, catalog)
    assert prompt.system_text.startswith("[catalog v7]")


def test_detection_zeroshot_shape() -> None:
    prompt = detection_prompt("Smoking causes cancer.")
    assert isinstance(prompt, AssembledPrompt)
    assert prompt.example_count == 0
    assert "Below are" not in prompt.user_text
    assert "Smoking causes cancer." in prompt.user_text
    assert prompt.system_text.startswith("[catalog v1]")


def test_detection_fewshot_leadin_and_examples() -> None:
    records = ten_records()
    prompt = detection_prompt("input sentence", result(StrategyKind.RANDOM, records))
    assert prompt.example_count == 10
    assert prompt.user_text.count("Below are 10 example sentences") == 1
    for r in records:
        assert r.tagged_text in prompt.user_text
    # detection examples carry no connective annotation
    assert "causal connective:" not in prompt.user_text


def test_leadin_count_matches_actual_examples() -> None:
    records = ten_records()[:3]
    prompt = detection_prompt("input", result(StrategyKind.KNN, records))
    assert "Below are 3 example sentences" in prompt.user_text
    assert prompt.example_count == 3


def test_twenty_examples_knn_pattern() -> None:
    records = [
        record(f"t-{i:06d}", f"<cause>c{i}</cause> made <effect>e{i}</effect>")
        for i in range(20)
    ]
    prompt = detection_prompt("input", result(StrategyKind.KNN_PATTERN, records))
    assert prompt.example_count == 20
    assert "Below are 20 example sentences" in prompt.user_text


def test_extraction_examples_carry_connective() -> None:
    records = [record("t-000001", "<cause>a</cause> led to <effect>b</effect>", ("led to",))]
    prompt = extraction_prompt("input", result(StrategyKind.PATTERN, records))
    assert "(causal connective: led to)" in prompt.user_text
    assert render_example(records[0], "extract").endswith("(causal connective: led to)")
    assert render_example(records[0], "detect") == records[0].tagged_text


def test_extraction_single_pair_constraint() -> None:
    base = extraction_prompt("input", None, single_pair=False)
    constrained = extraction_prompt("input", None, single_pair=True)
    assert "exactly one cause-effect pair" not in base.system_text
    assert "exactly one cause-effect pair" in constrained.system_text


def test_prompt_assembly_deterministic() -> None:
    records = ten_records()
    a = detection_prompt("same input", result(StrategyKind.KNN, records))
    b = detection_prompt("same input", result(StrategyKind.KNN, records))
    assert a == b
    assert a.system_text == b.system_text and a.user_text == b.user_text


def test_sentences_with_braces_survive() -> None:
    sentence = "The {code} block caused a crash."
    prompt = detection_prompt(sentence)
    assert sentence in prompt.user_text


def test_connective_prompt_shape() -> None:
    prompt = connective_prompt("fever is caused by flu")
    assert prompt.example_count == 0
    assert "fever is caused by flu" in prompt.user_text
    # static demonstrations are part of the template
    assert prompt.user_text.count("Causal connective:") >= 3


def test_empty_sentence_rejected() -> None:
    with pytest.raises(ValueError):
        detection_prompt("  ")
    with pytest.raises(ValueError):
        extraction_prompt("")
    with pytest.raises(ValueError):
        connective_prompt(" ")


def pair(cause: str, effect: str) -> dict:
    return {"cause": cause, "effect": effect}


def test_parse_detection_bare() -> None:
    assert parse_detection("1") == {"label": 1}
    assert parse_detection("0") == {"label": 0}


def test_parse_detection_tolerant_scan() -> None:
    assert parse_detection("Answer: 0.") == {"label": 0}
    assert parse_detection("The answer is 1 because the sentence is causal") == {"label": 1}


def test_parse_detection_word_boundary() -> None:
    # "10" is not a standalone 1 or 0; "0" after it is
    assert parse_detection("rating 10, label 0") == {"label": 0}
    with pytest.raises(UnparseableResponseError):
        parse_detection("score is 10")


def test_parse_detection_unparseable() -> None:
    with pytest.raises(UnparseableResponseError):
        parse_detection("maybe")
    with pytest.raises(UnparseableResponseError):
        parse_detection("")


def test_parse_extraction_single_pair() -> None:
    pred = parse_extraction(
        "<cause>salmonella bacteria</cause> <effect>foodborne illness</effect>"
    )
    assert pred["pairs"] == [pair("salmonella bacteria", "foodborne illness")]
    assert pred["dropped_spans"] == 0
    assert pred["overlap_flag"] is False


def test_parse_extraction_positional_pairing() -> None:
    pred = parse_extraction(
        "<cause>a</cause> x <effect>b</effect> y <cause>c</cause> z <effect>d</effect>"
    )
    assert pred["pairs"] == [pair("a", "b"), pair("c", "d")]


def test_parse_extraction_effect_first_order() -> None:
    pred = parse_extraction("<effect>The fire</effect> because of <cause>a short</cause>")
    assert pred["pairs"] == [pair("a short", "The fire")]


def test_parse_extraction_unmatched_dropped() -> None:
    pred = parse_extraction("<cause>a</cause> <cause>b</cause> <effect>c</effect>")
    assert pred["pairs"] == [pair("a", "c")]
    assert pred["dropped_spans"] == 1


def test_parse_extraction_empty_span_skipped() -> None:
    pred = parse_extraction("<cause>  </cause> <cause>a</cause> <effect>b</effect>")
    assert pred["pairs"] == [pair("a", "b")]
    assert pred["dropped_spans"] == 1


def test_parse_extraction_no_tags() -> None:
    with pytest.raises(UnparseableResponseError):
        parse_extraction("there are no tags in this prose")


def test_parse_extraction_incomplete_pair() -> None:
    with pytest.raises(UnparseableResponseError):
        parse_extraction("<cause>a</cause> and nothing else")


def test_parse_extraction_overlap_flag() -> None:
    pred = parse_extraction(
        "<cause>heavy rain</cause> brought <effect>rain damage</effect>"
    )
    assert pred["overlap_flag"] is True


def test_parse_extraction_round_trip_with_render() -> None:
    for i in range(10):
        pred = parse_extraction(f"<cause>c{i}</cause> made <effect>e{i}</effect>")
        assert pred["pairs"] == [pair(f"c{i}", f"e{i}")]


def test_parse_extraction_whitespace_normalized() -> None:
    pred = parse_extraction("<cause> heavy\n rain </cause> x <effect>floods </effect>")
    assert pred["pairs"] == [pair("heavy rain", "floods")]
