"""Tests for containment matching and the three scoring modes."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import asdict

import pytest

from causal_rag.corpus import CauseEffectPair, LabeledInstance, TaggedSentence, Triplet
from causal_rag.errors import EmptyInputError, UnparseableResponseError
from causal_rag.evaluation import (
    ConfusionCounts,
    ExtractionOutcome,
    PredictionRecord,
    Tally,
    build_report,
    containment_match,
    detection_metrics,
    norm_tokens,
    render_table,
    sentence_outcome,
    single_pair_accuracy,
    triplet_metrics,
)
from causal_rag.gateway import TranscriptEntry
from causal_rag.jsonl import encode_line
from causal_rag.kernels import token_subsequence
from causal_rag.prompting import parse_detection, parse_extraction
from causal_rag.retrieval import ExampleProvenance, StrategyKind

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def test_norm_tokens() -> None:
    assert norm_tokens("The Quick, brown fox.") == ("the", "quick", "brown", "fox")
    assert norm_tokens("weapons,") == ("weapons",)
    assert norm_tokens("troglitazone-induced injury") == ("troglitazone-induced", "injury")
    assert norm_tokens("  ") == ()
    assert norm_tokens("...") == ()


def test_containment_identity() -> None:
    assert containment_match("blast", "blast") is True


def test_containment_prediction_extension() -> None:
    assert containment_match("mishandling", "mishandling of weapons") is True


def test_containment_article_drop_fails() -> None:
    assert containment_match("the foodborne illness", "foodborne illness") is False


def test_containment_directional() -> None:
    assert containment_match("mishandling of weapons", "mishandling") is False


def test_containment_contiguity_required() -> None:
    assert containment_match("heavy rain", "heavy and cold rain") is False
    assert containment_match("heavy rain", "very heavy rain today") is True


def test_containment_case_and_punct_normalized() -> None:
    assert containment_match("Storm Surge", "the storm surge, reported yesterday") is True
    assert containment_match("weapons", "mishandling of weapons.") is True


def test_containment_rejects_empty_gold() -> None:
    """A blank gold phrase is refused, even when the prediction equals it."""
    for gold, predicted in [("  ", "anything"), ("", ""), ("  ", "  "), ("\t\n", "\t\n")]:
        with pytest.raises(ValueError):
            containment_match(gold, predicted)


def test_containment_is_token_subsequence_of_normalized_tokens_seeded() -> None:
    """Equal phrases match without being tokenized; every answer is still
    `token_subsequence` of the two phrases' normalized tokens."""
    rng = random.Random(25)
    pieces = WORDS[:4] + ["Alpha", "BRAVO", "alpha,", "(bravo)", "...", "'", "-", "é"]

    def phrase() -> str:
        return " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 4)))

    def variant(text: str) -> str:
        edit = rng.randrange(4)
        if edit == 0:
            return text
        if edit == 1:
            return text.upper() if rng.random() < 0.5 else text.title()
        if edit == 2:
            return rng.choice(["", "\"", "(", "..."]) + text + rng.choice(["", ".", ",", "..."])
        return f"{phrase()} {text} {phrase()}".strip()

    equal = 0
    for _ in range(2000):
        gold = phrase() or "..."
        predicted = variant(gold) if rng.random() < 0.8 else phrase()
        if not gold.strip():
            continue
        equal += predicted == gold
        assert containment_match(gold, predicted) is token_subsequence(
            norm_tokens(gold), norm_tokens(predicted)), (gold, predicted)
    assert equal > 300, equal
    for gold, predicted in [("...", "..."), ("...", "rain"), ("rain", "..."),
                            ("Heavy Rain", "heavy rain."), ("heavy rain", "Heavy rain"),
                            ('"rain"', "rain"), ("rain,", "(rain)")]:
        assert containment_match(gold, predicted) is token_subsequence(
            norm_tokens(gold), norm_tokens(predicted)), (gold, predicted)


def test_containment_properties_seeded() -> None:
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(1, 5)
        gold_tokens = [rng.choice(WORDS) for _ in range(n)]
        gold = " ".join(gold_tokens)
        # reflexivity
        assert containment_match(gold, gold)
        # extension monotonicity: appending/prepending tokens keeps it true
        extended = f"{rng.choice(WORDS)} {gold} {rng.choice(WORDS)}"
        assert containment_match(gold, extended)
        # breaking contiguity turns it false
        if n >= 2:
            broken = " ".join(gold_tokens[:1] + ["zzz"] + gold_tokens[1:])
            assert not containment_match(gold, broken)


def test_detection_all_correct() -> None:
    metrics = detection_metrics([(1, 1), (0, 0), (1, 1)])
    assert metrics.accuracy == 1.0
    assert metrics.f1 == 1.0
    assert metrics.counts == ConfusionCounts(tp=2, fp=0, tn=1, fn=0)


def test_detection_reference_confusion() -> None:
    # tp=2, fp=1, fn=1, tn=1
    preds = [(1, 1), (1, 1), (1, 0), (0, 1), (0, 0)]
    metrics = detection_metrics(preds)
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(2 / 3)
    assert metrics.f1 == pytest.approx(2 / 3)
    assert metrics.accuracy == pytest.approx(0.6)


def test_detection_degenerate_no_positive_predictions() -> None:
    metrics = detection_metrics([(0, 1), (0, 0)])
    assert metrics.precision == 0.0
    assert metrics.recall == 0.0
    assert metrics.f1 == 0.0


def test_detection_empty_input() -> None:
    with pytest.raises(EmptyInputError):
        detection_metrics([])


def test_detection_rejects_non_binary() -> None:
    with pytest.raises(ValueError):
        detection_metrics([(2, 1)])


def test_detection_order_invariant_seeded() -> None:
    rng = random.Random(5)
    preds = [(rng.randrange(2), rng.randrange(2)) for _ in range(40)]
    base = detection_metrics(preds)
    for _ in range(5):
        shuffled = preds[:]
        rng.shuffle(shuffled)
        assert detection_metrics(shuffled) == base


def test_single_pair_success_containment() -> None:
    items = [
        (
            "s-1",
            CauseEffectPair("stress", "fever"),
            CauseEffectPair("stress and/or pain", "a fever"),
        )
    ]
    accuracy, outcomes = single_pair_accuracy(items)
    assert accuracy == 1.0
    assert outcomes[0].success and outcomes[0].cause_matched and outcomes[0].effect_matched


def test_single_pair_swapped_fails() -> None:
    items = [
        ("s-1", CauseEffectPair("storm", "outage"), CauseEffectPair("outage", "storm"))
    ]
    accuracy, outcomes = single_pair_accuracy(items)
    assert accuracy == 0.0
    assert not outcomes[0].success


def test_single_pair_missing_prediction_is_failure() -> None:
    items = [
        ("s-1", CauseEffectPair("a", "b"), CauseEffectPair("a", "b")),
        ("s-2", CauseEffectPair("c", "d"), None),
    ]
    accuracy, outcomes = single_pair_accuracy(items)
    assert accuracy == 0.5
    assert outcomes[1].success is False and outcomes[1].cause_matched is False


def test_single_pair_overlap_flag() -> None:
    items = [
        (
            "s-1",
            CauseEffectPair("rain", "flood"),
            CauseEffectPair("heavy rain", "rain flood"),
        )
    ]
    _, outcomes = single_pair_accuracy(items)
    assert outcomes[0].overlap_flag is True


def test_single_pair_empty_input() -> None:
    with pytest.raises(EmptyInputError):
        single_pair_accuracy([])


def test_single_pair_order_invariant() -> None:
    items = [
        ("s-1", CauseEffectPair("a", "b"), CauseEffectPair("a", "b")),
        ("s-2", CauseEffectPair("c", "d"), None),
        ("s-3", CauseEffectPair("e", "f"), CauseEffectPair("x", "y")),
    ]
    accuracy, _ = single_pair_accuracy(items)
    accuracy_reversed, _ = single_pair_accuracy(list(reversed(items)))
    assert accuracy == accuracy_reversed


def t(sid: str, cause: str, effect: str) -> Triplet:
    return Triplet(sentence_id=sid, cause=cause, effect=effect)


def test_triplet_two_pair_sentence_exact() -> None:
    gold = [
        t("li-1", "hormone deficiencies and imbalances", "Paralysis"),
        t("li-1", "hormone deficiencies and imbalances", "convulsions"),
    ]
    metrics = triplet_metrics(gold, list(gold))
    assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)
    assert metrics.matched == 2


def test_triplet_two_of_three() -> None:
    gold = [t("a", "x1", "y1"), t("b", "x2", "y2"), t("c", "x3", "y3")]
    predicted = [t("a", "x1", "y1"), t("b", "wrong", "y2"), t("c", "x3", "y3")]
    metrics = triplet_metrics(gold, predicted)
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(2 / 3)
    assert metrics.f1 == pytest.approx(2 / 3)


def test_triplet_empty_predictions() -> None:
    gold = [t("a", "x", "y")]
    metrics = triplet_metrics(gold, [])
    assert (metrics.precision, metrics.recall, metrics.f1) == (0.0, 0.0, 0.0)
    assert metrics.predicted_total == 0


def test_triplet_containment_matching() -> None:
    gold = [t("a", "mishandling", "deaths")]
    predicted = [t("a", "mishandling of weapons", "several deaths")]
    assert triplet_metrics(gold, predicted).matched == 1
    # different sentence id never matches
    assert triplet_metrics(gold, [t("b", "mishandling", "deaths")]).matched == 0


def test_triplet_one_to_one_constraint() -> None:
    # one generous prediction cannot satisfy two gold triplets
    gold = [t("a", "rain", "floods"), t("a", "rain", "mudslides")]
    predicted = [t("a", "heavy rain", "floods and mudslides")]
    metrics = triplet_metrics(gold, predicted)
    assert metrics.matched == 1
    assert metrics.precision == 1.0
    assert metrics.recall == 0.5


def _brute_force_max_matching(gold: list[Triplet], predicted: list[Triplet]) -> int:
    """Try every assignment of gold triplets to distinct predictions."""
    best = 0
    indices = list(range(len(predicted)))
    for perm in itertools.permutations(indices, min(len(gold), len(predicted))):
        count = 0
        for g, pi in zip(gold, perm):
            if triplet_compatible_for_test(g, predicted[pi]):
                count += 1
        best = max(best, count)
    return best


def triplet_compatible_for_test(g: Triplet, p: Triplet) -> bool:
    return (
        g.sentence_id == p.sentence_id
        and containment_match(g.cause, p.cause)
        and containment_match(g.effect, p.effect)
    )


def test_triplet_optimal_equals_brute_force_seeded() -> None:
    rng = random.Random(808)
    for _ in range(30):
        n_gold = rng.randrange(1, 5)
        n_pred = rng.randrange(0, 5)
        gold = [
            t("s", rng.choice(WORDS), rng.choice(WORDS)) for _ in range(n_gold)
        ]
        predicted = [
            t(
                "s",
                " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, 3))),
                " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, 3))),
            )
            for _ in range(n_pred)
        ]
        optimal = triplet_metrics(gold, predicted, matching="optimal")
        assert optimal.matched == _brute_force_max_matching(gold, predicted)
        greedy = triplet_metrics(gold, predicted, matching="greedy")
        assert greedy.matched <= optimal.matched


def test_triplet_greedy_equals_optimal_when_unambiguous() -> None:
    # each gold compatible with at most one prediction: greedy is optimal
    gold = [t("a", "x1", "y1"), t("b", "x2", "y2")]
    predicted = [t("b", "x2", "y2"), t("a", "x1", "y1")]
    assert (
        triplet_metrics(gold, predicted, "greedy").matched
        == triplet_metrics(gold, predicted, "optimal").matched
        == 2
    )


def test_triplet_rejects_unknown_matching() -> None:
    with pytest.raises(ValueError):
        triplet_metrics([], [], matching="hungarian")


def test_triplet_identical_phrases_under_different_sentence_ids() -> None:
    gold = [t("a", "rain", "floods"), t("b", "rain", "floods")]
    # both predictions belong to b: a's gold triplet cannot borrow one
    only_b = [t("b", "rain", "floods"), t("b", "rain", "floods")]
    for matching in ("greedy", "optimal"):
        metrics = triplet_metrics(gold, only_b, matching)
        assert (metrics.matched, metrics.precision, metrics.recall) == (1, 0.5, 0.5)
        both = triplet_metrics(gold, list(reversed(gold)), matching)
        assert both.matched == 2


def test_triplet_predictions_for_a_sentence_without_gold() -> None:
    gold = [t("a", "x", "y")]
    predicted = [t("z", "x", "y"), t("z", "x", "y"), t("a", "x", "y")]
    for matching in ("greedy", "optimal"):
        metrics = triplet_metrics(gold, predicted, matching)
        assert metrics.matched == 1
        assert metrics.precision == pytest.approx(1 / 3)
        assert metrics.recall == 1.0
        unmatched = triplet_metrics([], predicted, matching)
        assert (unmatched.matched, unmatched.precision, unmatched.recall) == (0, 0.0, 0.0)


# --- oracle: the all-pairs matchers, comparing across sentences --------------


def _all_pairs_greedy(gold: list[Triplet], predicted: list[Triplet]) -> int:
    used = [False] * len(predicted)
    matched = 0
    for g in gold:
        for i, p in enumerate(predicted):
            if not used[i] and triplet_compatible_for_test(g, p):
                used[i] = True
                matched += 1
                break
    return matched


def _all_pairs_optimal(gold: list[Triplet], predicted: list[Triplet]) -> int:
    compat = [[triplet_compatible_for_test(g, p) for p in predicted] for g in gold]
    owner: list[int | None] = [None] * len(predicted)

    def augment(gi: int, seen: list[bool]) -> bool:
        for pi in range(len(predicted)):
            if compat[gi][pi] and not seen[pi]:
                seen[pi] = True
                if owner[pi] is None or augment(owner[pi], seen):
                    owner[pi] = gi
                    return True
        return False

    return sum(1 for gi in range(len(gold)) if augment(gi, [False] * len(predicted)))


def test_triplet_per_sentence_matching_equals_all_pairs_oracle_seeded() -> None:
    rng = random.Random(2024)
    sentence_ids = ["s1", "s2", "s3"]
    # two words only, so phrases repeat across sentences and one prediction
    # often contains several gold triplets: greedy then depends on order
    words = WORDS[:2]

    def triplets(count: int, max_words: int) -> list[Triplet]:
        def phrase() -> str:
            return " ".join(rng.choice(words) for _ in range(rng.randrange(1, max_words + 1)))

        return [t(rng.choice(sentence_ids), phrase(), phrase()) for _ in range(count)]

    greedy_below_optimal = 0
    for _ in range(1000):
        gold = triplets(rng.randrange(0, 10), 1)
        predicted = triplets(rng.randrange(0, 10), 2)
        greedy = triplet_metrics(gold, predicted, "greedy").matched
        optimal = triplet_metrics(gold, predicted, "optimal").matched
        assert greedy == _all_pairs_greedy(gold, predicted)
        assert optimal == _all_pairs_optimal(gold, predicted)
        greedy_below_optimal += greedy < optimal
    assert greedy_below_optimal > 0


def test_metric_bounds_seeded() -> None:
    rng = random.Random(123)
    for _ in range(50):
        preds = [(rng.randrange(2), rng.randrange(2)) for _ in range(rng.randrange(1, 30))]
        m = detection_metrics(preds)
        for value in (m.accuracy, m.precision, m.recall, m.f1):
            assert 0.0 <= value <= 1.0
        if m.precision + m.recall > 0:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(expected)
        else:
            assert m.f1 == 0.0


def test_build_report_and_render() -> None:
    metrics = detection_metrics([(1, 1), (0, 0), (1, 0)])
    config = {
        "strategy": "pattern",
        "k": 10,
        "seed": 3,
        "matcher": "edit_ratio",
        "threshold": 0.9,
        "catalog_version": 1,
    }
    report = build_report("detect", metrics, config)
    assert report["task"] == "detect"
    assert report["config"]["catalog_version"] == 1
    assert report["metrics"]["counts"]["tp"] == 1
    # report is JSON-serializable
    json.dumps(report)
    table = render_table(report)
    lines = table.splitlines()
    assert lines[0].startswith("task")
    assert any(line.startswith("accuracy") for line in lines)
    assert any(line.startswith("config.strategy") and "pattern" in line for line in lines)
    # aligned: every value column starts at the same offset
    offsets = {len(line) - len(line.split(maxsplit=1)[1]) for line in lines if " " in line}
    assert len(offsets) >= 1


def test_extraction_outcome_invariant() -> None:
    outcome = ExtractionOutcome(
        sentence_id="s", success=True, cause_matched=True, effect_matched=True, overlap_flag=False
    )
    assert outcome.success == (outcome.cause_matched and outcome.effect_matched)


def _prediction(task: str, sid: str, count: int, answer) -> dict:
    """A prediction line's object as a run writes it, with `count` random
    examples; `answer` None, or an answer of no pair, did not parse."""
    if answer is None or (task == "extract" and not answer):
        parsed = None
    elif task == "detect":
        parsed = {"label": answer}
    else:
        parsed = {"pairs": [{"cause": p.cause, "effect": p.effect} for p in answer],
                  "overlap_flag": False, "dropped_spans": 0}
    return {"sentence_id": sid, "task": task, "strategy": "random", "prompt_hash": "0" * 64,
            "example_count": count, "fallback_used": False,
            "provenance": [{"origin": "random", "record_id": f"r{i}"} for i in range(count)],
            "response": "", "parsed": parsed, "parse_error": parsed is None, "timing_ms": 0.0}


@pytest.mark.parametrize("task, single_pair, matching", [
    ("detect", False, "greedy"),
    ("extract", True, "greedy"),
    ("extract", False, "greedy"),
    ("extract", False, "optimal"),
])
def test_tally_of_sentence_outcomes_equals_one_scoring_pass_seeded(
        task, single_pair, matching) -> None:
    rng = random.Random(99)

    # one-word gold phrases and two-word predictions over two words, so
    # one prediction often contains several gold pairs and greedy can lose
    def pairs(most: int, words: int) -> tuple[CauseEffectPair, ...]:
        def phrase() -> str:
            return " ".join(rng.choice(WORDS[:2]) for _ in range(rng.randrange(1, words + 1)))

        return tuple(CauseEffectPair(phrase(), phrase()) for _ in range(rng.randrange(1, most + 1)))

    if task == "extract" and not single_pair:
        # two gold pairs compete for the one prediction that holds both:
        # greedy gives it to the first and leaves the second unmatched
        gold = (CauseEffectPair("alpha", "bravo"), CauseEffectPair("alpha", "charlie"))
        answer = (CauseEffectPair("alpha", "bravo charlie"), CauseEffectPair("alpha", "bravo"))
        record = PredictionRecord.of(_prediction(task, "s0", 0, answer), task)
        instance = LabeledInstance(TaggedSentence("s0", "text", gold, "t"), 1)
        matched = {"greedy": 1, "optimal": 2}[matching]
        assert sentence_outcome(record, instance, False, matching).counts == (matched, 2, 2)
        assert triplet_metrics([t("s0", p.cause, p.effect) for p in gold],
                               [t("s0", p.cause, p.effect) for p in answer],
                               matching).matched == matched

    for _ in range(200):
        instances, records = [], []
        for i in range(rng.randrange(1, 12)):
            gold = pairs(1 if single_pair else 3, 1)
            instance = LabeledInstance(TaggedSentence(f"s{i}", "text", gold, "t"), rng.randrange(2))
            answer = None if rng.random() < 0.2 else (
                rng.randrange(2) if task == "detect" else pairs(3, 2)[: rng.randrange(4)])
            record = PredictionRecord.of(_prediction(task, f"s{i}", rng.randrange(6), answer), task)
            assert record.sentence_id == f"s{i}"
            instances.append(instance)
            records.append(record)

        outcomes = [sentence_outcome(r, inst, single_pair, matching)
                    for r, inst in zip(records, instances)]
        metrics = Tally(task, single_pair, outcomes).metrics()
        assert Tally(task, single_pair, rng.sample(outcomes, len(outcomes))).metrics() == metrics
        counts = [r.example_count for r in records]
        assert [metrics.pop(key) for key in ("examples_mean", "examples_max", "parse_failures")] == [
            round(sum(counts) / len(counts), 4), max(counts), sum(r.parse_error for r in records)]

        if task == "detect":
            preds = [(1 - inst.label if r.parsed is None else r.parsed["label"], inst.label)
                     for r, inst in zip(records, instances)]
            assert metrics == asdict(detection_metrics(preds))
        elif single_pair:
            items = [(inst.sentence.id, inst.sentence.pairs[0],
                      CauseEffectPair(**r.parsed["pairs"][0])
                      if r.parsed and r.parsed["pairs"] else None)
                     for r, inst in zip(records, instances)]
            accuracy, scored = single_pair_accuracy(items)
            assert metrics == {"accuracy": accuracy, "successes": sum(o.success for o in scored),
                               "total": len(scored),
                               "overlap_count": sum(o.overlap_flag for o in scored)}
        else:
            gold = [t(inst.sentence.id, p.cause, p.effect)
                    for inst in instances for p in inst.sentence.pairs]
            predicted = [t(r.sentence_id, p["cause"], p["effect"])
                         for r in records if r.parsed for p in r.parsed["pairs"]]
            assert metrics == asdict(triplet_metrics(gold, predicted, matching))


def test_every_parsed_answer_is_what_a_prediction_line_holds_seeded() -> None:
    """Whatever a parser returns, `PredictionRecord.of` accepts as `parsed`,
    as it is and read back from the record's line."""
    rng = random.Random(24)
    words = ["0", "1", "10", "label", "rain", "Heavy", "flood,", "  ", "\n", "."]

    def piece() -> str:
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 4)))
        tag = rng.choice(["cause", "effect", None, None])
        return f"<{tag}>{text}</{tag}>" if tag else text

    accepted = Counter()
    for _ in range(1000):
        response = " ".join(piece() for _ in range(rng.randrange(1, 8)))
        for task, parse in (("detect", parse_detection), ("extract", parse_extraction)):
            try:
                parsed = parse(response)
            except UnparseableResponseError:
                continue
            obj = {**_prediction(task, "s0", 0, None), "parsed": parsed, "parse_error": False}
            record = PredictionRecord.of(obj, task)
            assert record.parsed is parsed
            assert PredictionRecord.of(json.loads(record.line()), task) == record
            accepted[task] += 1
    assert min(accepted["detect"], accepted["extract"]) > 100, accepted


_NO_DEFAULT = object()


@pytest.mark.parametrize("kind, fields", [
    (ExampleProvenance, {"record_id": _NO_DEFAULT, "origin": _NO_DEFAULT, "score": None,
                         "connective": None}),
    (PredictionRecord, dict.fromkeys(
        ("sentence_id", "task", "strategy", "prompt_hash", "example_count", "fallback_used",
         "provenance", "response", "parsed", "parse_error", "timing_ms"), _NO_DEFAULT)),
    (TranscriptEntry, dict.fromkeys(("request_hash", "response_text", "timestamp"),
                                    _NO_DEFAULT)),
], ids=["ExampleProvenance", "PredictionRecord", "TranscriptEntry"])
def test_per_record_value_types_keep_their_fields_and_stay_immutable(kind, fields) -> None:
    """Each is a named tuple, cheap to build: the field names, their order and
    their defaults are those of the frozen dataclass it replaced, and no
    field can be assigned."""
    assert kind._fields == tuple(fields)
    assert kind._field_defaults == {
        name: default for name, default in fields.items() if default is not _NO_DEFAULT}
    value = kind(*[f"v{i}" for i in range(len(fields))])
    assert value == kind(**{name: f"v{i}" for i, name in enumerate(fields)})
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, "other")
    with pytest.raises(AttributeError):
        value.extra = "other"


def test_a_fallback_record_spells_each_provenance_entry_as_an_object() -> None:
    drawn = (ExampleProvenance("r2", "random"), ExampleProvenance("r1", "random"))
    fallback = tuple(p._replace(origin="random-fallback") for p in drawn)
    assert [p.origin for p in drawn] == ["random", "random"]
    record = PredictionRecord("s1", "detect", StrategyKind.PATTERN, "0" * 64, 2, True, fallback,
                              "yes", {"label": 1}, False, 0.0)
    assert json.loads(record.line())["provenance"] == [
        {"origin": "random-fallback", "record_id": "r2"},
        {"origin": "random-fallback", "record_id": "r1"},
    ]
    assert PredictionRecord.of(json.loads(record.line()), "detect") == record


def test_an_empty_tally_has_nothing_to_score() -> None:
    with pytest.raises(EmptyInputError):
        Tally("detect").metrics()


def _documented_line(record: PredictionRecord) -> str:
    """`encode_line` of the object a prediction line documents: each
    provenance entry without its None fields, its score rounded to 6 places."""
    provenance = []
    for p in record.provenance:
        entry: dict = {"record_id": p.record_id, "origin": p.origin}
        if p.score is not None:
            entry["score"] = round(p.score, 6)
        if p.connective is not None:
            entry["connective"] = p.connective
        provenance.append(entry)
    return encode_line({
        "sentence_id": record.sentence_id, "task": record.task,
        "strategy": record.strategy.value, "prompt_hash": record.prompt_hash,
        "example_count": record.example_count, "fallback_used": record.fallback_used,
        "provenance": provenance, "response": record.response, "parsed": record.parsed,
        "parse_error": record.parse_error, "timing_ms": record.timing_ms,
    })


def test_a_prediction_line_is_encode_line_of_its_documented_object_seeded() -> None:
    """`line()` spells the line out field by field: byte for byte what
    `encode_line` gives of the record as an object, for strings that need
    escapes or are not ASCII, every kind of score and parsed answer, both
    booleans and integer or float timings."""
    rng = random.Random(2025)
    alphabet = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029",
                "/", "é", "ß", "因果", "洪水", "😀", "🌧️", "a", "Z", "0", " ", "<", ">", "&"]
    scores = [None, 0.1234565, 1e-07, -0.0, 0.9, 1.0, 0.5000005, 123.4567891]

    def text() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))

    def parsed_answer(task: str):
        if rng.random() < 0.25:
            return None
        if task == "detect":
            return {"label": rng.randrange(2)}
        pairs = [{"cause": text(), "effect": text()} for _ in range(rng.randrange(1, 4))]
        return {"pairs": pairs, "overlap_flag": rng.random() < 0.5,
                "dropped_spans": rng.randrange(3)}

    seen = Counter()
    for i in range(1200):
        task = rng.choice(["detect", "extract"])
        provenance = tuple(
            ExampleProvenance(text() or f"r{j}", rng.choice(["random", "knn", "pattern",
                                                             "random-fallback"]),
                              rng.choice(scores + [rng.uniform(-1, 1)]),
                              rng.choice([None, text()]))
            for j in range(rng.randrange(0, 4)))
        parsed = parsed_answer(task)
        record = PredictionRecord(
            text() or f"s{i}", task, rng.choice(list(StrategyKind)),
            "".join(rng.choice("0123456789abcdef") for _ in range(64)), len(provenance),
            rng.random() < 0.5, provenance, text(), parsed, parsed is None,
            rng.choice([0.0, 0, 3, 12.345, rng.uniform(0, 1000)]))
        assert record.line() == _documented_line(record), record
        again = PredictionRecord.of(json.loads(record.line()), task)
        assert again.line() == record.line()
        seen.update(kind for kind, hit in [
            ("fallback", record.fallback_used), ("no fallback", not record.fallback_used),
            ("parsed null", parsed is None), ("integer timing", type(record.timing_ms) is int),
            ("connective", any(p.connective is not None for p in provenance)),
            ("no connective", any(p.connective is None for p in provenance)),
            ("no score", any(p.score is None for p in provenance)),
            ("three pairs", parsed is not None and len(parsed.get("pairs", ())) == 3),
        ] if hit)
    assert min(seen.values()) > 50 and len(seen) == 8, seen
    # a score written as the integer 1 reads back as 1 and is written as 1
    obj = _prediction("detect", "s1", 1, 1)
    obj["provenance"] = [{"origin": "knn", "record_id": "r0", "score": 1}]
    record = PredictionRecord.of(obj, "detect")
    assert record.provenance[0].score == 1 and type(record.provenance[0].score) is int
    assert record.line() == _documented_line(record) == encode_line(obj)
    assert '"score": 1}' in record.line()
