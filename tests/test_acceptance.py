"""Acceptance gate: one test per shipped guarantee, strictest tolerances.

Each test prints a single ``criterion N: PASS`` line on success so the gate
reads as a checklist under ``pytest -v -rA``. Values pinned here were
hand-derived from the fixture tables (see fixture_llm.py) or computed by
independent oracles written inside this file; none are copied back from the
implementation's own output.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from fixture_llm import FIXTURE_MODEL_ID, FixtureResponder, ScriptedBackend
from test_embedding import cosine_similarity, index_of

from causal_rag.corpus import CauseEffectPair, TaggedSentence, Triplet
from causal_rag.embedding import (
    EmbeddingService,
    EmbeddingVector,
    LocalHashEmbedder,
    knn_search,
)
from causal_rag.evaluation import (
    containment_match,
    detection_metrics,
    single_pair_accuracy,
    triplet_metrics,
)
from causal_rag.gateway import API_KEY_ENV, LlmClient
from causal_rag.prompting import detection_prompt
from causal_rag.repository import ExampleRecord, Repository, build_repository, save_repository
from causal_rag.retrieval import (
    RetrievalConfig,
    StrategyKind,
    knn_index,
    retrieve_knn_pattern,
    retrieve_pattern,
)
from causal_rag.runner import ExperimentConfig, build_db, run_experiment, sweep

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def ok(n: int, message: str) -> None:
    print(f"criterion {n}: PASS — {message}")


# --- 1. metric oracle suite ---------------------------------------------------


def test_criterion_01_metric_oracle_suite():
    started = time.perf_counter()

    # detection: perfect, inverted, and a hand-counted mix
    perfect = detection_metrics([(1, 1), (0, 0), (1, 1)])
    assert (perfect.accuracy, perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0, 1.0)

    inverted = detection_metrics([(1, 0), (0, 1)])
    assert (inverted.accuracy, inverted.precision, inverted.recall, inverted.f1) == (0.0, 0.0, 0.0, 0.0)

    mixed = detection_metrics([(1, 1), (1, 0), (0, 0), (0, 1), (1, 1)])
    assert (mixed.counts.tp, mixed.counts.fp, mixed.counts.tn, mixed.counts.fn) == (2, 1, 1, 1)
    assert mixed.accuracy == 3 / 5
    assert mixed.precision == 2 / 3
    assert mixed.recall == 2 / 3
    assert mixed.f1 == 2 * (2 / 3) * (2 / 3) / ((2 / 3) + (2 / 3))  # = 2/3

    with pytest.raises(ValueError, match="no predictions to score"):
        detection_metrics([])

    # triplets: two gold pairs sharing one effect phrase, predicted exactly
    s_eye = "sent-eye"
    gold_eye = [
        Triplet(s_eye, "staring effect", "Eye discomfort"),
        Triplet(s_eye, "low humidity", "Eye discomfort"),
    ]
    exact = triplet_metrics(gold_eye, list(gold_eye))
    assert (exact.precision, exact.recall, exact.f1) == (1.0, 1.0, 1.0)
    assert exact.matched == 2

    # a dropped leading article breaks containment (directional match)
    assert containment_match("the foodborne illness", "foodborne illness") is False
    assert containment_match("foodborne illness", "the foodborne illness") is True
    gold_food = [Triplet("s-f", "salmonella bacteria", "the foodborne illness")]
    pred_food = [Triplet("s-f", "salmonella bacteria", "foodborne illness")]
    dropped = triplet_metrics(gold_food, pred_food)
    assert (dropped.precision, dropped.recall, dropped.f1, dropped.matched) == (0.0, 0.0, 0.0, 0)

    # three causes sharing one effect; then one cause missed
    s_fly = "sent-fly"
    gold_fly = [
        Triplet(s_fly, "Heat", "flight delays"),
        Triplet(s_fly, "wind", "flight delays"),
        Triplet(s_fly, "smoke", "flight delays"),
    ]
    assert triplet_metrics(gold_fly, list(gold_fly)).f1 == 1.0
    two_of_three = triplet_metrics(gold_fly, gold_fly[:2])
    assert two_of_three.precision == 1.0
    assert two_of_three.recall == 2 / 3
    assert two_of_three.f1 == 2 * 1.0 * (2 / 3) / (1.0 + (2 / 3))  # = 0.8

    # predicted phrase may extend gold, never truncate it
    grown = triplet_metrics(
        [Triplet("s-m", "mishandling", "the accident")],
        [Triplet("s-m", "mishandling of weapons", "the accident")],
    )
    assert grown.f1 == 1.0

    # matches never cross sentence ids
    crossed = triplet_metrics(
        [Triplet("s-1", "a", "b")], [Triplet("s-2", "a", "b")]
    )
    assert crossed.matched == 0

    # over-prediction: gold 2, predicted 4, 2 matched
    gold_over = [Triplet("s-o", "x y", "z w"), Triplet("s-o", "p q", "r t")]
    pred_over = list(gold_over) + [Triplet("s-o", "junk", "noise"), Triplet("s-o", "more", "junk2")]
    over = triplet_metrics(gold_over, pred_over)
    assert over.precision == 0.5
    assert over.recall == 1.0
    assert over.f1 == 2 * 0.5 * 1.0 / (0.5 + 1.0)  # = 2/3

    # single-pair scoring: exact, extended, truncated, unanswered
    items = [
        ("a", CauseEffectPair("heavy rain", "the flood"), CauseEffectPair("heavy rain", "the flood")),
        ("b", CauseEffectPair("rain", "flood"), CauseEffectPair("the rain", "a flood")),
        ("c", CauseEffectPair("the storm", "delays"), CauseEffectPair("storm", "delays")),
        ("d", CauseEffectPair("x", "y"), None),
    ]
    accuracy, outcomes = single_pair_accuracy(items)
    assert accuracy == 0.5
    assert [o.success for o in outcomes] == [True, True, False, False]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"metric oracles exact on 12 hand-built fixtures in {elapsed:.3f}s")


# --- 2. containment properties -------------------------------------------------


def test_criterion_02_containment_properties():
    started = time.perf_counter()
    rng = random.Random(20240812)
    gold_vocab = [f"g{i}" for i in range(40)]
    junk_vocab = [f"j{i}" for i in range(40)]

    for _ in range(400):  # reflexivity
        phrase = " ".join(rng.sample(gold_vocab, rng.randint(1, 6)))
        assert containment_match(phrase, phrase) is True

    for _ in range(300):  # contiguity: an inserted token breaks the run
        tokens = rng.sample(gold_vocab, rng.randint(2, 6))
        gold = " ".join(tokens)
        cut = rng.randint(1, len(tokens) - 1)
        broken = " ".join(tokens[:cut] + [rng.choice(junk_vocab)] + tokens[cut:])
        assert containment_match(gold, broken) is False, (gold, broken)

    for _ in range(300):  # extension monotonicity: padding never unmatches
        tokens = rng.sample(gold_vocab, rng.randint(1, 6))
        gold = " ".join(tokens)
        prefix = " ".join(rng.sample(junk_vocab, rng.randint(0, 4)))
        suffix = " ".join(rng.sample(junk_vocab, rng.randint(0, 4)))
        padded = f"{prefix} {gold} {suffix}".strip()
        assert containment_match(gold, padded) is True, (gold, padded)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(2, f"1000 randomized containment property cases in {elapsed:.3f}s")


# --- 3. kNN oracle equivalence --------------------------------------------------


def _oracle_top_k(query: EmbeddingVector, corpus: dict, k: int) -> list[tuple[float, str]]:
    """Selection-loop oracle: repeatedly extract the best remaining record,
    preferring higher similarity, then the lexicographically smaller id."""
    remaining = {rid: cosine_similarity(query, vec) for rid, vec in corpus.items()}
    top: list[tuple[float, str]] = []
    while remaining and len(top) < k:
        best_id = None
        best_sim = float("-inf")
        for rid, sim in remaining.items():
            if sim > best_sim or (sim == best_sim and (best_id is None or rid < best_id)):
                best_id, best_sim = rid, sim
        top.append((best_sim, best_id))
        del remaining[best_id]
    return top


def test_criterion_03_knn_matches_exhaustive_oracle():
    started = time.perf_counter()
    rng = random.Random(1311)
    for trial in range(100):
        dim = rng.randint(4, 64)
        size = rng.randint(20, 500)
        corpus = {}
        for i in range(size):
            corpus[f"r{i:04d}"] = EmbeddingVector(
                tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)), "oracle"
            )
        if trial % 2 == 0:  # plant exact ties: duplicated vectors, distinct ids
            donors = rng.sample(sorted(corpus), 5)
            for j, donor in enumerate(donors):
                corpus[f"tie{j:02d}"] = corpus[donor]
        query = EmbeddingVector(tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)), "oracle")

        expected = _oracle_top_k(query, corpus, 10)
        hits = knn_search(query, index_of(corpus), 10)
        assert [(h.similarity, h.record_id) for h in hits] == expected, trial

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(3, f"100 random corpora match the selection-loop oracle in {elapsed:.3f}s")


# --- 4 & 9: the synthetic 12/3/5 repository -------------------------------------

SYN_CONNECTIVE_PLAN = [("caused by", 12), ("lead to", 3), ("induced by", 5)]


def synthetic_corpus() -> tuple[list[TaggedSentence], dict[str, str]]:
    sentences: list[TaggedSentence] = []
    connective_of: dict[str, str] = {}
    i = 0
    for connective, count in SYN_CONNECTIVE_PLAN:
        for _ in range(count):
            i += 1
            text = f"outcome {i:03d} was {connective} trigger {i:03d}."
            sentences.append(
                TaggedSentence(
                    id=f"syn-{i:03d}",
                    raw_text=text,
                    pairs=(CauseEffectPair(f"trigger {i:03d}", f"outcome {i:03d}"),),
                    source="syn",
                )
            )
            connective_of[text] = connective
    return sentences, connective_of


def scripted_llm(connective_of: dict[str, str]) -> LlmClient:
    def respond(request):
        text = request.user_text.rsplit("Sentence: ", 1)[1].split("\n", 1)[0].strip()
        if "single character" in request.system_text:
            return "1"
        return connective_of.get(text, "none")

    return LlmClient(backend=ScriptedBackend(respond), model_id="scripted")


def build_synthetic_repo() -> Repository:
    sentences, connective_of = synthetic_corpus()
    return build_repository(sentences, scripted_llm(connective_of), cap=10, seed=0)


def test_criterion_04_pattern_retrieval_soundness():
    started = time.perf_counter()
    repo = build_synthetic_repo()
    assert len(repo.index["caused by"]) == 10  # 12 candidates capped to 10
    assert len(repo.records) == 18

    exact = retrieve_pattern(["caused by"], repo, RetrievalConfig(k=10))
    assert len(exact.examples) == 10
    assert exact.fallback_used is False
    assert all(p.score == 1.0 for p in exact.provenance)
    assert all(p.connective == "caused by" for p in exact.provenance)

    # under edit_ratio, "caused by the" is 0.6923 similar: below threshold
    fallback = retrieve_pattern(["caused by the"], repo, RetrievalConfig(k=10))
    assert fallback.fallback_used is True
    assert all(p.origin == "random-fallback" for p in fallback.provenance)

    bare = retrieve_pattern(
        ["caused by the"], repo, RetrievalConfig(k=10, fallback_to_random=False)
    )
    assert bare.examples == ()

    # token containment sees "caused by" inside "caused by the"
    contained = retrieve_pattern(
        ["caused by the"], repo, RetrievalConfig(k=10, matcher="token_containment")
    )
    assert contained.fallback_used is False
    assert len(contained.examples) == 10
    assert all(p.connective == "caused by" and p.score == 1.0 for p in contained.provenance)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(4, f"pattern retrieval exact on the 12/3/5 repository in {elapsed:.3f}s")


# --- 5. connective similarity values --------------------------------------------


def _oracle_edit_distance(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[-1][-1]


def test_criterion_05_connective_similarity_values():
    from causal_rag.retrieval import connective_similarity

    started = time.perf_counter()
    pairs = [("caused by", "caused by the", 0.6923), ("lead to", "leads to", 0.875)]
    for a, b, pinned in pairs:
        expected = 1.0 - _oracle_edit_distance(a, b) / max(len(a), len(b))
        got = connective_similarity(a, b)
        assert got == expected
        assert got == pytest.approx(pinned, abs=1e-4)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(5, f"similarity anchors 0.6923 and 0.875 against the DP oracle in {elapsed:.3f}s")


# --- 6. repository invariants ----------------------------------------------------

BIG_PLAN = [
    ("caused by", 30), ("led to", 25), ("due to", 20), ("because of", 18),
    ("resulted in", 15), ("triggered", 12), ("induced", 11), ("owing to", 10),
    ("as a result of", 9), ("stemmed from", 8), ("brought about", 7),
    ("gave rise to", 6), ("sparked", 5), ("provoked", 4), ("produced", 3),
    ("generated", 3), ("fueled", 2), ("prompted", 2), ("forced", 2),
    ("set off", 1), ("unleashed", 1), ("precipitated", 1), ("engendered", 1),
    ("brought on", 1), ("whipped up", 1), ("hastened", 1), ("kindled", 1),
]


def test_criterion_06_repository_invariants(tmp_path):
    from causal_rag.repository import load_repository

    started = time.perf_counter()
    assert sum(count for _, count in BIG_PLAN) == 200

    source = tmp_path / "train.jsonl"
    connective_of: dict[str, str] = {}
    with open(source, "w", encoding="utf-8") as handle:
        i = 0
        for connective, count in BIG_PLAN:
            for _ in range(count):
                i += 1
                text = f"item {i:03d} {connective} widget {i:03d}."
                connective_of[text] = connective
                handle.write(
                    json.dumps(
                        {
                            "id": f"big-{i:03d}",
                            "text": text,
                            "label": 1,
                            "pairs": [
                                {"cause": f"item {i:03d}", "effect": f"widget {i:03d}"}
                            ],
                            "source": "big",
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    paths = []
    for run in range(2):
        db_path = tmp_path / f"repo-{run}.db"
        repo = build_db(
            input_paths=[str(source)],
            db_path=str(db_path),
            model_id="scripted",
            backend=scripted_llm(connective_of).backend,
            cap=10,
            seed=0,
        )
        paths.append(db_path)

    assert paths[0].read_bytes() == paths[1].read_bytes()

    loaded = load_repository(paths[0])
    assert all(len(ids) <= 10 for ids in loaded.index.values())
    expected_records = sum(min(count, 10) for _, count in BIG_PLAN)
    assert len(loaded.records) == expected_records == 139
    assert loaded.records == repo.records
    assert loaded.index == repo.index
    assert (loaded.cap, loaded.seed) == (repo.cap, repo.seed)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(6, f"200-sentence build deterministic, capped, round-trips in {elapsed:.3f}s")


# --- 7. kNN+Pattern composition ----------------------------------------------------


def _record(rid: str, text: str, connective: str) -> ExampleRecord:
    return ExampleRecord(
        id=rid, raw_text=text, tagged_text=text, pairs=(), connectives=(connective,), source="c7"
    )


def _repo(records: list[ExampleRecord]) -> Repository:
    return Repository(records={r.id: r for r in records}, cap=10, seed=0)


def test_criterion_07_knn_pattern_composition():
    started = time.perf_counter()
    query = "gamma delta epsilon zeta"
    service = EmbeddingService(provider=LocalHashEmbedder(dim=128))
    cfg = RetrievalConfig(k=10)

    clones = [_record(f"kn-{i:02d}", query, "zzz zzz") for i in range(10)]
    others = [_record(f"pt-{i:02d}", f"omega sigma tau {i}", "caused by") for i in range(10)]

    repo = _repo(clones + others)
    disjoint = retrieve_knn_pattern(
        service.vector(query), ["caused by"], repo, knn_index(repo, service), cfg
    )
    assert len(disjoint.examples) == 20
    assert [p.origin for p in disjoint.provenance] == ["knn"] * 10 + ["pattern"] * 10
    assert detection_prompt(query, disjoint).example_count == 20

    shared = [_record(f"kn-{i:02d}", query, "caused by") for i in range(10)]
    repo = _repo(shared)
    identical = retrieve_knn_pattern(
        service.vector(query), ["caused by"], repo, knn_index(repo, service), cfg
    )
    assert len(identical.examples) == 10
    assert [p.origin for p in identical.provenance] == ["knn"] * 10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(7, f"composition: disjoint 20, identical 10 after dedup in {elapsed:.3f}s")


# --- 8. end-to-end replay -----------------------------------------------------------

DETECT_ZEROSHOT = {
    "accuracy": 0.84,
    "precision": 0.8461538461538461,
    "recall": 0.8461538461538461,
    "f1": 0.8461538461538461,
    "counts": {"tp": 11, "fp": 2, "tn": 10, "fn": 2},
    "examples_mean": 0.0,
    "examples_max": 0,
    "parse_failures": 0,
}

def _detect_fewshot(examples_mean: float, examples_max: int) -> dict:
    return {
        "accuracy": 0.92,
        "precision": 0.9230769230769231,
        "recall": 0.9230769230769231,
        "f1": 0.9230769230769231,
        "counts": {"tp": 12, "fp": 1, "tn": 11, "fn": 1},
        "examples_mean": examples_mean,
        "examples_max": examples_max,
        "parse_failures": 0,
    }

EXTRACT_ZEROSHOT = {
    "precision": 0.7777777777777778,
    "recall": 0.5833333333333334,
    "f1": 0.6666666666666666,
    "matched": 7,
    "predicted_total": 9,
    "gold_total": 12,
    "examples_mean": 0.0,
    "examples_max": 0,
    "parse_failures": 1,
}

def _extract_fewshot(examples_mean: float, examples_max: int) -> dict:
    return {
        "precision": 0.9166666666666666,
        "recall": 0.9166666666666666,
        "f1": 0.9166666666666666,
        "matched": 11,
        "predicted_total": 12,
        "gold_total": 12,
        "examples_mean": examples_mean,
        "examples_max": examples_max,
        "parse_failures": 0,
    }

PINNED_METRICS = {
    ("detect", "zeroshot"): DETECT_ZEROSHOT,
    ("detect", "random"): _detect_fewshot(10.0, 10),
    ("detect", "knn"): _detect_fewshot(10.0, 10),
    ("detect", "pattern"): _detect_fewshot(8.64, 10),
    ("detect", "knn-pattern"): _detect_fewshot(15.0, 20),
    ("extract", "zeroshot"): EXTRACT_ZEROSHOT,
    ("extract", "random"): _extract_fewshot(10.0, 10),
    ("extract", "knn"): _extract_fewshot(10.0, 10),
    ("extract", "pattern"): _extract_fewshot(7.4, 10),
    ("extract", "knn-pattern"): _extract_fewshot(12.7, 17),
}

SINGLE_PAIR_PINNED = {
    "accuracy": 0.875,
    "successes": 7,
    "total": 8,
    "overlap_count": 0,
    "examples_mean": 10.0,
    "examples_max": 10,
    "parse_failures": 0,
}


def _replay_config(tmp_path: Path, task: str, strategy: StrategyKind, tag: str,
                   concurrency: int) -> ExperimentConfig:
    dataset = FIXTURES / ("detect.jsonl" if task == "detect" else "extract.jsonl")
    return ExperimentConfig(
        task=task,
        strategy=strategy,
        dataset_path=str(dataset),
        output_path=str(tmp_path / f"{tag}.jsonl"),
        db_path=str(FIXTURES / "examples.db"),
        model_id=FIXTURE_MODEL_ID,
        backend="replay",
        transcript_path=str(FIXTURES / "transcript.jsonl"),
        concurrency=concurrency,
    )


def test_criterion_08_end_to_end_replay(tmp_path):
    started = time.perf_counter()
    for (task, strategy_name), pinned in PINNED_METRICS.items():
        strategy = StrategyKind(strategy_name)
        blobs = []
        for concurrency in (1, 1, 2, 8):  # repeat c=1 to cover run-to-run identity
            tag = f"{task}-{strategy_name}-c{concurrency}-{len(blobs)}"
            config = _replay_config(tmp_path, task, strategy, tag, concurrency)
            result = run_experiment(config)
            assert result.report["metrics"] == pinned, (task, strategy_name, concurrency)
            blobs.append(Path(config.output_path).read_bytes())
        assert all(blob == blobs[0] for blob in blobs), (task, strategy_name)

    single = ExperimentConfig(
        task="extract",
        strategy=StrategyKind.RANDOM,
        dataset_path=str(FIXTURES / "extract_single.jsonl"),
        output_path=str(tmp_path / "single.jsonl"),
        db_path=str(FIXTURES / "examples.db"),
        model_id=FIXTURE_MODEL_ID,
        backend="replay",
        transcript_path=str(FIXTURES / "transcript.jsonl"),
        single_pair=True,
    )
    assert run_experiment(single).report["metrics"] == SINGLE_PAIR_PINNED

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(8, f"41 replay runs, bit-exact pinned metrics, byte-identical outputs in {elapsed:.2f}s")


# --- 9. fewshot-count sweep honesty ----------------------------------------------


def test_criterion_09_sweep_example_count_honesty(tmp_path):
    started = time.perf_counter()
    sentences, connective_of = synthetic_corpus()
    repo = build_repository(sentences, scripted_llm(connective_of), cap=10, seed=0)
    db_path = tmp_path / "syn.db"
    save_repository(repo, db_path)

    dataset = tmp_path / "queries.jsonl"
    queries = []
    for i in range(4):
        text = f"the market dip {i} was caused by rate hikes."
        connective_of[text] = "caused by"
        queries.append({"id": f"q-{i}", "text": text, "label": 0, "pairs": [], "source": "q"})
    dataset.write_text(
        "".join(json.dumps(q, sort_keys=True) + "\n" for q in queries), encoding="utf-8"
    )

    base = ExperimentConfig(
        task="detect",
        strategy=StrategyKind.RANDOM,
        dataset_path=str(dataset),
        output_path=str(tmp_path / "base.jsonl"),
        db_path=str(db_path),
        model_id="scripted",
        backend="live",
        concurrency=1,
    )
    csv_path = tmp_path / "sweep.csv"
    sweep(
        base,
        [StrategyKind.RANDOM, StrategyKind.PATTERN],
        [1, 5, 10, 50],
        str(csv_path),
        backend=scripted_llm(connective_of).backend,
    )

    cells = {}
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "strategy,k,metric,value"
    for line in lines[1:]:
        strategy_name, k, metric, value = line.split(",")
        cells[(strategy_name, int(k), metric)] = value

    available_pattern = len(repo.index["caused by"])  # 10 after the cap
    assert available_pattern == 10
    for k in (1, 5, 10, 50):
        assert int(cells[("pattern", k, "examples_max")]) == min(k, available_pattern)
        assert float(cells[("pattern", k, "examples_mean")]) == float(min(k, available_pattern))
        assert int(cells[("random", k, "examples_max")]) == min(k, len(repo.records))
        assert float(cells[("random", k, "examples_mean")]) == float(min(k, len(repo.records)))
    # the saturation point: asking for 50 pattern examples still yields 10
    assert int(cells[("pattern", 50, "examples_max")]) == 10
    assert int(cells[("random", 50, "examples_max")]) == 18

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(9, f"sweep reports honest example counts (pattern saturates at 10) in {elapsed:.2f}s")


# --- 10. optional live smoke (network + key) -----------------------------------

# 12 causal single-pair blocks + 8 non-causal blocks, SemEval file shape.
SMOKE_SEMEVAL = '''1\t"The <e1>earthquake</e1> caused severe <e2>damage</e2> to the old bridge."
Cause-Effect(e1,e2)
Comment:

2\t"The <e1>traffic jam</e1> was caused by a <e2>stalled truck</e2> on the highway."
Cause-Effect(e2,e1)
Comment:

3\t"Heavy <e1>rainfall</e1> led to widespread <e2>flooding</e2> in the valley."
Cause-Effect(e1,e2)
Comment:

4\t"The <e1>power outage</e1> resulted from a <e2>transformer failure</e2>."
Cause-Effect(e2,e1)
Comment:

5\t"The <e1>medication</e1> induced severe <e2>drowsiness</e2> in most patients."
Cause-Effect(e1,e2)
Comment:

6\t"The <e1>delay</e1> was due to inclement <e2>weather</e2> at the airport."
Cause-Effect(e2,e1)
Comment:

7\t"<e1>Overheating</e1> triggered an automatic <e2>shutdown</e2> of the reactor."
Cause-Effect(e1,e2)
Comment:

8\t"The <e1>protests</e1> erupted because of the new <e2>tax law</e2>."
Cause-Effect(e2,e1)
Comment:

9\t"The <e1>virus</e1> causes a high <e2>fever</e2> within two days."
Cause-Effect(e1,e2)
Comment:

10\t"The <e1>recession</e1> stemmed from years of risky <e2>lending</e2>."
Cause-Effect(e2,e1)
Comment:

11\t"A <e1>short circuit</e1> sparked the warehouse <e2>fire</e2> overnight."
Cause-Effect(e1,e2)
Comment:

12\t"Crop <e1>failure</e1> resulted in a sharp <e2>price increase</e2>."
Cause-Effect(e1,e2)
Comment:

13\t"The <e1>books</e1> were stored in wooden <e2>crates</e2> in the attic."
Other
Comment:

14\t"The <e1>orchestra</e1> performed a symphony in the <e2>concert hall</e2>."
Other
Comment:

15\t"The <e1>report</e1> summarizes the <e2>findings</e2> of the survey."
Other
Comment:

16\t"The <e1>recipe</e1> requires fresh <e2>basil</e2> and olive oil."
Other
Comment:

17\t"The <e1>museum</e1> displays ancient <e2>pottery</e2> from the region."
Other
Comment:

18\t"The <e1>train</e1> arrives at the central <e2>station</e2> every hour."
Other
Comment:

19\t"The <e1>committee</e1> reviewed the <e2>proposal</e2> last Monday."
Other
Comment:

20\t"The <e1>garden</e1> features a small stone <e2>fountain</e2>."
Other
Comment:
'''


def _smoke_config(tmp_path, task: str, strategy: StrategyKind, backend: str,
                  tag: str, dataset: Path) -> ExperimentConfig:
    return ExperimentConfig(
        task=task,
        strategy=strategy,
        dataset_path=str(dataset),
        dataset_format="semeval",
        output_path=str(tmp_path / f"{tag}.jsonl"),
        db_path=str(FIXTURES / "examples.db"),
        k=5,
        model_id=os.environ.get("CAUSAL_RAG_SMOKE_MODEL", "gpt-4o-mini"),
        backend=backend,
        base_url=os.environ.get("CAUSAL_RAG_BASE_URL", "https://api.openai.com"),
        transcript_path=str(tmp_path / "smoke-transcript.jsonl"),
        cache_path=str(tmp_path / "smoke-embeddings.jsonl"),
        embedding_model=os.environ.get("CAUSAL_RAG_SMOKE_EMBEDDING", "local-hash-256"),
        concurrency=2,
        single_pair=(task == "extract"),
    )


@pytest.mark.network
@pytest.mark.skipif(
    not os.environ.get(API_KEY_ENV),
    reason=f"criterion 10 is opt-in: live smoke needs {API_KEY_ENV}",
)
def test_criterion_10_live_smoke_record_then_replay(tmp_path):
    dataset = tmp_path / "smoke.semeval.txt"
    dataset.write_text(SMOKE_SEMEVAL, encoding="utf-8")

    recorded = {}
    for strategy in StrategyKind:
        for task, total in (("detect", 20), ("extract", 12)):
            tag = f"rec-{task}-{strategy.value}"
            result = run_experiment(_smoke_config(tmp_path, task, strategy, "record", tag, dataset))
            metrics = result.report["metrics"]
            assert len(result.records) == total
            assert metrics["parse_failures"] / total <= 0.20, (task, strategy.value, metrics)
            recorded[(task, strategy.value)] = metrics

    for strategy in StrategyKind:
        for task in ("detect", "extract"):
            blobs = []
            for attempt in range(2):
                tag = f"rep-{task}-{strategy.value}-{attempt}"
                config = _smoke_config(tmp_path, task, strategy, "replay", tag, dataset)
                result = run_experiment(config)
                assert result.report["metrics"] == recorded[(task, strategy.value)]
                blobs.append(Path(config.output_path).read_bytes())
            assert blobs[0] == blobs[1], (task, strategy.value)

    ok(10, "live smoke recorded all five strategies and replayed deterministically")
