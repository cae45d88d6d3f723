"""Tests for the five example-selection strategies and connective matching."""

from __future__ import annotations

import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fixture_llm import ScriptedBackend
from test_embedding import cosine_similarity
from test_kernels import reference_levenshtein

from causal_rag.embedding import (
    EmbeddingCache,
    EmbeddingService,
    LocalHashEmbedder,
    VectorIndex,
    embedding_key,
)
from causal_rag.gateway import CompletionRequest, LlmClient
from causal_rag.repository import (
    ExampleRecord,
    Repository,
    load_repository,
    normalize_connective,
)
from causal_rag.retrieval import (
    MATCHERS,
    RetrievalConfig,
    RetrievalResult,
    _pattern_candidates,
    connective_similarity,
    input_connectives,
    knn_index,
    retrieve_knn,
    retrieve_knn_pattern,
    retrieve_pattern,
    retrieve_random,
    zeroshot_result,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

WORDS = [
    "storm", "flood", "outage", "fire", "drought", "quake", "landslide",
    "frost", "heat", "gale", "hail", "surge", "blast", "spill", "leak",
    "smog", "collapse", "jam", "blackout", "erosion",
]


def make_record(i: int, connective: str, text: str) -> ExampleRecord:
    return ExampleRecord(
        id=f"fx-{i:06d}",
        raw_text=text,
        tagged_text=text,
        pairs=(),
        connectives=(connective,),
        source="fx",
    )


def make_repo(plan: list[tuple[str, str]], cap: int = 10, seed: int = 0) -> Repository:
    """plan: list of (connective, sentence text) per record."""
    records = {r.id: r for r in (make_record(i, conn, text)
                                  for i, (conn, text) in enumerate(plan, start=1))}
    kept = {rid for ids in Repository(records, cap, seed).index.values() for rid in ids}
    return Repository({rid: r for rid, r in records.items() if rid in kept}, cap, seed)


def repo_of_index(index: dict[str, tuple[str, ...]]) -> Repository:
    """A repository whose records give `index`, its keys sorted and each
    key's ids sorted once each (at most 10 ids a key)."""
    keys_of: dict[str, list[str]] = {}
    for key, ids in index.items():
        for rid in ids:
            keys_of.setdefault(rid, []).append(key)
    records = {rid: ExampleRecord(rid, rid, rid, (), tuple(keys), "s")
               for rid, keys in keys_of.items()}
    return Repository(records, cap=10, seed=0)


def synthetic_repo(cap: int = 10) -> Repository:
    """12 records under "caused by", 3 under "lead to", 5 under "induced by"."""
    plan = []
    rng = random.Random(17)
    for i in range(12):
        plan.append(("caused by", f"{rng.choice(WORDS)} was caused by {rng.choice(WORDS)} {i}"))
    for i in range(3):
        plan.append(("lead to", f"{rng.choice(WORDS)} lead to {rng.choice(WORDS)} {i}"))
    for i in range(5):
        plan.append(("induced by", f"{rng.choice(WORDS)} induced by {rng.choice(WORDS)} {i}"))
    return make_repo(plan, cap=cap)


def service() -> EmbeddingService:
    return EmbeddingService(provider=LocalHashEmbedder(dim=128))


def indexed(repo: Repository) -> tuple[EmbeddingService, VectorIndex]:
    """An embedding service and the repository's index built with it."""
    svc = service()
    return svc, knn_index(repo, svc)


def cfg(**overrides) -> RetrievalConfig:
    return RetrievalConfig(**overrides)


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        RetrievalConfig(k=0)
    with pytest.raises(ValueError):
        RetrievalConfig(similarity_threshold=0.0)
    with pytest.raises(ValueError):
        RetrievalConfig(similarity_threshold=1.5)
    with pytest.raises(ValueError):
        RetrievalConfig(matcher="jaccard")
    assert RetrievalConfig().k == 10
    assert RetrievalConfig().similarity_threshold == 0.90


def test_result_rejects_duplicates() -> None:
    repo = make_repo([("caused by", "a b c")])
    from causal_rag.retrieval import ExampleProvenance

    twice = [ExampleProvenance("fx-000001", "random"), ExampleProvenance("fx-000001", "knn")]
    with pytest.raises(ValueError, match="duplicate record ids"):
        RetrievalResult.of(repo, twice)


def test_zeroshot_result() -> None:
    result = zeroshot_result()
    assert result.examples == ()
    assert result.fallback_used is False


def test_connective_similarity_identity() -> None:
    assert connective_similarity("induced by", "induced by") == 1.0


def test_connective_similarity_reference_values() -> None:
    assert connective_similarity("caused by", "caused by the") == pytest.approx(
        0.6923, abs=1e-4
    )
    assert connective_similarity("lead to", "leads to") == pytest.approx(0.875, abs=1e-4)


def test_connective_similarity_token_containment() -> None:
    assert connective_similarity("caused by", "caused by the", "token_containment") == 1.0
    # not a contiguous token run -> falls back to the edit ratio
    value = connective_similarity("caused by", "caused maybe by", "token_containment")
    assert value < 1.0
    assert connective_similarity("by", "caused by", "token_containment") == 1.0


def test_connective_similarity_normalizes() -> None:
    assert connective_similarity(" Caused  By ", "caused by") == 1.0


def test_connective_similarity_errors() -> None:
    with pytest.raises(ValueError, match="connectives must be non-empty"):
        connective_similarity("", "caused by")
    with pytest.raises(ValueError, match="connectives must be non-empty"):
        connective_similarity("caused by", "   ")
    with pytest.raises(ValueError):
        connective_similarity("a", "b", "bogus")


def test_random_deterministic_per_seed() -> None:
    repo = synthetic_repo()
    a = retrieve_random(repo, cfg(seed=5))
    b = retrieve_random(repo, cfg(seed=5))
    assert [r.id for r in a.examples] == [r.id for r in b.examples]
    c = retrieve_random(repo, cfg(seed=6))
    assert [r.id for r in a.examples] != [r.id for r in c.examples]


def test_random_salt_varies_selection() -> None:
    repo = synthetic_repo()
    a = retrieve_random(repo, cfg(seed=5), salt="s-1")
    b = retrieve_random(repo, cfg(seed=5), salt="s-2")
    assert [r.id for r in a.examples] != [r.id for r in b.examples]
    again = retrieve_random(repo, cfg(seed=5), salt="s-1")
    assert [r.id for r in a.examples] == [r.id for r in again.examples]


def test_random_small_repo_returns_all() -> None:
    repo = make_repo([("lead to", f"text {i}") for i in range(3)])
    result = retrieve_random(repo, cfg(k=10))
    assert len(result.examples) == 3


def test_random_k_10() -> None:
    repo = synthetic_repo()
    result = retrieve_random(repo, cfg(k=10))
    assert len(result.examples) == 10
    assert len({r.id for r in result.examples}) == 10
    assert all(p.origin == "random" for p in result.provenance)


def test_knn_self_text_first() -> None:
    repo = synthetic_repo()
    target = next(iter(repo.records.values()))
    svc, index = indexed(repo)
    result = retrieve_knn(svc.vector(target.raw_text), repo, index, cfg())
    assert result.examples[0].id == target.id
    assert result.provenance[0].score == pytest.approx(1.0, abs=1e-12)


def test_knn_returns_k_and_descending() -> None:
    repo = synthetic_repo()
    svc, index = indexed(repo)
    result = retrieve_knn(svc.vector("storm damage report"), repo, index, cfg(k=10))
    assert len(result.examples) == 10
    scores = [p.score for p in result.provenance]
    assert scores == sorted(scores, reverse=True)
    assert all(p.origin == "knn" for p in result.provenance)


def test_knn_matches_exhaustive_oracle() -> None:
    repo = synthetic_repo()
    svc, index = indexed(repo)
    for query_text in ("flood caused outage in town", "storm was caused by hail"):
        query = svc.vector(query_text)
        result = retrieve_knn(query, repo, index, cfg(k=5))
        oracle = sorted(
            (
                (cosine_similarity(query, svc.vector(r.raw_text)), rid)
                for rid, r in repo.records.items()
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )[:5]
        assert [(p.score, p.record_id) for p in result.provenance] == oracle


def test_knn_uses_cache(tmp_path) -> None:
    repo = synthetic_repo()
    embedder = LocalHashEmbedder(dim=64)
    svc = EmbeddingService(provider=embedder, cache=EmbeddingCache(tmp_path / "c.jsonl"))
    retrieve_knn(svc.vector("first query"), repo, knn_index(repo, svc), cfg())
    calls_after_first = embedder.calls
    assert calls_after_first == len(repo.records) + 1
    retrieve_knn(svc.vector("first query"), repo, knn_index(repo, svc), cfg())
    assert embedder.calls == calls_after_first  # every text cached


@pytest.mark.parametrize("cached", [False, True], ids=["memo", "cache"])
def test_knn_index_rows_are_the_only_copy_of_each_vector(tmp_path, cached) -> None:
    repo = load_repository(FIXTURES / "examples.db")
    path = tmp_path / "c.jsonl"
    if cached:  # a warm cache: every vector is first loaded from the file
        knn_index(repo, EmbeddingService(LocalHashEmbedder(dim=64), EmbeddingCache(path)))
        written = path.read_bytes()
    embedder = LocalHashEmbedder(dim=64)
    svc = EmbeddingService(embedder, EmbeddingCache(path) if cached else None)
    index = knn_index(repo, svc)
    assert embedder.calls == (0 if cached else len(repo.records))
    if cached:  # rebinding a kept vector to its row writes nothing
        assert path.read_bytes() == written
    for row, rid in enumerate(index.ids):
        vector = svc.vector(repo.records[rid].raw_text)
        assert np.shares_memory(vector.values, index.matrix)
        assert np.array_equal(vector.values, index.matrix[row])
        assert vector == embedder.embed_text(repo.records[rid].raw_text)
    assert not index.matrix.flags.writeable
    # the memo keeps the rows in place of the vectors it was given
    assert len(svc.memo) == len({embedding_key(r.raw_text, embedder.model_id)
                                 for r in repo.records.values()})


def test_pattern_exact_match_caps_at_k() -> None:
    repo = synthetic_repo()
    result = retrieve_pattern(["caused by"], repo, cfg(k=10, seed=1))
    assert len(result.examples) == 10
    assert result.fallback_used is False
    assert all(p.origin == "pattern" for p in result.provenance)
    assert all(p.score == 1.0 for p in result.provenance)
    assert all(p.connective == "caused by" for p in result.provenance)


def test_pattern_near_key_rejected_under_edit_ratio() -> None:
    repo = synthetic_repo()
    result = retrieve_pattern(["caused by the"], repo, cfg(matcher="edit_ratio"), salt="x")
    assert result.fallback_used is True
    assert all(p.origin == "random-fallback" for p in result.provenance)
    assert len(result.examples) == 10


def test_pattern_near_key_accepted_under_token_containment() -> None:
    repo = synthetic_repo()
    result = retrieve_pattern(["caused by the"], repo, cfg(matcher="token_containment"))
    assert result.fallback_used is False
    assert len(result.examples) == 10
    assert all(p.connective == "caused by" for p in result.provenance)


def test_pattern_small_pool_returned_whole() -> None:
    repo = synthetic_repo()
    result = retrieve_pattern(["lead to"], repo, cfg(k=10))
    assert len(result.examples) == 3
    assert {p.connective for p in result.provenance} == {"lead to"}


def test_pattern_no_match_no_fallback() -> None:
    repo = synthetic_repo()
    result = retrieve_pattern(["nonexistent"], repo, cfg(fallback_to_random=False))
    assert result.examples == ()
    assert result.fallback_used is False


def test_pattern_empty_input_connectives_falls_back() -> None:
    repo = synthetic_repo()
    result = retrieve_pattern([], repo, cfg())
    assert result.fallback_used is True


def test_pattern_soundness_scores_above_threshold() -> None:
    repo = synthetic_repo()
    for query in (["caused by"], ["induced by"], ["lead to", "induced by"]):
        result = retrieve_pattern(query, repo, cfg(k=50))
        assert not result.fallback_used
        for p in result.provenance:
            assert p.score is not None and p.score > 0.90
            best = max(connective_similarity(q, p.connective) for q in query)
            assert best == pytest.approx(p.score)


def reference_candidates(
    connectives: list[str], repo: Repository, c: RetrievalConfig
) -> dict[str, tuple[float, str]]:
    """Pattern candidates scored over all (connective, key) pairs with the
    oracle DP, skipping nothing."""
    queries = [q for q in (normalize_connective(x) for x in connectives) if q]
    best: dict[str, tuple[float, str]] = {}
    for key, rids in repo.index.items():
        target = normalize_connective(key)
        key_score = 0.0
        for query in queries:
            short, long = (query, target) if len(query) <= len(target) else (target, query)
            needle, haystack = short.split(" "), long.split(" ")
            contained = any(
                haystack[i : i + len(needle)] == needle
                for i in range(len(haystack) - len(needle) + 1)
            )
            if c.matcher == "token_containment" and contained:
                score = 1.0
            else:
                distance = reference_levenshtein(query, target)
                score = 1.0 - distance / max(len(query), len(target))
            key_score = max(key_score, score)
        if key_score <= c.similarity_threshold:
            continue
        for rid in rids:
            held = best.get(rid)
            if held is None or (key_score, held[1]) > (held[0], key):
                best[rid] = (key_score, key)
    return best


PATTERN_WORDS = ("by", "caused", "cause", "led", "lead", "to", "due", "of", "result", "in", "the")


def _random_connective(rng: random.Random) -> str:
    words = [rng.choice(PATTERN_WORDS) for _ in range(rng.randint(1, 4))]
    text = list(" ".join(words))
    for _ in range(rng.choice((0, 0, 1, 2))):
        text[rng.randrange(len(text))] = rng.choice("abcdeo")
    text = "".join(text)
    if rng.random() < 0.15:  # not normalized: case and spacing
        text = "  " + text.upper().replace(" ", "   ") + " "
    return text


def test_pattern_candidates_match_all_pairs_oracle() -> None:
    rng = random.Random(5150)
    thresholds = (0.5, 0.6, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)
    nonempty = 0
    for _ in range(120):
        index = {
            _random_connective(rng): tuple(
                f"r{rng.randrange(40):02d}" for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 30))
        }
        repo = repo_of_index(index)
        keys = list(index)
        for _ in range(4):
            connectives = [
                rng.choice(keys) if rng.random() < 0.3 else _random_connective(rng)
                for _ in range(rng.randint(0, 3))
            ]
            if rng.random() < 0.1:
                connectives.append("   ")
            threshold = rng.choice(thresholds + (round(rng.uniform(0.3, 1.0), 3),))
            for matcher in MATCHERS:
                c = cfg(similarity_threshold=threshold, matcher=matcher)
                got = _pattern_candidates(connectives, repo, c)
                assert got == reference_candidates(connectives, repo, c), (connectives, c)
                nonempty += bool(got)
    assert nonempty > 200


def test_pattern_candidates_threshold_edges() -> None:
    index = {
        "leads to a": ("r1",),  # 10 characters, one edit from the query
        " Lead  To A ": ("r2",),  # the query itself, not normalized
        "largely led to a": ("r3",),
    }
    repo = repo_of_index(index)
    for matcher in MATCHERS:
        # 1 - 1/10 equals the threshold exactly, so "leads to a" stays out
        at = cfg(similarity_threshold=0.9, matcher=matcher)
        assert _pattern_candidates(["lead to a"], repo, at) == {"r2": (1.0, " Lead  To A ")}
        below = cfg(similarity_threshold=0.89, matcher=matcher)
        assert _pattern_candidates(["lead to a"], repo, below)["r1"] == (0.9, "leads to a")
        # nothing scores strictly above 1.0, not even an exact match
        top = cfg(similarity_threshold=1.0, matcher=matcher)
        assert _pattern_candidates(["lead to a"], repo, top) == {}
    # containment scores 1.0 whatever the length gap
    contained = cfg(similarity_threshold=0.9, matcher="token_containment")
    assert _pattern_candidates(["led to"], repo, contained) == {"r3": (1.0, "largely led to a")}


def test_pattern_deterministic_sampling() -> None:
    repo = synthetic_repo()
    a = retrieve_pattern(["caused by"], repo, cfg(seed=9), salt="s")
    b = retrieve_pattern(["caused by"], repo, cfg(seed=9), salt="s")
    assert [r.id for r in a.examples] == [r.id for r in b.examples]


def _sampling_cases(count: int) -> list[tuple[Repository, RetrievalConfig, str]]:
    """Seeded (repository, config, salt) cases: 1 to 24 records under a few
    connectives, k from 1 to past the repository's size."""
    rng = random.Random(77)
    connectives = ["caused by", "lead to", "due to"]
    cases = []
    for i in range(count):
        plan = [(rng.choice(connectives), f"{rng.choice(WORDS)} {j}")
                for j in range(rng.randrange(1, 25))]
        config = cfg(k=rng.randrange(1, 30), seed=rng.randrange(1000),
                     matcher=rng.choice(MATCHERS))
        cases.append((make_repo(plan, cap=rng.randrange(5, 30)), config, f"s-{i}"))
    return cases


def _reference_random(repo: Repository, config: RetrievalConfig, salt: str) -> list[str]:
    ids = sorted(repo.records)
    return random.Random(f"{config.seed}|{salt}").sample(ids, min(config.k, len(ids)))


def _reference_pattern(repo: Repository, config: RetrievalConfig, salt: str) -> list[str]:
    best = _pattern_candidates(["caused by"], repo, config)
    if not best:  # the random fallback
        return _reference_random(repo, config, salt)
    chosen = sorted(best)
    if len(chosen) > config.k:
        chosen = random.Random(f"{config.seed}|{salt}").sample(chosen, config.k)
    return sorted(chosen, key=lambda rid: (-best[rid][0], rid))


def _picks(repo: Repository, config: RetrievalConfig, salt: str) -> tuple[list[str], list[str]]:
    drawn = retrieve_random(repo, config, salt)
    pattern = retrieve_pattern(["caused by"], repo, config, salt=salt)
    return [p.record_id for p in drawn.provenance], [p.record_id for p in pattern.provenance]


def test_sampling_picks_what_a_generator_seeded_with_seed_and_salt_picks_seeded() -> None:
    """Random retrieval and the pattern down-sample pick exactly what
    `random.Random(f"{seed}|{salt}").sample(...)` picks, k past n included."""
    over_k = down_sampled = 0
    for repo, config, salt in _sampling_cases(200):
        drawn, pattern = _picks(repo, config, salt)
        assert drawn == _reference_random(repo, config, salt)
        assert pattern == _reference_pattern(repo, config, salt)
        over_k += config.k > len(repo.records)
        down_sampled += len(_pattern_candidates(["caused by"], repo, config)) > config.k
    assert over_k > 20 and down_sampled > 20, (over_k, down_sampled)


def test_sampling_threads_with_interleaved_salts_each_get_the_serial_picks() -> None:
    """Four threads drawing for the same salts, each in its own order and
    switching often, each get the picks one thread gets."""
    cases = _sampling_cases(40)
    serial = [_picks(*case) for case in cases]
    got: dict[int, list] = {}
    start = threading.Barrier(4)

    def draw(worker: int) -> None:
        start.wait(timeout=10)
        order = list(range(len(cases)))
        random.Random(worker).shuffle(order)
        got[worker] = [(i, _picks(*cases[i])) for _ in range(5) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for picks in got.values():
        assert all(result == serial[i] for i, result in picks)


def test_knn_pattern_disjoint_components_concat() -> None:
    # kNN picks "lead to" records via shared vocabulary; pattern picks
    # "caused by" records via the connective key; the blocks are disjoint.
    plan = []
    for i in range(12):
        plan.append(("caused by", f"zork{i} was caused by blick{i}"))
    for i in range(18):
        plan.append(("lead to", f"volcanic ash clouds lead to flight delays {i}"))
    repo = make_repo(plan, cap=10)
    svc, index = indexed(repo)
    result = retrieve_knn_pattern(
        svc.vector("volcanic ash clouds lead to flight delays"),
        ["caused by"],
        repo,
        index,
        cfg(k=10),
    )
    assert len(result.examples) == 20
    assert [p.origin for p in result.provenance[:10]] == ["knn"] * 10
    assert [p.origin for p in result.provenance[10:]] == ["pattern"] * 10
    assert len({r.id for r in result.examples}) == 20


def test_knn_pattern_identical_components_dedup() -> None:
    plan = [("caused by", f"flood caused by storm {i}") for i in range(10)]
    repo = make_repo(plan, cap=10)
    svc, index = indexed(repo)
    result = retrieve_knn_pattern(
        svc.vector("flood caused by storm"), ["caused by"], repo, index, cfg(k=10)
    )
    assert len(result.examples) == 10
    # kNN block leads, so surviving provenance is all knn
    assert all(p.origin == "knn" for p in result.provenance)


def test_knn_pattern_fallback_marked() -> None:
    repo = synthetic_repo()
    svc, index = indexed(repo)
    result = retrieve_knn_pattern(
        svc.vector("some unrelated text"), ["nonexistent connective"], repo, index, cfg(k=3)
    )
    assert result.fallback_used is True
    origins = {p.origin for p in result.provenance}
    assert "knn" in origins and "random-fallback" in origins


def test_size_bounds_property_seeded() -> None:
    rng = random.Random(31)
    repo = synthetic_repo()
    svc, index = indexed(repo)
    query = svc.vector("storm surge")
    for _ in range(10):
        k = rng.randrange(1, 25)
        c = cfg(k=k, seed=rng.randrange(100))
        salt = f"s{rng.randrange(10)}"
        assert len(retrieve_random(repo, c, salt).examples) <= k
        assert len(retrieve_knn(query, repo, index, c).examples) <= k
        assert len(retrieve_pattern(["caused by"], repo, c, salt).examples) <= k
        combined = retrieve_knn_pattern(query, ["caused by"], repo, index, c, salt)
        assert len(combined.examples) <= 2 * k
        ids = [r.id for r in combined.examples]
        assert len(set(ids)) == len(ids)


def connective_llm(mapping: dict[str, str]) -> tuple[LlmClient, ScriptedBackend]:
    def script(req: CompletionRequest) -> str:
        lines = [l for l in req.user_text.splitlines() if l.startswith("Sentence: ")]
        return mapping.get(lines[-1][len("Sentence: ") :], "")

    backend = ScriptedBackend(script)
    return LlmClient(backend=backend, model_id="scripted"), backend


def test_input_connectives_extraction() -> None:
    llm, _ = connective_llm({"fever is caused by flu": "caused by"})
    assert input_connectives("fever is caused by flu", llm) == ["caused by"]


def test_input_connectives_unparseable_gives_empty() -> None:
    llm, _ = connective_llm({})  # script returns "" for everything
    assert input_connectives("the sky is blue", llm) == []
