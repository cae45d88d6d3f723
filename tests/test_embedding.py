"""Tests for embedding providers, the cache, cosine similarity, and kNN."""

from __future__ import annotations

import json
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from causal_rag.embedding import (
    EmbeddingCache,
    EmbeddingKey,
    EmbeddingVector,
    HttpEmbeddingProvider,
    LocalHashEmbedder,
    NeighborHit,
    VectorIndex,
    embed,
    embedding_key,
    knn_search,
    normalize_for_key,
)
from causal_rag.errors import (
    DimensionMismatchError,
    MalformedRecordError,
    ProviderError,
    ZeroVectorError,
)


def vec(*values: float, model: str = "m") -> EmbeddingVector:
    return EmbeddingVector(values=tuple(float(v) for v in values), model_id=model)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Per-pair reference that `knn_search` must reproduce bit for bit:
    dot / (|a| * |b|), each a one-pair numpy call."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} vs {b.dim}")
    x = np.asarray(a.values, dtype=np.float64)
    y = np.asarray(b.values, dtype=np.float64)
    norm_a = float(np.linalg.norm(x))
    norm_b = float(np.linalg.norm(y))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("cosine similarity undefined for an all-zero vector")
    return float(np.dot(x, y) / (norm_a * norm_b))


def index_of(corpus: dict[str, EmbeddingVector]) -> VectorIndex:
    ids = sorted(corpus)
    return VectorIndex(ids, (corpus[rid] for rid in ids))


def similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity of `a` to `b` as the index computes it."""
    return knn_search(a, index_of({"r": b}), 1)[0].similarity


def test_vector_validation() -> None:
    with pytest.raises(ValueError):
        EmbeddingVector(values=(), model_id="m")
    with pytest.raises(ValueError):
        EmbeddingVector(values=(1.0, float("nan")), model_id="m")
    with pytest.raises(ValueError):
        EmbeddingVector(values=(float("inf"),), model_id="m")
    assert vec(1, 2, 3).dim == 3


def test_embedding_key_normalization() -> None:
    a = embedding_key("Smoking  causes   cancer", "m")
    b = embedding_key("smoking causes cancer", "m")
    assert a == b
    assert len(a.content_hash) == 64
    assert embedding_key("smoking causes cancer", "other") != a
    assert normalize_for_key("  A \t B ") == "a b"


def test_local_embedder_deterministic() -> None:
    embedder = LocalHashEmbedder(dim=64)
    first = embedder.embed_text("abc")
    second = embedder.embed_text("abc")
    assert first == second
    assert embedder.calls == 2
    assert first.dim == 64
    assert abs(sum(v * v for v in first.values) - 1.0) < 1e-12


def test_local_embedder_case_and_ws_invariant() -> None:
    embedder = LocalHashEmbedder(dim=32)
    assert embedder.embed_text("The  Storm") == embedder.embed_text("the storm")


def test_local_embedder_rejects_empty() -> None:
    embedder = LocalHashEmbedder(dim=16)
    with pytest.raises(ValueError):
        embedder.embed_text("   ")


def test_cache_hit_skips_provider(tmp_path) -> None:
    embedder = LocalHashEmbedder(dim=16)
    cache = EmbeddingCache(tmp_path / "c.jsonl")
    first = embed("smoking causes cancer", embedder, cache)
    assert embedder.calls == 1
    second = embed("smoking causes cancer", embedder, cache)
    assert embedder.calls == 1
    assert first == second
    # normalization-equivalent text also hits
    embed("Smoking  CAUSES cancer", embedder, cache)
    assert embedder.calls == 1


def test_cache_round_trip_bitwise(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    embedder = LocalHashEmbedder(dim=48)
    cache = EmbeddingCache(path)
    texts = ["alpha beta", "gamma delta epsilon", "zeta"]
    originals = [embed(t, embedder, cache) for t in texts]
    reloaded_cache = EmbeddingCache(path)
    for text, original in zip(texts, originals):
        stored = reloaded_cache.get(embedding_key(text, embedder.model_id))
        assert stored is not None
        assert stored.values.tobytes() == original.values.tobytes()  # bitwise


def assert_frozen_array(vector: EmbeddingVector) -> None:
    values = vector.values
    assert isinstance(values, np.ndarray)
    assert values.dtype == np.float64 and values.ndim == 1
    assert not values.flags.writeable
    assert values.nbytes == 8 * vector.dim


def test_vectors_are_read_only_float64_arrays(tmp_path) -> None:
    embedder = LocalHashEmbedder(dim=48)
    cache = EmbeddingCache(tmp_path / "c.jsonl")
    fresh = embed("alpha beta", embedder, cache)
    loaded = EmbeddingCache(tmp_path / "c.jsonl").get(embedding_key("alpha beta", "local-hash-48"))
    for vector in (fresh, loaded, vec(1, 2, 3), EmbeddingVector([0.5, 2], "m")):
        assert_frozen_array(vector)
    with pytest.raises(ValueError):
        fresh.values[0] = 1.0


def test_vector_takes_a_read_only_array_as_is_and_copies_any_other() -> None:
    frozen = np.array([1.0, 2.0])
    frozen.flags.writeable = False
    assert EmbeddingVector(frozen, "m").values is frozen
    mine = np.array([1.0, 2.0])
    vector = EmbeddingVector(mine, "m")
    mine[0] = 9.0  # the caller's array stays the caller's
    assert vector.values.tolist() == [1.0, 2.0] and mine.flags.writeable
    assert EmbeddingVector(np.array([1, 2], dtype=np.int32), "m").values.dtype == np.float64
    with pytest.raises(ValueError):
        EmbeddingVector(np.zeros((2, 2)), "m")
    with pytest.raises(ValueError):
        EmbeddingVector([], "m")


def test_vector_equality_and_hash() -> None:
    assert vec(0.1, 0.2) == EmbeddingVector([0.1, 0.2], "m")
    assert vec(0.1, 0.2) != vec(0.1, 0.2, model="other")
    assert vec(0.1, 0.2) != vec(0.1, 0.2000000000000001)
    assert vec(0.1, 0.2) != vec(0.1, 0.2, 0.0)
    assert vec(0.1, 0.2) != (0.1, 0.2)
    assert vec(0.0, 1.0) == vec(-0.0, 1.0)  # as the tuples compared
    assert hash(vec(0.0, 1.0)) == hash(vec(-0.0, 1.0))
    assert hash(vec(0.1, 0.2)) == hash(EmbeddingVector([0.1, 0.2], "m"))
    assert len({vec(0.1, 0.2), vec(0.1, 0.2), vec(0.2, 0.1)}) == 2


# the cache format, byte for byte: caches already on disk must load, and
# be appended to, unchanged
PINNED_CACHE_LINES = (
    '{"dim": 8, "key": "3ddb1447e30ac972e3b8d183e95a8d38f9a086bc622ef52941cfdd028037a797", '
    '"model": "local-hash-8", "vector": [0.0, 0.0, 0.0, 0.5773502691896258, '
    '0.5773502691896258, 0.5773502691896258, 0.0, 0.0]}\n'
    '{"dim": 8, "key": "8ee41686ee634498f333dd8f953f4b42d8af7222d99465fc91903aed73bcac05", '
    '"model": "m", "vector": [0.1, 0.3333333333333333, -0.0, -2.5, 1e-300, 5e-324, '
    '1e+300, 7.0]}\n'
)


def test_cache_lines_match_the_pinned_bytes(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    cache = EmbeddingCache(path)
    embed("Smoking causes cancer", LocalHashEmbedder(dim=8), cache)
    awkward = vec(0.1, 1 / 3, -0.0, -2.5, 1e-300, 5e-324, 1e300, 7.0)
    cache.put(embedding_key("awkward", "m"), awkward)
    assert path.read_bytes() == PINNED_CACHE_LINES.encode("utf-8")
    # a loaded vector is written back as the same bytes
    loaded = EmbeddingCache(path)
    again = EmbeddingCache(tmp_path / "again.jsonl")
    for line in PINNED_CACHE_LINES.splitlines():
        obj = json.loads(line)
        key = EmbeddingKey(obj["key"], obj["model"])
        again.put(key, loaded.get(key))
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_cached_vectors_cost_eight_bytes_a_component(tmp_path) -> None:
    count, dim = 300, 1536
    rng = random.Random(7)
    path = tmp_path / "c.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(count):
            vector = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            line = {"key": f"{i:064x}", "model": "big", "dim": dim, "vector": vector}
            handle.write(json.dumps(line) + "\n")
    raw = count * dim * 8  # 3.5 MiB
    tracemalloc.start()
    try:
        cache = EmbeddingCache(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == count
    assert kept < 1.5 * raw and peak < 1.5 * raw


def test_torn_cache_loads_and_heals_on_the_next_put(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    embedder = LocalHashEmbedder(dim=48)
    cache = EmbeddingCache(path)
    texts = ["alpha beta", "gamma delta epsilon", "zeta"]
    originals = [embed(t, embedder, cache) for t in texts]
    path.write_bytes(path.read_bytes()[:-20])  # a write cut short
    torn = EmbeddingCache(path)
    assert len(torn) == 2
    assert torn.get(embedding_key(texts[2], embedder.model_id)) is None
    assert embed(texts[2], embedder, torn) == originals[2]
    reloaded = EmbeddingCache(path)
    assert len(reloaded) == 3
    for text, original in zip(texts, originals):
        assert reloaded.get(embedding_key(text, embedder.model_id)) == original


def test_damaged_cache_line_is_named(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    path.write_text('{"key": "k", "model": "m", "dim": 1}\n', encoding="utf-8")
    with pytest.raises(MalformedRecordError, match="line 1: missing field 'vector'"):
        EmbeddingCache(path)


@pytest.mark.parametrize("line, reason", [
    ({"vector": []}, "embedding must have at least one component"),
    ({"vector": ["1.5", True]}, "embedding must be a JSON array of numbers"),
    ({"vector": [1, [2]]}, "embedding must be a JSON array of numbers"),
    ({"vector": "xx"}, "embedding must be a JSON array of numbers"),
    ({"vector": [None, 1.0]}, "embedding must be a JSON array of numbers"),
    ({"vector": [10**400, 1.0]}, "embedding components must be finite"),
    ({"vector": [1.0, 2.0, 3.0]}, "model 'm' previously produced dim 2, got 3"),
    ({"key": None}, "key and model must be strings"),
    ({"model": ["m"]}, "key and model must be strings"),
])
def test_cache_line_that_does_not_fit_names_the_file_and_the_line(tmp_path, line, reason) -> None:
    path = tmp_path / "c.jsonl"
    good = {"dim": 2, "key": "k1", "model": "m", "vector": [0.6, 0.8]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "key": "k2", **line}) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        EmbeddingCache(path)
    assert str(excinfo.value).startswith(f"{path}: line 2: {reason}")


def test_cache_dim_mismatch(tmp_path) -> None:
    cache = EmbeddingCache(tmp_path / "c.jsonl")
    cache.put(embedding_key("a", "m"), vec(*([1.0] * 4)))
    with pytest.raises(DimensionMismatchError):
        cache.put(embedding_key("b", "m"), vec(*([1.0] * 8)))
    # a different model may use a different dim
    cache.put(embedding_key("b", "m2"), EmbeddingVector((1.0,) * 8, "m2"))


class _Provider:
    """Provider returning preset dims per call, for mismatch tests."""

    def __init__(self, dims: list[int]):
        self.model_id = "m"
        self.dims = list(dims)
        self.calls = 0

    def embed_text(self, text: str) -> EmbeddingVector:
        self.calls += 1
        dim = self.dims.pop(0)
        return EmbeddingVector((1.0,) * dim, self.model_id)


def test_embed_provider_dim_change_rejected(tmp_path) -> None:
    provider = _Provider([1536, 512])
    cache = EmbeddingCache(tmp_path / "c.jsonl")
    embed("first text", provider, cache)
    with pytest.raises(DimensionMismatchError):
        embed("second text", provider, cache)


class _MissTogetherCache(EmbeddingCache):
    """A cache whose lookups return only once two threads have looked, so
    both callers are certain to miss before either stores a vector."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.both_looked = threading.Barrier(2)

    def get(self, key):
        held = super().get(key)
        self.both_looked.wait(timeout=10)
        return held


class _CountingEmbedder:
    def __init__(self) -> None:
        self.inner = LocalHashEmbedder(dim=8)
        self.model_id = self.inner.model_id
        self.calls = 0
        self._lock = threading.Lock()

    def embed_text(self, text: str) -> EmbeddingVector:
        with self._lock:
            self.calls += 1
        return self.inner.embed_text(text)


def test_concurrent_misses_make_one_provider_call(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    cache = _MissTogetherCache(path)
    embedder = _CountingEmbedder()
    results: list[EmbeddingVector] = []

    def worker() -> None:
        results.append(embed("smoking causes cancer", embedder, cache))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 2
    assert embedder.calls == 1
    assert results[0] == results[1]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_concurrent_embedding_stress_embeds_each_text_once(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    cache = EmbeddingCache(path)
    embedder = _CountingEmbedder()
    texts = [f"text number {i}" for i in range(40)]
    served: dict[str, set[bytes]] = {text: set() for text in texts}
    lock = threading.Lock()

    def worker(offset: int) -> None:
        for text in texts[offset:] + texts[:offset]:
            values = embed(text, embedder, cache).values.tobytes()
            with lock:
                served[text].add(values)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i % 3,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert embedder.calls == len(texts)
    assert all(len(values) == 1 for values in served.values())
    assert len(path.read_text(encoding="utf-8").splitlines()) == len(texts)


def test_fill_retries_after_a_failed_embedding(tmp_path) -> None:
    cache = EmbeddingCache(tmp_path / "c.jsonl")
    key = embedding_key("a b", "m")

    def fail() -> EmbeddingVector:
        raise ProviderError("provider down")

    with pytest.raises(ProviderError):
        cache.fill(key, fail)
    assert cache.get(key) is None
    assert cache.fill(key, lambda: vec(1.0, 2.0)) == vec(1.0, 2.0)
    assert cache.fill(key, fail) == vec(1.0, 2.0)


def test_embed_rejects_empty_text() -> None:
    with pytest.raises(ValueError):
        embed("  ", LocalHashEmbedder(dim=8), None)


def test_cosine_identity_and_orthogonal() -> None:
    a = vec(3, 4)
    assert similarity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert similarity(vec(1, 0), vec(0, 1)) == pytest.approx(0.0, abs=1e-12)


def test_cosine_reference_value() -> None:
    # dot=32, |a|=sqrt(14), |b|=sqrt(77) -> 32/sqrt(1078)
    a, b = vec(1, 2, 3), vec(4, 5, 6)
    assert similarity(a, b) == pytest.approx(0.974632, abs=1e-6)
    assert similarity(a, b) == cosine_similarity(a, b)


def test_cosine_errors() -> None:
    with pytest.raises(DimensionMismatchError):
        similarity(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(DimensionMismatchError):  # mixed dimensions in the corpus
        VectorIndex(["a", "b", "c"], [vec(1, 2), vec(3, 4), vec(1, 2, 3)])
    with pytest.raises(ZeroVectorError):  # zero query
        similarity(vec(0, 0), vec(1, 2))
    with pytest.raises(ZeroVectorError):  # zero row
        VectorIndex(["a", "b"], [vec(1, 2), vec(0, 0)])


def test_cosine_symmetry_and_scale_invariance_seeded() -> None:
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.randrange(2, 12)
        a = vec(*[rng.uniform(-5, 5) for _ in range(dim)])
        b = vec(*[rng.uniform(-5, 5) for _ in range(dim)])
        sim_ab = similarity(a, b)
        assert sim_ab == cosine_similarity(a, b)
        assert abs(sim_ab - similarity(b, a)) < 1e-12
        c = rng.uniform(0.01, 100.0)
        scaled = vec(*[c * v for v in b.values])
        assert abs(similarity(a, scaled) - sim_ab) < 1e-9
        assert -1.0 - 1e-12 <= sim_ab <= 1.0 + 1e-12


def test_knn_self_hit() -> None:
    query = vec(1, 2, 3)
    corpus = {"a": vec(5, 1, 0), "b": query, "c": vec(-1, -2, -3)}
    hits = knn_search(query, index_of(corpus), 1)
    assert hits[0].record_id == "b"
    assert hits[0].similarity == pytest.approx(1.0, abs=1e-12)


def test_knn_k_exceeds_corpus() -> None:
    corpus = {"a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 1)}
    hits = knn_search(vec(1, 0.5), index_of(corpus), 10)
    assert len(hits) == 3
    sims = [h.similarity for h in hits]
    assert sims == sorted(sims, reverse=True)


def test_knn_tie_broken_by_id() -> None:
    corpus = {"z": vec(2, 0), "a": vec(4, 0), "m": vec(0, 1)}
    hits = knn_search(vec(1, 0), index_of(corpus), 2)
    # z and a are both exactly similarity 1.0; ascending id order wins
    assert [h.record_id for h in hits] == ["a", "z"]


def test_knn_matches_exhaustive_oracle_seeded() -> None:
    rng = random.Random(4242)
    # wide vectors too, where a matrix product would round unlike np.dot
    for trial, dim in enumerate((16, 16, 16, 256, 1536)):
        corpus = {
            f"rec-{i:03d}": vec(*[rng.uniform(-1, 1) for _ in range(dim)])
            for i in range(100)
        }
        if trial % 2 == 0:  # plant exact ties: duplicated vectors, distinct ids
            for j, donor in enumerate(rng.sample(sorted(corpus), 5)):
                corpus[f"rec-tie{j}"] = corpus[donor]
        query = vec(*[rng.uniform(-1, 1) for _ in range(dim)])
        hits = knn_search(query, index_of(corpus), 10)
        oracle = sorted(
            ((cosine_similarity(query, v), rid) for rid, v in corpus.items()),
            key=lambda pair: (-pair[0], pair[1]),
        )
        assert [(h.similarity, h.record_id) for h in hits] == oracle[:10]
        everything = knn_search(query, index_of(corpus), len(corpus))
        assert [(h.similarity, h.record_id) for h in everything] == oracle


def test_knn_validation() -> None:
    with pytest.raises(ValueError):
        index_of({})
    with pytest.raises(ValueError):
        knn_search(vec(1, 0), index_of({"a": vec(1, 0)}), 0)
    with pytest.raises(DimensionMismatchError):
        knn_search(vec(1, 0), index_of({"a": vec(1, 0, 0)}), 1)
    with pytest.raises(ValueError):  # ids out of order
        VectorIndex(["b", "a"], [vec(1, 0), vec(0, 1)])
    with pytest.raises(ValueError):  # a repeated id
        VectorIndex(["a", "a"], [vec(1, 0), vec(0, 1)])
    with pytest.raises(ValueError):  # fewer vectors than ids
        VectorIndex(["a", "b"], [vec(1, 0)])
    with pytest.raises(ValueError):  # more vectors than ids
        VectorIndex(["a"], [vec(1, 0), vec(0, 1)])


class _Response:
    def __init__(self, status_code: int, payload: dict):
        self.status_code = status_code
        self._payload = payload
        self.text = json.dumps(payload)

    def json(self) -> dict:
        return self._payload


class _Session:
    def __init__(self, outcomes: list):
        self.outcomes = list(outcomes)
        self.requests: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.outcomes.pop(0)


def test_http_provider_wire_shape() -> None:
    session = _Session([_Response(200, {"data": [{"embedding": [0.1, 0.2]}]})])
    provider = HttpEmbeddingProvider("http://host/", "emb-model", api_key="k", session=session)
    vector = provider.embed_text("hello world")
    assert vector.values.tolist() == [0.1, 0.2]
    assert vector.model_id == "emb-model"
    sent = session.requests[0]
    assert sent["url"] == "http://host/v1/embeddings"
    assert sent["json"] == {"model": "emb-model", "input": "hello world"}
    assert sent["headers"]["Authorization"] == "Bearer k"


def test_http_provider_malformed_payload() -> None:
    payloads = [
        {"data": []},
        {"data": [{"embedding": [None, 1.0]}]},
        {"data": [{"embedding": 5}]},
        {"data": [{"embedding": ["x"]}]},
        {"data": [{"embedding": ["1.5"]}]},
        {"data": [{"embedding": []}]},
        {"data": [{"embedding": [1e400]}]},  # json reads 1e400 as inf
        {"data": [{"embedding": [10**400]}]},
        {"data": [{"embedding": [True, 1.0]}]},
        {"data": [{"embedding": [[0.5, 1.0]]}]},
        {"data": [{"embedding": {"0": 1.0}}]},
    ]
    for payload in payloads:
        session = _Session([_Response(200, payload)])
        provider = HttpEmbeddingProvider("http://host", "m", api_key="k", session=session)
        with pytest.raises(ProviderError, match="malformed embedding payload"):
            provider.embed_text("x")


def test_http_provider_requires_key(monkeypatch) -> None:
    monkeypatch.delenv("CAUSAL_RAG_API_KEY", raising=False)
    provider = HttpEmbeddingProvider("http://host", "m", session=_Session([]))
    with pytest.raises(ProviderError):
        provider.embed_text("x")


def test_neighbor_hit_shape() -> None:
    hit = NeighborHit(record_id="r", similarity=0.5)
    assert hit.record_id == "r"
    assert -1.0 <= hit.similarity <= 1.0
