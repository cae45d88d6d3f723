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
    EmbeddingService,
    EmbeddingVector,
    HttpEmbeddingProvider,
    LocalHashEmbedder,
    VectorIndex,
    embedding_key,
    knn_search,
    normalize_for_key,
)
from causal_rag.errors import MalformedRecordError, ProviderError


def vec(*values: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(float(v) for v in values))


def same(a: EmbeddingVector, b: EmbeddingVector) -> bool:
    """Whether two vectors have the same components."""
    return np.array_equal(a.values, b.values)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Per-pair reference that `knn_search` must reproduce bit for bit:
    dot / (|a| * |b|), each a one-pair numpy call."""
    if a.dim != b.dim:
        raise ValueError(f"dim {a.dim} vs {b.dim}")
    x = np.asarray(a.values, dtype=np.float64)
    y = np.asarray(b.values, dtype=np.float64)
    norm_a = float(np.linalg.norm(x))
    norm_b = float(np.linalg.norm(y))
    return float(np.dot(x, y) / (norm_a * norm_b))


def index_of(corpus: dict[str, EmbeddingVector]) -> VectorIndex:
    ids = sorted(corpus)
    return VectorIndex(ids, np.array([corpus[rid].values for rid in ids]))


def similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity of `a` to `b` as the index computes it."""
    [(_, sim)] = knn_search(a, index_of({"r": b}), 1)
    return sim


def test_vector_validation() -> None:
    with pytest.raises(ValueError):
        EmbeddingVector(())
    with pytest.raises(ValueError):
        EmbeddingVector((1.0, float("nan")))
    with pytest.raises(ValueError):
        EmbeddingVector((float("inf"),))
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
    assert same(first, second)
    assert embedder.calls == 2
    assert first.dim == 64
    assert abs(sum(v * v for v in first.values) - 1.0) < 1e-12


def test_local_embedder_case_and_ws_invariant() -> None:
    embedder = LocalHashEmbedder(dim=32)
    assert same(embedder.embed_text("The  Storm"), embedder.embed_text("the storm"))


def test_local_embedder_rejects_empty() -> None:
    embedder = LocalHashEmbedder(dim=16)
    with pytest.raises(ValueError):
        embedder.embed_text("   ")


def test_cache_hit_skips_provider(tmp_path) -> None:
    embedder = LocalHashEmbedder(dim=16)
    service = EmbeddingService(embedder, EmbeddingCache(tmp_path / "c.jsonl"))
    first = service.vector("smoking causes cancer")
    assert embedder.calls == 1
    second = service.vector("smoking causes cancer")
    assert embedder.calls == 1
    assert second is first
    # normalization-equivalent text also hits
    service.vector("Smoking  CAUSES cancer")
    assert embedder.calls == 1


def test_cache_round_trip_bitwise(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    embedder = LocalHashEmbedder(dim=48)
    service = EmbeddingService(embedder, EmbeddingCache(path))
    texts = ["alpha beta", "gamma delta epsilon", "zeta"]
    originals = [service.vector(t) for t in texts]
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
    fresh = EmbeddingService(embedder, EmbeddingCache(tmp_path / "c.jsonl")).vector("alpha beta")
    loaded = EmbeddingCache(tmp_path / "c.jsonl").get(embedding_key("alpha beta", "local-hash-48"))
    for vector in (fresh, loaded, vec(1, 2, 3), EmbeddingVector([0.5, 2])):
        assert_frozen_array(vector)
    with pytest.raises(ValueError):
        fresh.values[0] = 1.0


def test_vector_takes_a_read_only_array_as_is_and_copies_any_other() -> None:
    frozen = np.array([1.0, 2.0])
    frozen.flags.writeable = False
    assert EmbeddingVector(frozen).values is frozen
    mine = np.array([1.0, 2.0])
    vector = EmbeddingVector(mine)
    mine[0] = 9.0  # the caller's array stays the caller's
    assert vector.values.tolist() == [1.0, 2.0] and mine.flags.writeable
    assert EmbeddingVector(np.array([1, 2], dtype=np.int32)).values.dtype == np.float64
    with pytest.raises(ValueError):
        EmbeddingVector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        EmbeddingVector([])


# the cache format, byte for byte: caches already on disk must load, and
# be appended to, unchanged
PINNED_CACHE_LINES = (
    '{"dim": 8, "key": "3ddb1447e30ac972e3b8d183e95a8d38f9a086bc622ef52941cfdd028037a797", '
    '"model": "local-hash-8", "vector": [0.0, 0.0, 0.0, 0.5773502691896258, '
    '0.5773502691896258, 0.5773502691896258, 0.0, 0.0]}\n'
    '{"dim": 8, "key": "8ee41686ee634498f333dd8f953f4b42d8af7222d99465fc91903aed73bcac05", '
    '"model": "m", "vector": [0.1, 0.3333333333333333, -0.0, -2.5, 1e-300, 5e-324, '
    '1e+150, 7.0]}\n'
)


def test_cache_lines_match_the_pinned_bytes(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    cache = EmbeddingCache(path)
    EmbeddingService(LocalHashEmbedder(dim=8), cache).vector("Smoking causes cancer")
    # 1e150, not 1e300: a squared norm beyond float64 is refused
    awkward = vec(0.1, 1 / 3, -0.0, -2.5, 1e-300, 5e-324, 1e150, 7.0)
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


def test_cache_writes_a_non_ascii_model_id_as_utf8_and_loads_either_form(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    EmbeddingCache(path).put(EmbeddingKey("a", "modèle"), vec(1, 0))
    assert '"model": "modèle"' in path.read_text(encoding="utf-8")
    with open(path, "a", encoding="utf-8") as handle:  # an older line, with \u escapes
        handle.write('{"dim": 2, "key": "b", "model": "mod\\u00e8le", "vector": [0.0, 1.0]}\n')
    loaded = EmbeddingCache(path)
    assert loaded.get(EmbeddingKey("a", "modèle")).values.tolist() == [1.0, 0.0]
    assert loaded.get(EmbeddingKey("b", "modèle")).values.tolist() == [0.0, 1.0]


def test_a_key_on_two_lines_loads_its_first_line_as_put_keeps(tmp_path) -> None:
    """Two record runs that share one cache can each write a key: the first
    line wins on load, as in `put`, and the later line is still checked."""
    path = tmp_path / "c.jsonl"
    first = {"dim": 2, "key": "k", "model": "m", "vector": [1.0, 0.0]}
    path.write_text(json.dumps(first) + "\n" + json.dumps({**first, "vector": [0.0, 1.0]}) + "\n",
                    encoding="utf-8")
    loaded = EmbeddingCache(path)
    assert loaded.get(EmbeddingKey("k", "m")).values.tolist() == [1.0, 0.0]
    assert loaded.put(EmbeddingKey("k", "m"), vec(0, 1)).values.tolist() == [1.0, 0.0]
    path.write_text(json.dumps(first) + "\n" + json.dumps({**first, "dim": 3}) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecordError, match="line 2: dim is 3 but the vector has 2"):
        EmbeddingCache(path)


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
    service = EmbeddingService(embedder, EmbeddingCache(path))
    texts = ["alpha beta", "gamma delta epsilon", "zeta"]
    originals = [service.vector(t) for t in texts]
    path.write_bytes(path.read_bytes()[:-20])  # a write cut short
    torn = EmbeddingCache(path)
    assert len(torn) == 2
    assert torn.get(embedding_key(texts[2], embedder.model_id)) is None
    assert same(EmbeddingService(embedder, torn).vector(texts[2]), originals[2])
    reloaded = EmbeddingCache(path)
    assert len(reloaded) == 3
    for text, original in zip(texts, originals):
        assert same(reloaded.get(embedding_key(text, embedder.model_id)), original)


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
    ({"vector": [True, False]}, "embedding must be a JSON array of numbers"),
    ({"vector": [1.5, False]}, "embedding must be a JSON array of numbers"),
    ({"vector": [1, "1"]}, "embedding must be a JSON array of numbers"),
    ({"vector": [10**400, 1.0]}, "embedding components must be finite"),
    ({"vector": [float("nan"), 1.0]}, "embedding components must be finite"),
    ({"vector": [1.0, 2.0, 3.0]}, "model 'm' previously produced dim 2, got 3"),
    ({"key": None}, "key and model must be strings"),
    ({"model": ["m"]}, "key and model must be strings"),
    ({"dim": None}, "dim must be an integer, got None"),
    ({"dim": "2"}, "dim must be an integer, got '2'"),
    ({"dim": 2.0}, "dim must be an integer, got 2.0"),
    ({"dim": True}, "dim must be an integer, got True"),
    ({"dim": 3}, "dim is 3 but the vector has 2 components"),
])
def test_cache_line_that_does_not_fit_names_the_file_and_the_line(tmp_path, line, reason) -> None:
    path = tmp_path / "c.jsonl"
    good = {"dim": 2, "key": "k1", "model": "m", "vector": [0.6, 0.8]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "key": "k2", **line}) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        EmbeddingCache(path)
    assert str(excinfo.value).startswith(f"{path}: line 2: {reason}")


def test_cache_line_without_dim_is_named(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    good = {"dim": 2, "key": "k1", "model": "m", "vector": [0.6, 0.8]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({"key": "k2", "model": "m", "vector": [0.6, 0.8]})
                    + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError, match="line 2: missing field 'dim'"):
        EmbeddingCache(path)


@pytest.mark.parametrize("vector, reason", [
    ([0.0, -0.0], "embedding must not be the all-zero vector"),
    # each component is finite, but the squared norm overflows float64
    ([1e200, 1e200], "embedding's squared norm must be finite"),
    # not zero, but the squared norm is subnormal
    ([1e-160, 3e-161], "embedding's squared norm must not be below 2.2e-308"),
])
def test_cache_line_with_an_all_zero_vector_is_named(tmp_path, vector, reason) -> None:
    path = tmp_path / "c.jsonl"
    good = {"dim": 2, "key": "k1", "model": "m", "vector": [0.6, 0.8]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "vector": vector}) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRecordError, match=f"line 2: {reason}"):
        EmbeddingCache(path)


def test_cache_dim_mismatch(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    cache = EmbeddingCache(path)
    cache.put(embedding_key("a", "m"), vec(*([1.0] * 4)))
    with pytest.raises(MalformedRecordError) as excinfo:
        cache.put(embedding_key("b", "m"), vec(*([1.0] * 8)))
    assert str(excinfo.value) == f"{path}: model 'm' previously produced dim 4, got 8"
    # a different model may use a different dim
    cache.put(embedding_key("b", "m2"), vec(*([1.0] * 8)))
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


def test_a_vector_whose_dim_differs_from_a_cache_line_names_the_file_and_that_line(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    other = {"dim": 3, "key": "k0", "model": "other", "vector": [1.0, 0.0, 0.0]}
    line = {"dim": 2, "key": "k1", "model": "local-hash-8", "vector": [0.6, 0.8]}
    path.write_text(json.dumps(other) + "\n\n" + json.dumps(line) + "\n", encoding="utf-8")
    written = path.read_bytes()
    embedder = LocalHashEmbedder(dim=8)
    service = EmbeddingService(embedder, EmbeddingCache(path))
    with pytest.raises(MalformedRecordError) as excinfo:
        service.vector("smoking causes cancer")
    assert str(excinfo.value) == (
        f"{path}: line 3: model 'local-hash-8' previously produced dim 2, got 8")
    assert excinfo.value.path == path and excinfo.value.line_number == 3
    assert embedder.calls == 1 and path.read_bytes() == written


class _Provider:
    """Provider returning preset dims per call, for mismatch tests."""

    def __init__(self, dims: list[int]):
        self.model_id = "m"
        self.dims = list(dims)
        self.calls = 0

    def embed_text(self, text: str) -> EmbeddingVector:
        self.calls += 1
        dim = self.dims.pop(0)
        return EmbeddingVector((1.0,) * dim)


def test_provider_dim_change_rejected(tmp_path) -> None:
    service = EmbeddingService(_Provider([1536, 512]), EmbeddingCache(tmp_path / "c.jsonl"))
    service.vector("first text")
    with pytest.raises(MalformedRecordError,
                       match="model 'm' previously produced dim 1536, got 512"):
        service.vector("second text")


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
    embedder = _CountingEmbedder()
    service = EmbeddingService(embedder, _MissTogetherCache(path))
    results: list[EmbeddingVector] = []

    def worker() -> None:
        results.append(service.vector("smoking causes cancer"))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 2
    assert embedder.calls == 1
    assert results[0] is results[1]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_concurrent_embedding_stress_embeds_each_text_once(tmp_path) -> None:
    path = tmp_path / "c.jsonl"
    embedder = _CountingEmbedder()
    service = EmbeddingService(embedder, EmbeddingCache(path))
    texts = [f"text number {i}" for i in range(40)]
    served: dict[str, set[bytes]] = {text: set() for text in texts}
    lock = threading.Lock()

    def worker(offset: int) -> None:
        for text in texts[offset:] + texts[:offset]:
            values = service.vector(text).values.tobytes()
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
    kept = cache.fill(key, lambda: vec(1.0, 2.0))
    assert kept.values.tolist() == [1.0, 2.0]
    assert cache.fill(key, fail) is kept


def test_vector_rejects_empty_text() -> None:
    embedder = LocalHashEmbedder(dim=8)
    with pytest.raises(ValueError, match="cannot embed empty text"):
        EmbeddingService(embedder).vector("  ")
    assert embedder.calls == 0


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
    with pytest.raises(ValueError, match="dim 2 vs 3"):
        similarity(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(ValueError, match="^dim 2 vs 3$"):  # a dim that changes partway
        EmbeddingService(_Provider([2, 2, 3])).index(["a", "b", "c"], ["x", "y", "z"])
    # no query or row is all zero, has a squared norm beyond float64 (which
    # would score its cosines 0 or NaN) or a subnormal one (which would score
    # a cosine above 1): such a vector is refused where it is made
    with pytest.raises(ValueError, match="embedding must not be the all-zero vector"):
        vec(0, 0)
    with pytest.raises(ValueError, match="embedding's squared norm must be finite"):
        vec(1e200, 1e200)
    with pytest.raises(ValueError, match="embedding's squared norm must not be below 2.2e-308"):
        vec(1e-160, 3e-161)  # parallel to [1.0, 0.3], which it would score 1.0000418
    with pytest.raises(ValueError, match="embedding's squared norm must not be below 2.2e-308"):
        vec(1e-170, 1e-170)  # its squared norm underflows to 0


def test_every_accepted_vector_scores_cosines_within_rounding_of_minus_one_to_one() -> None:
    """Over component scales from 1e-160 to 1e150, each vector is refused,
    or scores every row, itself and a parallel copy at another scale among
    them, within 1e-12 of [-1, 1], as the query and as a row."""
    rng = random.Random(20261022)
    accepted = refused = 0
    for _ in range(1200):
        dim = rng.randint(2, 256)
        scale = 10.0 ** rng.uniform(-160, 150)
        components = [scale * rng.uniform(-1, 1) for _ in range(dim)]
        try:
            vector = vec(*components)
        except ValueError:
            refused += 1
            continue
        accepted += 1
        copy_scale = 10.0 ** rng.uniform(-150, 150)
        others = [vec(*(c / scale * copy_scale for c in components)),
                  *(vec(*(rng.uniform(-1, 1) for _ in range(dim))) for _ in range(2))]
        rows = {f"r{i}": v for i, v in enumerate([vector, *others])}
        index = index_of(rows)
        for query in rows.values():
            for hit in knn_search(query, index, len(rows)):
                assert -1 - 1e-12 <= hit[1] <= 1 + 1e-12, (scale, dim, hit)
    assert accepted > 1000 and refused > 10


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
    assert hits[0][0] == "b"
    assert hits[0][1] == pytest.approx(1.0, abs=1e-12)


def test_knn_k_exceeds_corpus() -> None:
    corpus = {"a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 1)}
    hits = knn_search(vec(1, 0.5), index_of(corpus), 10)
    assert len(hits) == 3
    sims = [sim for _, sim in hits]
    assert sims == sorted(sims, reverse=True)


def test_knn_tie_broken_by_id() -> None:
    corpus = {"z": vec(2, 0), "a": vec(4, 0), "m": vec(0, 1)}
    hits = knn_search(vec(1, 0), index_of(corpus), 2)
    # z and a are both exactly similarity 1.0; ascending id order wins
    assert [rid for rid, _ in hits] == ["a", "z"]


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
        assert [(sim, rid) for rid, sim in hits] == oracle[:10]
        everything = knn_search(query, index_of(corpus), len(corpus))
        assert [(sim, rid) for rid, sim in everything] == oracle


def test_kept_hits_serve_every_k_as_a_fresh_index_does() -> None:
    rng = random.Random(31337)
    depth = 6
    corpus = {f"rec-{i:02d}": vec(*[rng.uniform(-1, 1) for _ in range(8)]) for i in range(30)}
    query = vec(*[rng.uniform(-1, 1) for _ in range(8)])
    # a tie that straddles the depth-th place: five rows equal to the 4th best
    fourth = knn_search(query, index_of(corpus), 4)[-1][0]
    for j in range(5):
        corpus[f"rec-tie{j}"] = corpus[fourth]
    kept = index_of(corpus)
    kept.keep_hits(depth)
    for _ in range(2):
        for k in range(1, depth + 3):
            assert knn_search(query, kept, k) == knn_search(query, index_of(corpus), k), k
    assert sum(rid.startswith("rec-tie") for rid, _ in knn_search(query, kept, depth)) < 5
    assert len(kept.hits) == 1
    # an equal but distinct query object is kept under its own entry
    twin = EmbeddingVector(query.values)
    assert knn_search(twin, kept, depth) == knn_search(query, kept, depth)
    assert len(kept.hits) == 2
    # a new depth drops what the old one kept
    kept.keep_hits(2)
    assert len(kept.hits) == 0
    assert knn_search(query, kept, 3) == knn_search(query, index_of(corpus), 3)


def test_knn_validation() -> None:
    with pytest.raises(ValueError):
        index_of({})
    with pytest.raises(ValueError):
        knn_search(vec(1, 0), index_of({"a": vec(1, 0)}), 0)
    with pytest.raises(ValueError, match="dim 2 vs 3"):
        knn_search(vec(1, 0), index_of({"a": vec(1, 0, 0)}), 1)
    two_rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^index ids must be strictly ascending$"):
        VectorIndex(["b", "a"], two_rows)
    with pytest.raises(ValueError, match="^index ids must be strictly ascending$"):
        VectorIndex(["a", "a"], two_rows)
    with pytest.raises(ValueError, match="^1 rows for 2 ids$"):
        VectorIndex(["a", "b"], two_rows[:1])
    with pytest.raises(ValueError, match="^2 rows for 1 ids$"):
        VectorIndex(["a"], two_rows)
    assert two_rows.flags.writeable  # a refused matrix is left as it was


def test_index_refuses_bad_ids_before_embedding_anything() -> None:
    provider = _Provider([2, 2])
    service = EmbeddingService(provider)
    for ids, texts, reason in (
        (["b", "a"], ["x", "y"], "^index ids must be strictly ascending$"),
        (["a", "a"], ["x", "y"], "^index ids must be strictly ascending$"),
        (["a", "b"], ["x"], "^1 texts for 2 ids$"),
        (["a"], ["x", "y"], "^2 texts for 1 ids$"),
        ([], [], "^corpus must be non-empty$"),
    ):
        with pytest.raises(ValueError, match=reason):
            service.index(ids, texts)
    assert provider.calls == 0
    index = service.index(["a", "b"], ["x", "y"])
    assert index.ids == ("a", "b") and index.matrix.shape == (2, 2)
    assert not index.matrix.flags.writeable


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
        {"data": [{"embedding": [0.0, -0.0, 0]}]},  # no cosine similarity with it
    ]
    for payload in payloads:
        session = _Session([_Response(200, payload)])
        provider = HttpEmbeddingProvider("http://host", "m", api_key="k", session=session)
        with pytest.raises(ProviderError, match="malformed embedding payload"):
            provider.embed_text("x")


def test_a_hit_is_its_record_id_and_its_cosine_similarity() -> None:
    [(record_id, sim)] = knn_search(vec(1, 0), index_of({"r": vec(3, 4)}), 1)
    assert record_id == "r"
    assert type(sim) is float and sim == pytest.approx(0.6)
