"""Sentence embeddings: remote or local providers, a JSONL cache, exact kNN.

Cache keys are sha256 hashes of the normalized sentence (lowercased,
whitespace-collapsed) plus the embedding model id, so re-running a pipeline
never re-embeds text it has already seen. Search is an exact cosine scan over
a matrix of the corpus vectors, built once: the candidate pools here are a
few thousand vectors at most, where an exact scan is both faster to run and
simpler to trust than an approximate index.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np
import requests

from .corpus import normalize_lower as normalize_for_key
from .errors import DimensionMismatchError, ProviderError, ZeroVectorError
from .gateway import API_KEY_ENV, DEFAULT_TIMEOUT, post_with_retry
from .jsonl import LineAppender, Memo, read_jsonl


@dataclass(frozen=True, slots=True, eq=False)
class EmbeddingVector:
    """One embedding: a read-only, one-dimensional float64 array, 8 bytes a
    component. A read-only float64 array is kept as is; any other sequence
    of numbers is copied into one. Two vectors are equal when their model
    ids and components are."""

    values: np.ndarray
    model_id: str

    def __post_init__(self) -> None:
        values = self.values
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and not values.flags.writeable):
            values = np.array(values, dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, "values", values)
        if values.ndim != 1 or not values.size:
            raise ValueError("embedding must have at least one component, in one dimension")
        if not np.isfinite(values).all():
            raise ValueError("embedding components must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return self.model_id == other.model_id and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which it equals
        return hash((self.model_id, (self.values + 0.0).tobytes()))


@dataclass(frozen=True, slots=True)
class EmbeddingKey:
    content_hash: str
    model_id: str


@dataclass(frozen=True)
class NeighborHit:
    record_id: str
    similarity: float


def vector_from_json(values, model_id: str) -> EmbeddingVector:
    """An embedding from a decoded JSON value, which must be a non-empty
    array of finite numbers; anything else is a TypeError or ValueError."""
    # numpy would read a string, a null or a boolean as a number
    if type(values) is not list or not all(type(v) in (int, float) for v in values):
        raise TypeError("embedding must be a JSON array of numbers")
    try:
        return EmbeddingVector(values=values, model_id=model_id)
    except OverflowError:  # an integer beyond float64
        raise ValueError("embedding components must be finite") from None


def embedding_key(text: str, model_id: str) -> EmbeddingKey:
    digest = hashlib.sha256(normalize_for_key(text).encode("utf-8")).hexdigest()
    return EmbeddingKey(content_hash=digest, model_id=model_id)


class EmbeddingProvider(Protocol):
    model_id: str

    def embed_text(self, text: str) -> EmbeddingVector: ...


class LocalHashEmbedder:
    """Deterministic offline embedder: hash tokens into buckets, L2-normalize.

    Not semantically meaningful; it exists so retrieval plumbing is testable
    without a network. Identical text always yields identical vectors.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.model_id = f"local-hash-{dim}"
        self.calls = 0

    def embed_text(self, text: str) -> EmbeddingVector:
        if not text.strip():
            raise ValueError("cannot embed empty text")
        self.calls += 1
        counts = np.zeros(self.dim, dtype=np.float64)
        for token in normalize_for_key(text).split(" "):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:8], "big") % self.dim
            counts[bucket] += 1.0
        norm = float(np.linalg.norm(counts))
        if norm == 0.0:
            raise ValueError("cannot embed empty text")
        counts /= norm
        counts.flags.writeable = False
        return EmbeddingVector(values=counts, model_id=self.model_id)


class HttpEmbeddingProvider:
    """OpenAI-compatible /v1/embeddings over HTTP."""

    def __init__(
        self,
        base_url: str,
        model_id: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model_id = model_id
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.sleeper = sleeper
        self.rng = rng
        self.session = session
        self.calls = 0

    def embed_text(self, text: str) -> EmbeddingVector:
        if not self.api_key:
            raise ProviderError(f"no API key: set {API_KEY_ENV} or pass api_key")
        self.calls += 1
        response = post_with_retry(
            f"{self.base_url}/v1/embeddings",
            {"model": self.model_id, "input": text},
            {"Authorization": f"Bearer {self.api_key}"},
            timeout=self.timeout,
            sleeper=self.sleeper,
            rng=self.rng,
            session=self.session,
        )
        try:
            return vector_from_json(response.json()["data"][0]["embedding"], self.model_id)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed embedding payload: {exc}") from exc


class EmbeddingCache(Memo):
    """Write-through JSONL cache keyed by (content hash, model id), as a memo
    of vectors.

    One line per vector: {"key", "model", "dim", "vector"}. All vectors of a
    model must share one dimension; a mismatch is rejected at load and at
    insert time.
    The first vector kept under a key wins; writes are serialized.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self._appender = LineAppender(self.path)
        self._dims: dict[str, int] = {}
        if self.path.exists():
            self._values.update(read_jsonl(self.path, self._entry))

    def _entry(self, obj: dict) -> tuple[EmbeddingKey, EmbeddingVector]:
        """One cache line's key and vector, of its model's earlier dim."""
        key, model = obj["key"], obj["model"]
        if type(key) is not str or type(model) is not str:
            raise TypeError("key and model must be strings")
        vector = vector_from_json(obj["vector"], model)
        self._check_dim(vector)
        return EmbeddingKey(key, model), vector

    def _check_dim(self, vector: EmbeddingVector) -> None:
        """Keep the dim of the model's first vector; refuse any other."""
        known = self._dims.setdefault(vector.model_id, vector.dim)
        if known != vector.dim:
            raise DimensionMismatchError(
                f"model {vector.model_id!r} previously produced dim {known}, got {vector.dim}"
            )

    def put(self, key: EmbeddingKey, vector: EmbeddingVector) -> EmbeddingVector:
        if key.model_id != vector.model_id:
            raise ValueError("key and vector disagree on model_id")
        line = json.dumps(
            {
                "key": key.content_hash,
                "model": key.model_id,
                "dim": vector.dim,
                "vector": vector.values.tolist(),
            },
            sort_keys=True,
        )
        with self._lock:
            self._check_dim(vector)
            kept = self._values.get(key)
            if kept is None:
                self._appender.append(line)
                self._values[key] = kept = vector
        return kept


def embed(text: str, provider: EmbeddingProvider, cache: EmbeddingCache | None = None) -> EmbeddingVector:
    """Fetch one embedding, going to the provider only on a cache miss;
    concurrent misses on one text make a single provider call."""
    if not text.strip():
        raise ValueError("cannot embed empty text")
    if cache is None:
        return provider.embed_text(text)
    key = embedding_key(text, provider.model_id)
    hit = cache.get(key)
    if hit is not None:
        return hit
    return cache.fill(key, lambda: provider.embed_text(text))


@dataclass
class EmbeddingService:
    """A provider plus optional write-through cache, as one handle."""

    provider: EmbeddingProvider
    cache: EmbeddingCache | None = None

    @property
    def model_id(self) -> str:
        return self.provider.model_id

    def vector(self, text: str) -> EmbeddingVector:
        return embed(text, self.provider, self.cache)


class VectorIndex:
    """The vectors of a corpus as the rows of one matrix, with their norms.

    `ids` must be strictly ascending: row order is then the tie order of
    `knn_search`. Each vector is copied into its row as it comes and not
    kept, but a cache keeps the vectors it served: with a cache the corpus
    is in memory twice, 8 bytes a component each time."""

    def __init__(self, ids: Sequence[str], vectors: Iterable[EmbeddingVector]):
        if not ids:
            raise ValueError("corpus must be non-empty")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("index ids must be strictly ascending")
        self.ids = tuple(ids)
        matrix = np.empty((0, 0))
        for row, (_, vector) in enumerate(zip(self.ids, vectors, strict=True)):
            if row == 0:
                matrix = np.empty((len(self.ids), vector.dim), dtype=np.float64)
            elif vector.dim != matrix.shape[1]:
                raise DimensionMismatchError(f"dim {matrix.shape[1]} vs {vector.dim}")
            matrix[row] = vector.values
        self.matrix = matrix
        self.norms = np.sqrt(np.vecdot(matrix, matrix))
        if not self.norms.all():
            raise ZeroVectorError("cosine similarity undefined for an all-zero vector")


def knn_search(query: EmbeddingVector, index: VectorIndex, k: int) -> list[NeighborHit]:
    """Exact top-k by cosine similarity, ties broken by ascending record id.

    Each score is dot / (|query| * |row|), in that order. np.vecdot takes
    every dot product, and every squared row norm, bit for bit as np.dot
    takes it for one pair; a matrix product may round differently, and a
    last-bit change can reorder ties or change a prompt."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if query.dim != index.matrix.shape[1]:
        raise DimensionMismatchError(f"dim {query.dim} vs {index.matrix.shape[1]}")
    q = query.values
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ZeroVectorError("cosine similarity undefined for an all-zero vector")
    similarities = np.vecdot(index.matrix, q) / (norm * index.norms)
    top = np.argsort(-similarities, kind="stable")[:k]
    return [NeighborHit(record_id=index.ids[i], similarity=float(similarities[i])) for i in top]
