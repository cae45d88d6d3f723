"""Sentence embeddings: remote or local providers, a JSONL cache, exact kNN.

Vectors are kept by key: the sha256 hash of the normalized sentence
(lowercased, whitespace-collapsed) plus the embedding model id. An
`EmbeddingService` is the one memo of a run's vectors, through the JSONL
cache when there is one, so no text is embedded twice and re-running a
pipeline with a cache never re-embeds text it has already seen. Search is an
exact cosine scan over a matrix of the corpus vectors, built once: the
candidate pools here are a few thousand vectors at most, where an exact scan
is both faster to run and simpler to trust than an approximate index. Once
the service has written a vector into the matrix, its memo keeps a view of
that row, so each corpus vector is held once.

numpy is imported where a vector is first made or scanned, so runs that
never embed (random, pattern and zeroshot retrieval, `build-db`, `eval`,
`stats`) never load it.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence

from .corpus import normalize_lower as normalize_for_key
from .errors import DimensionMismatchError, ZeroVectorError
from .gateway import HttpEndpoint
from .jsonl import LineAppender, Memo, encode_line, read_jsonl

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, slots=True, eq=False)
class EmbeddingVector:
    """One embedding: a read-only, one-dimensional float64 array, 8 bytes a
    component. A read-only float64 array is kept as is; any other sequence
    of numbers is copied into one. Two vectors are equal when their model
    ids and components are."""

    values: np.ndarray
    model_id: str

    def __post_init__(self) -> None:
        import numpy as np  # runs that never embed never load numpy

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
        import numpy as np

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
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
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
        import numpy as np

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


class HttpEmbeddingProvider(HttpEndpoint):
    """OpenAI-compatible /v1/embeddings over HTTP; the settings after
    `model_id` are `HttpEndpoint`'s."""

    def __init__(self, base_url: str, model_id: str, *settings, **named_settings):
        super().__init__(base_url, *settings, **named_settings)
        self.model_id = model_id

    def embed_text(self, text: str) -> EmbeddingVector:
        return self.post(
            "/v1/embeddings", {"model": self.model_id, "input": text}, "embedding",
            lambda data: vector_from_json(data["data"][0]["embedding"], self.model_id),
        )


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
        """One cache line's key and vector, of its model's earlier dim and
        of the line's own `dim`."""
        key, model = obj["key"], obj["model"]
        if type(key) is not str or type(model) is not str:
            raise TypeError("key and model must be strings")
        model = sys.intern(model)  # one copy for every line of the model
        vector = vector_from_json(obj["vector"], model)
        self._check_dim(vector)
        dim = obj["dim"]
        if type(dim) is not int:
            raise TypeError(f"dim must be an integer, got {dim!r}")
        if dim != vector.dim:
            raise ValueError(f"dim is {dim} but the vector has {vector.dim} components")
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
        line = encode_line({
            "key": key.content_hash,
            "model": key.model_id,
            "dim": vector.dim,
            "vector": vector.values.tolist(),
        })
        with self._lock:
            self._check_dim(vector)
            kept = self._values.get(key)
            if kept is None:
                self._appender.append(line)
                self._values[key] = kept = vector
        return kept


def embed(text: str, provider: EmbeddingProvider, memo: Memo,
          key: EmbeddingKey | None = None) -> EmbeddingVector:
    """Fetch one embedding, going to the provider only on a miss in `memo`
    (an `EmbeddingCache` or a plain memo of vectors); concurrent misses on
    one text make a single provider call. `key` is the text's
    `embedding_key`, computed when not given."""
    if not text.strip():
        raise ValueError("cannot embed empty text")
    if key is None:
        key = embedding_key(text, provider.model_id)
    hit = memo.get(key)
    if hit is not None:
        return hit
    return memo.fill(key, lambda: provider.embed_text(text))


@dataclass
class EmbeddingService:
    """A provider and the one memo of its vectors, by `embedding_key`: the
    write-through `cache` when given, else a memo in memory. A text is
    embedded at most once per service, whoever asks for it.

    `index` makes the index's matrix the only copy of each corpus vector:
    the memo then keeps a read-only view of the text's row in place of the
    vector the provider or the cache file gave."""

    provider: EmbeddingProvider
    cache: EmbeddingCache | None = None
    memo: Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.memo = self.cache if self.cache is not None else Memo()

    @property
    def model_id(self) -> str:
        return self.provider.model_id

    def vector(self, text: str, key: EmbeddingKey | None = None) -> EmbeddingVector:
        """The vector of `text`; `key` is its `embedding_key`, computed
        when not given."""
        return embed(text, self.provider, self.memo, key)

    def index(self, ids: Sequence[str], texts: Sequence[str]) -> VectorIndex:
        """A `VectorIndex` of the vectors of `texts`, one row per id. Each
        text's memo entry is rebound to its row's view as soon as the row
        is written, so the vector it replaces (just embedded, or loaded
        from the cache file) is freed before the next text is embedded."""
        key = None  # the key of the text last embedded, computed once

        def vectors() -> Iterator[EmbeddingVector]:
            nonlocal key
            for text in texts:
                key = embedding_key(text, self.model_id)
                yield self.vector(text, key)

        return VectorIndex(ids, vectors(), on_row=lambda row: self.memo.rebind(key, row))


class VectorIndex:
    """The vectors of a corpus as the rows of one read-only matrix, with
    their norms.

    `ids` must be strictly ascending: row order is then the tie order of
    `knn_search`. Each vector is copied into its row as it comes, and the
    index keeps no reference to it. `on_row`, when given, is handed each
    row as soon as it is written, as an `EmbeddingVector` over a read-only
    view of the row: the holder of the vector that came in may keep that
    instead, and so hold no second copy (`EmbeddingService.index`)."""

    def __init__(self, ids: Sequence[str], vectors: Iterable[EmbeddingVector],
                 on_row: Callable[[EmbeddingVector], None] | None = None):
        if not ids:
            raise ValueError("corpus must be non-empty")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("index ids must be strictly ascending")
        import numpy as np

        self.ids = tuple(ids)
        vectors = iter(vectors)
        matrix = np.empty((0, 0))
        # `next` rather than `zip`: zip would hold each vector until the
        # next one is made
        for row in range(len(self.ids)):
            vector = next(vectors, None)
            if vector is None:
                raise ValueError("fewer vectors than ids")
            if row == 0:
                matrix = np.empty((len(self.ids), vector.dim), dtype=np.float64)
            elif vector.dim != matrix.shape[1]:
                raise DimensionMismatchError(f"dim {matrix.shape[1]} vs {vector.dim}")
            matrix[row] = vector.values
            if on_row is not None:
                view = matrix[row]
                view.flags.writeable = False
                on_row(EmbeddingVector(values=view, model_id=vector.model_id))
            del vector
        if next(vectors, None) is not None:
            raise ValueError("more vectors than ids")
        matrix.flags.writeable = False
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
    import numpy as np

    q = query.values
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ZeroVectorError("cosine similarity undefined for an all-zero vector")
    similarities = np.vecdot(index.matrix, q) / (norm * index.norms)
    top = np.argsort(-similarities, kind="stable")[:k]
    return [NeighborHit(record_id=index.ids[i], similarity=float(similarities[i])) for i in top]
