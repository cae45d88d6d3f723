"""Sentence embeddings: remote or local providers, a JSONL cache, exact kNN.

Vectors are kept by key: the sha256 hash of the normalized sentence
(lowercased, whitespace-collapsed) plus the embedding model id. A vector is
its components only; its model is its key's. An `EmbeddingService` takes the
one memo of a run's vectors, the JSONL cache when there is one, so no text is
embedded twice and re-running a pipeline with a cache never re-embeds text it
has already seen: its `vector` is the one place a vector is fetched, a miss
asking the provider.
Search is an exact cosine scan over a matrix of the corpus vectors, built
once: the candidate pools here are a few thousand vectors at most, where an
exact scan is both faster to run and simpler to trust than an approximate
index. The service's `index` is the one place a row is written; its memo
then keeps a view of that row, so each corpus vector is held once. An index
told to `keep_hits(depth)` keeps each query's top `depth` hits, so a query
asked for at several k is ranked once.

numpy is imported where a vector is first made or scanned, so runs that
never embed (random, pattern and zeroshot retrieval, `build-db`, `eval`,
`stats`) never load it."""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence

from .corpus import normalize_lower as normalize_for_key
from .errors import MalformedRecordError
from .gateway import HttpEndpoint
from .jsonl import LineAppender, Memo, encode_line, read_json_objects

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, slots=True, eq=False)
class EmbeddingVector:
    """One embedding: a read-only, one-dimensional float64 array, 8 bytes a
    component, finite and not all zero, with a finite squared norm no
    smaller than the smallest normal float64, so every cosine similarity
    with it is defined, finite and within rounding of [-1, 1]. A read-only
    float64 array is kept as is; any other sequence of numbers is copied
    into one. Its model is the model of the key it is kept under."""

    values: np.ndarray

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
        with np.errstate(over="ignore"):  # an overflow is refused below
            squared_norm = np.vecdot(values, values)
        if squared_norm < sys.float_info.min:
            if not values.any():  # no cosine similarity with it is defined
                raise ValueError("embedding must not be the all-zero vector")
            # subnormal or underflowed to 0: its norm loses digits, and its
            # cosines may pass 1 and reorder ties
            raise ValueError(f"embedding's squared norm must not be below {sys.float_info.min:.1e}")
        if not np.isfinite(squared_norm):  # its cosines would read 0 or NaN
            raise ValueError("embedding's squared norm must be finite")

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, slots=True)
class EmbeddingKey:
    content_hash: str
    model_id: str


def vector_from_json(values) -> EmbeddingVector:
    """An embedding from a decoded JSON value, which must be a non-empty
    array of finite numbers, not all zero, whose squared norm is finite and
    not below the smallest normal float64; anything else is a TypeError or
    ValueError."""
    # numpy would read a string, a null or a boolean as a number
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise TypeError("embedding must be a JSON array of numbers")
    try:
        return EmbeddingVector(values)
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
        counts /= np.linalg.norm(counts)  # at least one token, so at least 1
        counts.flags.writeable = False
        return EmbeddingVector(counts)


class HttpEmbeddingProvider(HttpEndpoint):
    """OpenAI-compatible /v1/embeddings over HTTP; the settings after
    `model_id` are `HttpEndpoint`'s."""

    def __init__(self, base_url: str, model_id: str, *settings, **named_settings):
        super().__init__(base_url, *settings, **named_settings)
        self.model_id = model_id

    def embed_text(self, text: str) -> EmbeddingVector:
        return self.post(
            "/v1/embeddings", {"model": self.model_id, "input": text}, "embedding",
            lambda data: vector_from_json(data["data"][0]["embedding"]),
        )


class EmbeddingCache(Memo):
    """Write-through JSONL cache keyed by (content hash, model id), as a memo
    of vectors.

    One line per vector: {"key", "model", "dim", "vector"}. All vectors of a
    model must share one dimension; a mismatch is rejected at load and at
    insert time, naming the cache file and a line of it (see `_check_dim`).
    The first vector kept under a key wins; writes are serialized.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self._appender = LineAppender(self.path)
        # each model's dim, and the line it was first read from (or None)
        self._dims: dict[str, tuple[int, int | None]] = {}
        if self.path.exists():
            for line_no, obj in read_json_objects(self.path):
                try:
                    key, vector = self._entry(obj, line_no)
                except (KeyError, TypeError, ValueError) as exc:
                    raise MalformedRecordError(exc, line_no, self.path) from None
                self._values.setdefault(key, vector)  # the first line wins, as in `put`

    def _entry(self, obj: dict, line_no: int) -> tuple[EmbeddingKey, EmbeddingVector]:
        """One cache line's key and vector, of its model's earlier dim and
        of the line's own `dim`."""
        key, model = obj["key"], obj["model"]
        if type(key) is not str or type(model) is not str:
            raise TypeError("key and model must be strings")
        model = sys.intern(model)  # one copy for every line of the model
        vector = vector_from_json(obj["vector"])
        self._check_dim(model, vector.dim, line_no)
        dim = obj["dim"]
        if type(dim) is not int:
            raise TypeError(f"dim must be an integer, got {dim!r}")
        if dim != vector.dim:
            raise ValueError(f"dim is {dim} but the vector has {vector.dim} components")
        return EmbeddingKey(key, model), vector

    def _check_dim(self, model: str, dim: int, line_no: int | None) -> None:
        """Keep the dim of the model's first vector and the line it was read
        from (None for a put); refuse any other, naming the line at fault."""
        known, first_line = self._dims.setdefault(model, (dim, line_no))
        if known != dim:
            raise MalformedRecordError(
                f"model {model!r} previously produced dim {known}, got {dim}",
                line_no or first_line, self.path)

    def put(self, key: EmbeddingKey, vector: EmbeddingVector) -> EmbeddingVector:
        line = encode_line({
            "key": key.content_hash,
            "model": key.model_id,
            "dim": vector.dim,
            "vector": vector.values.tolist(),
        })
        with self._lock:
            self._check_dim(key.model_id, vector.dim, None)
            kept = self._values.get(key)
            if kept is None:
                self._appender.append(line)
                self._values[key] = kept = vector
        return kept


@dataclass
class EmbeddingService:
    """A provider and the one memo of its vectors, by `embedding_key`: an
    `EmbeddingCache` to write them through to a file, else by default a new
    memo in memory. A text is embedded at most once per service, whoever
    asks for it.

    `index` makes the index's matrix the only copy of each corpus vector:
    the memo then keeps a read-only view of the text's row in place of the
    vector the provider or the cache file gave."""

    provider: EmbeddingProvider
    memo: Memo = field(default_factory=Memo)

    def vector(self, text: str, key: EmbeddingKey | None = None) -> EmbeddingVector:
        """The vector of `text`, from the provider only on a miss in the
        memo; concurrent misses on one text make a single provider call.
        `key` is the text's `embedding_key`, computed when not given."""
        if not text.strip():
            raise ValueError("cannot embed empty text")
        if key is None:
            key = embedding_key(text, self.provider.model_id)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        return self.memo.fill(key, lambda: self.provider.embed_text(text))

    def index(self, ids: Sequence[str], texts: Sequence[str]) -> VectorIndex:
        """A `VectorIndex` of the vectors of `texts`, one row per id (checked
        first). Each text's memo entry is rebound to a read-only view of its
        row once written, so the vector it replaces (just embedded, or read
        from the cache file) is freed before the next text is embedded."""
        _check_ids(ids)
        if len(texts) != len(ids):
            raise ValueError(f"{len(texts)} texts for {len(ids)} ids")
        import numpy as np

        for row, text in enumerate(texts):
            key = embedding_key(text, self.provider.model_id)
            vector = self.vector(text, key)
            if row == 0:
                matrix = np.empty((len(texts), vector.dim), dtype=np.float64)
            elif vector.dim != matrix.shape[1]:
                raise ValueError(f"dim {matrix.shape[1]} vs {vector.dim}")
            matrix[row] = vector.values
            view = matrix[row]
            view.flags.writeable = False
            self.memo.rebind(key, EmbeddingVector(view))
            del vector
        return VectorIndex(ids, matrix)


def _check_ids(ids: Sequence[str]) -> None:
    if not ids:
        raise ValueError("corpus must be non-empty")
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("index ids must be strictly ascending")


class VectorIndex:
    """The vectors of a corpus as the rows of one read-only matrix, with
    their norms.

    `ids` must be strictly ascending: row order is then the tie order of
    `knn_search`. `matrix` is a float64 array of one row per id, frozen in
    place rather than copied (`EmbeddingService.index` builds one).

    `hits` keeps each query's top `depth` hits by the query object (an
    `EmbeddingVector` is equal only to itself, and the memo holds it, so
    its id is never reused); at depth 0, the default, nothing is kept."""

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        _check_ids(ids)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError(f"{len(matrix)} rows for {len(ids)} ids")
        import numpy as np

        matrix.flags.writeable = False
        self.ids = tuple(ids)
        self.matrix = matrix
        self.norms = np.sqrt(np.vecdot(matrix, matrix))
        self.depth = 0
        self.hits = Memo()

    def keep_hits(self, depth: int) -> None:
        """From now on, rank each query once, to `depth`, for every k up to
        it; what an earlier depth kept is dropped."""
        self.hits = Memo()
        self.depth = depth


def knn_search(query: EmbeddingVector, index: VectorIndex, k: int) -> list[tuple[str, float]]:
    """Exact top-k (record id, cosine similarity) pairs, ties broken by
    ascending record id. A k within the index's kept depth is a prefix of
    the query's kept ranking: the sort is stable, so each top k is a prefix
    of a longer one."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k <= index.depth:
        return index.hits.fill(query, lambda: _ranking(query, index, index.depth))[:k]
    return _ranking(query, index, k)


def _ranking(query: EmbeddingVector, index: VectorIndex, k: int) -> list[tuple[str, float]]:
    """The top k of `index` for `query`, worked out.

    Each score is dot / (|query| * |row|), in that order. np.vecdot takes
    every dot product, and every squared row norm, bit for bit as np.dot
    takes it for one pair; a matrix product may round differently, and a
    last-bit change can reorder ties or change a prompt."""
    if query.dim != index.matrix.shape[1]:
        raise ValueError(f"dim {query.dim} vs {index.matrix.shape[1]}")
    import numpy as np

    q = query.values
    norm = float(np.linalg.norm(q))
    similarities = np.vecdot(index.matrix, q) / (norm * index.norms)
    top = np.argsort(-similarities, kind="stable")[:k]
    return [(index.ids[i], float(similarities[i])) for i in top]
