"""Example selection strategies: zeroshot, random, kNN, pattern, kNN+pattern.

Pattern retrieval fuzzy-matches the input sentence's causal connective
against the repository's index keys and pools the records stored under
every key scoring above the similarity threshold. kNN retrieval ranks
repository sentences by embedding cosine similarity, scanning a matrix of
the repository's vectors that `knn_index` builds once. The combined strategy
concatenates both blocks, kNN first, deduplicated by record id. Each
strategy builds only its provenance list; `RetrievalResult.of` looks up the
records it names.

Each strategy is a function of its arguments alone. The work that does not
depend on k is kept with the data it is worked out from: the repository
keeps each connective's key matches (`Repository.key_matches`), and an index
told to keep hits keeps each query's ranking (`VectorIndex.keep_hits`).

All sampling is driven by (seed, salt) so that a fixed configuration
reproduces identical choices; the runner salts with the input sentence id,
giving per-sentence variety without losing reproducibility. Each draw is
made by a new `random.Random(f"{seed}|{salt}")`, so no draw depends on the
one before it or on another thread's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .embedding import EmbeddingService, EmbeddingVector, VectorIndex, knn_search
from .errors import UnparseableResponseError
from .gateway import LlmClient
from .kernels import edit_ratio, token_subsequence
from .prompting import PromptCatalog, connective_prompt
from .repository import Repository, ExampleRecord, normalize_connective, parse_connective_response

MATCHERS = ("edit_ratio", "token_containment")
ORIGINS = ("random", "knn", "pattern", "random-fallback")


class StrategyKind(Enum):
    ZEROSHOT = "zeroshot"
    RANDOM = "random"
    KNN = "knn"
    PATTERN = "pattern"
    KNN_PATTERN = "knn-pattern"


STRATEGY_NAMES = tuple(kind.value for kind in StrategyKind)


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 10
    similarity_threshold: float = 0.90
    matcher: str = "edit_ratio"
    seed: int = 0
    fallback_to_random: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if self.matcher not in MATCHERS:
            raise ValueError(f"matcher must be one of {MATCHERS}")


class ExampleProvenance(NamedTuple):
    """Where one example of a prompt came from. A tuple, built several
    times per record, so it is never handed to `encode_line` as is: a
    prediction line spells it out as an object."""

    record_id: str
    origin: str  # one of ORIGINS
    score: float | None = None
    connective: str | None = None


@dataclass(frozen=True)
class RetrievalResult:
    """The examples a strategy chose, each the repository record its
    provenance entry names, in the same order. Build one with `of`."""

    examples: tuple[ExampleRecord, ...]
    provenance: tuple[ExampleProvenance, ...]
    fallback_used: bool = False

    @classmethod
    def of(cls, repo: Repository, provenance: Sequence[ExampleProvenance],
           fallback_used: bool = False) -> RetrievalResult:
        """The result whose examples are `repo`'s records named by
        `provenance`, in provenance order; a record named twice is a
        ValueError."""
        ids = [p.record_id for p in provenance]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate record ids in retrieval result")
        examples = tuple([repo.records[rid] for rid in ids])
        return cls(examples, tuple(provenance), fallback_used)


def zeroshot_result() -> RetrievalResult:
    return RetrievalResult(examples=(), provenance=())


def connective_similarity(a: str, b: str, matcher: str = "edit_ratio") -> float:
    """Similarity of two connectives in [0, 1].

    edit_ratio: 1 - editdistance/max(len), unit-cost character edits.
    token_containment: 1.0 when the shorter connective's tokens occur
    contiguously inside the longer's, else the edit_ratio value.
    """
    if matcher not in MATCHERS:
        raise ValueError(f"matcher must be one of {MATCHERS}")
    a = normalize_connective(a)
    b = normalize_connective(b)
    if not a or not b:
        raise ValueError("connectives must be non-empty")
    return _similarity(a, b, matcher, 0.0)


def _similarity(a: str, b: str, matcher: str, floor: float) -> float:
    """`connective_similarity` of two normalized, non-empty connectives, or
    0.0 when the edit_ratio term cannot exceed `floor` (>= 0).

    The edit distance is at least the length gap, and 1 - d/max(len) only
    falls as d grows, so a length ratio at or below floor bounds the ratio at
    or below floor too. Containment scores 1.0 at any length, so it is tested
    first. At floor 0.0 nothing is skipped: the gap is below max(len).
    """
    if matcher == "token_containment":
        needle, haystack = (a, b) if len(a) <= len(b) else (b, a)
        if token_subsequence(tuple(needle.split(" ")), tuple(haystack.split(" "))):
            return 1.0
    la = len(a)
    lb = len(b)
    if 1.0 - abs(la - lb) / max(la, lb) <= floor:
        return 0.0
    return edit_ratio(a, b)


def retrieve_random(repo: Repository, cfg: RetrievalConfig, salt: str = "") -> RetrievalResult:
    """Seeded uniform sample of min(k, |repo|) records, without replacement."""
    if not repo.records:
        raise ValueError("repository is empty")
    ids = repo.sorted_ids
    chosen = random.Random(f"{cfg.seed}|{salt}").sample(ids, min(cfg.k, len(ids)))
    provenance = [ExampleProvenance(rid, "random") for rid in chosen]
    return RetrievalResult.of(repo, provenance)


def knn_index(repo: Repository, embeddings: EmbeddingService) -> VectorIndex:
    """The repository's vectors, one row per record in ascending id order;
    the index holds the service's only copy of each."""
    rows = sorted(repo.records.items())
    return embeddings.index([rid for rid, _ in rows], [r.raw_text for _, r in rows])


def retrieve_knn(
    query: EmbeddingVector,
    repo: Repository,
    index: VectorIndex,
    cfg: RetrievalConfig,
) -> RetrievalResult:
    """Top-k repository records by embedding similarity to the input's
    vector `query`; `index` is `knn_index(repo, embeddings)`, embedded
    by the same service as the query."""
    hits = knn_search(query, index, cfg.k)
    provenance = [ExampleProvenance(record_id, "knn", score=similarity)
                  for record_id, similarity in hits]
    return RetrievalResult.of(repo, provenance)


def _pattern_candidates(
    input_connectives: Sequence[str], repo: Repository, cfg: RetrievalConfig
) -> dict[str, tuple[float, str]]:
    """Map record id -> (best similarity, matched index key) over all index
    keys scoring strictly above the threshold against any input connective.
    Each connective's key matches are the repository's, worked out on its
    first use at this threshold and matcher."""
    threshold, matcher = cfg.similarity_threshold, cfg.matcher
    scores: dict[str, float] = {}  # each matched key's best score
    for connective in map(normalize_connective, input_connectives):
        if not connective:
            continue
        matches = repo.key_matches.fill(
            (connective, threshold, matcher),
            lambda: _key_matches(connective, repo, threshold, matcher))
        for key, score in matches:
            scores[key] = max(score, scores.get(key, 0.0))
    best: dict[str, tuple[float, str]] = {}
    for key, key_score in scores.items():
        for rid in repo.index[key]:
            held = best.get(rid)
            # prefer higher similarity; on ties the lexicographically
            # smallest key, so results never depend on dict order
            if held is None or (key_score, held[1]) > (held[0], key):
                best[rid] = (key_score, key)
    return best


def _key_matches(
    connective: str, repo: Repository, threshold: float, matcher: str
) -> tuple[tuple[str, float], ...]:
    """(index key, score) of each key of `repo` scoring strictly above
    `threshold` against the normalized, non-empty `connective`."""
    scored = ((key, _similarity(connective, norm_key, matcher, threshold))
              for key, norm_key in repo.normalized_keys)
    return tuple((key, score) for key, score in scored if score > threshold)


def retrieve_pattern(
    input_connectives: Sequence[str],
    repo: Repository,
    cfg: RetrievalConfig,
    salt: str = "",
) -> RetrievalResult:
    """Records indexed under connectives similar to the input's connective.

    Over-full candidate pools are down-sampled to k (seeded); an empty pool
    falls back to random retrieval when configured, marked in provenance.
    """
    if not repo.records:
        raise ValueError("repository is empty")
    best = _pattern_candidates(input_connectives, repo, cfg)
    if not best:
        if not cfg.fallback_to_random:
            return RetrievalResult.of(repo, [])
        drawn = retrieve_random(repo, cfg, salt).provenance
        fallback = [p._replace(origin="random-fallback") for p in drawn]
        return RetrievalResult.of(repo, fallback, fallback_used=True)
    chosen = sorted(best)
    if len(chosen) > cfg.k:
        chosen = random.Random(f"{cfg.seed}|{salt}").sample(chosen, cfg.k)
    chosen.sort(key=lambda rid: (-best[rid][0], rid))
    provenance = [
        ExampleProvenance(rid, "pattern", score=best[rid][0], connective=best[rid][1])
        for rid in chosen
    ]
    return RetrievalResult.of(repo, provenance)


def retrieve_knn_pattern(
    query: EmbeddingVector,
    input_connectives: Sequence[str],
    repo: Repository,
    index: VectorIndex,
    cfg: RetrievalConfig,
    salt: str = "",
) -> RetrievalResult:
    """Concatenate the kNN block and the pattern block, kNN first, then drop
    duplicate record ids keeping the first occurrence; at most 2k examples."""
    knn = retrieve_knn(query, repo, index, cfg)
    pattern = retrieve_pattern(input_connectives, repo, cfg, salt)
    first: dict[str, ExampleProvenance] = {}  # by record id, in insertion order
    for p in knn.provenance + pattern.provenance:
        first.setdefault(p.record_id, p)
    return RetrievalResult.of(repo, list(first.values()), pattern.fallback_used)


def input_connectives(
    sentence: str,
    llm: LlmClient,
    catalog: PromptCatalog | None = None,
) -> list[str]:
    """Extract the input sentence's causal connective(s) with the model.

    Returns [] when the response has no parseable connective, which sends
    pattern retrieval to its fallback path."""
    prompt = connective_prompt(sentence, catalog)
    try:
        return parse_connective_response(
            llm.complete_text(prompt.system_text, prompt.user_text)
        )
    except UnparseableResponseError:
        return []
