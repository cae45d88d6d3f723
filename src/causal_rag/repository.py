"""The fewshot example store: causal sentences indexed by causal connective.

Records are sentences whose connectives an LLM extracted; the index maps
each normalized connective to at most `cap` record ids. Sampling under the
cap uses per-(seed, connective, id) hash priorities: the kept set is the
cap-many smallest priorities, so rebuilding the index from just the kept
records reproduces it exactly. That property makes a repository just its
records plus (cap, seed): the index is built from them on first use, which
only pattern retrieval and `stats` make, and the saved file stores nothing
else. The file is read and written through `jsonl`, and every field of
every record is checked, a record's `tagged_text` included: with its tags
removed it must be its `text`. A loaded repository keeps one copy of each
source and each connective.
"""

from __future__ import annotations

import hashlib
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import TAG_RE, CauseEffectPair, TaggedSentence, normalize_lower, render_tagged
from .errors import MalformedRecordError, UnparseableResponseError, warn
from .gateway import LlmClient
from .jsonl import encode_line, read_json_objects, replace_lines
from .prompting import PromptCatalog, connective_prompt

SCHEMA_VERSION = 1
DEFAULT_CAP = 10

BULLET_RE = re.compile(r"^\s*(?:[-*•]\s+|\d+[.)]\s+)")
TRIM_CHARS = "\"'`“”‘’.,;:()[]{}"


@dataclass(frozen=True, slots=True)
class ExampleRecord:
    id: str
    raw_text: str
    tagged_text: str
    pairs: tuple[CauseEffectPair, ...]
    connectives: tuple[str, ...]
    source: str


@dataclass(frozen=True)
class RepositoryStats:
    total_records: int
    unique_connectives: int
    frequency_histogram: dict[int, int]  # examples-per-connective -> connective count
    connectives_with_at_least_5: int


@dataclass(frozen=True)
class Repository:
    """Stored records and the (cap, seed) their connective index is built with."""

    records: dict[str, ExampleRecord]
    cap: int
    seed: int

    @cached_property
    def index(self) -> dict[str, tuple[str, ...]]:
        """Each connective's capped record ids, built on first use."""
        return _index_of(((r.id, r.connectives) for r in self.records.values()),
                         self.cap, self.seed)

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        """Record ids in ascending order, sorted once per repository."""
        return tuple(sorted(self.records))

    @cached_property
    def normalized_keys(self) -> tuple[tuple[str, str], ...]:
        """(index key, normalized key) in index order, normalized once per
        repository; a loaded file may hold keys that are not normalized."""
        return tuple((key, normalize_connective(key)) for key in self.index)


# Lowercase, collapse whitespace, trim. Hyphenated forms like "-associated"
# stay verbatim apart from those steps.
normalize_connective = normalize_lower


def parse_connective_response(response: str) -> list[str]:
    """Parse a connective-extraction response: one connective per line,
    commas also accepted; bullets and surrounding quotes stripped; order
    preserved, duplicates removed."""
    seen: set[str] = set()
    out: list[str] = []
    for line in response.splitlines():
        for piece in line.split(","):
            piece = BULLET_RE.sub("", piece.strip())
            piece = piece.strip(TRIM_CHARS).strip()
            connective = normalize_connective(piece)
            if connective and connective not in seen:
                seen.add(connective)
                out.append(connective)
    if not out:
        raise UnparseableResponseError(
            f"no causal connective in response: {response[:120]!r}"
        )
    return out


def extract_connectives(
    sentence: TaggedSentence, llm: LlmClient, catalog: PromptCatalog | None = None
) -> list[str]:
    """Ask the model for the sentence's causal connective(s)."""
    if not sentence.pairs:
        raise ValueError(f"sentence {sentence.id} is not causal")
    prompt = connective_prompt(sentence.raw_text, catalog)
    response = llm.complete_text(prompt.system_text, prompt.user_text)
    return parse_connective_response(response)


def _priority(seed: int, connective: str, record_id: str) -> str:
    token = f"{seed}|{connective}|{record_id}".encode("utf-8")
    return hashlib.sha256(token).hexdigest()


def sample_capped(candidate_ids: Iterable[str], connective: str, cap: int, seed: int) -> tuple[str, ...]:
    """Pick min(cap, n) candidates by smallest hash priority; the returned
    list is in ascending id order. Removing a non-selected candidate never
    changes the selection, which is what makes index rebuilds exact. With
    at most `cap` candidates, all are kept and no priority is computed."""
    unique = set(candidate_ids)
    if len(unique) > cap:
        ranked = sorted(unique, key=lambda rid: (_priority(seed, connective, rid), rid))
        unique = ranked[:cap]
    return tuple(sorted(unique))


def _index_of(
    connectives_by_id: Iterable[tuple[str, Sequence[str]]], cap: int, seed: int
) -> dict[str, tuple[str, ...]]:
    """The capped index of (record id, its normalized connectives) pairs."""
    candidates: dict[str, list[str]] = {}
    for record_id, connectives in connectives_by_id:
        for connective in connectives:
            candidates.setdefault(connective, []).append(record_id)
    return {
        connective: sample_capped(ids, connective, cap, seed)
        for connective, ids in sorted(candidates.items())
    }


def _normalized(connectives: Iterable[str]) -> tuple[str, ...]:
    """Normalized connectives, each once, in order of first appearance."""
    return tuple(dict.fromkeys(normalize_connective(c) for c in connectives))


def make_record(sentence: TaggedSentence, connectives: Sequence[str]) -> ExampleRecord:
    return ExampleRecord(
        id=sentence.id,
        raw_text=sentence.raw_text,
        tagged_text=render_tagged(sentence.raw_text, sentence.pairs),
        pairs=tuple(sentence.pairs),
        connectives=_normalized(connectives),
        source=sentence.source,
    )


def build_repository(
    corpus: Sequence[TaggedSentence],
    llm: LlmClient,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    catalog: PromptCatalog | None = None,
    concurrency: int = 1,
) -> Repository:
    """Extract connectives for every causal sentence and build the capped
    index. Sentences with unparseable responses are skipped with a warning.
    Only records reachable from the index are stored; a sentence sampled
    away under every one of its connectives is dropped.

    Uses a record-mode LLM client for resumability: responses land in the
    transcript as they arrive, so an aborted build repeats no provider call.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    not_causal = [s.id for s in corpus if not s.pairs]
    if not_causal:
        raise ValueError(f"corpus must be all causal; non-causal ids: {not_causal[:5]}")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")

    ordered = sorted(corpus, key=lambda s: s.id)

    def extract_or_none(sentence: TaggedSentence) -> list[str] | None:
        try:
            return extract_connectives(sentence, llm, catalog)
        except UnparseableResponseError:
            return None

    if concurrency == 1:
        extracted = [extract_or_none(s) for s in ordered]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            extracted = list(pool.map(extract_or_none, ordered))

    candidates: list[tuple[TaggedSentence, tuple[str, ...]]] = []
    for sentence, connectives in zip(ordered, extracted):
        if connectives is None:
            warn(__name__, "no connective extracted for %s; sentence skipped", sentence.id)
            continue
        candidates.append((sentence, _normalized(connectives)))

    index = _index_of(((s.id, normalized) for s, normalized in candidates), cap, seed)
    kept_ids = {rid for ids in index.values() for rid in ids}
    # only the records the index keeps are made; they rebuild the same index
    records = {
        sentence.id: make_record(sentence, normalized)
        for sentence, normalized in candidates if sentence.id in kept_ids
    }
    return Repository(records=records, cap=cap, seed=seed)


def repository_stats(repo: Repository) -> RepositoryStats:
    histogram: dict[int, int] = {}
    for ids in repo.index.values():
        histogram[len(ids)] = histogram.get(len(ids), 0) + 1
    return RepositoryStats(
        total_records=len(repo.records),
        unique_connectives=len(repo.index),
        frequency_histogram=dict(sorted(histogram.items())),
        connectives_with_at_least_5=sum(1 for ids in repo.index.values() if len(ids) >= 5),
    )


def _record_to_json(record: ExampleRecord) -> dict:
    return {
        "id": record.id,
        "text": record.raw_text,
        "tagged_text": record.tagged_text,
        "pairs": [{"cause": p.cause, "effect": p.effect} for p in record.pairs],
        "connectives": list(record.connectives),
        "source": record.source,
    }


def _record_from_json(obj: dict) -> ExampleRecord:
    """One saved record; a record that breaks the format is a KeyError,
    TypeError or ValueError (plain `type(x) is` tests, cheap per record)."""
    for key in ("id", "text", "tagged_text", "source"):
        if type(obj[key]) is not str:
            raise TypeError(f"'{key}' must be a string")
    connectives, pairs = obj["connectives"], obj["pairs"]
    if type(connectives) is not list or any(type(c) is not str for c in connectives):
        raise TypeError("'connectives' must be an array of strings")
    if not connectives:
        raise ValueError(f"record {obj['id']} has no connectives")
    if not all(map(str.strip, connectives)):  # blank once normalized
        raise ValueError(f"record {obj['id']} has a blank connective")
    if type(pairs) is not list or any(
        type(p) is not dict or type(p["cause"]) is not str or type(p["effect"]) is not str
        for p in pairs
    ):
        raise TypeError("'pairs' must be an array of objects with string 'cause' and 'effect'")
    if TAG_RE.sub("", obj["tagged_text"]) != obj["text"]:
        raise ValueError(f"record {obj['id']}'s 'tagged_text' without its tags is not its 'text'")
    return ExampleRecord(
        obj["id"], obj["text"], obj["tagged_text"],
        tuple(CauseEffectPair(p["cause"], p["effect"]) for p in pairs),
        tuple(map(sys.intern, connectives)), sys.intern(obj["source"]),
    )


def save_repository(repo: Repository, path: str | Path) -> None:
    """Write header + records (sorted by id) as JSONL, atomically. The index
    is not persisted: the records and (cap, seed) rebuild it exactly."""
    header = {"schema_version": SCHEMA_VERSION, "cap": repo.cap, "seed": repo.seed}
    records = (_record_to_json(repo.records[record_id]) for record_id in repo.sorted_ids)
    replace_lines(path, map(encode_line, chain((header,), records)))


def load_repository(path: str | Path) -> Repository:
    """A saved repository; every format error names the file and the line."""
    lines = read_json_objects(path, drop_torn_tail=False)
    line_no, header = next(lines, (1, None))
    if header is None:
        raise MalformedRecordError("repository file is empty (missing header)", 1, path)
    if "schema_version" not in header:
        raise MalformedRecordError("first line is not a repository header", line_no, path)
    version = header["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # not true or 1.0
        raise MalformedRecordError(
            f"schema_version {version!r}, expected {SCHEMA_VERSION}", line_no, path
        )
    cap, seed = header.get("cap"), header.get("seed")
    if type(cap) is not int or type(seed) is not int:  # not true, "10" or 10.9
        raise MalformedRecordError("header lacks integer cap/seed", line_no, path)
    if cap < 1:
        raise MalformedRecordError(f"header cap {cap} is below 1", line_no, path)

    records: dict[str, ExampleRecord] = {}
    for line_no, obj in lines:
        try:
            record = _record_from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecordError(exc, line_no, path) from None
        if record.id in records:
            raise MalformedRecordError(f"duplicate record id {record.id}", line_no, path)
        records[record.id] = record
    return Repository(records=records, cap=cap, seed=seed)
