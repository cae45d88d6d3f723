"""Cause/effect-annotated corpora: tag parsing, dataset loading, statistics.

The canonical on-disk form is JSON Lines, one object per line:
``{"id"?: str, "text": str, "label": 0|1, "pairs": [{"cause","effect"}, ...],
"source": str}``, read and written through `jsonl` (a torn final line is
refused). Importers for the three native formats (semeval, ade, li)
convert into this form; see `load_dataset`.
"""

from __future__ import annotations

import re
import string
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import (
    EmptyDatasetError,
    EmptyPhraseError,
    MalformedRecordError,
    NestedTagsError,
    TagError,
    TagPairingError,
    UnbalancedTagsError,
    UnknownFormatError,
)
from .jsonl import encode_line, read_json_objects, replace_lines

TAG_RE = re.compile(r"</?(?:cause|effect)>")
TOKEN_RE = re.compile(r"(</?(?:cause|effect)>)")
SEMEVAL_E1_RE = re.compile(r"<e1>(.*?)</e1>", re.DOTALL)
SEMEVAL_E2_RE = re.compile(r"<e2>(.*?)</e2>", re.DOTALL)
SEMEVAL_TAG_RE = re.compile(r"</?e[12]>")

FORMATS = ("jsonl", "semeval", "ade", "li")


def normalize_ws(text: str) -> str:
    """Collapse runs of whitespace to single spaces and trim the ends.

    Whitespace is what `str.isspace` accepts, the same set as `\\s` in a
    `str` regex, so this equals ``re.sub(r"\\s+", " ", text).strip()``."""
    return " ".join(text.split())


def normalize_lower(text: str) -> str:
    """`normalize_ws`, then lowercase: for cache keys and connective keys."""
    return normalize_ws(text).lower()


def norm_tokens(phrase: str) -> tuple[str, ...]:
    """Lowercase tokens with edge punctuation stripped; inner punctuation
    (hyphens, apostrophes) stays, so "troglitazone-induced" is one token."""
    out = []
    for token in phrase.lower().split():
        token = token.strip(string.punctuation)
        if token:
            out.append(token)
    return tuple(out)


def strip_tags(tagged_text: str) -> str:
    """Remove cause/effect tag markers and normalize whitespace.

    Tags are deleted, not replaced by spaces, so markup flush against a word
    ("the <effect>fire</effect>.") strips cleanly without stray spaces.
    """
    return normalize_ws(TAG_RE.sub("", tagged_text))


def make_sentence_id(source: str, ordinal: int) -> str:
    return f"{source}-{ordinal:06d}"


@dataclass(frozen=True, slots=True)
class CauseEffectPair:
    cause: str
    effect: str


def pair_overlap(cause: str, effect: str) -> bool:
    """True when the cause and the effect share a normalized token."""
    return bool(set(norm_tokens(cause)) & set(norm_tokens(effect)))


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    """One sentence with its cause/effect annotation.

    `raw_text` carries no markup; `pairs` lists the annotated cause-effect
    phrase pairs (empty for non-causal sentences), which `render_tagged`
    turns back into `<cause>`/`<effect>` tags.
    """

    id: str
    raw_text: str
    pairs: tuple[CauseEffectPair, ...]
    source: str


@dataclass(frozen=True, slots=True)
class Triplet:
    """One (sentence, cause, effect) unit of multi-pair extraction scoring."""

    sentence_id: str
    cause: str
    effect: str


@dataclass(frozen=True, slots=True)
class LabeledInstance:
    sentence: TaggedSentence
    label: int  # 1 = causal, 0 = non-causal


@dataclass(frozen=True)
class DatasetSplit:
    name: str
    instances: tuple[LabeledInstance, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        """(total, causal, non-causal)."""
        causal = sum(1 for inst in self.instances if inst.label == 1)
        return (len(self.instances), causal, len(self.instances) - causal)

    def causal_sentences(self) -> list[TaggedSentence]:
        return [inst.sentence for inst in self.instances if inst.label == 1]


@dataclass(frozen=True)
class DatasetStats:
    total: int
    causal: int
    non_causal: int
    pairs_histogram: dict[int, int]  # pairs-per-sentence -> sentence count

    @property
    def total_pairs(self) -> int:
        return sum(k * v for k, v in self.pairs_histogram.items())


def _split_on_tags(line: str) -> list[str]:
    """Split a line into text segments and tag tokens, tags preserved."""
    return TOKEN_RE.split(line)


def parse_tagged_sentence(line: str, source: str, ordinal: int) -> TaggedSentence:
    """Parse one inline-tagged sentence.

    Accepts either no tags (non-causal passthrough) or exactly one
    `<cause>...</cause>` and one `<effect>...</effect>` pair in either order.
    Sentences with several pairs must be expressed in the canonical JSONL
    format with an explicit pair list, because flat tags cannot encode which
    cause goes with which effect.
    """
    causes: list[str] = []
    effects: list[str] = []
    open_kind: str | None = None
    buffer: list[str] = []
    for part in _split_on_tags(line):
        if part in ("<cause>", "<effect>"):
            kind = part[1:-1]
            if open_kind is not None:
                raise NestedTagsError(
                    f"{part} opened while <{open_kind}> is still open: {line!r}"
                )
            open_kind = kind
            buffer = []
        elif part in ("</cause>", "</effect>"):
            kind = part[2:-1]
            if open_kind != kind:
                raise UnbalancedTagsError(f"{part} without matching open tag: {line!r}")
            phrase = normalize_ws("".join(buffer))
            if not phrase:
                raise EmptyPhraseError(f"<{kind}> pair encloses only whitespace: {line!r}")
            (causes if kind == "cause" else effects).append(phrase)
            open_kind = None
        else:
            if open_kind is not None:
                buffer.append(part)
    if open_kind is not None:
        raise UnbalancedTagsError(f"<{open_kind}> never closed: {line!r}")

    if causes or effects:
        if len(causes) != 1 or len(effects) != 1:
            raise TagPairingError(
                f"expected exactly one cause and one effect tag pair, "
                f"got {len(causes)} cause(s) and {len(effects)} effect(s): {line!r}"
            )
        pairs = (CauseEffectPair(causes[0], effects[0]),)
    else:
        pairs = ()

    return TaggedSentence(
        id=make_sentence_id(source, ordinal),
        raw_text=strip_tags(line),
        pairs=pairs,
        source=source,
    )


def render_tagged(text: str, pairs: Iterable[CauseEffectPair]) -> str:
    """Insert cause/effect tags into plain text for the given pairs.

    Each distinct cause phrase and effect phrase is tagged once, at its first
    occurrence that does not overlap an already-tagged span. Phrases that
    cannot be placed are skipped (best effort); stripping the result always
    recovers `text`.
    """
    claimed: list[tuple[int, int, str]] = []  # (start, end, kind)

    def on_word_boundary(pos: int, end: int) -> bool:
        left_ok = pos == 0 or not text[pos - 1].isalnum()
        right_ok = end == len(text) or not text[end].isalnum()
        return left_ok and right_ok

    def claim(phrase: str, kind: str) -> None:
        # prefer word-boundary occurrences so "eta" never lands inside "zeta"
        for boundary_only in (True, False):
            start = 0
            while True:
                pos = text.find(phrase, start)
                if pos < 0:
                    break
                end = pos + len(phrase)
                free = all(end <= s or pos >= e for s, e, _ in claimed)
                if free and (not boundary_only or on_word_boundary(pos, end)):
                    claimed.append((pos, end, kind))
                    return
                start = pos + 1

    seen: set[tuple[str, str]] = set()
    for pair in pairs:
        for phrase, kind in ((pair.cause, "cause"), (pair.effect, "effect")):
            if (phrase, kind) not in seen:
                seen.add((phrase, kind))
                claim(phrase, kind)

    out: list[str] = []
    cursor = 0
    for start, end, kind in sorted(claimed):
        out.append(text[cursor:start])
        out.append(f"<{kind}>{text[start:end]}</{kind}>")
        cursor = end
    out.append(text[cursor:])
    return normalize_ws("".join(out))


# --- canonical JSONL ----------------------------------------------------------


def _instance_from_canonical(obj: dict, line_no: int, default_source: str) -> LabeledInstance:
    """One canonical record as an instance; a record that breaks the format
    is a KeyError, TypeError or ValueError. An id is a non-empty string, by
    default the source and the line number. A source, which many lines
    share, is kept once."""
    text, label, source = obj["text"], obj["label"], obj.get("source", default_source)
    if type(source) is not str:
        raise TypeError(f"'source' must be a string, got {source!r}")
    source = sys.intern(source)
    if not isinstance(text, str) or not text.strip():
        raise ValueError("'text' must be a non-empty string")
    if type(label) is not int or label not in (0, 1):  # not true, not 1.0
        raise ValueError(f"'label' must be 0 or 1, got {label!r}")

    text = normalize_ws(text)
    raw_pairs = obj.get("pairs")
    if raw_pairs is None:
        raw_pairs = []
    elif type(raw_pairs) is not list:
        raise TypeError(f"'pairs' must be a list of objects, got {raw_pairs!r}")
    if label == 0 and raw_pairs:
        raise ValueError("non-causal record must not carry pairs")
    if label == 1 and not raw_pairs:
        raise ValueError("causal record must carry at least one pair")

    pairs: list[CauseEffectPair] = []
    for entry in raw_pairs:
        if type(entry) is not dict or "cause" not in entry or "effect" not in entry:
            raise ValueError(f"malformed pair entry {entry!r}")
        for name in ("cause", "effect"):
            if type(entry[name]) is not str:
                raise TypeError(f"pair {name!r} must be a string, got {entry[name]!r}")
        cause = normalize_ws(entry["cause"])
        effect = normalize_ws(entry["effect"])
        if not cause or not effect:
            raise ValueError("pair phrases must be non-empty")
        if cause == effect:
            raise ValueError("cause and effect must be distinct")
        for phrase in (cause, effect):
            if phrase not in text:
                raise ValueError(f"phrase {phrase!r} does not occur in the sentence text")
        pairs.append(CauseEffectPair(cause, effect))

    sid = obj["id"] if "id" in obj else make_sentence_id(source, line_no)
    if type(sid) is not str or not sid:
        raise ValueError(f"'id' must be a non-empty string, got {sid!r}")
    sentence = TaggedSentence(
        id=sid,
        raw_text=text,
        pairs=tuple(pairs),
        source=source,
    )
    return LabeledInstance(sentence=sentence, label=label)


# --- native format importers --------------------------------------------------


def _import_semeval(path: Path) -> list[tuple[int, dict]]:
    """SemEval task-8 style blocks: a numbered quoted sentence with <e1>/<e2>
    entity tags, a relation line, a comment line, and a blank separator.
    Like each importer, returns (file line, canonical record) pairs; a
    record's id is its ordinal in the file."""
    records = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        header = lines[i]
        if i + 1 >= len(lines):
            raise MalformedRecordError("sentence line without a relation line", i + 1, path)
        relation = lines[i + 1].strip()
        try:
            _, sentence = header.split("\t", 1)
        except ValueError:
            raise MalformedRecordError(
                f"expected '<id>\\t\"sentence\"', got {header!r}", i + 1, path
            ) from None
        sentence = sentence.strip()
        if sentence.startswith('"') and sentence.endswith('"'):
            sentence = sentence[1:-1]
        m1 = SEMEVAL_E1_RE.search(sentence)
        m2 = SEMEVAL_E2_RE.search(sentence)
        if not m1 or not m2:
            raise MalformedRecordError("sentence lacks <e1>/<e2> markup", i + 1, path)
        text = normalize_ws(SEMEVAL_TAG_RE.sub("", sentence))
        e1 = normalize_ws(m1.group(1))
        e2 = normalize_ws(m2.group(1))
        if relation == "Cause-Effect(e1,e2)":
            pairs = [{"cause": e1, "effect": e2}]
        elif relation == "Cause-Effect(e2,e1)":
            pairs = [{"cause": e2, "effect": e1}]
        else:
            pairs = []
        records.append((i + 1, {
            "id": make_sentence_id("semeval", len(records) + 1),
            "text": text,
            "label": 1 if pairs else 0,
            "pairs": pairs,
            "source": "semeval",
        }))
        # skip relation line plus optional comment line
        i += 2
        if i < len(lines) and lines[i].startswith("Comment"):
            i += 1
    return records


def _import_ade(path: Path) -> list[tuple[int, dict]]:
    """ADE relation lines: pipe-delimited
    ``pmid|sentence|effect|e_start|e_end|drug|d_start|d_end``; the drug is the
    cause and the adverse effect is the effect. All records are causal."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("|")
            if len(fields) < 8:
                raise MalformedRecordError(
                    f"expected 8 pipe-delimited fields, got {len(fields)}", line_no, path
                )
            _, sentence, effect, _, _, drug, _, _ = fields[:8]
            records.append((line_no, {
                "id": make_sentence_id("ade", len(records) + 1),
                "text": normalize_ws(sentence),
                "label": 1,
                "pairs": [{"cause": normalize_ws(drug), "effect": normalize_ws(effect)}],
                "source": "ade",
            }))
    return records


def _import_li(path: Path) -> list[tuple[int, dict]]:
    """Li-style tagged lines: one sentence per line, inline single-pair
    cause/effect tags for causal sentences, bare text otherwise."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                sentence = parse_tagged_sentence(line, "li", len(records) + 1)
            except TagError as exc:
                raise MalformedRecordError(str(exc), line_no, path) from None
            records.append((line_no, {
                "id": sentence.id,
                "text": sentence.raw_text,
                "label": 1 if sentence.pairs else 0,
                "pairs": [{"cause": p.cause, "effect": p.effect} for p in sentence.pairs],
                "source": "li",
            }))
    return records


_IMPORTERS = {"semeval": _import_semeval, "ade": _import_ade, "li": _import_li}


def load_dataset(path: str | Path, format: str = "jsonl") -> DatasetSplit:
    """Load a dataset file into a `DatasetSplit`.

    `format` is one of ``jsonl`` (the canonical form), ``semeval``, ``ade``
    or ``li``. Native formats are converted to canonical records first, so
    every split carries the same invariants regardless of origin.
    """
    path = Path(path)
    if format not in FORMATS:
        raise UnknownFormatError(f"unknown dataset format {format!r}; expected one of {FORMATS}")
    numbered = (read_json_objects(path, drop_torn_tail=False) if format == "jsonl"
                else _IMPORTERS[format](path))
    name = path.stem  # the default source
    instances = []
    first_lines: dict[str, int] = {}  # each id's first line
    repeats: list[tuple[int, str]] = []  # (line, id) of each later line of an id
    for line_no, obj in numbered:
        try:
            instance = _instance_from_canonical(obj, line_no, name)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecordError(exc, line_no, path) from None
        instances.append(instance)
        sid = instance.sentence.id
        if sid in first_lines:
            repeats.append((line_no, sid))
        else:
            first_lines[sid] = line_no
    if not instances:
        raise EmptyDatasetError(f"{path} contains no records")
    if repeats:
        line_no, sid = repeats[0]
        dupes = sorted({i for _, i in repeats})
        raise MalformedRecordError(
            f"duplicate instance ids: {dupes[:5]} (this line repeats {sid!r} "
            f"of line {first_lines[sid]})", line_no, path)
    return DatasetSplit(name=name, instances=tuple(instances))


def to_canonical(split: DatasetSplit) -> list[dict]:
    """Render a split as canonical record dicts (deterministic order)."""
    out = []
    for inst in split.instances:
        s = inst.sentence
        out.append(
            {
                "id": s.id,
                "text": s.raw_text,
                "label": inst.label,
                "pairs": [{"cause": p.cause, "effect": p.effect} for p in s.pairs],
                "source": s.source,
            }
        )
    return out


def write_canonical(split: DatasetSplit, path: str | Path) -> None:
    """Write a split as canonical JSONL, replacing `path` atomically."""
    replace_lines(path, map(encode_line, to_canonical(split)))


def dataset_stats(split: DatasetSplit) -> DatasetStats:
    """Summarize a split: counts plus the pairs-per-sentence histogram over
    causal sentences."""
    total, causal, non_causal = split.counts
    histogram: dict[int, int] = {}
    for inst in split.instances:
        if inst.label == 1:
            k = len(inst.sentence.pairs)
            histogram[k] = histogram.get(k, 0) + 1
    return DatasetStats(
        total=total,
        causal=causal,
        non_causal=non_causal,
        pairs_histogram=dict(sorted(histogram.items())),
    )
