"""Seeded synthetic inputs and a simulated chat provider with planted answers.

`make_inputs(spec, seed)` draws a repository training corpus and a query
dataset, so the same seed always yields the same files. The seed draws the
words: the pseudo-words, the phrases and which connective strings are used.
A fixed layout draws the structure: connective lengths and frequency ranks,
which sentences carry two connectives or an unseen one, and which answers
carry a planted mistake. Every seed therefore asks the program for the same
amount of work; edit distance, for one, costs the product of the two
lengths. Sentences are built from pseudo-words and causal connectives:
a cause phrase, a connective, an effect phrase. Connective frequencies follow
a Zipf-like law over the corpus, so the per-connective cap binds on the head
and the tail holds single records.

The simulated provider answers from the tables the generator planted. An
answer depends only on the input sentence and the prompt kind, never on the
examples in the prompt, so the benchmark can compute every expected metric
without running the program. Planted model behaviour:

* detection: a share of labels is flipped, a share of answers is garbled;
* extraction: a share of cause spans lose their first word (the gold phrase
  is then not contained in the prediction), a share of answers is garbled;
* connectives: the sentence's own connectives, some of them unseen in the
  repository (pattern retrieval must fall back), "none" for non-causal input.

The only latency is a fixed sleep per call.
"""

from __future__ import annotations

import bisect
import json
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from causal_rag.gateway import CompletionRequest, CompletionResponse

MODEL_ID = "sim-chat"

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"

# seen connectives are built from these; unseen ones from UNSEEN_*
HEADS = (
    "caused", "led", "resulted", "triggered", "stemmed", "brought", "induced",
    "provoked", "sparked", "prompted", "fueled", "drove", "spurred", "produced",
    "generated", "yielded", "created", "forced", "contributed", "followed",
    "motivated", "accelerated", "worsened", "shaped", "fostered",
)
TAILS = ("by", "to", "in", "from", "about", "into", "after", "through", "via", "with")
MODIFIERS = (
    "directly", "largely", "partly", "mainly", "indirectly", "ultimately",
    "quickly", "eventually", "reportedly", "possibly", "chiefly", "jointly",
)
UNSEEN_HEADS = ("culminated", "hinged", "snowballed", "cascaded", "spilled", "rippled")
UNSEEN_TAILS = ("upon", "onto", "amid", "beyond")
NEUTRAL_LINKS = (
    "sat beside", "was painted near", "met", "stood behind", "was listed with",
    "appeared next to", "shared a table with", "was filed under",
)
UNSEEN_LENGTH = 12  # unseen connectives have this length, or the nearest left
NO_CONNECTIVE = "none"
GARBLED = "I am not able to answer that."

# planted model mistakes, the same share on every workload
FLIP_SHARE = 0.08  # detection labels flipped
TRUNCATE_SHARE = 0.10  # cause spans that lose their first word
GARBLE_SHARE = 0.02  # answers that do not parse

# prompt kinds, recognised from the catalog's system text
KIND_MARKERS = (
    ("detect", "single character"),
    ("extract", "Output only the tagged sentence"),
    ("connective", "Output only the connectives"),
)


@dataclass(frozen=True)
class RepoShape:
    """Connective count and Zipf law (count of rank r = max(1, round(a / r**s)))."""

    connectives: int
    zipf_s: float
    zipf_a: float


@dataclass(frozen=True)
class InputSpec:
    repo: RepoShape
    task: str  # "detect" or "extract"; shapes the query dataset
    queries: int
    two_connective_share: float = 0.10
    unseen_share: float = 0.05


@dataclass(frozen=True)
class Planted:
    """The gold for one sentence, and what the simulated model answers.

    `detect_label` and `extract_pairs` are what the program must parse out
    of the answers; None marks a garbled answer."""

    label: int
    pairs: tuple[tuple[str, str], ...]
    connectives: tuple[str, ...]
    detect_label: int | None
    extract_pairs: tuple[tuple[str, str], ...] | None
    answers: dict[str, str]  # prompt kind -> answer text


@dataclass
class Inputs:
    corpus: list[dict]
    queries: list[dict]
    planted: dict[str, Planted] = field(default_factory=dict)  # keyed by sentence text
    seen_connectives: tuple[str, ...] = ()

    def write(self, directory: Path) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = (directory / "corpus.jsonl", directory / "queries.jsonl")
        for path, rows in zip(paths, (self.corpus, self.queries)):
            with open(path, "w", encoding="utf-8") as handle:
                for row in rows:
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
        return paths

    def query_planted(self) -> dict[str, Planted]:
        """Sentence id -> planted answers, for every query."""
        return {q["id"]: self.planted[q["text"]] for q in self.queries}


def levenshtein(a: str, b: str) -> int:
    """Plain DP edit distance; the generator's own, independent of the program."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        curr = [i]
        for j, cb in enumerate(b, start=1):
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = curr
    return prev[-1]


def near(a: str, b: str, threshold: float = 0.90) -> bool:
    """True when `a` and `b` would pass the default pattern threshold."""
    longest = max(len(a), len(b))
    if abs(len(a) - len(b)) >= (1.0 - threshold) * longest:
        return False  # the distance is at least the length difference
    return 1.0 - levenshtein(a, b) / longest > threshold


def _words(rng: random.Random, count: int) -> list[str]:
    out: set[str] = set()
    while len(out) < count:
        syllables = rng.randint(2, 3)
        out.add("".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables)))
    return sorted(out)


def _connectives(rng: random.Random, count: int) -> list[str]:
    pool = [f"{h} {t}" for h in HEADS for t in TAILS]
    pool += [f"{m} {h} {t}" for m in MODIFIERS for h in HEADS for t in TAILS]
    if count > len(pool):
        raise ValueError(f"at most {len(pool)} connectives")
    # the lengths come from one fixed sample of the pool, and rank r (0 = most
    # frequent) takes the connective at a fixed position of the length-sorted
    # draw, so every rank has the same length for every seed
    need = Counter(len(c) for c in random.Random("perfbench|lengths").sample(pool, count))
    by_len: dict[int, list[str]] = defaultdict(list)
    for c in pool:
        by_len[len(c)].append(c)
    drawn = [c for n in sorted(need) for c in rng.sample(by_len[n], need[n])]
    by_length = sorted(drawn, key=lambda c: (len(c), c))
    order = list(range(count))
    random.Random("perfbench|ranks").shuffle(order)
    return [by_length[i] for i in order]


def _unseen_connectives(rng: random.Random, seen: list[str]) -> list[str]:
    pool = [f"{h} {t}" for h in UNSEEN_HEADS for t in UNSEEN_TAILS]
    rng.shuffle(pool)
    return [c for c in pool if not any(near(c, key) for key in seen)]


def _zipf_counts(shape: RepoShape) -> list[int]:
    return [
        max(1, round(shape.zipf_a / rank**shape.zipf_s))
        for rank in range(1, shape.connectives + 1)
    ]


class _Sentences:
    """Draws sentences with distinct texts and token-disjoint phrases. The
    layout sets each phrase's word count, the seed draws its words."""

    def __init__(self, rng: random.Random, layout: random.Random, vocabulary: list[str]):
        self.rng = rng
        self.layout = layout
        self.vocabulary = vocabulary
        self.texts: set[str] = set()

    def _phrases(self, sizes: list[int]) -> list[str]:
        words = self.rng.sample(self.vocabulary, sum(sizes))
        out, at = [], 0
        for size in sizes:
            out.append(" ".join(words[at : at + size]))
            at += size
        return out

    def _sizes(self, count: int) -> list[int]:
        return [self.layout.randint(2, 4) for _ in range(count)]

    def causal(self, connectives: list[str]) -> tuple[str, tuple[tuple[str, str], ...]]:
        sizes = self._sizes(2 * len(connectives))
        while True:
            phrases = self._phrases(sizes)
            pairs = tuple((phrases[2 * i], phrases[2 * i + 1]) for i in range(len(connectives)))
            clauses = [f"{c} {conn} {e}" for (c, e), conn in zip(pairs, connectives)]
            text = " and ".join(clauses) + "."
            if text not in self.texts:
                self.texts.add(text)
                return text, pairs

    def plain(self) -> str:
        sizes, link = self._sizes(2), self.layout.choice(NEUTRAL_LINKS)
        while True:
            a, b = self._phrases(sizes)
            text = f"{a} {link} {b}."
            if text not in self.texts:
                self.texts.add(text)
                return text


def _exact_flags(rng: random.Random, n: int, share: float) -> list[bool]:
    """`n` flags of which exactly round(share * n) are set, in seeded order:
    every seed plants the same mix, only on different sentences."""
    hits = round(share * n)
    flags = [True] * hits + [False] * (n - hits)
    rng.shuffle(flags)
    return flags


def _stratified(rng: random.Random, items: list[str], weights: list[int], n: int) -> list[str]:
    """`n` weighted draws, one from each of n equal slices of the cumulative
    weight, shuffled: the mix of frequent and rare items is the same for
    every seed."""
    total = float(sum(weights))
    cum, running = [], 0.0
    for w in weights:
        running += w
        cum.append(running / total)
    out = [items[min(bisect.bisect_left(cum, (i + rng.random()) / n), len(items) - 1)]
           for i in range(n)]
    rng.shuffle(out)
    return out


def _tagged(pairs, connectives, planted_pairs) -> str:
    """The sentence with each planted span tagged, built clause by clause
    (a truncated cause leaves its first word outside the tag)."""
    clauses = []
    for (cause, effect), conn, (got_cause, got_effect) in zip(pairs, connectives, planted_pairs):
        lead = cause[: len(cause) - len(got_cause)]
        clauses.append(f"{lead}<cause>{got_cause}</cause> {conn} <effect>{got_effect}</effect>")
    return " and ".join(clauses) + "."


def _planted(gold: int, pairs, connectives, detect_label: int | None,
             extract_pairs) -> Planted:
    if gold == 1:
        extract = GARBLED if extract_pairs is None else _tagged(pairs, connectives, extract_pairs)
        connective = "\n".join(connectives)
    else:
        extract, connective = GARBLED, NO_CONNECTIVE
    return Planted(
        label=gold,
        pairs=pairs,
        connectives=tuple(connectives),
        detect_label=detect_label,
        extract_pairs=extract_pairs,
        answers={
            "detect": GARBLED if detect_label is None else str(detect_label),
            "extract": extract,
            "connective": connective,
        },
    )


def _row(sid: str, text: str, label: int, pairs, source: str) -> dict:
    return {
        "id": sid,
        "text": text,
        "label": label,
        "pairs": [{"cause": c, "effect": e} for c, e in pairs],
        "source": source,
    }


def make_inputs(spec: InputSpec, seed: int) -> Inputs:
    rng = random.Random(f"perfbench|{seed}")  # words
    layout = random.Random("perfbench|layout")  # structure, the same for every seed
    sentences = _Sentences(rng, layout, _words(rng, 2500))
    connectives = _connectives(rng, spec.repo.connectives)
    counts = _zipf_counts(spec.repo)
    inputs = Inputs(corpus=[], queries=[], seen_connectives=tuple(connectives))

    # corpus: every connective gets its Zipf count of sentences; a few also
    # carry a second connective, so records can sit under two index keys.
    # The model answers corpus connectives perfectly.
    slots = [conn for conn, n in zip(connectives, counts) for _ in range(n)]
    layout.shuffle(slots)
    for ordinal, (conn, second) in enumerate(
        zip(slots, _exact_flags(layout, len(slots), 0.05)), start=1
    ):
        conns = [conn]
        other = layout.choice(connectives)
        if second and other != conn:
            conns.append(other)
        text, pairs = sentences.causal(conns)
        inputs.corpus.append(_row(f"c-{ordinal:06d}", text, 1, pairs, "corpus"))
        inputs.planted[text] = _planted(1, pairs, conns, 1, pairs)

    # queries: connectives from the same skew; unseen ones, and "none" for
    # non-causal sentences, send pattern retrieval to its fallback
    unseen = _unseen_connectives(rng, connectives)
    if not unseen or any(near(NO_CONNECTIVE, key) for key in connectives):
        raise AssertionError("unseen connectives must stay away from every index key")
    nearest = min(abs(len(c) - UNSEEN_LENGTH) for c in unseen)
    unseen = [c for c in unseen if abs(len(c) - UNSEEN_LENGTH) == nearest]
    n = spec.queries
    golds = [1 if spec.task == "extract" or i % 2 == 0 else 0 for i in range(n)]
    causal = sum(golds)
    drawn = iter(_stratified(layout, connectives, counts, 2 * causal))
    two, fresh = round(spec.two_connective_share * causal), round(spec.unseen_share * causal)
    shapes = ["two"] * two + ["unseen"] * fresh + ["one"] * (causal - two - fresh)
    layout.shuffle(shapes)
    shape = iter(shapes)
    garbled = iter(_exact_flags(layout, n, GARBLE_SHARE))
    flipped = iter(_exact_flags(layout, n, FLIP_SHARE))
    truncated = iter(_exact_flags(layout, causal + two, TRUNCATE_SHARE))
    for ordinal, gold in enumerate(golds, start=1):
        is_garbled, is_flipped = next(garbled), next(flipped)
        detect_label = None if is_garbled else (1 - gold if is_flipped else gold)
        if gold == 0:
            text, pairs, conns, extract_pairs = sentences.plain(), (), [], None
        else:
            kind = next(shape)
            if kind == "unseen":
                conns = [rng.choice(unseen)]
            else:
                conns = [next(drawn)]
                while len(conns) < (2 if kind == "two" else 1):
                    conn = next(drawn, None) or layout.choice(connectives)
                    if conn not in conns:
                        conns.append(conn)
            text, pairs = sentences.causal(conns)
            extract_pairs = None if is_garbled else tuple(
                (cause.split(" ", 1)[1] if next(truncated) else cause, effect)
                for cause, effect in pairs  # phrases have >= 2 words
            )
        inputs.queries.append(_row(f"q-{ordinal:06d}", text, gold, pairs, "queries"))
        inputs.planted[text] = _planted(gold, pairs, conns, detect_label, extract_pairs)
    return inputs


def prompt_kind(system_text: str) -> str:
    for kind, marker in KIND_MARKERS:
        if marker in system_text:
            return kind
    raise KeyError(f"unrecognised prompt kind: {system_text[:80]!r}")


def input_sentence(user_text: str) -> str:
    _, sep, tail = user_text.rpartition("Sentence: ")
    if not sep:
        raise KeyError(f"no input sentence in prompt: {user_text[:80]!r}")
    return tail.split("\n", 1)[0].strip()


class SimulatedProvider:
    """A chat backend answering from planted tables after a fixed sleep."""

    def __init__(self, planted: dict[str, Planted], latency_s: float = 0.0):
        self.planted = planted
        self.latency_s = latency_s

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        answer = self.planted[input_sentence(req.user_text)].answers[prompt_kind(req.system_text)]
        if self.latency_s:
            time.sleep(self.latency_s)
        return CompletionResponse(text=answer, provider_meta={"simulated": True})
