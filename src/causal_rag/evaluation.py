"""Scoring: detection metrics, single-pair accuracy, and triplet P/R/F1.

`PredictionRecord` is the one definition of a prediction line: `line()` is
its one encoding, and `PredictionRecord.of` checks every field of a line
read back, `parsed` key for key against what the parsers return. `line()`
writes the line straight from the record's fields, byte for byte what
`encode_line` gives of the record as an object, without building that
object. A run builds one per sentence, so it is a named tuple, as is each
`ExampleProvenance` it holds. A run scores each record as it is written:
`sentence_outcome` turns a record and its instance into a few integers,
and a `Tally` sums them into the report, through the formulas
`detection_metrics`, `single_pair_accuracy` and `triplet_metrics` use on
whole lists. Each matching mode is one matcher of one sentence's (cause,
effect) pairs: a record's gold pairs meet its parsed pairs directly, and
`triplet_metrics` groups each side by sentence once and runs the same
matcher on each sentence.

Phrase matching is containment: every token of the gold phrase must appear,
contiguously and in order, inside the predicted phrase. The test is
directional; a prediction may extend the gold phrase but never drop part of
it, so "mishandling" matches "mishandling of weapons" while "the foodborne
illness" does not match "foodborne illness". A predicted phrase equal to
the gold phrase matches without being tokenized, since a phrase contains
itself; a blank gold phrase is refused even then.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring
from typing import Iterable, NamedTuple, Sequence

from .corpus import CauseEffectPair, LabeledInstance, Triplet, norm_tokens, pair_overlap
from .errors import EmptyInputError
from .jsonl import encode_line
from .kernels import token_subsequence
from .retrieval import ORIGINS, STRATEGY_NAMES, ExampleProvenance, StrategyKind

MATCHING_MODES = ("greedy", "optimal")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class DetectionMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


@dataclass(frozen=True)
class TripletMetrics:
    precision: float
    recall: float
    f1: float
    matched: int
    predicted_total: int
    gold_total: int


@dataclass(frozen=True)
class ExtractionOutcome:
    sentence_id: str
    success: bool
    cause_matched: bool
    effect_matched: bool
    overlap_flag: bool


def containment_match(gold_phrase: str, predicted_phrase: str) -> bool:
    """True iff gold's token sequence occurs contiguously in predicted's."""
    if not gold_phrase.strip():
        raise ValueError("gold phrase must be non-empty")
    if predicted_phrase == gold_phrase:  # a phrase contains itself
        return True
    return token_subsequence(norm_tokens(gold_phrase), norm_tokens(predicted_phrase))


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# (predicted, gold) -> one-hot (tp, fp, tn, fn); the positive class is causal=1
_CELLS = {(1, 1): (1, 0, 0, 0), (1, 0): (0, 1, 0, 0), (0, 0): (0, 0, 1, 0), (0, 1): (0, 0, 0, 1)}


def _confusion_cell(predicted: int, gold: int) -> tuple[int, int, int, int]:
    if predicted not in (0, 1) or gold not in (0, 1):
        raise ValueError(f"labels must be binary, got ({predicted}, {gold})")
    return _CELLS[predicted, gold]


def _detection(tp: int, fp: int, tn: int, fn: int) -> DetectionMetrics:
    counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return DetectionMetrics((tp + tn) / counts.total, precision, recall,
                            _f1(precision, recall), counts)


def detection_metrics(preds: Sequence[tuple[int, int]]) -> DetectionMetrics:
    """Score (predicted, gold) label pairs; the positive class is causal=1."""
    if not preds:
        raise EmptyInputError("no predictions to score")
    cells = [_confusion_cell(predicted, gold) for predicted, gold in preds]
    return _detection(*map(sum, zip(*cells)))


def _pair_hits(gold: CauseEffectPair, cause: str, effect: str) -> tuple[bool, bool, bool]:
    """Whether a predicted pair contains the gold cause, the gold effect,
    and whether its own cause and effect overlap."""
    return (containment_match(gold.cause, cause), containment_match(gold.effect, effect),
            pair_overlap(cause, effect))


def single_pair_accuracy(
    items: Sequence[tuple[str, CauseEffectPair, CauseEffectPair | None]],
) -> tuple[float, list[ExtractionOutcome]]:
    """Score sentences that carry exactly one gold pair.

    items: (sentence_id, gold pair, predicted pair or None). A missing
    prediction (unparseable response upstream) counts as a failure. Success
    needs containment on the cause AND on the effect.
    """
    if not items:
        raise EmptyInputError("no extraction outcomes to score")
    outcomes = []
    for sentence_id, gold, predicted in items:
        hits = (False,) * 3 if predicted is None else (
            _pair_hits(gold, predicted.cause, predicted.effect))
        outcomes.append(ExtractionOutcome(sentence_id, hits[0] and hits[1], *hits))
    accuracy = sum(1 for o in outcomes if o.success) / len(outcomes)
    return accuracy, outcomes


def _greedy_pairs(gold: Iterable[tuple[str, str]], predicted: Iterable[tuple[str, str]]) -> int:
    """One sentence's greedy matching of (cause, effect) pairs: each gold
    pair, in order, takes the first unused prediction that contains both its
    phrases."""
    unused = list(predicted)
    matched = 0
    for cause, effect in gold:
        for i, (p_cause, p_effect) in enumerate(unused):
            if containment_match(cause, p_cause) and containment_match(effect, p_effect):
                del unused[i]
                matched += 1
                break
    return matched


def _max_pairs(gold: Sequence[tuple[str, str]], predicted: Sequence[tuple[str, str]]) -> int:
    """One sentence's maximum one-to-one matching of (cause, effect) pairs,
    via augmenting paths."""
    compat = [
        [containment_match(cause, p_cause) and containment_match(effect, p_effect)
         for p_cause, p_effect in predicted]
        for cause, effect in gold
    ]
    owner: list[int | None] = [None] * len(predicted)

    def augment(gi: int, seen: list[bool]) -> bool:
        for pi in range(len(predicted)):
            if compat[gi][pi] and not seen[pi]:
                seen[pi] = True
                if owner[pi] is None or augment(owner[pi], seen):
                    owner[pi] = gi
                    return True
        return False

    matched = 0
    for gi in range(len(gold)):
        if augment(gi, [False] * len(predicted)):
            matched += 1
    return matched


# matching mode -> the matcher of one sentence's gold pairs and predicted pairs
_MATCHERS = {"greedy": _greedy_pairs, "optimal": _max_pairs}


def _by_sentence(triplets: Sequence[Triplet]) -> dict[str, list[tuple[str, str]]]:
    """Each sentence's (cause, effect) pairs, in the given order."""
    groups: dict[str, list[tuple[str, str]]] = {}
    for triplet in triplets:
        groups.setdefault(triplet.sentence_id, []).append((triplet.cause, triplet.effect))
    return groups


def triplet_metrics(
    gold: Sequence[Triplet],
    predicted: Sequence[Triplet],
    matching: str = "greedy",
) -> TripletMetrics:
    """One-to-one triplet matching; P = matched/|predicted|, R = matched/|gold|.

    greedy walks gold in the given order, each taking the first unused
    compatible prediction; optimal computes the maximum one-to-one matching.
    A triplet only matches one of its own sentence, so each sentence is
    matched on its own.
    """
    if matching not in MATCHING_MODES:
        raise ValueError(f"matching must be one of {MATCHING_MODES}")
    match, candidates = _MATCHERS[matching], _by_sentence(predicted)
    matched = sum(match(pairs, candidates.get(sentence_id, ()))
                  for sentence_id, pairs in _by_sentence(gold).items())
    return _triplets(matched, len(predicted), len(gold))


def _triplets(matched: int, predicted_total: int, gold_total: int) -> TripletMetrics:
    precision = matched / predicted_total if predicted_total else 0.0
    recall = matched / gold_total if gold_total else 0.0
    return TripletMetrics(
        precision, recall, _f1(precision, recall), matched, predicted_total, gold_total
    )


_HEX64 = re.compile("[0-9a-f]{64}")
# (field, type, what it must be): the fields of a prediction line checked by type alone
_TYPED = (("sentence_id", str, "a string"), ("example_count", int, "an integer"),
          ("fallback_used", bool, "true or false"), ("provenance", list, "an array"),
          ("response", str, "a string"), ("parse_error", bool, "true or false"))


def _need(ok: bool, name: str, what: str, value: object) -> None:
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _finite(value: object) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _exact_keys(obj: dict, keys: frozenset[str], what: str) -> None:
    """Refuse an object without exactly `keys`: a missing one is a
    KeyError, an unknown one a ValueError."""
    if obj.keys() != keys:
        missing, unknown = sorted(keys - obj.keys()), sorted(obj.keys() - keys)
        raise KeyError(missing[0]) if missing else ValueError(f"unknown {what} {unknown[0]!r}")


# the keys of the `parsed` object `parse_detection` and `parse_extraction` return
_PARSED_KEYS = {"detect": frozenset({"label"}),
                "extract": frozenset({"pairs", "overlap_flag", "dropped_spans"})}
_PAIR_KEYS = frozenset({"cause", "effect"})


def _check_parsed(parsed: object, task: str) -> None:
    """Refuse a parsed answer that is not of the form the parser of `task`
    returns, key for key."""
    _need(type(parsed) is dict, "parsed", "an object or null", parsed)
    _exact_keys(parsed, _PARSED_KEYS[task], "parsed field")
    if task == "detect":
        label = parsed["label"]
        _need(type(label) is int and label in (0, 1), "parsed label", "0 or 1", label)
        return
    pairs = parsed["pairs"]
    _need(type(pairs) is list and len(pairs) > 0, "parsed pairs", "a non-empty array", pairs)
    for pair in pairs:
        _need(type(pair) is dict, "each parsed pair", "an object", pair)
        _exact_keys(pair, _PAIR_KEYS, "pair field")
        if type(pair["cause"]) is not str or type(pair["effect"]) is not str:
            raise TypeError("parsed pairs must hold string causes and effects")
    _need(type(parsed["overlap_flag"]) is bool, "overlap_flag", "true or false",
          parsed["overlap_flag"])
    dropped = parsed["dropped_spans"]
    _need(type(dropped) is int and dropped >= 0, "dropped_spans", "an integer >= 0", dropped)


class PredictionRecord(NamedTuple):
    """One line of a prediction file: what a run asked, got and parsed for
    one sentence, and where each example of its prompt came from. `parsed`
    is None when the response did not parse, else what the task's parser
    returned: exactly {"label"} for detect and exactly {"pairs",
    "overlap_flag", "dropped_spans"} for extract, `pairs` a non-empty array
    of exactly {"cause", "effect"}. `line()` is the one encoding of such a
    line and `of` the one check. A run builds one per sentence, so it is a
    tuple, never handed to `encode_line` as is."""

    sentence_id: str
    task: str
    strategy: StrategyKind
    prompt_hash: str
    example_count: int
    fallback_used: bool
    provenance: tuple[ExampleProvenance, ...]
    response: str
    parsed: dict | None
    parse_error: bool
    timing_ms: float

    def line(self) -> str:
        """The record as a prediction line, without its newline: what
        `encode_line` gives of the record as an object, each provenance
        entry without its None fields and its score rounded to 6 places.
        It is spelled out in sorted key order, each string escaped by
        `encode_basestring` (the escaper `encode_line` uses) and each number
        and `parsed` encoded by `encode_line`, so no object is built per
        record."""
        entries = []
        for record_id, origin, score, connective in self.provenance:
            entries.append(
                ("{" if connective is None
                 else f'{{"connective": {encode_basestring(connective)}, ')
                + f'"origin": {encode_basestring(origin)}, '
                + f'"record_id": {encode_basestring(record_id)}'
                + ("}" if score is None else f', "score": {encode_line(round(score, 6))}}}'))
        return (
            f'{{"example_count": {encode_line(self.example_count)}, '
            f'"fallback_used": {"true" if self.fallback_used else "false"}, '
            f'"parse_error": {"true" if self.parse_error else "false"}, '
            f'"parsed": {encode_line(self.parsed)}, '
            f'"prompt_hash": {encode_basestring(self.prompt_hash)}, '
            f'"provenance": [{", ".join(entries)}], '
            f'"response": {encode_basestring(self.response)}, '
            f'"sentence_id": {encode_basestring(self.sentence_id)}, '
            f'"strategy": {encode_basestring(self.strategy.value)}, '
            f'"task": {encode_basestring(self.task)}, '
            f'"timing_ms": {encode_line(self.timing_ms)}}}'
        )

    @classmethod
    def of(cls, obj: dict, task: str) -> PredictionRecord:
        """The record a prediction line's object holds, every field checked
        against a run of `task`; one that does not fit is a KeyError,
        TypeError or ValueError."""
        _exact_keys(obj, _FIELDS, "field")
        if obj["task"] != task:
            raise ValueError(f"task is {obj['task']!r}, expected {task!r}")
        for name, kind, what in _TYPED:
            _need(type(obj[name]) is kind, name, what, obj[name])
        strategy, digest, timing = obj["strategy"], obj["prompt_hash"], obj["timing_ms"]
        _need(strategy in STRATEGY_NAMES, "strategy", "one of " + ", ".join(STRATEGY_NAMES),
              strategy)
        _need(type(digest) is str and _HEX64.fullmatch(digest) is not None,
              "prompt_hash", "64 lowercase hex digits", digest)
        _need(_finite(timing) and timing >= 0, "timing_ms", "a finite number >= 0", timing)
        provenance = tuple(map(_provenance_entry, obj["provenance"]))
        count, parsed = obj["example_count"], obj["parsed"]
        _need(count == len(provenance), "example_count",
              f"{len(provenance)}, the number of provenance entries", count)
        if (parsed is None) != obj["parse_error"]:
            raise ValueError("parsed must be null exactly when parse_error is true")
        if parsed is not None:
            _check_parsed(parsed, task)
        return cls(obj["sentence_id"], task, StrategyKind(strategy), digest, count,
                   obj["fallback_used"], provenance, obj["response"], parsed,
                   obj["parse_error"], timing)


_FIELDS = frozenset(PredictionRecord._fields)
_PROVENANCE_FIELDS = frozenset(ExampleProvenance._fields)


def _provenance_entry(entry: object) -> ExampleProvenance:
    """One entry of a prediction line's provenance, checked."""
    _need(type(entry) is dict, "each provenance entry", "an object", entry)
    if entry.keys() - _PROVENANCE_FIELDS:
        raise ValueError(f"unknown provenance field {min(entry.keys() - _PROVENANCE_FIELDS)!r}")
    p = ExampleProvenance(entry["record_id"], entry["origin"],
                          entry.get("score"), entry.get("connective"))
    _need(type(p.record_id) is str, "provenance record_id", "a string", p.record_id)
    _need(p.origin in ORIGINS, "provenance origin", "one of " + ", ".join(ORIGINS), p.origin)
    _need(p.score is None or _finite(p.score), "provenance score", "a finite number", p.score)
    _need(p.connective is None or type(p.connective) is str, "provenance connective",
          "a string", p.connective)
    return p


class Outcome(NamedTuple):
    """What one sentence adds to its report. `counts` is, for detect, the
    confusion cell as one-hot (tp, fp, tn, fn); for a single pair, (success,
    overlap); for extract, (matched, predicted, gold) triplets."""

    example_count: int
    parse_error: bool
    counts: tuple[int, ...]


def sentence_outcome(
    record: PredictionRecord, instance: LabeledInstance, single_pair: bool = False,
    matching: str = "greedy",
) -> Outcome:
    """What `record`, a prediction for `instance`, adds to its report. An
    unparseable response scores as a failure: a wrong label, no pair, no
    triplet."""
    parsed, sentence = record.parsed, instance.sentence
    if record.task == "detect":
        predicted = 1 - instance.label if parsed is None else parsed["label"]
        counts = _confusion_cell(predicted, instance.label)
    elif single_pair:
        cause_ok = effect_ok = overlap = False
        if parsed is not None:
            first = parsed["pairs"][0]
            cause_ok, effect_ok, overlap = _pair_hits(sentence.pairs[0], first["cause"],
                                                      first["effect"])
        counts = (int(cause_ok and effect_ok), int(overlap))
    else:
        gold = [(g.cause, g.effect) for g in sentence.pairs]
        predicted = [] if parsed is None else [(p["cause"], p["effect"]) for p in parsed["pairs"]]
        counts = (_MATCHERS[matching](gold, predicted), len(predicted), len(gold))
    return Outcome(record.example_count, record.parse_error, counts)


class Tally:
    """Running totals of sentence outcomes, in any order; `metrics()` is
    what scoring the same sentences in one pass gives."""

    def __init__(self, task: str, single_pair: bool = False,
                 outcomes: Iterable[Outcome] = ()) -> None:
        self.kind = task if task == "detect" else "extract-single" if single_pair else "extract"
        self.sentences = self.examples = self.examples_max = self.parse_failures = 0
        self.counts = [0] * {"detect": 4, "extract-single": 2, "extract": 3}[self.kind]
        for outcome in outcomes:
            self.add(outcome)

    def add(self, outcome: Outcome) -> None:
        self.sentences += 1
        self.examples += outcome.example_count
        self.examples_max = max(self.examples_max, outcome.example_count)
        self.parse_failures += outcome.parse_error
        for i, n in enumerate(outcome.counts):
            self.counts[i] += n

    def metrics(self) -> dict:
        """The report's metrics, in the order reports list them."""
        if not self.sentences:
            raise EmptyInputError("no sentences to score")
        if self.kind == "detect":
            metrics = asdict(_detection(*self.counts))
        elif self.kind == "extract":
            metrics = asdict(_triplets(*self.counts))
        else:
            successes, overlaps = self.counts
            metrics = {"accuracy": successes / self.sentences, "successes": successes,
                       "total": self.sentences, "overlap_count": overlaps}
        metrics["examples_mean"] = round(self.examples / self.sentences, 4)
        metrics["examples_max"] = self.examples_max
        metrics["parse_failures"] = self.parse_failures
        return metrics


def build_report(task: str, metrics: object, config: dict) -> dict:
    """Bundle metrics with the run configuration for provenance."""
    if isinstance(metrics, (DetectionMetrics, TripletMetrics)):
        body = asdict(metrics)
    elif isinstance(metrics, dict):
        body = dict(metrics)
    else:
        raise TypeError(f"unsupported metrics object: {type(metrics)!r}")
    return {"task": task, "metrics": body, "config": dict(config)}


def _flatten(prefix: str, value: object, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, float):
        rows.append((prefix, f"{value:.4f}"))
    else:
        rows.append((prefix, str(value)))


def render_table(report: dict) -> str:
    """Aligned two-column text rendering of a report."""
    rows: list[tuple[str, str]] = [("task", str(report.get("task", "")))]
    _flatten("", report.get("metrics", {}), rows)
    for key in sorted(report.get("config", {})):
        _flatten(f"config.{key}", report["config"][key], rows)
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)
