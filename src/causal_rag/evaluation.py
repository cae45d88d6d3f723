"""Scoring: detection metrics, single-pair accuracy, and triplet P/R/F1.

A run scores each prediction record as it is written: `sentence_outcome`
turns a checked record and its instance into a few integers, and a `Tally`
sums them into the report, through the formulas `detection_metrics`,
`single_pair_accuracy` and `triplet_metrics` use on whole lists.

Phrase matching is containment: every token of the gold phrase must appear,
contiguously and in order, inside the predicted phrase. The test is
directional; a prediction may extend the gold phrase but never drop part of
it, so "mishandling" matches "mishandling of weapons" while "the foodborne
illness" does not match "foodborne illness".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

from .corpus import (
    CauseEffectPair, LabeledInstance, Triplet, norm_tokens, pair_overlap, sentence_triplets,
)
from .errors import EmptyInputError
from .kernels import token_subsequence

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


def _pair_outcome(sentence_id: str, gold: CauseEffectPair,
                  predicted: CauseEffectPair | None) -> ExtractionOutcome:
    if predicted is None:
        return ExtractionOutcome(sentence_id, False, False, False, False)
    cause_ok = containment_match(gold.cause, predicted.cause)
    effect_ok = containment_match(gold.effect, predicted.effect)
    return ExtractionOutcome(
        sentence_id, cause_ok and effect_ok, cause_ok, effect_ok, pair_overlap(predicted)
    )


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
    outcomes = [_pair_outcome(*item) for item in items]
    accuracy = sum(1 for o in outcomes if o.success) / len(outcomes)
    return accuracy, outcomes


def triplet_compatible(gold: Triplet, predicted: Triplet) -> bool:
    return (
        gold.sentence_id == predicted.sentence_id
        and containment_match(gold.cause, predicted.cause)
        and containment_match(gold.effect, predicted.effect)
    )


def _by_sentence(triplets: Sequence[Triplet]) -> dict[str, list[Triplet]]:
    """Triplets grouped by sentence id, each group in the given order."""
    groups: dict[str, list[Triplet]] = {}
    for triplet in triplets:
        groups.setdefault(triplet.sentence_id, []).append(triplet)
    return groups


def _greedy_matched(gold: Sequence[Triplet], predicted: Sequence[Triplet]) -> int:
    """Each gold triplet, in order, takes the first unused compatible
    prediction. Only same-sentence predictions can be compatible, so each
    gold triplet scans just its own sentence's remaining predictions."""
    unused = _by_sentence(predicted)
    matched = 0
    for g in gold:
        pool = unused.get(g.sentence_id, ())
        for i, p in enumerate(pool):
            if triplet_compatible(g, p):
                del pool[i]
                matched += 1
                break
    return matched


def _max_matching(gold: Sequence[Triplet], predicted: Sequence[Triplet]) -> int:
    """Maximum bipartite matching via augmenting paths."""
    compat = [
        [triplet_compatible(g, p) for p in predicted]
        for g in gold
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


def _optimal_matched(gold: Sequence[Triplet], predicted: Sequence[Triplet]) -> int:
    """Compatible pairs never cross sentences, so the maximum matching is
    the sum of each sentence's own maximum matching."""
    candidates = _by_sentence(predicted)
    return sum(
        _max_matching(group, candidates.get(sentence_id, ()))
        for sentence_id, group in _by_sentence(gold).items()
    )


def triplet_metrics(
    gold: Sequence[Triplet],
    predicted: Sequence[Triplet],
    matching: str = "greedy",
) -> TripletMetrics:
    """One-to-one triplet matching; P = matched/|predicted|, R = matched/|gold|.

    greedy walks gold in the given order, each taking the first unused
    compatible prediction; optimal computes the maximum one-to-one matching.
    """
    if matching not in MATCHING_MODES:
        raise ValueError(f"matching must be one of {MATCHING_MODES}")
    matched = (_greedy_matched if matching == "greedy" else _optimal_matched)(gold, predicted)
    return _triplets(matched, len(predicted), len(gold))


def _triplets(matched: int, predicted_total: int, gold_total: int) -> TripletMetrics:
    precision = matched / predicted_total if predicted_total else 0.0
    recall = matched / gold_total if gold_total else 0.0
    return TripletMetrics(
        precision, recall, _f1(precision, recall), matched, predicted_total, gold_total
    )


def check_prediction(record: dict, task: str) -> str:
    """The sentence id of `record`, a prediction of `task`, once the fields
    scoring reads are checked; a record that does not fit is a KeyError,
    TypeError or ValueError."""
    if record["task"] != task:
        raise ValueError(f"task is {record['task']!r}, expected {task!r}")
    sid, count, failed = record["sentence_id"], record["example_count"], record["parse_error"]
    if type(sid) is not str:
        raise TypeError(f"sentence_id must be a string, got {sid!r}")
    if type(count) is not int:
        raise TypeError(f"example_count must be an integer, got {count!r}")
    if type(failed) is not bool:
        raise TypeError(f"parse_error must be true or false, got {failed!r}")
    parsed = record["parsed"]
    if (parsed is None) != failed:
        raise ValueError("parsed must be null exactly when parse_error is true")
    if failed:
        return sid
    if task == "detect":
        label = parsed["label"]
        if type(label) is not int or label not in (0, 1):
            raise ValueError(f"parsed label must be 0 or 1, got {label!r}")
    else:
        for cause, effect in [(pair["cause"], pair["effect"]) for pair in parsed["pairs"]]:
            if type(cause) is not str or type(effect) is not str:
                raise TypeError("parsed pairs must hold string causes and effects")
    return sid


class Outcome(NamedTuple):
    """What one sentence adds to its report. `counts` is, for detect, the
    confusion cell as one-hot (tp, fp, tn, fn); for a single pair, (success,
    overlap); for extract, (matched, predicted, gold) triplets."""

    example_count: int
    parse_error: bool
    counts: tuple[int, ...]


def sentence_outcome(
    record: dict, instance: LabeledInstance, single_pair: bool = False, matching: str = "greedy"
) -> Outcome:
    """What `record`, a checked prediction for `instance`, adds to its
    report. An unparseable response scores as a failure: a wrong label, no
    pair, no triplet."""
    parsed, sentence = record["parsed"], instance.sentence
    if record["task"] == "detect":
        predicted = 1 - instance.label if parsed is None else parsed["label"]
        counts = _confusion_cell(predicted, instance.label)
    elif single_pair:
        pairs = [] if parsed is None else parsed["pairs"]
        predicted = CauseEffectPair(pairs[0]["cause"], pairs[0]["effect"]) if pairs else None
        outcome = _pair_outcome(sentence.id, sentence.pairs[0], predicted)
        counts = (int(outcome.success), int(outcome.overlap_flag))
    else:
        gold = sentence_triplets(sentence)
        predicted = [Triplet(sentence.id, p["cause"], p["effect"])
                     for p in ([] if parsed is None else parsed["pairs"])]
        matched = (_greedy_matched if matching == "greedy" else _optimal_matched)(gold, predicted)
        counts = (matched, len(predicted), len(gold))
    return Outcome(record["example_count"], record["parse_error"], counts)


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
