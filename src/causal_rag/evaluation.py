"""Scoring: detection metrics, single-pair accuracy, and triplet P/R/F1.

Phrase matching is containment: every token of the gold phrase must appear,
contiguously and in order, inside the predicted phrase. The test is
directional; a prediction may extend the gold phrase but never drop part of
it, so "mishandling" matches "mishandling of weapons" while "the foodborne
illness" does not match "foodborne illness".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import CauseEffectPair, Triplet, norm_tokens, pair_overlap
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


def detection_metrics(preds: Sequence[tuple[int, int]]) -> DetectionMetrics:
    """Score (predicted, gold) label pairs; the positive class is causal=1."""
    if not preds:
        raise EmptyInputError("no predictions to score")
    tp = fp = tn = fn = 0
    for predicted, gold in preds:
        if predicted not in (0, 1) or gold not in (0, 1):
            raise ValueError(f"labels must be binary, got ({predicted}, {gold})")
        if predicted == 1 and gold == 1:
            tp += 1
        elif predicted == 1 and gold == 0:
            fp += 1
        elif predicted == 0 and gold == 0:
            tn += 1
        else:
            fn += 1
    counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return DetectionMetrics(
        accuracy=(tp + tn) / counts.total,
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        counts=counts,
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
    outcomes: list[ExtractionOutcome] = []
    for sentence_id, gold, predicted in items:
        if predicted is None:
            outcomes.append(
                ExtractionOutcome(
                    sentence_id=sentence_id,
                    success=False,
                    cause_matched=False,
                    effect_matched=False,
                    overlap_flag=False,
                )
            )
            continue
        cause_ok = containment_match(gold.cause, predicted.cause)
        effect_ok = containment_match(gold.effect, predicted.effect)
        outcomes.append(
            ExtractionOutcome(
                sentence_id=sentence_id,
                success=cause_ok and effect_ok,
                cause_matched=cause_ok,
                effect_matched=effect_ok,
                overlap_flag=pair_overlap(predicted),
            )
        )
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
    precision = matched / len(predicted) if predicted else 0.0
    recall = matched / len(gold) if gold else 0.0
    return TripletMetrics(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        matched=matched,
        predicted_total=len(predicted),
        gold_total=len(gold),
    )


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
