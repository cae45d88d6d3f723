"""Correctness gate: every measured call's outputs against the planted answers.

A query fails when its record is missing, duplicated, or disagrees with what
the simulated model was planted to answer. A call-level problem (a metrics
report off the value the planted answers imply, a call count off its
expected value, output bytes that differ between repeats) fails every query
of that call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .synth import Planted

# retrieval strategies that consult the connective index
PATTERN_STRATEGIES = ("pattern", "knn-pattern")


def expected_fallback(planted: Planted, seen: frozenset[str]) -> bool:
    """Pattern retrieval falls back when no input connective is an index key
    (the generator keeps unseen connectives and "none" away from every key)."""
    return not any(c in seen for c in planted.connectives)


def _example_count_ok(strategy: str, k: int, count: int, fallback: bool) -> bool:
    if strategy in ("random", "knn") or (strategy == "pattern" and fallback):
        return count == k
    if strategy == "pattern":
        return 1 <= count <= k
    return k <= count <= 2 * k  # knn-pattern


def check_records(
    path: Path,
    planted: dict[str, Planted],
    task: str,
    strategy: str,
    k: int,
    seen: frozenset[str],
) -> tuple[set[str], list[str]]:
    """Return (failed sentence ids, problems) for one prediction file."""
    failed: set[str] = set()
    problems: list[str] = []
    wanted = sorted(sid for sid, p in planted.items() if task == "detect" or p.label == 1)
    got: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                record = json.loads(line)
                sid = record["sentence_id"]
            except (json.JSONDecodeError, KeyError, TypeError):
                problems.append(f"{path.name}:{line_no}: unreadable record")
                continue
            got.append(sid)
            if sid not in planted or not _record_ok(record, planted[sid], task, strategy, k, seen):
                failed.add(sid)
    if got != wanted:
        missing = set(wanted) - set(got)
        failed |= missing
        problems.append(
            f"{path.name}: {len(got)} records, want {len(wanted)} in id order "
            f"({len(missing)} missing)"
        )
    return failed, problems


def _record_ok(
    record: dict, planted: Planted, task: str, strategy: str, k: int, seen: frozenset[str]
) -> bool:
    fallback = strategy in PATTERN_STRATEGIES and expected_fallback(planted, seen)
    if (
        record.get("task") != task
        or record.get("strategy") != strategy
        or record.get("response") != planted.answers[task]
        or record.get("fallback_used") is not fallback
        or not _example_count_ok(strategy, k, record.get("example_count", -1), fallback)
    ):
        return False
    if task == "detect":
        want = None if planted.detect_label is None else {"label": planted.detect_label}
    elif planted.extract_pairs is None:
        want = None
    else:
        want = {
            "pairs": [{"cause": c, "effect": e} for c, e in planted.extract_pairs],
            "overlap_flag": False,
            "dropped_spans": 0,
        }
    return record.get("parse_error") is (want is None) and record.get("parsed") == want


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)


def expected_metrics(task: str, planted: list[Planted]) -> dict:
    """The report metrics the planted answers imply."""
    if task == "detect":
        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        garbled = 0
        for p in planted:
            predicted = p.detect_label
            if predicted is None:
                garbled += 1
                predicted = 1 - p.label  # scored as a wrong prediction
            key = ("t" if predicted == p.label else "f") + ("p" if predicted == 1 else "n")
            counts[key] += 1
        tp, fp, tn, fn = counts["tp"], counts["fp"], counts["tn"], counts["fn"]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return {
            "accuracy": (tp + tn) / len(planted),
            "precision": precision,
            "recall": recall,
            "f1": _f1(precision, recall),
            "counts": counts,
            "parse_failures": garbled,
        }
    causal = [p for p in planted if p.label == 1]
    gold = sum(len(p.pairs) for p in causal)
    predicted = sum(len(p.extract_pairs) for p in causal if p.extract_pairs is not None)
    matched = sum(
        1
        for p in causal
        if p.extract_pairs is not None
        for want, got in zip(p.pairs, p.extract_pairs)
        if want == got  # a truncated cause misses the gold's first word
    )
    precision = matched / predicted if predicted else 0.0
    recall = matched / gold if gold else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": _f1(precision, recall),
        "matched": matched,
        "predicted_total": predicted,
        "gold_total": gold,
        "parse_failures": sum(1 for p in causal if p.extract_pairs is None),
    }


def check_report(metrics: dict, expected: dict, label: str) -> list[str]:
    problems = []
    for key, want in expected.items():
        got = metrics.get(key)
        same = (
            math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
            if isinstance(want, float) and isinstance(got, (int, float))
            else got == want
        )
        if not same:
            problems.append(f"{label}: metric {key} = {got!r}, planted answers imply {want!r}")
    return problems


def check_counts(observed: dict, expected: dict, label: str) -> list[str]:
    """Expected values are exact counts or inclusive (low, high) ranges."""
    problems = []
    for name, want in expected.items():
        got = observed.get(name)
        low, high = want if isinstance(want, tuple) else (want, want)
        if got is None or not low <= got <= high:
            problems.append(f"{label}: {name} = {got}, expected {want}")
    return problems


def line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def prompt_hashes(path: Path) -> set[str]:
    with open(path, encoding="utf-8") as handle:
        return {json.loads(line)["prompt_hash"] for line in handle}


def repository_texts(db_path: Path) -> set[str]:
    """Normalised sentence texts of a saved repository (header line skipped)."""
    from causal_rag.embedding import normalize_for_key

    with open(db_path, encoding="utf-8") as handle:
        next(handle)
        return {normalize_for_key(json.loads(line)["text"]) for line in handle}
