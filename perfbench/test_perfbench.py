"""Tests for the benchmark's own code: generator, span arithmetic, gate."""

from __future__ import annotations

import argparse
import json
import sys
import types
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from causal_rag.retrieval import StrategyKind  # noqa: E402

from perfbench import gate, run, synth, workloads  # noqa: E402
from perfbench.spans import Span, layer_self_times, self_times, union_length  # noqa: E402

TINY = synth.InputSpec(synth.RepoShape(connectives=12, zipf_s=1.0, zipf_a=8), "extract", 40)
TINY_WORKLOAD = workloads.Workload(
    name="tiny",
    why="test",
    inputs=TINY,
    task="extract",
    strategies=(StrategyKind.PATTERN,),
    k_values=(3,),
)


def _files(inputs: synth.Inputs, directory: Path) -> list[bytes]:
    return [path.read_bytes() for path in inputs.write(directory)]


def test_generator_is_deterministic_per_seed(tmp_path):
    first = synth.make_inputs(TINY, seed=7)
    again = synth.make_inputs(TINY, seed=7)
    other = synth.make_inputs(TINY, seed=8)
    assert _files(first, tmp_path / "a") == _files(again, tmp_path / "b")
    assert first.planted == again.planted
    assert _files(first, tmp_path / "a") != _files(other, tmp_path / "c")


def test_generator_plants_the_same_mix_for_every_seed():
    spec = replace(TINY, queries=200)
    lengths = []
    for seed in (1, 2):
        inputs = synth.make_inputs(spec, seed)
        planted = list(inputs.query_planted().values())
        assert sum(p.extract_pairs is None for p in planted) == 4  # 2% garbled
        assert sum(len(p.connectives) == 2 for p in planted) == 20  # 10% two connectives
        assert all(p.answers["connective"] for p in planted)
        # the same edit-distance work: every connective has the same length
        lengths.append(([len(k) for k in inputs.seen_connectives],
                        [[len(c) for c in p.connectives] for p in planted]))
    assert lengths[0] == lengths[1]


def test_unseen_connectives_stay_away_from_every_key():
    inputs = synth.make_inputs(replace(TINY, queries=200), seed=3)
    seen = frozenset(inputs.seen_connectives)
    unseen = [c for p in inputs.query_planted().values() for c in p.connectives if c not in seen]
    assert len(unseen) == 10  # 5% of 200
    assert not any(synth.near(c, key) for c in unseen for key in seen)


def _span(id, start, end, parent=None, name="runner.x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, query=None, phase="measure")


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([]) == 0


def test_self_time_on_hand_built_span_tree():
    # root 0..10 has two children from different threads that overlap
    # (1..4 and 3..6); the first has a child 2..3; the second has two
    # children that overlap each other (3.5..5 and 4..5.5)
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1, name="retrieval.a"),
        _span(3, 3.0, 6.0, parent=1, name="gateway.b"),
        _span(4, 2.0, 3.0, parent=2, name="kernels.c"),
        _span(5, 3.5, 5.0, parent=3, name="embedding.d"),
        _span(6, 4.0, 5.5, parent=3, name="embedding.e"),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.5, 6: 1.5}
    assert layer_self_times(spans) == {
        "runner": 5.0, "retrieval": 2.0, "gateway": 1.0, "kernels": 1.0, "embedding": 3.0,
    }


def _run_tiny(tmp_path):
    prep = workloads.generate(TINY_WORKLOAD, seed=5, work=tmp_path)
    workloads.setup(prep, tmp_path / "setup", workloads.Hooks())
    call = workloads.measure(prep, tmp_path / "call", workloads.Hooks())
    return prep, call, tmp_path / "call" / "predictions.jsonl"


def test_gate_passes_the_program_on_a_tiny_workload(tmp_path):
    _, call, _ = _run_tiny(tmp_path)
    assert call.problems == [] and call.failed_ids == set()
    assert call.calls_by_kind == {"connective": 40, "extract": 40}


def test_gate_rejects_a_corrupted_prediction_file(tmp_path):
    prep, _, path = _run_tiny(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    record["parsed"]["pairs"][0]["cause"] += " extra"
    lines[3] = json.dumps(record)
    del lines[7]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    planted = prep.inputs.query_planted()
    failed, problems = gate.check_records(
        path, planted, "extract", "pattern", 3, frozenset(prep.inputs.seen_connectives)
    )
    assert failed == {"q-000004", "q-000008"}
    assert problems and "39 records, want 40" in problems[0]


def test_gate_rejects_a_short_call_count(tmp_path):
    prep, call, path = _run_tiny(tmp_path)
    expected = workloads.expected_counts(prep, [(StrategyKind.PATTERN, 3, path)])
    observed = {"chat_calls": call.chat_calls, "embed_calls": call.embed_calls,
                **{f"calls.{kind}": n for kind, n in call.calls_by_kind.items()}}
    assert gate.check_counts(observed, expected, "tiny") == []
    observed["calls.connective"] -= 1
    assert gate.check_counts(observed, expected, "tiny") == [
        "tiny: calls.connective = 39, expected 40"
    ]
    assert gate.check_counts({"embed_calls": 9}, {"embed_calls": (10, 20)}, "t")


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    result = {"e2e": {name: 1.0 for name, _ in run.END_TO_END}, "info": {},
              "attempted": 24, "failed": 1, "problems": []}
    monkeypatch.setattr(run, "run_workload", lambda *args: result)
    args = argparse.Namespace(workload="tiny", seed=1, seconds=1.0, trace=0)
    assert run.main_one(args, types.SimpleNamespace(KERNEL_BACKEND="python")) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
