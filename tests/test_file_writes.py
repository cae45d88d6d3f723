"""Whole files are written one way: `jsonl.replace_lines`. A failed replace
leaves the old file and no temporary one, for every writer, and no module
but `jsonl` opens a file for writing."""

from __future__ import annotations

import ast
import os
import stat
from pathlib import Path

import pytest

from fixture_llm import FIXTURE_MODEL_ID

import causal_rag
from causal_rag.corpus import load_dataset, write_canonical
from causal_rag.jsonl import replace_lines
from causal_rag.repository import load_repository, save_repository
from causal_rag.retrieval import StrategyKind
from causal_rag.runner import ExperimentConfig, run_experiment, sweep

FIXTURES = Path(__file__).resolve().parent / "fixtures"
OLD = b"the old file\n"


def replay_config(out: Path) -> ExperimentConfig:
    return ExperimentConfig(
        task="detect", strategy=StrategyKind.RANDOM, dataset_path=str(FIXTURES / "detect.jsonl"),
        output_path=str(out), db_path=str(FIXTURES / "examples.db"), model_id=FIXTURE_MODEL_ID,
        backend="replay", transcript_path=str(FIXTURES / "transcript.jsonl"),
    )


# writer: (file name, a call that writes that file)
WRITERS = {
    "save_repository": (
        "examples.db",
        lambda path: save_repository(load_repository(FIXTURES / "examples.db"), path),
    ),
    "write_canonical": (
        "detect.jsonl",
        lambda path: write_canonical(load_dataset(FIXTURES / "detect.jsonl"), path),
    ),
    "run report": (
        "p.jsonl.metrics.json",
        lambda path: run_experiment(replay_config(path.with_name("p.jsonl"))),
    ),
    "sweep csv": (
        "grid.csv",
        lambda path: sweep(replay_config(path.with_name("base.jsonl")),
                           [StrategyKind.RANDOM, StrategyKind.PATTERN], [1], str(path)),
    ),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_failed_replace_leaves_the_old_file_and_no_temporary_one(tmp_path, monkeypatch, writer):
    name, write = WRITERS[writer]
    target = tmp_path / name
    target.write_bytes(OLD)
    real_replace = os.replace

    def failing_replace(src, dst, *args, **kwargs):
        if Path(dst) == target:
            raise OSError("the disk went away")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="the disk went away"):
        write(target)
    assert target.read_bytes() == OLD
    assert list(tmp_path.rglob("*.tmp")) == []

    monkeypatch.undo()
    write(target)
    assert target.read_bytes() != OLD
    assert list(tmp_path.rglob("*.tmp")) == []


def test_lines_that_fail_midway_leave_the_old_file(tmp_path):
    target = tmp_path / "a.jsonl"
    target.write_bytes(OLD)

    def lines():
        yield "{}"
        raise RuntimeError("the writer broke off")

    with pytest.raises(RuntimeError):
        replace_lines(target, lines())
    assert target.read_bytes() == OLD
    assert list(tmp_path.iterdir()) == [target]
    replace_lines(target, iter(["{}", "[]"]))
    assert target.read_bytes() == b"{}\n[]\n"


def test_a_replaced_file_gets_the_mode_open_gives_a_new_file(tmp_path):
    made = tmp_path / "made"
    made.write_bytes(OLD)
    replaced = tmp_path / "replaced"
    replace_lines(replaced, ["x"])
    assert stat.S_IMODE(replaced.stat().st_mode) == stat.S_IMODE(made.stat().st_mode)


# --- one writer, enforced -----------------------------------------------------

CALLS_THAT_WRITE = {("os", "open"), ("os", "fdopen"), ("os", "replace"), ("tempfile", "mkstemp")}


def _opens_to_write(call: ast.Call, mode_position: int) -> bool:
    """Whether an `open` call's mode writes, appends or creates; a mode that
    is not a literal counts as writing."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if len(call.args) > mode_position:
        modes.append(call.args[mode_position])
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writes(source: str) -> list[tuple[int, str]]:
    """(line, what) of each call in `source` that writes or replaces a file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"from {node.module} import {alias.name}")
                      for alias in node.names if (node.module, alias.name) in CALLS_THAT_WRITE]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" and _opens_to_write(node, 1):
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if (owner, func.attr) in CALLS_THAT_WRITE or func.attr in ("write_text", "write_bytes"):
                found.append((node.lineno, f"{owner or '...'}.{func.attr}"))
            elif func.attr == "open" and owner != "os" and _opens_to_write(node, 0):
                found.append((node.lineno, f"{owner or '...'}.open"))
    return found


def test_only_jsonl_opens_a_file_to_write():
    package = Path(causal_rag.__file__).parent
    offenders = [
        f"{path.relative_to(package)}:{line}: {what}"
        for path in sorted(package.rglob("*.py")) if path.name != "jsonl.py"
        for line, what in file_writes(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
    # the jsonl module itself is seen to write, so the check does look
    assert file_writes((package / "jsonl.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("source", [
    'open(p, "w")', 'open(p, mode="a", encoding="utf-8")', 'open(p, "rb+")', "open(p, m)",
    'p.open("x")', 'p.write_text("x")', 'p.write_bytes(b"x")', "os.open(p, 0)",
    "os.fdopen(fd)", "os.replace(a, b)", "tempfile.mkstemp()", "from os import replace",
])
def test_the_guard_sees_each_way_to_write(source):
    assert file_writes(source)


@pytest.mark.parametrize("source", ['open(p)', 'open(p, "rb")', 'p.open()', 'p.open("r")',
                                    "p.read_text()", "os.path.exists(p)"])
def test_the_guard_lets_reads_pass(source):
    assert file_writes(source) == []
