"""The README's "Library use" examples and the package docstring's example
run as written, against the fixtures, and the package exports exactly the
names those examples import.

The examples name a replay backend over `transcript.jsonl`. Their answers
are recorded first, from the fixture model under the examples' own configs;
the examples then run unchanged and replay every answer."""

from __future__ import annotations

import ast
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from fixture_llm import FixtureResponder, ScriptedBackend

import causal_rag
from causal_rag import runner
from causal_rag.gateway import RecordBackend, Transcript

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def library_use_blocks() -> list[str]:
    """The Python blocks of the README's "Library use" section, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def docstring_block() -> str:
    """The example after the `::` in the package docstring."""
    return textwrap.dedent(causal_rag.__doc__.split("::\n", 1)[1])


def imported_names(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "causal_rag"
        for alias in node.names
    }


def run_blocks(blocks: list[str], origin: str) -> dict:
    """Exec the blocks in order in one namespace, as a reader runs them."""
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, origin, "exec"), namespace)
    return namespace


@pytest.fixture
def recorded(tmp_path, monkeypatch) -> dict:
    """A directory holding the examples' inputs and their recorded answers,
    and no output; the recording run's `result.report` metrics."""
    shutil.copy(FIXTURES / "detect.jsonl", tmp_path / "dev.jsonl")
    shutil.copy(FIXTURES / "examples.db", tmp_path / "examples.db")
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(runner, "make_backend", lambda name, transcript_path, base_url: (
            RecordBackend(Transcript(transcript_path), ScriptedBackend(FixtureResponder()))
        ))
        namespace = run_blocks(library_use_blocks(), "README.md")
    shutil.rmtree(tmp_path / "out")
    return {"dir": tmp_path, "metrics": namespace["result"].report["metrics"],
            "transcript": (tmp_path / "transcript.jsonl").read_bytes()}


def test_the_readme_examples_run_as_written(recorded, capsys):
    namespace = run_blocks(library_use_blocks(), "README.md")
    assert namespace["result"].report["metrics"] == recorded["metrics"]
    assert len(namespace["reports"]) == 4  # two strategies at two k
    assert (recorded["dir"] / "out" / "grid.csv").exists()
    assert "error" not in capsys.readouterr().out  # the last block caught nothing
    # every answer replayed: the transcript gained no line
    assert (recorded["dir"] / "transcript.jsonl").read_bytes() == recorded["transcript"]


def test_the_package_docstring_example_runs_as_written(recorded):
    namespace = run_blocks([docstring_block()], "causal_rag.__doc__")
    assert namespace["result"].skipped_existing == 0
    assert namespace["result"].report["metrics"] == recorded["metrics"]
    assert (recorded["dir"] / "transcript.jsonl").read_bytes() == recorded["transcript"]


def test_the_package_exports_what_the_readme_documents():
    documented = set().union(*map(imported_names, library_use_blocks()))
    assert sorted(causal_rag.__all__) == sorted(documented | {"__version__", "KERNEL_BACKEND"})
    assert imported_names(docstring_block()) <= documented
    for name in causal_rag.__all__:
        assert getattr(causal_rag, name) is not None, name
