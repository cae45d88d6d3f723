"""Prompt assembly and response parsing for the three LLM tasks.

Base prompt wording lives in a versioned catalog file shipped with the
package; prompts are data, and pinned runs must be able to prove which
wording they used. The catalog version is stamped into every system text,
so it participates in the request hash and a version bump invalidates
recorded transcripts instead of silently mixing wordings.

`parse_detection` and `parse_extraction` return a parsed answer in the one
form it has: the `parsed` object of a prediction line, which a run stores
as it is and `evaluation.PredictionRecord.of` checks key for key. A
response that does not parse is an `UnparseableResponseError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .corpus import normalize_ws, pair_overlap
from .errors import UnparseableResponseError

if TYPE_CHECKING:
    from .repository import ExampleRecord
    from .retrieval import RetrievalResult

VERSION_RE = re.compile(r"^catalog_version:\s*(\d+)\s*$")
BLOCK_RE = re.compile(r"^---\s*([a-z_]+)\s*---$")
DETECTION_TOKEN_RE = re.compile(r"\b[01]\b")
TAG_SPAN_RE = re.compile(r"<(cause|effect)>(.*?)</\1>", re.DOTALL)

REQUIRED_KEYS = (
    "detection_system",
    "detection_user",
    "extraction_system",
    "extraction_single_pair",
    "extraction_user",
    "connective_system",
    "connective_user",
    "example_leadin",
)

DEFAULT_CATALOG_RESOURCE = "catalog_v1.txt"


@dataclass(frozen=True)
class PromptCatalog:
    version: int
    blocks: dict[str, str]

    def block(self, key: str) -> str:
        return self.blocks[key]


@dataclass(frozen=True)
class AssembledPrompt:
    """A ready-to-send prompt; example_count equals the number of example
    sentences inside user_text."""

    system_text: str
    user_text: str
    example_count: int


def parse_catalog(text: str, origin: str = "<catalog>") -> PromptCatalog:
    lines = text.splitlines()
    version: int | None = None
    blocks: dict[str, str] = {}
    current: str | None = None
    buffer: list[str] = []

    def flush() -> None:
        if current is not None:
            blocks[current] = "\n".join(buffer).strip("\n")

    for line in lines:
        header = BLOCK_RE.match(line.strip())
        if header:
            flush()
            current = header.group(1)
            buffer = []
            continue
        if current is None:
            if not line.strip():
                continue
            m = VERSION_RE.match(line.strip())
            if not m:
                raise ValueError(f"{origin}: expected 'catalog_version: <n>', got {line!r}")
            version = int(m.group(1))
        else:
            buffer.append(line)
    flush()

    if version is None:
        raise ValueError(f"{origin}: missing catalog_version header")
    missing = [key for key in REQUIRED_KEYS if key not in blocks]
    if missing:
        raise ValueError(f"{origin}: catalog lacks blocks {missing}")
    empty = [key for key in REQUIRED_KEYS if not blocks[key].strip()]
    if empty:
        raise ValueError(f"{origin}: catalog blocks empty: {empty}")
    return PromptCatalog(version=version, blocks=blocks)


def load_catalog(path: str | Path | None = None) -> PromptCatalog:
    """Load a prompt catalog; default is the packaged current version."""
    if path is None:
        text = (
            resources.files("causal_rag.prompts")
            .joinpath(DEFAULT_CATALOG_RESOURCE)
            .read_text(encoding="utf-8")
        )
        return parse_catalog(text, DEFAULT_CATALOG_RESOURCE)
    return parse_catalog(Path(path).read_text(encoding="utf-8"), str(path))


_default_catalog: PromptCatalog | None = None


def default_catalog() -> PromptCatalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = load_catalog()
    return _default_catalog


def _system_text(catalog: PromptCatalog, key: str, extra_key: str | None = None) -> str:
    text = catalog.block(key)
    if extra_key:
        text = f"{text}\n{catalog.block(extra_key)}"
    return f"[catalog v{catalog.version}]\n{text}"


def render_example(record: "ExampleRecord", task: str) -> str:
    """One example line. Detection shows the tagged sentence; extraction
    additionally names the example's causal connective(s)."""
    if task == "extract" and record.connectives:
        return f"{record.tagged_text} (causal connective: {', '.join(record.connectives)})"
    return record.tagged_text


def _examples_block(
    catalog: PromptCatalog, examples: Sequence["ExampleRecord"], task: str
) -> str:
    if not examples:
        return ""
    leadin = catalog.block("example_leadin").replace("{count}", str(len(examples)))
    lines = [render_example(record, task) for record in examples]
    return leadin + "\n" + "\n".join(lines) + "\n\n"


_TASK_BLOCKS = {"detect": "detection", "extract": "extraction"}


def _task_prompt(
    task: str,
    sentence: str,
    examples: "RetrievalResult | None",
    catalog: PromptCatalog | None,
    extra_key: str | None = None,
) -> AssembledPrompt:
    """The detect or extract prompt: the task's system block (plus the
    `extra_key` block), and its user block with the examples and sentence."""
    if not sentence.strip():
        raise ValueError("sentence must be non-empty")
    catalog = catalog or default_catalog()
    records = examples.examples if examples is not None else ()
    blocks = _TASK_BLOCKS[task]
    user = (
        catalog.block(f"{blocks}_user")
        .replace("{examples}", _examples_block(catalog, records, task))
        .replace("{sentence}", sentence)
    )
    system = _system_text(catalog, f"{blocks}_system", extra_key)
    return AssembledPrompt(system, user, len(records))


def detection_prompt(
    sentence: str,
    examples: "RetrievalResult | None" = None,
    catalog: PromptCatalog | None = None,
) -> AssembledPrompt:
    """Assemble the causality-detection prompt, zeroshot or with examples."""
    return _task_prompt("detect", sentence, examples, catalog)


def extraction_prompt(
    sentence: str,
    examples: "RetrievalResult | None" = None,
    single_pair: bool = False,
    catalog: PromptCatalog | None = None,
) -> AssembledPrompt:
    """Assemble the cause/effect-extraction prompt."""
    extra_key = "extraction_single_pair" if single_pair else None
    return _task_prompt("extract", sentence, examples, catalog, extra_key)


def connective_prompt(sentence: str, catalog: PromptCatalog | None = None) -> AssembledPrompt:
    """Assemble the causal-connective extraction prompt (always zeroshot;
    its demonstrations are fixed text inside the catalog block)."""
    if not sentence.strip():
        raise ValueError("sentence must be non-empty")
    catalog = catalog or default_catalog()
    user = catalog.block("connective_user").replace("{sentence}", sentence)
    return AssembledPrompt(_system_text(catalog, "connective_system"), user, 0)


def parse_detection(response: str) -> dict:
    """Map a model response to `{"label": 0|1}`: the first standalone 0 or 1."""
    match = DETECTION_TOKEN_RE.search(response.strip())
    if not match:
        raise UnparseableResponseError(
            f"no standalone 0/1 token in response: {response[:120]!r}"
        )
    return {"label": int(match.group(0))}


def parse_extraction(response: str) -> dict:
    """Extract tagged cause/effect spans and pair them positionally, as
    `{"pairs": [{"cause", "effect"}, ...], "overlap_flag", "dropped_spans"}`.

    The i-th cause goes with the i-th effect; unmatched leftovers and
    whitespace-only spans are dropped and counted in dropped_spans.
    overlap_flag marks any pair whose cause and effect share a normalized
    token (diagnostic only; it never affects pairing).
    """
    causes: list[str] = []
    effects: list[str] = []
    dropped = 0
    for match in TAG_SPAN_RE.finditer(response):
        phrase = normalize_ws(match.group(2))
        if not phrase:
            dropped += 1
            continue
        (causes if match.group(1) == "cause" else effects).append(phrase)
    paired = min(len(causes), len(effects))
    dropped += (len(causes) - paired) + (len(effects) - paired)
    if paired == 0:
        raise UnparseableResponseError(
            f"no complete cause/effect pair in response: {response[:120]!r}"
        )
    pairs = list(zip(causes, effects))
    return {
        "pairs": [{"cause": c, "effect": e} for c, e in pairs],
        "overlap_flag": any(pair_overlap(c, e) for c, e in pairs),
        "dropped_spans": dropped,
    }
