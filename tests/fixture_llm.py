"""Deterministic scripted model used to build the committed test fixtures,
and `ScriptedBackend`, the in-memory backend that serves it.

The responder answers the three prompt kinds (detection, extraction,
connective extraction) from fixed tables keyed by the input sentence, with
planted mistakes so metrics are informative: a few detection labels are
flipped, some extraction answers extend / truncate / swap phrases, and one
goes unparseable. Zeroshot prompts (no example block) get strictly worse
answers than fewshot prompts, so strategy comparisons have a known order.

The same tables define the fixture datasets and the repository training
corpus, keeping sentences, gold labels, and scripted answers in one place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from causal_rag.corpus import CauseEffectPair, render_tagged
from causal_rag.gateway import CompletionRequest, CompletionResponse

FIXTURE_MODEL_ID = "fixture-model"


@dataclass(frozen=True)
class FixtureSentence:
    id: str
    text: str
    label: int
    pairs: tuple[tuple[str, str], ...] = ()
    connective: str | None = None


def _causal(id: str, text: str, cause: str, effect: str, connective: str) -> FixtureSentence:
    return FixtureSentence(id, text, 1, ((cause, effect),), connective)


def _plain(id: str, text: str) -> FixtureSentence:
    return FixtureSentence(id, text, 0)


# --- repository training corpus (40 causal sentences, 9 connectives) ---------
# "caused by" has 12 candidates so the per-connective cap of 10 must bind.

DB_SENTENCES: tuple[FixtureSentence, ...] = (
    _causal("db-001", "The flood was caused by heavy rain.", "heavy rain", "The flood", "caused by"),
    _causal("db-002", "The outage was caused by a lightning strike.", "a lightning strike", "The outage", "caused by"),
    _causal("db-003", "The delay was caused by engine trouble.", "engine trouble", "The delay", "caused by"),
    _causal("db-004", "The fire was caused by faulty wiring.", "faulty wiring", "The fire", "caused by"),
    _causal("db-005", "The crash was caused by brake failure.", "brake failure", "The crash", "caused by"),
    _causal("db-006", "The shortage was caused by panic buying.", "panic buying", "The shortage", "caused by"),
    _causal("db-007", "The infection was caused by contaminated water.", "contaminated water", "The infection", "caused by"),
    _causal("db-008", "The blackout was caused by grid overload.", "grid overload", "The blackout", "caused by"),
    _causal("db-009", "The recall was caused by a labeling defect.", "a labeling defect", "The recall", "caused by"),
    _causal("db-010", "The landslide was caused by soil erosion.", "soil erosion", "The landslide", "caused by"),
    _causal("db-011", "The epidemic was caused by a novel virus.", "a novel virus", "The epidemic", "caused by"),
    _causal("db-012", "The damage was caused by strong winds.", "strong winds", "The damage", "caused by"),
    _causal("db-013", "Rising prices led to widespread protests.", "Rising prices", "widespread protests", "led to"),
    _causal("db-014", "Poor maintenance led to repeated breakdowns.", "Poor maintenance", "repeated breakdowns", "led to"),
    _causal("db-015", "The drought led to crop failure.", "The drought", "crop failure", "led to"),
    _causal("db-016", "Overfishing led to stock collapse.", "Overfishing", "stock collapse", "led to"),
    _causal("db-017", "Budget cuts led to longer waiting times.", "Budget cuts", "longer waiting times", "led to"),
    _causal("db-018", "The scandal led to a string of resignations.", "The scandal", "a string of resignations", "led to"),
    _causal("db-019", "The match was postponed due to heavy snow.", "heavy snow", "The match", "due to"),
    _causal("db-020", "Flights were cancelled due to dense fog.", "dense fog", "Flights", "due to"),
    _causal("db-021", "The road was closed due to flooding.", "flooding", "The road", "due to"),
    _causal("db-022", "Production slowed due to chip shortages.", "chip shortages", "Production", "due to"),
    _causal("db-023", "Sales dropped due to weak demand.", "weak demand", "Sales", "due to"),
    _causal("db-024", "Classes were suspended due to the storm.", "the storm", "Classes", "due to"),
    _causal("db-025", "The merger resulted in hundreds of layoffs.", "The merger", "hundreds of layoffs", "resulted in"),
    _causal("db-026", "The spill resulted in lasting pollution.", "The spill", "lasting pollution", "resulted in"),
    _causal("db-027", "The policy resulted in higher enrollment.", "The policy", "higher enrollment", "resulted in"),
    _causal("db-028", "The error resulted in duplicate charges.", "The error", "duplicate charges", "resulted in"),
    _causal("db-029", "The collision resulted in minor injuries.", "The collision", "minor injuries", "resulted in"),
    _causal("db-030", "The picnic was moved indoors because of rain.", "rain", "The picnic", "because of"),
    _causal("db-031", "Traffic stalled because of roadworks.", "roadworks", "Traffic", "because of"),
    _causal("db-032", "Prices rose because of new tariffs.", "new tariffs", "Prices", "because of"),
    _causal("db-033", "The show was delayed because of technical problems.", "technical problems", "The show", "because of"),
    _causal("db-034", "The announcement triggered a selloff.", "The announcement", "a selloff", "triggered"),
    _causal("db-035", "The tremor triggered several avalanches.", "The tremor", "several avalanches", "triggered"),
    _causal("db-036", "The power cut triggered a wave of complaints.", "The power cut", "a wave of complaints", "triggered"),
    _causal("db-037", "The drug induced severe drowsiness.", "The drug", "severe drowsiness", "induced"),
    _causal("db-038", "The treatment induced temporary remission.", "The treatment", "temporary remission", "induced"),
    _causal("db-039", "The bridge was closed as a result of structural damage.", "structural damage", "The bridge", "as a result of"),
    _causal("db-040", "The launch slipped owing to supplier delays.", "supplier delays", "The launch", "owing to"),
)

# --- detection evaluation set (13 causal + 12 non-causal) ---------------------

DETECTION_SENTENCES: tuple[FixtureSentence, ...] = (
    _causal("det-001", "The power failure was caused by a fallen tree.", "a fallen tree", "The power failure", "caused by"),
    _causal("det-002", "Heavy rains led to flash floods.", "Heavy rains", "flash floods", "led to"),
    _causal("det-003", "The game was cancelled due to lightning.", "lightning", "The game", "due to"),
    _causal("det-004", "The leak resulted in a costly cleanup.", "The leak", "a costly cleanup", "resulted in"),
    _causal("det-005", "Schools closed because of the heatwave.", "the heatwave", "Schools", "because of"),
    _causal("det-006", "The rumor triggered a bank run.", "The rumor", "a bank run", "triggered"),
    _causal("det-007", "The vaccine induced a mild fever.", "The vaccine", "a mild fever", "induced"),
    _causal("det-008", "The accident stemmed from a missed inspection.", "a missed inspection", "The accident", "stemmed from"),
    _causal("det-009", "Chronic stress contributes to heart disease.", "Chronic stress", "heart disease", "contributes to"),
    _causal("det-010", "The fog forced the airport to halt departures.", "The fog", "halt departures", "forced"),
    _causal("det-011", "His absence was caused by a family emergency.", "a family emergency", "His absence", "caused by"),
    _causal("det-012", "Smoking causes lung cancer.", "Smoking", "lung cancer", "causes"),
    _causal("det-013", "The glitch was caused by a software bug.", "a software bug", "The glitch", "caused by"),
    _plain("det-014", "The museum opens at nine on weekdays."),
    _plain("det-015", "She plays violin in the city orchestra."),
    _plain("det-016", "The report covers the second quarter."),
    _plain("det-017", "Blue whales are the largest animals on Earth."),
    _plain("det-018", "The recipe calls for two cups of flour."),
    _plain("det-019", "He parked the car behind the bakery."),
    _plain("det-020", "The library added new study rooms."),
    _plain("det-021", "The train to Boston departs from platform four."),
    _plain("det-022", "Her essay compares two poems."),
    _plain("det-023", "The committee meets every other Tuesday."),
    _plain("det-024", "The store stocks imported cheeses."),
    _plain("det-025", "The lecture covered medieval trade routes."),
)

# detection mistakes: zeroshot flips four labels, fewshot only two
ZEROSHOT_DETECTION_ERRORS = frozenset({"det-003", "det-007", "det-016", "det-021"})
FEWSHOT_DETECTION_ERRORS = frozenset({"det-003", "det-016"})

# --- extraction evaluation set (8 single-pair + 2 multi-pair) -----------------

EXTRACTION_SENTENCES: tuple[FixtureSentence, ...] = (
    _causal("ext-001", "The wildfire was caused by an unattended campfire.", "an unattended campfire", "The wildfire", "caused by"),
    _causal("ext-002", "Budget overruns led to the project being shelved.", "Budget overruns", "the project being shelved", "led to"),
    _causal("ext-003", "The festival was cancelled due to rising cases.", "rising cases", "The festival", "due to"),
    _causal("ext-004", "The strike resulted in missed shipments.", "The strike", "missed shipments", "resulted in"),
    _causal("ext-005", "The dam burst because of record rainfall.", "record rainfall", "The dam", "because of"),
    _causal("ext-006", "The new policy triggered a hiring freeze.", "new policy", "a hiring freeze", "triggered"),
    _causal("ext-007", "The outage was blamed on the grid operator.", "the grid operator", "The outage", "blamed on"),
    _causal("ext-008", "The spike in demand caused rolling blackouts.", "The spike in demand", "rolling blackouts", "caused"),
    FixtureSentence(
        "ext-009",
        "Heavy winds damaged the pier and high tides stranded several boats.",
        1,
        (("Heavy winds", "the pier"), ("high tides", "several boats")),
        "damaged",
    ),
    FixtureSentence(
        "ext-010",
        "Sanctions raised fuel prices and the embargo deepened the shortage.",
        1,
        (("Sanctions", "fuel prices"), ("the embargo", "the shortage")),
        "raised",
    ),
)

SINGLE_PAIR_IDS = tuple(f"ext-{i:03d}" for i in range(1, 9))

ALL_SENTENCES: dict[str, FixtureSentence] = {
    s.text: s for s in DB_SENTENCES + DETECTION_SENTENCES + EXTRACTION_SENTENCES
}
assert len(ALL_SENTENCES) == len(DB_SENTENCES) + len(DETECTION_SENTENCES) + len(
    EXTRACTION_SENTENCES
), "fixture sentences must be unique"


def _tagged(sentence: FixtureSentence, pairs: tuple[tuple[str, str], ...]) -> str:
    return render_tagged(sentence.text, [CauseEffectPair(c, e) for c, e in pairs])


def extraction_answer(sentence: FixtureSentence, fewshot: bool) -> str:
    """Scripted extraction output, planted mistakes included.

    ext-006 always extends the cause by one word (containment still passes);
    ext-007 always drops the gold article (containment fails); ext-008 swaps
    the phrases unless fewshot; ext-009 finds only its first pair at
    zeroshot; ext-010 is unparseable at zeroshot.
    """
    sid = sentence.id
    if sid == "ext-006":
        return "<cause>The new policy</cause> triggered <effect>a hiring freeze</effect>."
    if sid == "ext-007":
        return "<effect>The outage</effect> was blamed on <cause>grid operator</cause>."
    if sid == "ext-008" and not fewshot:
        return (
            "<cause>rolling blackouts</cause> followed "
            "<effect>The spike in demand</effect>."
        )
    if sid == "ext-009" and not fewshot:
        return _tagged(sentence, sentence.pairs[:1])
    if sid == "ext-010" and not fewshot:
        return "I cannot determine the cause and effect."
    return _tagged(sentence, sentence.pairs)


def detection_answer(sentence: FixtureSentence, fewshot: bool) -> str:
    errors = FEWSHOT_DETECTION_ERRORS if fewshot else ZEROSHOT_DETECTION_ERRORS
    label = sentence.label
    if sentence.id in errors:
        label = 1 - label
    return str(label)


def connective_answer(sentence: FixtureSentence) -> str:
    return sentence.connective if sentence.connective else "none"


def _input_sentence(user_text: str) -> str:
    head, sep, tail = user_text.rpartition("Sentence: ")
    if not sep:
        raise KeyError(f"no input sentence in prompt: {user_text!r}")
    return tail.split("\n", 1)[0].strip()


class ScriptedBackend:
    """In-memory backend for tests and fixtures: `script` maps a
    CompletionRequest to response text. `calls` counts the asks."""

    def __init__(self, script: Callable[[CompletionRequest], str]):
        self.script = script
        self.calls = 0

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        self.calls += 1
        return CompletionResponse(text=self.script(req), provider_meta={"scripted": True})


class FixtureResponder:
    """Callable for ScriptedBackend: routes a request to the right table.

    The prompt kind is recognized from the system text, the input sentence
    is the text after the final "Sentence: " marker, and fewshot prompts are
    recognized by the example block lead-in in the user text.
    """

    def __init__(self) -> None:
        self.calls: list[CompletionRequest] = []

    def __call__(self, request: CompletionRequest) -> str:
        self.calls.append(request)
        text = _input_sentence(request.user_text)
        sentence = ALL_SENTENCES.get(text)
        if sentence is None:
            raise KeyError(f"no fixture entry for sentence: {text!r}")
        fewshot = "Below are" in request.user_text
        system = request.system_text
        if "single character" in system:
            return detection_answer(sentence, fewshot)
        if "Output only the tagged sentence" in system:
            return extraction_answer(sentence, fewshot)
        if "Output only the connectives" in system:
            return connective_answer(sentence)
        raise KeyError(f"unrecognized prompt kind: {system[:80]!r}")


def canonical_record(sentence: FixtureSentence, source: str) -> dict:
    return {
        "id": sentence.id,
        "text": sentence.text,
        "label": sentence.label,
        "pairs": [{"cause": c, "effect": e} for c, e in sentence.pairs],
        "source": source,
    }


def write_dataset(path: Path, sentences: tuple[FixtureSentence, ...], source: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            handle.write(
                json.dumps(canonical_record(sentence, source), ensure_ascii=False, sort_keys=True)
                + "\n"
            )


def single_pair_sentences() -> tuple[FixtureSentence, ...]:
    return tuple(s for s in EXTRACTION_SENTENCES if s.id in SINGLE_PAIR_IDS)
