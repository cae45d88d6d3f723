"""Tests for tag parsing, dataset loading, and corpus statistics."""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys

import pytest

from causal_rag import cli
from causal_rag.corpus import (
    CauseEffectPair,
    DatasetSplit,
    LabeledInstance,
    TaggedSentence,
    Triplet,
    dataset_stats,
    load_dataset,
    make_sentence_id,
    normalize_ws,
    parse_tagged_sentence,
    render_tagged,
    strip_tags,
    to_canonical,
    write_canonical,
)
from causal_rag.errors import (
    EmptyDatasetError,
    EmptyPhraseError,
    MalformedRecordError,
    NestedTagsError,
    TagPairingError,
    UnbalancedTagsError,
    UnknownFormatError,
)
from causal_rag.repository import make_record


def test_parse_single_pair() -> None:
    line = (
        "Highly viscous <cause> lavas </cause> lead to a violent "
        "<effect> eruption </effect>."
    )
    sentence = parse_tagged_sentence(line, "demo", 1)
    assert sentence.pairs == (CauseEffectPair(cause="lavas", effect="eruption"),)
    assert sentence.raw_text == "Highly viscous lavas lead to a violent eruption ."
    assert sentence.id == "demo-000001"


def test_parse_effect_before_cause() -> None:
    line = "<effect>The fire</effect> started because of a <cause>short circuit</cause>."
    sentence = parse_tagged_sentence(line, "demo", 2)
    assert sentence.pairs == (CauseEffectPair("short circuit", "The fire"),)


def test_parse_tag_free_passthrough() -> None:
    sentence = parse_tagged_sentence("no tags here.", "demo", 3)
    assert sentence.pairs == ()
    assert sentence.raw_text == "no tags here."
    assert render_tagged(sentence.raw_text, sentence.pairs) == "no tags here."


def test_parse_unbalanced_open() -> None:
    with pytest.raises(UnbalancedTagsError):
        parse_tagged_sentence("a <cause> b </cause> c <effect>", "demo", 1)


def test_parse_unbalanced_close() -> None:
    with pytest.raises(UnbalancedTagsError):
        parse_tagged_sentence("a b </cause> c", "demo", 1)


def test_parse_nested_tags() -> None:
    with pytest.raises(NestedTagsError):
        parse_tagged_sentence("<cause> a <effect> b </effect> </cause>", "demo", 1)


def test_parse_empty_phrase() -> None:
    with pytest.raises(EmptyPhraseError):
        parse_tagged_sentence("x <cause>   </cause> y <effect> z </effect>", "demo", 1)


def test_parse_two_causes_rejected() -> None:
    line = "<cause>a</cause> and <cause>b</cause> made <effect>c</effect>"
    with pytest.raises(TagPairingError):
        parse_tagged_sentence(line, "demo", 1)


def test_strip_tags_direct_removal() -> None:
    assert (
        strip_tags("<cause> lavas </cause> lead to <effect> eruption </effect>")
        == "lavas lead to eruption"
    )


def test_strip_tags_identity() -> None:
    assert strip_tags("plain") == "plain"


def test_strip_tags_whitespace_collapse() -> None:
    assert strip_tags("a  <cause>b</cause>  c") == "a b c"


WS_RUN = re.compile(r"\s+")
EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))


def regex_normalize(text: str) -> str:
    """The `\\s` regex form that `normalize_ws` must equal."""
    return WS_RUN.sub(" ", text).strip()


def test_normalize_ws_equals_the_regex_form_for_every_code_point() -> None:
    # each code point at the start, in the middle, doubled and at the end
    for block in range(0, len(EVERY_CODE_POINT), 1 << 16):
        texts = [f"{c}a{c}b{c}{c}d{c}" for c in EVERY_CODE_POINT[block:block + (1 << 16)]]
        if list(map(normalize_ws, texts)) != list(map(regex_normalize, texts)):
            bad = [t for t in texts if normalize_ws(t) != regex_normalize(t)]
            pytest.fail(f"differs on {[hex(ord(t[0])) for t in bad[:5]]}")


def test_normalize_ws_equals_the_regex_form_on_random_mixes() -> None:
    spaces = re.findall(r"\s", EVERY_CODE_POINT)
    assert len(spaces) == 29
    zero_width = ["\u200b", "\u200c", "\u200d", "\u2060", "\ufeff", "\u180e"]
    alphabet = spaces + zero_width + list("ab-é")
    rng = random.Random(2024)
    for _ in range(20_000):
        text = "".join(rng.choices(alphabet, k=rng.randrange(12)))
        assert normalize_ws(text) == regex_normalize(text), ascii(text)


def test_parse_then_strip_matches_direct_strip() -> None:
    lines = [
        "Highly viscous <cause> lavas </cause> lead to a violent <effect> eruption </effect>.",
        "no tags here.",
        "a\t b <cause>c</cause>   d <effect>e</effect>",
    ]
    for line in lines:
        sentence = parse_tagged_sentence(line, "demo", 1)
        assert strip_tags(render_tagged(sentence.raw_text, sentence.pairs)) == strip_tags(line)
        assert sentence.raw_text == strip_tags(line)


def test_pairs_are_substrings_of_raw_text() -> None:
    line = "The <cause>storm   surge</cause> flooded the <effect>coastal town</effect>."
    sentence = parse_tagged_sentence(line, "demo", 1)
    for pair in sentence.pairs:
        assert pair.cause in sentence.raw_text
        assert pair.effect in sentence.raw_text


def test_render_tagged_round_trip() -> None:
    text = "The storm surge flooded the coastal town."
    pairs = [CauseEffectPair("storm surge", "coastal town")]
    tagged = render_tagged(text, pairs)
    assert tagged == "The <cause>storm surge</cause> flooded the <effect>coastal town</effect>."
    reparsed = parse_tagged_sentence(tagged, "demo", 1)
    assert reparsed.pairs == tuple(pairs)
    assert strip_tags(tagged) == text


def test_render_tagged_multi_pair_shared_effect() -> None:
    text = "Heat and wind drove the smoke."
    pairs = [CauseEffectPair("Heat", "smoke"), CauseEffectPair("wind", "smoke")]
    tagged = render_tagged(text, pairs)
    # shared effect phrase is tagged once; both causes tagged
    assert tagged.count("<effect>") == 1
    assert "<cause>Heat</cause>" in tagged
    assert "<cause>wind</cause>" in tagged
    assert strip_tags(tagged) == text


def test_render_tagged_repeated_phrase_first_occurrence() -> None:
    text = "rain made rain gauges overflow"
    tagged = render_tagged(text, [CauseEffectPair("rain", "overflow")])
    assert tagged.startswith("<cause>rain</cause>")
    assert tagged.count("<cause>") == 1


def test_render_round_trip_property_seeded() -> None:
    rng = random.Random(77)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    for _ in range(50):
        tokens = rng.sample(words, 6)
        text = " ".join(tokens)
        cause = tokens[rng.randrange(3)]
        effect = tokens[3 + rng.randrange(3)]
        tagged = render_tagged(text, [CauseEffectPair(cause, effect)])
        sentence = parse_tagged_sentence(tagged, "prop", 1)
        assert sentence.pairs == (CauseEffectPair(cause, effect),)
        assert sentence.raw_text == text


def test_make_sentence_id_padding() -> None:
    assert make_sentence_id("li", 7) == "li-000007"
    assert make_sentence_id("semeval", 1234) == "semeval-001234"


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for obj in records:
            handle.write(json.dumps(obj) + "\n")


def test_load_jsonl_counts(tmp_path) -> None:
    path = tmp_path / "mini.jsonl"
    _write_jsonl(
        path,
        [
            {
                "text": "smoking causes cancer",
                "label": 1,
                "pairs": [{"cause": "smoking", "effect": "cancer"}],
                "source": "mini",
            },
            {"text": "the sky is blue", "label": 0, "pairs": [], "source": "mini"},
        ],
    )
    split = load_dataset(path, "jsonl")
    assert split.counts == (2, 1, 1)
    assert split.instances[0].sentence.id == "mini-000001"
    assert make_record(split.instances[0].sentence, ["causes"]).tagged_text == (
        "<cause>smoking</cause> causes <effect>cancer</effect>"
    )


def test_load_jsonl_multi_pair_histogram(tmp_path) -> None:
    path = tmp_path / "multi.jsonl"
    _write_jsonl(
        path,
        [
            {
                "text": "war displaced people and ruined crops",
                "label": 1,
                "pairs": [
                    {"cause": "war", "effect": "displaced people"},
                    {"cause": "war", "effect": "ruined crops"},
                ],
                "source": "multi",
            },
        ],
    )
    split = load_dataset(path, "jsonl")
    stats = dataset_stats(split)
    assert stats.pairs_histogram == {2: 1}
    assert stats.total_pairs == 2


def test_load_jsonl_rejects_bad_label(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"text": "x", "label": 2, "pairs": [], "source": "b"}])
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert excinfo.value.line_number == 1


def test_load_jsonl_rejects_causal_without_pairs(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"text": "x", "label": 1, "pairs": [], "source": "b"}])
    with pytest.raises(MalformedRecordError):
        load_dataset(path, "jsonl")


def test_load_jsonl_rejects_phrase_not_in_text(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    _write_jsonl(
        path,
        [
            {
                "text": "smoking causes cancer",
                "label": 1,
                "pairs": [{"cause": "drinking", "effect": "cancer"}],
                "source": "b",
            }
        ],
    )
    with pytest.raises(MalformedRecordError):
        load_dataset(path, "jsonl")


def test_load_jsonl_rejects_duplicate_ids(tmp_path) -> None:
    path = tmp_path / "dup.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a-1", "text": "x", "label": 0, "pairs": [], "source": "d"},
            {"id": "a-1", "text": "y", "label": 0, "pairs": [], "source": "d"},
        ],
    )
    with pytest.raises(MalformedRecordError):
        load_dataset(path, "jsonl")


def test_a_duplicate_id_names_the_line_of_its_first_repeat(tmp_path) -> None:
    path = tmp_path / "dup.jsonl"
    rows = [{"id": sid, "text": f"sentence {n}", "label": 0}
            for n, sid in enumerate(["a-1", "b-2", "c-3", "b-2", "a-1", "b-2"])]
    _write_jsonl(path, rows[:3])
    path.write_text(path.read_text() + "\n", encoding="utf-8")  # a blank line 4
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(json.dumps(row) + "\n" for row in rows[3:])
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert (excinfo.value.path, excinfo.value.line_number) == (path, 5)
    assert str(excinfo.value) == (
        f"{path}: line 5: duplicate instance ids: ['a-1', 'b-2'] (this line repeats 'b-2' of line 2)")


def test_load_jsonl_invalid_json_reports_line(tmp_path) -> None:
    path = tmp_path / "broken.jsonl"
    path.write_text('{"text": "ok", "label": 0, "pairs": [], "source": "s"}\n{oops\n')
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert excinfo.value.line_number == 2


def test_a_torn_final_dataset_line_is_refused(tmp_path) -> None:
    path = tmp_path / "torn.jsonl"
    path.write_text('{"text": "fine", "label": 0}\n\n{"text": "cut sh', encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert excinfo.value.line_number == 3
    assert str(excinfo.value).startswith(f"{path}: line 3: invalid JSON")


def test_a_non_object_dataset_line_is_refused_with_the_shared_wording(tmp_path) -> None:
    path = tmp_path / "list.jsonl"
    path.write_text('{"text": "fine", "label": 0}\n["text", 0]\n', encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert str(excinfo.value) == f"{path}: line 2: expected a JSON object"


def test_a_default_id_counts_blank_lines(tmp_path) -> None:
    path = tmp_path / "gaps.jsonl"
    path.write_text('\n{"text": "a", "label": 0}\n\n\n{"text": "b", "label": 0}', encoding="utf-8")
    ids = [inst.sentence.id for inst in load_dataset(path, "jsonl").instances]
    assert ids == ["gaps-000002", "gaps-000005"]


def test_load_empty_dataset(tmp_path) -> None:
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path, "jsonl")


def test_load_unknown_format(tmp_path) -> None:
    path = tmp_path / "x.jsonl"
    path.write_text("{}\n")
    with pytest.raises(UnknownFormatError):
        load_dataset(path, "tsv")


def test_load_li_format(tmp_path) -> None:
    path = tmp_path / "li.txt"
    path.write_text(
        "Highly viscous <cause> lavas </cause> lead to a violent <effect> eruption </effect>.\n"
        "The market stayed flat today.\n"
    )
    split = load_dataset(path, "li")
    assert split.counts == (2, 1, 1)
    assert split.instances[0].label == 1
    assert split.instances[0].sentence.source == "li"
    assert split.instances[1].label == 0


def test_load_li_malformed_line_number(tmp_path) -> None:
    path = tmp_path / "li.txt"
    path.write_text("fine line.\nbad <cause> open\n")
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "li")
    assert excinfo.value.line_number == 2


def test_load_semeval_format(tmp_path) -> None:
    path = tmp_path / "sem.txt"
    path.write_text(
        '1\t"The <e1>burst</e1> has been caused by water hammer <e2>pressure</e2>."\n'
        "Cause-Effect(e2,e1)\n"
        "Comment:\n"
        "\n"
        '2\t"The <e1>author</e1> of a keygen uses a <e2>disassembler</e2>."\n'
        "Instrument-Agency(e2,e1)\n"
        "Comment:\n"
        "\n"
        '3\t"<e1>Smoking</e1> causes <e2>cancer</e2>."\n'
        "Cause-Effect(e1,e2)\n"
        "Comment:\n"
    )
    split = load_dataset(path, "semeval")
    assert split.counts == (3, 2, 1)
    first = split.instances[0]
    assert first.sentence.pairs == (CauseEffectPair(cause="pressure", effect="burst"),)
    assert first.sentence.raw_text == "The burst has been caused by water hammer pressure."
    third = split.instances[2]
    assert third.sentence.pairs == (CauseEffectPair(cause="Smoking", effect="cancer"),)


def test_load_ade_format(tmp_path) -> None:
    path = tmp_path / "ade.rel"
    path.write_text(
        "10030778|Intravenous azithromycin induced ototoxicity.|ototoxicity|43|54|azithromycin|12|24\n"
    )
    split = load_dataset(path, "ade")
    assert split.counts == (1, 1, 0)
    inst = split.instances[0]
    assert inst.sentence.pairs == (
        CauseEffectPair(cause="azithromycin", effect="ototoxicity"),
    )


def test_dataset_errors_name_the_file_and_its_line(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "fine", "label": 0}\n\n{"text": "x", "label": 7}\n')
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert str(excinfo.value) == f"{path}: line 3: 'label' must be 0 or 1, got 7"
    path.write_text('{"text": "fine", "label": 0}\n{"label": 1}\n')
    with pytest.raises(MalformedRecordError, match=r"bad.jsonl: line 2: missing field 'text'"):
        load_dataset(path, "jsonl")
    path.write_bytes(b'{"text": "fine", "label": 0}\n{"text": "caf\xe9", "label": 0}\n')
    with pytest.raises(MalformedRecordError, match=r"bad.jsonl: line 2: invalid JSON \('utf-8'"):
        load_dataset(path, "jsonl")
    _write_jsonl(path, [{"id": "a-1", "text": "x", "label": 0}] * 2)
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert str(excinfo.value) == (
        f"{path}: line 2: duplicate instance ids: ['a-1'] (this line repeats 'a-1' of line 1)")


def test_a_dataset_source_that_is_not_a_string_is_a_data_error(tmp_path, capsys) -> None:
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"text": "fine", "label": 0, "source": "s1"},
                        {"text": "x", "label": 0, "source": 5}])
    reason = f"{path}: line 2: 'source' must be a string, got 5"
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert str(excinfo.value) == reason
    argv = ["eval", "--predictions", str(tmp_path / "p.jsonl"), "--dataset", str(path)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert reason in capsys.readouterr().err


_CAUSAL = {"text": "smoking causes cancer", "label": 1,
           "pairs": [{"cause": "smoking", "effect": "cancer"}]}


@pytest.mark.parametrize("change, reason", [
    ({"label": True}, "'label' must be 0 or 1, got True"),
    ({"label": 0.0, "pairs": []}, "'label' must be 0 or 1, got 0.0"),
    ({"label": 1.0}, "'label' must be 0 or 1, got 1.0"),
    ({"pairs": {"cause": "smoking", "effect": "cancer"}},
     "'pairs' must be a list of objects, got {'cause': 'smoking', 'effect': 'cancer'}"),
    ({"pairs": "smoking"}, "'pairs' must be a list of objects, got 'smoking'"),
    ({"label": 0, "pairs": {}}, "'pairs' must be a list of objects, got {}"),
    ({"label": 0, "pairs": False}, "'pairs' must be a list of objects, got False"),
    ({"pairs": [["smoking", "cancer"]]}, "malformed pair entry ['smoking', 'cancer']"),
    ({"pairs": [{"cause": "smoking"}]}, "malformed pair entry {'cause': 'smoking'}"),
    ({"pairs": [{"cause": 5, "effect": "cancer"}]}, "pair 'cause' must be a string, got 5"),
    ({"pairs": [{"cause": "smoking", "effect": ["cancer"]}]},
     "pair 'effect' must be a string, got ['cancer']"),
], ids=repr)
def test_a_dataset_label_or_pair_of_the_wrong_type_is_a_data_error(tmp_path, capsys, change,
                                                                   reason) -> None:
    """A label is a JSON integer, not true or 0.0, and pairs are a list of
    objects whose phrases are strings; `eval` exits 2 naming the line."""
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [_CAUSAL, dict(_CAUSAL, **change)])
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert str(excinfo.value) == f"{path}: line 2: {reason}"
    argv = ["eval", "--predictions", str(tmp_path / "p.jsonl"), "--dataset", str(path)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"{path}: line 2: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("bad_id", [["a", 1], 0, 7, "", None], ids=repr)
def test_a_dataset_id_that_is_not_a_non_empty_string_is_a_data_error(tmp_path, bad_id) -> None:
    path = tmp_path / "bad.jsonl"
    fine = {"text": "fine", "label": 0}
    _write_jsonl(path, [fine])
    # an absent id is the default: the source and the line number
    assert load_dataset(path, "jsonl").instances[0].sentence.id == "bad-000001"
    _write_jsonl(path, [fine, {"id": bad_id, "text": "x", "label": 0}])
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "jsonl")
    assert str(excinfo.value) == (
        f"{path}: line 2: 'id' must be a non-empty string, got {bad_id!r}"
    )


SEMEVAL_BLOCKS = (
    '1\t"The <e1>burst</e1> has been caused by water hammer <e2>pressure</e2>."\n'
    "Cause-Effect(e2,e1)\n"
    "Comment:\n"
    "\n"
    '2\t"The <e1>author</e1> of a keygen uses a <e2>disassembler</e2>."\n'
    "Instrument-Agency(e2,e1)\n"
    "Comment:\n"
    "\n"
)


def test_semeval_error_names_the_file_line_and_ids_stay_ordinal(tmp_path) -> None:
    path = tmp_path / "sem.txt"
    path.write_text(SEMEVAL_BLOCKS + '3\t"<e1>rain</e1> brings more <e2>rain</e2>."\n'
                    "Cause-Effect(e1,e2)\n")
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(path, "semeval")
    assert excinfo.value.line_number == 9
    assert str(excinfo.value) == f"{path}: line 9: cause and effect must be distinct"
    path.write_text(SEMEVAL_BLOCKS)
    ids = [inst.sentence.id for inst in load_dataset(path, "semeval").instances]
    assert ids == ["semeval-000001", "semeval-000002"]


def test_ade_and_li_errors_name_the_file_line_and_ids_stay_ordinal(tmp_path) -> None:
    ade = tmp_path / "ade.rel"
    good = "1|Intravenous azithromycin induced ototoxicity.|ototoxicity|0|0|azithromycin|0|0\n"
    ade.write_text(good + "\n" + good.replace("azithromycin|", "cisplatin|"))
    with pytest.raises(MalformedRecordError) as excinfo:
        load_dataset(ade, "ade")
    assert str(excinfo.value) == (
        f"{ade}: line 3: phrase 'cisplatin' does not occur in the sentence text")
    ade.write_text(good + "\n" + good)
    assert [i.sentence.id for i in load_dataset(ade, "ade").instances] == [
        "ade-000001", "ade-000002"]
    li = tmp_path / "li.txt"
    li.write_text("The market stayed flat.\n\nbad <cause> open\n")
    with pytest.raises(MalformedRecordError, match=r"li.txt: line 3: "):
        load_dataset(li, "li")
    li.write_text("The market stayed flat.\n\nPrices fell.\n")
    assert [i.sentence.id for i in load_dataset(li, "li").instances] == [
        "li-000001", "li-000002"]


def test_load_ade_malformed(tmp_path) -> None:
    path = tmp_path / "ade.rel"
    path.write_text("too|few|fields\n")
    with pytest.raises(MalformedRecordError):
        load_dataset(path, "ade")


def test_write_canonical_round_trip(tmp_path) -> None:
    src = tmp_path / "src.jsonl"
    _write_jsonl(
        src,
        [
            {
                "text": "floods follow heavy rain",
                "label": 1,
                "pairs": [{"cause": "heavy rain", "effect": "floods"}],
                "source": "rt",
            },
            {"text": "birds sing", "label": 0, "pairs": [], "source": "rt"},
        ],
    )
    split = load_dataset(src, "jsonl")
    out = tmp_path / "out.jsonl"
    write_canonical(split, out)
    reloaded = load_dataset(out, "jsonl")
    assert to_canonical(reloaded) == to_canonical(split)
    # second write is byte-identical
    out2 = tmp_path / "out2.jsonl"
    write_canonical(reloaded, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_dataset_stats_counts_and_histogram() -> None:
    def inst(text: str, pairs: tuple, label: int, n: int) -> LabeledInstance:
        sentence = TaggedSentence(
            id=make_sentence_id("s", n),
            raw_text=text,
            pairs=pairs,
            source="s",
        )
        return LabeledInstance(sentence=sentence, label=label)

    p = CauseEffectPair("a b c", "d e")
    q = CauseEffectPair("a b c", "f g")
    split = DatasetSplit(
        name="s",
        instances=(
            inst("a b c made d e", (p,), 1, 1),
            inst("a b c made d e and f g", (p, q), 1, 2),
            inst("plain one", (), 0, 3),
            inst("plain two", (), 0, 4),
            inst("plain three", (), 0, 5),
        ),
    )
    stats = dataset_stats(split)
    assert (stats.total, stats.causal, stats.non_causal) == (5, 2, 3)
    assert stats.pairs_histogram == {1: 1, 2: 1}
    assert stats.total_pairs == 3


def test_dataset_stats_all_non_causal() -> None:
    instances = tuple(
        LabeledInstance(
            sentence=TaggedSentence(
                id=make_sentence_id("n", i),
                raw_text=f"plain {i}",
                pairs=(),
                source="n",
            ),
            label=0,
        )
        for i in range(1, 4)
    )
    stats = dataset_stats(DatasetSplit(name="n", instances=instances))
    assert (stats.total, stats.causal, stats.non_causal) == (3, 0, 3)
    assert stats.pairs_histogram == {}
    assert stats.total_pairs == 0


def test_triplet_count_equals_pair_sum(tmp_path) -> None:
    path = tmp_path / "tp.jsonl"
    _write_jsonl(
        path,
        [
            {
                "text": "war displaced people and ruined crops",
                "label": 1,
                "pairs": [
                    {"cause": "war", "effect": "displaced people"},
                    {"cause": "war", "effect": "ruined crops"},
                ],
                "source": "tp",
            },
            {
                "text": "smoking causes cancer",
                "label": 1,
                "pairs": [{"cause": "smoking", "effect": "cancer"}],
                "source": "tp",
            },
        ],
    )
    split = load_dataset(path, "jsonl")
    stats = dataset_stats(split)
    by_hand = sum(len(i.sentence.pairs) for i in split.instances)
    assert stats.total_pairs == by_hand == 3


def test_value_dataclasses_are_slotted_and_behave_as_values() -> None:
    pair = CauseEffectPair("a surge", "The fuse")
    sentence = TaggedSentence("t-1", "The fuse blew because of a surge.", (pair,), "tiny")
    values = [
        pair,
        sentence,
        Triplet("t-1", "a surge", "The fuse"),
        LabeledInstance(sentence, 1),
        make_record(sentence, ("because of",)),
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        twin = dataclasses.replace(value)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        field = dataclasses.fields(value)[0].name
        changed = dataclasses.replace(value, **{field: "other"})
        assert changed != value and getattr(changed, field) == "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "other")
