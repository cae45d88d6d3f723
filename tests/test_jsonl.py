"""The shared JSONL reader and appender: torn tails and damaged lines; the
shared single-flight memo; one copy of a value that the lines of a store
repeat."""

from __future__ import annotations

import json
import logging
import os
import threading

import pytest

from causal_rag import jsonl
from causal_rag.corpus import load_dataset
from causal_rag.embedding import EmbeddingCache
from causal_rag.errors import MalformedRecordError
from causal_rag.gateway import Transcript
from causal_rag.jsonl import LineAppender, Memo, read_jsonl
from causal_rag.repository import load_repository

ROWS = [{"id": f"r{i}", "text": f"row number {i} é"} for i in range(4)]


def write_rows(path, rows=ROWS) -> bytes:
    data = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode()
    path.write_bytes(data)
    return data


def append(path, row) -> None:
    LineAppender(path).append(json.dumps(row, ensure_ascii=False))


def test_read_skips_blank_lines_and_keeps_order(tmp_path):
    path = tmp_path / "a.jsonl"
    data = write_rows(path)
    path.write_bytes(b"\n" + data + b"   \n")
    assert list(read_jsonl(path)) == ROWS


@pytest.mark.parametrize("cut", [1, 5, 20])
def test_torn_final_line_is_dropped_with_a_warning(tmp_path, caplog, cut):
    path = tmp_path / "a.jsonl"
    data = write_rows(path)
    path.write_bytes(data[:-cut])
    with caplog.at_level(logging.WARNING, logger="causal_rag.jsonl"):
        rows = list(read_jsonl(path))
    assert rows == ROWS[: len(ROWS) - (cut > 1)]
    if cut > 1:
        assert "torn final line 4" in caplog.text and str(path) in caplog.text


def test_torn_multibyte_character_is_dropped(tmp_path):
    path = tmp_path / "a.jsonl"
    data = write_rows(path)
    path.write_bytes(data[: data.rindex("é".encode()) + 1])  # half of the last é
    assert list(read_jsonl(path)) == ROWS[:-1]


def test_append_cuts_a_torn_final_line_first(tmp_path, caplog):
    path = tmp_path / "a.jsonl"
    data = write_rows(path)
    path.write_bytes(data[:-20])
    append(path, {"id": "new"})
    assert path.read_bytes() == write_rows(tmp_path / "b.jsonl", ROWS[:-1] + [{"id": "new"}])
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="causal_rag.jsonl"):
        assert list(read_jsonl(path)) == ROWS[:-1] + [{"id": "new"}]
    assert caplog.text == ""


def test_append_keeps_a_complete_final_line_without_newline(tmp_path):
    path = tmp_path / "a.jsonl"
    data = write_rows(path)
    path.write_bytes(data[:-1])
    assert list(read_jsonl(path)) == ROWS
    append(path, {"id": "new"})
    assert list(read_jsonl(path)) == ROWS + [{"id": "new"}]


def test_append_cuts_a_long_torn_tail_and_a_torn_only_line(tmp_path):
    path = tmp_path / "a.jsonl"
    data = write_rows(path)
    path.write_bytes(data + b'{"id": "torn", "text": "' + b"a long tail " * 10000)
    append(path, {"id": "new"})
    assert list(read_jsonl(path)) == ROWS + [{"id": "new"}]
    # a file whose only line is torn is cut to nothing, even a single byte
    for torn in (b'{"id": "torn", "te', b"{"):
        only = tmp_path / "only.jsonl"
        only.write_bytes(torn)
        append(only, {"id": "new"})
        assert only.read_bytes() == b'{"id": "new"}\n'


def test_append_creates_the_file_and_its_directory(tmp_path):
    path = tmp_path / "sub" / "a.jsonl"
    append(path, {"id": "new"})
    assert list(read_jsonl(path)) == [{"id": "new"}]


def test_appender_finishes_a_short_write_on_its_one_descriptor(tmp_path, monkeypatch):
    path = tmp_path / "a.jsonl"
    real_write = os.write
    sizes: list[int] = []

    def short_write(fd, data):  # the OS may take fewer bytes than asked
        sizes.append(real_write(fd, data[:3]))
        return sizes[-1]

    appender = LineAppender(path)
    appender.append(json.dumps(ROWS[0], ensure_ascii=False))
    monkeypatch.setattr(jsonl.os, "write", short_write)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    for row in ROWS[1:]:
        appender.append(json.dumps(row, ensure_ascii=False))
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds
    assert path.read_bytes() == write_rows(tmp_path / "b.jsonl")
    assert len(sizes) > len(ROWS) and set(sizes) <= {1, 2, 3}


@pytest.mark.parametrize("line, expected", [
    (b'  {"a": 1}\t \n', {"a": 1}),  # JSON whitespace on both sides
    (b'\t{"a": "\xc3\xa9"}\r\n', {"a": "\u00e9"}),
    (b'\xef\xbb\xbf{"a": 1}\n', "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    (b'{"a": 1} {"b": 2}\n', "invalid JSON (Extra data)"),
    (b'{"a": 1}\x0c\n', "invalid JSON (Extra data)"),  # a form feed is not JSON whitespace
    (b"[1, 2]\n", "expected a JSON object"),
    (b'{"a": "caf\xe9"}\n', "invalid JSON ('utf-8' codec can't decode byte 0xe9 in position"
                              " 10: invalid continuation byte)"),
    (b'{"a": 1', "invalid JSON (Expecting ',' delimiter)"),  # a torn tail
])
def test_a_line_reads_as_json_loads_reads_it(tmp_path, caplog, line, expected):
    path = tmp_path / "a.jsonl"
    torn = not line.endswith(b"\n")
    path.write_bytes(b'{"id": 0}\n' + line + (b"" if torn else b'{"id": 2}\n'))
    if isinstance(expected, dict):
        assert expected == json.loads(line.decode("utf-8"))
        for drop in (True, False):
            assert list(jsonl.read_json_objects(path, drop_torn_tail=drop)) == [
                (1, {"id": 0}), (2, expected), (3, {"id": 2})]
        return
    for drop in (False,) if torn else (True, False):
        with pytest.raises(MalformedRecordError) as excinfo:
            list(jsonl.read_json_objects(path, drop_torn_tail=drop))
        assert str(excinfo.value) == f"{path}: line 2: {expected}"
    if torn:  # a store drops it, naming the reason
        with caplog.at_level(logging.WARNING, logger="causal_rag.jsonl"):
            assert list(jsonl.read_json_objects(path)) == [(1, {"id": 0})]
        assert f"dropped torn final line 2 ({expected.removeprefix('invalid JSON (')}" in caplog.text


def test_damaged_middle_line_names_the_file_and_the_line(tmp_path):
    path = tmp_path / "a.jsonl"
    lines = write_rows(path).decode().splitlines(keepends=True)
    lines[1] = lines[1][:-10] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        list(read_jsonl(path))
    assert excinfo.value.line_number == 2
    assert str(excinfo.value).startswith(f"{path}: line 2: invalid JSON")


def test_non_objects_and_missing_fields_are_malformed(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"id": "r0"}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(MalformedRecordError, match="line 2: expected a JSON object"):
        list(read_jsonl(path))
    path.write_text('{"id": "r0", "text": "x"}\n{"id": "r1"}\n', encoding="utf-8")
    with pytest.raises(MalformedRecordError, match="line 2: missing field 'text'"):
        list(read_jsonl(path, lambda obj: (obj["id"], obj["text"])))


def test_a_line_that_parse_refuses_names_the_file_the_line_and_the_reason(tmp_path):
    path = tmp_path / "a.jsonl"
    write_rows(path)

    def parse(obj):
        if obj["id"] == "r2":
            raise refusal
        return obj["id"]

    for refusal, reason in ((KeyError("text"), "missing field 'text'"),
                            (TypeError("text must be a string"), "text must be a string"),
                            (ValueError("text is too long"), "text is too long")):
        with pytest.raises(MalformedRecordError) as excinfo:
            list(read_jsonl(path, parse))
        assert str(excinfo.value) == f"{path}: line 3: {reason}"
        assert (excinfo.value.path, excinfo.value.line_number) == (path, 3)
    refusal = RuntimeError("a fault of the parser, not of the line")
    with pytest.raises(RuntimeError):
        list(read_jsonl(path, parse))
    assert list(read_jsonl(path, lambda obj: obj["id"])) == ["r0", "r1", "r2", "r3"]


def test_appender_touches_no_file_before_its_first_append(tmp_path):
    path = tmp_path / "sub" / "a.jsonl"
    appender = LineAppender(path)
    assert not path.parent.exists()
    appender.append("{}")
    assert path.read_bytes() == b"{}\n"


def descriptors_on(path):
    """This process's descriptors open on `path`, or None where
    /proc/self/fd does not list them."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") == str(path):
                found.add(fd)
        except OSError:  # the descriptor that lists the directory, now closed
            pass
    return found


def test_appender_holds_one_descriptor_from_its_first_line_until_released(
        tmp_path, monkeypatch):
    path = tmp_path / "sub" / "a.jsonl"
    real_open, real_check = os.open, jsonl._end_with_a_complete_line
    opened: list[object] = []
    checks: list[object] = []

    def counted_open(target, *args):
        opened.append(target)
        return real_open(target, *args)

    def counted_check(fd, target):
        checks.append(target)
        return real_check(fd, target)

    monkeypatch.setattr(jsonl.os, "open", counted_open)
    monkeypatch.setattr(jsonl, "_end_with_a_complete_line", counted_check)
    appender = LineAppender(path)
    appender.extend(iter(()))
    assert opened == [] and not path.parent.exists()
    # a torn tail left by a killed writer is cut once, by the first line
    path.parent.mkdir()
    path.write_bytes(b'{"id": "to')
    for row in ROWS[:2]:
        appender.append(json.dumps(row, ensure_ascii=False))
    appender.extend(json.dumps(row, ensure_ascii=False) for row in ROWS[2:])
    assert opened == [path] and checks == [path]
    assert path.read_bytes() == write_rows(tmp_path / "b.jsonl")
    if descriptors_on(path) is not None:
        assert len(descriptors_on(path)) == 1
        del appender
        assert descriptors_on(path) == set()


def test_two_appenders_on_one_path_keep_every_line_whole(tmp_path):
    path = tmp_path / "a.jsonl"
    first, second = LineAppender(path), LineAppender(path)
    errors: list[BaseException] = []

    def write(appender, name):
        try:
            for i in range(300):
                appender.append(json.dumps({"id": f"{name}{i}", "text": "x" * (i % 97)}))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=pair)
               for pair in ((first, "a"), (second, "b"))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    ids = [row["id"] for row in read_jsonl(path)]
    assert sorted(ids) == sorted(f"{name}{i}" for name in "ab" for i in range(300))
    assert [i for i in ids if i[0] == "a"] == [f"a{i}" for i in range(300)]


def test_extend_keeps_the_lines_taken_before_a_failure(tmp_path):
    path = tmp_path / "a.jsonl"

    def lines():
        yield json.dumps(ROWS[0], ensure_ascii=False)
        raise RuntimeError("the run broke off")

    with pytest.raises(RuntimeError):
        LineAppender(path).extend(lines())
    assert list(read_jsonl(path)) == ROWS[:1]


def test_memo_computes_a_key_once_for_concurrent_callers():
    memo: Memo[str, int] = Memo()
    release = threading.Event()
    calls: list[str] = []

    def compute() -> int:
        calls.append("k")
        release.wait(timeout=10)
        return 7

    results: list[int] = []
    threads = [threading.Thread(target=lambda: results.append(memo.fill("k", compute)))
               for _ in range(6)]
    for thread in threads:
        thread.start()
    release.set()
    for thread in threads:
        thread.join(timeout=10)
    assert results == [7] * 6
    assert calls == ["k"]
    assert (len(memo), memo.get("k"), memo.get("other")) == (1, 7, None)


def test_memo_retries_after_a_failed_computation():
    memo: Memo[str, str] = Memo()

    def fail() -> str:
        raise RuntimeError("down")

    with pytest.raises(RuntimeError):
        memo.fill("k", fail)
    assert memo.get("k") is None
    assert memo.fill("k", lambda: "up") == "up"
    assert memo.fill("k", fail) == "up"


def test_memo_hit_takes_no_lock():
    memo: Memo[str, str] = Memo()
    memo.fill("k", lambda: "v")
    seen: list[str] = []
    with memo._lock:  # a hit that needed the lock would wait here
        reader = threading.Thread(target=lambda: seen.append(memo.fill("k", str)))
        reader.start()
        reader.join(timeout=5)
        assert seen == ["v"]


def write_objects(path, *objects) -> None:
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objects), encoding="utf-8")


def test_a_value_the_lines_of_a_file_repeat_is_loaded_once(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    write_objects(dataset, *({"text": f"line {i}", "label": 0, "source": "corpus-a"}
                             for i in range(2)), {"text": "line 2", "label": 0})
    first, second, default = (i.sentence for i in load_dataset(dataset).instances)
    assert (first.source, second.source, default.source) == ("corpus-a", "corpus-a", "corpus")
    assert first.source is second.source
    # the default source, the file's name, is one object across loads too
    assert load_dataset(dataset).instances[2].sentence.source is default.source

    db = tmp_path / "examples.db"
    write_objects(db, {"schema_version": 1, "cap": 10, "seed": 0}, *(
        {"id": f"r{i}", "text": f"rain {i} caused by storms",
         "tagged_text": f"rain {i} caused by storms", "pairs": [],
         "connectives": ["caused by"], "source": "corpus-a"}
        for i in range(2)))
    one, two = load_repository(db).records.values()
    assert (one.source, one.connectives) == (two.source, two.connectives) == (
        "corpus-a", ("caused by",))
    assert one.source is two.source and one.connectives[0] is two.connectives[0]

    transcript = tmp_path / "transcript.jsonl"
    write_objects(transcript, *({"request_hash": h, "response_text": "Label: 1",
                                 "timestamp": "2026-01-02T03:04:05.000000+00:00"}
                                for h in ("aa", "bb")))
    loaded = Transcript(transcript)
    assert loaded.get("aa") == loaded.get("bb") == "Label: 1"
    assert loaded.get("aa") is loaded.get("bb")

    cache = tmp_path / "cache.jsonl"
    write_objects(cache, *({"key": key, "model": "local-hash-2", "dim": 2,
                            "vector": [0.6, 0.8]} for key in ("0" * 64, "1" * 64)))
    keys = list(EmbeddingCache(cache)._values.items())
    assert [(key.model_id, vector.model_id) for key, vector in keys] == [
        ("local-hash-2", "local-hash-2")] * 2
    models = {id(key.model_id) for key, _ in keys} | {id(vector.model_id) for _, vector in keys}
    assert len(models) == 1
