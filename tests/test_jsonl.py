"""The shared JSONL reader and appender: torn tails and damaged lines; the
shared single-flight memo."""

from __future__ import annotations

import json
import logging
import os
import threading

import pytest

from causal_rag import jsonl
from causal_rag.errors import MalformedRecordError
from causal_rag.jsonl import LineAppender, Memo, read_jsonl

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


def test_appender_writes_whole_lines_after_one_tail_check(tmp_path, monkeypatch):
    path = tmp_path / "sub" / "a.jsonl"
    checks: list[object] = []

    real_check = jsonl._end_with_a_complete_line

    def counted(fd, target):
        checks.append(target)
        return real_check(fd, target)

    monkeypatch.setattr(jsonl, "_end_with_a_complete_line", counted)
    appender = LineAppender(path)
    for row in ROWS:
        appender.append(json.dumps(row, ensure_ascii=False))
    assert path.read_bytes() == write_rows(tmp_path / "b.jsonl")
    assert checks == [path]


def test_appender_finishes_a_short_write_and_keeps_no_descriptor(tmp_path, monkeypatch):
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
        assert set(os.listdir("/proc/self/fd")) <= fds
    assert path.read_bytes() == write_rows(tmp_path / "b.jsonl")
    assert len(sizes) > len(ROWS) and set(sizes) <= {1, 2, 3}


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


def test_extend_opens_the_file_once_and_not_for_no_lines(tmp_path, monkeypatch):
    path = tmp_path / "sub" / "a.jsonl"
    real_open = os.open
    opened: list[object] = []

    def counted(target, *args):
        opened.append(target)
        return real_open(target, *args)

    monkeypatch.setattr(jsonl.os, "open", counted)
    appender = LineAppender(path)
    appender.extend(iter(()))
    assert opened == [] and not path.parent.exists()
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    appender.extend(json.dumps(row, ensure_ascii=False) for row in ROWS)
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) <= fds
    assert opened == [path]
    assert path.read_bytes() == write_rows(tmp_path / "b.jsonl")


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
