"""Append-only JSONL stores: the one reader and the one appender shared by
prediction files, transcripts and embedding caches, and the one memo they
and the chat client build on.

A process killed in the middle of a write can leave a final line without its
newline. The reader drops such a line, with a warning, when it does not
parse, and `open_append` cuts it off before anything more is written, so the
file again ends in a complete line. Damage on any other line is a
`MalformedRecordError` that names the file and the line.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import threading
from io import RawIOBase
from pathlib import Path
from typing import IO, Callable, Hashable, Iterator

from .errors import MalformedRecordError

LOGGER = logging.getLogger(__name__)


def read_jsonl(path: str | Path, fields: tuple[str, ...] = (),
               expect: dict | None = None) -> Iterator[dict]:
    """The JSON objects of `path`, one per non-blank line, in file order;
    each must carry every key in `fields`, and the value given in `expect`
    for each of its keys."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                if not line.endswith(b"\n"):
                    LOGGER.warning("%s: dropped torn final line %d (%s)", path, line_no, reason)
                    return
                raise MalformedRecordError(f"invalid JSON ({reason})", line_no, path) from None
            if not isinstance(obj, dict):
                raise MalformedRecordError("expected a JSON object", line_no, path)
            for name in fields:
                if name not in obj:
                    raise MalformedRecordError(f"missing field {name!r}", line_no, path)
            for name, value in (expect or {}).items():
                if obj.get(name) != value:
                    raise MalformedRecordError(
                        f"{name} is {obj.get(name)!r}, expected {value!r}", line_no, path
                    )
            yield obj


def open_append(path: str | Path) -> IO[str]:
    """Open `path` to append lines, creating it and its directory if need
    be. A final line without its newline is first cut off if it does not
    parse, as `read_jsonl` dropped it, or given its newline if it does, as
    `read_jsonl` kept it."""
    try:
        handle = open(path, "a+", encoding="utf-8")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "a+", encoding="utf-8")
    try:
        # the unbuffered layer: reading it leaves the buffers untouched
        _end_with_a_complete_line(handle.buffer.raw, path)
        handle.seek(0, os.SEEK_END)
    except BaseException:
        handle.close()
        raise
    return handle


class Memo:
    """Values (never None) by key, each missing one computed at most once
    however many threads ask for it at the same time. A hit reads without
    taking a lock. If a computation raises, nothing is kept and the next
    caller tries again. Subclasses that persist what they keep override
    `put`, and serialize their writes with `_lock`."""

    def __init__(self) -> None:
        self._values: dict = {}
        self._lock = threading.Lock()
        self._flights: dict[Hashable, threading.Lock] = {}

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: Hashable):
        return self._values.get(key)

    def put(self, key: Hashable, value):
        """Keep `value` under `key`; returns the value now kept."""
        self._values[key] = value
        return value

    def fill(self, key: Hashable, compute: Callable[[], object]):
        """The value kept under `key`, computed and put when absent."""
        value = self._values.get(key)
        if value is not None:
            return value
        with self._lock:
            flight = self._flights.setdefault(key, threading.Lock())
        with flight:
            value = self._values.get(key)
            if value is None:
                value = self.put(key, compute())
        # a kept value is never computed again, so its flight may go
        self._flights.pop(key, None)
        return value


class LineAppender:
    """Appends one line at a time to a JSONL file with one OS write, opening
    the file for each line so that no descriptor outlives a call; callers
    serialize appends. Only the first append pays for `open_append`'s tail
    check: every later one follows a line this object wrote."""

    def __init__(self, path: str | Path):
        self.path = path
        self._checked = False

    def append(self, line: str) -> None:
        if not self._checked:
            open_append(self.path).close()
            self._checked = True
        data = memoryview((line + "\n").encode("utf-8"))
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


def _end_with_a_complete_line(raw: RawIOBase, path: str | Path) -> None:
    end = raw.seek(0, os.SEEK_END)
    if end == 0:
        return
    raw.seek(end - 1)
    if raw.read(1) == b"\n":
        return
    with mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ) as view:
        start = view.rfind(b"\n") + 1
        tail = view[start:]
    try:
        json.loads(tail.decode("utf-8"))
    except ValueError:
        LOGGER.warning("%s: cut %d bytes of a torn final line before appending",
                       path, len(tail))
        raw.truncate(start)
    else:
        raw.write(b"\n")  # the file is open to append, so this lands at the end
