"""Append-only JSONL stores: the one reader and the one appender shared by
prediction files, transcripts and embedding caches, and the one memo they
and the chat client build on.

Every store reads its file through `read_jsonl` with its own `parse`, the
function that turns one line's object into what the store keeps, and
appends through a `LineAppender`. A process killed in the middle of a write
can leave a final line without its newline. The reader drops such a line,
with a warning, when it does not parse as JSON; the appender's first line
cuts it off (or ends it, if it parses). Damage on any other line, including
a line that `parse` refuses, is a `MalformedRecordError` that names the
file, the line and the reason.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import threading
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .errors import MalformedRecordError

LOGGER = logging.getLogger(__name__)

T = TypeVar("T")


def read_jsonl(path: str | Path, parse: Callable[[dict], T] = lambda obj: obj) -> Iterator[T]:
    """`parse` of each JSON object of `path`, one per non-blank line, in file
    order. A `KeyError`, `TypeError` or `ValueError` from `parse` means the
    line does not fit the store."""
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
            try:
                item = parse(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedRecordError(exc, line_no, path) from None
            yield item


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
    """Appends lines to a JSONL file, each with one OS write; callers
    serialize appends. `append` opens the file for one line, `extend` once
    for all it takes, so no descriptor outlives a call. The first line
    creates the file and its directory, or first mends a torn final line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._checked = False

    def append(self, line: str) -> None:
        self.extend((line,))

    def extend(self, lines: Iterable[str]) -> None:
        fd = None  # nothing is opened before the first line
        try:
            for line in lines:
                data = memoryview((line + "\n").encode("utf-8"))
                if fd is None:
                    if not self._checked:
                        self.path.parent.mkdir(parents=True, exist_ok=True)
                    fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
                    if not self._checked:
                        _end_with_a_complete_line(fd, self.path)
                        self._checked = True
                while data:
                    data = data[os.write(fd, data):]
        finally:
            if fd is not None:
                os.close(fd)


def _end_with_a_complete_line(fd: int, path: Path) -> None:
    end = os.lseek(fd, 0, os.SEEK_END)
    if end == 0 or os.pread(fd, 1, end - 1) == b"\n":
        return
    with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as view:
        start = view.rfind(b"\n") + 1
        tail = view[start:]
    try:
        json.loads(tail.decode("utf-8"))
    except ValueError:
        LOGGER.warning("%s: cut %d bytes of a torn final line before appending",
                       path, len(tail))
        os.ftruncate(fd, start)
    else:
        os.write(fd, b"\n")  # the file is open to append, so this lands at the end
