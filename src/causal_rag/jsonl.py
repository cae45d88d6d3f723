"""Every JSONL read and every whole-file write: the one line reader, the one
appender and the one atomic writer; and the memo shared by the stores and
the chat client.

`read_json_objects` reads every JSONL file, decoding each line with one
scanner call; only a line that fails that goes through `json.loads`, so
every object and every error reads as `json.loads` gives it. A process
killed in the middle of an append can leave a final line without its
newline. Stores (prediction files, transcripts, embedding caches) drop such
a line with a warning when it does not parse, and a `LineAppender` cuts it
off (or ends it, if it parses) when it opens the file for its first line.
Datasets and saved repositories, which nothing appends to, refuse it. A
store reads through `read_jsonl` with its own `parse`. Any other damaged
line, or one that `parse` refuses, is a `MalformedRecordError` that names
the file, the line and the reason. `mmap` is imported only to read a torn
tail back, and `logging` only by a warning (`errors.warn`). A parser keeps
one object per distinct value of a string field that repeats across lines
(`sys.intern`), so a file of many lines that share a value holds it once.

A `LineAppender` holds one descriptor from its first line until it is
released, when a finalizer closes it; each line is one write loop on it.
`replace_lines` writes every whole file (saved repositories, canonical
datasets, metrics reports, sweep CSVs) in one rename. `encode_line` is the
one encoding of a stored line (keys sorted, non-ASCII text as UTF-8): the
bytes and errors of `JSONEncoder(sort_keys=True, ensure_ascii=False).encode`,
through one C encoder per thread, made on the thread's first line, where
`JSONEncoder` makes a new one on every call. A failed call clears that
thread's cycle markers, so an error is never carried into a later line.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .errors import MalformedRecordError, warn

T = TypeVar("T")


class _LineEncoder(threading.local):
    """One thread's C encoder, made on the thread's first line with the
    arguments `JSONEncoder(sort_keys=True, ensure_ascii=False).iterencode`
    gives `c_make_encoder`, and its markers (the ids of the containers
    being encoded, so a cycle is refused)."""

    def __init__(self) -> None:
        self.markers: dict = {}
        self.encode = c_make_encoder(
            self.markers, json.JSONEncoder().default, encode_basestring, None,
            ": ", ", ", True, False, True)


def _encode_line(obj: object) -> str:
    """`JSONEncoder(sort_keys=True, ensure_ascii=False).encode(obj)`, with
    the same bytes and the same errors, through this thread's encoder."""
    encoder = _line_encoder
    try:
        return "".join(encoder.encode(obj, 0))
    except BaseException:
        # a failed call leaves its containers' ids behind, and a later
        # object at one of those addresses would be refused as a cycle
        encoder.markers.clear()
        raise


if c_make_encoder is None:  # a Python built without `_json`
    encode_line: Callable[[object], str] = json.JSONEncoder(
        sort_keys=True, ensure_ascii=False).encode
else:
    _line_encoder = _LineEncoder()
    encode_line = _encode_line

# one decoder for every line: `json.loads` without its per-call wrapper
_raw_decode = json.JSONDecoder().raw_decode


def read_json_objects(path: str | Path, *, drop_torn_tail: bool = True) -> Iterator[tuple[int, dict]]:
    """(file line, JSON object) of each non-blank line of `path`, in order.
    A torn final line (no newline, no valid JSON) is dropped with a warning
    when `drop_torn_tail`, else refused like any damaged line."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = _decode_line(line.decode("utf-8"))
            except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                if drop_torn_tail and not line.endswith(b"\n"):
                    warn(__name__, "%s: dropped torn final line %d (%s)", path, line_no, reason)
                    return
                raise MalformedRecordError(f"invalid JSON ({reason})", line_no, path) from None
            if not isinstance(obj, dict):
                raise MalformedRecordError("expected a JSON object", line_no, path)
            yield line_no, obj


def _decode_line(text: str):
    """`json.loads(text)`: one scanner call when the value starts the line
    and only JSON whitespace follows it, else `json.loads` itself, which
    gives the same object or the same error."""
    try:
        obj, end = _raw_decode(text)
        if not text[end:].strip(" \t\n\r"):
            return obj
    except ValueError:
        pass
    return json.loads(text)


def read_jsonl(path: str | Path, parse: Callable[[dict], T] = lambda obj: obj) -> Iterator[T]:
    """`parse` of each object of a store's file, a torn tail dropped; a
    `KeyError`, `TypeError` or `ValueError` from `parse` refuses the line."""
    for line_no, obj in read_json_objects(path):
        try:
            item = parse(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRecordError(exc, line_no, path) from None
        yield item


def replace_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace `path` with `lines`, each ended by a newline, written to a
    temporary file in the same directory and renamed over `path`: a kill
    leaves the old file or the new one, and a failure removes the temporary
    file. Unlike `mkstemp`'s, a new file's mode follows the umask."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Memo:
    """Values (never None) by key, each missing one computed at most once
    however many threads ask for it at the same time. A hit reads without
    taking a lock. If a computation raises, nothing is kept and the next
    caller tries again. A key's flight, the lock its callers compute under,
    lives while a caller holds or awaits it, so they share one and it goes
    with the last. Subclasses that persist what they keep override `put`,
    and serialize their writes with `_lock`."""

    def __init__(self) -> None:
        self._values: dict = {}
        self._lock = threading.Lock()
        self._flights: dict[Hashable, list] = {}  # key -> [lock, its callers]

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: Hashable):
        return self._values.get(key)

    def put(self, key: Hashable, value):
        """Keep `value` under `key`; returns the value now kept."""
        self._values[key] = value
        return value

    def rebind(self, key: Hashable, value) -> None:
        """Keep `value` under `key` in place of the equal value kept there,
        persisting nothing: a holder of an equal copy frees the memo's."""
        self._values[key] = value

    def fill(self, key: Hashable, compute: Callable[[], object]):
        """The value kept under `key`, computed and put when absent."""
        value = self._values.get(key)
        if value is not None:
            return value
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = [threading.Lock(), 0]
            flight[1] += 1
        try:
            with flight[0]:
                value = self._values.get(key)
                if value is None:
                    value = self.put(key, compute())
            return value
        finally:  # returned or raised, the flight's last caller drops it
            with self._lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._flights[key]


class LineAppender:
    """Appends lines to a JSONL file, each with one OS write loop; callers
    serialize appends. Nothing is opened before the first line. That line
    opens the file, creating it and its directory or first mending a torn
    final line, and the appender keeps that one `O_APPEND` descriptor until
    it is released, when a finalizer closes it."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd: int | None = None

    def append(self, line: str) -> None:
        data = memoryview((line + "\n").encode("utf-8"))
        fd = self._fd if self._fd is not None else self._open()
        while data:
            data = data[os.write(fd, data):]

    def extend(self, lines: Iterable[str]) -> None:
        for line in lines:
            self.append(line)

    def _open(self) -> int:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        close = weakref.finalize(self, os.close, fd)
        try:
            _end_with_a_complete_line(fd, self.path)
        except BaseException:
            close()
            raise
        self._fd = fd
        return fd


def _end_with_a_complete_line(fd: int, path: Path) -> None:
    end = os.lseek(fd, 0, os.SEEK_END)
    if end == 0 or os.pread(fd, 1, end - 1) == b"\n":
        return
    import mmap  # only a torn tail is read back

    with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as view:
        start = view.rfind(b"\n") + 1
        tail = view[start:]
    try:
        json.loads(tail.decode("utf-8"))
    except ValueError:
        warn(__name__, "%s: cut %d bytes of a torn final line before appending",
             path, len(tail))
        os.ftruncate(fd, start)
    else:
        os.write(fd, b"\n")  # the file is open to append, so this lands at the end
