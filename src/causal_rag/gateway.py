"""Provider-neutral chat completion with live, replay and record backends.

Every request asks at one fixed temperature, 0.0 (`TEMPERATURE`), and is
identified by a sha256 hash over (model_id, system_text, user_text,
temperature 0.0). The hash deliberately excludes max_output_tokens:
raising or lowering an output cap must not invalidate previously recorded
transcripts. Transcripts are append-only JSONL, one line per answer:
`{"request_hash", "response_text", "timestamp"}`, the timestamp in UTC to
the microsecond (`2026-01-02T03:04:05.123456+00:00`, taken from
`time.time_ns`). A loaded transcript keeps one copy of each distinct
answer. Replay needs no network, and `requests` is imported on the first
live request only, by `HttpEndpoint.post`.

`LlmClient` builds requests and asks its backend for each one. A backend
that keeps answers is an answer memo in front of a miss rule: the memo is
a `RecordBackend`'s `answers` (a `Transcript`, or a plain `jsonl.Memo`),
and a miss asks its live backend, or, for a `ReplayBackend`, is an error.

Chat (`LiveBackend`) and embedding (`embedding.HttpEmbeddingProvider`)
requests go through one `HttpEndpoint.post`, so they share one rule for
each of: the API key (passed in, else `$CAUSAL_RAG_API_KEY`; without one
nothing is sent), retries and malformed payloads (a `ProviderError`
naming the payload).

Every provider fan-out (runs, sweeps, `build-db`) goes through `in_order`,
one ordered stream with one failure rule: any exception stops it, be it a
provider error, an `OSError` from appending a transcript line to a full
disk, a `MalformedRecordError` from an embedding cache of another
dimension, or a `ValueError` from query vectors that do not fit the index."""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, TypeVar

from .errors import ProviderError, ReplayMissError, TransportError
from .jsonl import LineAppender, Memo, read_jsonl

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "CAUSAL_RAG_API_KEY"
# the sampling temperature of every request, hashed and sent as 0.0
TEMPERATURE = 0.0
DEFAULT_TIMEOUT = 60.0
RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 1.0
# unfinished stream items per worker: no worker idles while the caller
# works, and a slow item holds up no worker
LOOKAHEAD_PER_WORKER = 4
# stream items per worker read and not yet yielded: the results that wait
# behind a slow first item are bounded, so a run's memory does not grow
# with its records
WAITING_PER_WORKER = 256

T = TypeVar("T")
R = TypeVar("R")

# the compact canonical form a request hash is taken over
_encode_digest_payload = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


@lru_cache(maxsize=64)
def _digest_head(model_id: str, system_text: str):
    """A sha256 state over the canonical payload up to the value of its last
    key, `user_text`: the part that many requests share. Copy it; never
    update it."""
    payload = _encode_digest_payload({
        "model_id": model_id,
        "system_text": system_text,
        "temperature": TEMPERATURE,
        "user_text": "",
    })
    return hashlib.sha256(payload.removesuffix('""}').encode("utf-8"))


@dataclass(frozen=True)
class CompletionRequest:
    system_text: str
    user_text: str
    model_id: str
    max_output_tokens: int = 1024

    # sha256 identity of the request, computed at construction, so every
    # backend and the runner share one hash per request
    digest: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ValueError("user_text must be non-empty")
        # the bytes hashed are the canonical payload's; its constant head is
        # hashed once per (model, system text)
        state = _digest_head(self.model_id, self.system_text).copy()
        state.update((encode_basestring(self.user_text) + "}").encode("utf-8"))
        object.__setattr__(self, "digest", state.hexdigest())


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    provider_meta: dict = field(default_factory=dict, compare=False)


def request_hash(req: CompletionRequest) -> str:
    """Deterministic identity of a request; excludes max_output_tokens."""
    return req.digest


@lru_cache(maxsize=1)
def _utc_second(seconds: int) -> str:
    """The whole-second part of a timestamp, formatted once per second."""
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))


def _utc_now() -> str:
    """The time now, in UTC, as ISO 8601 to the microsecond (always six
    digits): 2026-01-02T03:04:05.000000+00:00."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return f"{_utc_second(seconds)}.{micros:06d}+00:00"


def _transcript_entry(obj: dict) -> tuple[str, str]:
    """(request hash, response text) of one transcript line; one object
    per distinct text, which many requests may share."""
    req_hash, text = obj["request_hash"], obj["response_text"]
    if type(req_hash) is not str or type(text) is not str:
        raise TypeError("request_hash and response_text must be strings")
    return req_hash, sys.intern(text)


class Transcript(Memo):
    """Append-only JSONL store of completed requests, as a memo of response
    texts by request hash. `append` writes one line straight from its
    request hash, response text and timestamp, in sorted key order and each
    through `encode_basestring`: the bytes `encode_line` gives of them
    spelled out as an object.

    Lookup takes the last entry for a hash, so a corrected response can be
    appended later without rewriting history. Appends are serialized; loads
    read the whole file once, dropping a torn final line (see `jsonl`).
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self._appender = LineAppender(self.path)
        if self.path.exists():
            self._values.update(read_jsonl(self.path, _transcript_entry))

    def put(self, req_hash: str, response_text: str) -> str:
        self.append(req_hash, response_text, _utc_now())
        return response_text

    def append(self, request_hash: str, response_text: str, timestamp: str) -> None:
        line = (f'{{"request_hash": {encode_basestring(request_hash)}, '
                f'"response_text": {encode_basestring(response_text)}, '
                f'"timestamp": {encode_basestring(timestamp)}}}')
        with self._lock:
            self._appender.append(line)
            self._values[request_hash] = response_text


class Backend(Protocol):
    def complete(self, req: CompletionRequest) -> CompletionResponse: ...


class HttpEndpoint:
    """An OpenAI-compatible endpoint: its base URL, bearer key, and the
    sleeper, random source and session of its retries. `calls` counts requests.
    Without a given session, each thread posts through its own
    `requests.Session`, made on its first request, so the endpoint keeps
    one open connection per thread instead of one per request."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.sleeper = sleeper
        self.rng = rng if rng is not None else random.Random()
        self.session = session
        self._sessions = threading.local()
        self.calls = 0

    def post(self, path: str, payload: dict, what: str, read: Callable[[object], T]) -> T:
        """`read` of the JSON that `path` answers `payload` with, POSTed up
        to `RETRY_ATTEMPTS` times. Only transport failures and HTTP 429 are
        retried, each after a sleep uniform over [0, b], b doubling from 1 s;
        either one lasting through every attempt is a TransportError named by
        the last failure. Any other status from 400 up is a ProviderError at
        once, and so is a `ValueError`, `KeyError`, `IndexError` or
        `TypeError` from `read`: a malformed `what` payload."""
        if not self.api_key:
            raise ProviderError(f"no API key: set {API_KEY_ENV} or pass api_key")
        import requests  # offline runs never load the HTTP stack
        self.calls += 1
        url = self.base_url + path
        session = self.session
        if session is None:
            session = getattr(self._sessions, "session", None)
            if session is None:
                session = self._sessions.session = requests.Session()
        headers = {"Authorization": f"Bearer {self.api_key}"}
        for attempt in range(RETRY_ATTEMPTS):
            if attempt:
                self.sleeper(self.rng.uniform(0.0, RETRY_BASE_DELAY * 2 ** (attempt - 1)))
            try:
                response = session.post(url, json=payload, headers=headers, timeout=DEFAULT_TIMEOUT)
            except (requests.ConnectionError, requests.Timeout) as exc:
                failure = f"transport failure after {RETRY_ATTEMPTS} attempts: {exc}"
                continue
            if response.status_code == 429:
                failure = f"rate limited after {RETRY_ATTEMPTS} attempts: {url}"
                continue
            if response.status_code >= 400:
                raise ProviderError(f"HTTP {response.status_code} from {url}: {response.text[:500]}")
            try:
                return read(response.json())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ProviderError(f"malformed {what} payload: {exc}") from exc
        raise TransportError(failure)


def _read_completion(data) -> tuple[str, dict]:
    """The text of a chat completion's first choice (a null content is
    empty), and its finish reason and token usage. A text that does not
    encode as UTF-8 (JSON may spell a lone surrogate) is refused here, as
    no transcript line could hold it."""
    choice = data["choices"][0]
    text = choice["message"]["content"]
    if text is None:
        text = ""
    elif not isinstance(text, str):
        raise TypeError(f"content must be a string, got {type(text).__name__}")
    text.encode("utf-8")  # a UnicodeEncodeError is a ValueError
    return text, {"finish_reason": choice.get("finish_reason"), "usage": data.get("usage", {})}


class LiveBackend(HttpEndpoint):
    """OpenAI-compatible /v1/chat/completions over HTTP."""

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        payload = {
            "model": req.model_id,
            "messages": [
                {"role": "system", "content": req.system_text},
                {"role": "user", "content": req.user_text},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": req.max_output_tokens,
        }
        text, meta = self.post("/v1/chat/completions", payload, "completion", _read_completion)
        if not text.strip():
            raise ProviderError(
                f"provider returned empty text (finish_reason={meta['finish_reason']!r})"
            )
        return CompletionResponse(text=text, provider_meta=meta)


class RecordBackend:
    """An answer memo in front of a miss rule: answer from `answers` when
    it has the request, otherwise ask `live` and keep its answer there (a
    `Transcript` also appends it); concurrent asks for one missing request
    make one live call."""

    def __init__(self, answers: Memo, live: Backend):
        self.answers = answers
        self.live = live

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        text = self.answers.fill(request_hash(req), lambda: self.live.complete(req).text)
        return CompletionResponse(text=text)


class _Unrecorded:
    """A replay's miss rule: an unrecorded request is an error, asking no one."""

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        raise ReplayMissError(req.digest)


class ReplayBackend(RecordBackend):
    """A record backend with no provider: it serves a transcript's answers,
    and any unrecorded request is a `ReplayMissError` that keeps nothing."""

    def __init__(self, transcript: Transcript):
        super().__init__(transcript, _Unrecorded())


@dataclass
class LlmClient:
    """A model handle: a backend, asked on every call (a `RecordBackend`
    keeps the answers), and the output cap of its requests."""

    backend: Backend
    model_id: str
    max_output_tokens: int = 1024

    def request(self, system_text: str, user_text: str) -> CompletionRequest:
        return CompletionRequest(system_text, user_text, self.model_id,
                                 max_output_tokens=self.max_output_tokens)

    def complete(self, req: CompletionRequest) -> str:
        return self.backend.complete(req).text

    def complete_text(self, system_text: str, user_text: str) -> str:
        return self.complete(self.request(system_text, user_text))


def in_order(work: Callable[[T], R], items: Iterable[T], concurrency: int) -> Iterator[R]:
    """`work(item)` for each of `items`, yielded in their order; `items` is
    read on the calling thread. At concurrency 1 each item is worked there
    as it is read, with no pool. Above 1, one pool of `concurrency` workers
    runs them, and the next item is read only while fewer than
    `LOOKAHEAD_PER_WORKER` a worker are unfinished, so a slow item leaves
    no worker idle; past `WAITING_PER_WORKER` a worker read and not yet
    yielded, the stream waits for the first of them instead. Once an
    exception of any type from `work` or from reading an item is recorded,
    no further item is read or started and those queued behind it are
    skipped; every result ahead of it is yielded, and then it is raised.
    A `BaseException` that is not an `Exception` (Ctrl-C) is not recorded:
    it propagates at once."""
    if concurrency == 1:
        yield from map(work, items)
        return
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait  # only a pool needs it

    failed: list[int] = []  # the positions whose work raised, whatever the type

    def guarded(position: int, item: T) -> R | None:
        if failed and position > min(failed):
            return None  # behind a failure: never yielded
        try:
            return work(item)
        except Exception:
            failed.append(position)
            raise

    pool = ThreadPoolExecutor(concurrency)
    pending: deque = deque()  # the futures read and not yet yielded, in order
    running: set = set()  # the futures read and not yet seen done by `wait`
    items = iter(items)
    try:
        for position in count():
            if len(running) == LOOKAHEAD_PER_WORKER * concurrency:
                running = wait(running, return_when=FIRST_COMPLETED).not_done
            if len(pending) == WAITING_PER_WORKER * concurrency:  # behind a slow first item
                wait((pending[0],))
            while pending and pending[0].done():
                yield pending.popleft().result()
            if failed:  # once a failure is recorded, nothing more is read
                break
            try:
                item = next(items)
            except StopIteration:
                break
            except Exception:  # a read error: the results ahead of it come first
                while pending:
                    yield pending.popleft().result()
                raise
            pending.append(pool.submit(guarded, position, item))
            running.add(pending[-1])
        while pending:
            yield pending.popleft().result()
    finally:  # items not yet started are dropped
        pool.shutdown(cancel_futures=True)
