"""Provider-neutral chat completion with live, replay, record, and scripted backends.

Each request is identified by a sha256 hash over (model_id, system_text,
user_text, temperature). The hash deliberately excludes max_output_tokens:
raising or lowering an output cap must not invalidate previously recorded
transcripts. Transcripts are append-only JSONL; replay needs no network.

`LlmClient` keeps its answers in a memo keyed by that hash, so whatever
backend it wraps is asked once per distinct request.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable, Protocol

import requests

from .errors import (
    EmptyCompletionError,
    ProviderError,
    RateLimitedError,
    ReplayMissError,
    TransportError,
)
from .jsonl import LineAppender, Memo, read_jsonl

API_KEY_ENV = "CAUSAL_RAG_API_KEY"
DEFAULT_TIMEOUT = 60.0
RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 1.0


@dataclass(frozen=True)
class CompletionRequest:
    system_text: str
    user_text: str
    model_id: str
    temperature: float = 0.0
    max_output_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.user_text:
            raise ValueError("user_text must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @cached_property
    def digest(self) -> str:
        """sha256 identity of the request, computed on first use and kept,
        so every backend and the runner share one hash per request."""
        payload = json.dumps(
            {
                "model_id": self.model_id,
                "system_text": self.system_text,
                "temperature": self.temperature,
                "user_text": self.user_text,
            },
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    provider_meta: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class TranscriptEntry:
    request_hash: str
    response_text: str
    timestamp: str


def request_hash(req: CompletionRequest) -> str:
    """Deterministic identity of a request; excludes max_output_tokens."""
    return req.digest


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _transcript_entry(obj: dict) -> tuple[str, str]:
    """(request hash, response text) of one transcript line."""
    req_hash, text = obj["request_hash"], obj["response_text"]
    if type(req_hash) is not str or type(text) is not str:
        raise TypeError("request_hash and response_text must be strings")
    return req_hash, text


class Transcript(Memo):
    """Append-only JSONL store of completed requests, as a memo of response
    texts by request hash.

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

    def lookup(self, req_hash: str) -> str | None:
        return self.get(req_hash)

    def put(self, req_hash: str, response_text: str) -> str:
        self.append(TranscriptEntry(req_hash, response_text, _utc_now()))
        return response_text

    def append(self, entry: TranscriptEntry) -> None:
        line = json.dumps(
            {
                "request_hash": entry.request_hash,
                "response_text": entry.response_text,
                "timestamp": entry.timestamp,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        with self._lock:
            self._appender.append(line)
            self._values[entry.request_hash] = entry.response_text


def post_with_retry(
    url: str,
    payload: dict,
    headers: dict,
    timeout: float = DEFAULT_TIMEOUT,
    attempts: int = RETRY_ATTEMPTS,
    sleeper: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    session: requests.Session | None = None,
) -> requests.Response:
    """POST with up to `attempts` tries.

    Retries only transport failures and HTTP 429; backoff doubles from 1 s
    with full jitter (each sleep is uniform over [0, current backoff]).
    Any other non-2xx status fails immediately as ProviderError.
    """
    rng = rng or random.Random()
    post = session.post if session is not None else requests.post
    delay = RETRY_BASE_DELAY
    last_error: Exception | None = None
    rate_limited = False
    for attempt in range(attempts):
        try:
            response = post(url, json=payload, headers=headers, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = exc
            rate_limited = False
        else:
            if response.status_code == 429:
                last_error = RateLimitedError(f"429 from {url}")
                rate_limited = True
            elif response.status_code >= 400:
                raise ProviderError(
                    f"HTTP {response.status_code} from {url}: {response.text[:500]}"
                )
            else:
                return response
        if attempt < attempts - 1:
            sleeper(rng.uniform(0.0, delay))
            delay *= 2.0
    if rate_limited:
        raise RateLimitedError(f"rate limited after {attempts} attempts: {url}")
    raise TransportError(f"transport failure after {attempts} attempts: {last_error}")


class Backend(Protocol):
    def complete(self, req: CompletionRequest) -> CompletionResponse: ...


class LiveBackend:
    """OpenAI-compatible /v1/chat/completions over HTTP."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.sleeper = sleeper
        self.rng = rng
        self.session = session
        self.calls = 0

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        if not self.api_key:
            raise ProviderError(f"no API key: set {API_KEY_ENV} or pass api_key")
        payload = {
            "model": req.model_id,
            "messages": [
                {"role": "system", "content": req.system_text},
                {"role": "user", "content": req.user_text},
            ],
            "temperature": req.temperature,
            "max_tokens": req.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        self.calls += 1
        response = post_with_retry(
            f"{self.base_url}/v1/chat/completions",
            payload,
            headers,
            timeout=self.timeout,
            sleeper=self.sleeper,
            rng=self.rng,
            session=self.session,
        )
        try:
            data = response.json()
            choice = data["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed completion payload: {exc}") from exc
        if text is None:
            text = ""
        meta = {
            "finish_reason": choice.get("finish_reason"),
            "usage": data.get("usage", {}),
        }
        if not text.strip():
            raise EmptyCompletionError(
                f"provider returned empty text (finish_reason={meta['finish_reason']!r})"
            )
        return CompletionResponse(text=text, provider_meta=meta)


class ReplayBackend:
    """Serve responses from a transcript; any unknown request is an error."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        req_hash = request_hash(req)
        text = self.transcript.lookup(req_hash)
        if text is None:
            raise ReplayMissError(req_hash)
        return CompletionResponse(text=text, provider_meta={"replayed": True})


class RecordBackend:
    """Replay when the transcript has the request, otherwise call live and
    append; concurrent asks for one unrecorded request make one live call."""

    def __init__(self, transcript: Transcript, live: Backend):
        self.transcript = transcript
        self.live = live

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        text = self.transcript.fill(request_hash(req), lambda: self.live.complete(req).text)
        return CompletionResponse(text=text)


class ScriptedBackend:
    """In-memory backend for tests and fixtures.

    `script` is either a callable mapping a CompletionRequest to response
    text, or a dict keyed by user_text.
    """

    def __init__(self, script: Callable[[CompletionRequest], str] | dict[str, str]):
        self.script = script
        self.calls = 0

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        self.calls += 1
        if callable(self.script):
            text = self.script(req)
        else:
            if req.user_text not in self.script:
                raise KeyError(f"no scripted response for user_text {req.user_text[:80]!r}")
            text = self.script[req.user_text]
        return CompletionResponse(text=text, provider_meta={"scripted": True})


@dataclass
class LlmClient:
    """A model handle: fixed decoding settings plus a backend, asked once per
    distinct request; the answers are kept for the client's lifetime."""

    backend: Backend
    model_id: str
    temperature: float = 0.0
    max_output_tokens: int = 1024
    _answers: Memo = field(default_factory=Memo, init=False, repr=False, compare=False)

    def request(self, system_text: str, user_text: str) -> CompletionRequest:
        return CompletionRequest(system_text, user_text, self.model_id,
                                 self.temperature, self.max_output_tokens)

    def complete(self, req: CompletionRequest) -> str:
        return self._answers.fill(req.digest, lambda: self.backend.complete(req).text)

    def complete_text(self, system_text: str, user_text: str) -> str:
        return self.complete(self.request(system_text, user_text))
