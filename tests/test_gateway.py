"""Tests for completion backends, request hashing, and retry behavior."""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import hashlib
import itertools
import json
import random
import re
import threading
import time
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from fixture_llm import ScriptedBackend

from causal_rag import gateway
from causal_rag.embedding import HttpEmbeddingProvider
from causal_rag.errors import (
    MalformedRecordError,
    ProviderError,
    ReplayMissError,
    TransportError,
)
from causal_rag.gateway import (
    CompletionRequest,
    LiveBackend,
    LlmClient,
    RecordBackend,
    ReplayBackend,
    Transcript,
    request_hash,
)
from causal_rag.jsonl import Memo


def _req(**overrides) -> CompletionRequest:
    base = dict(
        system_text="You are a classifier.",
        user_text="Sentence: smoking causes cancer",
        model_id="test-model",
        max_output_tokens=64,
    )
    base.update(overrides)
    return CompletionRequest(**base)


def test_request_hash_deterministic() -> None:
    assert request_hash(_req()) == request_hash(_req())


def test_request_hash_sensitive_to_fields() -> None:
    base = request_hash(_req())
    assert request_hash(_req(user_text="Sentence: smoking causes cancer!")) != base
    assert request_hash(_req(system_text="Other.")) != base
    assert request_hash(_req(model_id="other-model")) != base


def test_request_hash_ignores_max_output_tokens() -> None:
    assert request_hash(_req(max_output_tokens=64)) == request_hash(
        _req(max_output_tokens=4096)
    )


def test_request_hash_is_sha256_hex() -> None:
    h = request_hash(_req())
    assert len(h) == 64
    int(h, 16)


def test_request_hash_matches_the_full_payload_hash() -> None:
    """The digest hashes a cached head plus the user text; the bytes must be
    those of the whole canonical payload."""
    alphabet = ['"', "\\", "\u2028", "\u2029", "é", "€", "😀", "a", " ", "/", "\x7f",
                *map(chr, range(32))]
    rng = random.Random(20261018)

    def text(n: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(n))

    systems = ["", "Système : réponds.", *(text(rng.randint(1, 30)) for _ in range(3))]
    for _ in range(300):
        req = CompletionRequest(
            system_text=rng.choice(systems),
            user_text=text(rng.randint(1, 40)),
            model_id=rng.choice(["m", 'mo"del\\1', "modèle"]),
        )
        payload = json.dumps(
            {"model_id": req.model_id, "system_text": req.system_text,
             "temperature": 0.0, "user_text": req.user_text},
            sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        )
        assert req.digest == hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_request_validation() -> None:
    with pytest.raises(ValueError):
        _req(user_text="")


def test_transcript_round_trip(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)
    transcript.append("aa", "hello", "2026-01-01T00:00:00+00:00")
    transcript.append("bb", "world", "2026-01-01T00:00:01+00:00")
    reloaded = Transcript(path)
    assert reloaded.get("aa") == "hello"
    assert reloaded.get("bb") == "world"
    assert reloaded.get("cc") is None
    assert len(reloaded) == 2


def test_transcript_append_only_last_wins(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)
    transcript.append("aa", "first", "ts1")
    before = path.read_text().splitlines()
    transcript.append("aa", "second", "ts2")
    after = path.read_text().splitlines()
    # earlier lines untouched, correction appended at the end
    assert after[: len(before)] == before
    assert len(after) == 2
    assert Transcript(path).get("aa") == "second"


def test_torn_transcript_loads_and_heals_on_the_next_append(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)
    for name in ("aa", "bb", "cc"):
        transcript.append(name, f"answer {name}", "ts")
    path.write_bytes(path.read_bytes()[:-20])  # a write cut short
    torn = Transcript(path)
    assert (torn.get("aa"), torn.get("bb"), torn.get("cc")) == (
        "answer aa", "answer bb", None,
    )
    torn.append("cc", "answer cc again", "ts")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["request_hash"] for line in lines] == ["aa", "bb", "cc"]
    assert Transcript(path).get("cc") == "answer cc again"


def test_damaged_transcript_line_is_named(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    path.write_text('{"request_hash": "aa", "response_text": "x", "timestamp": "ts"}\n'
                    '{"request_hash": "bb", "respo\n'
                    '{"request_hash": "cc", "response_text": "z", "timestamp": "ts"}\n',
                    encoding="utf-8")
    with pytest.raises(MalformedRecordError, match="line 2: invalid JSON"):
        Transcript(path)


def test_replay_hit_and_miss(tmp_path) -> None:
    req = _req()
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)
    transcript.append(request_hash(req), "1", "ts")
    backend = ReplayBackend(transcript)
    assert backend.complete(req).text == "1"
    missing = _req(user_text="Sentence: something else")
    with pytest.raises(ReplayMissError) as excinfo:
        backend.complete(missing)
    assert request_hash(missing) in str(excinfo.value)


def test_replay_misses_leave_no_flight_behind(tmp_path) -> None:
    transcript = Transcript(tmp_path / "t.jsonl")
    backend = ReplayBackend(transcript)
    for i in range(3):
        with pytest.raises(ReplayMissError):
            backend.complete(_req(user_text=f"Sentence: unrecorded {i}"))
    assert len(transcript) == 0
    assert transcript._flights == {}


def test_scripted_backend_callable() -> None:
    echo = ScriptedBackend(lambda req: req.user_text.upper())
    assert echo.complete(_req(user_text="hi")).text == "HI"
    assert echo.calls == 1


class FakeLive:
    """Counts calls; returns canned text."""

    def __init__(self, text: str = "ok"):
        self.text = text
        self.calls = 0

    def complete(self, req: CompletionRequest):
        self.calls += 1
        return ScriptedBackend(lambda r: self.text).complete(req)


def test_record_mode_single_network_call(tmp_path) -> None:
    live = FakeLive("42")
    transcript = Transcript(tmp_path / "t.jsonl")
    backend = RecordBackend(transcript, live)
    req = _req()
    assert backend.complete(req).text == "42"
    assert backend.complete(req).text == "42"
    assert live.calls == 1
    # a fresh replay-only backend can serve the request
    replay = ReplayBackend(Transcript(tmp_path / "t.jsonl"))
    assert replay.complete(req).text == "42"


def test_record_mode_concurrent_distinct_requests(tmp_path) -> None:
    live = FakeLive("x")
    transcript = Transcript(tmp_path / "t.jsonl")
    backend = RecordBackend(transcript, live)
    reqs = [_req(user_text=f"q{i}") for i in range(12)]
    threads = [threading.Thread(target=backend.complete, args=(r,)) for r in reqs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reloaded = Transcript(tmp_path / "t.jsonl")
    assert len(reloaded) == 12
    for r in reqs:
        assert reloaded.get(request_hash(r)) == "x"


class HeldLive:
    """A live backend whose calls wait, for at most `wait` seconds, until
    `parties` of them are inside at once; the first call raises when
    `fail_first` is set."""

    def __init__(self, parties: int, fail_first: bool = False, wait: float = 1.0):
        self.together = threading.Barrier(parties)
        self.fail_first = fail_first
        self.wait = wait
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, req: CompletionRequest):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        try:
            self.together.wait(timeout=self.wait)
        except threading.BrokenBarrierError:
            pass
        if first and self.fail_first:
            raise TransportError("connection reset")
        return ScriptedBackend(lambda r: "answer").complete(req)


def _ask_together(backend, req, threads: int) -> list:
    """`threads` concurrent asks for `req`: each answer text or error."""
    start = threading.Barrier(threads)
    outcomes: list = []

    def ask() -> None:
        start.wait(timeout=10)
        try:
            outcomes.append(backend.complete(req).text)
        except ProviderError as exc:
            outcomes.append(exc)

    workers = [threading.Thread(target=ask) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
    assert not any(worker.is_alive() for worker in workers)
    return outcomes


def test_record_mode_concurrent_asks_for_one_request_make_one_live_call(tmp_path) -> None:
    live = HeldLive(parties=2)
    path = tmp_path / "t.jsonl"
    outcomes = _ask_together(RecordBackend(Transcript(path), live), _req(), threads=2)
    assert outcomes == ["answer", "answer"]
    assert live.calls == 1
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_record_mode_failed_live_call_is_retried_and_leaves_no_line(tmp_path) -> None:
    live = HeldLive(parties=3, fail_first=True)
    path = tmp_path / "t.jsonl"
    outcomes = _ask_together(RecordBackend(Transcript(path), live), _req(), threads=3)
    assert sorted(map(str, outcomes)) == ["answer", "answer", "connection reset"]
    # the caller after the failed one asks again; the third is served its answer
    assert live.calls == 2
    [line] = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["response_text"] == "answer"


def test_replay_concurrent_misses_for_one_request_each_fail_and_keep_nothing(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    recorded = _req(user_text="Sentence: recorded")
    Transcript(path).append(request_hash(recorded), "1", "ts")
    written = path.read_bytes()
    transcript = Transcript(path)
    backend = ReplayBackend(transcript)
    missing = _req()
    outcomes = _ask_together(backend, missing, threads=4)
    assert len(outcomes) == 4
    for outcome in outcomes:
        assert type(outcome) is ReplayMissError
        assert str(outcome) == f"no transcript entry for request hash {request_hash(missing)}"
    assert transcript.get(request_hash(missing)) is None and len(transcript) == 1
    assert path.read_bytes() == written
    assert backend.complete(recorded).text == "1"


def test_transcript_fill_keeps_nothing_when_the_call_fails(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)

    def fail() -> str:
        raise TransportError("connection reset")

    with pytest.raises(TransportError):
        transcript.fill("aa", fail)
    assert transcript.get("aa") is None
    assert not path.exists()
    assert transcript.fill("aa", lambda: "hello") == "hello"
    assert transcript.fill("aa", fail) == "hello"
    assert Transcript(path).get("aa") == "hello"


class _Response:
    def __init__(self, status_code: int, payload: dict | None = None, text: str = ""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text or json.dumps(self._payload)

    def json(self) -> dict:
        return self._payload


class _Session:
    """Stand-in for requests.Session driven by a list of outcomes."""

    def __init__(self, outcomes: list):
        self.outcomes = list(outcomes)
        self.requests: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _ok_payload(text: str = "1") -> dict:
    return {
        "choices": [{"message": {"content": text}, "finish_reason": "stop"}],
        "usage": {"total_tokens": 7},
    }


def test_live_backend_request_shape_and_parse() -> None:
    session = _Session([_Response(200, _ok_payload("hello"))])
    backend = LiveBackend("http://host/api/", api_key="k", session=session)
    response = backend.complete(_req())
    assert response.text == "hello"
    assert response.provider_meta["finish_reason"] == "stop"
    sent = session.requests[0]
    assert sent["url"] == "http://host/api/v1/chat/completions"
    assert sent["headers"]["Authorization"] == "Bearer k"
    body = sent["json"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.0
    assert body["max_tokens"] == 64
    assert body["messages"][0]["role"] == "system"
    assert body["messages"][1]["content"].startswith("Sentence:")


@pytest.mark.parametrize("content", ["", "  \n", None])
def test_live_backend_empty_completion(content) -> None:
    payload = {"choices": [{"message": {"content": content}, "finish_reason": "content_filter"}]}
    session = _Session([_Response(200, payload)])
    backend = LiveBackend("http://host", api_key="k", session=session)
    empty = r"^provider returned empty text \(finish_reason='content_filter'\)$"
    with pytest.raises(ProviderError, match=empty):
        backend.complete(_req())


@pytest.mark.parametrize("content", [5, ["a"], {"x": 1}, True])
def test_live_backend_refuses_non_string_content(content) -> None:
    payload = {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}
    backend = LiveBackend("http://host", api_key="k", session=_Session([_Response(200, payload)]))
    with pytest.raises(ProviderError, match="malformed completion payload"):
        backend.complete(_req())


@pytest.mark.parametrize("content", ["\ud800", "cause \udfff effect"])
def test_live_backend_refuses_text_a_transcript_line_cannot_hold(tmp_path, content) -> None:
    # JSON may spell a lone surrogate ("\ud800"), and it decodes to one
    payload = json.loads(json.dumps(_ok_payload(content)))
    backend = LiveBackend("http://host", api_key="k", session=_Session([_Response(200, payload)]))
    path = tmp_path / "t.jsonl"
    client = LlmClient(backend=RecordBackend(Transcript(path), backend), model_id="test-model")
    with pytest.raises(ProviderError, match="malformed completion payload: 'utf-8' codec"):
        client.complete(_req())
    assert backend.calls == 1 and not path.exists()


# what each HTTP client sends one request with, and a payload it accepts
HTTP_CLIENTS = {
    "completion": (LiveBackend, lambda client: client.complete(_req()), _ok_payload()),
    "embedding": (
        lambda base_url, **kw: HttpEmbeddingProvider(base_url, "emb-model", **kw),
        lambda client: client.embed_text("hello"),
        {"data": [{"embedding": [0.6, 0.8]}]},
    ),
}
http_client = pytest.mark.parametrize("what", sorted(HTTP_CLIENTS))


@http_client
def test_http_client_without_a_key_sends_nothing(monkeypatch, what) -> None:
    make, send, _ = HTTP_CLIENTS[what]
    monkeypatch.delenv("CAUSAL_RAG_API_KEY", raising=False)
    session = _Session([])
    client = make("http://host", session=session)
    with pytest.raises(ProviderError, match="no API key"):
        send(client)
    assert session.requests == [] and client.calls == 0


@http_client
def test_http_client_reads_the_key_from_the_environment(monkeypatch, what) -> None:
    make, send, ok = HTTP_CLIENTS[what]
    monkeypatch.setenv("CAUSAL_RAG_API_KEY", "envkey")
    session = _Session([_Response(200, ok)])
    send(make("http://host", session=session))
    assert session.requests[0]["headers"] == {"Authorization": "Bearer envkey"}


@http_client
def test_http_client_joins_a_base_url_with_a_trailing_slash(what) -> None:
    make, send, ok = HTTP_CLIENTS[what]
    session = _Session([_Response(200, ok)])
    send(make("http://host/api/", api_key="k", session=session))
    path = "chat/completions" if what == "completion" else "embeddings"
    assert session.requests[0]["url"] == f"http://host/api/v1/{path}"


@http_client
@pytest.mark.parametrize("payload", [{"unexpected": []}, ["x"], "text"])
def test_http_client_malformed_payload_is_a_provider_error(what, payload) -> None:
    make, send, _ = HTTP_CLIENTS[what]
    client = make("http://host", api_key="k", session=_Session([_Response(200, payload)]))
    with pytest.raises(ProviderError, match=f"malformed {what} payload"):
        send(client)


@http_client
def test_http_client_counts_requests(what) -> None:
    make, send, ok = HTTP_CLIENTS[what]
    session = _Session([_Response(200, ok), _Response(200, {}), _Response(200, ok)])
    client = make("http://host", api_key="k", session=session)
    send(client)
    with pytest.raises(ProviderError):
        send(client)
    send(client)
    assert client.calls == len(session.requests) == 3


class _CountingHandler(BaseHTTPRequestHandler):
    """Answers chat and embedding posts over kept-alive HTTP/1.1
    connections; the server's `paths` holds, per connection, the paths
    posted on it."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    ANSWERS = {"/v1/chat/completions": _ok_payload(),
               "/v1/embeddings": {"data": [{"embedding": [0.6, 0.8]}]}}

    def setup(self) -> None:
        super().setup()
        self.posted: list[str] = []
        with self.server.lock:
            self.server.paths.append(self.posted)

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers["Content-Length"]))
        self.posted.append(self.path)
        body = json.dumps(self.ANSWERS[self.path]).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def test_http_clients_keep_one_connection_per_thread(monkeypatch) -> None:
    for name in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    server.paths, server.lock = [], threading.Lock()
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    try:
        base_url = f"http://127.0.0.1:{server.server_address[1]}"
        chat = LiveBackend(base_url, api_key="k")
        embedder = HttpEmbeddingProvider(base_url, "emb-model", api_key="k")
        for _ in range(10):
            assert chat.complete(_req()).text == "1"
            assert embedder.embed_text("hello").values.tolist() == [0.6, 0.8]
        with server.lock:
            assert sorted(server.paths) == [["/v1/chat/completions"] * 10,
                                            ["/v1/embeddings"] * 10]
        # another thread posts through a connection of its own
        other = threading.Thread(target=lambda: [chat.complete(_req()) for _ in range(3)])
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        with server.lock:
            assert len(server.paths) == 3
            assert server.paths[2] == ["/v1/chat/completions"] * 3
        assert chat.calls == 13 and embedder.calls == 10
    finally:
        server.shutdown()
        server.server_close()


def _retrying(what: str, outcomes: list, sleeps: list, seed: int):
    """(client, session): an HTTP client of kind `what` whose session answers
    with `outcomes` and whose sleeps are appended to `sleeps`."""
    make, _, _ = HTTP_CLIENTS[what]
    session = _Session(outcomes)
    client = make("http://x", api_key="k", sleeper=sleeps.append, rng=random.Random(seed),
                  session=session)
    return client, session


def _url(what: str) -> str:
    return "http://x/v1/" + ("chat/completions" if what == "completion" else "embeddings")


@http_client
def test_http_client_succeeds_after_transient_failures(what) -> None:
    _, send, ok = HTTP_CLIENTS[what]
    sleeps: list[float] = []
    client, session = _retrying(
        what, [requests.ConnectionError("boom"), _Response(429), _Response(200, ok)], sleeps, 0)
    send(client)
    assert client.calls == 1 and len(session.requests) == 3
    assert len(sleeps) == 2
    # full jitter: each sleep within the doubling window
    assert 0.0 <= sleeps[0] <= 1.0
    assert 0.0 <= sleeps[1] <= 2.0
    rng = random.Random(0)
    assert sleeps == [rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0)]


@http_client
def test_http_client_exhaustion_transport(what) -> None:
    _, send, _ = HTTP_CLIENTS[what]
    sleeps: list[float] = []
    client, session = _retrying(what, [requests.Timeout("t")] * 5, sleeps, 1)
    with pytest.raises(TransportError, match="^transport failure after 5 attempts: t$"):
        send(client)
    assert client.calls == 1 and len(session.requests) == 5
    assert len(sleeps) == 4
    for i, s in enumerate(sleeps):
        assert 0.0 <= s <= 2.0**i


@http_client
def test_http_client_exhaustion_rate_limited(what) -> None:
    _, send, _ = HTTP_CLIENTS[what]
    client, session = _retrying(what, [_Response(429)] * 5, [], 2)
    with pytest.raises(TransportError, match=f"^rate limited after 5 attempts: {_url(what)}$"):
        send(client)
    assert client.calls == 1 and len(session.requests) == 5


@http_client
def test_http_client_error_not_retried(what) -> None:
    _, send, _ = HTTP_CLIENTS[what]
    sleeps: list[float] = []
    client, session = _retrying(what, [_Response(400, text="bad request")], sleeps, 3)
    with pytest.raises(ProviderError, match=f"^HTTP 400 from {_url(what)}: bad request$") as excinfo:
        send(client)
    assert type(excinfo.value) is ProviderError
    assert session.outcomes == [] and sleeps == [] and client.calls == 1


def test_llm_client_passes_settings() -> None:
    seen: list[CompletionRequest] = []

    def script(req: CompletionRequest) -> str:
        seen.append(req)
        return "0"

    client = LlmClient(backend=ScriptedBackend(script), model_id="m-1", max_output_tokens=33)
    assert client.complete_text("sys", "usr") == "0"
    assert seen[0].model_id == "m-1"
    assert seen[0].max_output_tokens == 33
    assert seen[0].system_text == "sys"


def test_a_record_backend_over_a_memo_asks_once_per_distinct_request() -> None:
    seen: list[CompletionRequest] = []

    def script(req: CompletionRequest) -> str:
        seen.append(req)
        if len(seen) == 1:
            raise TransportError("connection reset")
        return f"answer {len(seen)}"

    # a bare client keeps no answer: it asks its backend on every call
    bare = LlmClient(backend=ScriptedBackend(lambda req: "x"), model_id="m-1")
    for _ in range(3):
        bare.complete_text("sys", "usr")
    assert bare.backend.calls == 3

    client = LlmClient(backend=RecordBackend(Memo(), ScriptedBackend(script)), model_id="m-1")
    with pytest.raises(TransportError):
        client.complete_text("sys", "usr")
    assert client.complete_text("sys", "usr") == "answer 2"
    assert client.complete(client.request("sys", "usr")) == "answer 2"
    assert client.complete_text("sys", "other") == "answer 3"
    assert len(seen) == 3
    assert client.request("sys", "usr") == seen[0]


def test_replay_pipeline_bit_reproducible(tmp_path) -> None:
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)
    reqs = [_req(user_text=f"item {i}") for i in range(5)]
    for i, r in enumerate(reqs):
        transcript.append(request_hash(r), f"answer {i}", "ts")
    backend = ReplayBackend(Transcript(path))
    first = [backend.complete(r).text for r in reqs]
    second = [ReplayBackend(Transcript(path)).complete(r).text for r in reqs]
    assert first == second == [f"answer {i}" for i in range(5)]


def test_a_transcript_timestamp_is_utc_iso_8601_to_the_microsecond(monkeypatch) -> None:
    stamp = gateway._utc_now()
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", stamp), stamp
    gap = datetime.fromisoformat(stamp) - datetime.now(timezone.utc)
    assert abs(gap.total_seconds()) < 1.0
    # six fractional digits at a whole second too, and 1 us is not rounded away
    for ns, expected in ((1_767_323_045_000_000_000, "2026-01-02T03:04:05.000000+00:00"),
                         (1_767_323_045_000_001_999, "2026-01-02T03:04:05.000001+00:00")):
        monkeypatch.setattr(gateway.time, "time_ns", lambda ns=ns: ns)
        assert gateway._utc_now() == expected


# --- in_order under scripted completion orders -------------------------------


class _ScriptedFuture:
    """A future of `_ScriptedPool`: waiting on it while it is unfinished
    drives the pool's schedule until it is done."""

    def __init__(self, pool: _ScriptedPool, index: int, call):
        self.pool, self.index, self.call = pool, index, call
        self.finished = False
        self.value = self.error = None

    def done(self) -> bool:
        return self.finished

    def result(self):
        while not self.finished:
            self.pool.drive()
        if self.error is not None:
            raise self.error
        return self.value


class _ScriptedPool:
    """A stand-in for `ThreadPoolExecutor` that runs nothing on a thread.
    Submitted work starts in submission order on `workers` slots; a started
    item finishes, its function run there and then, only when the schedule
    moves on, which finishes the started item that `rank` puts first. The
    schedule moves on when the stream waits on an unfinished future
    (`drive`, which `on_drive` sees first), and after each submit as many
    times as the next of `eager` says, as work finishing while the stream
    reads."""

    def __init__(self, workers: int, rank: list, eager: tuple, on_drive):
        self.workers, self.rank, self.on_drive = workers, rank, on_drive
        self.eager = itertools.cycle(eager)
        self.futures: list[_ScriptedFuture] = []
        self.queued: list[_ScriptedFuture] = []
        self.started: list[_ScriptedFuture] = []
        self.shut_down = False

    def submit(self, fn, *args) -> _ScriptedFuture:
        assert not self.shut_down
        future = _ScriptedFuture(self, len(self.futures), lambda: fn(*args))
        self.futures.append(future)
        self.queued.append(future)
        self._start()
        for _ in range(next(self.eager)):
            if self.started:
                self._finish()
        return future

    def drive(self) -> None:
        assert self.started, "the stream waits on work that never starts"
        self.on_drive()
        self._finish()

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        assert wait and cancel_futures
        self.shut_down = True
        self.queued.clear()  # the real pool cancels them: they never run
        while self.started:
            self._finish()

    def unfinished(self) -> int:
        return sum(not future.finished for future in self.futures)

    def _start(self) -> None:
        while self.queued and len(self.started) < self.workers:
            self.started.append(self.queued.pop(0))

    def _finish(self) -> None:
        future = min(self.started, key=lambda f: self.rank[f.index])
        self.started.remove(future)
        try:
            future.value = future.call()
        except Exception as exc:
            future.error = exc
        future.finished = True
        self._start()


_Waited = collections.namedtuple("_Waited", "done not_done")


def _scripted_wait(pools: list):
    def wait(futures, timeout=None, return_when=concurrent.futures.ALL_COMPLETED):
        assert timeout is None
        futures = set(futures)
        enough = any if return_when == concurrent.futures.FIRST_COMPLETED else all
        while not enough(future.finished for future in futures):
            pools[-1].drive()
        done = {future for future in futures if future.finished}
        return _Waited(done, futures - done)
    return wait


# the stream names no error type: each of these stops it in the same way
STREAM_ERRORS = (ProviderError, OSError, MalformedRecordError)


def _stream_under(n: int, concurrency: int, rank: list, eager: tuple, fail_at=None,
                  read_error_at=None, error=ProviderError) -> None:
    """Runs `in_order` over `n` items under one completion order, with the
    scripted pool patched in, and checks every invariant of the stream:
    - the results come in item order, each once; an item's `error`, or one
      from reading an item, comes after every result ahead of it;
    - once a failure is recorded, no item is read, and no work starts
      behind it;
    - at each read, fewer than the window of items are unfinished and fewer
      than the cap are read and not yet yielded;
    - while it reads, the stream waits only when it must: the window is
      full, or the cap is reached;
    - the pool is shut down, and nothing is left running."""
    window = gateway.LOOKAHEAD_PER_WORKER * concurrency
    most_waiting = gateway.WAITING_PER_WORKER * concurrency
    pools: list[_ScriptedPool] = []
    state = {"failed": None, "reading": True, "yielded": 0}
    # what `items` and `work` see broken; raised there, an AssertionError
    # would be one more failure to the stream, which may raise another first
    broken: list[str] = []

    def expect(holds: bool, invariant: str) -> None:
        if not holds:
            broken.append(invariant)

    def unyielded() -> int:
        return len(pools[-1].futures) - state["yielded"] if pools else 0

    def on_drive() -> None:
        if state["reading"] and state["failed"] is None:
            assert (pools[-1].unfinished() == window or unyielded() == most_waiting), \
                "the stream waited with room to read"

    def items():
        for position in range(n + 1):
            expect(state["failed"] is None, "an item read after a recorded failure")
            if pools:
                expect(pools[-1].unfinished() < window, "an item read with the window full")
                expect(unyielded() < most_waiting, "an item read past the cap")
            if position == n:
                break
            if position == read_error_at:
                state["reading"] = False
                raise error(f"read {position}")
            yield position
        state["reading"] = False

    def work(position: int) -> int:
        failed = state["failed"]
        expect(failed is None or position < failed, "work started behind a recorded failure")
        if position == fail_at:
            state["failed"] = position
            raise error(f"work {position}")
        return 10 * position

    def pool(workers: int) -> _ScriptedPool:
        assert workers == concurrency
        pools.append(_ScriptedPool(workers, rank, eager, on_drive))
        return pools[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
        patch.setattr(concurrent.futures, "wait", _scripted_wait(pools))
        out = []
        stop = min((p for p in (fail_at, read_error_at) if p is not None), default=n)
        raised = (contextlib.nullcontext() if stop == n else pytest.raises(
            error, match=f"^{'read' if stop == read_error_at else 'work'} {stop}$"))
        with raised:
            for result in gateway.in_order(work, items(), concurrency):
                out.append(result)
                state["yielded"] += 1
    assert broken == []
    assert out == [10 * position for position in range(stop)]
    assert len(pools) == (concurrency > 1)
    assert all(pool.shut_down and pool.started == [] for pool in pools)


@pytest.mark.parametrize("concurrency", [1, 2, 3])
def test_in_order_keeps_its_invariants_under_every_completion_order(monkeypatch, concurrency):
    """Every order in which up to 6 items can finish, with work finishing
    only when the stream waits, or also at each submit or every other one,
    and with a failing item or an item that cannot be read at each position
    (up to 5 items), raising each of `STREAM_ERRORS`. The
    window (1 a worker) and the cap (2 a worker) are small enough to bind.
    At concurrency 1 no pool is made."""
    monkeypatch.setattr(gateway, "LOOKAHEAD_PER_WORKER", 1)
    monkeypatch.setattr(gateway, "WAITING_PER_WORKER", 2)
    for n in range(7):
        for rank in itertools.permutations(range(n)):
            for eager in ((0,), (1,), (0, 1)):
                _stream_under(n, concurrency, rank, eager)
                if n > 5:
                    continue
                for position, error in itertools.product(range(n), STREAM_ERRORS):
                    _stream_under(n, concurrency, rank, eager, fail_at=position, error=error)
                    _stream_under(n, concurrency, rank, eager, read_error_at=position,
                                  error=error)


def test_in_order_keeps_its_invariants_under_random_completion_orders(monkeypatch):
    """200 seeded random orders of 200 items at concurrency 2 and 3, under
    the module's window and a cap of 8 a worker, some with a failing item,
    an unreadable item, or both, each raising each of `STREAM_ERRORS`."""
    monkeypatch.setattr(gateway, "WAITING_PER_WORKER", 8)
    rng, n = random.Random(20081208), 200
    for _ in range(200):
        concurrency = rng.choice([2, 3])
        rank = list(range(n))
        rng.shuffle(rank)
        # a slow item: it finishes after most of those behind it
        for slow in rng.sample(range(n), 3):
            rank[slow] += rng.randrange(n)
        eager = tuple(rng.choice([0, 0, 1, 2]) for _ in range(17))
        fail_at = rng.choice([None, rng.randrange(n)])
        read_error_at = rng.choice([None, rng.randrange(n)])
        for error in STREAM_ERRORS:
            _stream_under(n, concurrency, rank, eager, fail_at, read_error_at, error)


def test_ctrl_c_while_reading_propagates_at_once():
    """A `KeyboardInterrupt` is no failure to record: it is raised as it
    comes, before the result of the slow item ahead of it."""
    def items():
        yield 0
        raise KeyboardInterrupt

    out = []
    with pytest.raises(KeyboardInterrupt):
        for result in gateway.in_order(lambda item: time.sleep(0.2) or item, items(), 2):
            out.append(result)
    assert out == []
