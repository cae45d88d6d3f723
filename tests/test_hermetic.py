"""The offline guard of `conftest.py`: a test that asks for a host other
than this one fails at once, naming it. (The HTTP tests of `test_gateway`
serve on loopback, which the guard lets through.)"""

from __future__ import annotations

import socket

import pytest

from conftest import NetworkBlocked

from causal_rag.gateway import CompletionRequest, LiveBackend


def test_a_connect_to_a_non_loopback_address_fails_naming_it():
    with socket.socket() as sock, pytest.raises(NetworkBlocked, match=r"'192\.0\.2\.1'"):
        sock.connect(("192.0.2.1", 80))


def test_a_live_request_to_a_real_host_fails_at_once_without_a_retry():
    def sleeper(seconds):
        raise AssertionError("a blocked host was retried")

    live = LiveBackend("https://api.openai.com", api_key="k", sleeper=sleeper)
    with pytest.raises(NetworkBlocked, match=r"'api\.openai\.com'"):
        live.complete(CompletionRequest("system", "user", "m"))
    assert live.calls == 1

