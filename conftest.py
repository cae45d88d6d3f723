"""Tier-1 is hermetic: no test reaches a host other than this one, and no
test hangs the suite. This file sits at the root of the checkout so that it
covers every test collected, those of `tests/` and of `perfbench/` alike.

- Every test runs with `socket.getaddrinfo` and `socket.socket.connect`
  wrapped, in this process only: a host or address that is not loopback
  raises `NetworkBlocked`, naming it, before any lookup or packet. A test
  marked `network` (the opt-in live smoke test) runs unguarded.
- Every test runs under a time limit: past `TEST_TIME_LIMIT_S`,
  `faulthandler` prints every thread's stack to the terminal and ends the
  run. The slowest test, the killed-run test, waits at most 60 s for its
  child and 30 s for it to die."""

from __future__ import annotations

import contextlib
import faulthandler
import ipaddress
import os
import socket
import sys

import pytest

TEST_TIME_LIMIT_S = 300.0

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    """Copy the terminal's stderr with output capture off: the stack the
    time limit prints would be lost in a captured stream, as the limit
    ends the process."""
    capture = config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


class NetworkBlocked(RuntimeError):
    """A test asked for a host that is not loopback. Not an `OSError`, so
    no retry loop takes it for a transport failure."""


def _refuse_unless_loopback(host) -> None:
    if host is None or host == "localhost":
        return
    try:
        if ipaddress.ip_address(host).is_loopback:
            return
    except ValueError:  # a host name
        pass
    raise NetworkBlocked(f"tier-1 is offline: refused a connection to {host!r}")


@pytest.fixture(autouse=True)
def _offline(request, monkeypatch):
    if request.node.get_closest_marker("network"):
        return
    getaddrinfo, connect, connect_ex = (
        socket.getaddrinfo, socket.socket.connect, socket.socket.connect_ex)

    def guarded_getaddrinfo(host, *args, **kwargs):
        _refuse_unless_loopback(host)
        return getaddrinfo(host, *args, **kwargs)

    def guarded(method):
        def call(self, address):
            if self.family in (socket.AF_INET, socket.AF_INET6):
                _refuse_unless_loopback(address[0])
            return method(self, address)
        return call

    monkeypatch.setattr(socket, "getaddrinfo", guarded_getaddrinfo)
    monkeypatch.setattr(socket.socket, "connect", guarded(connect))
    monkeypatch.setattr(socket.socket, "connect_ex", guarded(connect_ex))


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
