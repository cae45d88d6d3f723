"""`jsonl.encode_line` is the contract every stored line is held to: the
bytes and the errors of `JSONEncoder(sort_keys=True, ensure_ascii=False).encode`
for every value, in every thread, and after a failed call too.
`PredictionRecord.line()` and `Transcript.append` spell their lines to
match it, and any faster encoder put in its place must keep these."""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from causal_rag.jsonl import encode_line

STDLIB = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode

# quotes, escapes, every control character, non-ASCII text, the line and
# paragraph separators, emoji, a byte-order mark and lone surrogates
ALPHABET = ('ab ."\\/' + "".join(map(chr, range(0x20)))
            + "\x7f\u00e9\u2014\u00ab\u2028\u2029\U0001f600\U0001f9ea\ufeff\ud800\udfff")
FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.7976931348623157e308,
          float("nan"), float("inf"), float("-inf"), 0.1, 1e-05, 0.721688, 3.0)
INTS = (0, -1, 2**63 - 1, 2**63, -2**64 - 1, 2**64 + 7, 10**40, -10**40)


def text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(12)))


def scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return text(rng)
    if kind == 1:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind == 2:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randrange(-10**6, 10**6)
    return (True, False, None)[kind - 3]


def value(rng: random.Random, depth: int = 0):
    """A seeded JSON value: a scalar, or a list, tuple or dict (string keys,
    or int keys only) nested up to three deep."""
    kind = rng.randrange(5) if depth < 3 else 0
    size = rng.randrange(5)
    if kind == 1:
        return [value(rng, depth + 1) for _ in range(size)]
    if kind == 2:
        return tuple(value(rng, depth + 1) for _ in range(size))
    if kind == 3:
        return {text(rng): value(rng, depth + 1) for _ in range(size)}
    if kind == 4:
        return {rng.randrange(-50, 50): value(rng, depth + 1) for _ in range(size)}
    return scalar(rng)


VALUES = [value(random.Random(f"encode-line|{seed}")) for seed in range(5000)]
VALUES += [*FLOATS, *INTS, True, False, None, "", "\ud800", "é \n\"\\",
           {"b": [1.5, {"d": None, "c": "é"}], "a": -0.0}, [], {}, [[[]]]]


def test_encode_line_gives_the_stdlib_bytes_for_every_seeded_value():
    kinds = {type(v) for v in VALUES}
    assert {str, float, int, bool, type(None), list, tuple, dict} <= kinds
    for v in VALUES:
        assert encode_line(v) == STDLIB(v), v


def test_four_threads_encoding_at_once_each_get_the_stdlib_bytes():
    expected = [STDLIB(v) for v in VALUES]
    start = threading.Barrier(4)
    results: dict[int, list[str]] = {}

    def encode_all(n: int) -> None:
        start.wait()
        values = VALUES[n:] + VALUES[:n]  # each thread starts elsewhere
        results[n] = [encode_line(v) for v in values]

    threads = [threading.Thread(target=encode_all, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for n, got in results.items():
        assert got == expected[n:] + expected[:n]
    assert len(results) == 4


def raised(encode, obj) -> tuple[type, str, list]:
    with pytest.raises((TypeError, ValueError)) as excinfo:
        encode(obj)
    exc = excinfo.value
    return type(exc), str(exc), getattr(exc, "__notes__", [])


def test_a_failed_call_raises_the_stdlib_error_and_leaves_the_thread_able_to_encode():
    cyclic = [1, {"a": [2]}]
    cyclic[1]["a"].append(cyclic)
    assert raised(encode_line, cyclic) == raised(STDLIB, cyclic)
    assert raised(encode_line, cyclic)[:2] == (ValueError, "Circular reference detected")
    unserializable = {"outer": [1.5, {1, 2}]}
    assert raised(encode_line, unserializable) == raised(STDLIB, unserializable)
    assert raised(encode_line, unserializable)[:2] == (
        TypeError, "Object of type set is not JSON serializable")

    # the same containers, no longer bad, encode: nothing of the failed
    # calls is left to read them as a cycle
    cyclic[1]["a"].pop()
    unserializable["outer"][1] = None
    for v in (cyclic, unserializable, *VALUES[:200]):
        assert encode_line(v) == STDLIB(v)

