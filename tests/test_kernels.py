"""String kernels against an independent oracle.

The oracle is a straightforward full-matrix edit-distance DP written here
from the recurrence, sharing no code with the bit-parallel `levenshtein`.
Strings run to 130 characters, so the bit vectors span more than two 64-bit
words.
"""

from __future__ import annotations

import random

import pytest

import causal_rag
from causal_rag import kernels

ALPHABET = "abcde -"
BINARY = "ab"
LETTERS = "abcdefghijklmnopqrstuvwxyz "
NON_ASCII = "aé中ß😀 -"


def reference_levenshtein(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


def _word(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _pairs(rng: random.Random):
    """Seeded pairs: random strings over small and large alphabets, lengths
    around each 64-bit word boundary, runs of one repeated character,
    periodic strings, and non-ASCII text."""
    for alphabet in (BINARY, LETTERS, NON_ASCII):
        for _ in range(60):
            yield (
                _word(rng, alphabet, rng.randint(0, 130)),
                _word(rng, alphabet, rng.randint(0, 130)),
            )
        for _ in range(60):
            yield (
                _word(rng, alphabet, rng.randint(0, 12)),
                _word(rng, alphabet, rng.randint(0, 12)),
            )
    for length in (1, 63, 64, 65, 127, 128, 129, 130):
        base = _word(rng, LETTERS, length)
        edited = list(base)
        for _ in range(rng.randint(1, 5)):
            edited[rng.randrange(len(edited))] = rng.choice(LETTERS)
        yield base, "".join(edited)
        yield base, base[1:] + rng.choice(LETTERS)
        yield base, _word(rng, LETTERS, rng.randint(0, 130))
    for _ in range(20):
        yield "a" * rng.randint(0, 130), "a" * rng.randint(0, 130)
        yield "a" * rng.randint(0, 130), "b" * rng.randint(0, 130)
        yield "ab" * rng.randint(0, 65), "ba" * rng.randint(0, 65)
        yield "x" * rng.randint(0, 66) + "y", "y" + "x" * rng.randint(0, 66)


def test_levenshtein_anchors():
    assert kernels.levenshtein("", "") == 0
    assert kernels.levenshtein("", "abc") == 3
    assert kernels.levenshtein("abc", "") == 3
    assert kernels.levenshtein("kitten", "sitting") == 3
    assert kernels.levenshtein("caused by", "caused by the") == 4
    assert kernels.levenshtein("a" * 130, "") == 130
    assert kernels.levenshtein("a" * 130, "a" * 65) == 65


def test_edit_ratio_anchors():
    assert kernels.edit_ratio("", "") == 1.0
    assert kernels.edit_ratio("same", "same") == 1.0
    assert kernels.edit_ratio("abc", "xyz") == 0.0
    # distance 4 over max length 13
    assert kernels.edit_ratio("caused by", "caused by the") == pytest.approx(1.0 - 4.0 / 13.0)
    # one substitution over length 8
    assert kernels.edit_ratio("lead to", "leads to") == 0.875


def test_token_subsequence_anchors():
    assert kernels.token_subsequence((), ("a", "b")) is True
    assert kernels.token_subsequence(("a",), ()) is False
    assert kernels.token_subsequence(("b", "c"), ("a", "b", "c", "d")) is True
    assert kernels.token_subsequence(("b", "d"), ("a", "b", "c", "d")) is False
    assert kernels.token_subsequence(("a", "b"), ("a", "b")) is True
    # contiguity: gaps do not count
    assert kernels.token_subsequence(("a", "c"), ("a", "b", "c")) is False


def test_levenshtein_matches_reference_dp():
    rng = random.Random(20240811)
    checked = 0
    for a, b in _pairs(rng):
        expected = reference_levenshtein(a, b)
        assert kernels.levenshtein(a, b) == expected, (a, b)
        assert kernels.levenshtein(b, a) == expected, (b, a)
        ratio = 1.0 if a == b else 1.0 - expected / max(len(a), len(b))
        assert kernels.edit_ratio(a, b) == ratio, (a, b)
        checked += 1
    assert checked > 400


def test_levenshtein_metric_properties():
    rng = random.Random(7)
    samples = [
        "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 10))) for _ in range(40)
    ]
    for a in samples[:12]:
        assert kernels.levenshtein(a, a) == 0
    for a, b in zip(samples, samples[1:]):
        assert kernels.levenshtein(a, b) == kernels.levenshtein(b, a)
        assert abs(len(a) - len(b)) <= kernels.levenshtein(a, b) <= max(len(a), len(b))
    for a, b, c in zip(samples, samples[1:], samples[2:]):
        assert kernels.levenshtein(a, c) <= kernels.levenshtein(a, b) + kernels.levenshtein(b, c)


def test_edit_ratio_bounds_and_symmetry():
    rng = random.Random(99)
    for _ in range(200):
        a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 10)))
        ratio = kernels.edit_ratio(a, b)
        assert 0.0 <= ratio <= 1.0
        assert ratio == kernels.edit_ratio(b, a)
        if a == b:
            assert ratio == 1.0


def test_token_subsequence_matches_slice_scan():
    rng = random.Random(4242)
    vocab = ("u", "v", "w", "x")
    for _ in range(300):
        haystack = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        needle = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 4)))
        expected = any(
            haystack[i : i + len(needle)] == needle
            for i in range(len(haystack) - len(needle) + 1)
        ) or len(needle) == 0
        assert kernels.token_subsequence(needle, haystack) is expected, (needle, haystack)


def test_package_exposes_selected_backend():
    assert causal_rag.KERNEL_BACKEND == "python"
    assert kernels.levenshtein("a", "b") == 1
    assert kernels.edit_ratio("ab", "ab") == 1.0
    assert kernels.token_subsequence(("a",), ("a",)) is True
