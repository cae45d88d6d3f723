"""String kernels: edit distance, edit similarity and token containment.

`levenshtein` is the bit-parallel edit distance of Myers (J. ACM 46(3),
1999) in Hyyrö's formulation for whole strings (2001). One Python int holds
a column of the DP's vertical deltas as bit vectors, so each character of
the shorter string costs a fixed handful of integer operations, whatever the
length of the longer one.
"""


def levenshtein(a: str, b: str) -> int:
    """Unit-cost character edit distance between two strings."""
    if a == b:
        return 0
    # bit vectors over the longer string, scanned by the shorter one
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv = mask  # +1 vertical deltas: column 0 is 0, 1, ..., len(a)
    mv = 0  # -1 vertical deltas
    score = len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # row 0 grows by one per column, so a +1 shifts in at the bottom
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def edit_ratio(a: str, b: str) -> float:
    """Normalized edit similarity: 1 - distance / max(len).

    Equal strings score 1.0 (including two empty strings).
    """
    if a == b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def token_subsequence(needle: tuple, haystack: tuple) -> bool:
    """True if `needle` occurs as a contiguous run inside `haystack`."""
    n = len(needle)
    if n == 0:
        return True
    h = len(haystack)
    if n > h:
        return False
    first = needle[0]
    for i in range(h - n + 1):
        if haystack[i] == first and haystack[i : i + n] == needle:
            return True
    return False
