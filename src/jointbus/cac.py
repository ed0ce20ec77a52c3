"""Crosstalk-avoidance codec: counting, enumerative rank/unrank, word codec.

Given the past bus state, the valid next states are the words with no
opposing transition on any adjacent wire pair. Valid words factor across
alternating runs of the past state, and each run of length d admits exactly
F(d+2) continuations, so the code is realized run by run with a global
mixed-radix wrapper (an enumerative code in the sense of Cover, 1973).

The payload codec lives here once: ``_encode_segments``/``_decode_segments``
map payload bits to and from a word over any (k, 2) array of (start,
length) segments, and ``_payload_bits`` gives the payload size.
The mixed-radix conversion goes through one product tree over the
segments' counts (Knuth, TAOCP vol. 2, sec. 4.4; Bernstein, "Fast
multiplication and its applications", 2008): its root gives the payload
size, a top-down remainder tree splits the payload index into digits and
a bottom-up pass recombines them. Sequential divmod and Horner loops are
quadratic in the index length: on a uniform 10^5-wire past (about 50,000
runs, an 82,500-bit index; 2-vCPU Xeon, Python 3.11) the tree takes 6 ms
to build, 13-16 ms to split and 5-8 ms to recombine, against 85 ms for
``math.prod``, 590 ms for the divmod loop and 130-210 ms for Horner.
``cac_encode`` and ``cac_decode`` apply it to the runs of the past state;
the embedded encoder, the instance builder's info-bits words,
``decode_payload`` and the decoder's payload extraction apply it to the
segments a ``WireLayout`` leaves after the parities.
"""

from __future__ import annotations

import math

import numpy as np

from .buscore import BitsLike, as_bits, fib, _fib_table, _own_bits, _run_bounds

__all__ = [
    "RunCodebook",
    "count_codewords",
    "cac_encode",
    "cac_decode",
    "cac_rate",
]

# Marker for the wires outside the segments a payload is encoded onto.
UNSET = np.uint8(2)


class RunCodebook:
    """Enumerative codec for the continuations of one alternating run.

    Codewords are ordered lexicographically (0 < 1, wire order). Ranking uses
    a suffix-count table: ``counts[i][v]`` is the number of valid completions
    of positions i.. given bit v at position i; all entries are Fibonacci
    numbers, kept as exact integers.
    """

    def __init__(self, past_run_bits: BitsLike):
        past = _own_bits(past_run_bits)
        if past.size > 1 and np.any(past[1:] == past[:-1]):
            raise ValueError("past run bits must alternate")
        d = past.size
        counts = [[0, 0] for _ in range(d)]
        counts[d - 1] = [1, 1]
        for i in range(d - 2, -1, -1):
            nxt = counts[i + 1]
            # Bit equal to the past bit makes no transition: both next bits
            # are allowed. A transition forbids the neighbour transitioning.
            counts[i][past[i]] = nxt[0] + nxt[1]
            counts[i][1 - past[i]] = nxt[past[i + 1]]
        self.past = past
        self._counts = counts

    @property
    def codeword_count(self) -> int:
        c = self._counts[0]
        return c[0] + c[1]

    def __len__(self) -> int:
        return self.past.size

    def _allowed(self, i: int, prev_bit: int, v: int) -> bool:
        if i == 0:
            return True
        past = self.past
        return not (prev_bit != past[i - 1] and v != past[i])

    def unrank(self, index: int) -> np.ndarray:
        """index-th valid continuation in lexicographic order."""
        total = self.codeword_count
        if not 0 <= index < total:
            raise ValueError(f"index {index} out of range [0, {total})")
        out = np.empty(self.past.size, dtype=np.uint8)
        rem = int(index)
        for i in range(self.past.size):
            for v in (0, 1):
                if not self._allowed(i, out[i - 1] if i else 0, v):
                    continue
                c = self._counts[i][v]
                if rem < c:
                    out[i] = v
                    break
                rem -= c
        return out

    def rank(self, continuation: BitsLike) -> int:
        """Inverse of ``unrank`` for a valid continuation."""
        word = as_bits(continuation)
        if word.size != self.past.size:
            raise ValueError("continuation length does not match the run length")
        idx = 0
        for i in range(word.size):
            v = int(word[i])
            if not self._allowed(i, int(word[i - 1]) if i else 0, v):
                raise ValueError(
                    f"continuation opposes the past run at position {i + 1} within the run"
                )
            if v == 1:
                idx += self._counts[i][0] if self._allowed(i, int(word[i - 1]) if i else 0, 0) else 0
        return idx


def count_codewords(a: BitsLike) -> int:
    """Number of valid next states for past state ``a``: prod F(d_m + 2)."""
    arr = as_bits(a)
    return _product_tree(_radices(_runs(arr)))[-1][0]


def _runs(a: np.ndarray) -> np.ndarray:
    """(start, length) of every run of ``a``, 0-based, wire order: an int64
    (k, 2) array."""
    return np.column_stack(_run_bounds(a))


def _radices(segments: np.ndarray) -> list[int]:
    """The codeword counts F(d + 2) of the (k, 2) (start, length)
    segments, in segment order, read off the Fibonacci table in one pass."""
    if not segments.size:
        return []
    table = _fib_table(int(segments[:, 1].max()) + 2)
    return [table[d] for d in (segments[:, 1] + 2).tolist()]


def _product_tree(radices: list[int]) -> list[list[int]]:
    """Product tree over ``radices``, leaves first: each level multiplies
    the adjacent pairs of the level below, an odd last node moving up
    unchanged, and the last level holds the product alone (no level past
    the leaves when there are fewer than two radices)."""
    levels = [radices]
    while len(levels[-1]) > 1:
        level = levels[-1]
        up = [x * y for x, y in zip(level[0::2], level[1::2])]
        if len(level) % 2:
            up.append(level[-1])
        levels.append(up)
    return levels


def _tree_bits(levels: list[list[int]]) -> int:
    """floor(log2) of the product at the root of a product tree: the
    payload size. The fractional remainder of the index space is never
    used."""
    return (levels[-1][0] if levels[-1] else 1).bit_length() - 1


def _payload_bits(segments: np.ndarray) -> int:
    """Payload size over a (k, 2) array of (start, length) segments."""
    return _tree_bits(_product_tree(_radices(segments)))


def _split(index: int, levels: list[list[int]]) -> list[int]:
    """Mixed-radix digits of ``index`` below the root of a product tree,
    first radix most significant: going down the tree, each node's value
    is divided by the product under its right child, the quotient going
    left and the remainder right."""
    if not levels[0]:
        return []
    values = [index]
    for level in reversed(levels[:-1]):
        down: list[int] = []
        for v, right in zip(values, level[1::2]):
            down += divmod(v, right)
        if len(level) % 2:
            down.append(values[-1])
        values = down
    return values


def _join(digits: list[int], levels: list[list[int]]) -> int:
    """Inverse of ``_split``: going up the tree, each node's value is its
    left child's value times the product under its right child, plus the
    right child's value."""
    values = digits
    for level in levels[:-1]:
        up = [x * right + y for x, y, right in zip(values[0::2], values[1::2], level[1::2])]
        if len(level) % 2:
            up.append(values[-1])
        values = up
    return values[0] if values else 0


def _encode_segments(info_bits: BitsLike, a: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Payload -> word over the (k, 2) (start, length) segments of past
    state ``a``.

    The payload is read as a big-endian integer and split by mixed radix
    over the per-segment codeword counts (first segment most significant)
    through their product tree; each digit is unranked within its segment.
    Wires outside the segments are ``UNSET``.
    """
    levels = _product_tree(_radices(segments))
    k = _tree_bits(levels)
    bits = as_bits(info_bits) if len(info_bits) else np.zeros(0, dtype=np.uint8)
    if bits.size != k:
        raise ValueError(f"payload must have exactly {k} bits, got {bits.size}")
    index = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-k % 8)
    out = np.full(a.size, UNSET, dtype=np.uint8)
    for (s, d), dig in zip(segments.tolist(), _split(index, levels)):
        out[s : s + d] = RunCodebook(a[s : s + d]).unrank(dig)
    return out


def _decode_segments(word: np.ndarray, a: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Inverse of ``_encode_segments``; wires outside the segments are
    ignored. Raises if a segment violates a crosstalk constraint (the
    first such segment in wire order) or if the recombined index falls
    outside the 2**K payload range."""
    if word.size != a.size:
        raise ValueError("word length does not match the past state")
    digits = []
    for s, d in segments.tolist():
        book = RunCodebook(a[s : s + d])
        try:
            digits.append(book.rank(word[s : s + d]))
        except ValueError as exc:
            raise ValueError(f"wires {s + 1}..{s + d}: {exc}") from None
    levels = _product_tree(_radices(segments))
    k = _tree_bits(levels)
    index = _join(digits, levels)
    if index >> k:
        try:
            shown = f"word index {index}"
        except ValueError:  # more decimal digits than int-to-str conversion allows
            shown = f"a {index.bit_length()}-bit word index"
        raise ValueError(f"{shown} falls outside the used range [0, 2**{k})")
    packed = np.frombuffer(index.to_bytes((k + 7) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(packed)[-k % 8 :]


def cac_encode(info_bits: BitsLike, a: BitsLike) -> np.ndarray:
    """Encode a payload onto every wire of past state ``a``.

    The no-parity case of the payload codec, over all runs of ``a``: the
    payload has ``payload_size(a, 0)`` bits, floor(log2) of
    ``count_codewords(a)``, and the word satisfies the crosstalk
    constraints of ``a``.
    """
    arr = as_bits(a)
    return _encode_segments(info_bits, arr, _runs(arr))


def cac_decode(word: BitsLike, a: BitsLike) -> np.ndarray:
    """Recover the payload from a full bus word; inverse of ``cac_encode``.

    Raises if the word violates a crosstalk constraint or if its
    recombined index falls outside the 2**K payload range.
    """
    arr = as_bits(a)
    return _decode_segments(as_bits(word), arr, _runs(arr))


def cac_rate(a: BitsLike) -> float:
    """Information rate (1/N) sum log2 F(d_m + 2) for past state ``a``."""
    arr = as_bits(a)
    _, lengths = _run_bounds(arr)
    return sum(math.log2(fib(int(d) + 2)) for d in lengths) / arr.size
