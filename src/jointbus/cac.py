"""Crosstalk-avoidance codec: counting, enumerative rank/unrank, word codec.

Given the past bus state, the valid next states are the words with no
opposing transition on any adjacent wire pair. Valid words factor across
alternating runs of the past state, and each run of length d admits exactly
F(d+2) continuations, so the code is realized run by run with a global
mixed-radix wrapper (an enumerative code in the sense of Cover, 1973).

The payload codec lives here once: ``_encode_segments``/``_decode_segments``
map payload bits to and from a word over any list of (start, length)
segments, and ``_payload_bits`` gives the payload size. ``cac_encode`` and
``cac_decode`` apply it to the runs of the past state; the embedded encoder,
the instance builder's info-bits words, ``decode_payload`` and the
decoder's payload extraction apply it to the segments a ``WireLayout``
leaves after the parities.
"""

from __future__ import annotations

import math

import numpy as np

from .buscore import BitsLike, as_bits, fib, _run_bounds

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
        past = as_bits(past_run_bits)
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
    _, lengths = _run_bounds(arr)
    out = 1
    for d in lengths:
        out *= fib(int(d) + 2)
    return out


def _runs(a: np.ndarray) -> list[tuple[int, int]]:
    """(start, length) of every run of ``a``, 0-based, wire order."""
    return list(zip(*(x.tolist() for x in _run_bounds(a))))


def _payload_bits(segments) -> int:
    """Payload size over (start, length) segments: floor(log2) of the
    product of their run counts F(d + 2). The fractional remainder of the
    index space is never used."""
    return math.prod(fib(d + 2) for _, d in segments).bit_length() - 1


def _encode_segments(info_bits: BitsLike, a: np.ndarray, segments) -> np.ndarray:
    """Payload -> word over the (start, length) segments of past state ``a``.

    The payload is read as a big-endian integer and decomposed by mixed
    radix over the per-segment codeword counts (first segment most
    significant); each digit is unranked within its segment. Wires outside
    the segments are ``UNSET``.
    """
    k = _payload_bits(segments)
    bits = as_bits(info_bits) if len(info_bits) else np.zeros(0, dtype=np.uint8)
    if bits.size != k:
        raise ValueError(f"payload must have exactly {k} bits, got {bits.size}")
    index = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-k % 8)
    books = [RunCodebook(a[s : s + d]) for s, d in segments]
    digits: list[int] = []
    for book in reversed(books):
        index, dig = divmod(index, book.codeword_count)
        digits.append(dig)
    out = np.full(a.size, UNSET, dtype=np.uint8)
    for (s, d), book, dig in zip(segments, books, reversed(digits)):
        out[s : s + d] = book.unrank(dig)
    return out


def _decode_segments(word: np.ndarray, a: np.ndarray, segments) -> np.ndarray:
    """Inverse of ``_encode_segments``; wires outside the segments are
    ignored. Raises if a segment violates a crosstalk constraint or if the
    recombined index falls outside the 2**K payload range."""
    if word.size != a.size:
        raise ValueError("word length does not match the past state")
    k = _payload_bits(segments)
    index = 0
    for s, d in segments:
        book = RunCodebook(a[s : s + d])
        try:
            index = index * book.codeword_count + book.rank(word[s : s + d])
        except ValueError as exc:
            raise ValueError(f"wires {s + 1}..{s + d}: {exc}") from None
    if index >> k:
        raise ValueError(f"word index {index} falls outside the used range [0, 2**{k})")
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
